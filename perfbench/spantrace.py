"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public functions of the package's modules (and a few
named methods) from outside the package. Each call becomes one span:
``[name_id, start, end, parent]``, where ``parent`` is the index of the
enclosing span or -1. Every span of one run shares the recorder's run id.
Counters are recorded at the same boundaries, from a call's arguments and
result. Nothing is written while the program runs; ``dump`` writes the whole
trace once, at the end.

Modules and names that do not exist in the package (for example because a
later version deleted them) are skipped, and so is a counter whose hook no
longer fits the call: the metrics built from them are simply absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path
from typing import Any, Callable, Iterable

#: Counter hook: (args, kwargs, result) -> {counter name: value}.
CounterHook = Callable[[tuple, dict, Any], dict[str, float]]


class SpanRecorder:
    """Collects spans and counters for one run in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[str, list[float]] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable, hook: CounterHook | None = None) -> Callable:
        """Return ``fn`` wrapped so that every call records a span named ``name``."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                try:
                    values = hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    values = {}  # the call no longer has the shape the hook reads
                for key, value in values.items():
                    counts.setdefault(key, []).append(float(value))
            return result

        return traced

    def instrument(
        self,
        package: str,
        modules: Iterable[str],
        methods: Iterable[tuple[str, str, str]] = (),
        hooks: dict[str, CounterHook] | None = None,
    ) -> None:
        """Wrap ``package.<module>`` public functions and the listed methods.

        Every module-level binding of a wrapped function is replaced, so the
        names a module imports from another (``from .type2 import solve_type2``)
        are traced too. Span names are ``<defining module>.<function>`` and
        ``<module>.<Class>.<method>``.
        """
        hooks = hooks or {}
        loaded = {}
        for short in modules:
            try:
                loaded[short] = importlib.import_module(f"{package}.{short}")
            except ModuleNotFoundError:
                continue
        wrapped: dict[int, Callable] = {}
        for short, mod in loaded.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped[id(obj)] = self.wrap(name, obj, hooks.get(name))
        for short, cls_name, method in methods:
            cls = getattr(loaded.get(short), cls_name, None)
            fn = getattr(cls, method, None)
            if inspect.isfunction(fn):
                name = f"{short}.{cls_name}.{method}"
                setattr(cls, method, self.wrap(name, fn, hooks.get(name)))
        for mod in [importlib.import_module(package), *loaded.values()]:
            for attr, obj in list(vars(mod).items()):
                replacement = wrapped.get(id(obj))
                if replacement is not None:
                    setattr(mod, attr, replacement)

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {"run_id": self.run_id, "names": self.names,
                 "spans": self.spans, "counts": self.counts}
            ),
            encoding="utf-8",
        )


def layer_totals(trace: dict) -> dict[str, dict[str, float]]:
    """Inclusive time, self time and call count per span name.

    Self time is a span's duration minus its children's durations; the
    program is single-threaded, so children never overlap. Inclusive time
    skips spans nested inside a span of the same name, so recursion is not
    counted twice. Names that were wrapped but never called report zeros.
    """
    names, spans = trace["names"], trace["spans"]
    duration = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]
    totals = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in names}
    for i, (name_id, _, _, parent) in enumerate(spans):
        entry = totals[names[name_id]]
        entry["calls"] += 1
        entry["self_s"] += duration[i] - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name_id:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += duration[i]
    return totals
