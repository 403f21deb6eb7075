"""Reversed-direction solver: normalization root, solution law, identities, bounds."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings

from entrisk import type2
from entrisk.errors import (
    BracketFailure,
    NonPositiveLambda,
    ToleranceNotReached,
)
from entrisk.experiment import sweep_records
from entrisk.measures import (
    exact_sum,
    kl_divergence,
    make_measure,
    positions,
    total_variation,
)
from entrisk.risk import EmpiricalRiskProfile, aligned_risks, expected_risk
from entrisk.type2 import (
    _g_sum,
    escape_threshold,
    solve_k_bar,
    solve_type2,
    support_escape_slope,
    type2_objective,
    type2_objective_rows,
)

from conftest import (
    lambdas,
    profile_from,
    random_solver_instance,
    risk_vectors,
    solution_measure,
    three_atom_instance,
    two_atom_instance,
    uniform_on,
)


def bisect_cubic(tol_width: float = 1e-12) -> float:
    """Independent oracle: plain bisection of 3 b^3 + 6 b^2 - 2 = 0 on (0, 1)."""
    f = lambda b: 3.0 * b**3 + 6.0 * b**2 - 2.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol_width:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def normalization(q, prof, lam: float, beta: float) -> float:
    """Independent g(beta) = sum q * lam / (beta + L), in the unshifted form."""
    return math.fsum((q.weights * lam / (beta + prof.aligned(q))).tolist())


def solve_with_points(monkeypatch, q, prof, lam: float):
    """solve_k_bar's result and the (t, g(t)) pairs it evaluated, in order.

    g(t) is the value the solver read, a float or an exact sum. t =
    k_bar + delta_star is recovered, to about 2 ulps, from the term
    q * lam / t of an atom at the risk floor in each sum of g. The record's
    ``mean_shifted_floor`` is set to 0, so that the right end t = lam is
    always evaluated first; the solve is otherwise the same
    (:class:`TestRightEndSkip`).
    """
    sums = []

    def spy(x):
        total = _g_sum(x)
        sums.append((x.copy(), total))
        return total

    monkeypatch.setattr(type2, "_g_sum", spy)
    res = solve_k_bar(dataclasses.replace(aligned_risks(q, prof), mean_shifted_floor=0.0), lam)
    floor = int(np.argmin(prof.aligned(q)))
    qlam = q.weights[floor] * lam
    return res, [(float(qlam / x[floor]), total) for x, total in sums]


def newton_steps(q, prof, lam: float, points):
    """Each step after the endpoints as (t, lo, hi, Newton point from the previous t).

    ``points`` come from :func:`solve_with_points`; ``lo`` and ``hi`` bound
    the bracket the earlier points left.
    """
    shifted = prof.aligned(q) - prof.delta_star
    (hi, _), (lo, _) = points[:2]
    prev_t, prev_g = points[1]
    steps = []
    for t, g in points[2:]:
        slope = math.fsum((q.weights * lam / (prev_t + shifted) ** 2).tolist())
        steps.append((t, lo, hi, prev_t + prev_g * (prev_g - 1.0) / slope))
        if g > 1.0:
            lo = t
        else:
            hi = t
        prev_t, prev_g = t, g
    return steps


class TestNormalizationValue:
    """The normalization g, evaluated independently of the solver, at its root."""

    def test_constant_risks_single_term(self):
        q = uniform_on(3)
        prof = profile_from([0.4, 0.4, 0.4])
        for lam in (1.0, 2.0, 0.5):
            k_bar = solve_k_bar(aligned_risks(q, prof), lam).k_bar
            assert lam / (k_bar + 0.4) == pytest.approx(1.0, abs=1e-14)

    def test_two_term_hand_evaluation(self):
        q, prof = two_atom_instance()
        k_bar = solve_k_bar(aligned_risks(q, prof), 1.0).k_bar
        assert 0.5 / k_bar + 0.5 / (k_bar + 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_root_satisfies_unshifted_constraint(self, rng):
        # The returned k_bar is a double: next to the pole, its rounding
        # (half an ulp of k_bar) moves g by up to g'(k_bar) times that much.
        for _ in range(30):
            q, prof = random_solver_instance(rng)
            lam = float(10.0 ** rng.uniform(-3, 3))
            k_bar = solve_k_bar(aligned_risks(q, prof), lam).k_bar
            slope = math.fsum((q.weights * lam / (k_bar + prof.aligned(q)) ** 2).tolist())
            assert abs(normalization(q, prof, lam, k_bar) - 1.0) <= 1e-12 + slope * math.ulp(k_bar)

    @given(risk_vectors, lambdas)
    @settings(max_examples=100)
    def test_strictly_decreasing(self, risks, lam):
        # g falls through 1 at the root: above it halfway to the pole,
        # below it as far to the right.
        q = uniform_on(len(risks))
        prof = profile_from(risks)
        res = solve_k_bar(aligned_risks(q, prof), lam)
        half = 0.5 * res.pole_gap
        assert normalization(q, prof, lam, res.k_bar - half) > 1.0
        assert normalization(q, prof, lam, res.k_bar + half) < 1.0


class TestSolveKBar:
    def test_constant_risks_closed_form(self):
        q = uniform_on(2)
        prof = profile_from([0.7, 0.7])
        for lam in (1e-3, 0.25, 1.0, 1e3):
            res = solve_k_bar(aligned_risks(q, prof), lam)
            assert res.k_bar == lam - 0.7
            assert res.iterations == 0
            assert res.residual <= 1e-13

    def test_two_atom_quadratic_root(self):
        q, prof = two_atom_instance()
        res = solve_k_bar(aligned_risks(q, prof), 1.0)
        assert res.k_bar == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_three_atom_cubic_vs_independent_bisection(self):
        q, prof = three_atom_instance()
        res = solve_k_bar(aligned_risks(q, prof), 1.0)
        assert res.k_bar == pytest.approx(bisect_cubic(), abs=1e-9)

    def test_nonpositive_lambda_rejected(self):
        q, prof = two_atom_instance()
        with pytest.raises(NonPositiveLambda):
            solve_k_bar(aligned_risks(q, prof), -2.0)

    def test_lambda_below_pole_guard_fails_bracket(self):
        q, prof = two_atom_instance()
        with pytest.raises(BracketFailure):
            solve_k_bar(aligned_risks(q, prof), 1e-300)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        # A tolerance below the evaluation floor fails deterministically on an
        # instance whose g never hits 1.0 bitwise (no exact plateau point).
        q = make_measure([[0.0], [1.0]], [0.7275821341229209, 0.10514142093512636])
        prof = EmpiricalRiskProfile.from_risks(
            q.coords, [0.11719659976744323, 0.44711493244664857]
        )
        monkeypatch.setattr(type2, "DEFAULT_TOL", 1e-30)
        with pytest.raises(ToleranceNotReached):
            solve_k_bar(aligned_risks(q, prof), 1.1468121583112396)

    @pytest.mark.parametrize("lam", [0.1, 100.0])
    def test_newton_point_on_a_bracket_end_bisects(self, monkeypatch, lam):
        # Under a tolerance only g == 1 meets, a Newton point here lands on a
        # bracket end already evaluated; the step bisects instead, so g is
        # evaluated at no point twice before it reaches 1 exactly.
        q = make_measure([[0.0], [1.0]], [0.47843625292835584, 0.5215637470716442])
        prof = EmpiricalRiskProfile.from_risks(q.coords, [1.5652392940996884, 2.88349858126476])
        evaluated = []
        monkeypatch.setattr(type2, "_g_sum", lambda x: evaluated.append(x.tobytes()) or _g_sum(x))
        monkeypatch.setattr(type2, "DEFAULT_TOL", 1e-30)
        assert solve_k_bar(aligned_risks(q, prof), lam).residual == 0.0
        assert len(set(evaluated)) == len(evaluated)

    def test_root_satisfies_residual_contract(self, rng):
        for _ in range(30):
            q, prof = random_solver_instance(rng)
            lam = float(10.0 ** rng.uniform(-3, 3))
            res = solve_k_bar(aligned_risks(q, prof), lam)
            assert res.residual <= 1e-12

    def test_root_within_mean_risk_range(self, rng):
        # The mean risk lam - k_bar lies between the smallest and the largest
        # risk on supp(Q), so k_bar lies in [lam - max L, lam - delta_star].
        for _ in range(30):
            q, prof = random_solver_instance(rng)
            lam = float(10.0 ** rng.uniform(-3, 3))
            risks = prof.aligned(q)
            k_bar = solve_k_bar(aligned_risks(q, prof), lam).k_bar
            assert lam - risks.max() - 1e-12 <= k_bar <= lam - risks.min() + 1e-12

    @given(risk_vectors, lambdas, lambdas)
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing_in_lambda(self, risks, l1, l2):
        if abs(l1 - l2) / max(l1, l2) < 1e-9:
            return
        q = uniform_on(len(risks))
        prof = profile_from(risks)
        lo, hi = min(l1, l2), max(l1, l2)
        inst = aligned_risks(q, prof)
        assert solve_k_bar(inst, lo).k_bar < solve_k_bar(inst, hi).k_bar

    def test_continuity_under_small_lambda_changes(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=15)
        for lam in np.logspace(-3, 3, 7):
            lam = float(lam)
            a = solve_k_bar(aligned_risks(q, prof), lam).k_bar
            b = solve_k_bar(aligned_risks(q, prof), lam * (1.0 + 1e-6)).k_bar
            assert abs(b - a) <= 1e-4 * (1.0 + abs(a))

    def test_range_constraints(self, rng):
        # k_bar stays above the pole and inside [lam - max L, lam - delta*].
        for _ in range(20):
            q, prof = random_solver_instance(rng)
            lam = float(10.0 ** rng.uniform(-3, 3))
            risks = prof.aligned(q)
            res = solve_k_bar(aligned_risks(q, prof), lam)
            assert res.k_bar > -float(risks.min())
            slack = 1e-12 * (1.0 + abs(res.k_bar))
            assert lam - float(risks.max()) - slack <= res.k_bar <= lam - float(risks.min()) + slack

    def test_shift_covariance(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=10, risk_scale=3.0)
        lam = 0.8
        c = 2.5
        base = solve_k_bar(aligned_risks(q, prof), lam)
        shifted_prof = EmpiricalRiskProfile.from_risks(prof.coords, prof.risks + c)
        shifted = solve_k_bar(aligned_risks(q, shifted_prof), lam)
        assert shifted.k_bar == pytest.approx(base.k_bar - c, abs=1e-10)

    def test_newton_iterates_stay_in_the_shrinking_bracket(self, rng, monkeypatch):
        # Two endpoint evaluations (hi, then lo), then one per step; every
        # step lands strictly inside the bracket the earlier points left.
        u = 2.0**-52
        for _ in range(200):
            q, prof = random_solver_instance(rng)
            risks = prof.aligned(q)
            for lam in np.logspace(-3, 3, 13):
                lam = float(lam)
                res, points = solve_with_points(monkeypatch, q, prof, lam)
                assert res.residual <= type2.DEFAULT_TOL
                assert res.iterations <= 16
                if res.iterations == 0 and len(points) == 1:
                    continue  # the root is hi itself
                assert len(points) == res.iterations + 2
                spread = float(risks.max() - risks.min())
                eps0 = type2.POLE_GUARD_SCALE * (1.0 + float(risks.min()))
                assert points[0][0] == pytest.approx(lam, rel=4 * u)
                assert points[1][0] == pytest.approx(max(eps0, lam - spread), rel=4 * u)
                for t, lo, hi, _ in newton_steps(q, prof, lam, points):
                    assert lo * (1.0 - 4 * u) < t < hi * (1.0 + 4 * u)

    def test_newton_steps_failing_the_safeguard_bisect(self, monkeypatch):
        # From lo = 2**-40 the Newton point lands near the root at 0.995:
        # inside the bracket [2**-40, 1], but more than half of it away, so
        # the first step bisects.
        q = make_measure([[0.0], [1.0]], [0.99, 0.01])
        prof = EmpiricalRiskProfile.from_risks(q.coords, [0.0, 1.0])
        res, points = solve_with_points(monkeypatch, q, prof, 1.0)
        t, lo, hi, newton = newton_steps(q, prof, 1.0, points)[0]
        assert 0.5 * (lo + hi) < newton < hi
        assert t == pytest.approx(0.5 * (lo + hi), rel=2.0**-50)
        assert res.residual <= type2.DEFAULT_TOL
        # Here a bisection lands right of the root, and the Newton point from
        # there falls below the bracket, so that step bisects too.
        q = make_measure([[0.0], [1.0]], [0.9199238590252775, 0.08007614097472236])
        prof = EmpiricalRiskProfile.from_risks(q.coords, [1.1364402185250917, 1.0149847928951012])
        res, points = solve_with_points(monkeypatch, q, prof, 0.1)
        assert any(
            newton < lo and t == pytest.approx(0.5 * (lo + hi), rel=2.0**-50)
            for t, lo, hi, newton in newton_steps(q, prof, 0.1, points)
        )
        assert res.residual <= type2.DEFAULT_TOL

    @pytest.mark.parametrize("shift, first_exponent", [(0.0, -10), (1e6, -4), (1e12, 1)])
    def test_extreme_factors_and_shifts_still_solve(self, shift, first_exponent):
        # A 50-atom Dirichlet instance swept over lam = 1e-11 .. 1e12: every
        # factor from 10**first_exponent on solves. The smaller factors fail
        # the pole-guarded bracket (ROADMAP item 3) and are not pinned here.
        rng = np.random.default_rng(0)
        coords = np.arange(50.0)[:, None]
        q = make_measure(coords, rng.dirichlet(np.ones(50)))
        prof = EmpiricalRiskProfile.from_risks(coords, rng.uniform(0.0, 1.0, 50) + shift)
        for lam in np.logspace(first_exponent, 12, 12 - first_exponent + 1):
            assert solve_k_bar(aligned_risks(q, prof), float(lam)).residual <= type2.DEFAULT_TOL


def kbar_outcome(aligned, lam: float):
    """solve_k_bar's result as the bytes of each field, or its error's class and message."""
    try:
        res = solve_k_bar(aligned, lam)
    except (BracketFailure, ToleranceNotReached) as exc:
        return type(exc).__name__, str(exc)
    return tuple(np.asarray(field).tobytes() for field in res)


def skip_instances(rng: np.random.Generator):
    """Random references with varied, constant and near-constant risks, shifted by 0 and 1e6."""
    for i in range(48):
        q, prof = random_solver_instance(rng, max_atoms=int(rng.choice([5, 40, 600])))
        risks = prof.risks
        if i % 4 == 1:
            risks = np.full(risks.size, rng.uniform(0.0, 5.0))
        elif i % 4 == 2:
            risks = 0.7 + rng.uniform(0.0, 1e-14, risks.size)
        elif i % 4 == 3:
            risks = 0.7 + rng.uniform(0.0, 1e-9, risks.size)
        for shift in (0.0, 1e6):
            yield q, aligned_risks(q, EmpiricalRiskProfile.from_risks(prof.coords, risks + shift))


class TestRightEndSkip:
    """solve_k_bar skips g(lam) only where the record certifies that t = lam is no root."""

    @staticmethod
    def fires(aligned, lam: float) -> bool:
        return aligned.mean_shifted_floor / (lam + aligned.spread) > 2.0 * type2.DEFAULT_TOL

    def test_floor_is_below_the_mean_shifted_risk(self, rng):
        for q, aligned in skip_instances(rng):
            mean = math.fsum((q.weights * aligned.shifted).tolist())
            assert 0.0 <= aligned.mean_shifted_floor <= mean
            assert (aligned.mean_shifted_floor == 0.0) == (mean < 2.0**-960)

    def test_skip_is_certain_and_changes_no_outcome(self, rng, monkeypatch):
        # Every skipped right end sums below 1 - DEFAULT_TOL exactly, and the
        # solve returns the same bits, or raises the same error, as one on a
        # record whose floor 0 never lets the skip fire. A solve that returns
        # makes one evaluation of g fewer exactly where the skip fires.
        evaluations = []

        def counted(terms):
            evaluations.append(terms.shape[0])
            return _g_sum(terms)

        monkeypatch.setattr(type2, "_g_sum", counted)
        fired = kept = straddled = fired_errors = 0
        for q, aligned in skip_instances(rng):
            reference = dataclasses.replace(aligned, mean_shifted_floor=0.0)
            factors = list(np.logspace(-11.0, 12.0, 24))
            edge = aligned.mean_shifted_floor / (2.0 * type2.DEFAULT_TOL) - aligned.spread
            if edge > 0.0:
                factors += [edge * (1.0 + f) for f in (-1e-6, -2.0**-50, 2.0**-50, 1e-6)]
            for lam in map(float, factors):
                fires = self.fires(aligned, lam)
                if fires:
                    terms = (aligned.q_weights * lam) / (lam + aligned.shifted)
                    assert math.fsum(terms.tolist()) < 1.0 - type2.DEFAULT_TOL
                evaluations.clear()
                outcome = kbar_outcome(aligned, lam)
                calls = len(evaluations)
                evaluations.clear()
                assert outcome == kbar_outcome(reference, lam)
                if isinstance(outcome[0], bytes):
                    assert calls == len(evaluations) - fires
                else:
                    fired_errors += fires
                fired += fires
                kept += not fires
            if edge > 0.0:
                straddled += [self.fires(aligned, edge * (1.0 + f)) for f in (-1e-6, 1e-6)] == [
                    True, False]
        assert fired > 100 and kept > 100 and straddled > 10 and fired_errors > 10


def float_sum_is_open(x: np.ndarray) -> bool:
    """Whether the float sum of g's terms ``x`` leaves the sign of g - 1 open."""
    g_hat = float(np.add.reduce(x))
    return not abs(g_hat - 1.0) > x.shape[0] * 2.0**-52 * g_hat + type2.DEFAULT_TOL


class TestCertifiedSign:
    """g is a float sum where Higham's bound settles its distance from 1, else an exact one."""

    @pytest.mark.parametrize("m", [1, 2, 3, 100, 384, 4096, 100_000])
    def test_float_sum_within_the_bound(self, rng, m):
        # Rows spread over 30 decades, one dominant term among tiny ones, and
        # the terms of a unit sum.
        dominant = np.full(m, 1e-17)
        dominant[rng.integers(m)] = 1.0
        for x in (10.0 ** rng.uniform(-15.0, 15.0, m), dominant, rng.dirichlet(np.ones(m))):
            g_hat = float(np.add.reduce(x))
            assert abs(g_hat - math.fsum(x.tolist())) <= m * 2.0**-52 * g_hat

    @pytest.mark.parametrize("m", [3, 1000, 5000])
    def test_sums_near_one_take_the_exact_branch(self, monkeypatch, m):
        # Terms (1 + offset)/m sum to about 1 + offset: inside the bound up to
        # its width, outside past it.
        width = m * 2.0**-52 + type2.DEFAULT_TOL
        exact = []
        monkeypatch.setattr(type2, "exact_sum", lambda x: exact.append(1) or exact_sum(x))
        for offset, inside in [(0.0, True), (0.9 * width, True), (-0.9 * width, True),
                               (1.1 * width, False), (-1.1 * width, False)]:
            x = np.full(m, (1.0 + offset) / m)
            assert float_sum_is_open(x) == inside
            exact.clear()
            total = _g_sum(x)
            assert len(exact) == inside
            assert total == (math.fsum(x.tolist()) if inside else float(np.add.reduce(x)))

    def test_non_finite_sums_take_the_exact_branch(self, monkeypatch):
        exact = []
        monkeypatch.setattr(type2, "exact_sum", lambda x: exact.append(1) or exact_sum(x))
        assert _g_sum(np.array([0.5, math.inf])) == math.inf
        assert math.isnan(_g_sum(np.array([0.5, math.nan])))
        assert len(exact) == 2

    def test_exact_sums_only_where_the_sign_is_open(self, rng, monkeypatch):
        # One exact sum for the accepted evaluation, plus one for each earlier
        # evaluation whose float sum the bound left open.
        opens, exact = [], []
        monkeypatch.setattr(type2, "_g_sum", lambda x: opens.append(float_sum_is_open(x)) or _g_sum(x))
        monkeypatch.setattr(type2, "exact_sum", lambda x: exact.append(1) or exact_sum(x))
        solves = total = 0
        for max_atoms in (40,) * 20 + (2000,) * 2:
            q, prof = random_solver_instance(rng, max_atoms=max_atoms)
            for lam in np.logspace(-3, 3, 13):
                opens.clear()
                exact.clear()
                solve_k_bar(aligned_risks(q, prof), float(lam))
                assert opens[-1]
                assert len(exact) == 1 + sum(opens[:-1])
                solves, total = solves + 1, total + len(exact)
        assert total <= 1.1 * solves

    def test_returned_rows_are_exactly_summed(self, rng):
        for max_atoms in (40,) * 20 + (2000,) * 2:
            q, prof = random_solver_instance(rng, max_atoms=max_atoms)
            for lam in np.logspace(-3, 3, 13):
                res = solve_k_bar(aligned_risks(q, prof), float(lam))
                assert res.g == math.fsum(res.terms.tolist())
                assert res.residual == abs(res.g - 1.0) <= type2.DEFAULT_TOL


class TestSolveType2:
    def test_constant_risks_return_reference(self):
        q = uniform_on(4)
        prof = profile_from([1.2, 1.2, 1.2, 1.2])
        sol = solve_type2(aligned_risks(q, prof), 0.9)
        assert np.allclose(sol.weights, q.weights, atol=1e-14)

    def test_two_atom_oracle_weights(self):
        q, prof = two_atom_instance()
        sol = solve_type2(aligned_risks(q, prof), 1.0)
        root = math.sqrt(0.5)
        assert sol.weights == pytest.approx(
            (0.5 / root, 0.5 / (root + 1.0)), abs=1e-6
        )

    def test_large_lambda_approaches_reference(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=10)
        sol = solve_type2(aligned_risks(q, prof), 1e6)
        assert np.max(np.abs(sol.weights - q.weights)) <= 1e-5

    def test_weights_reproduce_density_formula(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=10, risk_scale=2.0)
        lam = 0.6
        sol = solve_type2(aligned_risks(q, prof), lam)
        risks = prof.aligned(q)
        expected = q.weights * lam / (sol.k_bar + risks)
        assert np.max(np.abs(sol.weights - expected)) <= 1e-12

    def test_support_collapse_exact(self, rng):
        for _ in range(10):
            q, prof = random_solver_instance(rng)
            lam = float(10.0 ** rng.uniform(-2, 2))
            sol = solve_type2(aligned_risks(q, prof), lam)
            assert sol.weights.shape == q.weights.shape and np.all(sol.weights > 0.0)

    def test_support_collapse_with_better_atom_outside(self):
        # The enlarged grid has a zero-risk atom outside supp(Q); the solution
        # still puts mass exactly on supp(Q).
        prof = EmpiricalRiskProfile.from_risks([[0.0], [1.0], [2.0]], [0.5, 1.0, 0.0])
        q = make_measure([[0.0], [1.0]], [1.0, 1.0])
        sol = solve_type2(aligned_risks(q, prof), 1.0)
        assert sol.weights.shape == q.weights.shape and np.all(sol.weights > 0.0)

    def test_shift_covariance_measure_unchanged(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=10, risk_scale=3.0)
        shifted_prof = EmpiricalRiskProfile.from_risks(prof.coords, prof.risks + 1.75)
        a = solve_type2(aligned_risks(q, prof), 0.45).weights
        b = solve_type2(aligned_risks(q, shifted_prof), 0.45).weights
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_solution_holds_the_root_record_after_weights_and_lam(self):
        aligned = aligned_risks(*two_atom_instance())
        sol, root = solve_type2(aligned, 1.0), solve_k_bar(aligned, 1.0)
        names = [f.name for f in dataclasses.fields(sol)]
        assert names == ["weights", "lam", *type2.KBarResult._fields]
        assert all(np.array_equal(getattr(sol, name), value)
                   for name, value in zip(names[2:], root))
        # Frozen, and equal only to itself: its rows are arrays.
        assert sol == sol and sol != dataclasses.replace(sol)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.k_bar = 0.0


class TestType2Objective:
    def test_at_reference_equals_mean_risk(self):
        q, prof = two_atom_instance()
        assert type2_objective(q, q, prof, 1.0) == pytest.approx(
            expected_risk(q, prof), abs=1e-15
        )

    def test_infinite_when_reference_not_dominated(self):
        q, prof = two_atom_instance()
        p = make_measure(q.coords[:1], [1.0])  # misses one atom of supp(Q)
        assert type2_objective(p, q, prof, 1.0) == math.inf

    def test_solution_beats_random_dominating_measures(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=8)
        lam = 1.3
        sol = solve_type2(aligned_risks(q, prof), lam)
        p2 = solution_measure(q, sol)
        best = type2_objective(p2, q, prof, lam)
        for _ in range(100):
            p = make_measure(q.coords, rng.dirichlet(np.ones(q.num_atoms)))
            if total_variation(p, p2) > 1e-9:
                assert type2_objective(p, q, prof, lam) > best


    def test_subnormal_weight_gives_a_finite_objective(self):
        # q/p overflows at the subnormal weight; log q - log p does not.
        # RuntimeWarnings fail the test suite, so none is raised either.
        weights, q_row = np.array([[1.0 - 1e-320, 1e-320]]), np.array([0.5, 0.5])
        (objective,) = type2_objective_rows(weights, q_row, np.array([0.0, 1.0]), 1.0)
        # Each log is np.log's, as kl_rows takes it, one value at a time.
        log = lambda x: float(np.log(x))
        divergence = math.fsum([0.5 * log(0.5 / weights[0, 0]),
                                0.5 * (log(0.5) - log(1e-320))])
        assert objective == 1e-320 + divergence
        assert objective == pytest.approx(367.72047, rel=1e-7)


def sweep_row(q, prof, lam: float):
    """The sweep's row at ``lam``: mean risk, identity gap and bound margin of Type 2."""
    (row,), _ = sweep_records(aligned_risks(q, prof), [lam])
    assert row.status == "ok"
    return row


class TestRiskIdentityAndBound:
    def test_constant_risks_both_sides_equal_risk_level(self):
        q = uniform_on(2)
        prof = profile_from([0.3, 0.3])
        row = sweep_row(q, prof, 2.0)
        assert row.risk_type2 == pytest.approx(0.3, abs=1e-12)
        assert row.lam - row.k_bar_type2 == pytest.approx(0.3, abs=1e-12)

    def test_two_atom_oracle(self):
        q, prof = two_atom_instance()
        row = sweep_row(q, prof, 1.0)
        root = math.sqrt(0.5)
        assert row.risk_type2 == pytest.approx(1.0 - root, abs=1e-6)
        assert row.identity_gap <= 1e-9

    def test_three_atom_oracle(self):
        q, prof = three_atom_instance()
        row = sweep_row(q, prof, 1.0)
        assert row.risk_type2 == pytest.approx(1.0 - bisect_cubic(), abs=1e-3)
        assert row.identity_gap <= 1e-9

    def test_identity_on_random_instances(self, rng):
        for _ in range(40):
            q, prof = random_solver_instance(rng)
            lam = float(10.0 ** rng.uniform(-3, 3))
            row = sweep_row(q, prof, lam)
            assert row.identity_gap == abs(row.risk_type2 - (lam - row.k_bar_type2))
            assert row.identity_gap <= 1e-9

    def test_bound_constant_risks_margin_is_lambda(self):
        q = uniform_on(2)
        prof = profile_from([0.6, 0.6])
        row = sweep_row(q, prof, 0.8)
        assert row.bound_margin > 0.0
        assert row.bound_margin == pytest.approx(0.8, abs=1e-12)

    def test_bound_two_atom(self):
        q, prof = two_atom_instance()
        row = sweep_row(q, prof, 1.0)
        assert row.bound_margin > 0.0 and row.risk_type2 < 1.0
        assert row.bound_margin == 1.0 - row.risk_type2  # bound lam + delta_star == 1

    def test_bound_holds_across_sweep(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=12)
        for lam in np.logspace(-3, 3, 13):
            assert sweep_row(q, prof, float(lam)).bound_margin > 0.0


#: Mixture weights the escape oracle scans: a 1,000-point interior grid
#: for pinned values, a geometric one down to 1e-8 for signs.
FINE_ALPHAS = np.linspace(0.0, 1.0, 1002)[1:-1]
SIGN_ALPHAS = np.geomspace(1e-8, 0.99, 33)


def mixture_oracle(q, prof, lam: float, alpha: float) -> float:
    """Oracle: best objective of ``(1 - alpha) P' + alpha * (point mass outside supp(Q))``.

    P' ranges over measures on supp(Q) and the point mass over the profile's
    atoms outside supp(Q). For fixed alpha the best P' solves the inside
    problem at ``lam / (1 - alpha)``, the divergence picks up exactly
    ``-lam * log(1 - alpha)``, and the risk term ``alpha * L`` is least at
    the cheapest outside atom.
    """
    inner = solution_measure(q, solve_type2(aligned_risks(q, prof), lam / (1.0 - alpha)))
    min_out = float(prof.risks[positions(prof, q) < 0].min())
    return (
        (1.0 - alpha) * expected_risk(inner, prof)
        + alpha * min_out
        + lam * kl_divergence(q, inner)
        - lam * math.log1p(-alpha)
    )


def best_escape(q, prof, lam: float, alphas) -> float:
    """Oracle: the lowest escaped-mixture objective over ``alphas``."""
    return min(mixture_oracle(q, prof, lam, float(a)) for a in alphas)


def outside_of(q, prof):
    """The atoms of ``prof`` outside supp(Q), as a profile of their own."""
    out = positions(prof, q) < 0
    return EmpiricalRiskProfile.on_grid(prof.grid, prof.index[out], prof.risks[out])


def escape_instance(rng: np.random.Generator):
    """Random reference on k atoms plus 1-3 atoms outside supp(Q), and a factor."""
    k, extra = int(rng.integers(2, 8)), int(rng.integers(1, 4))
    sup = np.arange(k + extra, dtype=float).reshape(-1, 1)
    prof = EmpiricalRiskProfile.from_risks(sup, rng.uniform(0.0, 5.0, size=k + extra))
    q = make_measure(sup[:k], rng.uniform(0.05, 1.0, size=k))
    return q, prof, float(10.0 ** rng.uniform(-2.0, 1.0))


class TestSupportEscape:
    def _instance(self):
        # The profile's atom at position 2 (theta = 5) lies outside supp(Q).
        prof = EmpiricalRiskProfile.from_risks([[0.0], [1.0], [5.0]], [0.5, 1.0, 0.0])
        q = make_measure([[0.0], [1.0]], [1.0, 1.0])
        return q, prof

    def test_oracle_alpha_zero_reduces_to_inside_objective(self):
        q, prof = self._instance()
        sol = solve_type2(aligned_risks(q, prof), 1.0)
        inside_obj = type2_objective(solution_measure(q, sol), q, prof, 1.0)
        assert mixture_oracle(q, prof, 1.0, 0.0) == pytest.approx(
            inside_obj, abs=1e-12
        )

    def test_slope_is_the_oracle_derivative_at_no_escape(self):
        # (f(alpha) - f(0)) / alpha falls to the slope from above as alpha -> 0.
        q, prof = self._instance()
        sol = solve_type2(aligned_risks(q, prof), 1.0)
        slope = support_escape_slope(outside_of(q, prof), sol)
        opt = type2_objective(solution_measure(q, sol), q, prof, 1.0)
        prev = math.inf
        for alpha in (0.1, 0.01, 0.001, 0.0001):
            quotient = (mixture_oracle(q, prof, 1.0, alpha) - opt) / alpha
            assert slope < quotient < prev and quotient - slope < alpha
            prev = quotient

    def test_escape_strictly_penalized_even_with_zero_risk_outside(self):
        q, prof = self._instance()
        sol = solve_type2(aligned_risks(q, prof), 1.0)
        assert support_escape_slope(outside_of(q, prof), sol) > 0.0
        optimal = type2_objective(solution_measure(q, sol), q, prof, 1.0)
        assert best_escape(q, prof, 1.0, SIGN_ALPHAS) > optimal

    def test_escape_lowers_the_objective_where_the_slope_is_negative(self):
        # supp(Q) risks 1.0 and 1.2, one outside atom of risk 0: at lam = 0.1
        # the slope min_out L + k_bar is negative, and a mixture that escapes
        # supp(Q) beats the optimum on supp(Q) by far.
        prof = EmpiricalRiskProfile.from_risks([[0.0], [1.0], [2.0]], [1.0, 1.2, 0.0])
        q = make_measure([[0.0], [1.0]], [1.0, 1.0])
        sol = solve_type2(aligned_risks(q, prof), 0.1)
        slope = support_escape_slope(outside_of(q, prof), sol)
        assert slope == pytest.approx(-0.938, abs=5e-4)
        assert slope == 0.0 + sol.k_bar
        assert best_escape(q, prof, 0.1, FINE_ALPHAS) == pytest.approx(0.3394, abs=5e-5)
        optimal = type2_objective(solution_measure(q, sol), q, prof, 0.1)
        assert optimal == pytest.approx(1.0623, abs=5e-5)
        # Escaping pays exactly where the slope is negative.
        for lam in (0.5, 1.0, 2.0, 5.0):
            sol = solve_type2(aligned_risks(q, prof), lam)
            optimal = type2_objective(solution_measure(q, sol), q, prof, lam)
            assert (best_escape(q, prof, lam, SIGN_ALPHAS) < optimal) == (
                support_escape_slope(outside_of(q, prof), sol) < 0.0
            )

    def test_slope_sign_matches_the_oracle_on_random_instances(self, rng):
        signs = set()
        for _ in range(20):
            q, prof, lam = escape_instance(rng)
            sol = solve_type2(aligned_risks(q, prof), lam)
            slope = support_escape_slope(outside_of(q, prof), sol)
            optimal = type2_objective(solution_measure(q, sol), q, prof, lam)
            assert (best_escape(q, prof, lam, SIGN_ALPHAS) < optimal) == (slope < 0.0)
            signs.add(slope < 0.0)
        assert signs == {True, False}  # both verdicts were tested

    def test_escape_goes_to_the_cheapest_outside_atom(self):
        # Outside atoms at theta = 5 (risk 0.25) and 7 (risk 0): the slope is
        # the one with theta = 7 alone, whatever the order in the profile.
        q = make_measure([[0.0], [1.0]], [1.0, 1.0])
        cheapest = EmpiricalRiskProfile.from_risks([[0.0], [1.0], [7.0]], [0.5, 1.0, 0.0])
        sol = solve_type2(aligned_risks(q, cheapest), 1.0)
        expected = support_escape_slope(outside_of(q, cheapest), sol)
        for coords, risks in (
            ([[5.0], [0.0], [7.0], [1.0]], [0.25, 0.5, 0.0, 1.0]),
            ([[7.0], [1.0], [0.0], [5.0]], [0.0, 1.0, 0.5, 0.25]),
        ):
            prof = EmpiricalRiskProfile.from_risks(coords, risks)
            sol = solve_type2(aligned_risks(q, prof), 1.0)
            slope = support_escape_slope(outside_of(q, prof), sol)
            assert slope == expected


class TestEscapeThreshold:
    def test_slope_sign_flips_at_the_threshold_on_random_instances(self, rng):
        # Factors off lambda* by more than 1e-6 relative, on both sides.
        factors = (0.01, 0.5, 0.99, 1.0 - 2e-6, 1.0 + 2e-6, 1.01, 2.0, 100.0)
        positive = 0
        for _ in range(20):
            q, prof, _ = escape_instance(rng)
            outside, inst = outside_of(q, prof), aligned_risks(q, prof)
            lam_star = escape_threshold(inst, outside)
            if lam_star == 0.0:
                for lam in np.logspace(-3, 3, 7):
                    assert support_escape_slope(outside, solve_type2(inst, lam)) > 0.0
                continue
            positive += 1
            for f in factors:
                slope = support_escape_slope(outside, solve_type2(inst, lam_star * f))
                assert (slope < 0.0) == (f < 1.0)
        assert 0 < positive < 20  # both kinds of instance were tested

    def test_harmonic_mean_closed_form(self):
        # supp(Q) risks 1.0 and 1.2 with weights 1/2 each, outside risk 0:
        # lambda* = 1 / (0.5 / 1.0 + 0.5 / 1.2) = 12 / 11.
        prof = EmpiricalRiskProfile.from_risks([[0.0], [1.0], [2.0]], [1.0, 1.2, 0.0])
        q = make_measure([[0.0], [1.0]], [1.0, 1.0])
        inst = aligned_risks(q, prof)
        lam_star = escape_threshold(inst, outside_of(q, prof))
        assert lam_star == pytest.approx(12.0 / 11.0, rel=1e-15)
        # There g(-min_out L) = 1, so k_bar = 0 = -min_out L and the slope vanishes.
        assert support_escape_slope(outside_of(q, prof), solve_type2(inst, lam_star)) == (
            pytest.approx(0.0, abs=1e-12))

    @pytest.mark.parametrize("outside_risk", [0.5, 0.7])
    def test_zero_when_no_outside_atom_beats_delta_star(self, outside_risk):
        # delta_star is 0.5; an outside atom at or above it never pays.
        prof = EmpiricalRiskProfile.from_risks([[0.0], [1.0], [5.0]], [0.5, 1.0, outside_risk])
        q = make_measure([[0.0], [1.0]], [1.0, 1.0])
        outside = outside_of(q, prof)
        assert escape_threshold(aligned_risks(q, prof), outside) == 0.0
        for lam in (1e-3, 1.0, 1e3):
            assert support_escape_slope(outside, solve_type2(aligned_risks(q, prof), lam)) > 0.0
