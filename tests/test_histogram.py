"""The risk histogram: a record binned by risk solves as the per-atom record does.

Instances plant ties: a few risk values, repeated and shuffled over the
atoms, under non-uniform reference weights. The histogram's sweep is held
against the per-atom sweep and the 50-digit oracle, its bin weights against
``math.fsum``, and its Theorem-2 gap against the atoms' own.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

from entrisk import cli
from entrisk.experiment import sweep_records
from entrisk.logrisk import verify_theorem2
from entrisk.measures import make_measure
from entrisk.risk import AlignedRisks, EmpiricalRiskProfile, aligned_risks, risk_histogram
from entrisk.type2 import solve_type2

from oracle import reference
from test_oracle import BOUNDS, LAMBDAS

U = 2.0**-53
SWEEP_LAMBDAS = np.logspace(-3.0, 3.0, 13)


def tied_instance(seed: int, max_atoms: int = 200) -> AlignedRisks:
    """Per-atom record of 1 to 8 risk values in [0, 5), shuffled over the atoms, with random q."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 5.0, size=int(rng.integers(1, 9)))
    m = int(rng.integers(values.size, max_atoms + 1))
    risks = values[rng.permutation(np.arange(m) % values.size)]
    coords = np.arange(m, dtype=float)[:, None]
    q = make_measure(coords, rng.exponential(size=m))
    return aligned_risks(q, EmpiricalRiskProfile.from_risks(coords, risks))


def bins_of(atoms: AlignedRisks, bins: AlignedRisks) -> np.ndarray:
    """Each atom's bin."""
    at = np.searchsorted(bins.risks, atoms.risks)
    assert np.array_equal(bins.risks[at], atoms.risks)
    return at


@pytest.mark.parametrize("seed", range(8))
def test_bins_are_the_distinct_risks_with_their_exact_mass(seed):
    atoms = tied_instance(seed)
    bins = risk_histogram(atoms)
    assert bins.risks.tolist() == sorted(set(atoms.risks.tolist()))
    members = [atoms.q_weights[atoms.risks == v] for v in bins.risks]
    assert bins.q_weights.tolist() == [math.fsum(w.tolist()) for w in members]
    assert bins.atom_share.tolist() == [w.max() / mass for w, mass in zip(members, bins.q_weights)]
    assert bins.delta_star == atoms.delta_star and bins.spread == atoms.spread
    assert bins.outside is atoms.outside and atoms.atom_share is None


def test_a_bin_weight_is_rounded_once_from_the_exact_sum():
    # The bin (0.5, 2**-54, 2**-161) sums to just above the midpoint between
    # 0.5 and its successor: summed left to right it rounds down to 0.5,
    # math.fsum rounds it up. The other bin makes the total exactly 1 up to
    # 2**-161, so the measure keeps these weights as given.
    weights = [0.5, 2.0**-54, 2.0**-161, 0.5 - 2.0**-54]
    assert 0.5 + 2.0**-54 + 2.0**-161 == 0.5 and math.fsum(weights) == 1.0
    coords = np.arange(4, dtype=float)[:, None]
    atoms = aligned_risks(make_measure(coords, weights),
                          EmpiricalRiskProfile.from_risks(coords, np.array([1.0, 1.0, 1.0, 2.0])))
    assert atoms.q_weights.tolist() == weights
    bins = risk_histogram(atoms)
    assert bins.q_weights.tolist() == [math.nextafter(0.5, 1.0), 0.5 - 2.0**-54]
    assert bins.atom_share.tolist() == [0.5 / bins.q_weights[0], 1.0]


@pytest.mark.parametrize("seed", range(40))
def test_binned_sweep_matches_the_per_atom_sweep(seed):
    atoms = tied_instance(seed)
    bins = risk_histogram(atoms)
    per_atom, _ = sweep_records(atoms, SWEEP_LAMBDAS)
    binned, _ = sweep_records(bins, SWEEP_LAMBDAS)
    log_q = float(np.abs(atoms.log_q).max())
    for a, b in zip(per_atom, binned):
        assert (a.status, a.iterations) == (b.status, b.iterations)
        if a.status != "ok":
            continue
        lam = a.lam

        def close(column: str, scale: float, ulps: float = 8.0) -> None:
            x, y = getattr(a, column), getattr(b, column)
            assert abs(x - y) <= ulps * U * scale, f"{column} at lam={lam:g}: {x!r} vs {y!r}"

        for column in ("risk_type1", "risk_type2"):
            close(column, abs(getattr(a, column)))
        close("bound_margin", lam + atoms.delta_star)
        close("k_bar_type2", abs(a.k_bar_type2) + atoms.delta_star)
        # log Z = shift + log z cancels toward 0 at large lam: bounded
        # against its terms, of size max|log q| + max L / lam.
        type1_terms = log_q + float(atoms.risks.max()) / lam
        close("k_type1", type1_terms)
        # A divergence D = sum b * phi(x) moves by about sqrt(2 D) * dx for
        # an error dx in its log-ratios x.
        for column, dx in (("kl_p_q_type1", U * type1_terms), ("kl_q_p_type2", U)):
            d = getattr(a, column)
            close(column, d + (math.sqrt(2.0 * d) * dx + dx * dx) / U)
        assert b.theorem2_gap <= 1e-9 and b.identity_gap <= 1e-9


@pytest.mark.parametrize("seed", range(12))
def test_theorem2_gap_is_the_largest_atom_gap(seed):
    atoms = tied_instance(seed)
    bins = risk_histogram(atoms)
    at = bins_of(atoms, bins)
    records, _ = sweep_records(bins, LAMBDAS)
    for lam, record in zip(LAMBDAS, records):
        sol = solve_type2(bins, lam)
        tilted, gap = verify_theorem2(bins, sol)
        bin_gaps = np.abs(sol.weights - tilted)
        # Atom i of bin b: q_i * |P_b - T_b| / Q_b, taken atom by atom.
        atom_gaps = bin_gaps[at] * (atoms.q_weights / bins.q_weights[at])
        assert gap == record.theorem2_gap == atom_gaps.max()
        loose = atoms.q_weights * bin_gaps[at] / bins.q_weights[at]
        assert abs(gap - loose.max()) <= 4.0 * U * gap


@pytest.mark.parametrize("seed", range(3))
def test_binned_sweep_matches_the_oracle(seed):
    atoms = tied_instance(100 + seed, max_atoms=50)
    records, _ = sweep_records(risk_histogram(atoms), LAMBDAS)
    for lam, record in zip(LAMBDAS, records):
        assert record.status == "ok"
        ref = reference(atoms.q_weights, atoms.risks, lam)
        for column, bound in BOUNDS.items():
            expected = float(getattr(ref, column))
            error = abs(getattr(record, column) - expected) / abs(expected)
            assert error <= bound, f"{column} at lam={lam:g}: relative error {error:.2g}"


def write_config(tmp_path, loss: str) -> str:
    classifier = loss == "zero_one"
    raw = {
        "predictor": "linear_threshold_classifier" if classifier else "linear_regression",
        "loss": loss, "intercept": True, "grid_min": [-2.0, -2.0], "grid_max": [2.0, 2.0],
        "grid_resolution": [8, 8], "reference": "restricted",
        "reference_box_min": [-2.0, -2.0], "reference_box_max": [0.5, 0.5],
        "dataset": "synthetic", "true_model": [1.0, 0.5], "noise": 0.1, "n": 40,
        "data_seed": 3, "lambda_min": 0.01, "lambda_max": 100.0, "lambda_count": 5,
        "output_csv": "out.csv",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["sweep", "verify"])
@pytest.mark.parametrize("loss", ["squared", "absolute", "zero_one"])
def test_only_zero_one_loss_is_binned(tmp_path, monkeypatch, command, loss):
    built, solved, checked = [], [], []

    def spy(name, calls):
        original = getattr(cli, name)

        def call(*args):
            result = original(*args)
            calls.append(result[2] if name == "generate_instance" else args[0])
            return result

        monkeypatch.setattr(cli, name, call)

    spy("generate_instance", built)
    spy("sweep_records", solved)
    spy("optimality_checks", checked)
    assert cli.cli_main([command, "--config", write_config(tmp_path, loss)]) == 0
    (atoms,), (record,) = built, solved
    assert checked in ([], [record])
    if loss != "zero_one":
        assert record is atoms
    else:
        assert record.risks.size == len(set(atoms.risks.tolist())) < atoms.risks.size
        assert record.q_weights.tolist() == risk_histogram(atoms).q_weights.tolist()


def test_solve_stays_per_atom_on_zero_one_loss(tmp_path, capsys):
    config = write_config(tmp_path, "zero_one")
    assert cli.cli_main(["sweep", "--config", config]) == 0
    with open(tmp_path / "out.csv", encoding="utf-8") as fh:
        assert all(row["status"] == "ok" for row in csv.DictReader(fh))
    capsys.readouterr()
    assert cli.cli_main(["solve", "--config", config, "--lambda", "1.0", "--type", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    # One weight per atom of the 5 x 5 in the box, though its risks tie.
    assert len(out["support"]) == len(out["weights"]) == 25
    assert len(set(out["weights"])) < 25
