"""Sweep columns against the 50-digit ``decimal`` reference of ``oracle.py``.

Instances of at most 50 atoms, risks in [0, 5) with no shift, and factors
from 1e-3 to 1e3; the two KL columns also from 1e4 to 1e7. Each bound caps
the relative error of one printed column, and is one the code meets today;
smaller factors and large shifts are not covered yet.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np
import pytest

from entrisk.experiment import sweep_records
from entrisk.risk import aligned_risks

from conftest import random_solver_instance, two_atom_instance
from oracle import reference

LAMBDAS = np.logspace(-3.0, 3.0, 7)

#: Largest relative error allowed per sweep column. The KL columns' worst
#: over instances 4200-4259 was 2.2e-13 and 1.9e-13.
BOUNDS = {
    "k_type1": 1e-12,
    "risk_type1": 2e-15,
    "kl_p_q_type1": 1e-12,
    "k_bar_type2": 1e-12,
    "risk_type2": 5e-13,
    "kl_q_p_type2": 1e-12,
}

#: Large factors, where each KL term is of size 1/lam and their sum of size
#: 1/lam**2, and where only the KL columns are bounded yet (k_type1, which
#: tends to 0 there, is off by up to 5e-10). Worst over instances 4200-4259:
#: 3.6e-15 and 8.5e-14.
LARGE_LAMBDAS = np.logspace(4.0, 7.0, 4)
LARGE_LAMBDA_BOUNDS = {"kl_p_q_type1": 2e-14, "kl_q_p_type2": 5e-13}


def test_oracle_two_atom_root_is_one_over_sqrt_two():
    # Risks (0, 1), uniform Q, lam = 1: g(k) = 1/(2k) + 1/(2(k + 1)) = 1 gives k^2 = 1/2.
    q, prof = two_atom_instance()
    ref = reference(q.weights, prof.aligned(q), 1.0)
    with localcontext() as ctx:
        ctx.prec = 50
        assert abs(ref.k_bar_type2 - Decimal(2).sqrt() / 2) < Decimal("1e-45")
        # Type 1: log Z = log((1 + e^-1) / 2).
        assert abs(ref.k_type1 - ((1 + Decimal(-1).exp()) / 2).ln()) < Decimal("1e-45")


def assert_columns_match(instance: int, lambdas: np.ndarray, bounds: dict[str, float]) -> None:
    rng = np.random.default_rng(4200 + instance)
    q, prof = random_solver_instance(rng, max_atoms=50)
    risks = prof.aligned(q)
    records, _ = sweep_records(aligned_risks(q, prof), lambdas)
    for lam, record in zip(lambdas, records):
        assert record.status == "ok"
        ref = reference(q.weights, risks, lam)
        for column, bound in bounds.items():
            expected = float(getattr(ref, column))
            error = abs(getattr(record, column) - expected) / abs(expected)
            assert error <= bound, f"{column} at lam={lam:g}: relative error {error:.2g}"


@pytest.mark.parametrize("instance", range(6))
def test_sweep_columns_match_the_oracle(instance):
    assert_columns_match(instance, LAMBDAS, BOUNDS)


@pytest.mark.parametrize("instance", range(6))
def test_kl_columns_match_the_oracle_at_large_factors(instance):
    assert_columns_match(instance, LARGE_LAMBDAS, LARGE_LAMBDA_BOUNDS)
