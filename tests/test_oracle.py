"""Sweep columns against the 50-digit ``decimal`` reference of ``oracle.py``.

Instances of at most 50 atoms, risks in [0, 5) with no shift, and factors
from 1e-3 to 1e3. Each bound caps the relative error of one printed column,
and is one the code meets today; extreme factors and large shifts are not
covered yet.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np
import pytest

from entrisk.experiment import sweep_records

from conftest import random_solver_instance, two_atom_instance
from oracle import reference

LAMBDAS = np.logspace(-3.0, 3.0, 7)

#: Largest relative error allowed per sweep column.
BOUNDS = {
    "k_type1": 1e-12,
    "risk_type1": 2e-15,
    "kl_p_q_type1": 2e-9,
    "k_bar_type2": 1e-12,
    "risk_type2": 5e-13,
    "kl_q_p_type2": 2e-9,
}


def test_oracle_two_atom_root_is_one_over_sqrt_two():
    # Risks (0, 1), uniform Q, lam = 1: g(k) = 1/(2k) + 1/(2(k + 1)) = 1 gives k^2 = 1/2.
    q, prof = two_atom_instance()
    ref = reference(q.weights, prof.aligned(q), 1.0)
    with localcontext() as ctx:
        ctx.prec = 50
        assert abs(ref.k_bar_type2 - Decimal(2).sqrt() / 2) < Decimal("1e-45")
        # Type 1: log Z = log((1 + e^-1) / 2).
        assert abs(ref.k_type1 - ((1 + Decimal(-1).exp()) / 2).ln()) < Decimal("1e-45")


@pytest.mark.parametrize("instance", range(6))
def test_sweep_columns_match_the_oracle(instance):
    rng = np.random.default_rng(4200 + instance)
    q, prof = random_solver_instance(rng, max_atoms=50)
    risks = prof.aligned(q)
    records = sweep_records(q, prof, LAMBDAS)
    for lam, record in zip(LAMBDAS, records):
        assert record.status == "ok"
        ref = reference(q.weights, risks, lam)
        for column, bound in BOUNDS.items():
            expected = float(getattr(ref, column))
            error = abs(getattr(record, column) - expected) / abs(expected)
            assert error <= bound, f"{column} at lam={lam:g}: relative error {error:.2g}"
