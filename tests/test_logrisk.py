"""Log-risk transform and the cross-solver equivalence check."""

from __future__ import annotations

import math

import numpy as np
import pytest

from entrisk.errors import NonPositiveArgument, SupportMismatch
from entrisk.logrisk import (
    LogRiskProfile,
    expected_log_risk,
    log_risk_profile,
    verify_theorem2,
)
from entrisk.measures import make_measure
from entrisk.type2 import TypeIISolution, solve_type2

from conftest import (
    profile_from,
    random_pipeline_instance,
    random_solver_instance,
    two_atom_instance,
    uniform_on,
)

# Frozen from 40-digit evaluation: V = (log(1/sqrt(2)), log(1 + 1/sqrt(2))).
V_TWO_ATOM = (-0.34657359027997264, 0.53479999673957404)
# Mean of V under the two-atom solution measure; equals -D(solution || reference).
ELR_TWO_ATOM = -0.0884252434007


class TestLogRiskProfile:
    def test_constant_risks_give_log_lambda(self):
        q = uniform_on(3)
        prof = profile_from([0.9, 0.9, 0.9])
        for lam in (0.2, 1.0, 7.0):
            sol = solve_type2(q, prof, lam)
            vprof = log_risk_profile(prof, sol)
            assert np.allclose(vprof.values, math.log(lam), atol=1e-12)

    def test_two_atom_oracle_values(self):
        q, prof = two_atom_instance()
        sol = solve_type2(q, prof, 1.0)
        vprof = log_risk_profile(prof, sol)
        assert vprof.values == pytest.approx(V_TWO_ATOM, abs=1e-9)
        assert vprof.source_lam == 1.0
        assert vprof.source_k_bar == sol.k_bar

    def test_order_preserved_by_monotone_transform(self):
        q = uniform_on(2)
        prof = profile_from([0.2, 0.9])
        sol = solve_type2(q, prof, 1.0)
        vprof = log_risk_profile(prof, sol)
        assert vprof.values[0] < vprof.values[1]

    def test_values_may_be_negative(self):
        q, prof = two_atom_instance()
        sol = solve_type2(q, prof, 1.0)
        vprof = log_risk_profile(prof, sol)
        assert float(vprof.values.min()) < 0.0

    def test_corrupted_solution_rejected(self):
        q, prof = two_atom_instance()
        sol = solve_type2(q, prof, 1.0)
        corrupt = TypeIISolution(
            measure=sol.measure,
            lam=sol.lam,
            k_bar=-1.0,  # below the pole; impossible for a valid solve
            residual=sol.residual,
            iterations=sol.iterations,
            bracket=sol.bracket,
            pole_gap=sol.pole_gap,
        )
        with pytest.raises(NonPositiveArgument):
            log_risk_profile(prof, corrupt)


class TestExpectedLogRisk:
    def test_point_mass_picks_single_value(self):
        q, prof = two_atom_instance()
        sol = solve_type2(q, prof, 1.0)
        vprof = log_risk_profile(prof, sol)
        p = make_measure(q.coords[1:2], [1.0])
        assert expected_log_risk(p, vprof) == pytest.approx(V_TWO_ATOM[1], abs=1e-9)

    def test_constant_risks_give_log_lambda_for_any_measure(self, rng):
        q = uniform_on(4)
        prof = profile_from([0.3, 0.3, 0.3, 0.3])
        sol = solve_type2(q, prof, 2.5)
        vprof = log_risk_profile(prof, sol)
        p = make_measure(q.coords, rng.dirichlet(np.ones(4)))
        assert expected_log_risk(p, vprof) == pytest.approx(math.log(2.5), abs=1e-12)

    def test_two_atom_solution_oracle(self):
        q, prof = two_atom_instance()
        sol = solve_type2(q, prof, 1.0)
        vprof = log_risk_profile(prof, sol)
        value = expected_log_risk(sol.measure, vprof)
        assert value == pytest.approx(ELR_TWO_ATOM, abs=1e-9)

    def test_support_mismatch(self):
        q, prof = two_atom_instance()
        sol = solve_type2(q, prof, 1.0)
        vprof = log_risk_profile(prof, sol)
        with pytest.raises(SupportMismatch):
            expected_log_risk(make_measure([[77.0]], [1.0]), vprof)


def heaviest_atoms(m):
    """Coordinate tuples of the atoms carrying ``m``'s largest weight."""
    return {tuple(row) for row in m.coords[m.weights == m.weights.max()].tolist()}


class TestEquivalence:
    def test_constant_risks_both_equal_reference(self):
        q = uniform_on(3)
        prof = profile_from([1.1, 1.1, 1.1])
        sol = solve_type2(q, prof, 0.7)
        m1, gap = verify_theorem2(q, prof, sol)
        assert np.allclose(sol.measure.weights, q.weights, atol=1e-12)
        assert np.allclose(m1.weights, q.weights, atol=1e-12)
        assert gap <= 1e-12

    def test_two_atom_chain(self):
        q, prof = two_atom_instance()
        sol = solve_type2(q, prof, 1.0)
        vprof = log_risk_profile(prof, sol)
        tilt = np.exp(-vprof.values)
        assert tilt == pytest.approx((math.sqrt(2.0), 1.0 / (1.0 + math.sqrt(0.5))), abs=1e-9)
        total = math.fsum(q.weights * tilt)
        assert abs(total - 1.0) <= 1e-10
        _, gap = verify_theorem2(q, prof, sol)
        assert gap <= 1e-9

    def test_zero_log_partition_identity(self, rng):
        # The tilt's partition function is known in closed form:
        # lam * sum q*exp(-V) = 1, i.e. the lam-scaled tilt is self-normalized.
        for _ in range(15):
            q, prof = random_solver_instance(rng, max_atoms=20)
            lam = float(10.0 ** rng.uniform(-2, 2))
            sol = solve_type2(q, prof, lam)
            vprof = log_risk_profile(prof, sol)
            values = vprof.values
            log_total = math.log(lam * math.fsum(q.weights * np.exp(-values)))
            assert abs(log_total) <= 1e-10

    def test_gap_small_on_random_pipeline_instances(self, rng):
        for _ in range(10):
            q, _, prof = random_pipeline_instance(rng)
            lam = float(10.0 ** rng.uniform(-2, 2))
            _, gap = verify_theorem2(q, prof, solve_type2(q, prof, lam))
            assert gap <= 1e-9

    def test_argmax_atoms_coincide_exactly(self, rng):
        for _ in range(10):
            q, prof = random_solver_instance(rng, max_atoms=12)
            lam = float(10.0 ** rng.uniform(-1, 1))
            sol = solve_type2(q, prof, lam)
            m1, _ = verify_theorem2(q, prof, sol)
            m2 = sol.measure
            assert heaviest_atoms(m1) == heaviest_atoms(m2)

    def test_argmax_tie_preserved(self):
        # Two atoms share the minimal risk bitwise; both solvers must tie them.
        q = uniform_on(3)
        prof = profile_from([0.25, 0.25, 2.0])
        sol = solve_type2(q, prof, 0.8)
        m1, _ = verify_theorem2(q, prof, sol)
        m2 = sol.measure
        assert heaviest_atoms(m1) == heaviest_atoms(m2) == {(0.0,), (1.0,)}
