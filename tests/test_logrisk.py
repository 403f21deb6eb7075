"""Log-risk transform and the cross-solver equivalence check."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from entrisk.errors import InvariantViolation, NonPositiveArgument, SupportMismatch
from entrisk.logrisk import log_risk_profile, verify_theorem2
from entrisk.measures import kl_divergence, make_measure
from entrisk.risk import EmpiricalRiskProfile
from entrisk.type2 import TypeIISolution, solve_type2

from conftest import (
    profile_from,
    random_pipeline_instance,
    random_solver_instance,
    solution_measure,
    three_atom_instance,
    two_atom_instance,
    uniform_on,
)

# Frozen from 40-digit evaluation: V = (log(1/sqrt(2)), log(1 + 1/sqrt(2))).
V_TWO_ATOM = (-0.34657359027997264, 0.53479999673957404)
# Mean of V under the two-atom solution measure; equals -D(solution || reference).
ELR_TWO_ATOM = -0.0884252434007


def mean_log_risk(weights, values) -> float:
    """Mean of V under the weights ``weights``, aligned with ``values``."""
    return math.fsum((weights * values).tolist())


class TestLogRiskProfile:
    def test_constant_risks_give_log_lambda(self):
        q = uniform_on(3)
        prof = profile_from([0.9, 0.9, 0.9])
        for lam in (0.2, 1.0, 7.0):
            sol = solve_type2(q, prof, lam)
            values = log_risk_profile(q, prof, sol)
            assert np.allclose(values, math.log(lam), atol=1e-12)

    def test_two_atom_oracle_values(self):
        q, prof = two_atom_instance()
        sol = solve_type2(q, prof, 1.0)
        values = log_risk_profile(q, prof, sol)
        assert values == pytest.approx(V_TWO_ATOM, abs=1e-9)
        assert not values.flags.writeable

    def test_values_follow_reference_atom_order(self):
        # V is aligned with q's atoms, whatever the profile's order.
        q, _ = two_atom_instance()
        reversed_prof = EmpiricalRiskProfile.from_risks(q.coords[::-1], [1.0, 0.0])
        values = log_risk_profile(q, reversed_prof, solve_type2(q, reversed_prof, 1.0))
        assert values == pytest.approx(V_TWO_ATOM, abs=1e-9)

    def test_order_preserved_by_monotone_transform(self):
        q = uniform_on(2)
        prof = profile_from([0.2, 0.9])
        sol = solve_type2(q, prof, 1.0)
        values = log_risk_profile(q, prof, sol)
        assert values[0] < values[1]

    def test_values_may_be_negative(self):
        q, prof = two_atom_instance()
        sol = solve_type2(q, prof, 1.0)
        assert float(log_risk_profile(q, prof, sol).min()) < 0.0

    def test_corrupted_solution_rejected(self):
        q, prof = two_atom_instance()
        sol = solve_type2(q, prof, 1.0)
        corrupt = TypeIISolution(
            weights=sol.weights,
            lam=sol.lam,
            k_bar=-1.0,  # below the pole; impossible for a valid solve
            residual=sol.residual,
            iterations=sol.iterations,
            pole_gap=sol.pole_gap,
            delta_star=sol.delta_star,
            gaps=sol.gaps,
            terms=sol.terms,
            g=sol.g,
        )
        with pytest.raises(NonPositiveArgument):
            log_risk_profile(q, prof, corrupt)


class TestExpectedLogRisk:
    def test_constant_risks_give_log_lambda_for_any_measure(self, rng):
        q = uniform_on(4)
        prof = profile_from([0.3, 0.3, 0.3, 0.3])
        sol = solve_type2(q, prof, 2.5)
        p = make_measure(q.coords, rng.dirichlet(np.ones(4)))
        assert mean_log_risk(p.weights, log_risk_profile(q, prof, sol)) == pytest.approx(
            math.log(2.5), abs=1e-12
        )

    def test_two_atom_solution_oracle(self):
        # p2 = q * lam * exp(-V), so D(P2 || Q) = log lam - E_P2[V].
        q, prof = two_atom_instance()
        sol = solve_type2(q, prof, 1.0)
        value = mean_log_risk(sol.weights, log_risk_profile(q, prof, sol))
        assert value == pytest.approx(ELR_TWO_ATOM, abs=1e-9)
        assert value == pytest.approx(-kl_divergence(solution_measure(q, sol), q), abs=1e-15)

    def test_mean_is_log_lambda_minus_divergence(self, rng):
        for _ in range(20):
            q, prof = random_solver_instance(rng)
            lam = float(10.0 ** rng.uniform(-3, 3))
            sol = solve_type2(q, prof, lam)
            value = mean_log_risk(sol.weights, log_risk_profile(q, prof, sol))
            expected = math.log(lam) - kl_divergence(solution_measure(q, sol), q)
            assert value == pytest.approx(expected, abs=1e-12 * (1.0 + abs(expected)))

    def test_support_mismatch(self):
        # A solution on fewer atoms than the reference has no weight for the rest.
        q, prof = three_atom_instance()
        sol = solve_type2(make_measure(q.coords[:2], [1.0, 1.0]), prof, 1.0)
        with pytest.raises(SupportMismatch):
            verify_theorem2(q, prof, sol)


def heaviest_atoms(q, weights):
    """Coordinate tuples of the atoms of ``q`` carrying the largest of ``weights``."""
    return {tuple(row) for row in q.coords[weights == weights.max()].tolist()}


class TestEquivalence:
    def test_constant_risks_both_equal_reference(self):
        q = uniform_on(3)
        prof = profile_from([1.1, 1.1, 1.1])
        sol = solve_type2(q, prof, 0.7)
        tilted, gap = verify_theorem2(q, prof, sol)
        assert np.allclose(sol.weights, q.weights, atol=1e-12)
        assert np.allclose(tilted, q.weights, atol=1e-12)
        assert gap <= 1e-12

    def test_two_atom_chain(self):
        q, prof = two_atom_instance()
        sol = solve_type2(q, prof, 1.0)
        tilt = np.exp(-log_risk_profile(q, prof, sol))
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
            values = log_risk_profile(q, prof, sol)
            log_total = math.log(lam * math.fsum(q.weights * np.exp(-values)))
            assert abs(log_total) <= 1e-10

    def test_normalization_violation_rejected(self, rng):
        # A root off by a relative 1e-6, with the denominators k_bar + L it
        # implies, keeps every weight positive but moves lam * sum q*exp(-V)
        # off 1 far beyond NORMALIZATION_TOL.
        instances = [two_atom_instance()] + [random_solver_instance(rng) for _ in range(5)]
        for q, prof in instances:
            sol = solve_type2(q, prof, float(10.0 ** rng.uniform(-2, 2)))
            pole_gap = sol.pole_gap * (1.0 + 1e-6)
            gaps = pole_gap + (prof.aligned(q) - sol.delta_star)
            off = dataclasses.replace(sol, pole_gap=pole_gap, gaps=gaps)
            with pytest.raises(InvariantViolation, match="deviates from 1"):
                verify_theorem2(q, prof, off)

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
            tilted, _ = verify_theorem2(q, prof, sol)
            assert heaviest_atoms(q, tilted) == heaviest_atoms(q, sol.weights)

    def test_argmax_tie_preserved(self):
        # Two atoms share the minimal risk bitwise; both solvers must tie them.
        q = uniform_on(3)
        prof = profile_from([0.25, 0.25, 2.0])
        sol = solve_type2(q, prof, 0.8)
        tilted, _ = verify_theorem2(q, prof, sol)
        assert heaviest_atoms(q, tilted) == heaviest_atoms(q, sol.weights) == {(0.0,), (1.0,)}
