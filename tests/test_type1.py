"""Gibbs-direction solver: log partition, tilt weights, objective optimality."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings

from entrisk.errors import NonPositiveLambda, SupportMismatch
from entrisk.measures import make_measure, total_variation
from entrisk.risk import EmpiricalRiskProfile, expected_risk
from entrisk.type1 import log_partition, solve_type1, type1_objective

from conftest import (
    lambdas,
    profile_from,
    random_solver_instance,
    risk_vectors,
    two_atom_instance,
    uniform_on,
)

# log(0.5 * (1 + e^-1)), frozen from a 40-digit evaluation.
K_AT_MINUS_ONE = -0.3798854930417224
# (1/(1+e^-1), e^-1/(1+e^-1)), frozen likewise.
GIBBS_TWO_ATOM = (0.73105857863000490, 0.26894142136999512)


class TestLogPartition:
    def test_zero_at_origin(self):
        q, prof = two_atom_instance()
        assert log_partition(q, prof, 0.0) == 0.0

    def test_constant_risks_factor_out(self):
        q = uniform_on(3)
        prof = profile_from([0.8, 0.8, 0.8])
        for t in (-2.0, -0.5, 1.0, 3.0):
            assert log_partition(q, prof, t) == pytest.approx(0.8 * t, abs=1e-12)

    def test_two_atom_oracle(self):
        q, prof = two_atom_instance()
        assert log_partition(q, prof, -1.0) == pytest.approx(K_AT_MINUS_ONE, abs=1e-12)

    def test_support_mismatch(self):
        q = uniform_on(3)
        prof = profile_from([0.0, 1.0])
        with pytest.raises(SupportMismatch):
            log_partition(q, prof, -1.0)

    @given(risk_vectors, lambdas, lambdas)
    @settings(max_examples=100)
    def test_midpoint_convexity(self, risks, a, b):
        q = uniform_on(len(risks))
        prof = profile_from(risks)
        t1, t2 = -1.0 / a, -1.0 / b
        mid = 0.5 * (t1 + t2)
        lhs = log_partition(q, prof, mid)
        rhs = 0.5 * (log_partition(q, prof, t1) + log_partition(q, prof, t2))
        assert lhs <= rhs + 1e-10


class TestSolveType1:
    def test_constant_risks_return_reference(self):
        q = uniform_on(3)
        prof = profile_from([2.0, 2.0, 2.0])
        sol = solve_type1(q, prof, 0.7)
        assert np.allclose(sol.measure.weights, q.weights, atol=1e-15)

    def test_two_atom_softmax_oracle(self):
        q, prof = two_atom_instance()
        sol = solve_type1(q, prof, 1.0)
        assert sol.measure.weights == pytest.approx(GIBBS_TWO_ATOM, abs=1e-9)
        assert sol.log_partition_at_minus_inv_lambda == pytest.approx(
            K_AT_MINUS_ONE, abs=1e-12
        )

    def test_large_lambda_approaches_reference(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=10)
        sol = solve_type1(q, prof, 1e6)
        assert np.max(np.abs(sol.measure.weights - q.weights)) <= 1e-5

    def test_support_equals_reference_support(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=12)
        sol = solve_type1(q, prof, 0.5)
        assert np.array_equal(sol.measure.coords, q.coords)

    def test_weights_reproduce_tilt_formula(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=8, risk_scale=2.0)
        lam = 0.8
        sol = solve_type1(q, prof, lam)
        k = sol.log_partition_at_minus_inv_lambda
        risks = prof.aligned(q)
        expected = q.weights * np.exp(-k - risks / lam)
        assert np.max(np.abs(sol.measure.weights - expected)) <= 1e-12

    def test_nonpositive_lambda_rejected(self):
        q, prof = two_atom_instance()
        with pytest.raises(NonPositiveLambda):
            solve_type1(q, prof, 0.0)

    def test_shift_invariance(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=8, risk_scale=2.0)
        shifted = EmpiricalRiskProfile.from_risks(prof.coords, prof.risks + 3.0)
        a = solve_type1(q, prof, 0.6).measure.weights
        b = solve_type1(q, shifted, 0.6).measure.weights
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_argmin_weight_nonincreasing_in_lambda(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=9)
        argmin = min(prof.argmin_set)
        grid = np.logspace(-2, 2, 15)
        weights = [float(solve_type1(q, prof, float(l)).measure.weights[argmin]) for l in grid]
        assert all(a >= b - 1e-12 for a, b in zip(weights, weights[1:]))


class TestType1Objective:
    def test_at_reference_equals_mean_risk(self):
        q, prof = two_atom_instance()
        assert type1_objective(q, q, prof, 1.0) == pytest.approx(
            expected_risk(q, prof), abs=1e-15
        )

    def test_infinite_outside_reference_support(self):
        q, prof = two_atom_instance()
        p = make_measure([[50.0]], [1.0])
        assert type1_objective(p, q, prof, 1.0) == math.inf

    def test_gibbs_identity(self, rng):
        # Objective at the solution equals -lam * K(-1/lam).
        for _ in range(20):
            q, prof = random_solver_instance(rng, max_atoms=10)
            lam = float(rng.uniform(0.05, 20.0))
            sol = solve_type1(q, prof, lam)
            obj = type1_objective(sol.measure, q, prof, lam)
            assert obj == pytest.approx(
                -lam * sol.log_partition_at_minus_inv_lambda, abs=1e-9
            )

    def test_solution_beats_random_feasible_measures(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=8)
        lam = 0.7
        sol = solve_type1(q, prof, lam)
        best = type1_objective(sol.measure, q, prof, lam)
        for _ in range(100):
            p = make_measure(q.coords, rng.dirichlet(np.ones(q.num_atoms)))
            if total_variation(p, sol.measure) > 1e-9:
                assert type1_objective(p, q, prof, lam) > best
