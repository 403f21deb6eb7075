"""Reversed-direction solver: normalization root, solution law, identities, bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings

from entrisk.errors import (
    AtomCollision,
    BetaOutOfDomain,
    BracketFailure,
    NonPositiveLambda,
    ToleranceNotReached,
)
from entrisk.measures import check_abs_continuity, make_measure, total_variation
from entrisk.risk import EmpiricalRiskProfile, expected_risk
from entrisk.type2 import (
    escaped_mixture_objective,
    expected_risk_identity,
    normalization_value,
    risk_bound_check,
    solve_k_bar,
    solve_type2,
    support_escape_penalty,
    type2_objective,
)

from conftest import (
    lambdas,
    profile_from,
    random_solver_instance,
    risk_vectors,
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


class TestNormalizationValue:
    def test_constant_risks_single_term(self):
        q = uniform_on(3)
        prof = profile_from([0.4, 0.4, 0.4])
        for lam, beta in ((1.0, 1.0), (2.0, 0.3), (0.5, 5.0)):
            assert normalization_value(q, prof, lam, beta) == pytest.approx(
                lam / (beta + 0.4), abs=1e-14
            )

    def test_two_term_hand_evaluation(self):
        q, prof = two_atom_instance()
        assert normalization_value(q, prof, 1.0, 1.0) == pytest.approx(0.75, abs=1e-15)

    def test_pole_is_rejected(self):
        q, prof = two_atom_instance()
        with pytest.raises(BetaOutOfDomain):
            normalization_value(q, prof, 1.0, -prof.delta_star)
        with pytest.raises(BetaOutOfDomain):
            normalization_value(q, prof, 1.0, -prof.delta_star - 0.5)

    @given(risk_vectors, lambdas)
    @settings(max_examples=100)
    def test_strictly_decreasing(self, risks, lam):
        q = uniform_on(len(risks))
        prof = profile_from(risks)
        edge = -prof.delta_star
        b1 = edge + 0.25
        b2 = edge + 1.75
        assert normalization_value(q, prof, lam, b1) > normalization_value(
            q, prof, lam, b2
        )


class TestSolveKBar:
    def test_constant_risks_closed_form(self):
        q = uniform_on(2)
        prof = profile_from([0.7, 0.7])
        for lam in (1e-3, 0.25, 1.0, 1e3):
            res = solve_k_bar(q, prof, lam)
            assert res.k_bar == lam - 0.7
            assert res.iterations == 0
            assert res.residual <= 1e-13

    def test_two_atom_quadratic_root(self):
        q, prof = two_atom_instance()
        res = solve_k_bar(q, prof, 1.0)
        assert res.k_bar == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_three_atom_cubic_vs_independent_bisection(self):
        q, prof = three_atom_instance()
        res = solve_k_bar(q, prof, 1.0)
        assert res.k_bar == pytest.approx(bisect_cubic(), abs=1e-9)

    def test_nonpositive_lambda_rejected(self):
        q, prof = two_atom_instance()
        with pytest.raises(NonPositiveLambda):
            solve_k_bar(q, prof, -2.0)

    def test_lambda_below_pole_guard_fails_bracket(self):
        q, prof = two_atom_instance()
        with pytest.raises(BracketFailure):
            solve_k_bar(q, prof, 1e-300)

    def test_unreachable_tolerance_raises(self):
        # A tolerance below the evaluation floor fails deterministically on an
        # instance whose g never hits 1.0 bitwise (no exact plateau point).
        q = make_measure([[0.0], [1.0]], [0.7275821341229209, 0.10514142093512636])
        prof = EmpiricalRiskProfile.from_risks(
            q.coords, [0.11719659976744323, 0.44711493244664857]
        )
        with pytest.raises(ToleranceNotReached):
            solve_k_bar(q, prof, 1.1468121583112396, tol=1e-30)

    def test_root_satisfies_residual_contract(self, rng):
        for _ in range(30):
            q, prof = random_solver_instance(rng)
            lam = float(10.0 ** rng.uniform(-3, 3))
            res = solve_k_bar(q, prof, lam)
            assert res.residual <= 1e-12

    def test_root_within_reported_bracket(self, rng):
        q, prof = random_solver_instance(rng)
        res = solve_k_bar(q, prof, 0.3)
        lo, hi = res.bracket
        assert lo - 1e-12 <= res.k_bar <= hi + 1e-12

    @given(risk_vectors, lambdas, lambdas)
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing_in_lambda(self, risks, l1, l2):
        if abs(l1 - l2) / max(l1, l2) < 1e-9:
            return
        q = uniform_on(len(risks))
        prof = profile_from(risks)
        lo, hi = min(l1, l2), max(l1, l2)
        assert solve_k_bar(q, prof, lo).k_bar < solve_k_bar(q, prof, hi).k_bar

    def test_continuity_under_small_lambda_changes(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=15)
        for lam in np.logspace(-3, 3, 7):
            lam = float(lam)
            a = solve_k_bar(q, prof, lam).k_bar
            b = solve_k_bar(q, prof, lam * (1.0 + 1e-6)).k_bar
            assert abs(b - a) <= 1e-4 * (1.0 + abs(a))

    def test_range_constraints(self, rng):
        # k_bar stays above the pole and inside [lam - max L, lam - delta*].
        for _ in range(20):
            q, prof = random_solver_instance(rng)
            lam = float(10.0 ** rng.uniform(-3, 3))
            risks = prof.aligned(q)
            res = solve_k_bar(q, prof, lam)
            assert res.k_bar > -float(risks.min())
            slack = 1e-12 * (1.0 + abs(res.k_bar))
            assert lam - float(risks.max()) - slack <= res.k_bar <= lam - float(risks.min()) + slack

    def test_shift_covariance(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=10, risk_scale=3.0)
        lam = 0.8
        c = 2.5
        base = solve_k_bar(q, prof, lam)
        shifted_prof = EmpiricalRiskProfile.from_risks(prof.coords, prof.risks + c)
        shifted = solve_k_bar(q, shifted_prof, lam)
        assert shifted.k_bar == pytest.approx(base.k_bar - c, abs=1e-10)


class TestSolveType2:
    def test_constant_risks_return_reference(self):
        q = uniform_on(4)
        prof = profile_from([1.2, 1.2, 1.2, 1.2])
        sol = solve_type2(q, prof, 0.9)
        assert np.allclose(sol.measure.weights, q.weights, atol=1e-14)

    def test_two_atom_oracle_weights(self):
        q, prof = two_atom_instance()
        sol = solve_type2(q, prof, 1.0)
        root = math.sqrt(0.5)
        assert sol.measure.weights == pytest.approx(
            (0.5 / root, 0.5 / (root + 1.0)), abs=1e-6
        )

    def test_large_lambda_approaches_reference(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=10)
        sol = solve_type2(q, prof, 1e6)
        assert np.max(np.abs(sol.measure.weights - q.weights)) <= 1e-5

    def test_weights_reproduce_density_formula(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=10, risk_scale=2.0)
        lam = 0.6
        sol = solve_type2(q, prof, lam)
        risks = prof.aligned(q)
        expected = q.weights * lam / (sol.k_bar + risks)
        assert np.max(np.abs(sol.measure.weights - expected)) <= 1e-12

    def test_support_collapse_exact(self, rng):
        for _ in range(10):
            q, prof = random_solver_instance(rng)
            lam = float(10.0 ** rng.uniform(-2, 2))
            sol = solve_type2(q, prof, lam)
            assert np.array_equal(sol.measure.coords, q.coords)

    def test_support_collapse_with_better_atom_outside(self):
        # The enlarged grid has a zero-risk atom outside supp(Q); the solution
        # still puts mass exactly on supp(Q).
        prof = EmpiricalRiskProfile.from_risks([[0.0], [1.0], [2.0]], [0.5, 1.0, 0.0])
        q = make_measure([[0.0], [1.0]], [1.0, 1.0])
        sol = solve_type2(q, prof, 1.0)
        assert check_abs_continuity(sol.measure, q).mutually

    def test_shift_covariance_measure_unchanged(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=10, risk_scale=3.0)
        shifted_prof = EmpiricalRiskProfile.from_risks(prof.coords, prof.risks + 1.75)
        a = solve_type2(q, prof, 0.45).measure.weights
        b = solve_type2(q, shifted_prof, 0.45).measure.weights
        assert np.max(np.abs(a - b)) <= 1e-10


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
        sol = solve_type2(q, prof, lam)
        best = type2_objective(sol.measure, q, prof, lam)
        for _ in range(100):
            p = make_measure(q.coords, rng.dirichlet(np.ones(q.num_atoms)))
            if total_variation(p, sol.measure) > 1e-9:
                assert type2_objective(p, q, prof, lam) > best


class TestRiskIdentityAndBound:
    def test_constant_risks_both_sides_equal_risk_level(self):
        q = uniform_on(2)
        prof = profile_from([0.3, 0.3])
        sol = solve_type2(q, prof, 2.0)
        lhs, rhs = expected_risk_identity(sol, prof)
        assert lhs == pytest.approx(0.3, abs=1e-12)
        assert rhs == pytest.approx(0.3, abs=1e-12)

    def test_two_atom_oracle(self):
        q, prof = two_atom_instance()
        sol = solve_type2(q, prof, 1.0)
        lhs, rhs = expected_risk_identity(sol, prof)
        root = math.sqrt(0.5)
        assert lhs == pytest.approx(1.0 - root, abs=1e-6)
        assert abs(lhs - rhs) <= 1e-9

    def test_three_atom_oracle(self):
        q, prof = three_atom_instance()
        sol = solve_type2(q, prof, 1.0)
        lhs, rhs = expected_risk_identity(sol, prof)
        assert lhs == pytest.approx(1.0 - bisect_cubic(), abs=1e-3)
        assert abs(lhs - rhs) <= 1e-9

    def test_identity_on_random_instances(self, rng):
        for _ in range(40):
            q, prof = random_solver_instance(rng)
            lam = float(10.0 ** rng.uniform(-3, 3))
            sol = solve_type2(q, prof, lam)
            lhs, rhs = expected_risk_identity(sol, prof)
            assert abs(lhs - rhs) <= 1e-9

    def test_bound_constant_risks_margin_is_lambda(self):
        q = uniform_on(2)
        prof = profile_from([0.6, 0.6])
        sol = solve_type2(q, prof, 0.8)
        risk, bound, holds = risk_bound_check(sol, prof)
        assert holds
        assert bound - risk == pytest.approx(0.8, abs=1e-12)

    def test_bound_two_atom(self):
        q, prof = two_atom_instance()
        sol = solve_type2(q, prof, 1.0)
        risk, bound, holds = risk_bound_check(sol, prof)
        assert holds and risk < 1.0 and bound == 1.0

    def test_bound_holds_across_sweep(self, rng):
        q, prof = random_solver_instance(rng, max_atoms=12)
        for lam in np.logspace(-3, 3, 13):
            sol = solve_type2(q, prof, float(lam))
            _, _, holds = risk_bound_check(sol, prof)
            assert holds


class TestSupportEscape:
    def _instance(self):
        # The profile's atom at position 2 (theta = 5) lies outside supp(Q).
        prof = EmpiricalRiskProfile.from_risks([[0.0], [1.0], [5.0]], [0.5, 1.0, 0.0])
        q = make_measure([[0.0], [1.0]], [1.0, 1.0])
        return q, prof, 2

    def test_alpha_zero_reduces_to_inside_objective(self):
        q, prof, outside = self._instance()
        sol = solve_type2(q, prof, 1.0)
        inside_obj = type2_objective(sol.measure, q, prof, 1.0)
        assert escaped_mixture_objective(q, prof, 1.0, outside, 0.0) == pytest.approx(
            inside_obj, abs=1e-12
        )

    def test_alpha_to_zero_approaches_optimum_from_above(self):
        q, prof, outside = self._instance()
        sol = solve_type2(q, prof, 1.0)
        opt = type2_objective(sol.measure, q, prof, 1.0)
        prev_gap = math.inf
        for alpha in (0.1, 0.01, 0.001, 0.0001):
            gap = escaped_mixture_objective(q, prof, 1.0, outside, alpha) - opt
            assert 0.0 < gap < prev_gap
            prev_gap = gap

    def test_escape_strictly_penalized_even_with_zero_risk_outside(self):
        q, prof, outside = self._instance()
        best, optimal = support_escape_penalty(q, prof, 1.0)
        assert best > optimal

    def test_escape_goes_to_the_cheapest_outside_atom(self):
        # Outside atoms at theta = 5 (risk 0.25) and 7 (risk 0); the search
        # must find the latter, whatever their order in the profile.
        q = make_measure([[0.0], [1.0]], [1.0, 1.0])
        prof = EmpiricalRiskProfile.from_risks([[5.0], [0.0], [7.0], [1.0]], [0.25, 0.5, 0.0, 1.0])
        best, _ = support_escape_penalty(q, prof, 1.0, alpha_grid=50)
        alphas = np.linspace(0.0, 1.0, 52)[1:-1]
        assert best == min(escaped_mixture_objective(q, prof, 1.0, 2, float(a)) for a in alphas)

    def test_atom_collision_rejected(self):
        q, prof, _ = self._instance()
        with pytest.raises(AtomCollision):
            escaped_mixture_objective(q, prof, 1.0, 0, 0.5)

    def test_no_outside_atom_rejected(self):
        q, prof = two_atom_instance()
        with pytest.raises(ValueError, match="supp"):
            support_escape_penalty(q, prof, 1.0)
