"""Whole-pipeline sweeps against the conjugate gaussian case, computed without the package.

Linear regression with squared loss has the quadratic risk
L(theta) = L* + (theta - theta*)^T A (theta - theta*), with A = X^T X / n
(X with a column of ones for an intercept), theta* = A^-1 X^T y / n and
L* = L(theta*). Under a gaussian reference Q = N(mu, sigma^2 I):

* Type 1, the Gibbs tilt, is gaussian with precision M = I/sigma^2 + 2A/lam
  and mean m1 = M^-1 (mu/sigma^2 + 2 A theta*/lam), so
  log E_Q[exp(-L/lam)] = -L*/lam - log det(I + 2 sigma^2 A/lam)/2
  - (mu - theta*)^T (lam A^-1/2 + sigma^2 I)^-1 (mu - theta*)/2 and
  E_P1[L] = L* + tr(A M^-1) + (m1 - theta*)^T A (m1 - theta*);
* Type 2's pole gap t = k_bar + L* solves lam E_Q[1/(t + L - L*)] = 1, here
  under a tensor Gauss-Hermite rule (``numpy.polynomial.hermite.hermgauss``).

A config's gaussian reference on a lattice wide and fine enough is the
trapezoid rule for these smooth, fast-decaying integrands, which reproduces
the continuous answer to rounding. So the sweep, from the config through
``ExperimentConfig.from_dict`` and ``generate_instance``, must agree with the
closed forms to a few 1e-15 for lam from 0.1 to 1e3. The Gauss-Hermite rule
converges only where 1/(k_bar + L) is smooth on the scale of its nodes:
Type 2 is checked at the factors where two node counts agree to 1e-14.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from entrisk.experiment import ExperimentConfig, generate_instance, sweep_records

U = 2.0**-53

#: Type-1 bounds: ``k_type1`` absolute, ``risk_type1`` relative.
TYPE1_BOUND = 4e-15

#: Gauss-Hermite node counts per axis, and how closely their roots must agree.
NODES = (120, 150)
AGREE = 1e-14

#: (dim, intercept, mu, sigma, half-width, points per axis, n, true model, noise, data_seed)
CASES = {
    "2d_centered": (2, True, [0.0, 0.0], 0.8, 7.0, 96, 50, [0.9, -0.4], 0.2, 1),
    "2d_offset": (2, True, [0.3, -0.2], 0.6, 5.5, 96, 80, [-0.5, 0.7], 0.3, 2),
    "1d": (1, False, [0.4], 1.0, 9.0, 401, 30, [0.6], 0.4, 3),
}


def config(dim, intercept, mu, sigma, half, points, n, true, noise, seed) -> ExperimentConfig:
    return ExperimentConfig.from_dict({
        "predictor": "linear_regression", "loss": "squared", "intercept": intercept,
        "grid_min": [m - half for m in mu], "grid_max": [m + half for m in mu],
        "grid_resolution": [points] * dim, "reference": "gaussian", "reference_mean": mu,
        "reference_scale": sigma, "dataset": "synthetic", "true_model": true, "noise": noise,
        "n": n, "data_seed": seed, "lambda_min": 0.1, "lambda_max": 1000.0, "lambda_count": 9,
    })


def quadratic_risk(patterns, labels, intercept):
    """(A, theta*, L*) of the squared-loss risk on the data."""
    x = np.hstack([patterns, np.ones((len(labels), 1))]) if intercept else patterns
    a = x.T @ x / len(labels)
    theta = np.linalg.solve(a, x.T @ labels / len(labels))
    return a, theta, math.fsum(((x @ theta - labels) ** 2).tolist()) / len(labels)


def gibbs(a, theta, l_star, mu, var, lam):
    """(log E_Q[exp(-L/lam)], E_P1[L]) in closed form."""
    eye, m = np.eye(len(mu)), mu - theta
    log_z = (-l_star / lam - 0.5 * np.linalg.slogdet(eye + 2.0 * var * a / lam)[1]
             - 0.5 * m @ np.linalg.solve(0.5 * lam * np.linalg.inv(a) + var * eye, m))
    precision = eye / var + 2.0 * a / lam
    m1 = np.linalg.solve(precision, mu / var + 2.0 * a @ theta / lam) - theta
    return log_z, l_star + np.trace(np.linalg.solve(precision, a)) + m1 @ a @ m1


def hermite_rule(a, theta, mu, sigma, nodes):
    """Q's weights and the shifted risks L - L* at the tensor Gauss-Hermite nodes."""
    z, w = hermgauss(nodes)
    d = len(mu)
    points = np.stack(np.meshgrid(*[z] * d, indexing="ij"), axis=-1).reshape(-1, d)
    weights = w
    for _ in range(d - 1):
        weights = np.multiply.outer(weights, w).ravel()
    dev = points * (math.sqrt(2.0) * sigma) + mu - theta
    return weights / math.pi ** (d / 2), np.einsum("ij,jk,ik->i", dev, a, dev)


def pole_gap(weights, shifted, lam):
    """(t, kappa): the root of lam * E[1/(t + shifted)] = 1 and its condition number, or (0, inf).

    Newton's method on 1/g - 1, increasing and concave in t, from t = 0,
    the pole of the continuous problem: each step stays left of the root,
    until the steps stop moving t. kappa = g / (t |g'|) is the relative
    change of t per relative change of g at the root.
    """
    t = 0.0
    for _ in range(200):
        inv = 1.0 / (t + shifted)
        g = lam * np.add.reduce(weights * inv)
        slope = lam * np.add.reduce(weights * inv * inv)
        if t == 0.0 and not g > 1.0:
            return 0.0, math.inf  # no root above the nodes' pole: the rule has not converged
        step = g * (g - 1.0) / slope
        if not abs(step) > 4.0 * U * t:
            return t, g / (t * slope)
        t = t + step
    raise AssertionError(f"Newton did not settle at lam={lam}")


@pytest.mark.parametrize("case", CASES)
def test_sweep_matches_the_conjugate_gaussian_closed_forms(case):
    _, intercept, mu, sigma, *_ = CASES[case]
    cfg = config(*CASES[case])
    _, data, aligned = generate_instance(cfg)
    records, _ = sweep_records(aligned, cfg.lambdas)
    a, theta, l_star = quadratic_risk(data.patterns, data.labels, intercept)
    mu = np.asarray(mu)
    rules = [hermite_rule(a, theta, mu, sigma, nodes) for nodes in NODES]
    checked = 0
    for record in records:
        lam = record.lam
        assert record.status == "ok"
        log_z, risk = gibbs(a, theta, l_star, mu, sigma * sigma, lam)
        assert abs(record.k_type1 - log_z) <= TYPE1_BOUND, f"k_type1 at lam={lam:g}"
        assert abs(record.risk_type1 - risk) <= TYPE1_BOUND * risk, f"risk_type1 at lam={lam:g}"
        (coarse, _), (t, kappa) = (pole_gap(*rule, lam) for rule in rules)
        if not (t > 0.0 and abs(coarse - t) <= AGREE * t):
            continue
        checked += 1
        # The solve accepts |g - 1| <= residual, which moves t by kappa * residual.
        bound = (kappa * record.residual + 16.0 * U) * t
        k_bar = t - l_star
        assert abs(record.k_bar_type2 - k_bar) <= bound, f"k_bar_type2 at lam={lam:g}"
        # R(P2) = lam - k_bar, which cancels against lam.
        assert abs(record.risk_type2 - (lam - k_bar)) <= bound + 8.0 * U * lam
    assert checked >= 6
