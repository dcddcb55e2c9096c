"""Quadrature, special functions, series summation, concave maximization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repeatcap.numerics import (
    OptimizeResult,
    QuadratureError,
    QuadratureProblem,
    SeriesSpec,
    binary_entropy,
    eta_integral,
    integrate,
    log_gamma,
    log_gamma_via_integral,
    log_integral_li,
    maximize_concave,
    sum_series,
)

import oracles


def test_log_gamma_small_integers():
    assert abs(log_gamma(1.0)) <= 1e-14
    assert abs(log_gamma(2.0)) <= 1e-14
    assert abs(log_gamma(5.0) - math.log(24.0)) <= 1e-12


def test_log_gamma_frozen_value():
    assert abs(log_gamma(4.5) - oracles.LOG_GAMMA_4_5) <= 1e-12


def test_log_gamma_recurrence():
    for z in (0.5, 1.5, 10.5):
        assert abs(log_gamma(z + 1.0) - log_gamma(z) - math.log(z)) <= 1e-10


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-2.5)


def test_log_gamma_via_integral_trivial_zeros():
    assert abs(log_gamma_via_integral(0.0)) <= 1e-10
    assert abs(log_gamma_via_integral(1.0)) <= 1e-10


def test_log_gamma_via_integral_matches_direct():
    for z in (0.1, 0.5, 1.0, 2.5, 7.0, 20.0):
        assert abs(log_gamma_via_integral(z) - log_gamma(1.0 + z)) <= 1e-8


def test_log_gamma_via_integral_frozen_value():
    assert abs(log_gamma_via_integral(3.5) - oracles.LOG_GAMMA_4_5) <= 1e-8


def test_binary_entropy():
    assert abs(binary_entropy(0.5) - math.log(2.0)) <= 1e-14
    assert abs(binary_entropy(0.25) - oracles.BINARY_ENTROPY_QUARTER) <= 1e-14
    assert abs(binary_entropy(1e-12)) <= 1e-10  # continuity toward 0
    assert binary_entropy(0.0, allow_endpoints=True) == 0.0
    assert binary_entropy(1.0, allow_endpoints=True) == 0.0
    with pytest.raises(ValueError):
        binary_entropy(0.0)
    with pytest.raises(ValueError):
        binary_entropy(1.2)


def test_log_integral_li():
    assert abs(log_integral_li(0.5) - oracles.LI_HALF) <= 1e-10
    assert abs(log_integral_li(1.0 / 3.0) - oracles.LI_THIRD) <= 1e-10
    assert log_integral_li(1.0 / 3.0) < 0.0
    assert abs(log_integral_li(1e-9)) <= 1e-8
    with pytest.raises(ValueError):
        log_integral_li(0.0)
    with pytest.raises(ValueError):
        log_integral_li(1.0)


def test_eta_integral():
    assert abs(eta_integral(0.5) - oracles.ETA_HALF) <= 1e-10
    assert abs(eta_integral(0.625) - oracles.ETA_0625) <= 1e-10
    assert eta_integral(0.5) < 0.0
    assert abs(eta_integral(1e-9)) <= 1e-8
    with pytest.raises(ValueError):
        eta_integral(1.0)


def test_integrate_constant_and_linear():
    val, err = integrate(QuadratureProblem(lambda t: np.ones(len(t)), (0.0, 1.0)))
    assert abs(val - 1.0) <= max(1e-14, err)
    val, err = integrate(QuadratureProblem(lambda t: t[:, 0], (0.0, 1.0)))
    assert abs(val - 0.5) <= max(1e-14, err)


def test_integrate_calls_once_per_panel_with_a_node_column():
    shapes = []

    def integrand(t):
        shapes.append(t.shape)
        return np.ones(len(t))

    val, _ = integrate(QuadratureProblem(integrand, (0.0, 1.0)), breakpoints=[0.5])
    assert abs(val - 1.0) <= 1e-14
    assert shapes == [(15, 1), (15, 1)]


def test_integrate_rejects_a_per_node_integrand():
    with pytest.raises(ValueError, match="column"):
        integrate(QuadratureProblem(lambda t: 1.0, (0.0, 1.0)))


def test_integrate_polynomials_exact():
    # degree <= 5 polynomials are inside the Gauss-Kronrod exactness range
    rng = np.random.default_rng(7)
    for _ in range(10):
        coeffs = rng.uniform(-2.0, 2.0, size=6)
        exact = sum(c / (k + 1.0) for k, c in enumerate(coeffs))
        val, err = integrate(
            QuadratureProblem(lambda t: sum(c * t**k for k, c in enumerate(coeffs)), (0.0, 1.0))
        )
        assert abs(val - exact) <= max(err, 1e-13)


def test_integrate_vector_integrand():
    val, err = integrate(
        QuadratureProblem(lambda t: np.hstack([np.ones_like(t), t, t * t]), (0.0, 1.0))
    )
    assert np.allclose(val, [1.0, 0.5, 1.0 / 3.0], atol=1e-12)
    assert err <= 1e-10


def _column_calls(integrand):
    """integrand plus a list recording whether each call got a node column."""
    calls = []

    def recorded(t):
        calls.append(np.ndim(t) > 0)
        return integrand(t)

    return recorded, calls


def test_integrate_batched_endpoint_limit():
    # NaN at the nodes next to t = 0 (the first panel is [0, 1e-12]); the
    # endpoint limit (cos 0, 2 cos 0) stands in for them
    integrand, calls = _column_calls(
        lambda t: np.where(t < 1e-13, np.nan, np.cos(t)) * np.array([1.0, 2.0])
    )
    problem = QuadratureProblem(integrand, (0.0, 1.0), endpoint_limits=([1.0, 2.0], None))
    val, err = integrate(problem, breakpoints=[1e-12])
    assert np.allclose(val, [math.sin(1.0), 2.0 * math.sin(1.0)], rtol=0.0, atol=max(err, 1e-13))
    assert sum(calls) > 1  # every panel went in as a column


def test_integrate_batched_interior_nan_raises():
    integrand, calls = _column_calls(
        lambda t: np.where(np.abs(t - 0.75) < 0.05, np.nan, np.cos(t)) * np.array([1.0, 2.0])
    )
    problem = QuadratureProblem(integrand, (0.0, 1.0), endpoint_limits=([1.0, 2.0], None))
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate(problem)
    assert any(calls)


def test_integrate_interval_validation():
    with pytest.raises(ValueError):
        QuadratureProblem(lambda t: t, (0.5, 0.2))
    with pytest.raises(ValueError):
        QuadratureProblem(lambda t: t, (-0.1, 0.5))


def test_integrate_against_simpson_oracle():
    # production quadrature of the raw sticky f1 integrand at y = 5,
    # p = 0.3, compared with a one-million-panel Simpson rule on the
    # identical raw form over the exp-tail domain
    from repeatcap.duals import lambda1_sticky

    want = oracles.simpson_longdouble(
        lambda vs: oracles.sticky_f1_raw_v(5.0, 0.3, vs), 0.0, 60.0, 1_000_000
    )
    assert abs(want - oracles.LAMBDA1_STICKY[(5, 0.3)]) <= 1e-12
    assert abs(lambda1_sticky(5, 0.3) - want) <= 1e-9


def test_sum_series_geometric():
    # sum over y >= 1 of 0.5^y equals 1
    res = sum_series(
        SeriesSpec(
            log_term=lambda ys: ys * math.log(0.5),
            start_index=1,
            rel_tol=1e-12,
            geometric_tail_ratio_bound=lambda ys: np.full(np.shape(ys), 0.5),
        )
    )
    assert res.converged
    assert abs(res.log_sum) <= 1e-12
    # adding the reported tail changes the sum by at most rel_tol relatively
    assert res.tail_bound <= 1e-12 * math.exp(res.log_sum) * (1.0 + 1e-9)


def test_sum_series_reads_a_short_series_in_its_first_block():
    asked = []

    def log_term(ys):
        asked.append(int(ys.max()))
        return ys * math.log(0.5)

    res = sum_series(
        SeriesSpec(
            log_term=log_term,
            start_index=1,
            rel_tol=1e-12,
            geometric_tail_ratio_bound=lambda ys: np.full(np.shape(ys), 0.5),
        )
    )
    assert res.converged and res.terms_used < 256
    assert max(asked) <= 256


def test_sum_series_single_term():
    res = sum_series(
        SeriesSpec(
            log_term=lambda ys: np.where(ys == 1, math.log(3.0), -np.inf),
            start_index=1,
            rel_tol=1e-12,
            geometric_tail_ratio_bound=lambda ys: np.zeros(np.shape(ys)),
        )
    )
    assert res.converged
    assert abs(res.log_sum - math.log(3.0)) <= 1e-14


def test_sum_series_hard_cap_reported():
    # ratio bound 1 never certifies a tail, so the cap must be hit and
    # reported rather than silently accepted
    res = sum_series(
        SeriesSpec(
            log_term=lambda ys: -np.log(ys.astype(float)) * 2.0,
            start_index=1,
            rel_tol=1e-12,
            geometric_tail_ratio_bound=lambda ys: np.ones(np.shape(ys)),
            hard_cap=5000,
        )
    )
    assert not res.converged
    assert res.terms_used == 5000


def test_maximize_concave_quadratic():
    res = maximize_concave(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, tol=1e-8)
    assert isinstance(res, OptimizeResult)
    assert res.unimodal
    assert abs(res.arg - 0.3) <= 1e-7


def test_maximize_concave_random_quadratics():
    rng = np.random.default_rng(11)
    for _ in range(20):
        vertex = rng.uniform(0.05, 0.95)
        scale = rng.uniform(0.5, 30.0)
        res = maximize_concave(lambda x: -scale * (x - vertex) ** 2, 0.0, 1.0, tol=1e-8)
        assert abs(res.arg - vertex) <= 1e-6


def test_maximize_concave_constant():
    res = maximize_concave(lambda x: 2.5, 0.0, 1.0)
    assert res.value == 2.5


def test_maximize_concave_flags_multimodal():
    res = maximize_concave(lambda x: math.sin(12.0 * math.pi * x), 0.0, 1.0, tol=1e-9)
    assert not res.unimodal
    assert res.value >= 1.0 - 1e-6  # still finds a global peak


def test_maximize_concave_quasiconcave_stops_after_first_peak():
    seen = []

    def f(x):
        seen.append(x)
        return math.sin(12.0 * math.pi * x)

    full = maximize_concave(f, 0.0, 1.0, tol=1e-9)
    seen.clear()
    res = maximize_concave(f, 0.0, 1.0, tol=1e-9, quasiconcave=True)
    assert res.value >= 1.0 - 1e-6
    assert max(seen) < 1.0 / 12.0  # the first peak is at 1/24, its zero at 1/12
    assert res.n_evals == len(seen) < full.n_evals


def test_maximize_concave_quasiconcave_scans_nonpositive_in_full():
    def f(x):
        return -((x - 0.3) ** 2)

    res = maximize_concave(f, 0.0, 1.0, tol=1e-8, quasiconcave=True)
    assert res == maximize_concave(f, 0.0, 1.0, tol=1e-8)
    assert res.n_evals > 64


def test_maximize_concave_validation():
    with pytest.raises(ValueError):
        maximize_concave(lambda x: x, 1.0, 0.0)
