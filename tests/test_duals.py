"""Dual distributions: Lambda integrals, weights, normalizers, KL-gaps."""

from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repeatcap import bounds, duals, numerics
from repeatcap.channels import (
    Family,
    RepeatChannel,
    output_log_pmf,
    output_mean,
    output_stddev,
)
from repeatcap.duals import (
    DualVariant,
    build_dual,
    convexity_gap_scan,
    epsilon_inf,
    g_duplication,
    g_sticky,
    kl_divergence,
    kl_gap_profile,
    lambda1_sticky,
    lambda2_sticky,
    lambda_trunc_geomdel,
    lambdas_duplication,
    r_p,
    r_p_envelope,
)
from repeatcap.numerics import binary_entropy, log_gamma, log_integral_li

import oracles


def test_lambda_sticky_oracle_values():
    for (y, p), want in oracles.LAMBDA1_STICKY.items():
        assert abs(lambda1_sticky(y, p) - want) <= 2e-9 * max(1.0, y), (y, p)
    for (y, p), want in oracles.LAMBDA2_STICKY.items():
        assert abs(lambda2_sticky(y, p) - want) <= 2e-9 * max(1.0, y), (y, p)


def test_g_sticky_oracle_values():
    for (y, p), want in oracles.G_STICKY.items():
        assert abs(g_sticky(y, p) - want) <= 5e-9 * max(1.0, y), (y, p)


def test_lambda_duplication_oracle_values():
    for (y, p), wants in oracles.LAMBDAS_DUPLICATION.items():
        got = lambdas_duplication(y, p)
        for g, w in zip(got, wants):
            assert abs(g - w) <= 2e-9 * max(1.0, y), (y, p)


def test_lambda_trunc_oracle_values():
    for (y, p), wants in oracles.LAMBDA_TRUNC_GEOMDEL.items():
        got = lambda_trunc_geomdel(y, p)
        for g, w in zip(got, wants):
            assert abs(g - w) <= 2e-9 * max(1.0, y), (y, p)


def test_lambda_domain_checks():
    with pytest.raises(ValueError):
        lambda1_sticky(0, 0.3)
    with pytest.raises(ValueError):
        lambdas_duplication(0.5, 0.3)
    with pytest.raises(ValueError):
        lambda_trunc_geomdel(-1, 0.3)
    with pytest.raises(ValueError):
        r_p(0, 0.3)


def test_lambda_sticky_asymptotics():
    # Lambda_1(y) - log Gamma(y(1-p)) and Lambda_2(y) - log Gamma(1+yp)
    # stay in a fixed band as y grows
    for p in (0.3, 0.7):
        ys = np.array([100.0, 1000.0, 10000.0])
        d1 = lambda1_sticky(ys, p) - log_gamma(ys * (1.0 - p))
        d2 = lambda2_sticky(ys, p) - log_gamma(1.0 + ys * p)
        assert np.ptp(d1) <= 0.5, p
        assert np.ptp(d2) <= 0.5, p
        assert np.all(np.abs(d1) <= 10.0) and np.all(np.abs(d2) <= 10.0)


def test_g_growth_laws():
    # y h(p) - g(y) = (1/2) log y + O(1) (sticky); the duplication g obeys
    # the same law with rate h(p)/(1+p)
    ys = np.array([100.0, 1000.0, 10000.0])
    for p in (0.1, 0.5, 0.9):
        band = ys * binary_entropy(p) - g_sticky(ys, p) - 0.5 * np.log(ys)
        assert np.ptp(band) <= 0.5, p
    for p in (0.2, 0.6):
        g = g_duplication(ys, p)
        band = ys * binary_entropy(p) / (1.0 + p) - g - 0.5 * np.log(ys)
        assert np.ptp(band) <= 0.5, p


def test_lambda_trunc_asymptotics():
    # Lambda_1(y) ~ log Gamma(y(1-p)/p) + (y(1-p)/p) Li(1/(1+2p)) + O(1)
    for p in (0.4, 0.7):
        ys = np.array([100.0, 1000.0, 10000.0])
        l1, _ = lambda_trunc_geomdel(ys, p)
        shifted = ys * (1.0 - p) / p
        band = l1 - log_gamma(shifted) - shifted * log_integral_li(1.0 / (1.0 + 2.0 * p))
        assert np.ptp(band) <= 0.5, p


@pytest.mark.parametrize("p", (0.3, 0.9))
def test_lambda_views_do_not_depend_on_the_other_ys(p):
    # One quadrature across decades of y under-resolves the large-y peaks
    # without its error estimate noticing (Lambda_2(3000) off by 3.5e-4 at
    # p = 0.3), so the views chunk y by scale like the S-table does.
    ys = np.array([0.0, 1.0, 5.0, 100.0, 3000.0, 10000.0])
    together = lambda_trunc_geomdel(ys, p)
    for i, y in enumerate(ys):
        alone = lambda_trunc_geomdel(y, p)
        for k in (0, 1):
            assert abs(together[k][i] - alone[k]) <= duals._quad_tol(ys[i:i + 1]), (y, k)


def test_r_p_oracle_values():
    for (x, p), want in oracles.R_P.items():
        assert abs(r_p(x, p) - want) <= 1e-10, (x, p)


def test_r_p_decay_and_envelope():
    for p in (0.3, 0.6, 0.9):
        xs = np.arange(1, 51)
        vals = r_p(xs, p)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0), p
        env = r_p_envelope(p)
        assert abs(env - oracles.I_P_ENVELOPE[p]) <= 1e-9
        assert np.all(vals <= (1.0 + 2.0 * p) ** -(xs - 1.0) * env * (1.0 + 1e-12)), p


def test_build_dual_sticky_normalizer_oracle():
    dual = build_dual(DualVariant.STICKY_ZERO_GAP, 0.3, 0.5)
    assert dual.series_converged
    assert abs(dual.log_normalizer - oracles.STICKY_LOG_NORMALIZER_P03_Q05) <= 1e-10
    assert abs(dual.mean - oracles.STICKY_MEAN_P03_Q05) <= 1e-9


def test_build_dual_q_domain():
    with pytest.raises(ValueError):
        build_dual(DualVariant.STICKY_ZERO_GAP, 0.3, 1.0)
    with pytest.raises(ValueError):
        build_dual(DualVariant.STICKY_ZERO_GAP, 0.3, 0.0)


def test_build_dual_delta_rules():
    # delta only makes sense when the support includes y = 0
    with pytest.raises(ValueError):
        build_dual(DualVariant.STICKY_ZERO_GAP, 0.3, 0.5, delta=0.7)
    with pytest.raises(ValueError):
        build_dual(DualVariant.GEOMDEL_CONVEXITY, 0.3, 0.5, delta=1.3)
    with pytest.raises(ValueError):
        build_dual(DualVariant.GEOMDEL_CONVEXITY, 0.3, 0.5, delta=0.0)


def test_dual_normalization_within_tail():
    cases = [
        (DualVariant.STICKY_ZERO_GAP, 0.3, 0.6, 1.0),
        (DualVariant.DUPLICATION_ZERO_GAP, 0.5, 0.7, 1.0),
        (DualVariant.GEOMDEL_CONVEXITY, 0.4, 0.8, 1.0),
        (DualVariant.GEOMDEL_CONVEXITY, 0.4, 0.8, 0.45),
        (DualVariant.GEOMDEL_TRUNCATED, 0.7, 0.85, 0.6),
        (DualVariant.INVERSE_BINOMIAL, 0.35, 0.6, 1.0),
    ]
    for variant, p, q, delta in cases:
        dual = build_dual(variant, p, q, delta=delta)
        y_max, tail = dual.truncation
        ys = np.arange(dual.support_start, y_max + 1)
        total = float(np.sum(np.exp(dual.log_pmf(ys))))
        assert abs(total - 1.0) <= tail + 1e-10, (variant, p, q, delta)


def test_delta_one_reproduces_base():
    base = build_dual(DualVariant.GEOMDEL_CONVEXITY, 0.45, 0.7)
    explicit = build_dual(DualVariant.GEOMDEL_CONVEXITY, 0.45, 0.7, delta=1.0)
    assert base.log_normalizer == explicit.log_normalizer
    assert base.mean == explicit.mean


def test_delta_normalizer_identity():
    # 1/alpha = delta + 1/y0 - 1, an algebraic identity on the cached sums
    for delta in (0.25, 0.8):
        base = build_dual(DualVariant.GEOMDEL_CONVEXITY, 0.45, 0.7)
        mod = build_dual(DualVariant.GEOMDEL_CONVEXITY, 0.45, 0.7, delta=delta)
        lhs = math.exp(mod.log_normalizer)
        rhs = delta + math.exp(base.log_normalizer) - 1.0
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_convexity_delta_d_equals_inverse_binomial():
    # with the zero mass set to d = 1-p, the convexity dual is the inverse
    # binomial: identical pmf everywhere after normalization
    p, q = 0.35, 0.6
    conv = build_dual(DualVariant.GEOMDEL_CONVEXITY, p, q, delta=1.0 - p)
    invbin = build_dual(DualVariant.INVERSE_BINOMIAL, p, q)
    ys = np.arange(0, 201)
    assert np.max(np.abs(conv.log_pmf(ys) - invbin.log_pmf(ys))) <= 1e-12


def test_inverse_binomial_weight_relation():
    # log a_conv(y) - log a_invbin(y) = log(1-p) for every y >= 1: the two
    # share a weight table and differ by that constant shift alone
    p, q = 0.35, 0.6
    conv = build_dual(DualVariant.GEOMDEL_CONVEXITY, p, q)
    invbin = build_dual(DualVariant.INVERSE_BINOMIAL, p, q)
    ys = np.arange(1, 201)
    diff = conv.log_weight(ys) - invbin.log_weight(ys)
    assert np.max(np.abs(diff - math.log(1.0 - p))) <= 1e-12


def test_kl_divergence_self_is_zero():
    # a fake dual whose pmf is exactly the x = 1 sticky output law
    p = 0.4
    channel = RepeatChannel(Family.GEOMETRIC_STICKY, p)

    def log_pmf(ys):
        ys = np.asarray(ys, dtype=float)
        return np.log1p(-p) + (ys - 1.0) * math.log(p)

    fake = SimpleNamespace(
        variant=DualVariant.STICKY_ZERO_GAP, p=p, q=0.5, support_start=1, log_pmf=log_pmf
    )
    assert abs(kl_divergence(channel, 1, fake)) <= 1e-12


def test_kl_divergence_nonnegative():
    channel = RepeatChannel(Family.GEOMETRIC_DELETION, 0.5)
    dual = build_dual(DualVariant.GEOMDEL_CONVEXITY, 0.5, 0.7)
    for x in (1, 3, 10):
        assert kl_divergence(channel, x, dual) >= 0.0


def test_kl_divergence_family_mismatch():
    channel = RepeatChannel(Family.GEOMETRIC_STICKY, 0.4)
    dual = build_dual(DualVariant.GEOMDEL_CONVEXITY, 0.4, 0.6)
    with pytest.raises(ValueError):
        kl_divergence(channel, 1, dual)


@pytest.mark.parametrize("family", (
    Family.GEOMETRIC_STICKY, Family.ELEMENTARY_DUPLICATION, Family.GEOMETRIC_DELETION,
))
@pytest.mark.parametrize("p", (0.3, 0.9))
@pytest.mark.parametrize("x", (1, 5, 40))
def test_chernoff_tail_bound_covers_the_exact_tail(family, p, x):
    channel = RepeatChannel(family, p)
    mean, std = output_mean(channel, x), output_stddev(channel, x)
    ys = np.arange(0, int(mean + 80.0 * std) + 200)
    pmf = np.exp(output_log_pmf(channel, x, ys))
    for cutoff in sorted({int(mean + k * std) for k in (0.5, 3.0, 8.0)} | {2 * x}):
        exact = float(np.sum(pmf[ys > cutoff]))
        assert duals._tail_mass_bound(channel, x, cutoff) >= exact, cutoff


def test_zero_gap_sticky_and_duplication():
    grid_p = (0.1, 0.3, 0.5, 0.7)
    grid_q = (0.3, 0.6, 0.9)
    for family, variant in (
        (Family.GEOMETRIC_STICKY, DualVariant.STICKY_ZERO_GAP),
        (Family.ELEMENTARY_DUPLICATION, DualVariant.DUPLICATION_ZERO_GAP),
    ):
        for p in grid_p:
            for q in grid_q:
                channel = RepeatChannel(family, p)
                dual = build_dual(variant, p, q)
                profile = kl_gap_profile(channel, dual, 50)
                worst = max(abs(g) for g in profile.gaps.values())
                assert worst <= 1e-6, (family, p, q, worst)
                assert profile.limit_candidate == 0.0


def test_gap_line_coefficients():
    dual = build_dual(DualVariant.STICKY_ZERO_GAP, 0.3, 0.5)
    profile = kl_gap_profile(RepeatChannel(Family.GEOMETRIC_STICKY, 0.3), dual, 3)
    assert abs(profile.line_slope + math.log(0.5)) <= 1e-14
    assert abs(profile.line_intercept - dual.log_normalizer) <= 1e-14


def test_truncated_gap_equals_r_p():
    for p in (0.3, 0.6, 0.9):
        channel = RepeatChannel(Family.GEOMETRIC_DELETION, p)
        dual = build_dual(DualVariant.GEOMDEL_TRUNCATED, p, 0.6)
        profile = kl_gap_profile(channel, dual, 30)
        xs = np.arange(1, 31)
        want = r_p(xs, p)
        got = np.array([profile.gaps[int(x)] for x in xs])
        assert np.max(np.abs(got - want)) <= 1e-6, p


def test_delta_identity():
    # gap_delta(x) = gap(x) - d log(delta) + d^x log(delta), both sides
    # computed from independently built duals
    for p in (0.4, 0.7):
        d = 1.0 - p
        channel = RepeatChannel(Family.GEOMETRIC_DELETION, p)
        base = build_dual(DualVariant.GEOMDEL_CONVEXITY, p, 0.7)
        base_profile = kl_gap_profile(channel, base, 20)
        for delta in (0.3, d):
            mod = build_dual(DualVariant.GEOMDEL_CONVEXITY, p, 0.7, delta=delta)
            mod_profile = kl_gap_profile(channel, mod, 20)
            for x in range(1, 21):
                predicted = (
                    base_profile.gaps[x]
                    - d * math.log(delta)
                    + d**x * math.log(delta)
                )
                assert abs(mod_profile.gaps[x] - predicted) <= 1e-9, (p, delta, x)
        # at x = 1 the modification changes nothing: -d log delta + d log delta
        mod = build_dual(DualVariant.GEOMDEL_CONVEXITY, p, 0.7, delta=0.3)
        assert abs(kl_gap_profile(channel, mod, 1).gaps[1] - base_profile.gaps[1]) <= 1e-9


def test_convexity_gap_at_half_exceeds_limit():
    gaps = convexity_gap_scan(0.5, 10)
    assert gaps[0] > 0.5
    assert abs(gaps[0] - oracles.EPSILON_CONV_HALF) <= 1e-12


def test_convexity_scan_matches_direct_kl():
    # closed-form scan vs truncated-summation KL route, two code paths
    p, q = 0.6, 0.9
    channel = RepeatChannel(Family.GEOMETRIC_DELETION, p)
    dual = build_dual(DualVariant.GEOMDEL_CONVEXITY, p, q)
    profile = kl_gap_profile(channel, dual, 12)
    scan = convexity_gap_scan(p, 12)
    for x in range(1, 13):
        assert abs(profile.gaps[x] - scan[x - 1]) <= 1e-9, x


def test_convexity_limit_candidate():
    dual = build_dual(DualVariant.GEOMDEL_CONVEXITY, 0.5, 0.7)
    profile = kl_gap_profile(RepeatChannel(Family.GEOMETRIC_DELETION, 0.5), dual, 5)
    assert profile.limit_candidate == 0.5
    # a delta mass shifts the limit by -d log delta
    mod = build_dual(DualVariant.GEOMDEL_CONVEXITY, 0.5, 0.7, delta=0.5)
    mod_profile = kl_gap_profile(RepeatChannel(Family.GEOMETRIC_DELETION, 0.5), mod, 5)
    assert abs(mod_profile.limit_candidate - (0.5 - 0.5 * math.log(0.5))) <= 1e-14


def test_truncated_recommended_delta_epsilon():
    # with delta = exp(-R_p(1)/d) the scanned infimum lands on R_p(1)
    p = 0.7
    d = 1.0 - p
    r1 = float(r_p(1, p))
    delta_bar = math.exp(-r1 / d)
    channel = RepeatChannel(Family.GEOMETRIC_DELETION, p)
    dual = build_dual(DualVariant.GEOMDEL_TRUNCATED, p, 0.8, delta=delta_bar)
    eps = epsilon_inf(channel, dual, 60)
    assert abs(eps - r1) <= 1e-6
    profile = kl_gap_profile(channel, dual, 5)
    assert abs(profile.limit_candidate - r1) <= 1e-9


def test_epsilon_inf_nonnegative():
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        channel = RepeatChannel(Family.GEOMETRIC_DELETION, p)
        dual = build_dual(DualVariant.GEOMDEL_CONVEXITY, p, 0.7)
        assert epsilon_inf(channel, dual, 80) >= -1e-9, p


def test_series_fast_refusal_near_one():
    dual = build_dual(DualVariant.STICKY_ZERO_GAP, 0.3, 0.9999999)
    assert not dual.series_converged


_QUADRATURE_VARIANTS = (
    DualVariant.STICKY_ZERO_GAP,
    DualVariant.DUPLICATION_ZERO_GAP,
    DualVariant.GEOMDEL_TRUNCATED,
)


@pytest.mark.parametrize("variant", _QUADRATURE_VARIANTS)
@pytest.mark.parametrize("p", (0.3, 0.9))
def test_s_table_batched_matches_per_node(monkeypatch, variant, p):
    # Chunks y = 1..1024 reach nodes v below _LIMIT_VC, where the Taylor
    # limits blend in.  Both routes must give the same bits, build after build.
    batched = [duals._STable(variant, p).upto(1024).copy() for _ in range(2)]
    assert np.array_equal(batched[0], batched[1])

    integrate = numerics.integrate
    nodes = []

    def per_node(problem, **kwargs):
        inner = problem.integrand

        def one_node_per_call(t):
            nodes.extend(t[:, 0])
            return np.concatenate([inner(t[i : i + 1]) for i in range(len(t))])

        return integrate(dataclasses.replace(problem, integrand=one_node_per_call), **kwargs)

    monkeypatch.setattr(numerics, "integrate", per_node)
    reference = duals._STable(variant, p).upto(1024)
    assert min(nodes) * 60.0 < duals._LIMIT_VC  # v = span * t, span <= 60
    assert np.array_equal(batched[0], reference)


def test_s_table_growth_path_within_tolerance():
    one_call = duals._STable(DualVariant.STICKY_ZERO_GAP, 0.9).upto(20000)
    stepped = duals._STable(DualVariant.STICKY_ZERO_GAP, 0.9)
    for ymax in range(4097, 20000, 4097):
        stepped.upto(ymax)
    tol = duals._quad_tol(np.arange(1.0, 20001.0))
    assert np.max(np.abs(stepped.upto(20000) - one_call)) <= tol


def test_s_table_holds_what_the_series_reads():
    duals.clear_caches()
    bounds.compute_bound(Family.GEOMETRIC_STICKY, None, 0.3)
    table = duals._TABLES[(DualVariant.STICKY_ZERO_GAP, 0.3)]
    assert table._vals.size < 8192


def test_s_table_of_a_short_series_is_one_step():
    duals.clear_caches()
    bounds.compute_bound(Family.GEOMETRIC_STICKY, None, 0.3)
    table = duals._TABLES[(DualVariant.STICKY_ZERO_GAP, 0.3)]
    assert table._vals.size <= 1024


def test_clear_caches_empties_gap_scans():
    bounds._delta_scan(0.5, 3)
    assert bounds._DELTA_SCANS
    duals.clear_caches()
    assert not bounds._DELTA_SCANS
    assert not duals._TABLES
