"""Dual distributions: Lambda integrals, weights, normalizers, KL-gaps."""

from __future__ import annotations

import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeatcap import bounds, channels, duals, numerics, tables
from repeatcap.channels import ConditionalOutputLaw, Family, RepeatChannel, output_log_pmf
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
        assert abs(lambda1_sticky(y, p) - want) <= 1e-12 * max(1.0, y), (y, p)
    for (y, p), want in oracles.LAMBDA2_STICKY.items():
        assert abs(lambda2_sticky(y, p) - want) <= 1e-12 * max(1.0, y), (y, p)


def test_g_sticky_oracle_values():
    for (y, p), want in oracles.G_STICKY.items():
        assert abs(g_sticky(y, p) - want) <= 5e-9 * max(1.0, y), (y, p)


def test_lambda_duplication_oracle_values():
    for (y, p), wants in oracles.LAMBDAS_DUPLICATION.items():
        got = lambdas_duplication(y, p)
        for g, w in zip(got, wants):
            assert abs(g - w) <= 1e-12 * max(1.0, y), (y, p)


def test_lambda_trunc_oracle_values():
    for (y, p), wants in oracles.LAMBDA_TRUNC_GEOMDEL.items():
        got = lambda_trunc_geomdel(y, p)
        for g, w in zip(got, wants):
            assert abs(g - w) <= 1e-12 * max(1.0, y), (y, p)


def test_lambda_domain_checks():
    with pytest.raises(ValueError):
        lambda1_sticky(0, 0.3)
    with pytest.raises(ValueError):
        lambdas_duplication(0.5, 0.3)
    with pytest.raises(ValueError):
        lambda_trunc_geomdel(-1, 0.3)
    with pytest.raises(ValueError):
        r_p(0, 0.3)


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("view", (
    lambda1_sticky, lambda2_sticky, g_sticky, lambdas_duplication, g_duplication,
    lambda_trunc_geomdel, r_p,
))
def test_views_reject_non_finite_input(view, bad):
    name = "x" if view is r_p else "y"
    for arg in (bad, np.array([5.0, bad])):
        with pytest.raises(ValueError, match=f"finite {name}"):
            view(arg, 0.3)


@pytest.mark.parametrize("bad_p", (0.0, 1.0, -0.5, 1.5, math.nan))
@pytest.mark.parametrize("view", (
    lambda1_sticky, lambda2_sticky, g_sticky, lambdas_duplication, g_duplication,
    lambda_trunc_geomdel, r_p,
))
def test_views_reject_p_outside_the_unit_interval(view, bad_p):
    with pytest.raises(ValueError, match="p must be in"):
        view(5, bad_p)


@pytest.mark.parametrize("bad_p", (0.0, 1.0, -0.5, 1.5, math.nan))
def test_build_dual_rejects_p_outside_the_unit_interval(bad_p):
    for variant in DualVariant:
        with pytest.raises(ValueError, match="p must be in"):
            build_dual(variant, bad_p, 0.5)


def test_r_p_envelope_takes_every_finite_positive_p():
    # I_p exists for every finite p > 0, and falls as p grows
    for bad_p in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite p > 0"):
            r_p_envelope(bad_p)
    assert 0.0 < r_p_envelope(1.5) < r_p_envelope(1.0) < r_p_envelope(0.5)


def test_dual_rejects_non_integer_y():
    dual = build_dual(DualVariant.GEOMDEL_CONVEXITY, 0.3, 0.5)
    for method in (dual.log_weight, dual.log_pmf):
        for y in ([1.5, 2.7], 2.5, math.nan, [1.0, math.inf]):
            with pytest.raises(ValueError, match="integer y"):
                method(y)
        assert np.array_equal(method([0.0, 1.0, 2.0]), method([0, 1, 2]))
        assert method(3.0) == method(3)


def test_sticky_dual_has_no_mass_at_zero():
    dual = build_dual(DualVariant.STICKY_ZERO_GAP, 0.3, 0.5)
    assert dual.support_start == 1
    assert dual.log_pmf(0) == -math.inf
    lp = dual.log_pmf([0, 1])
    assert lp[0] == -math.inf and lp[1] == dual.log_pmf(1)
    with pytest.raises(ValueError, match="y below the dual's support"):
        dual.log_weight(0)


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


def _sticky_lambdas(y, p):
    return lambda1_sticky(y, p), lambda2_sticky(y, p)


_VIEWS = {
    "sticky": (_sticky_lambdas, DualVariant.STICKY_ZERO_GAP, oracles.LAMBDAS_STICKY_LARGE_Y),
    "duplication": (
        lambdas_duplication,
        DualVariant.DUPLICATION_ZERO_GAP,
        oracles.LAMBDAS_DUPLICATION_LARGE_Y,
    ),
    "trunc": (lambda_trunc_geomdel, DualVariant.GEOMDEL_TRUNCATED, oracles.LAMBDAS_TRUNC_LARGE_Y),
}


@pytest.mark.parametrize("p", (0.3, 0.9))
@pytest.mark.parametrize("name", tuple(_VIEWS))
def test_lambda_views_do_not_depend_on_the_other_ys(name, p):
    # The ys of one view span decades and share one rule, whose first panel
    # follows the largest y (duals._FLOOR_KAPPA) and whose blocks follow
    # their count, so a y's value moves by less than its own tolerance with
    # the other ys that share the call.
    view = _VIEWS[name][0]
    ys = np.array([1.0, 5.0, 100.0, 3000.0, 10000.0])
    if name == "trunc":
        ys = np.concatenate(([0.0], ys))
    together = view(ys, p)
    for i, y in enumerate(ys):
        alone = view(y, p)
        for k, value in enumerate(alone):
            assert abs(together[k][i] - value) <= duals._quad_tol(ys[i:i + 1]), (y, k)


@pytest.mark.parametrize("p", (0.3, 0.9))
@pytest.mark.parametrize("name", tuple(_VIEWS))
def test_large_y_lambdas_match_the_oracles(name, p):
    # Checked independently of the package's quadrature: the Lambda views
    # and the S-table grown unit by unit, as the series grows it, against
    # 50-digit values at y = 1000 (first unit), 3000 and 10000 (later units).
    view, variant, wants = _VIEWS[name]
    ys = np.array([1000.0, 3000.0, 10000.0])
    table = duals._STable(variant, p)
    for ymax in (1024, 4096, 10240):
        table.upto(ymax)
    spec = duals._SPECS[variant]
    got = view(ys, p)
    for i, y in enumerate(ys):
        want = wants[(int(y), p)]
        tol = duals._quad_tol(ys[i:i + 1])
        for k, w in enumerate(want):
            assert abs(got[k][i] - w) <= 1e-12 * y, (y, k)
        s_want = spec.g(ys[i:i + 1], p, [np.array([w]) for w in want]) - spec.drift(ys[i:i + 1], p)
        assert abs(table.upto(10240)[int(y) - 1] - s_want[0]) <= tol, y


def test_r_p_oracle_values():
    for (x, p), want in oracles.R_P.items():
        assert abs(r_p(x, p) - want) <= 1e-10, (x, p)


def test_r_p_small_p_oracle_values():
    # 1 - ratio^x is computed through expm1: at p = 1e-4 the ratio is
    # 1 - O(p), and 1 - ratio**x kept only rounding noise, enough to stop
    # the quadrature of the x = 1..500 scan short of its tolerance
    for p, values in oracles.R_P_SMALL_P.items():
        xs = np.arange(1, 501)
        got = r_p(xs, p)
        for x, want in values.items():
            assert abs(got[x - 1] - want) <= 1e-14, (x, p)


# R_p's reference grid: every T3 p and the extremes on either side.
_R_P_GRID = sorted(
    {row[0] for row in tables.T3_GEOMDEL.rows} | {1e-9, 1e-6, 1e-4, 1e-3, 0.999, 0.9999}
)


def test_r_p_matches_the_adaptive_reference(monkeypatch):
    # The fixed rule against scipy's adaptive quad_vec (x <= 500), and
    # neither r_p nor r_p_envelope goes through numerics.integrate.
    xs = np.arange(1.0, 501.0)
    want = {p: oracles.r_p_adaptive(xs, p) for p in _R_P_GRID}
    envelopes = {p: oracles.i_p_adaptive(p) for p in (0.05, 0.3, 1.5)}

    def no_engine(*args, **kwargs):
        raise AssertionError("r_p called numerics.integrate")

    monkeypatch.setattr(numerics, "integrate", no_engine)
    for p in _R_P_GRID:
        assert np.max(np.abs(r_p(xs, p) - want[p])) <= 1e-13, p
    for p, env in envelopes.items():
        assert abs(r_p_envelope(p) - env) <= 1e-13, p


@pytest.mark.parametrize("p", (1e-9, 1e-3, 0.05, 0.6, 0.99, 0.9999))
def test_r_p_rule_is_resolved(monkeypatch, p):
    # Doubling the panels moves no value at x <= 500 by more than rounding.
    xs = np.arange(1.0, 501.0)
    vals, env = r_p(xs, p), r_p_envelope(p)
    monkeypatch.setattr(duals, "_R_P_PANELS", 2 * duals._R_P_PANELS)
    assert np.max(np.abs(r_p(xs, p) - vals)) <= 1e-14
    assert abs(r_p_envelope(p) - env) <= 1e-14 * env  # I_p ~ 1/(2p) as p -> 0


def test_r_p_decay_and_envelope():
    for p in oracles.I_P_ENVELOPE:
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


def test_kl_divergence_is_inf_where_the_dual_has_no_mass():
    # Y_1 of the sticky channel has mass at every y >= 1; a stub dual with
    # none at y = 2 gives inf, not a number.
    p = 0.4
    channel = RepeatChannel(Family.GEOMETRIC_STICKY, p)

    def log_pmf(ys):
        return np.where(np.asarray(ys) == 2, -math.inf, -1.0)

    stub = SimpleNamespace(variant=DualVariant.STICKY_ZERO_GAP, p=p, log_pmf=log_pmf)
    assert kl_divergence(channel, 1, stub) == math.inf


def test_kl_divergence_nonnegative():
    channel = RepeatChannel(Family.GEOMETRIC_DELETION, 0.5)
    dual = build_dual(DualVariant.GEOMDEL_CONVEXITY, 0.5, 0.7)
    for x in (1, 3, 10):
        assert kl_divergence(channel, x, dual) >= 0.0


def test_kl_divergence_family_mismatch():
    channel = RepeatChannel(Family.GEOMETRIC_STICKY, 0.4)
    dual = build_dual(DualVariant.GEOMDEL_CONVEXITY, 0.4, 0.6)
    with pytest.raises(ValueError, match="does not match channel family"):
        kl_divergence(channel, 1, dual)
    dual = build_dual(DualVariant.STICKY_ZERO_GAP, 0.3, 0.6)
    with pytest.raises(ValueError, match="channel and dual disagree on p"):
        kl_divergence(channel, 1, dual)


@pytest.mark.parametrize("variant, p, x", (
    (DualVariant.GEOMDEL_CONVEXITY, 0.05, 1),
    (DualVariant.STICKY_ZERO_GAP, 0.05, 1),
    (DualVariant.DUPLICATION_ZERO_GAP, 1e-3, 5),
))
def test_kl_divergence_at_small_p(variant, p, x):
    # The window's edges start 8.3 stddev from the mean, where the Chernoff
    # bound on a tail is still above 1e-15 here (the true tail is far
    # smaller); the window widens past them instead of refusing.
    channel = RepeatChannel(duals._VARIANT_FAMILY[variant], p)
    kl = kl_divergence(channel, x, build_dual(variant, p, 0.5))
    assert math.isfinite(kl) and kl >= 0.0


def _check_window_certificates(family, p, x):
    # Each tail that Y_x's support window drops holds at most 1e-15 by its
    # Chernoff certificate, and the certificate is no less than the exact
    # tail mass, summed over mean +- 80 stddev.
    channel = RepeatChannel(family, p)
    law = ConditionalOutputLaw(channel, x)
    xs = np.array([x])
    lo, hi = channels._windows(channel, xs)
    reach = 80.0 * law.stddev
    ys = np.arange(max(0, int(law.mean - reach)), int(law.mean + reach) + 2)
    pmf = np.exp(output_log_pmf(channel, x, ys))
    for side, edge, exact in ((-1, lo, pmf[ys < lo[0]].sum()), (1, hi, pmf[ys > hi[0]].sum())):
        bound = math.exp(channels._log_tail_bound(channel, xs, edge, side)[0][0])
        assert exact <= bound <= channels._TAIL_MASS_TOL, (side, exact, bound)


@pytest.mark.parametrize("family", tuple(Family))
@pytest.mark.parametrize("p", (0.05, 0.3, 0.9, 0.99))
@pytest.mark.parametrize("x", (1, 5, 7, 40, 64, 500))
def test_chernoff_tail_bound_covers_the_exact_tail(family, p, x):
    _check_window_certificates(family, p, x)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(tuple(Family)), st.floats(0.01, 0.995), st.integers(1, 400))
def test_window_certificates_hold_for_any_law(family, p, x):
    _check_window_certificates(family, p, x)


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


def _gap_cases():
    for variant in DualVariant:
        deletion = variant in duals._DELETION_VARIANTS
        for p in (0.3, 0.6):
            for delta in ((0.3, 1.0 - p, 1.0) if deletion else (1.0,)):
                yield pytest.param(variant, p, delta, id=f"{variant.value}-{p}-{delta:.2g}")


@pytest.mark.parametrize("variant, p, delta", _gap_cases())
def test_gap_profile_matches_the_direct_kl_sum(variant, p, delta):
    # The profile is the q-free gap scan under the delta rule; the direct
    # route sums D_KL(Y_x || dual) over Y_x's support for a built dual.
    channel = RepeatChannel(duals._VARIANT_FAMILY[variant], p)
    dual = build_dual(variant, p, 0.6, delta=delta)
    profile = kl_gap_profile(channel, dual, 20)
    for x in range(1, 21):
        direct = (
            profile.line_intercept
            + profile.line_slope * ConditionalOutputLaw(channel, x).mean
            - kl_divergence(channel, x, dual)
        )
        assert abs(profile.gaps[x] - direct) <= 1e-9, x


def test_gap_profile_does_not_sum_the_kl(monkeypatch):
    def refuse(*args):
        raise AssertionError("kl_divergence called")

    monkeypatch.setattr(duals, "kl_divergence", refuse)
    channel = RepeatChannel(Family.GEOMETRIC_DELETION, 0.6)
    dual = build_dual(DualVariant.GEOMDEL_CONVEXITY, 0.6, 0.7, delta=0.5)
    profile = kl_gap_profile(channel, dual, 30)
    assert len(profile.gaps) == 30
    assert epsilon_inf(channel, dual, 30) == min(
        min(profile.gaps.values()), profile.limit_candidate
    )


def _wide_support(channel, x):
    # The support rule before the certified windows: from the support floor
    # to 40 stddev above the mean, doubled (within the support) until a
    # Chernoff bound on the upper tail clears 1e-12.
    law = ConditionalOutputLaw(channel, x)
    lo, top = law.support
    hi = int(min(top, math.ceil(law.mean + 40.0 * law.stddev)))
    while channels._log_tail_bound(channel, np.array([x]), np.array([hi]), 1)[0][0] > math.log(1e-12):
        hi = int(min(2 * hi, top))
    return np.arange(lo, hi + 1)


def _per_x_gaps(variant, p, x_max, support):
    # The module docstring's identity, summed by a plain loop that calls
    # output_log_pmf, which calls the package's log-gamma per x, on each x's
    # support(channel, x).
    channel = RepeatChannel(duals._VARIANT_FAMILY[variant], p)
    table = duals._get_table(variant, p)
    shift = duals._SPECS[variant].weight_shift(p)
    gaps = []
    for x in range(1, x_max + 1):
        ys = support(channel, x)
        lp = output_log_pmf(channel, x, ys)
        pm = np.exp(lp)
        k = int(ys[0] == 0)
        gap = -float(np.sum(pm * lp)) + float(np.sum(pm[k:] * table.upto(int(ys[-1]))[ys[k] - 1:]))
        if shift:
            gap += shift * float(np.sum(pm[k:]))
        gaps.append(gap)
    return gaps


@pytest.mark.parametrize("variant", list(DualVariant))
@pytest.mark.parametrize("p", (0.3, 0.9))
def test_gap_scan_equals_the_per_x_scipy_loop(variant, p):
    # The summed scan reads slices of one shared log-gamma array; the plain
    # loop over the same windows, calling log-gamma per x, gives the same
    # floats.  The convexity weights' gap is the integral, which the sums
    # hold to their own rounding.
    def window(channel, x):
        return ConditionalOutputLaw(channel, x).truncated_support()

    want = _per_x_gaps(variant, p, 60, window)
    assert duals._summed_gap_scan(variant, p, 60).tolist() == want
    if variant in (DualVariant.GEOMDEL_CONVEXITY, DualVariant.INVERSE_BINOMIAL):
        assert np.max(np.abs(duals.gap_scan(variant, p, 60) - want)) <= 1e-12
    else:
        assert duals.gap_scan(variant, p, 60).tolist() == want


@pytest.mark.parametrize("variant, p, x_max", [
    *((v, p, 60) for v in DualVariant for p in (0.3, 0.9)),
    (DualVariant.GEOMDEL_CONVEXITY, 0.99, 500),
])
def test_gap_scan_matches_the_wide_support_reference(variant, p, x_max):
    # The windows drop nothing the wide support keeps: the summed scan,
    # for every variant, on the windows against the wide support.
    want = _per_x_gaps(variant, p, x_max, _wide_support)
    assert np.max(np.abs(duals._summed_gap_scan(variant, p, x_max) - want)) <= 1e-12


def _window_points() -> np.ndarray:
    # The points of the deletion law's windows at p = 0.99, x = 1..500.
    lo, hi = channels._windows(RepeatChannel(Family.GEOMETRIC_DELETION, 0.99), np.arange(1, 501))
    return hi - lo + 1


def test_deletion_windows_cost_in_support_points():
    # A count-based cost guard: the windows of Y_x at p = 0.99, x <= 500,
    # hold at most 16e6 points (the 40-stddev support held 42.1e6).
    points = _window_points()
    assert points.size == 500 and points.sum() <= 16_000_000


def test_windows_are_pulled_in_to_the_certified_edges():
    # Newton steps from the certified side pull each edge in: the windows of
    # Y_x at p = 0.99, x <= 500, hold at most 12.7e6 points (12.48e6 at
    # the tightest certified edges, 13.5e6 when edges only moved outward).
    assert _window_points().sum() <= 12_700_000


@pytest.mark.parametrize("p", sorted(oracles.CONV_GAP))
def test_convexity_gap_matches_the_mpmath_direct_sums(p):
    # The integral against 30-digit sums over the support, which share no
    # step with it; it reaches about 2e-14 at p = 0.999.
    gaps = convexity_gap_scan(p, 500)
    for x, want in oracles.CONV_GAP[p].items():
        assert abs(gaps[x - 1] - want) <= 1e-13, x


@pytest.mark.parametrize("p", (0.05, 0.3, 0.6, 0.9, 0.99, 0.999))
def test_convexity_gap_rule_is_resolved(monkeypatch, p):
    # Doubling the panels moves no gap at x <= 7 by more than rounding.
    gaps = convexity_gap_scan(p, 7)
    monkeypatch.setattr(duals, "_CONV_PANELS", 2 * duals._CONV_PANELS)
    monkeypatch.setattr(duals, "_CONV_TAIL_PANELS", 2 * duals._CONV_TAIL_PANELS)
    assert np.max(np.abs(convexity_gap_scan(p, 7) - gaps)) <= 1e-13


class _CountedNumpy:
    """numpy for duals, recording the values of every exp and expm1 call and
    the largest array any exp, expm1 or einsum call takes or returns."""

    def __init__(self):
        self.values = []
        self.largest = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def _seen(self, *arrays):
        self.largest = max([self.largest] + [np.size(a) for a in arrays])

    def exp(self, a, *args, **kwargs):
        out = np.exp(a, *args, **kwargs)
        self.values.append(np.size(a))
        self._seen(a, out)
        return out

    def expm1(self, a, *args, **kwargs):
        out = np.expm1(a, *args, **kwargs)
        self.values.append(np.size(a))
        self._seen(a, out)
        return out

    def einsum(self, spec, *operands, **kwargs):
        out = np.einsum(spec, *operands, **kwargs)
        self._seen(*operands, out)
        return out


def test_convexity_gap_cost_in_exponential_rows(monkeypatch):
    # A count-based cost guard: convexity_gap_scan(p, 500) takes each of its
    # ten exponential factors (five for each of its two terms) at no more
    # than 16 + 32 rows of its 288 nodes, never at an (x, node) grid (a
    # per-x kernel takes four factors at 500 rows); no exp, expm1 or einsum
    # array holds more than 2^14 values (128 kB); it reads no window.
    counted = _CountedNumpy()

    def no_window(*args):
        raise AssertionError("the convexity gap read a support window")

    monkeypatch.setattr(duals, "np", counted)
    monkeypatch.setattr(channels, "_windows", no_window)
    convexity_gap_scan(0.999, 500)
    assert max(counted.values) <= 48 * 288
    assert sum(counted.values) <= 10 * 48 * 288
    assert counted.largest <= 1 << 14


def _direct_gap(cols, xs):
    # The per-x kernel in blocks of at most 2^14 (x, node) values.
    step = max(1, (1 << 14) // cols.shape[1])
    return np.concatenate([oracles.gap_direct(cols, xs[i:i + step])
                           for i in range(0, xs.size, step)])


def _r_p_columns(p):
    v, w, t = duals._r_p_nodes(p)
    return np.stack((-v, np.log1p(-p * t / (1.0 - p * np.exp(-v))), w))


# Real x on both sides of the split x = h + l at h = 0, 32 and 480, and past
# the scans.
_ODD_X = np.array([1.5, 31.999, 32.0, 32.5, 499.25, 1000.5])


@pytest.mark.parametrize("p", sorted({row[0] for row in tables.T3_GEOMDEL.rows} | {1e-9, 1e-3, 0.9999}))
def test_r_p_matches_the_direct_kernel(p):
    # The factored kernel against the per-x one on the same rule, at every
    # integer x <= 20 000 and at real x, within 1e-13 relative where R_p is
    # above the subnormal range (past it both are noise or 0).
    xs = np.concatenate((np.arange(1.0, 20001.0), _ODD_X))
    want = _direct_gap(_r_p_columns(p), xs)
    got = r_p(xs, p)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want) + 1e-290)


@pytest.mark.parametrize("p", (0.05, 0.3, 0.6, 0.9, 0.99, 0.999))
def test_convexity_gap_matches_the_direct_kernel(p):
    # The factored kernel against the per-x one on the same rule, at every
    # integer x <= 500 (the scan) and at real x (the kernel itself).
    cols = duals._conv_columns(p)
    xs = np.arange(1.0, 501.0)
    assert np.max(np.abs(convexity_gap_scan(p, 500) - _direct_gap(cols, xs))) <= 1e-13
    assert np.max(np.abs(duals._gap_integral(cols, _ODD_X) - _direct_gap(cols, _ODD_X))) <= 1e-13


def test_gap_scans_hold_no_x_by_node_grid():
    # 200 000 values of x: the output is 1.6 MB, one h-table at this x_max
    # would be 14 MB per factor and an (x, node) grid 460 MB.  Traced peaks:
    # 5.0 MB (conv) and 6.4 MB (r_p); the per-x kernel, in blocks of 2^14
    # (x, node) values, peaked at 3.7 MB and 5.2 MB.
    for call in (lambda: convexity_gap_scan(0.5, 200_000),
                 lambda: r_p(np.arange(1, 200_001), 0.5)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 << 20


def test_convexity_gap_does_not_depend_on_x_max():
    # Each x's value is summed alone, so the delta rule's scan of x = 1 and
    # the bound's scan of x <= 500 agree bit for bit; r_p's too.
    assert convexity_gap_scan(0.9, 1)[0] == convexity_gap_scan(0.9, 500)[0]
    assert convexity_gap_scan(0.9, 200).tolist() == convexity_gap_scan(0.9, 500)[:200].tolist()
    for p in (1e-3, 0.9):
        assert r_p(1, p) == r_p(np.arange(1, 501), p)[0]
        assert r_p(np.arange(1, 201), p).tolist() == r_p(np.arange(1, 501), p)[:200].tolist()


def test_gap_bits_do_not_depend_on_the_blas_thread_count():
    # No gap path calls BLAS, whose dots split across threads: one and two
    # OpenBLAS threads give the same bytes.
    script = (
        "import sys\n"
        "from repeatcap import duals\n"
        "a = duals.gap_scan(duals.DualVariant.STICKY_ZERO_GAP, 0.99, 200)\n"
        "b = duals.convexity_gap_scan(0.99, 500)\n"
        "c = duals.r_p(range(1, 501), 0.99)\n"
        "sys.stdout.write((a.tobytes() + b.tobytes() + c.tobytes()).hex())\n"
    )
    src = str(pathlib.Path(duals.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        out.append(run.stdout)
    assert len(out[0]) == 2 * 8 * 1200 and out[0] == out[1]


@pytest.mark.parametrize("x_max", (True, 2.5, 0))
def test_gap_views_reject_a_bad_x_max(x_max):
    channel = RepeatChannel(Family.GEOMETRIC_DELETION, 0.6)
    dual = build_dual(DualVariant.GEOMDEL_CONVEXITY, 0.6, 0.7)
    with pytest.raises(ValueError, match="x_max"):
        duals.gap_scan(DualVariant.GEOMDEL_CONVEXITY, 0.6, x_max)
    with pytest.raises(ValueError, match="x_max"):
        kl_gap_profile(channel, dual, x_max)
    with pytest.raises(ValueError, match="x_max"):
        epsilon_inf(channel, dual, x_max)


def test_convexity_gap_at_half_exceeds_limit():
    gaps = convexity_gap_scan(0.5, 10)
    assert gaps[0] > 0.5
    assert abs(gaps[0] - oracles.EPSILON_CONV_HALF) <= 1e-12


def test_convexity_scan_matches_direct_kl():
    # The integral against kl_divergence, two code paths: the bound line
    # minus the KL summed over the window of Y_x against a built dual.
    p, q = 0.6, 0.9
    channel = RepeatChannel(Family.GEOMETRIC_DELETION, p)
    dual = build_dual(DualVariant.GEOMDEL_CONVEXITY, p, q)
    scan = convexity_gap_scan(p, 30)
    for x in (1, 7, 30):
        direct = (
            dual.log_normalizer
            - math.log(q) * ConditionalOutputLaw(channel, x).mean
            - kl_divergence(channel, x, dual)
        )
        assert abs(scan[x - 1] - direct) <= 1e-12, x


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
@pytest.mark.parametrize("p", (1e-3, 0.3, 0.9, 0.999))
def test_integrand_limit_meets_the_direct_form_at_the_switch(variant, p):
    # The t -> 0 limit acts only below v (1 + y |c1|) = _LIMIT_VC, too close
    # to 0 for any Lambda value to see a wrong c2.  Just below the switch
    # (the limit) and just above it (the direct form) the integrand must
    # agree.  With m = 1 + y max(1, |c1|), the direct form's rounding noise
    # there is about eps m^2 / _LIMIT_VC ~ 1e-8 m^2 and its distance from the
    # limit about _LIMIT_VC m^2, so 1e-6 m^2 holds both, and a c2 off by a
    # relative 1e-3 breaks it.
    for key, base in enumerate(duals._SPECS[variant].bases(p)):
        for y in (1.0, 2.0, 7.0, 100.0):
            switch = numerics._LIMIT_VC / (1.0 + y * abs(base.c1))
            below, above = (
                numerics._f(np.array([y]), v, [base])[0, 0, 0]
                for v in np.array([[[1.0 - 1e-6]], [[1.0 + 1e-6]]]) * switch
            )
            m = 1.0 + y * max(1.0, abs(base.c1))
            assert abs(below - above) <= 1e-6 * m * m, (key, y, below, above)


@pytest.mark.parametrize("variant", _QUADRATURE_VARIANTS)
@pytest.mark.parametrize("p", (0.3, 0.9))
def test_s_table_batched_matches_per_node(monkeypatch, variant, p):
    # The unit y = 1025..2048 starts its rule's log panels at v = 1e-9 and so
    # reaches nodes below _LIMIT_VC, where the Taylor limits blend in (the
    # first unit's floored rule stops short of them).  Both routes must give the
    # same bits over both units, build after build.
    batched = [duals._STable(variant, p).upto(2048).copy() for _ in range(2)]
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
    reference = duals._STable(variant, p).upto(2048)
    assert min(nodes) < numerics._LIMIT_VC
    assert np.array_equal(batched[0], reference)


@pytest.mark.parametrize("variant", _QUADRATURE_VARIANTS)
@pytest.mark.parametrize("p", (1e-3, 0.3, 0.9, 0.99))
def test_one_pass_integrand_matches_the_per_key_reference(monkeypatch, variant, p):
    # numerics._f takes every key of a block in one pass and shares each
    # node's t and e^-v / (t v) among them; the per-key integrand stacked
    # key by key (oracles) must give the same bits.  The first unit, and
    # the unit (1024, 2048], whose rule starts at v = 1e-9 and so reaches
    # the Taylor limit below _LIMIT_VC.
    table = duals._STable(variant, p)
    units = (np.arange(1.0, 1025.0), np.arange(1025.0, 2049.0))
    fused = [table._compute(ys) for ys in units]
    nodes = []

    def per_key(ys, v, bases):
        nodes.extend(v[:, 0])
        return oracles.lambda_integrand_stacked(ys, v, bases)

    monkeypatch.setattr(duals, "_f", per_key)
    for ys, got in zip(units, fused):
        assert np.array_equal(got, table._compute(ys))
    assert min(nodes) < numerics._LIMIT_VC


@pytest.mark.parametrize("variant", (DualVariant.STICKY_ZERO_GAP, DualVariant.DUPLICATION_ZERO_GAP))
@pytest.mark.parametrize("p", (0.3, 0.9))
def test_one_pass_integrand_takes_each_node_factor_once(monkeypatch, variant, p):
    # One sticky or duplication first unit: each node's t = 1 - e^-v and
    # e^-v are taken once per block for all keys, and the bases read that t,
    # so there is one expm1 and one exp call per node; taken per key, they
    # would be 2 and 1 per key.  integrate reads finiteness off each block's
    # weighted sum, one value per (key, y), and scans no block of integrand
    # values while every sum is finite.
    calls = {"expm1": 0, "exp": 0}

    class CountingMath:
        def __getattr__(self, name):
            fn = getattr(math, name)
            if name not in calls:
                return fn

            def counted(x):
                calls[name] += 1
                return fn(x)

            return counted

    monkeypatch.setattr(numerics, "math", CountingMath())
    monkeypatch.setattr(duals, "math", CountingMath())
    integrate, nodes, sums = numerics.integrate, [], []

    def counted(problem):
        nodes.append(problem.nodes.size)
        total = integrate(problem)
        sums.append(total.size)
        return total

    monkeypatch.setattr(numerics, "integrate", counted)
    isfinite, checked = np.isfinite, []
    monkeypatch.setattr(np, "isfinite", lambda x: (checked.append(np.size(x)), isfinite(x))[1])
    duals._STable(variant, p)._compute(np.arange(1.0, 1025.0))
    assert calls["expm1"] <= sum(nodes), (calls, nodes)
    assert calls["exp"] <= sum(nodes), (calls, nodes)
    assert checked and max(checked) <= max(sums), (max(checked), sums)


@pytest.mark.parametrize("variant", _QUADRATURE_VARIANTS)
def test_bases_are_built_once_per_quadrature_call(monkeypatch, variant):
    # A first unit integrates its bases over several blocks of nodes; the
    # bases are data built once per (variant, p), not once per block.
    spec, built, integrate, blocks = duals._SPECS[variant], [], numerics.integrate, []

    def bases(p):
        built.append(p)
        return spec.bases(p)

    def counted(problem):
        blocks.append(-(-problem.nodes.size // problem.block))
        return integrate(problem)

    monkeypatch.setitem(duals._SPECS, variant, dataclasses.replace(spec, bases=bases))
    monkeypatch.setattr(numerics, "integrate", counted)
    duals._STable(variant, 0.3).upto(1024)
    assert built == [0.3] and len(blocks) == 1 and blocks[0] > 1, (built, blocks)


@pytest.mark.parametrize("variant", _QUADRATURE_VARIANTS)
@pytest.mark.parametrize("p", (0.3, 0.9))
def test_s_table_block_is_one_quadrature_call(monkeypatch, variant, p):
    # The first unit spans six scale chunks; they share one call over one
    # rule, not one call each.  Its integrand calls take the nodes in blocks
    # of at most duals._BATCH_VALUES values, which here hold more than 32
    # nodes each, so calls are at most half the 16-node panels, rounded up.
    # The unit's rule starts its log panels at its own floor
    # (duals._FLOOR_KAPPA), which holds it to 23 panels for sticky and
    # duplication and 39 for trunc; from v = 1e-9 they take 40 and 60.
    integrate = numerics.integrate
    panels, calls = [], []

    def counted(problem, **kwargs):
        inner = problem.integrand
        panels.append(0)
        calls.append(0)

        def per_block(t):
            out = inner(t)
            assert out.size <= duals._BATCH_VALUES
            panels[-1] += len(t) / 16
            calls[-1] += 1
            return out

        return integrate(dataclasses.replace(problem, integrand=per_block), **kwargs)

    monkeypatch.setattr(numerics, "integrate", counted)
    duals._STable(variant, p).upto(1024)
    assert len(panels) == 1 and panels[0] <= 40, panels
    assert 2 * calls[0] <= panels[0] + 1 and calls[0] <= 32, (calls, panels)


@pytest.mark.parametrize("variant", _QUADRATURE_VARIANTS)
@pytest.mark.parametrize("p", (1e-3, 0.05, 0.5, 0.99))
def test_first_unit_seed_floor_keeps_values_within_tolerance(monkeypatch, variant, p):
    # The first unit starts its rule's log panels at v = _FLOOR_KAPPA /
    # (y_max (1 + max |c1|)); with the constant 0 they start at 1e-9.  Its
    # values move by well under its quadrature tolerance, and the units past
    # it, which start at 1e-9 either way, do not move at all.
    floored = duals._STable(variant, p).upto(8192).copy()
    monkeypatch.setattr(duals, "_FLOOR_KAPPA", 0.0)
    reference = duals._STable(variant, p).upto(8192)
    ys = np.arange(1.0, 1025.0)
    tol = np.array([duals._quad_tol(ys[i : i + 1]) for i in range(ys.size)])
    drift = np.abs(floored[:1024] - reference[:1024])
    assert np.all(drift <= tol / 4.0), float((drift / tol).max())
    assert np.array_equal(floored[1024:], reference[1024:])


def _one_panel_per_call(monkeypatch) -> list[int]:
    # Sets numerics.integrate to a wrapper that hands the integrand 16 nodes
    # (one panel) per call; returns the row counts of the sum's calls.
    integrate = numerics.integrate
    rows = []

    def per_panel(problem, **kwargs):
        inner = problem.integrand

        def split(t):
            rows.append(len(t))
            return np.concatenate([inner(t[i : i + 16]) for i in range(0, len(t), 16)])

        return integrate(dataclasses.replace(problem, integrand=split), **kwargs)

    monkeypatch.setattr(numerics, "integrate", per_panel)
    return rows


@pytest.mark.parametrize("z", (0.5, 7.0, 100.0))
def test_log_gamma_via_integral_batched_matches_one_panel_per_call(monkeypatch, z):
    batched = numerics.log_gamma_via_integral(z)
    rows = _one_panel_per_call(monkeypatch)
    assert numerics.log_gamma_via_integral(z) == batched
    assert max(rows) > 16


@pytest.mark.parametrize(
    "variant, p",
    ((DualVariant.STICKY_ZERO_GAP, 0.999), (DualVariant.STICKY_ZERO_GAP, 0.9999),
     (DualVariant.DUPLICATION_ZERO_GAP, 0.999)),
)
def test_s_table_rule_is_resolved(monkeypatch, variant, p):
    # The fixed rule has no error estimate of its own; in its place, S up
    # to y = 16 384 is within a tenth of _quad_tol of the same rule with
    # panels a quarter as wide in log v.  Sticky near p = 1, whose phi1
    # turns at v ~ log(1/(1-p)), is the hardest case: panels of 0.96
    # instead of 0.64 miss it by up to 14x at p = 0.9999.
    ys = np.arange(1.0, 16385.0)
    tol = 1e-11 * ys  # _quad_tol([y]) / 10
    table = duals._STable(variant, p).upto(ys.size).copy()
    monkeypatch.setattr(numerics, "_PANEL_DU", numerics._PANEL_DU / 4.0)
    fine = duals._STable(variant, p).upto(ys.size)
    assert np.all(np.abs(table - fine) <= tol), float(np.max(np.abs(table - fine) / tol))


@pytest.mark.parametrize("variant", _QUADRATURE_VARIANTS)
@pytest.mark.parametrize("p", (1e-3, 0.999))
def test_s_table_builds_at_extreme_p(variant, p):
    # The quadrature substitutes nothing for a non-finite integrand row, so
    # every integrand must hold its own t -> 0 limit at extreme p too.
    assert np.all(np.isfinite(duals._STable(variant, p).upto(1024)))


@pytest.mark.parametrize("p", (1e-5, 0.999))
def test_r_p_and_envelope_at_extreme_p(p):
    vals = r_p(np.arange(1, 501), p)
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
    envelope = r_p_envelope(p)
    assert math.isfinite(envelope) and envelope > vals[0]


def test_s_table_growth_path_is_exact():
    one_call = duals._STable(DualVariant.STICKY_ZERO_GAP, 0.9).upto(20000)
    stepped = duals._STable(DualVariant.STICKY_ZERO_GAP, 0.9)
    for ymax in range(4097, 20000, 4097):
        stepped.upto(ymax)
    assert np.array_equal(stepped.upto(20000), one_call)


_ONE_SHOT: dict = {}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from((DualVariant.STICKY_ZERO_GAP, DualVariant.DUPLICATION_ZERO_GAP,
                     DualVariant.GEOMDEL_TRUNCATED, DualVariant.GEOMDEL_CONVEXITY)),
    st.sampled_from((1e-3, 0.3, 0.9, 0.999)),
    st.lists(st.integers(1, 20480), min_size=1, max_size=5),
)
def test_s_table_values_do_not_depend_on_growth_order(variant, p, sizes):
    # Every S value is a function of (variant, p, y): a table grown by any
    # sequence of requests reads the bits of one grown in a single request.
    key = (variant, p)
    if key not in _ONE_SHOT:
        _ONE_SHOT[key] = duals._STable(variant, p).upto(20480)
    table = duals._STable(variant, p)
    for ymax in sizes:
        assert np.array_equal(table.upto(ymax), _ONE_SHOT[key][:ymax]), ymax


def test_bound_does_not_depend_on_what_grew_its_table_first():
    sticky = DualVariant.STICKY_ZERO_GAP
    prepare = {
        "cold": lambda: None,
        "after a gap scan": lambda: duals.gap_scan(sticky, 0.999, 500),
        "after growth to 200 000": lambda: duals._get_table(sticky, 0.999).upto(200_000),
    }
    bits = {}
    for name, step in prepare.items():
        duals.clear_caches()
        step()
        bits[name] = bounds.compute_bound(Family.GEOMETRIC_STICKY, None, 0.999).bound_bits
    assert len(set(bits.values())) == 1, bits


def _integrand_widths(monkeypatch) -> list[list[int]]:
    # Per numerics.integrate call, the number of y of each integrand call.
    integrate = numerics.integrate
    calls = []

    def counted(problem, **kwargs):
        inner = problem.integrand
        calls.append([])

        def recorded(v):
            out = inner(v)
            calls[-1].append(out.shape[-1])
            return out

        return integrate(dataclasses.replace(problem, integrand=recorded), **kwargs)

    monkeypatch.setattr(numerics, "integrate", counted)
    return calls


def _direct_s(variant, ys, p):
    spec = duals._SPECS[variant]
    lam = duals._lambdas(spec, ys, p, spec.bases(p))
    return spec.g(ys, p, lam) - spec.drift(ys, p)


def _assert_within_chunk_tolerance(got, want, ys):
    start = 0
    for chunk in duals._scale_chunks(ys):
        diff = np.max(np.abs(got[start:start + chunk.size] - want[start:start + chunk.size]))
        assert diff <= duals._quad_tol(chunk), (chunk[0], diff / duals._quad_tol(chunk))
        start += chunk.size


@pytest.mark.parametrize("variant", _QUADRATURE_VARIANTS)
@pytest.mark.parametrize("p", (1e-3, 0.05, 0.3, 0.9, 0.999))
@pytest.mark.parametrize("unit", ((1, 1024), (8193, 16384)))
def test_interpolated_s_table_matches_the_direct_lambdas(monkeypatch, variant, p, unit):
    # The first lattice unit and the unit (8192, 16384], built from
    # Chebyshev nodes, against quadrature at every y, chunk by chunk within
    # _quad_tol.
    ys = np.arange(unit[0], unit[1] + 1, dtype=float)
    want = _direct_s(variant, ys, p)
    calls = _integrand_widths(monkeypatch)
    got = duals._STable(variant, p)._compute(ys)
    _assert_within_chunk_tolerance(got, want, ys)
    # One call sees every y of the small chunks and at most _CHEB_NODES per
    # class of the others; only trunc at p = 1e-3 needs a second call.
    sizes = [chunk.size for chunk in duals._scale_chunks(ys)]
    small = [n for n in sizes if n <= 4 * duals._CHEB_NODES]
    nodes = 2 * duals._CHEB_NODES * (len(sizes) - len(small))
    assert max(calls[0]) <= sum(small) + nodes
    assert len(calls) == 1 or (variant is DualVariant.GEOMDEL_TRUNCATED and p == 1e-3)


def test_failing_interpolation_classes_are_integrated_directly(monkeypatch):
    # Truncated deletion at p = 1e-3 is not resolved by 24 nodes on the
    # chunks [64, 256) and [256, 1024): those classes fail their error
    # estimate and take a second call at all their y.
    ys = np.arange(1.0, 1025.0)
    want = _direct_s(DualVariant.GEOMDEL_TRUNCATED, ys, 1e-3)
    calls = _integrand_widths(monkeypatch)
    got = duals._STable(DualVariant.GEOMDEL_TRUNCATED, 1e-3)._compute(ys)
    assert len(calls) == 2 and set(calls[1]) == {1024 - 64}
    _assert_within_chunk_tolerance(got, want, ys)


def test_s_table_integrand_calls_stay_narrow(monkeypatch):
    # A count-based cost guard: a table grown to y = 20 000 is built as the
    # six lattice units up to 32 768, one quadrature call each, and sampling
    # the chunks at Chebyshev nodes keeps every integrand call under 200 y.
    calls = _integrand_widths(monkeypatch)
    duals._STable(DualVariant.STICKY_ZERO_GAP, 0.9).upto(20000)
    assert len(calls) == 6 and max(max(c) for c in calls) <= 200, calls


def test_s_table_growth_computes_once_per_unit(monkeypatch):
    # A cost guard: the series of a cold sticky bound at p = 0.9999 reads
    # past y = 10^6, and its table of Y entries takes one _compute call per
    # lattice unit, 1 + log2(Y / 1024) of them.
    compute = duals._STable._compute
    calls = []

    def counted(self, ys):
        calls.append(ys.size)
        return compute(self, ys)

    monkeypatch.setattr(duals._STable, "_compute", counted)
    duals.clear_caches()
    bounds.compute_bound(Family.GEOMETRIC_STICKY, None, 0.9999)
    size = duals._TABLES[(DualVariant.STICKY_ZERO_GAP, 0.9999)]._vals.size
    assert size > 10**6
    assert len(calls) <= 1 + math.ceil(math.log2(size / 1024)), calls


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
    bounds._gap_scan(DualVariant.GEOMDEL_CONVEXITY, 0.5)
    assert bounds._DELTA_SCANS
    duals.clear_caches()
    assert not bounds._DELTA_SCANS
    assert not duals._TABLES


def test_memo_gives_every_caller_the_first_value_stored():
    # _memo takes no lock, so racing callers may each build; all of them
    # must get the one value the store keeps.
    def build():
        return [object() for _ in range(200)]

    for _ in range(20):
        store, results = {}, []
        start = threading.Barrier(8)

        def worker():
            start.wait(timeout=10)
            results.append(duals._memo(store, "key", build))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        assert all(r is store["key"] for r in results)


@pytest.mark.parametrize("variant, p", (
    (DualVariant.STICKY_ZERO_GAP, 0.3),
    (DualVariant.GEOMDEL_TRUNCATED, 0.6),  # even and odd interpolation classes
))
def test_s_table_grown_from_racing_threads_matches_one_grown_alone(variant, p):
    # upto takes no lock: racing growths may store tables of any length in
    # any order, but each caller must get its full prefix of the same bits.
    alone = duals._STable(variant, p).upto(4096)
    table, sizes = duals._STable(variant, p), (1, 1024, 1025, 2048, 3000, 4096) * 2
    start, results = threading.Barrier(len(sizes)), []

    def worker(size):
        start.wait(timeout=10)
        results.append((size, table.upto(size)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in sizes]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(n for n, _ in results) == sorted(sizes)
    for size, got in results:
        np.testing.assert_array_equal(got, alone[:size], strict=True)
    np.testing.assert_array_equal(table.upto(4096), alone, strict=True)
