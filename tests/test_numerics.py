"""Quadrature, special functions, series summation, concave maximization."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeatcap import bounds, numerics
from repeatcap.bounds import BoundVariant
from repeatcap.duals import build_dual, r_p_envelope
from repeatcap.numerics import (
    OptimizeResult,
    QuadratureError,
    QuadratureProblem,
    binary_entropy,
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


def test_log_gamma_rejects_nan():
    with pytest.raises(ValueError):
        log_gamma(math.nan)
    with pytest.raises(ValueError):
        log_gamma(np.array([1.0, math.nan]))


def test_log_gamma_via_integral_rejects_non_finite():
    for z in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValueError, match="finite z >= 0"):
            log_gamma_via_integral(z)


def test_log_gamma_via_integral_to_1e_13():
    # from tiny to large z, across the Taylor crossover in v (1 + z)
    for z in (1e-6, 0.1, 20.0, 100.0):
        assert abs(log_gamma_via_integral(z) - log_gamma(1.0 + z)) <= 1e-13, z


def test_log_gamma_via_integral_trivial_zeros():
    assert abs(log_gamma_via_integral(0.0)) <= 1e-10
    assert abs(log_gamma_via_integral(1.0)) <= 1e-10


def test_log_gamma_via_integral_matches_direct():
    for z in (0.1, 0.5, 1.0, 2.5, 7.0, 20.0):
        assert abs(log_gamma_via_integral(z) - log_gamma(1.0 + z)) <= 1e-8


def test_log_gamma_via_integral_matches_the_per_key_integrand(monkeypatch):
    # Its one base through numerics._f's one pass and through the per-key
    # reference integrand give the same bits.
    zs = (1e-3, 0.5, 3.5, 100.0)
    fused = [log_gamma_via_integral(z) for z in zs]
    monkeypatch.setattr(numerics, "_f", oracles.lambda_integrand_stacked)
    assert fused == [log_gamma_via_integral(z) for z in zs]


def test_log_gamma_via_integral_frozen_value():
    assert abs(log_gamma_via_integral(3.5) - oracles.LOG_GAMMA_4_5) <= 1e-8


def test_binary_entropy():
    assert abs(binary_entropy(0.5) - math.log(2.0)) <= 1e-14
    assert abs(binary_entropy(0.25) - oracles.BINARY_ENTROPY_QUARTER) <= 1e-14
    assert abs(binary_entropy(1e-12)) <= 1e-10  # continuity toward 0
    for p in (0.0, 1.0, 1.2):
        with pytest.raises(ValueError):
            binary_entropy(p)


def test_log_integral_li():
    assert abs(log_integral_li(0.5) - oracles.LI_HALF) <= 1e-10
    assert abs(log_integral_li(1.0 / 3.0) - oracles.LI_THIRD) <= 1e-10
    assert log_integral_li(1.0 / 3.0) < 0.0
    assert abs(log_integral_li(1e-9)) <= 1e-8
    with pytest.raises(ValueError):
        log_integral_li(0.0)
    with pytest.raises(ValueError):
        log_integral_li(1.0)


# log Gamma's oracle tolerance: 1e-14 * max(1, |log Gamma(x)|)
_LGAMMA_TOL = 1e-14


def _lgamma_mpmath(xs):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return np.array([float(mpmath.loggamma(mpmath.mpf(float(x)))) for x in xs])


def _lgamma_at_integers(top: int) -> np.ndarray:
    # log Gamma(n) for n = 1..top: 40-digit mpmath at every 16th n, and the
    # recurrence's log k summed in long double within each block of 16
    mpmath = pytest.importorskip("mpmath")
    n = np.arange(1, top + 1).astype(np.longdouble).reshape(-1, 16)
    with mpmath.workdps(40):
        anchors = np.array([np.longdouble(mpmath.nstr(mpmath.loggamma(int(a)), 30)) for a in n[:, 0]])
    steps = np.cumsum(np.log(n[:, :-1]), axis=1)
    return np.concatenate((anchors[:, None], anchors[:, None] + steps), axis=1).ravel()


def _worst_lgamma_error(got, want) -> float:
    want = np.asarray(want, dtype=np.longdouble)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


@pytest.mark.parametrize("xs", [
    np.geomspace(1e-6, 1e7, 1500),
    np.linspace(0.5, 3.5, 1501),
], ids=["geometric", "dense"])
def test_lgamma_kernel_matches_mpmath(xs):
    assert _worst_lgamma_error(numerics._lgamma(xs), _lgamma_mpmath(xs)) <= _LGAMMA_TOL


def test_lgamma_kernel_matches_mpmath_at_every_integer():
    top = 200_000
    got = numerics._lgamma(np.arange(1, top + 1, dtype=float))
    assert _worst_lgamma_error(got, _lgamma_at_integers(top)) <= _LGAMMA_TOL


def test_lgamma_kernel_matches_scipy():
    # scipy is not a runtime dependency; its gammaln stays an independent
    # oracle here
    gammaln = pytest.importorskip("scipy.special").gammaln
    xs = np.concatenate((np.geomspace(1e-6, 1e7, 4000), np.linspace(0.5, 3.5, 3001),
                         np.arange(1.0, 20_001.0)))
    want = gammaln(xs)
    assert np.max(np.abs(numerics._lgamma(xs) - want) / np.maximum(1.0, np.abs(want))) <= _LGAMMA_TOL


def test_lgamma_kernel_zero_and_shapes():
    # +inf at 0 with no warning (pytest turns warnings into errors)
    assert numerics._lgamma(0.0) == math.inf
    assert numerics._lgamma(np.array([0, 1, 2], dtype=np.int64)).tolist() == [math.inf, 0.0, 0.0]
    assert np.shape(numerics._lgamma(7)) == ()
    assert np.shape(numerics._lgamma(np.array(7.0))) == ()
    assert numerics._lgamma(np.arange(6, dtype=np.int64).reshape(2, 3)).shape == (2, 3)
    assert abs(numerics._lgamma(7) - math.log(720.0)) <= 1e-14 * math.log(720.0)


def test_lgamma_kernel_is_elementwise_deterministic():
    # the value at x does not depend on the array holding it: a lookup into
    # one array equals a call on the scalar, a short array or a 2-D stack
    xs = np.concatenate((np.arange(0.0, 300.0), np.geomspace(1e-6, 1e7, 300)))
    table = numerics._lgamma(xs)
    stacked = numerics._lgamma(np.stack((xs[::-1], xs)))
    assert np.array_equal(stacked[1], table) and np.array_equal(stacked[0][::-1], table)
    for i in range(0, xs.size, 7):
        assert numerics._lgamma(xs[i]) == table[i]
        assert numerics._lgamma(xs[i:i + 3]).tolist() == table[i:i + 3].tolist()


@pytest.mark.parametrize("z", [1e-9, 1e-3, math.exp(-2.0) * (1 - 1e-12), math.exp(-2.0) * (1 + 1e-12),
                               1.0 / 3.0, 0.5, 0.99])
def test_log_integral_li_matches_mpmath(z):
    # Ei(log z): the power series up to |log z| = 2, the continued fraction past it
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = float(mpmath.li(mpmath.mpf(z)))
    assert abs(log_integral_li(z) - want) <= 2e-15 * abs(want)


def test_eta_integral():
    # eta(z) = int_0^z dt / ((1-t) log t); t -> 1-u turns the envelope
    # integral I_p into -eta(z) at z = 1/(1+2p), so eta(z) = -I_p with
    # p = (1/z - 1)/2, computed by r_p_envelope on the exp-tail quadrature
    def eta(z):
        return -r_p_envelope((1.0 / z - 1.0) / 2.0)

    assert abs(eta(0.5) + oracles.I_P_ENVELOPE[0.5]) <= 1e-10
    assert abs(eta(0.625) + oracles.I_P_ENVELOPE[0.3]) <= 1e-10
    assert eta(0.5) < 0.0
    assert abs(eta(1e-9)) <= 1e-8


def _one_panel(lo: float, hi: float):
    """The 16-point Gauss-Legendre rule on [lo, hi] in the variable itself:
    one _gl_rule panel in u = log v, taken back to u."""
    nodes, weights = numerics._gl_rule(np.array([lo, hi]))
    return np.log(nodes), weights


def test_integrate_polynomials_exact():
    # 16 Gauss-Legendre nodes integrate every polynomial of degree at most
    # 31 exactly: each monomial, and random polynomials, on one panel.
    u, w = _one_panel(-1.0, 2.0)
    for k in range(32):
        val = integrate(QuadratureProblem(lambda t: t[:, 0] ** k, u, w, u.size))
        exact = (2.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert abs(val - exact) <= 1e-14 * max(1.0, abs(exact)), k
    rng = np.random.default_rng(7)
    u, w = _one_panel(0.0, 1.0)
    for _ in range(10):
        coeffs = rng.uniform(-2.0, 2.0, size=32)
        exact = sum(c / (k + 1.0) for k, c in enumerate(coeffs))
        val = integrate(QuadratureProblem(lambda t: np.polynomial.polynomial.polyval(t[:, 0], coeffs),
                                          u, w, u.size))
        assert abs(val - exact) <= 1e-13


@pytest.mark.parametrize("k", (0, 0.5, 1, 2, 5, 10))
def test_log_rule_integrates_powers_times_exp(k):
    # The exp-tail rule from v = 1e-9: int_0^60 v^k e^-v dv = Gamma(k + 1),
    # the tail past 60 below 1e-16 of it.
    v, w = numerics._log_rule(1e-9, numerics._EXP_TAIL_SPAN)
    assert v.size == 16 * (1 + math.ceil(math.log(60e9) / numerics._PANEL_DU))
    assert np.all(np.diff(v) > 0.0) and v[0] > 0.0 and v[-1] < numerics._EXP_TAIL_SPAN
    val = integrate(QuadratureProblem(lambda t: t[:, 0] ** k * np.exp(-t[:, 0]), v, w, v.size))
    assert abs(val - math.gamma(k + 1.0)) <= 1e-14 * math.gamma(k + 1.0), k


def test_integrate_calls_blocks_of_at_most_block_nodes():
    # Consecutive blocks from node 0, each a node column of `block` rows but
    # the last, which holds the rest; together they hold every node once.
    v, w = numerics._log_rule(1e-3, 1.0)
    columns = []

    def integrand(t):
        columns.append(t.copy())
        return np.ones(len(t))

    val = integrate(QuadratureProblem(integrand, v, w, 40))
    assert abs(val - 1.0) <= 1e-14
    assert [c.shape for c in columns] == [(40, 1)] * (v.size // 40) + [(v.size % 40, 1)]
    assert np.array_equal(np.concatenate(columns)[:, 0], v)


def test_integrate_vector_integrand():
    # A stack of integrals sharing the nodes is summed componentwise: the
    # result has the shape of one row.
    v, w = numerics._log_rule(1e-6, 1.0)
    powers = np.arange(6.0).reshape(2, 3)
    val = integrate(QuadratureProblem(lambda t: t[:, :, None] ** powers, v, w, 50))
    assert val.shape == (2, 3)
    assert np.allclose(val, 1.0 / (powers + 1.0), rtol=0.0, atol=1e-14)
    scalar = integrate(QuadratureProblem(lambda t: t[:, 0], v, w, 50))
    assert np.shape(scalar) == () and abs(scalar - 0.5) <= 1e-14


def test_integrate_rejects_a_per_node_integrand():
    v, w = numerics._log_rule(1e-3, 1.0)
    with pytest.raises(ValueError):
        integrate(QuadratureProblem(lambda t: 1.0, v, w, v.size))


def test_integrate_raises_at_a_non_finite_node_near_zero():
    # NaN at the nodes next to v = 0 (the first panel is [0, 1e-12], its
    # first node 5e-13 (1 - 0.98940) = 5.30e-15): the sum substitutes
    # nothing, the integrand must return its own limit
    v, w = numerics._log_rule(1e-12, 1.0)
    calls = []

    def integrand(t):
        calls.append(t.shape)
        return np.where(t < 1e-13, np.nan, np.cos(t)) * np.array([1.0, 2.0])

    with pytest.raises(QuadratureError, match=r"non-finite value at node 5\.29\d*e-15$"):
        integrate(QuadratureProblem(integrand, v, w, v.size))
    assert calls == [(v.size, 1)]

    def with_limit(t):
        return np.where(t < 1e-13, 1.0, np.cos(t)) * np.array([1.0, 2.0])

    val = integrate(QuadratureProblem(with_limit, v, w, v.size))
    assert np.allclose(val, [math.sin(1.0), 2.0 * math.sin(1.0)], rtol=0.0, atol=1e-14)


def test_integrate_raises_at_an_interior_nan():
    # The NaNs sit in the last blocks of 16; the message names the first.
    v, w = numerics._log_rule(1e-3, 1.0)
    bad = float(v[(v > 0.7) & (v < 0.8)][0])
    with pytest.raises(QuadratureError, match=re.escape(f"non-finite value at node {bad!r}") + "$"):
        integrate(QuadratureProblem(
            lambda t: np.where((t > 0.7) & (t < 0.8), np.nan, np.cos(t)), v, w, 16))


def test_integrate_raises_at_a_nan_in_one_keys_column():
    # integrate reads finiteness off each block's weighted sum.  A NaN at one
    # node in one key's column, the other keys finite there, still makes
    # that sum non-finite, and the error names the node.
    v, w = numerics._log_rule(1e-3, 1.0)
    at = v.size // 2 + 3

    def integrand(t):
        out = np.ones((len(t), 3, 4))
        out[np.flatnonzero(t[:, 0] == v[at]), 1, 2] = np.nan
        return out

    with pytest.raises(QuadratureError, match=re.escape(f"non-finite value at node {float(v[at])!r}") + "$"):
        integrate(QuadratureProblem(integrand, v, w, 16))


def test_integrate_returns_inf_when_finite_values_overflow_their_sum():
    # Every value is finite, so no node is at fault: the block's sum
    # overflows to inf and is returned as it is.
    v, w = numerics._log_rule(1e-3, 10.0)
    assert w.sum() > 2.0
    val = integrate(QuadratureProblem(lambda t: np.full((len(t), 2), 1e308), v, w, v.size))
    assert np.array_equal(val, [math.inf, math.inf])


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
    res = sum_series(lambda ys: ys * math.log(0.5))
    assert res.converged
    assert abs(res.log_sum) <= 1e-12
    # adding the reported tail changes the sum by at most 1e-12 relatively
    assert res.tail_bound <= 1e-12 * math.exp(res.log_sum) * (1.0 + 1e-9)


def test_sum_series_reads_a_short_series_in_its_first_block():
    asked = []

    def log_term(ys):
        asked.append(int(ys.max()))
        return ys * math.log(0.5)

    res = sum_series(log_term)
    assert res.converged and res.terms_used < 256
    assert max(asked) <= 256


def test_sum_series_single_term():
    res = sum_series(lambda ys: np.where(ys == 1, math.log(3.0), -np.inf))
    assert res.converged
    assert abs(res.log_sum - math.log(3.0)) <= 1e-14


def test_sum_series_stops_like_a_plain_loop_on_rising_ratios():
    # Terms q^y/sqrt(y) have ratios q sqrt(y/(y+1)) that rise toward q, as
    # the dual weights' do.  The stop, the sum and the tail estimate are a
    # plain loop's that takes each ratio from the next term, across block
    # ends; the estimate then falls short of the true remainder.
    q = 0.99
    log_terms = np.arange(1, 20_001) * math.log(q) - 0.5 * np.log(np.arange(1, 20_001))
    res = sum_series(lambda ys: log_terms[ys - 1])
    terms = np.exp(log_terms).tolist()
    total = 0.0
    for y, (term, following) in enumerate(zip(terms, terms[1:]), start=1):
        total += term
        r = following / term
        if term * r / (1.0 - r) <= numerics._SERIES_REL_TOL * total:
            break
    assert res.converged and res.terms_used == y > 768
    assert abs(math.exp(res.log_sum) - total) <= 1e-13 * total
    estimate = term * r / (1.0 - r)
    assert abs(res.tail_bound - estimate) <= 1e-9 * estimate
    assert math.fsum(terms[y:]) > res.tail_bound


def test_sum_series_hard_cap_reported(monkeypatch):
    # 1/y^2 has ratios rising toward 1, so its tail estimate (about 1/(2y))
    # never meets the tolerance: the cap must be hit and reported rather
    # than silently accepted
    monkeypatch.setattr(numerics, "_SERIES_HARD_CAP", 5000)
    res = sum_series(lambda ys: -np.log(ys.astype(float)) * 2.0)
    assert not res.converged
    assert res.terms_used == 5000
    # The cap falls inside a block.  The sum is every term read, and
    # tail_bound the estimate from the last ratio read,
    # term(Y) / (1 - r), r = term(Y) / term(Y - 1), Y the cap.
    terms = [1.0 / y**2 for y in range(1, 5001)]
    r = terms[-1] / terms[-2]
    assert res.moment_terms == 5000
    assert abs(res.log_sum - math.log(math.fsum(terms))) <= 1e-13
    assert abs(res.tail_bound - terms[-1] / (1.0 - r)) <= 1e-9 * res.tail_bound


def _geometric(ys):
    return ys * math.log(0.9)


def _parity(ys):
    # trunc-like: the log-weights alternate between even and odd y
    return ys * math.log(0.97) - 0.5 * np.log(ys) + np.where(ys % 2 == 0, 0.7, -0.7)


def _late_moment(ys):
    # q^y / sqrt(y), q = 0.965: the sum stops at y = 718, before the second
    # block ends at 768, and the moment at y = 827, in the third block
    return ys * math.log(0.965) - 0.5 * np.log(ys)


def _single(ys):
    return np.where(ys == 1, math.log(3.0), -np.inf)


@pytest.mark.parametrize("log_term", [_geometric, _parity, _late_moment, _single])
def test_sum_series_moment_is_a_separate_sum_of_log_term_plus_log_y(log_term):
    res = sum_series(log_term)
    alone = sum_series(lambda ys: log_term(ys) + np.log(ys))
    assert res.converged and alone.converged
    assert res.log_moment == alone.log_sum
    assert res.moment_terms == alone.terms_used
    assert res.moment_terms >= res.terms_used


def test_sum_series_moment_stops_in_a_later_block():
    res = sum_series(_late_moment)
    assert res.terms_used == 718 < 768 < res.moment_terms == 827


def test_sum_series_is_unconverged_when_only_the_moment_hits_the_cap(monkeypatch):
    # 0.9^y stops at y = 263 and its moment at y = 295, past this cap
    monkeypatch.setattr(numerics, "_SERIES_HARD_CAP", 280)
    res = sum_series(_geometric)
    assert res.terms_used == 263 and res.moment_terms == 280
    assert not res.converged


def test_sum_series_nan_term_raises():
    with pytest.raises(ValueError, match="NaN"):
        sum_series(lambda ys: np.where(ys == 2, np.nan, -1.0 * ys))


def _plain_stop(terms):
    """A plain loop over the float terms y = 1, 2, ... that stops as
    sum_series does: the exact sum up to the stop, the stop, and its tail
    estimate.  A zero term, like a ratio r >= 1, estimates nothing."""
    total = 0.0
    for y, (term, following) in enumerate(zip(terms, terms[1:]), start=1):
        total += term
        r = following / term if term > 0.0 else math.inf
        if r < 1.0 and term * r / (1.0 - r) <= numerics._SERIES_REL_TOL * total:
            return math.fsum(terms[:y]), y, term * r / (1.0 - r)
    raise AssertionError("the terms end before the loop stops")


def _check_against_plain_loops(log_term, n_terms):
    res = sum_series(log_term)
    ys = np.arange(1, n_terms + 1)
    terms = np.exp(log_term(ys))
    total, used, tail = _plain_stop(terms.tolist())
    moment, moment_used, _ = _plain_stop((ys * terms).tolist())
    assert res.converged
    assert (res.terms_used, res.moment_terms) == (used, moment_used)
    # the sums within 1e-13 relative
    assert abs(res.log_sum - math.log(total)) <= 1e-13
    assert abs(res.log_moment - math.log(moment)) <= 1e-13
    assert abs(res.tail_bound - tail) <= 1e-9 * tail
    return res


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 0.999), st.floats(0.0, 3.0), st.floats(0.0, 1.0))
def test_sum_series_matches_a_plain_loop(q, a, b):
    # Ratios that rise toward q, as the dual weights' do, and for b > 0
    # alternate between even and odd y, as the truncated dual's do.
    def log_term(ys):
        return ys * math.log(q) - a * np.log(ys) + np.where(ys % 2 == 0, b, -b)

    _check_against_plain_loops(log_term, int(50 / (1.0 - q)) + 200)


def test_sum_series_rescales_to_a_peak_several_blocks_in():
    # The terms rise to their peak at y = 4 000, in the fifth block, by a
    # factor of e^290, so each block's larger terms rescale the sums.
    res = _check_against_plain_loops(lambda ys: ys * math.log(0.99) + 40.0 * np.log(ys), 30_000)
    assert res.terms_used > 7936


@pytest.mark.parametrize("start", (600, 800))
def test_sum_series_support_starting_in_a_later_block(start):
    # No terms up to y = start: the second block, or the first two blocks
    # whole, read as zero, and the geometric tail after start stops as
    # 0.9^y alone does.
    def log_term(ys):
        return np.where(ys > start, (ys - start) * math.log(0.9), -np.inf)

    res = _check_against_plain_loops(log_term, start + 1000)
    assert res.terms_used == start + sum_series(_geometric).terms_used


def test_sum_series_reads_doubling_blocks_and_none_past_both_stops():
    # A block past _MAX_BLOCK or past the stops would grow a dual's S-table
    # further than its series needs.
    asked = []

    def log_term(ys):
        asked.append((int(ys[0]), ys.size))
        return ys * math.log(0.999) - 0.5 * np.log(ys)

    res = sum_series(log_term)
    sizes = [size for _, size in asked]
    assert sizes[:5] == [256, 512, 1024, 2048, 4096] and set(sizes[5:]) == {4096}
    assert [lo for lo, _ in asked] == [1 + sum(sizes[:i]) for i in range(len(sizes))]
    last_decided = max(res.terms_used, res.moment_terms) + 1
    assert asked[-1][0] <= last_decided < asked[-1][0] + asked[-1][1]


@pytest.mark.parametrize(
    "variant",
    (BoundVariant.STICKY_EXACT, BoundVariant.GEOMDEL_CONV, BoundVariant.GEOMDEL_TRUNC),
)
def test_dual_normalizer_and_mean_match_fsum_at_q_opt(variant):
    p = 0.99
    search = bounds._Search(p, variant)
    q = bounds.compute_bound(search.con.family, variant, p).q_opt
    dual = build_dual(search.con.dual, p, q, delta=search.delta)
    # the dual's own series, read again for where its moment stopped
    series = sum_series(dual.log_weight)
    used, moment_used = series.terms_used, series.moment_terms
    assert used == dual.truncation[0]
    ys = np.arange(1, max(used, moment_used) + 1)
    weights = np.exp(dual.log_weight(ys))
    z = math.fsum(weights[:used]) + (search.delta if dual.support_start == 0 else 0.0)
    assert abs(dual.log_normalizer - math.log(z)) <= 1e-14
    mean = math.fsum(ys[:moment_used] * weights[:moment_used]) / z
    assert abs(dual.mean - mean) <= 1e-14 * mean


# 64 evenly spaced interior points of (0, 1).
_GRID = np.linspace(0.0, 1.0, 66)[1:-1]


def test_maximize_concave_quadratic():
    res = maximize_concave(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, _GRID, 1e-8)
    assert isinstance(res, OptimizeResult)
    assert res.unimodal
    assert abs(res.arg - 0.3) <= 1e-7


def test_maximize_concave_random_quadratics():
    rng = np.random.default_rng(11)
    for _ in range(20):
        vertex = rng.uniform(0.05, 0.95)
        scale = rng.uniform(0.5, 30.0)
        res = maximize_concave(lambda x: -scale * (x - vertex) ** 2, 0.0, 1.0, _GRID, 1e-8)
        assert abs(res.arg - vertex) <= 1e-6


def test_maximize_concave_constant():
    res = maximize_concave(lambda x: 2.5, 0.0, 1.0, _GRID, 1e-7)
    assert res.value == 2.5


def test_maximize_concave_flags_multimodal():
    # A concave bump with a one-point dip on its rising side: the scan
    # changes direction three times, so unimodal is False, and the result
    # is still at least every value the scan saw.
    dip = float(_GRID[10])
    scanned = {}

    def f(x):
        value = 1.0 - (x - 0.5) ** 2 - (0.5 if x == dip else 0.0)
        scanned.setdefault(x, value)
        return value

    res = maximize_concave(f, 0.0, 1.0, _GRID, 1e-9)
    assert not res.unimodal
    assert res.value >= max(v for x, v in scanned.items() if x in set(_GRID.tolist()))


def test_maximize_concave_quasiconcave_stops_after_first_peak():
    seen = []

    def f(x):
        seen.append(x)
        return math.sin(12.0 * math.pi * x)

    res = maximize_concave(f, 0.0, 1.0, _GRID, 1e-9)
    assert res.value >= 1.0 - 1e-6
    assert max(seen) < 1.0 / 12.0  # the first peak is at 1/24, its zero at 1/12
    assert res.n_evals == len(seen)


def test_maximize_concave_quasiconcave_scans_nonpositive_in_full():
    # A descent from a nonpositive value never stops the scan.
    seen = []

    def f(x):
        seen.append(x)
        return -((x - 0.3) ** 2)

    res = maximize_concave(f, 0.0, 1.0, _GRID, 1e-8)
    assert set(_GRID.tolist()) <= set(seen)
    assert res.n_evals > 64
    assert abs(res.arg - 0.3) <= 1e-7


def test_maximize_concave_validation():
    with pytest.raises(ValueError):
        maximize_concave(lambda x: x, 1.0, 0.0, _GRID, 1e-7)
    with pytest.raises(ValueError):
        maximize_concave(lambda x: x, 0.0, 1.0, [0.5], 1e-7)
