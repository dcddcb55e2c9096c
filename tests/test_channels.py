"""Channel families: replication laws, conditional output laws, reductions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repeatcap import channels, numerics
from repeatcap.channels import (
    ConditionalOutputLaw,
    Family,
    ReductionParams,
    RepeatChannel,
    output_log_pmf,
    reduction_params,
)


def _law(family, p, x):
    return ConditionalOutputLaw(RepeatChannel(family, p), x)


def test_channel_param_validation():
    for fam in Family:
        with pytest.raises(ValueError):
            RepeatChannel(fam, 0.0)
        with pytest.raises(ValueError):
            RepeatChannel(fam, 1.0)
    with pytest.raises(ValueError):
        RepeatChannel("poisson-repeat", 0.5)
    with pytest.raises(ValueError, match="lam_bar must be >= lam"):
        ReductionParams(2.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"p_nonzero must be in \(0, 1\]"):
        ReductionParams(1.0, 1.0, 0.0)
    sticky = RepeatChannel(Family.GEOMETRIC_STICKY, 0.3)
    with pytest.raises(ValueError, match="channel input x must be a positive integer, got 0"):
        output_log_pmf(sticky, 0, 1)
    with pytest.raises(ValueError, match="y must be nonnegative"):
        output_log_pmf(sticky, 1, -1)


def test_log_pmf_trivial_values():
    sticky = RepeatChannel(Family.GEOMETRIC_STICKY, 0.3)
    assert abs(output_log_pmf(sticky, 1, 2) - math.log(0.21)) <= 1e-14

    dup = RepeatChannel(Family.ELEMENTARY_DUPLICATION, 0.4)
    assert abs(output_log_pmf(dup, 1, 1) - math.log(0.6)) <= 1e-14

    geomdel = RepeatChannel(Family.GEOMETRIC_DELETION, 0.3)
    assert abs(output_log_pmf(geomdel, 1, 0) - math.log(0.7)) <= 1e-14


def test_log_pmf_outside_support():
    sticky = RepeatChannel(Family.GEOMETRIC_STICKY, 0.3)
    assert output_log_pmf(sticky, 3, 2) == -math.inf  # y < x
    dup = RepeatChannel(Family.ELEMENTARY_DUPLICATION, 0.3)
    assert output_log_pmf(dup, 2, 5) == -math.inf  # y > 2x
    assert output_log_pmf(dup, 2, 1) == -math.inf  # y < x


def test_log_pmf_rejects_non_integer_y():
    geomdel = RepeatChannel(Family.GEOMETRIC_DELETION, 0.5)
    for y in ([1.0, 2.5, 3.9], 2.5, math.nan, [1.0, math.inf], -math.inf):
        with pytest.raises(ValueError, match="integer y"):
            output_log_pmf(geomdel, 3, y)
    # integer-valued floats read the same values as integers
    ys = np.arange(10)
    want = output_log_pmf(geomdel, 3, ys)
    assert np.array_equal(output_log_pmf(geomdel, 3, ys.astype(float)), want)
    assert output_log_pmf(geomdel, 3, 2.0) == output_log_pmf(geomdel, 3, 2)


@pytest.mark.parametrize("family", tuple(Family))
@pytest.mark.parametrize("p", (0.05, 0.6, 0.99))
@pytest.mark.parametrize("x", (1, 7, 500))
def test_log_pmf_from_a_log_gamma_array_is_bit_identical(family, p, x):
    # A gap scan reads log-gamma from one array of the package's log-gamma;
    # every value must be the one the per-call route gives, out-of-support
    # -inf included (sticky y < x, duplication y > 2x).
    channel = RepeatChannel(family, p)
    top = int(ConditionalOutputLaw(channel, x).truncated_support()[-1])
    ys = np.arange(0, max(top, 2 * x + 3) + 1)
    lg = numerics._lgamma(np.arange(int(ys[-1]) + x + 2, dtype=float))
    assert np.array_equal(output_log_pmf(channel, x, ys, lg.take), output_log_pmf(channel, x, ys))
    for y in (0, x - 1, x, 2 * x, 2 * x + 1):
        assert output_log_pmf(channel, x, y, lg.take) == output_log_pmf(channel, x, y)


def test_output_mean_closed_forms():
    assert _law(Family.GEOMETRIC_STICKY, 0.5, 2).mean == 4.0
    assert abs(_law(Family.ELEMENTARY_DUPLICATION, 0.2, 10).mean - 12.0) <= 1e-12
    assert abs(_law(Family.GEOMETRIC_DELETION, 0.5, 3).mean - 3.0) <= 1e-12


def test_pmf_normalization_and_mean():
    for fam in Family:
        for p in (0.2, 0.6):
            channel = RepeatChannel(fam, p)
            for x in (1, 2, 5, 20):
                law = ConditionalOutputLaw(channel, x)
                ys = law.truncated_support()
                pmf = np.exp(law.log_pmf(ys))
                assert abs(pmf.sum() - 1.0) <= 1e-10, (fam, p, x)
                assert abs(float(ys @ pmf) - law.mean) <= 1e-8, (fam, p, x)


def test_pgf_trivial_and_derived():
    for fam in Family:
        assert abs(_law(fam, 0.35, 3).pgf(1.0) - 1.0) <= 1e-12
    assert _law(Family.GEOMETRIC_STICKY, 0.3, 2).pgf(0.0) == 0.0
    # single duplication bit at z = 1/2: 0.5 * (0.5 + 0.5 * 0.5)
    assert abs(_law(Family.ELEMENTARY_DUPLICATION, 0.5, 1).pgf(0.5) - 0.375) <= 1e-14


def test_pgf_matches_pmf_sum():
    for fam in Family:
        channel = RepeatChannel(fam, 0.45)
        for x in (1, 4):
            law = ConditionalOutputLaw(channel, x)
            ys = law.truncated_support()
            pmf = np.exp(law.log_pmf(ys))
            for z in (0.2, 0.7, 0.95):
                direct = float(np.sum(z**ys * pmf))
                assert abs(law.pgf(z) - direct) <= 1e-9, (fam, x, z)


def test_pgf_domain():
    law = _law(Family.GEOMETRIC_STICKY, 0.5, 1)
    with pytest.raises(ValueError):
        law.pgf(1.2)
    with pytest.raises(ValueError):
        law.pgf(-0.1)


def test_sticky_composition_is_convolution():
    # the x-bit sticky output is the x-fold convolution of the 1-bit law
    channel = RepeatChannel(Family.GEOMETRIC_STICKY, 0.4)
    one = ConditionalOutputLaw(channel, 1)
    ys1 = np.arange(1, 200)
    pmf1 = np.exp(one.log_pmf(ys1))
    conv = pmf1.copy()
    for _ in range(2):
        conv = np.convolve(conv, pmf1)
    # conv[k] is the probability of total y = 3 + k
    three = ConditionalOutputLaw(channel, 3)
    ys3 = np.arange(3, 150)
    direct = np.exp(three.log_pmf(ys3))
    assert np.max(np.abs(direct - conv[ys3 - 3])) <= 1e-12


def test_reduction_params():
    assert reduction_params(RepeatChannel(Family.GEOMETRIC_STICKY, 0.5)) == ReductionParams(
        2.0, 2.0, 1.0
    )
    dup = reduction_params(RepeatChannel(Family.ELEMENTARY_DUPLICATION, 0.2))
    assert abs(dup.lam - 1.2) <= 1e-12 and dup.p_nonzero == 1.0
    geomdel = reduction_params(RepeatChannel(Family.GEOMETRIC_DELETION, 0.5))
    assert abs(geomdel.lam - 1.0) <= 1e-12
    assert abs(geomdel.lam_bar - 2.0) <= 1e-12
    assert abs(geomdel.p_nonzero - 0.5) <= 1e-12


def test_reduction_invariant():
    # lam = E[D] is the one-bit output mean, lam_bar * p_nonzero = lam, and
    # p_nonzero = 1 - Y_1(0).
    for fam in Family:
        for p in (0.1, 0.5, 0.9):
            channel = RepeatChannel(fam, p)
            r = reduction_params(channel)
            assert r.lam_bar >= r.lam - 1e-15
            assert 0.0 < r.p_nonzero <= 1.0
            assert abs(r.lam - ConditionalOutputLaw(channel, 1).mean) <= 1e-12, (fam, p)
            assert abs(r.lam_bar * r.p_nonzero - r.lam) <= 1e-12, (fam, p)
            p_zero = math.exp(output_log_pmf(channel, 1, 0))
            assert abs(r.p_nonzero - (1.0 - p_zero)) <= 1e-12, (fam, p)


def test_stddev_positive():
    for fam in Family:
        assert _law(fam, 0.3, 4).stddev > 0.0


# Degradations: a receiver that gives each output bit Geometric(s) >= 1
# copies turns sticky(p) into sticky(p''), 1 - p'' = (1 - p)(1 - s); one
# that keeps each output bit with probability r turns deletion(p) into
# deletion(p'), p' = pr / (1 - p + pr).
def _sticky_degraded(p, s):
    return 1.0 - (1.0 - p) * (1.0 - s)


def _deletion_degraded(p, r):
    return p * r / (1.0 - p + p * r)


@pytest.mark.parametrize("p", (0.3, 0.87))
@pytest.mark.parametrize("s", (0.1, 0.5, 0.9))
def test_sticky_degradation_composes_pgf_factors(p, s):
    f = channels._LAWS[Family.GEOMETRIC_STICKY].pgf_factor
    for z in np.linspace(0.0, 1.0, 21):
        want = f(z, _sticky_degraded(p, s))
        assert abs(f(f(z, s), p) - want) <= 1e-14 * want


@pytest.mark.parametrize("p", (0.5, 0.86, 0.99))
@pytest.mark.parametrize("r", (0.2, 0.7, 0.95))
def test_deletion_degradation_composes_pgf_factors(p, r):
    f = channels._LAWS[Family.GEOMETRIC_DELETION].pgf_factor
    for z in np.linspace(0.0, 1.0, 21):
        want = f(z, _deletion_degraded(p, r))
        assert abs(f(1.0 - r + r * z, p) - want) <= 1e-14 * want


def _thinning_pmf(y, r, ks):
    """P(Bin(y, r) = k) at each k in ks."""
    return np.array([math.comb(y, k) * r**k * (1.0 - r) ** (y - k) if k <= y else 0.0
                     for k in ks.tolist()])


@pytest.mark.parametrize(
    "family, p, s",
    [
        (Family.GEOMETRIC_STICKY, 0.3, 0.5),
        (Family.GEOMETRIC_STICKY, 0.87, 0.1),
        (Family.GEOMETRIC_DELETION, 0.5, 0.7),
        (Family.GEOMETRIC_DELETION, 0.86, 0.2),
    ],
)
def test_a_degraded_output_law_is_the_degraded_channel(family, p, s):
    # sum_y Y_x(y) (law of what y output bits become) against Y_x of the
    # degraded channel.  Y_x past y = 600 holds under 1e-30 here.
    sticky = family is Family.GEOMETRIC_STICKY
    channel = RepeatChannel(family, p)
    degraded = RepeatChannel(family, _sticky_degraded(p, s) if sticky else _deletion_degraded(p, s))
    ks = np.arange(0, 120)
    for x in range(1, 6):
        ys = np.arange(0, 600)
        composed = np.zeros(ks.size)
        for y, w in zip(ys.tolist(), np.exp(output_log_pmf(channel, x, ys)).tolist()):
            if w < 1e-18:  # all of them together move no value by 1e-15
                continue
            if sticky:
                composed += w * np.exp(output_log_pmf(RepeatChannel(family, s), y, ks))
            else:
                composed += w * _thinning_pmf(y, s, ks)
        want = np.exp(output_log_pmf(degraded, x, ks))
        assert np.max(np.abs(composed - want)) <= 1e-12, x
