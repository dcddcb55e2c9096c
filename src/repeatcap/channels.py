"""Repeat-channel families and their associated memoryless integer channels.

A repeat channel replaces each input bit by D i.i.d. copies of itself.  The
families here are parametrized by a replication probability p in (0, 1):

    geometric sticky       D(y) = (1-p) p^(y-1),  y >= 1
    elementary duplication D(1) = 1-p, D(2) = p
    geometric deletion     D(y) = (1-p) p^y,      y >= 0

Grouping the output by input runs reduces each to a memoryless channel on
the positive integers whose conditional output law Y_x for input x is

    sticky:       x + NegBin(x, p)   pmf C(y-1, x-1) (1-p)^x p^(y-x), y >= x
    duplication:  x + Bin(x, p)     pmf C(x, y-x) (1-p)^(2x-y) p^(y-x)
    deletion:     NegBin(x, p)      pmf C(y+x-1, y) (1-p)^x p^y, y >= 0

The reduction needs three scalars per family: lam = E[D], lam_bar = E[D | D != 0],
and p_nonzero = P(D != 0).  Each family's facts live in one _Law record in
_LAWS; ConditionalOutputLaw reads them for one input x, output_log_pmf serves
the summed gap scan, and reduction_params the bound template, whose factor
and mean constraint are lam.  _windows cuts each Y_x to its support window,
every x of a scan at once, both tails certified by the law's Chernoff bound.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repeatcap.numerics import _lgamma


class Family(enum.Enum):
    GEOMETRIC_STICKY = "geometric-sticky"
    ELEMENTARY_DUPLICATION = "duplication"
    GEOMETRIC_DELETION = "geometric-deletion"


@dataclass(frozen=True)
class _Law:
    """The facts of one family's output law Y_x, each written in the
    operation order the package has always computed it in.

    mean(x, p) and stddev(x, p) are Y_x's moments and support(x) its
    (first, last) point, each also over an array of x.
    log_pmf(ys, x, logp, log1mp, log_gamma) is log Y_x(ys) for ys inside the
    support.  pgf_factor(z, p) is the per-input pgf factor,
    E[z^Y_x] = factor^x, for any z > 0 where it is finite (p*z < 1 for
    sticky and deletion).  chernoff_z(c, x, p) is the z that minimizes the
    Chernoff bound E[z^Y_x] / z^c at a cut c inside the support: above 1
    for a cut above the mean (the upper tail), below 1 under it (the lower
    tail); _windows reads both.  reduction(p) is (lam, lam_bar, p_nonzero).
    """

    mean: Callable[[int, float], float]
    stddev: Callable[[int, float], float]
    support: Callable[[int], tuple[int, float]]
    log_pmf: Callable[..., np.ndarray]
    pgf_factor: Callable[[float, float], float]
    chernoff_z: Callable[[float, int, float], float]
    reduction: Callable[[float], tuple[float, float, float]]


_LAWS = {
    Family.GEOMETRIC_STICKY: _Law(
        mean=lambda x, p: x / (1.0 - p),
        stddev=lambda x, p: np.sqrt(x * p) / (1.0 - p),
        support=lambda x: (x, math.inf),
        log_pmf=lambda ys, x, logp, log1mp, lg: (
            lg(ys) - lg(x) - lg(ys - x + 1) + x * log1mp + (ys - x) * logp
        ),
        pgf_factor=lambda z, p: z * (1.0 - p) / (1.0 - p * z),
        chernoff_z=lambda c, x, p: (c - x) / (p * c),
        reduction=lambda p: (1.0 / (1.0 - p), 1.0 / (1.0 - p), 1.0),
    ),
    Family.ELEMENTARY_DUPLICATION: _Law(
        mean=lambda x, p: x * (1.0 + p),
        stddev=lambda x, p: np.sqrt(x * p * (1.0 - p)),
        support=lambda x: (x, 2 * x),
        log_pmf=lambda ys, x, logp, log1mp, lg: (
            lg(x + 1) - lg(ys - x + 1) - lg(2 * x - ys + 1)
            + (2 * x - ys) * log1mp + (ys - x) * logp
        ),
        pgf_factor=lambda z, p: z * (1.0 - p + p * z),
        chernoff_z=lambda c, x, p: (c - x) * (1.0 - p) / (p * (2 * x - c)),
        reduction=lambda p: (1.0 + p, 1.0 + p, 1.0),
    ),
    Family.GEOMETRIC_DELETION: _Law(
        mean=lambda x, p: x * p / (1.0 - p),
        stddev=lambda x, p: np.sqrt(x * p) / (1.0 - p),
        support=lambda x: (0, math.inf),
        log_pmf=lambda ys, x, logp, log1mp, lg: (
            lg(ys + x) - lg(x) - lg(ys + 1) + x * log1mp + ys * logp
        ),
        pgf_factor=lambda z, p: (1.0 - p) / (1.0 - p * z),
        chernoff_z=lambda c, x, p: c / (p * (x + c)),
        reduction=lambda p: (p / (1.0 - p), 1.0 / (1.0 - p), p),
    ),
}


@dataclass(frozen=True)
class RepeatChannel:
    """A channel family tag plus its replication probability p in (0, 1)."""

    family: Family
    p: float

    def __post_init__(self):
        if self.family not in _LAWS:
            raise ValueError(f"unknown family {self.family!r}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"replication parameter must be in (0, 1), got {self.p}")


@dataclass(frozen=True)
class ReductionParams:
    """Parameters of the run-reduction: lam = E[D], lam_bar = E[D | D != 0],
    p_nonzero = P(D != 0)."""

    lam: float
    lam_bar: float
    p_nonzero: float

    def __post_init__(self):
        if self.lam_bar < self.lam - 1e-15:
            raise ValueError("lam_bar must be >= lam")
        if not 0.0 < self.p_nonzero <= 1.0:
            raise ValueError("p_nonzero must be in (0, 1]")


def _require_input(x: int) -> int:
    if x < 1 or x != int(x):
        raise ValueError(f"channel input x must be a positive integer, got {x}")
    return int(x)


def output_log_pmf(channel: RepeatChannel, x: int, y, log_gamma=_lgamma):
    """log Y_x(y) for the memoryless integer channel; -inf outside support.

    y may be a nonnegative integer or an array of them (integer-valued
    floats included; any other float is a ValueError); the result matches
    its shape.  Everything is computed through log-gamma, never factorial
    products, so x in the hundreds stays exact to ~1e-13 relative.
    log_gamma (default numerics._lgamma, the package's one log-gamma) is
    only ever called on positive integers (Python ints or int64 arrays); a
    gap scan passes a lookup into one precomputed array of it, which gives
    the same values bit for bit.
    """
    x = _require_input(x)
    y_arr = np.asarray(y)
    scalar = y_arr.ndim == 0
    integral = y_arr.dtype.kind in "iu" or np.all(np.isfinite(y_arr) & (y_arr == np.floor(y_arr)))
    if not integral:
        raise ValueError("output_log_pmf requires integer y")
    yy = np.atleast_1d(y_arr).astype(np.int64, copy=False)
    if (yy < 0).any():
        raise ValueError("y must be nonnegative")
    law = _LAWS[channel.family]
    args = (x, math.log(channel.p), math.log1p(-channel.p), log_gamma)
    lo, hi = law.support(x)
    if lo == 0 and hi == math.inf:  # every y >= 0 is in the support
        out = law.log_pmf(yy, *args)
    else:
        mask = (yy >= lo) & (yy <= hi)
        out = np.where(mask, law.log_pmf(np.where(mask, yy, lo), *args), -math.inf)
    return float(out[0]) if scalar else out


def reduction_params(channel: RepeatChannel) -> ReductionParams:
    return ReductionParams(*_LAWS[channel.family].reduction(channel.p))


# Each tail that Y_x's support window cuts off holds at most this much mass.
# The window's edges start where a Gaussian's Chernoff bound exp(-k^2/2)
# meets it, k = _START_STDS standard deviations from the mean.
_TAIL_MASS_TOL = 1e-15
_START_STDS = math.sqrt(-2.0 * math.log(_TAIL_MASS_TOL))


def _log_tail_bound(channel: RepeatChannel, xs: np.ndarray, edge: np.ndarray, side: int):
    """(log B, log z) for the mass of Y_x past edge, below it (side -1) or
    above it (side +1), one entry per x in xs.  B = E[z^Y_x] / z^c is the
    Chernoff bound at the cut c half a point outside edge, at the law's
    minimizing z; it is 0 (log B = -inf) where edge is the support's end."""
    law, p = _LAWS[channel.family], channel.p
    cut = edge + 0.5 * side
    with np.errstate(divide="ignore", invalid="ignore"):
        z = law.chernoff_z(cut, xs, p)
        log_z = np.log(z)
        log_b = xs * np.log(law.pgf_factor(z, p)) - cut * log_z
    end = law.support(xs)[(side + 1) // 2]
    return np.where(edge * side >= end * side, -math.inf, log_b), log_z


def _windows(channel: RepeatChannel, xs) -> tuple[np.ndarray, np.ndarray]:
    """Y_x's support window (lo, hi) for every x in xs, each tail certified
    by _log_tail_bound to hold at most _TAIL_MASS_TOL.  Both edges start
    _START_STDS standard deviations from the mean and take Newton steps on
    log B toward the cut where B meets the tolerance, rounded outward.
    log B is concave in the cut, so a step from a failing edge lands on or
    past that cut (it moves out by at least one point), and a step from a
    certified edge lands on or before it, still certified.  An inward step
    never reaches an edge already seen to fail, and the edges stop when no
    step moves them by a whole point."""
    law, p = _LAWS[channel.family], channel.p
    xs = np.asarray(xs, dtype=np.int64)
    floor, top = law.support(xs)
    mean, spread = law.mean(xs, p), _START_STDS * law.stddev(xs, p)
    edges = (np.maximum(np.floor(mean - spread), floor), np.minimum(np.ceil(mean + spread), top))
    log_tol = math.log(_TAIL_MASS_TOL)
    for side, edge in zip((-1, 1), edges):
        failed = np.full(xs.shape, -math.inf)  # side * the outermost failing edge
        while True:
            log_b, log_z = _log_tail_bound(channel, xs, edge, side)
            pos, bad = side * edge, ~(log_b <= log_tol)
            failed = np.where(bad, pos, failed)
            step = np.ceil(side * (edge + 0.5 * side + (log_b - log_tol) / log_z) - 0.5)
            inward = np.where(log_b == -math.inf, pos, np.fmax(np.fmin(pos, step), failed + 1.0))
            new = np.clip(side * np.where(bad, np.fmax(pos + 1.0, step), inward), floor, top)
            if np.array_equal(new, edge):
                break
            edge[:] = new
    return edges[0].astype(np.int64), edges[1].astype(np.int64)


@dataclass(frozen=True)
class ConditionalOutputLaw:
    """The law of Y_x for a fixed input x: log-pmf, moments, support and pgf."""

    channel: RepeatChannel
    x: int

    def __post_init__(self):
        object.__setattr__(self, "x", _require_input(self.x))

    @property
    def _law(self) -> _Law:
        return _LAWS[self.channel.family]

    def log_pmf(self, y):
        return output_log_pmf(self.channel, self.x, y)

    @property
    def mean(self) -> float:
        return self._law.mean(self.x, self.channel.p)

    @property
    def stddev(self) -> float:
        return float(self._law.stddev(self.x, self.channel.p))

    @property
    def support(self) -> tuple[int, float]:
        return self._law.support(self.x)

    def pgf(self, z: float) -> float:
        """E[z^Y_x] for z in [0, 1]."""
        if not 0.0 <= z <= 1.0:
            raise ValueError(f"pgf requires z in [0, 1], got {z}")
        return self._law.pgf_factor(z, self.channel.p) ** self.x

    def truncated_support(self) -> np.ndarray:
        """Every integer of Y_x's support window (_windows)."""
        lo, hi = _windows(self.channel, [self.x])
        return np.arange(lo[0], hi[0] + 1, dtype=np.int64)
