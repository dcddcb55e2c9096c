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
_LAWS; ConditionalOutputLaw reads them for one input x, and output_log_pmf
and reduction_params are the module-level reads the gap scan and the bound
thresholds use.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln


class Family(enum.Enum):
    GEOMETRIC_STICKY = "geometric-sticky"
    ELEMENTARY_DUPLICATION = "duplication"
    GEOMETRIC_DELETION = "geometric-deletion"


@dataclass(frozen=True)
class _Law:
    """The facts of one family's output law Y_x, each written in the
    operation order the package has always computed it in.

    mean(x, p) and stddev(x, p) are Y_x's moments and support(x) its
    (first, last) point.  log_pmf(ys, x, logp, log1mp, log_gamma) is
    log Y_x(ys) for ys inside the support.  pgf_factor(z, p) is the
    per-input pgf factor, E[z^Y_x] = factor^x; it holds past z = 1 too while
    it stays finite (p*z < 1 for sticky and deletion), which is where the
    Chernoff tail bounds read it, at the points chernoff_zs(p).  reduction(p)
    is (lam, lam_bar, p_nonzero).
    """

    mean: Callable[[int, float], float]
    stddev: Callable[[int, float], float]
    support: Callable[[int], tuple[int, float]]
    log_pmf: Callable[..., np.ndarray]
    pgf_factor: Callable[[float, float], float]
    chernoff_zs: Callable[[float], tuple[float, ...]]
    reduction: Callable[[float], tuple[float, float, float]]


def _spread_zs(p: float) -> tuple[float, ...]:
    return tuple(1.0 + (1.0 / p - 1.0) * f for f in (0.25, 0.5, 0.75))


_LAWS = {
    Family.GEOMETRIC_STICKY: _Law(
        mean=lambda x, p: x / (1.0 - p),
        stddev=lambda x, p: math.sqrt(x * p) / (1.0 - p),
        support=lambda x: (x, math.inf),
        log_pmf=lambda ys, x, logp, log1mp, lg: (
            lg(ys) - lg(x) - lg(ys - x + 1) + x * log1mp + (ys - x) * logp
        ),
        pgf_factor=lambda z, p: z * (1.0 - p) / (1.0 - p * z),
        chernoff_zs=_spread_zs,
        reduction=lambda p: (1.0 / (1.0 - p), 1.0 / (1.0 - p), 1.0),
    ),
    Family.ELEMENTARY_DUPLICATION: _Law(
        mean=lambda x, p: x * (1.0 + p),
        stddev=lambda x, p: math.sqrt(x * p * (1.0 - p)),
        support=lambda x: (x, 2 * x),
        log_pmf=lambda ys, x, logp, log1mp, lg: (
            lg(x + 1) - lg(ys - x + 1) - lg(2 * x - ys + 1)
            + (2 * x - ys) * log1mp + (ys - x) * logp
        ),
        pgf_factor=lambda z, p: z * (1.0 - p + p * z),
        chernoff_zs=lambda p: (1.5, 2.0, 4.0, 8.0),
        reduction=lambda p: (1.0 + p, 1.0 + p, 1.0),
    ),
    Family.GEOMETRIC_DELETION: _Law(
        mean=lambda x, p: x * p / (1.0 - p),
        stddev=lambda x, p: math.sqrt(x * p) / (1.0 - p),
        support=lambda x: (0, math.inf),
        log_pmf=lambda ys, x, logp, log1mp, lg: (
            lg(ys + x) - lg(x) - lg(ys + 1) + x * log1mp + ys * logp
        ),
        pgf_factor=lambda z, p: (1.0 - p) / (1.0 - p * z),
        chernoff_zs=_spread_zs,
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


def output_log_pmf(channel: RepeatChannel, x: int, y, log_gamma=gammaln):
    """log Y_x(y) for the memoryless integer channel; -inf outside support.

    y may be a nonnegative integer or an array of them; the result matches
    its shape.  Everything is computed through log-gamma, never factorial
    products, so x in the hundreds stays exact to ~1e-13 relative.
    log_gamma is only ever called on positive integers (Python ints or int64
    arrays); a gap scan passes a lookup into one precomputed gammaln array,
    which gives the same values bit for bit.
    """
    x = _require_input(x)
    y_arr = np.asarray(y)
    scalar = y_arr.ndim == 0
    yy = np.atleast_1d(y_arr).astype(np.int64, copy=False)
    if np.any(yy < 0):
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


# Y_x's truncated support ends this many standard deviations above its mean.
_SUPPORT_STDS = 40.0


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
        return self._law.stddev(self.x, self.channel.p)

    @property
    def support(self) -> tuple[int, float]:
        return self._law.support(self.x)

    def pgf(self, z: float) -> float:
        """E[z^Y_x] for z in [0, 1]."""
        if not 0.0 <= z <= 1.0:
            raise ValueError(f"pgf requires z in [0, 1], got {z}")
        return self._law.pgf_factor(z, self.channel.p) ** self.x

    def truncated_support(self) -> np.ndarray:
        """Integer grid from the support floor to truncated_top."""
        return np.arange(self.support[0], self.truncated_top() + 1, dtype=np.int64)

    def truncated_top(self) -> int:
        """The last point of truncated_support: mean + _SUPPORT_STDS stddevs
        rounded up, capped by the support."""
        return int(min(self.support[1], math.ceil(self.mean + _SUPPORT_STDS * self.stddev)))
