"""Repeat-channel families and their associated memoryless integer channels.

A repeat channel replaces each input bit by D i.i.d. copies of itself.  The
families here are parametrized by a replication probability p in (0, 1)
(or a mean for the Poisson family):

    geometric sticky       D(y) = (1-p) p^(y-1),  y >= 1
    elementary duplication D(1) = 1-p, D(2) = p
    geometric deletion     D(y) = (1-p) p^y,      y >= 0
    poisson repeat         D(y) = exp(-lam) lam^y / y!

Grouping the output by input runs reduces each to a memoryless channel on
the positive integers whose conditional output law Y_x for input x is

    sticky:       x + NegBin(x, p)   pmf C(y-1, x-1) (1-p)^x p^(y-x), y >= x
    duplication:  x + Bin(x, p)     pmf C(x, y-x) (1-p)^(2x-y) p^(y-x)
    deletion:     NegBin(x, p)      pmf C(y+x-1, y) (1-p)^x p^y, y >= 0

The reduction needs three scalars per family: lam = E[D], lam_bar = E[D | D != 0],
and p_nonzero = P(D != 0).  The Poisson family is only ever sampled (by the
Monte Carlo simulator); it does not participate in the dual construction,
so its pmf and pgf accessors are deliberately not provided.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


class Family(enum.Enum):
    GEOMETRIC_STICKY = "geometric-sticky"
    ELEMENTARY_DUPLICATION = "duplication"
    GEOMETRIC_DELETION = "geometric-deletion"
    POISSON_REPEAT = "poisson-repeat"


_P_FAMILIES = (
    Family.GEOMETRIC_STICKY,
    Family.ELEMENTARY_DUPLICATION,
    Family.GEOMETRIC_DELETION,
)


@dataclass(frozen=True)
class RepeatChannel:
    """A channel family tag plus its parameter.

    param is the replication probability p in (0, 1) for the sticky,
    duplication, and deletion families, and the mean lam > 0 for the
    Poisson-repeat family.
    """

    family: Family
    param: float

    def __post_init__(self):
        if self.family in _P_FAMILIES:
            if not 0.0 < self.param < 1.0:
                raise ValueError(f"replication parameter must be in (0, 1), got {self.param}")
        elif self.family is Family.POISSON_REPEAT:
            if not self.param > 0.0:
                raise ValueError(f"Poisson mean must be positive, got {self.param}")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    @property
    def p(self) -> float:
        if self.family not in _P_FAMILIES:
            raise ValueError("p is only defined for the p-parametrized families")
        return self.param


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


def output_log_pmf(channel: RepeatChannel, x: int, y):
    """log Y_x(y) for the memoryless integer channel; -inf outside support.

    y may be a nonnegative integer or an array of them; the result matches
    its shape.  Everything is computed through log-gamma, never factorial
    products, so x in the hundreds stays exact to ~1e-13 relative.
    """
    x = _require_input(x)
    y_arr = np.asarray(y)
    scalar = y_arr.ndim == 0
    yy = np.atleast_1d(y_arr).astype(np.int64)
    if np.any(yy < 0):
        raise ValueError("y must be nonnegative")
    p = channel.p
    logp = math.log(p)
    log1mp = math.log1p(-p)
    if channel.family is Family.GEOMETRIC_STICKY:
        mask = yy >= x
        ys = np.where(mask, yy, x)
        out = (
            gammaln(ys)
            - gammaln(x)
            - gammaln(ys - x + 1)
            + x * log1mp
            + (ys - x) * logp
        )
    elif channel.family is Family.ELEMENTARY_DUPLICATION:
        mask = (yy >= x) & (yy <= 2 * x)
        ys = np.where(mask, yy, x)
        out = (
            gammaln(x + 1)
            - gammaln(ys - x + 1)
            - gammaln(2 * x - ys + 1)
            + (2 * x - ys) * log1mp
            + (ys - x) * logp
        )
    elif channel.family is Family.GEOMETRIC_DELETION:
        mask = np.ones_like(yy, dtype=bool)
        out = gammaln(yy + x) - gammaln(x) - gammaln(yy + 1) + x * log1mp + yy * logp
    else:
        raise ValueError(f"{channel.family.value} has no tabulated output law")
    out = np.where(mask, out, -math.inf)
    return float(out[0]) if scalar else out


def output_mean(channel: RepeatChannel, x: int) -> float:
    x = _require_input(x)
    p = channel.param
    if channel.family is Family.GEOMETRIC_STICKY:
        return x / (1.0 - p)
    if channel.family is Family.ELEMENTARY_DUPLICATION:
        return x * (1.0 + p)
    if channel.family is Family.GEOMETRIC_DELETION:
        return x * p / (1.0 - p)
    if channel.family is Family.POISSON_REPEAT:
        return x * p
    raise ValueError(f"unknown family {channel.family!r}")


def output_stddev(channel: RepeatChannel, x: int) -> float:
    x = _require_input(x)
    p = channel.param
    if channel.family is Family.GEOMETRIC_STICKY:
        return math.sqrt(x * p) / (1.0 - p)
    if channel.family is Family.ELEMENTARY_DUPLICATION:
        return math.sqrt(x * p * (1.0 - p))
    if channel.family is Family.GEOMETRIC_DELETION:
        return math.sqrt(x * p) / (1.0 - p)
    if channel.family is Family.POISSON_REPEAT:
        return math.sqrt(x * p)
    raise ValueError(f"unknown family {channel.family!r}")


def output_support(channel: RepeatChannel, x: int) -> tuple[int, float]:
    x = _require_input(x)
    if channel.family is Family.GEOMETRIC_STICKY:
        return (x, math.inf)
    if channel.family is Family.ELEMENTARY_DUPLICATION:
        return (x, 2 * x)
    if channel.family is Family.GEOMETRIC_DELETION:
        return (0, math.inf)
    raise ValueError(f"{channel.family.value} has no tabulated output law")


def _pgf_factor(channel: RepeatChannel, z: float) -> float:
    """The per-input pgf factor: E[z^Y_x] = factor^x.  The formulas hold
    past z = 1 too while they stay finite (p*z < 1 for sticky and
    deletion), which is where the Chernoff tail bounds in duals read them."""
    p = channel.p
    if channel.family is Family.GEOMETRIC_STICKY:
        return z * (1.0 - p) / (1.0 - p * z)
    if channel.family is Family.ELEMENTARY_DUPLICATION:
        return z * (1.0 - p + p * z)
    if channel.family is Family.GEOMETRIC_DELETION:
        return (1.0 - p) / (1.0 - p * z)
    raise ValueError(f"{channel.family.value} has no pgf accessor")


def pgf(channel: RepeatChannel, x: int, z: float) -> float:
    """E[z^Y_x] for z in [0, 1]."""
    x = _require_input(x)
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"pgf requires z in [0, 1], got {z}")
    return _pgf_factor(channel, z) ** x


def reduction_params(channel: RepeatChannel) -> ReductionParams:
    p = channel.p
    if channel.family is Family.GEOMETRIC_STICKY:
        return ReductionParams(1.0 / (1.0 - p), 1.0 / (1.0 - p), 1.0)
    if channel.family is Family.ELEMENTARY_DUPLICATION:
        return ReductionParams(1.0 + p, 1.0 + p, 1.0)
    if channel.family is Family.GEOMETRIC_DELETION:
        return ReductionParams(p / (1.0 - p), 1.0 / (1.0 - p), p)
    raise ValueError(f"no reduction for {channel.family.value}")


@dataclass(frozen=True)
class ConditionalOutputLaw:
    """The law of Y_x for a fixed input x, with log-pmf/mean/support access."""

    channel: RepeatChannel
    x: int

    def __post_init__(self):
        _require_input(self.x)
        output_support(self.channel, self.x)  # rejects families without a law

    def log_pmf(self, y):
        return output_log_pmf(self.channel, self.x, y)

    @property
    def mean(self) -> float:
        return output_mean(self.channel, self.x)

    @property
    def stddev(self) -> float:
        return output_stddev(self.channel, self.x)

    @property
    def support(self) -> tuple[int, float]:
        return output_support(self.channel, self.x)

    def pgf(self, z: float) -> float:
        return pgf(self.channel, self.x, z)

    def truncated_support(self, n_std: float = 40.0) -> np.ndarray:
        """Integer grid from the support floor to mean + n_std stddevs."""
        lo, hi = self.support
        cap = self.mean + n_std * self.stddev
        hi = min(hi, math.ceil(cap))
        return np.arange(lo, int(hi) + 1, dtype=np.int64)
