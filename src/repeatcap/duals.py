"""Candidate dual output distributions and their KL-gap structure.

Each channel family gets a one-parameter family of candidate output
distributions Y^(q) on the integers whose KL radius D_KL(Y_x || Y^(q)) is
affine in E[Y_x] up to a gap Delta(x) >= 0:

    sticky:       Y(y) propto q^y exp(g(y) - y h(p)),        y >= 1,
                  g(y) = log (y-1)! - Lambda1(y) - Lambda2(y), zero gap
    duplication:  Y(y) propto q^y exp(g(y) - y h(p)/(1+p)),  y >= 1,
                  g(y) = Lambda1 - Lambda2 - Lambda3, zero gap
    deletion, convexity:  Y(y) propto C(y/p - 1, y) q^y exp(-y h(p)/p),
                  y >= 0 with weight 1 at 0; gap -> 1/2
    deletion, truncated:  weights from Lambda integrals truncated to
                  t in [0, 2p/(1+2p)]; gap identically R_p(x)
    inverse binomial:     C(y/p, y) q^y exp(-y h(p)/p); equals the
                  convexity family with the y = 0 mass set to delta = 1-p

The Lambda functions are integrals of the form int_0^1 f(y, t) dt whose
integrands have removable singularities at t = 0 and a 1/log(1-t) factor
at t = 1.  They are evaluated after the substitution v = -log(1-t) (see
numerics), with numerators regrouped through expm1/log1p so the t -> 0
cancellation stays benign, and with analytic Taylor limits taking over
where even that form runs out of mantissa.

A dual may have its mass at y = 0 rescaled to alpha*delta (delta in (0,1]);
the normalizers then satisfy 1/alpha = delta + 1/y0 - 1 and the KL-gap
transforms as Delta_delta(x) = Delta(x) - d log delta + d^x log delta with
d = 1 - p.

Everything q-independent (the Lambda values, hence the shifted log-weights
S(y) = g(y) - y * rate) is cached per (variant, p) in lazily grown tables,
because the bound optimization evaluates many q against the same table.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np
from scipy.special import gammaln

from repeatcap.channels import (
    ConditionalOutputLaw,
    Family,
    RepeatChannel,
    _pgf_factor,
    output_mean,
)
from repeatcap.numerics import (
    SeriesSpec,
    binary_entropy,
    integrate_exp_tail,
    integrate_mapped,
    log_integral_li,
    sum_series,
)


class DualVariant(enum.Enum):
    STICKY_ZERO_GAP = "sticky-zero-gap"
    DUPLICATION_ZERO_GAP = "duplication-zero-gap"
    GEOMDEL_CONVEXITY = "geomdel-convexity"
    GEOMDEL_TRUNCATED = "geomdel-truncated"
    INVERSE_BINOMIAL = "inverse-binomial"


# The numerators all have the shape 1 (+ t) - t*y*c - exp(A); evaluated
# literally they cancel to O(v^2) out of O(1) terms and lose half the
# mantissa by v ~ 1e-8.  Regrouped as -expm1(A) + t*(1 - y*c) with A built
# from log1p, the rounding noise in f is ~eps*(1 + y*c)/v, so the quadratic
# Taylor limit (relative error ~(1 + y*c)*v) takes over per element once
# v*(1 + y*c) drops below the crossover scale, where both errors are ~1e-8
# relative and shrinking on either side.
_LIMIT_VC = 2e-8


# The integrands below take a (n, 1) column of nodes v (see numerics) and
# return an (n, len(ys)) array.  Quantities that depend on v alone are
# computed per node with math and then broadcast over y.  numpy's vectorized
# expm1/log1p/exp round differently from libm on a few percent of inputs,
# and whether numpy takes its vector or its scalar route depends on the
# array's length and layout; with math a node's value does not depend on
# which other nodes share its column.


def _col(values) -> np.ndarray:
    return np.array(values, dtype=float).reshape(-1, 1)


def _finish(ys, v, nodes, t, num, coeff, limit) -> np.ndarray:
    """f = num / (-t v) * e^-v, with the Taylor limit limit() taking over
    wherever v (1 + y coeff) drops below _LIMIT_VC."""
    f = (num / (-t * v)) * _col([math.exp(-x) for x in nodes])
    if min(nodes) < _LIMIT_VC:
        mask = v * (1.0 + np.asarray(ys, dtype=float) * float(coeff)) < _LIMIT_VC
        f = np.where(mask, limit(), f)
    return f


def _sticky_f_limit(ys: np.ndarray, p: float, which: int) -> np.ndarray:
    if which == 1:
        return 1.0 + ys * (1.0 - p) * (ys * (1.0 - p) - 3.0 - p) / 2.0
    return ys * (ys + 1.0) * p * p / 2.0


def _sticky_f(ys: np.ndarray, v, p: float, which: int) -> np.ndarray:
    """f_which(y, t(v)) * e^-v for the sticky Lambda integrals, vector over y."""
    nodes = v[:, 0].tolist()
    ts = [-math.expm1(-x) for x in nodes]
    t = _col(ts)
    if which == 1:
        # log((1-t)/(1-pt))
        log_ratio = _col([-x - math.log1p(p * math.expm1(-x)) for x in nodes])
        num = -np.expm1(ys * log_ratio + v) + t * (1.0 - ys * (1.0 - p))
        coeff = 1.0 - p
    else:
        log_1pt = _col([math.log1p(p * tt) for tt in ts])
        num = -np.expm1(-ys * log_1pt) - t * ys * p
        coeff = p
    return _finish(ys, v, nodes, t, num, coeff, lambda: _sticky_f_limit(ys, p, which))


def _dup_f_limit(ys: np.ndarray, p: float, k: float) -> np.ndarray:
    return k * k * (ys * (ys - 1.0) / (2.0 * (1.0 + p) ** 2) - ys * p / (1.0 + p) ** 3)


def _dup_log_w(t: float, p: float, k: float) -> float:
    # w is the root in (0, 1] of the quadratic in the integrand.  For small
    # t it is computed through w - 1 = -4kt(1-kt)/((B + sqrt(disc)) *
    # (sqrt(disc) + 1 - p)), B = 1 + p - 2kt, which is cancellation-free;
    # for t near 1 the direct rationalized form is used instead (the w - 1
    # route degenerates to 0/0 at k = 1, t = 1).
    disc = (1.0 + p) ** 2 - 4.0 * p * k * t
    sq = math.sqrt(disc)
    if t < 0.5:
        u = -4.0 * k * t * (1.0 - k * t) / ((1.0 + p - 2.0 * k * t + sq) * (sq + 1.0 - p))
        return math.log1p(u)
    w = 2.0 * (1.0 - k * t) / (sq + 1.0 - p)
    return math.log(w) if w > 0.0 else -math.inf


def _dup_f(ys: np.ndarray, v, p: float, k: float) -> np.ndarray:
    """Duplication Lambda integrand in v coordinates; k in {1, p, 1-p}."""
    nodes = v[:, 0].tolist()
    ts = [-math.expm1(-x) for x in nodes]
    t = _col(ts)
    log_w = _col([_dup_log_w(tt, p, k) for tt in ts])
    num = -np.expm1(ys * log_w) - t * ys * k / (1.0 + p)
    return _finish(ys, v, nodes, t, num, k, lambda: _dup_f_limit(ys, p, k))


def _trunc_f_limit(ys: np.ndarray, p: float, which: int) -> np.ndarray:
    c = (1.0 - p) / p if which == 1 else 1.0 / p
    return 1.0 - 2.0 * ys * c + c * c * ys * (ys - 1.0) / 2.0


def _trunc_f(ys: np.ndarray, v, p: float, which: int) -> np.ndarray:
    """Truncated-deletion Lambda integrand on v in [0, log(1+2p)].

    The base w of the inner power is (1 - d e^v)/p (which=1) or
    ((1+p) - e^v)/p (which=2); both equal 1 - c*(e^v - 1) with c the same
    constant that multiplies y, both live in [-1, 1] on the domain (w2 hits
    -1 exactly at the right endpoint), and w1 crosses zero inside it when
    p < 1/2.  Nodes with w > 0 regroup the numerator through expm1/log1p;
    at nodes with w <= 0 integer powers are taken as signed powers of |w|
    (no small-v cancellation is possible there).
    """
    nodes = v[:, 0].tolist()
    t = _col([-math.expm1(-x) for x in nodes])
    c = (1.0 - p) / p if which == 1 else 1.0 / p
    tev = [math.expm1(x) for x in nodes]  # t * e^v
    w = [1.0 - c * x for x in tev]
    pos = np.array([wi > 0.0 for wi in w])
    num = np.empty((len(nodes), ys.size))
    if pos.any():
        log_w = _col([math.log1p(-c * x) for x, wi in zip(tev, w) if wi > 0.0])
        num[pos] = -np.expm1(ys * log_w + v[pos]) + t[pos] * (1.0 - ys * c)
    if not pos.all():
        neg = ~pos
        log_aw = _col([math.log(-wi) if wi < 0.0 else -math.inf for wi in w if not wi > 0.0])
        sgn = np.where(ys % 2 == 1, -1.0, 1.0)
        with np.errstate(invalid="ignore"):
            pw = sgn * np.exp(ys * log_aw)
        pw = np.where(ys == 0, 1.0, pw)
        ev = _col([math.exp(x) for x, wi in zip(nodes, w) if not wi > 0.0])
        num[neg] = 1.0 + t[neg] - t[neg] * ys * c - pw * ev
    return _finish(ys, v, nodes, t, num, c, lambda: _trunc_f_limit(ys, p, which))


def _trunc_breaks(p: float) -> np.ndarray:
    v_t = math.log1p(2.0 * p)
    return np.unique(np.concatenate(([0.0], np.geomspace(1e-9, v_t, 50))))


@dataclass(frozen=True)
class _Spec:
    """The q-free facts of one dual variant.

    S(y) = g(ys, p, lambdas) - drift(ys, p), each written in the operation
    order the tables are built with.  The lambdas are the integrals of
    f(ys, v, p, key) over v for each key in keys(p), with t -> 0 limits
    f_limit(ys, p, key): over the exp tail [0, 60], or over [0, log(1+2p)]
    for the truncated construction.  gap_limit is the KL-gap's x -> infinity
    limit at delta = 1, weight_shift a constant added to every log-weight,
    and s_table another variant whose S-table this one reads.
    """

    family: Family
    g: Callable
    drift: Callable
    gap_limit: Callable[[float], float]
    f: Callable | None = None
    f_limit: Callable | None = None
    keys: Callable[[float], tuple] = lambda p: ()
    truncated: bool = False
    weight_shift: Callable[[float], float] = lambda p: 0.0
    s_table: DualVariant | None = None


_CONVEXITY_SPEC = _Spec(
    Family.GEOMETRIC_DELETION,
    g=lambda ys, p, lam: gammaln(ys / p) - gammaln(ys + 1.0) - gammaln(ys * (1.0 - p) / p),
    drift=lambda ys, p: ys * binary_entropy(p) / p,
    gap_limit=lambda p: 0.5,
)

_SPECS = {
    DualVariant.STICKY_ZERO_GAP: _Spec(
        Family.GEOMETRIC_STICKY,
        g=lambda ys, p, lam: gammaln(ys) - lam[0] - lam[1],
        drift=lambda ys, p: ys * binary_entropy(p),
        gap_limit=lambda p: 0.0,
        f=_sticky_f,
        f_limit=_sticky_f_limit,
        keys=lambda p: (1, 2),
    ),
    DualVariant.DUPLICATION_ZERO_GAP: _Spec(
        Family.ELEMENTARY_DUPLICATION,
        g=lambda ys, p, lam: lam[0] - lam[1] - lam[2],
        drift=lambda ys, p: ys * binary_entropy(p) / (1.0 + p),
        gap_limit=lambda p: 0.0,
        f=_dup_f,
        f_limit=_dup_f_limit,
        keys=lambda p: (1.0, p, 1.0 - p),
    ),
    DualVariant.GEOMDEL_CONVEXITY: _CONVEXITY_SPEC,
    DualVariant.GEOMDEL_TRUNCATED: _Spec(
        Family.GEOMETRIC_DELETION,
        g=lambda ys, p, lam: lam[1] - lam[0] - gammaln(ys + 1.0),
        drift=lambda ys, p: ys * (log_integral_li(1.0 / (1.0 + 2.0 * p)) + binary_entropy(p) / p),
        gap_limit=lambda p: 0.0,
        f=_trunc_f,
        f_limit=_trunc_f_limit,
        keys=lambda p: (1, 2),
        truncated=True,
    ),
    # C(y/p - 1, y) = (1-p) C(y/p, y): the convexity table shifted by -log(1-p).
    DualVariant.INVERSE_BINOMIAL: replace(
        _CONVEXITY_SPEC,
        gap_limit=lambda p: 0.5 - math.log1p(-p),
        weight_shift=lambda p: -math.log1p(-p),
        s_table=DualVariant.GEOMDEL_CONVEXITY,
    ),
}

_VARIANT_FAMILY = {variant: spec.family for variant, spec in _SPECS.items()}
_DELETION_VARIANTS = tuple(
    v for v, family in _VARIANT_FAMILY.items() if family is Family.GEOMETRIC_DELETION
)


def _as_y_array(y) -> tuple[np.ndarray, bool]:
    arr = np.asarray(y, dtype=float)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def _quad_tol(ys: np.ndarray) -> float:
    # Lambda(y) grows like y log y; an absolute tolerance independent of y
    # would be unattainable in doubles for y ~ 1e5.
    return 1e-10 * max(1.0, float(ys[-1]))


def _scale_chunks(ys: np.ndarray):
    # The integrands peak near v ~ 1/y, so a block spanning decades of y
    # would force one panel set to resolve every scale at once (and pay
    # extended precision across all of them).  Chunking ascending y
    # geometrically keeps each integration call single-scale.
    lo = 0
    while lo < ys.size:
        hi = lo + 1
        while hi < ys.size and ys[hi] < 4.0 * ys[lo]:
            hi += 1
        yield ys[lo:hi]
        lo = hi


def _lambdas(spec: _Spec, ys: np.ndarray, p: float) -> list[np.ndarray]:
    """The variant's Lambda integrals over one single-scale chunk of y,
    stacked into one quadrature."""
    keys = spec.keys(p)
    if not keys:
        return []
    stacked = lambda v: np.concatenate([spec.f(ys, v, p, k) for k in keys], axis=-1)
    lims0 = np.concatenate([spec.f_limit(ys, p, k) for k in keys])
    if spec.truncated:
        val, _ = integrate_mapped(
            stacked,
            0.0,
            math.log1p(2.0 * p),
            endpoint_limits=(lims0, None),
            abs_tol=_quad_tol(ys),
            breakpoints=_trunc_breaks(p),
            max_panels=1024,
        )
    else:
        val, _ = integrate_exp_tail(
            stacked,
            0.0,
            endpoint_limits=(lims0, np.zeros(lims0.size)),
            abs_tol=_quad_tol(ys),
            max_panels=1024,
        )
    return np.split(val, len(keys))


def _lambda_view(variant: DualVariant, y, p: float, name: str, y_min=1.0) -> tuple:
    """The variant's Lambda integrals at y (a scalar, or an array in any
    order), one per key, through the same chunked quadrature as the S-table."""
    ys, scalar = _as_y_array(y)
    if np.any(ys < y_min):
        raise ValueError(f"{name} requires y >= {y_min:g}")
    uniq, back = np.unique(ys, return_inverse=True)
    chunks = [_lambdas(_SPECS[variant], chunk, p) for chunk in _scale_chunks(uniq)]
    vals = [np.concatenate(parts)[back] for parts in zip(*chunks)]
    return tuple(float(v[0]) for v in vals) if scalar else tuple(vals)


def _g_view(variant: DualVariant, y, p: float, name: str):
    ys, scalar = _as_y_array(y)
    val = _SPECS[variant].g(ys, p, _lambda_view(variant, ys, p, name))
    return float(val[0]) if scalar else val


def lambda1_sticky(y, p: float):
    """Lambda_1(y) = int_0^1 f_1(y, t) dt for the sticky construction.

    Grows like log Gamma(y(1-p)); the t -> 0 limit of f_1 is
    1 + y(1-p)(y(1-p) - 3 - p)/2 and the t -> 1 limit is 0.
    """
    return _lambda_view(DualVariant.STICKY_ZERO_GAP, y, p, "lambda1_sticky")[0]


def lambda2_sticky(y, p: float):
    """Lambda_2(y), companion to lambda1_sticky; grows like log Gamma(1+yp)."""
    return _lambda_view(DualVariant.STICKY_ZERO_GAP, y, p, "lambda2_sticky")[1]


def g_sticky(y, p: float):
    """g(y) = log (y-1)! - Lambda_1(y) - Lambda_2(y).

    Satisfies y h(p) - g(y) = (1/2) log y + O(1), which is what makes the
    dual weights q^y exp(g(y) - y h(p)) behave like q^y / sqrt(y).
    """
    return _g_view(DualVariant.STICKY_ZERO_GAP, y, p, "g_sticky")


def lambdas_duplication(y, p: float):
    """The three duplication Lambda integrals (coefficients k = 1, p, 1-p).

    The integrands extend continuously to [0, 1]; the t -> 0 limits are
    k^2 (y(y-1)/(2(1+p)^2) - y p/(1+p)^3) and the t -> 1 limits are 0.
    """
    return _lambda_view(DualVariant.DUPLICATION_ZERO_GAP, y, p, "lambdas_duplication")


def g_duplication(y, p: float):
    """g(y) = Lambda_1(y) - Lambda_2(y) - Lambda_3(y) for duplication."""
    return _g_view(DualVariant.DUPLICATION_ZERO_GAP, y, p, "g_duplication")


def lambda_trunc_geomdel(y, p: float):
    """The two truncated-deletion Lambda integrals over t in [0, 2p/(1+2p)]."""
    return _lambda_view(DualVariant.GEOMDEL_TRUNCATED, y, p, "lambda_trunc_geomdel", 0.0)


def r_p(x, p: float):
    """R_p(x): the KL-gap of the truncated deletion dual, nonnegative and
    exponentially decaying in x.

    R_p(x) = -int_T^1 (1-t)^(x-1) (1 - ((1-p)/(1-p(1-t)))^x) / (t log(1-t)) dt
    with T = 2p/(1+2p); in v coordinates the integrand is
    exp(-x v) (1 - (d/(1 - p e^-v))^x) / (t v) on [log(1+2p), inf).
    """
    xs, scalar = _as_y_array(x)
    if np.any(xs < 1.0):
        raise ValueError("r_p requires x >= 1")
    d = 1.0 - p
    v_t = math.log1p(2.0 * p)

    def fv(v: np.ndarray) -> np.ndarray:
        nodes = v[:, 0].tolist()
        ratio = _col([d / (1.0 - p * math.exp(-x)) for x in nodes])
        tv = _col([-math.expm1(-x) * x for x in nodes])
        return np.exp(-xs * v) * (1.0 - ratio**xs) / tv

    val, _ = integrate_exp_tail(fv, v_t, span=60.0, abs_tol=1e-12, left_cluster=False)
    return float(val[0]) if scalar else val


def r_p_envelope(p: float) -> float:
    """I_p = int_T^1 dt / (-t log(1-t)); R_p(x) <= (1+2p)^-(x-1) * I_p."""
    v_t = math.log1p(2.0 * p)

    def fv(v: np.ndarray) -> np.ndarray:
        return np.array([math.exp(-x) / (-math.expm1(-x) * x) for x in v[:, 0].tolist()])

    val, _ = integrate_exp_tail(fv, v_t, span=60.0, abs_tol=1e-12, left_cluster=False)
    return float(val)


_TABLE_STEP = 1024


class _STable:
    """Lazily grown table of the q-free log-weight part S(y), y = 1..n.

    S(y) = g(y) - y * rate, so a dual's log-weight is S(y) + y log q.  A
    request past the end grows the table to the requested size rounded up
    to a multiple of _TABLE_STEP, so the table holds little more than the
    series read (every entry costs quadrature); growth is serialized by a
    lock so DualDistribution instances can be shared across threads.
    """

    def __init__(self, variant: DualVariant, p: float):
        self.variant = variant
        self.p = p
        self._lock = threading.Lock()
        self._vals = np.empty(0, dtype=float)

    def upto(self, ymax: int) -> np.ndarray:
        """S values for y = 1..ymax as a slice (do not mutate)."""
        if ymax > self._vals.size:
            with self._lock:
                if ymax > self._vals.size:
                    new_size = -(-ymax // _TABLE_STEP) * _TABLE_STEP
                    lo = self._vals.size + 1
                    block = np.arange(lo, new_size + 1, dtype=float)
                    self._vals = np.concatenate((self._vals, self._compute(block)))
        return self._vals[:ymax]

    def _compute(self, ys: np.ndarray) -> np.ndarray:
        spec, p = _SPECS[self.variant], self.p
        return np.concatenate([
            spec.g(chunk, p, _lambdas(spec, chunk, p)) - spec.drift(chunk, p)
            for chunk in _scale_chunks(ys)
        ])


_TABLES: dict[tuple[DualVariant, float], _STable] = {}
# Convexity gap scans by (p, x_max).  bounds fills it around its own
# convexity_gap_scan lookup; it lives here so clear_caches empties it too.
_DELTA_SCANS: dict[tuple[float, int], np.ndarray] = {}
_TABLES_LOCK = threading.Lock()


def _get_table(variant: DualVariant, p: float) -> _STable:
    kind = _SPECS[variant].s_table or variant
    key = (kind, float(p))
    with _TABLES_LOCK:
        table = _TABLES.get(key)
        if table is None:
            table = _STable(kind, float(p))
            _TABLES[key] = table
    return table


def clear_caches() -> None:
    """Empty every q-free cache: the S-tables and the gap scans."""
    with _TABLES_LOCK:
        _TABLES.clear()
        _DELTA_SCANS.clear()


@dataclass(frozen=True)
class DualDistribution:
    """A tabulated candidate output distribution.

    pmf(0) = exp(-log_normalizer) * delta for the deletion-family variants
    (their weight convention fixes a(0) = 1, so delta = 1 reproduces the
    unmodified distribution); pmf(y) = exp(log_weight(y) - log_normalizer)
    for y >= 1.  log_normalizer is log(1/alpha) = log(delta + sum a(y)),
    equal to log(1/y0) when delta = 1.  truncation records where the
    normalizer series stopped and the geometric bound on what was dropped.
    """

    variant: DualVariant
    p: float
    q: float
    delta: float
    log_normalizer: float
    mean: float
    truncation: tuple[int, float]
    series_converged: bool
    _table: _STable = field(repr=False, compare=False)

    @property
    def support_start(self) -> int:
        return 0 if self.variant in _DELETION_VARIANTS else 1

    @property
    def weight_shift(self) -> float:
        return _SPECS[self.variant].weight_shift(self.p)

    def log_weight(self, y):
        """log a(y) for y >= support_start (a(0) = 1 for deletion variants)."""
        ys, scalar = _as_y_array(y)
        yi = ys.astype(np.int64)
        if np.any(yi < self.support_start):
            raise ValueError("y below the dual's support")
        ymax = int(yi.max())
        table = self._table.upto(max(ymax, 1))
        logq = math.log(self.q)
        safe = np.maximum(yi, 1)
        out = table[safe - 1] + self.weight_shift + safe * logq
        out = np.where(yi == 0, 0.0, out)
        return float(out[0]) if scalar else out

    def log_pmf(self, y):
        ys, scalar = _as_y_array(y)
        yi = ys.astype(np.int64)
        out = np.empty(yi.shape, dtype=float)
        zero = yi == 0
        if np.any(zero):
            if self.support_start == 1:
                out[zero] = -math.inf
            else:
                out[zero] = math.log(self.delta) - self.log_normalizer
        rest = ~zero
        if np.any(rest):
            out[rest] = self.log_weight(yi[rest]) - self.log_normalizer
        return float(out[0]) if scalar else out


# The dual series stop once the geometric tail bound falls below this share
# of the partial sum, and give up (series_converged False) after this many
# terms.
_SERIES_REL_TOL = 1e-12
_SERIES_HARD_CAP = 2_000_000


def build_dual(
    variant: DualVariant,
    p: float,
    q: float,
    delta: float = 1.0,
) -> DualDistribution:
    """Construct the dual: sum its normalizer and mean series off the cached
    weight table.

    On _SERIES_HARD_CAP exhaustion the distribution is still returned with
    series_converged False and the unresolved tail bound in truncation;
    the caller decides whether to accept it.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    variant = DualVariant(variant)
    if variant not in _DELETION_VARIANTS and delta != 1.0:
        raise ValueError("mass modification at y = 0 requires support at y = 0")
    table = _get_table(variant, p)
    dual = partial(DualDistribution, variant, float(p), float(q), float(delta), _table=table)
    # A weight series with geometric ratio q needs at least ~28/(1-q) terms
    # to push the relative tail under 1e-12 (the weights decay like
    # q^y / sqrt(y)); refuse upfront when even an underestimate of that
    # exceeds the cap, rather than paying for a doomed summation.
    if 25.0 / (1.0 - q) > _SERIES_HARD_CAP:
        return dual(math.nan, math.nan, (0, math.inf), False)
    logq = math.log(q)
    shift = _SPECS[variant].weight_shift(p)

    def log_term(ys: np.ndarray) -> np.ndarray:
        vals = table.upto(int(ys[-1]))
        return vals[ys - 1] + shift + ys * logq

    def ratio(ys: np.ndarray) -> np.ndarray:
        vals = table.upto(int(ys[-1]) + 1)
        return np.exp(vals[ys] - vals[ys - 1] + logq)

    def log_term_mean(ys: np.ndarray) -> np.ndarray:
        return log_term(ys) + np.log(ys)

    def ratio_mean(ys: np.ndarray) -> np.ndarray:
        return ratio(ys) * (ys + 1.0) / ys

    norm = sum_series(SeriesSpec(log_term, 1, ratio, _SERIES_REL_TOL, _SERIES_HARD_CAP))
    mean_num = sum_series(
        SeriesSpec(log_term_mean, 1, ratio_mean, _SERIES_REL_TOL, _SERIES_HARD_CAP)
    )
    if variant in _DELETION_VARIANTS:
        log_normalizer = float(np.logaddexp(math.log(delta), norm.log_sum))
    else:
        log_normalizer = norm.log_sum
    return dual(
        log_normalizer,
        math.exp(mean_num.log_sum - log_normalizer),
        (max(norm.terms_used, mean_num.terms_used), norm.tail_bound),
        norm.converged and mean_num.converged,
    )


def _check_pairing(channel: RepeatChannel, dual: DualDistribution) -> None:
    if _VARIANT_FAMILY[dual.variant] is not channel.family:
        raise ValueError(
            f"dual variant {dual.variant.value} does not match channel family "
            f"{channel.family.value}"
        )
    if channel.p != dual.p:
        raise ValueError("channel and dual disagree on p")


def _tail_mass_bound(channel: RepeatChannel, x: int, cutoff: int) -> float:
    """Chernoff bound on P(Y_x > cutoff) via min_z pgf(z) / z^cutoff."""
    p = channel.p
    if channel.family is Family.ELEMENTARY_DUPLICATION:
        if cutoff >= 2 * x:
            return 0.0
        zs = (1.5, 2.0, 4.0, 8.0)
    else:
        zs = tuple(1.0 + (1.0 / p - 1.0) * f for f in (0.25, 0.5, 0.75))
    best = math.inf
    for z in zs:
        log_bound = x * math.log(_pgf_factor(channel, z)) - cutoff * math.log(z)
        best = min(best, math.exp(min(log_bound, 700.0)))
    return best


def kl_divergence(channel: RepeatChannel, x: int, dual: DualDistribution) -> float:
    """D_KL(Y_x || dual) in nats by summation over Y_x's truncated support.

    The support is cut at mean + 40 stddev; the discarded mass is checked
    against a Chernoff bound and must be below 1e-12.  Returns inf if Y_x
    puts mass where the dual has none (a pairing bug, not a number).
    """
    _check_pairing(channel, dual)
    law = ConditionalOutputLaw(channel, x)
    ys = law.truncated_support(40.0)
    tail = _tail_mass_bound(channel, x, int(ys[-1]))
    if tail > 1e-12:
        raise RuntimeError(
            f"truncated support leaves tail mass {tail:.2e} > 1e-12 for x = {x}"
        )
    lp = law.log_pmf(ys)
    pm = np.exp(lp)
    ld = dual.log_pmf(ys)
    live = pm > 0.0
    if np.any(live & np.isneginf(ld)):
        return math.inf
    contrib = np.where(live, pm * (lp - ld), 0.0)
    return float(np.sum(contrib))


@dataclass(frozen=True)
class KLGapProfile:
    """Gap of D_KL(Y_x || dual) below the affine line slope*E[Y_x] + intercept.

    limit_candidate is the analytic large-x limit of the gap: 0 for the
    zero-gap families and the truncated variant, 1/2 for the convexity
    variant, 1/2 - log(1-p) for the inverse binomial, each shifted by
    -(1-p) log delta when the mass at zero is modified.
    """

    line_slope: float
    line_intercept: float
    gaps: dict[int, float]
    limit_candidate: float | None = None


def kl_gap_profile(
    channel: RepeatChannel, dual: DualDistribution, x_max: int
) -> KLGapProfile:
    """Evaluate the KL-gap for x = 1..x_max against the dual's bound line."""
    _check_pairing(channel, dual)
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    slope = -math.log(dual.q)
    d = 1.0 - dual.p
    intercept = dual.log_normalizer
    limit = _SPECS[dual.variant].gap_limit(dual.p)
    if dual.variant in _DELETION_VARIANTS:
        intercept -= d * math.log(dual.delta)
        limit -= d * math.log(dual.delta)
    gaps: dict[int, float] = {}
    for x in range(1, x_max + 1):
        mu_x = output_mean(channel, x)
        gaps[x] = intercept + slope * mu_x - kl_divergence(channel, x, dual)
    return KLGapProfile(
        line_slope=slope, line_intercept=intercept, gaps=gaps, limit_candidate=limit
    )


def epsilon_inf(channel: RepeatChannel, dual: DualDistribution, x_max: int = 500) -> float:
    """inf over x >= 1 of the KL-gap: min of the scan and the analytic limit."""
    profile = kl_gap_profile(channel, dual, x_max)
    lo = min(profile.gaps.values())
    if profile.limit_candidate is not None:
        lo = min(lo, profile.limit_candidate)
    return lo


def convexity_gap_scan(p: float, x_max: int) -> np.ndarray:
    """Delta(x) for x = 1..x_max for the convexity deletion dual.

    The gap is independent of q (both -log y0 and the E[Y_x] log q term
    cancel against the weight's q^y factor), so it reduces to
    H(Y_x) + E[S(Y_x)] with S the cached q-free log-weight part.  This is
    the fast path the bound optimizer uses; the generic route through
    kl_gap_profile computes the same numbers from any built dual.
    """
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    channel = RepeatChannel(Family.GEOMETRIC_DELETION, p)
    table = _get_table(DualVariant.GEOMDEL_CONVEXITY, p)
    out = np.empty(x_max, dtype=float)
    for x in range(1, x_max + 1):
        law = ConditionalOutputLaw(channel, x)
        ys = law.truncated_support(40.0)
        lp = law.log_pmf(ys)
        pm = np.exp(lp)
        entropy = -float(np.dot(pm, lp))
        pos = ys >= 1
        svals = table.upto(int(ys[-1]))
        out[x - 1] = entropy + float(np.dot(pm[pos], svals[ys[pos] - 1]))
    return out
