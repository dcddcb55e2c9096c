"""Numerical substrate: quadrature, special functions, series, 1-D search.

Every integral in this package is, after a change of variables, of the form

    I = int_a^b F(v) dv,    F smooth on (a, b) with finite endpoint limits,

but the raw integrands arrive with removable 0/0 singularities (both the
numerator and t*log(1-t) vanish at t = 0) and a slowly dying 1/log(1-t)
factor at t = 1.  Direct quadrature in t loses 4+ digits near both ends, so
callers are expected to substitute v = -log(1-t), which turns log(1-t) into
-v exactly and gives the integrand an exp(-v) tail.  The engine here then
only has to integrate smooth functions over finite subintervals of [0, 1]
(infinite or non-unit ranges are mapped affinely first).

The quadrature rule is the 7-point Gauss / 15-point Kronrod pair with
adaptive bisection.  All nodes are interior, so the integrand is never
evaluated at panel endpoints; analytic endpoint limits supplied by the
caller are used as substitutes if an evaluation adjacent to an endpoint
fails to be finite.  An integrand that accepts a (15, 1) column of nodes
is evaluated once per panel (see QuadratureProblem); any other integrand,
and any panel with a non-finite value, is evaluated node by node.

Series are summed in log-space (streaming log-sum-exp) with a geometric
tail bound term(Y)*r/(1-r) controlling truncation, which is valid because
every series we sum has eventually-decaying nonnegative terms with
term(y+1)/term(y) <= r(y) < 1 (the dual weights behave like q^y/sqrt(y)).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import expi, gammaln

__all__ = [
    "QuadratureProblem",
    "QuadratureError",
    "SeriesSpec",
    "SeriesResult",
    "OptimizeResult",
    "integrate",
    "integrate_mapped",
    "integrate_exp_tail",
    "log_gamma",
    "log_gamma_via_integral",
    "binary_entropy",
    "log_integral_li",
    "eta_integral",
    "sum_series",
    "maximize_concave",
]

# 7-point Gauss / 15-point Kronrod pair on [-1, 1] (QUADPACK dqk15 data).
_XGK = np.array(
    [
        0.9914553711208126,
        0.9491079123427585,
        0.8648644233597691,
        0.7415311855993944,
        0.5860872354676911,
        0.4058451513773972,
        0.2077849550078985,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.02293532201052922,
        0.06309209262997855,
        0.10479001032225018,
        0.14065325971552592,
        0.16900472663926790,
        0.19035057806478541,
        0.20443294007529889,
        0.20948214108472783,
    ]
)
_WG = np.array(
    [
        0.12948496616886969,
        0.27970539148927664,
        0.38183005050511894,
        0.41795918367346938,
    ]
)

# Full 15-node layout: -xgk[0..6], 0, +xgk[6..0].
_NODES15 = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_WEIGHTS15 = np.concatenate((_WGK[:-1], _WGK[::-1]))
_WEIGHTS7 = np.zeros(15)
_WEIGHTS7[[1, 3, 5]] = _WG[:3]
_WEIGHTS7[7] = _WG[3]
_WEIGHTS7[[9, 11, 13]] = _WG[2::-1]
# Rows: Kronrod (K15) and Gauss (G7) weights, applied in one product.
_KG_WEIGHTS = np.stack((_WEIGHTS15, _WEIGHTS7))

# Below this request, absolute tolerances are capped by the floating-point
# resolution of the accumulated integral magnitude (about 100 ulp).
_REL_FLOOR = 100.0 * np.finfo(float).eps


class QuadratureError(RuntimeError):
    """Raised when the subdivision budget cannot meet the tolerance.

    Carries the best value and error estimate achieved so the caller can
    decide whether to accept them anyway.
    """

    def __init__(self, message: str, value=None, err_estimate: float | None = None):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


@dataclass(frozen=True)
class QuadratureProblem:
    """An integral over a subinterval of [0, 1] with optional endpoint data.

    integrand(t) may return a float or a 1-D array (a stack of integrands
    sharing the same variable; they are integrated componentwise and the
    error estimate is the worst component).  endpoint_limits, when given,
    are the analytic limits of the integrand at lo and hi; they are only
    consulted if an evaluation next to an endpoint is non-finite, since the
    Kronrod nodes themselves never touch panel boundaries.

    An integrand may also accept the 15 nodes of a panel at once, as a
    (15, 1) column t, and return one row per node: shape (15, m) for an
    m-vector integrand, (15,) for a scalar one.  integrate finds this out
    by calling it: the column call must not raise TypeError or ValueError,
    must have that shape, and its middle row must equal a scalar call at
    the middle node.  Otherwise, and for every panel with a non-finite
    value, the integrand is called once per node, so endpoint limits and
    non-finite errors behave the same either way.
    """

    integrand: Callable
    interval: tuple[float, float]
    endpoint_limits: tuple | None = None
    abs_tol: float = 1e-10

    def __post_init__(self):
        lo, hi = self.interval
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError(f"interval must satisfy 0 <= lo < hi <= 1, got {self.interval}")
        if not (self.abs_tol > 0.0):
            raise ValueError("abs_tol must be positive")


def _eval_node(problem: QuadratureProblem, t: float):
    val = np.asarray(problem.integrand(t), dtype=float)
    if np.all(np.isfinite(val)):
        return val
    lo, hi = problem.interval
    if problem.endpoint_limits is not None:
        lim_lo, lim_hi = problem.endpoint_limits
        tol = 1e-9 * (hi - lo)
        if lim_lo is not None and abs(t - lo) <= tol:
            return np.broadcast_to(np.asarray(lim_lo, dtype=float), val.shape).copy()
        if lim_hi is not None and abs(hi - t) <= tol:
            return np.broadcast_to(np.asarray(lim_hi, dtype=float), val.shape).copy()
    raise QuadratureError(f"integrand returned a non-finite value at t = {t!r}")


def _panel_nodes(a: float, b: float) -> tuple[float, np.ndarray]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half, mid + half * _NODES15


def _eval_column(problem: QuadratureProblem, ts: np.ndarray, shape: tuple):
    """integrand at the node column ts as (15, *shape) values, or None when
    it cannot take a column or returns another shape."""
    try:
        vals = np.asarray(problem.integrand(ts[:, None]), dtype=float)
    except (TypeError, ValueError):
        return None
    return vals if vals.shape == (15, *shape) else None


def _probe_column(problem: QuadratureProblem, a: float, b: float):
    """(value shape, first panel's node values) when the integrand evaluates
    a node column as it evaluates single nodes (checked at the middle node
    of panel [a, b]), else (None, None)."""
    _, ts = _panel_nodes(a, b)
    one = np.asarray(problem.integrand(float(ts[7])), dtype=float)
    vals = _eval_column(problem, ts, one.shape)
    if vals is None or not np.array_equal(vals[7], one, equal_nan=True):
        return None, None
    return one.shape, vals


def _panel(problem: QuadratureProblem, a: float, b: float, shape=None, stack=None):
    """K15 value, |K15 - G7| and |K15| of one panel.

    shape is the value shape of a column-capable integrand (None: call it
    node by node); stack, when given, holds the panel's node values.
    """
    half, ts = _panel_nodes(a, b)
    if stack is None and shape is not None:
        stack = _eval_column(problem, ts, shape)
    if stack is None or not np.all(np.isfinite(stack)):
        stack = np.stack([_eval_node(problem, float(t)) for t in ts], axis=0)
    kg = half * (_KG_WEIGHTS @ stack.reshape(15, -1))
    k15 = kg[0].reshape(stack.shape[1:]).copy()  # not a view pinning kg
    err = float(np.max(np.abs(kg[0] - kg[1])))
    mag = float(np.max(np.abs(kg[0])))
    return k15, err, mag


def integrate(
    problem: QuadratureProblem,
    *,
    breakpoints: Sequence[float] | None = None,
    max_panels: int = 512,
):
    """Adaptively integrate the problem; returns (value, err_estimate).

    Bisects the panel with the worst Gauss/Kronrod discrepancy until the
    summed estimate falls below max(abs_tol, 100 ulp of the integral's
    magnitude).  breakpoints seed the initial subdivision (useful when the
    caller knows where the integrand concentrates).  Raises QuadratureError
    (carrying the partial result) if the budget is exhausted first.
    """
    lo, hi = problem.interval
    if breakpoints is None:
        edges = [lo, hi]
    else:
        inner = [float(x) for x in breakpoints if lo < x < hi]
        edges = sorted({lo, hi, *inner})
    shape, stack = _probe_column(problem, edges[0], edges[1])
    heap = []
    counter = 0
    for a, b in zip(edges[:-1], edges[1:]):
        k15, err, mag = _panel(problem, a, b, shape, stack)
        stack = None
        heapq.heappush(heap, (-err, counter, a, b, k15, err, mag))
        counter += 1
    while True:
        total_err = math.fsum(item[5] for item in heap)
        magnitude = math.fsum(item[6] for item in heap)
        if total_err <= max(problem.abs_tol, _REL_FLOOR * magnitude):
            break
        if len(heap) >= max_panels:
            value = _heap_sum(heap)
            raise QuadratureError(
                f"quadrature did not converge within {max_panels} panels: "
                f"err {total_err:.3e} > tol {problem.abs_tol:.3e}",
                value=value,
                err_estimate=total_err,
            )
        _, _, a, b, _, _, _ = heapq.heappop(heap)
        m = 0.5 * (a + b)
        for aa, bb in ((a, m), (m, b)):
            k15, err, mag = _panel(problem, aa, bb, shape)
            heapq.heappush(heap, (-err, counter, aa, bb, k15, err, mag))
            counter += 1
    value = _heap_sum(heap)
    return value, math.fsum(item[5] for item in heap)


def _heap_sum(heap):
    pieces = [item[4] for item in heap]
    if pieces[0].ndim == 0:
        return float(math.fsum(float(p) for p in pieces))
    return np.sum(pieces, axis=0)


def integrate_mapped(
    fv: Callable,
    lo: float,
    hi: float,
    *,
    endpoint_limits: tuple | None = None,
    abs_tol: float = 1e-10,
    breakpoints: Sequence[float] | None = None,
    max_panels: int = 512,
):
    """Integrate fv over an arbitrary finite [lo, hi] via an affine map to [0, 1].

    breakpoints here are in the v variable.  Endpoint limits are limits of
    fv itself (the Jacobian is applied internally).
    """
    span = hi - lo
    if not (span > 0.0 and math.isfinite(span)):
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")

    def mapped(u: float):
        return np.asarray(fv(lo + span * u), dtype=float) * span

    limits = None
    if endpoint_limits is not None:
        la, lb = endpoint_limits
        limits = (
            None if la is None else np.asarray(la, dtype=float) * span,
            None if lb is None else np.asarray(lb, dtype=float) * span,
        )
    ubreaks = None
    if breakpoints is not None:
        ubreaks = [(float(v) - lo) / span for v in breakpoints]
    problem = QuadratureProblem(mapped, (0.0, 1.0), endpoint_limits=limits, abs_tol=abs_tol)
    return integrate(problem, breakpoints=ubreaks, max_panels=max_panels)


def integrate_exp_tail(
    fv: Callable,
    lo: float,
    *,
    span: float = 60.0,
    endpoint_limits: tuple | None = None,
    abs_tol: float = 1e-10,
    left_cluster: bool = True,
    max_panels: int = 512,
):
    """Integrate fv over [lo, lo + span] for integrands with an exp(-v) tail.

    span = 60 truncates an exp(-v) factor at ~9e-27, far below every
    tolerance used in this package.  When left_cluster is set, the seed
    panels are geometrically concentrated at the left endpoint, where the
    v = -log(1-t) substitution parks the removable t = 0 singularity.
    """
    hi = lo + span
    if left_cluster:
        rel = np.geomspace(1e-9 / span, 1.0, 40)
        breaks = lo + span * rel[:-1]
    else:
        breaks = lo + span * np.linspace(0.0, 1.0, 17)[1:-1]
    return integrate_mapped(
        fv,
        lo,
        hi,
        endpoint_limits=endpoint_limits,
        abs_tol=abs_tol,
        breakpoints=breaks,
        max_panels=max_panels,
    )


def log_gamma(z):
    """log Gamma(z) for z > 0 (scalar or array)."""
    arr = np.asarray(z, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("log_gamma requires z > 0")
    out = gammaln(arr)
    if np.isscalar(z) or arr.ndim == 0:
        return float(out)
    return out


def log_gamma_via_integral(z: float, tol: float = 1e-10) -> float:
    """log Gamma(1+z) by quadrature of its integral representation.

    log Gamma(1+z) = int_0^1 (1 - t z - (1-t)^z) / (t log(1-t)) dt.

    After v = -log(1-t) the integrand becomes
    (z*t + exp(-v z) - 1) / (t v) * exp(-v) on [0, inf), with limit
    z(z-1)/2 at v = 0.  Evaluated in extended precision for small v where
    the numerator loses a factor of v to cancellation.
    """
    if z < 0.0:
        raise ValueError("log_gamma_via_integral requires z >= 0")
    if z == 0.0:
        return 0.0
    zf = float(z)

    def fv(v: float) -> float:
        if v < 1e-12:
            return zf * (zf - 1.0) / 2.0
        dt = np.longdouble if v < 1e-3 else float
        vv = dt(v)
        zz = dt(zf)
        t = -np.expm1(-vv)
        num = np.expm1(-vv * zz) - zz * np.expm1(-vv)
        return float(num / (t * vv) * np.exp(-vv))

    value, _ = integrate_exp_tail(
        fv,
        0.0,
        abs_tol=tol,
        endpoint_limits=(zf * (zf - 1.0) / 2.0, 0.0),
    )
    return float(value)


def binary_entropy(p: float, allow_endpoints: bool = False) -> float:
    """Binary entropy -p log p - (1-p) log(1-p) in nats."""
    if p in (0.0, 1.0):
        if allow_endpoints:
            return 0.0
        raise ValueError("binary_entropy requires 0 < p < 1 (or allow_endpoints=True)")
    if not 0.0 < p < 1.0:
        raise ValueError(f"binary_entropy requires p in (0, 1), got {p}")
    return float(-p * math.log(p) - (1.0 - p) * math.log1p(-p))


def log_integral_li(z: float) -> float:
    """Li(z) = int_0^z dt / log t for z in (0, 1); always negative there.

    Computed as Ei(log z), which equals the integral on (0, 1) where the
    integrand has no principal-value issue.
    """
    if not 0.0 < z < 1.0:
        raise ValueError(f"log_integral_li requires z in (0, 1), got {z}")
    return float(expi(math.log(z)))


def eta_integral(z: float) -> float:
    """eta(z) = int_0^z dt / ((1-t) log t) for z in (0, 1); negative there.

    Substituting t = exp(-u) gives -int_a^inf exp(-u) / ((1 - exp(-u)) u) du
    with a = -log z, a smooth integrand with an exponential tail.
    """
    if not 0.0 < z < 1.0:
        raise ValueError(f"eta_integral requires z in (0, 1), got {z}")
    a = -math.log(z)

    def fu(u: float) -> float:
        return math.exp(-u) / (-math.expm1(-u) * u)

    value, _ = integrate_exp_tail(fu, a, span=70.0, abs_tol=1e-11, left_cluster=False)
    return -float(value)


@dataclass(frozen=True)
class SeriesSpec:
    """A nonnegative series given by the log of its terms.

    geometric_tail_ratio_bound(y) must upper-bound term(y+1)/term(y) and be
    eventually < 1; the summation stops at the first index where the implied
    geometric tail term(y) * r/(1-r) drops below rel_tol times the partial
    sum.  log_term and the ratio bound are called with integer arrays.
    """

    log_term: Callable
    start_index: int
    rel_tol: float = 1e-12
    geometric_tail_ratio_bound: Callable | None = None
    hard_cap: int = 2_000_000


@dataclass(frozen=True)
class SeriesResult:
    log_sum: float
    terms_used: int
    tail_bound: float
    converged: bool


def _call_indexed(fn: Callable, ys: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(fn(ys), dtype=float)
        if out.shape == ys.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(int(y))) for y in ys], dtype=float)


def sum_series(spec: SeriesSpec, block: int = 4096) -> SeriesResult:
    """Sum the series in log-space; see SeriesSpec for the stopping rule.

    Terms are read in blocks that start at 256 and double up to block, so
    a short series reads (and makes its caller tabulate) few terms.
    """
    if spec.geometric_tail_ratio_bound is None:
        raise ValueError("SeriesSpec.geometric_tail_ratio_bound is required")
    log_rel = math.log(spec.rel_tol)
    log_sum = -math.inf
    used = 0
    y = int(spec.start_index)
    last_tail = math.inf
    size = min(256, block)
    while used < spec.hard_cap:
        n = min(size, spec.hard_cap - used)
        size = min(2 * size, block)
        ys = np.arange(y, y + n, dtype=np.int64)
        lt = _call_indexed(spec.log_term, ys)
        if np.any(np.isnan(lt)):
            raise ValueError("log_term returned NaN")
        prefix = np.logaddexp.accumulate(np.concatenate(([log_sum], lt)))[1:]
        r = _call_indexed(spec.geometric_tail_ratio_bound, ys)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_tail = np.where(r < 1.0, lt + np.log(r) - np.log1p(-r), math.inf)
        log_tail = np.where(np.isnan(log_tail), -math.inf, log_tail)  # r == 0, term == 0
        ok = log_tail <= log_rel + prefix
        idx = np.flatnonzero(ok)
        if idx.size > 0:
            k = int(idx[0])
            return SeriesResult(
                log_sum=float(prefix[k]),
                terms_used=used + k + 1,
                tail_bound=float(np.exp(log_tail[k])),
                converged=True,
            )
        log_sum = float(prefix[-1])
        used += n
        y += n
        if np.isfinite(log_tail[-1]):
            last_tail = float(np.exp(log_tail[-1]))
    return SeriesResult(log_sum=log_sum, terms_used=used, tail_bound=last_tail, converged=False)


@dataclass(frozen=True)
class OptimizeResult:
    arg: float
    value: float
    unimodal: bool
    n_evals: int


def maximize_concave(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-7,
    *,
    grid: Sequence[float] | None = None,
    quasiconcave: bool = False,
) -> OptimizeResult:
    """Maximize f on (lo, hi): grid scan, then golden-section refinement.

    Concavity is not assumed, so the scan checks unimodality.  If the
    scanned grid shows several local maxima, the top three are each refined
    and the best is returned, with unimodal=False as a diagnostic.

    quasiconcave=True asserts that f, wherever it is positive, cannot rise
    again once it has descended, and stops the scan after two consecutive
    strict descents (each by more than the noise tolerance of the
    unimodality check, 1e-13 * max(1, max |f|)) the first of which starts
    from a positive value.  unimodal and the refinement then describe the
    scanned part of the grid only.  The capacity objectives have this
    property: with theta = log q and
    Z = delta [deletion] + sum_y a(y) e^(theta y), log Z is convex in theta,
    so the dual mean mu = (log Z)' increases with q, and
    F(mu) = log Z - mu log q, the negative Legendre transform of log Z, is
    concave in mu; F/(mu d), (1+p) F/mu and p (F - c)/(d (1+mu)) are then
    quasi-concave in q on the feasible set.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if grid is None:
        xs = np.linspace(lo, hi, 66)[1:-1]
    else:
        xs = np.array(sorted(x for x in grid if lo < x < hi), dtype=float)
        if xs.size < 2:
            raise ValueError("grid must contain at least 2 points inside (lo, hi)")
    values: list[float] = []
    scale = 1.0
    for x in xs:
        values.append(float(f(float(x))))
        scale = max(scale, abs(values[-1]))
        if quasiconcave and len(values) >= 3:
            f0, f1, f2 = values[-3:]
            noise = 1e-13 * scale
            if f0 > 0.0 and f0 - f1 > noise and f1 - f2 > noise:
                break
    fs = np.array(values)
    xs = xs[: fs.size]
    n_evals = fs.size

    diffs = np.diff(fs)
    sign = np.where(np.abs(diffs) <= 1e-13 * scale, 0, np.sign(diffs))
    nonzero = sign[sign != 0]
    descents = np.flatnonzero(np.diff(nonzero) != 0).size if nonzero.size else 0
    unimodal = descents <= 1

    peaks = [
        i
        for i in range(len(xs))
        if (i == 0 or fs[i] >= fs[i - 1]) and (i == len(xs) - 1 or fs[i] >= fs[i + 1])
    ]
    peaks.sort(key=lambda i: fs[i], reverse=True)
    candidates = peaks[: (1 if unimodal else 3)] or [int(np.argmax(fs))]

    best_x = float(xs[int(np.argmax(fs))])
    best_f = float(np.max(fs))
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for i in candidates:
        a = lo if i == 0 else float(xs[i - 1])
        b = hi if i == len(xs) - 1 else float(xs[i + 1])
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc, fd = f(c), f(d)
        n_evals += 2
        while b - a > tol:
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = f(d)
            n_evals += 1
            for x_, f_ in ((c, fc), (d, fd)):
                if f_ > best_f:
                    best_x, best_f = float(x_), float(f_)
    return OptimizeResult(arg=best_x, value=best_f, unimodal=unimodal, n_evals=n_evals)
