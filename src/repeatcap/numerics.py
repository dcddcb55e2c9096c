"""Numerical substrate: quadrature, special functions, series and 1-D
search.

Every integral in this package (the Lambdas, log_gamma_via_integral and
the two KL-gap integrals in duals) is a sum over one fixed rule: composite
16-point Gauss-Legendre in a log variable (_gl_rule).  The Lambda
integrands arrive with removable 0/0 singularities (both the numerator and
t*log(1-t) vanish at t = 0) and a slowly dying 1/log(1-t) factor at t = 1.
Direct quadrature in t loses 4+ digits near both ends, so callers
substitute v = -log(1-t), which turns log(1-t) into -v exactly and gives
the integrand an exp(-v) tail; the semi-infinite range is cut at
v = _EXP_TAIL_SPAN = 60.  There each integrand varies on the scale of v
itself, so _log_rule takes equal panels in u = log v from a small v0 up,
and one panel on [0, v0], where it is a low-order polynomial.

integrate sums a rule's weights times an integrand that takes a block of
nodes at once, as one (k, 1) column, and returns one row per node.  All
nodes are interior, so the integrand is never evaluated at panel
endpoints, but a node can come arbitrarily close to one: each integrand
returns its own analytic limit where its closed form runs out of mantissa,
and a row that is not finite is a QuadratureError.  A non-finite value
makes its block's weighted sum non-finite, so integrate reads finiteness
off the block sums and scans a block's rows only when its sum is not
finite.  Every Lambda's integrand is one function, _f, which takes all the
integrals of a block in one pass, one base each, built once per integral
as data (_Base): it computes each node's factors of v alone once for all
of them and hands each base the nodes' t.  The rule carries no
error estimate: its accuracy is a property of the rule per (variant, p),
measured against the same rule with narrower panels (_PANEL_DU).

Series are summed in linear space, each on one scale (its largest term),
and stop at the first term Y whose geometric tail estimate term(Y) r/(1-r),
with the ratio r = term(Y+1)/term(Y) read off the terms themselves, falls
below a relative tolerance.  One pass over the terms sums the series and
its first moment, sum y term(y), each under its own stop, so a dual's
normalizer and mean read the weights once.  The estimate bounds the
remainder only if no later ratio exceeds r.  The dual weights behave like
q^y/sqrt(y), whose ratios rise toward q, so for them it falls short of the
true remainder.  At q_opt for p in {0.1, 0.3, 0.5, 0.9, 0.99} the shortfall
is at most 0.07 % for the sticky, duplication and convexity duals, and
3.7-21 % for the truncated dual, whose log-weights alternate between even
and odd y (21 % at p = 0.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "QuadratureProblem",
    "QuadratureError",
    "SeriesResult",
    "OptimizeResult",
    "integrate",
    "log_gamma",
    "log_gamma_via_integral",
    "binary_entropy",
    "log_integral_li",
    "sum_series",
    "maximize_concave",
]

# 16-point Gauss-Legendre on [-1, 1], the positive nodes and their weights
# (Newton on P_16 at 40 digits, rounded to nearest; numpy's leggauss gives
# the same nodes and weights within 2 ulp).
# Written out, not computed at import, which would load LAPACK's pages
# into every process that imports the package.
_GL_HALF_NODES = np.array([
    0.9894009349916499, 0.9445750230732326, 0.8656312023878318, 0.755404408355003,
    0.6178762444026438, 0.45801677765722737, 0.2816035507792589, 0.09501250983763744,
])
_GL_HALF_WEIGHTS = np.array([
    0.027152459411754096, 0.062253523938647894, 0.09515851168249279, 0.12462897125553388,
    0.14959598881657674, 0.16915651939500254, 0.18260341504492358, 0.1894506104550685,
])
_GL_NODES = np.concatenate((-_GL_HALF_NODES, _GL_HALF_NODES[::-1]))
_GL_WEIGHTS = np.concatenate((_GL_HALF_WEIGHTS, _GL_HALF_WEIGHTS[::-1]))


def _gl_rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The composite 16-point Gauss-Legendre rule in u over the panels
    between consecutive edges: its nodes as e^u, and its weights in u."""
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1, None] + edges[1:, None])
    return np.exp((mid + half * _GL_NODES).ravel()), (half * _GL_WEIGHTS).ravel()


# An exp(-v) factor is below 9e-27 past v = 60, far below every tolerance
# used in this package, so an exp-tail integral stops there.  _log_rule's
# panels are at most _PANEL_DU wide in u = log v.  Sticky's S-table near
# p = 1, the hardest case, stays within 3 % of a tenth of its tolerance
# (duals._quad_tol) of the same rule with panels a quarter as wide, up to
# y = 16 384 at p = 0.9999; panels of 0.96 miss that by up to 14x.
_EXP_TAIL_SPAN = 60.0
_PANEL_DU = 0.64


def _log_rule(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The rule for an integrand over [0, hi] in v that varies on the scale
    of v itself: one 16-point panel on [0, lo], then equal panels of at
    most _PANEL_DU in u = log v over [lo, hi], their weights times v."""
    half = 0.5 * lo
    n = math.ceil(math.log(hi / lo) / _PANEL_DU)
    nodes, weights = _gl_rule(np.linspace(math.log(lo), math.log(hi), n + 1))
    return (np.concatenate((half + half * _GL_NODES, nodes)),
            np.concatenate((half * _GL_WEIGHTS, weights * nodes)))


class QuadratureError(RuntimeError):
    """Raised when an integrand is not finite at a node."""


@dataclass(frozen=True)
class QuadratureProblem:
    """The sum over nodes of weights times integrand.

    integrand(v) receives consecutive blocks of at most `block` nodes, from
    the first, each as a (k, 1) column, and returns one row per node: shape
    (k,) for a scalar integral, or (k, ...) for a stack of integrals sharing
    the same variable (summed componentwise).  The integrand must be finite
    at every node; a row that is not is a QuadratureError naming the node.
    """

    integrand: Callable
    nodes: np.ndarray
    weights: np.ndarray
    block: int


def integrate(problem: QuadratureProblem):
    """The problem's weighted sum: each block's rows reduced against its
    weights by einsum, which calls no BLAS, so the bits do not depend on the
    BLAS thread count, and the blocks' sums added in order.  A non-finite
    row makes its block's sum non-finite (the weights are finite), so the
    rows are scanned for the first bad node only when a sum is not; finite
    rows whose sum overflows are summed as they are."""
    total, step = 0.0, problem.block
    for lo in range(0, problem.nodes.size, step):
        v = problem.nodes[lo:lo + step]
        vals = np.asarray(problem.integrand(v[:, None]), dtype=float)
        block = np.einsum("n,n...->...", problem.weights[lo:lo + step], vals)
        if not np.isfinite(block).all():
            bad = np.flatnonzero(~np.isfinite(vals.reshape(v.size, -1)).all(axis=1))
            if bad.size:
                node = float(v[bad[0]])
                raise QuadratureError(f"integrand returned a non-finite value at node {node!r}")
        total = total + block
    return total


# A numerator t*lin - expm1(A), t = 1 - e^-v, with A and lin linear in a
# size c, cancels to O(v^2).  The integrand's rounding noise is then
# ~eps*(1 + c)/v and its Taylor limit's error ~(1 + c)*v, relative; the limit
# takes over below this crossover in v*(1 + c), where both are ~1e-8.
_LIMIT_VC = 2e-8


# Every Lambda integrand (duals) and log_gamma_via_integral's is
# (t lin - expm1(A)) e^-v / (-t v), t = 1 - e^-v, for one base phi:
# A = y log |phi(v)| + b v and lin = y c1 + b, A's first order in v, with
# log phi = c1 v + c2 v^2 + O(v^3).  The numerator 1 + t lin - phi^y e^(bv),
# taken literally, loses half the mantissa by v ~ 1e-8; as t lin - expm1(A)
# it does not.  Where phi <= 0, phi^y e^(bv) is the signed (-1)^y exp(A)
# (phi^y is read at integer y only).  Below _LIMIT_VC in v (1 + y |c1|) the
# limit a1/2 + a2 + a1^2/2 of A = a1 v + a2 v^2 takes over, a1 = lin,
# a2 = y c2.
#
# Quantities of v alone are computed per node with math and broadcast over
# y: numpy's vectorized expm1/log1p/exp round differently from libm on a few
# percent of inputs, and whether numpy takes its vector or its scalar route
# depends on the array's length and layout; with math a node's value does
# not depend on which other nodes share its block.  A base is data built
# once per integral: its log_phi(nodes, ts) takes the block's nodes v and
# their t, both lists, and returns log |phi| per node and which nodes have
# phi <= 0 (empty unless phi can be).  _f takes every base of a block in
# one call, so t and e^-v / (t v) are computed once per node and shared by
# all of them; each base is worked in place on one contiguous (n, y)
# scratch, where np.expm1 runs as it would on a fresh array; only the last
# product and the t -> 0 limit are written to its slot of the (n, bases, y)
# block.


class _Base(NamedTuple):
    log_phi: Callable  # (nodes, ts) -> (log |phi| per node, whether phi <= 0 per node)
    b: float
    c1: float
    c2: float


def _col(values) -> np.ndarray:
    return np.array(values, dtype=float).reshape(-1, 1)


def _f(ys: np.ndarray, v: np.ndarray, bases: Sequence[_Base]) -> np.ndarray:
    """The integrand for each base at a (n, 1) node column v, as
    (n, len(bases), len(ys)), one slot per base in order."""
    nodes = v[:, 0].tolist()
    ts = [-math.expm1(-x) for x in nodes]
    t = _col(ts)
    scale = _col([math.exp(-x) / (tx * x) for x, tx in zip(nodes, ts)])
    out = np.empty((len(nodes), len(bases), ys.size))
    e, tlin = np.empty((2, len(nodes), ys.size))
    near_zero = min(nodes) < _LIMIT_VC
    for slot, base in zip(out.transpose(1, 0, 2), bases):
        log_abs, nonpositive = base.log_phi(nodes, ts)
        np.multiply(_col(log_abs), ys, out=e)
        if base.b:
            e += base.b * v  # A = y log |phi| + b v
        np.expm1(e, out=e)
        if any(nonpositive):  # there phi^y e^(bv) - 1 = -exp(A) - 1 at odd y
            neg = np.array(nonpositive)
            e[neg] = np.where(ys % 2 == 1, -2.0 - e[neg], e[neg])
        lin = ys * base.c1 + base.b
        e -= np.multiply(t, lin, out=tlin)
        np.multiply(e, scale, out=slot)
        if near_zero:
            limit = lin * (1.0 + lin) / 2.0 + ys * base.c2
            np.copyto(slot, limit, where=v * (1.0 + ys * abs(base.c1)) < _LIMIT_VC)
    return out


# _lgamma sums the Stirling series from _LG_X0 up and shifts smaller
# arguments there by the recurrence.  The series' coefficients are
# B_2k / (2k (2k-1)), k = 7 .. 1 (Horner order in 1/x^2); at x = 10 the
# first omitted term is 3e-17, under 2 % of an ulp of log Gamma there.
_LG_X0 = 10.0
_STIRLING = (
    1.0 / 156.0,
    -691.0 / 360360.0,
    1.0 / 1188.0,
    -1.0 / 1680.0,
    1.0 / 1260.0,
    -1.0 / 360.0,
    1.0 / 12.0,
)
_HALF_LOG_2PI_M_HALF = 0.5 * math.log(2.0 * math.pi) - 0.5
# log 2 = _LN2_HI + _LN2_LO, _LN2_HI with 21 trailing zero bits, so e * _LN2_HI
# is exact for every binary exponent e of a double (fdlibm's split).
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10

# _lgamma evaluates the series over blocks of this many entries, so that its
# temporaries stay in cache.
_LG_BLOCK = 8192


def _stirling(z: np.ndarray, out: np.ndarray) -> None:
    """out = log Gamma(z) = (z - 1/2)(log z - 1) + (log(2 pi) - 1)/2 + the
    series in 1/z, for z >= _LG_X0, both contiguous 1-D float arrays.

    (z - 1/2) multiplies log z's rounding error, so log z is carried as
    hi + lo from z = m 2^e: e log 2 in two parts plus log m, m in [1/2, 1),
    whose rounding error is below 6e-17.  That keeps the result within
    about 1 ulp.  Every log runs in place on a private array: numpy's vector
    log and its libm fallback round a few inputs differently, and an
    in-place call takes the vector route whatever the array's length or
    address."""
    for i in range(0, z.size, _LG_BLOCK):
        zb, ob = z[i:i + _LG_BLOCK], out[i:i + _LG_BLOCK]
        m, e = np.frexp(zb)
        np.log(m, out=m)
        lo = e.astype(float)
        hi = lo * _LN2_HI  # exact
        lo *= _LN2_LO
        lo += m
        np.add(hi, lo, out=ob)  # log z, rounded
        hi -= ob
        hi += lo  # now log z - ob, up to log m's rounding (Fast2Sum)
        ob -= 1.0
        half = zb - 0.5
        ob *= half
        hi *= half
        r = np.divide(1.0, zb)
        r2 = r * r
        acc = r2 * _STIRLING[0]
        for c in _STIRLING[1:-1]:
            acc += c
            acc *= r2
        acc += _STIRLING[-1]
        acc *= r
        acc += _HALF_LOG_2PI_M_HALF
        acc += hi
        ob += acc


# x + i for the shifts i = 0 .. _LG_X0 - 1 of an argument below _LG_X0.
_LG_SHIFTS = np.arange(_LG_X0)


def _lgamma(x):
    """log Gamma(x) for x >= 0 elementwise (+inf at 0), shaped like x: the
    package's one log-gamma.  The value at x depends on x alone, not on the
    array that holds it, so a lookup into one precomputed array equals a
    call bit for bit.  Absolute error below 1e-14 * max(1, |log Gamma|).

    An argument below _LG_X0 is shifted by the recurrence to z = x + k, the
    first of x, x + 1, ... at or above _LG_X0, and takes log Gamma(z) -
    log(x (x+1) ... (x+k-1)); when there is none, nothing is masked."""
    arr = np.array(x, dtype=float)  # a private contiguous copy
    flat = arr.reshape(-1)
    small = None
    if flat.size and not flat.min() >= _LG_X0:
        small = np.flatnonzero(flat < _LG_X0)
        steps = flat[small, None] + _LG_SHIFTS
        below = steps < _LG_X0
        flat[small] += below.sum(axis=1)
        log_prod = np.where(below, steps, 1.0).prod(axis=1)
        with np.errstate(divide="ignore"):  # x = 0 gives prod = 0, lgamma inf
            np.log(log_prod, out=log_prod)
    out = np.empty_like(flat)
    _stirling(flat, out)
    if small is not None:
        out[small] -= log_prod
    return out.reshape(arr.shape)[()]


def log_gamma(z):
    """log Gamma(z) for z > 0 (scalar or array)."""
    arr = np.asarray(z, dtype=float)
    if not np.all(arr > 0.0):
        raise ValueError("log_gamma requires z > 0")
    out = _lgamma(arr)
    return float(out) if arr.ndim == 0 else out


def log_gamma_via_integral(z: float) -> float:
    """log Gamma(1+z) by quadrature of its integral representation.

    log Gamma(1+z) = int_0^1 (1 - t z - (1-t)^z) / (t log(1-t)) dt.

    After v = -log(1-t) this is the Lambda integrand _f with base
    phi = 1 - t = e^-v, b = 0, c1 = -1 and c2 = 0 at y = z, integrated
    over [0, _EXP_TAIL_SPAN] by _log_rule from 0.05 / (1 + z), where the
    integrand starts to vary.  It stays within 1e-13 of log_gamma for z up
    to 100.
    """
    z = float(z)
    if not 0.0 <= z < math.inf:
        raise ValueError(f"log_gamma_via_integral requires finite z >= 0, got {z}")
    if z == 0.0:
        return 0.0
    base = _Base(lambda xs, ts: ([-x for x in xs], ()), 0.0, -1.0, 0.0)
    nodes, weights = _log_rule(0.05 / (1.0 + z), _EXP_TAIL_SPAN)
    problem = QuadratureProblem(partial(_f, np.array([z]), bases=(base,)), nodes, weights, nodes.size)
    return float(integrate(problem)[0, 0])


def binary_entropy(p: float) -> float:
    """Binary entropy -p log p - (1-p) log(1-p) in nats."""
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
    return _ei_negative(math.log(z))


# Ei(x) for x < 0 takes the power series for |x| up to this and the
# continued fraction of E1(-x) beyond it.
_EI_SERIES_MAX = 2.0
_EULER_GAMMA = 0.57721566490153286061


def _ei_negative(x: float) -> float:
    """Ei(x) = -E1(-x) for x < 0, to a few ulp.

    |x| <= _EI_SERIES_MAX: Ei(x) = gamma + log|x| + sum_k x^k / (k k!),
    summed exactly (math.fsum) until the terms stop mattering.  Beyond it,
    E1(t) = e^-t / (t + 1 - 1^2/(t + 3 - 2^2/(t + 5 - ...))), t = -x, by the
    modified Lentz method."""
    t = -x
    if t <= _EI_SERIES_MAX:
        terms = [_EULER_GAMMA, math.log(t)]
        term, k = 1.0, 0
        while abs(term) >= 1e-18:
            k += 1
            term *= x / k
            terms.append(term / k)
        return math.fsum(terms)
    b = t + 1.0
    c, d = math.inf, 1.0 / b
    h, delta, k = d, 0.0, 0
    while abs(delta - 1.0) >= 1e-16:
        k += 1
        a = -float(k * k)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
    return -h * math.exp(-t)


# A series stops once its geometric tail estimate falls below _SERIES_REL_TOL
# times the partial sum, and gives up (converged False) after
# _SERIES_HARD_CAP terms.
_SERIES_REL_TOL = 1e-12
_SERIES_HARD_CAP = 2_000_000

# The largest block of terms sum_series reads at once.
_MAX_BLOCK = 4096


@dataclass(frozen=True)
class SeriesResult:
    """log_sum sums the terms y = 1..terms_used, and log_moment the terms
    times y, y = 1..moment_terms, each stopped by its own tail estimate.
    tail_bound is log_sum's geometric estimate term(Y) r/(1-r) of the
    remainder past Y = terms_used, r = term(Y+1)/term(Y): a bound on it only
    if no later ratio exceeds r (see the module docstring).  converged is
    False when either part read _SERIES_HARD_CAP terms without its estimate
    meeting the tolerance."""

    log_sum: float
    terms_used: int
    tail_bound: float
    converged: bool
    log_moment: float
    moment_terms: int


def _log_tail(a: float, b: float) -> float:
    """log of the tail estimate at a term e^a followed by e^b (inf if b >= a)."""
    return b - math.log(-math.expm1(b - a)) if b < a else math.inf


def _first_stops(w: np.ndarray, c: int, total: list) -> list:
    """For each row of w, one sum's terms on its scale, the first column
    k >= c whose tail estimate w[k+1]/(1-r), r = w[k+1]/w[k], is below
    _SERIES_REL_TOL times total plus w[:k+1], or None."""
    # Multiplied out by w[k], r >= 1 or a zero term fails the test, no 0/0.
    rhs = w[:, c:-1].cumsum(axis=1)
    rhs += [[t + s] for t, s in zip(total, w[:, :c].sum(axis=1).tolist())]
    tmp = np.subtract(w[:, c:-1], w[:, c + 1:])
    rhs *= tmp
    rhs *= _SERIES_REL_TOL
    hits = np.multiply(w[:, c + 1:], w[:, c:-1], out=tmp) < rhs
    return [c + k if hits[i, k] else None for i, k in enumerate(hits.argmax(axis=1).tolist())]


def sum_series(log_term: Callable) -> SeriesResult:
    """Sum the nonnegative series sum_{y >= 1} exp(log_term(y)) and its first
    moment sum_{y >= 1} y exp(log_term(y)) in one pass.

    log_term takes an integer array of y and returns a float array of the
    same shape; it is called once per block, and the moment's terms are
    log_term(y) + log y.  Each sum stops at the first y where its geometric
    tail estimate term(y) r/(1-r), r = term(y+1)/term(y), drops below
    _SERIES_REL_TOL times its partial sum; a ratio r >= 1 estimates nothing.
    Terms are read in blocks that start at 256 and double up to _MAX_BLOCK,
    until both sums have stopped.  A block decides all but its last term,
    which waits for the next block's first, so a short series reads (and
    makes its caller tabulate) few terms.

    Each sum keeps a scale, its largest log-term so far, and a float total
    of e^(log-term - scale), rescaled only when a larger term arrives.
    """
    scale = [-math.inf, -math.inf]
    total = [0.0, 0.0]
    tail = [math.inf, math.inf]
    stop: list = [None, None]
    carried = [-math.inf, -math.inf]  # y = 0 adds nothing to the first block
    read = 0
    size = 256
    while read < _SERIES_HARD_CAP and None in stop:
        ys = np.arange(read + 1, min(read + 1 + size, _SERIES_HARD_CAP + 1), dtype=np.int64)
        size = min(2 * size, _MAX_BLOCK)
        # One row per sum; column j holds y = read + j, column 0 the carried
        # term, which the block decides with all but its last column.
        lt = np.empty((2, ys.size + 1))
        lt[:, 0] = carried
        lt[0, 1:] = log_term(ys)
        np.log(ys, out=lt[1, 1:])
        lt[1, 1:] += lt[0, 1:]
        for i, peak in enumerate(lt.max(axis=1).tolist()):
            if math.isnan(peak):
                raise ValueError("log_term returned NaN")
            if peak > scale[i]:
                total[i] *= math.exp(scale[i] - peak)
                scale[i] = peak
        # a scale still at -inf has only -inf terms, which w reads as 0
        w = np.subtract(lt, [[s] if s > -math.inf else [0.0] for s in scale])
        np.exp(w, out=w)
        sums = w[:, :-1].sum(axis=1).tolist()
        # A stop at column k needs w[k+1] below the tolerance times the
        # partial sum, so the stop test runs only from where that can hold.
        screen = w[:, 1:] <= [[2.0 * _SERIES_REL_TOL * (t + s)] for t, s in zip(total, sums)]
        cols = screen.argmax(axis=1).tolist()
        live = [i for i in (0, 1) if stop[i] is None]
        starts = [cols[i] for i in live if screen[i, cols[i]]]
        ks = _first_stops(w, min(starts), total) if starts else [None, None]
        ends = lt[:, -2:].tolist()
        for i in live:
            k = ks[i]
            if k is not None:
                log_sum = scale[i] + math.log(total[i] + w[i, : k + 1].sum())
                stop[i] = (log_sum, read + k, math.exp(_log_tail(lt[i, k], lt[i, k + 1])), True)
                continue
            total[i] += sums[i]
            carried[i] = ends[i][1]
            if math.isfinite(log_tail := _log_tail(*ends[i])):
                tail[i] = math.exp(log_tail)
        read += ys.size
        del lt, w, screen  # free before log_term grows a table for the next block
    for i in (0, 1):
        if stop[i] is None:  # at the cap: every term read, unconverged
            shift = scale[i] if scale[i] > -math.inf else 0.0
            rest = total[i] + math.exp(carried[i] - shift)
            stop[i] = (shift + math.log(rest) if rest else -math.inf, read, tail[i], False)
    (log_sum, used, tail_bound, converged), (log_moment, moment_terms, _, moment_ok) = stop
    return SeriesResult(log_sum, used, tail_bound, converged and moment_ok, log_moment, moment_terms)


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
    grid: Sequence[float],
    tol: float,
) -> OptimizeResult:
    """Maximize a quasi-concave f on (lo, hi): grid scan, then golden section.

    f must not rise again, wherever it is positive, once it has descended.
    The scan walks the grid points inside (lo, hi) in order and stops after
    two consecutive strict descents (each by more than the noise tolerance
    1e-13 * max(1, max |f|)) the first of which starts from a positive
    value.  Golden section then refines the bracket around the best scanned
    point down to width tol.  unimodal reports whether the scanned values
    changed direction at most once; it is a diagnostic, and the refinement
    does not depend on it.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    xs = np.array(sorted(x for x in grid if lo < x < hi), dtype=float)
    if xs.size < 2:
        raise ValueError("grid must contain at least 2 points inside (lo, hi)")
    values: list[float] = []
    scale = 1.0
    for x in xs:
        values.append(float(f(float(x))))
        scale = max(scale, abs(values[-1]))
        if len(values) >= 3:
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

    i = int(np.argmax(fs))
    best_x, best_f = float(xs[i]), float(fs[i])
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
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
