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

The Lambda functions come from Cheraghchi's framework ("Capacity upper
bounds for deletion-type channels", STOC 2018): each is int f(y, t) dt with
f = (1 + t lin - phi(t)^y (1-t)^-b) / (t log(1-t)) for one base phi per
integral, b in {0, 1} and lin the term that cancels the numerator's first
order at t = 0 (_Spec lists the bases).  After v = -log(1-t) every one is
numerics._f, which owns the cancellation-free grouping and the t -> 0 limit.

Everything q-independent (the Lambda values, hence the shifted log-weights
S(y) = g(y) - y * rate) is cached per (variant, p) for the many q a bound
evaluates, in tables grown by whole units of one lattice, [1, 1024] and
then (2^k, 2^(k+1)], so S(y) depends on (variant, p, y) alone (_STable).
Each unit is one quadrature call on one fixed rule whose log-graded panels
start at v = 1e-9, the first unit's (y at most 1024) at its own floor
(_FLOOR_KAPPA).  A unit takes the
Lambdas, analytic in y, by quadrature at y below 64 and at rounded
Chebyshev nodes of each larger scale chunk, and from Chebyshev
interpolants in y elsewhere: one per chunk, or one per parity for the
truncated construction, whose Lambda_2 carries a (-1)^y part.  One that
fails an error estimate from its trailing coefficients gives way to
quadrature at every y.  The Lambda views integrate at the y they are given.

The KL-gap is q-independent too: -log y0 and E[Y_x] log q cancel against
the q^y weights, so Delta(x) = H(Y_x) + sum_{y>=1} Y_x(y) (S(y) + c), c the
variant's constant weight shift.  gap_scan is the one gap behind the conv
and delta-d bounds, kl_gap_profile, epsilon_inf and klgap (the trunc bound
reads its closed form r_p).  For the convexity weights it is one integral
per x (_conv_columns): Y_x is negative binomial with pgf G(z)^x,
G(z) = (1-p)/(1-pz), the drift cancels the x log(1-p) terms, and
Malmsten's integral for log Gamma puts every expectation inside one
t-integral, where it becomes a power of G:

    Delta(x) = int_0^inf [e^(-xt) (1 - B) + A1 - A2] / (1 - e^(-t)) dt/t,
    B = G(e^-t)^x,  A1 = G(e^(-t/p))^x,  A2 = G(e^(-(1-p)t/p))^x,

which is log Gamma(x) - E log Gamma(Y_x + x) + E[log Gamma(Y_x/p) -
log Gamma(Y_x (1-p)/p)] with log Gamma(x)'s own integral folded in.  The
inverse binomial adds c P(Y_x >= 1) = c (1 - (1-p)^x).  One kernel,
_gap_integral, sums it and r_p on fixed Gauss-Legendre rules: it splits
x = h + l, h a multiple of 32 and 0 <= l < 32, and factors each node's
e^(xa) and expm1(xd) into exponentials at h and at l, so a scan of x <= 500
takes them at 16 + 32 rows, not 500, and each x's value still depends on
x alone.
For every other variant gap_scan sums each Y_x over its support window
(channels._windows): two-sided, each tail certified by the law's Chernoff
bound to hold at most 1e-15 of the mass, log Y_x(y) read for every x as
slices of one log-gamma array built once per scan.  kl_divergence sums
the KL against a built dual over the same windows, checking both routes.
A dual may have its mass at y = 0 rescaled to alpha*delta (delta in (0,1]);
the normalizers then satisfy 1/alpha = delta + 1/y0 - 1 and the gap becomes
Delta_delta(x) = Delta(x) - d log delta + d^x log delta, d = 1 - p, written
once in _delta_rule; _infimum takes its inf against a floor past the scan.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cache, partial
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import chebval, chebvander

from repeatcap import channels, numerics
from repeatcap.channels import ConditionalOutputLaw, Family, RepeatChannel
from repeatcap.numerics import _Base, _f, _lgamma, binary_entropy, log_integral_li, sum_series


class DualVariant(enum.Enum):
    STICKY_ZERO_GAP = "sticky-zero-gap"
    DUPLICATION_ZERO_GAP = "duplication-zero-gap"
    GEOMDEL_CONVEXITY = "geomdel-convexity"
    GEOMDEL_TRUNCATED = "geomdel-truncated"
    INVERSE_BINOMIAL = "inverse-binomial"


# Each variant's bases are built once per p (numerics._Base): log_phi takes
# the nodes v and their t = 1 - e^-v and gives log |phi| at each, computed
# the cancellation-free way for that phi; _Spec lists what each phi is.


def _sticky_bases(p: float) -> tuple:
    # 1 - pt and 1 + pt from the t that numerics._f takes once per node
    # (-p t = p expm1(-v) exactly)
    return (_Base(lambda xs, ts: ([-x - math.log1p(-p * t) for x, t in zip(xs, ts)], ()),
                  1.0, p - 1.0, -p * (1.0 - p) / 2.0),
            _Base(lambda xs, ts: ([-math.log1p(p * t) for t in ts], ()), 0.0, -p, p * (1.0 + p) / 2.0))


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


def _dup_base(p: float, k: float) -> _Base:
    a = k / (1.0 + p)
    return _Base(lambda xs, ts: ([_dup_log_w(t, p, k) for t in ts], ()),
                 0.0, -a, a / 2.0 - a * a / 2.0 - a * a * p / (1.0 + p))


def _trunc_base(c: float) -> _Base:
    # phi lives in [-1, 1] on the domain (phi2 hits -1 exactly at its right
    # end) and phi1 crosses zero inside it when p < 1/2; log phi comes from
    # log1p where phi > 0.
    def log_phi(xs, ts):
        tev = [math.expm1(x) for x in xs]  # t * e^v
        w = [1.0 - c * x for x in tev]
        # At w = 0, w^y e^v is e^v at y = 0 and exp(-800 y + v) = 0 past it.
        return ([math.log1p(-c * x) if wi > 0.0 else math.log(-wi) if wi < 0.0 else -800.0
                 for x, wi in zip(tev, w)], [not wi > 0.0 for wi in w])

    return _Base(log_phi, 1.0, -c, -(c + c * c) / 2.0)


@dataclass(frozen=True)
class _Spec:
    """The q-free facts of one dual variant.

    S(y) = g(ys, p, lambdas) - drift(ys, p), each written in the operation
    order the tables are built with.  The lambdas are the integrals over v
    of numerics._f, one per base of bases(p): over the exp tail [0, 60], or
    over [0, log(1+2p)] for the truncated construction, every base at every
    y a unit samples in one quadrature (_lambdas).  The bases phi, each with
    its b and the c1, c2 of its log (numerics._Base), in order:

      sticky 1       (1-t)/(1-pt) = G^-1(1 - t), G(z) = z(1-p)/(1-pz)    b = 1
      sticky 2       1/(1+pt)                                            b = 0
      duplication k  G^-1(1 - kt), G(z) = z(1-p+pz), k in {1, p, 1-p}    b = 0
      trunc 1        (1 - (1-p) e^v)/p = 1 - c (e^v - 1), c = (1-p)/p    b = 1
      trunc 2        (1 + p - e^v)/p = 1 - c (e^v - 1), c = 1/p          b = 1

    G is the channel's pgf of the copies of one input bit; trunc's phi may
    be <= 0.  gap_limit is the KL-gap's x -> infinity limit at
    delta = 1, weight_shift a constant added to every log-weight, and
    s_table another variant whose S-table this one reads.
    """

    family: Family
    g: Callable
    drift: Callable
    gap_limit: Callable[[float], float]
    bases: Callable[[float], tuple] = lambda p: ()
    truncated: bool = False
    weight_shift: Callable[[float], float] = lambda p: 0.0
    s_table: DualVariant | None = None


def _conv_g(ys: np.ndarray, p: float, lam) -> np.ndarray:
    """log C(y/p - 1, y) = lgamma(y/p) - lgamma(y+1) - lgamma(y(1-p)/p)
    (the variant has no Lambdas).  Three calls, not one on their stack,
    about halve the temporaries of a large S-table unit."""
    return _lgamma(ys / p) - _lgamma(ys + 1.0) - _lgamma(ys * (1.0 - p) / p)


_CONVEXITY_SPEC = _Spec(
    Family.GEOMETRIC_DELETION,
    g=_conv_g,
    drift=lambda ys, p: ys * binary_entropy(p) / p,
    gap_limit=lambda p: 0.5,
)

_SPECS = {
    DualVariant.STICKY_ZERO_GAP: _Spec(
        Family.GEOMETRIC_STICKY,
        g=lambda ys, p, lam: _lgamma(ys) - lam[0] - lam[1],
        drift=lambda ys, p: ys * binary_entropy(p),
        gap_limit=lambda p: 0.0,
        bases=_sticky_bases,
    ),
    DualVariant.DUPLICATION_ZERO_GAP: _Spec(
        Family.ELEMENTARY_DUPLICATION,
        g=lambda ys, p, lam: lam[0] - lam[1] - lam[2],
        drift=lambda ys, p: ys * binary_entropy(p) / (1.0 + p),
        gap_limit=lambda p: 0.0,
        bases=lambda p: tuple(_dup_base(p, k) for k in (1.0, p, 1.0 - p)),
    ),
    DualVariant.GEOMDEL_CONVEXITY: _CONVEXITY_SPEC,
    DualVariant.GEOMDEL_TRUNCATED: _Spec(
        Family.GEOMETRIC_DELETION,
        g=lambda ys, p, lam: lam[1] - lam[0] - _lgamma(ys + 1.0),
        drift=lambda ys, p: ys * (log_integral_li(1.0 / (1.0 + 2.0 * p)) + binary_entropy(p) / p),
        gap_limit=lambda p: 0.0,
        bases=lambda p: (_trunc_base((1.0 - p) / p), _trunc_base(1.0 / p)),
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


def _validate_p(p: float) -> float:
    """p as a float in (0, 1): the one rule for p of every dual, view and bound."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return p


def _as_y_array(y) -> tuple[np.ndarray, bool]:
    arr = np.asarray(y, dtype=float)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def _as_int_y(y, name: str) -> tuple[np.ndarray, bool]:
    ys, scalar = _as_y_array(y)
    if not (np.all(np.isfinite(ys)) and np.all(ys == np.floor(ys))):
        raise ValueError(f"{name} requires integer y")
    return ys.astype(np.int64), scalar


def _quad_tol(ys: np.ndarray) -> float:
    # The Lambdas' accuracy at the largest of ys, which the interpolants
    # must keep.  Lambda(y) grows like y log y; an absolute tolerance
    # independent of y would be unattainable in doubles for y ~ 1e5.
    return 1e-10 * max(1.0, float(ys[-1]))


def _scale_chunks(ys: np.ndarray):
    # The integrands peak near v ~ 1/y and Lambda grows like y log y, so
    # one interpolant or tolerance over a unit spanning decades of y would
    # be too loose for its small y or unattainable for its large y.
    # Chunking ascending y geometrically gives each single-scale chunk its
    # own interpolants and _quad_tol.
    lo = 0
    while lo < ys.size:
        hi = max(lo + 1, int(np.searchsorted(ys, 4.0 * ys[lo])))
        yield ys[lo:hi]
        lo = hi


# A Lambda's rule (numerics._log_rule) starts its log-graded panels at
# v = 1e-9, fine enough for y up to ~1e7.  A call whose every y is at most
# _TABLE_STEP (the first S-table unit, or a Lambda view at such y) starts
# them at h0 = _FLOOR_KAPPA / (max(1, y_max) (1 + max_k |c1_k|)) instead,
# the max because trunc's view takes y = 0: across [0, h0] each exponent
# A = y log |phi| + b v moves by about _FLOOR_KAPPA, so every column is a
# low-order polynomial there and the one panel below h0 integrates it to
# rounding.  Later units start at 1e-9.
_FLOOR_KAPPA = 0.1

# An integrand call holds as many nodes as fit in this many values (nodes
# times bases times y), and at least one; the cap keeps a wide unit's
# temporaries small.
_BATCH_VALUES = 1 << 14


def _lambdas(spec: _Spec, ys: np.ndarray, p: float, bases: tuple) -> np.ndarray:
    """The variant's Lambda integrals at the ys, one row per base of
    spec.bases(p), built once by the caller: one quadrature of every base at
    every y on one fixed rule.  Each integrand call hands the bases to one
    numerics._f, which fills the (nodes, bases, y) block in one pass and
    takes each node's factors of v alone once for all of them.  The exp tail
    takes numerics._log_rule over [0, 60].  The truncated range [0, v_t],
    v_t = log(1+2p), takes it from each end to the middle: at v_t, w2 = -1,
    so w2^y e^v is a spike of width about p / ((1+2p) y), which the
    mirrored panels, graded down to v_t 8^-7 from v_t, resolve: up to
    y = 1e7 they agree within 1e-12 y with quarter-width panels graded down
    to v_t 8^-12, at p in {0.05, 0.5, 0.9}."""
    if not bases:
        return np.empty((0, ys.size))
    v0 = 1e-9
    y_max = float(ys.max())
    if y_max <= _TABLE_STEP:
        c1 = max(abs(base.c1) for base in bases)
        v0 = max(v0, _FLOOR_KAPPA / (max(1.0, y_max) * (1.0 + c1)))
    if spec.truncated:
        v_t = math.log1p(2.0 * p)
        nodes, weights = numerics._log_rule(v0, v_t / 2.0)
        mirror, mirror_weights = numerics._log_rule(v_t * 8.0**-7, v_t / 2.0)
        nodes = np.concatenate((nodes, v_t - mirror))
        weights = np.concatenate((weights, mirror_weights))
    else:
        nodes, weights = numerics._log_rule(v0, numerics._EXP_TAIL_SPAN)
    problem = numerics.QuadratureProblem(
        lambda v: _f(ys, v, bases),
        nodes,
        weights,
        max(1, _BATCH_VALUES // (len(bases) * ys.size)),
    )
    # numerics.integrate is looked up on the module, so a wrapper set there
    # (a trace, a test) sees every S-table unit and Lambda view
    return numerics.integrate(problem)


def _lambda_view(variant: DualVariant, y, p: float, name: str, y_min=1.0) -> tuple:
    """The variant's Lambda integrals at y (a scalar, or an array in any
    order), one per base, through the same quadrature as an S-table unit."""
    p = _validate_p(p)
    ys, scalar = _as_y_array(y)
    if not np.all(np.isfinite(ys) & (ys >= y_min)):
        raise ValueError(f"{name} requires finite y >= {y_min:g}")
    uniq, back = np.unique(ys, return_inverse=True)
    spec = _SPECS[variant]
    vals = [lam[back] for lam in _lambdas(spec, uniq, p, spec.bases(p))]
    return tuple(float(v[0]) for v in vals) if scalar else tuple(vals)


def _g_view(variant: DualVariant, y, p: float, name: str):
    ys, scalar = _as_y_array(y)
    val = _SPECS[variant].g(ys, p, _lambda_view(variant, ys, p, name))
    return float(val[0]) if scalar else val


def lambda1_sticky(y, p: float):
    """Lambda_1(y) = int_0^1 f_1(y, t) dt for the sticky construction; grows
    like log Gamma(y(1-p))."""
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
    """The three duplication Lambda integrals (coefficients k = 1, p, 1-p)."""
    return _lambda_view(DualVariant.DUPLICATION_ZERO_GAP, y, p, "lambdas_duplication")


def g_duplication(y, p: float):
    """g(y) = Lambda_1(y) - Lambda_2(y) - Lambda_3(y) for duplication."""
    return _g_view(DualVariant.DUPLICATION_ZERO_GAP, y, p, "g_duplication")


def lambda_trunc_geomdel(y, p: float):
    """The two truncated-deletion Lambda integrals over t in [0, 2p/(1+2p)]."""
    return _lambda_view(DualVariant.GEOMDEL_TRUNCATED, y, p, "lambda_trunc_geomdel", 0.0)


_TABLE_STEP = 1024

# A scale chunk of more than 4 * _CHEB_NODES entries takes its Lambdas from
# quadrature at _CHEB_NODES Chebyshev points per interpolation class and
# from the interpolants at every other y.
_CHEB_NODES = 24


def _cheb_positions(m: int) -> np.ndarray:
    """The integers of 0..m-1 nearest the Chebyshev-Lobatto points of
    [0, m-1], _CHEB_NODES of them or fewer where two round together."""
    x = np.cos(np.pi * np.arange(_CHEB_NODES) / (_CHEB_NODES - 1))
    return np.unique(np.round((1.0 - x) * (m - 1) / 2.0)).astype(np.int64)


def _equispaced(m: int) -> np.ndarray:
    """m equispaced points of [-1, 1], the first and last at the ends."""
    return np.arange(m) * (2.0 / (m - 1)) - 1.0


@cache
def _cheb_vander(m: int) -> np.ndarray:
    """The Chebyshev-Vandermonde matrix at the points _cheb_positions(m) of
    _equispaced(m): a function of m alone, so built once per chunk size for
    every variant, p and q (read-only)."""
    k = _cheb_positions(m)
    vander = chebvander(_equispaced(m)[k], k.size - 1)
    vander.flags.writeable = False
    return vander


def _interpolate(vals: np.ndarray, m: int) -> tuple[np.ndarray, float]:
    """The Chebyshev interpolants through vals (one row per Lambda) at the
    positions _cheb_positions(m) of m equispaced points, at all m of them,
    and their error estimate: the magnitudes of every row's last two
    coefficients, summed.  The Vandermonde matrix of the solve depends on
    m alone, so each chunk size's is built once (_cheb_vander)."""
    coef = np.linalg.solve(_cheb_vander(m), vals.T)
    return chebval(_equispaced(m), coef), float(np.abs(coef[-2:]).sum())


class _STable:
    """Lazily grown table of the q-free log-weight part S(y), y = 1..n.

    S(y) = g(y) - y * rate, so a dual's log-weight is S(y) + y log q.  The
    table grows by whole units of a fixed lattice: y = 1.._TABLE_STEP, then
    (n, 2n] for the table's size n.  So S(y) depends on (variant, p, y)
    alone, not on the order of requests, and growth copies linear work in
    all.  Each unit is one quadrature call (_lambdas) at the y it samples
    from all its scale chunks; a unit past the first is one chunk.  The
    first unit's rule starts its log panels at its own floor in v
    (_FLOOR_KAPPA), every later unit's at v = 1e-9.  A chunk of at most
    4 * _CHEB_NODES entries (below y = 64, and y = 1024) is integrated at
    every y.  A larger one is integrated at _CHEB_NODES rounded
    Chebyshev-Lobatto nodes per interpolation class and filled from each
    class's Chebyshev interpolant of each Lambda, which is analytic in y
    there and converges geometrically.  The classes are the chunk itself,
    or, for the truncated construction, its even and its odd y: there w2
    reaches -1, so Lambda_2 carries a (-1)^y part that is smooth within a
    parity but not across.  An interpolant is used only if its error
    estimate (_interpolate) is at most half the chunk's _quad_tol, which
    leaves the other half to the quadrature error it carries over from its
    nodes; the classes that fail take a second quadrature call at all their
    y.  Growth takes no lock: racing growths compute the same bits, and each
    caller slices its own local array, which no shorter store can cut.
    """

    def __init__(self, variant: DualVariant, p: float):
        self.variant = variant
        self.p = p
        self._vals = np.empty(0, dtype=float)

    def upto(self, ymax: int) -> np.ndarray:
        """S values for y = 1..ymax as a slice (do not mutate)."""
        vals = self._vals
        if ymax > vals.size:
            units, end = [vals], vals.size
            while end < ymax:
                lo, end = end + 1, max(_TABLE_STEP, 2 * end)
                units.append(self._compute(np.arange(lo, end + 1, dtype=float)))
            self._vals = vals = np.concatenate(units)
        return vals[:ymax]

    def _compute(self, ys: np.ndarray) -> np.ndarray:
        spec, p = _SPECS[self.variant], self.p
        bases, stride = spec.bases(p), 2 if spec.truncated else 1
        lam = np.empty((len(bases), ys.size))
        # Index arrays into ys: the quadrature's y, one group per chunk, and
        # each interpolation class with its node positions.
        sampled, classes = [], []
        cuts = np.cumsum([chunk.size for chunk in _scale_chunks(ys)])[:-1]
        for at in np.split(np.arange(ys.size), cuts):
            if not bases or at.size <= 4 * _CHEB_NODES:
                sampled.append(at)
                continue
            fits = [(c, _cheb_positions(c.size)) for c in (at[r::stride] for r in range(stride))]
            sampled.append(np.sort(np.concatenate([c[k] for c, k in fits])))
            classes += fits
        at = np.concatenate(sampled)
        lam[:, at] = _lambdas(spec, ys[at], p, bases)
        redo = []
        for c, k in classes:
            vals, err = _interpolate(lam[:, c[k]], c.size)
            if err <= 0.5 * _quad_tol(ys[c]):
                lam[:, c] = vals
            else:
                redo.append(c)
        if redo:
            at = np.concatenate(redo)
            lam[:, at] = _lambdas(spec, ys[at], p, bases)
        return spec.g(ys, p, lam) - spec.drift(ys, p)


_TABLES: dict[tuple[DualVariant, float], _STable] = {}
# Each deletion dual's gap scan at delta = 1, by (dual, p).  bounds fills it
# through _memo; it lives here so clear_caches empties it too.
_DELTA_SCANS: dict[tuple[DualVariant, float], np.ndarray] = {}


def _memo(store: dict, key, build: Callable[[], object]):
    """store[key], made by build() on first use: the one get-or-build of the
    q-free caches.  Racing callers may each build, and setdefault hands every
    one of them the first value stored."""
    value = store.get(key)
    return store.setdefault(key, build()) if value is None else value


def _get_table(variant: DualVariant, p: float) -> _STable:
    kind = _SPECS[variant].s_table or variant
    return _memo(_TABLES, (kind, float(p)), lambda: _STable(kind, float(p)))


def clear_caches() -> None:
    """Empty the S-tables and the gap scans, so the next bound starts cold."""
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
    normalizer series stopped and its geometric estimate of what was
    dropped (numerics.SeriesResult.tail_bound).
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
        yi, scalar = _as_int_y(y, "log_weight")
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
        yi, scalar = _as_int_y(y, "log_pmf")
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


def build_dual(
    variant: DualVariant,
    p: float,
    q: float,
    delta: float = 1.0,
) -> DualDistribution:
    """Construct the dual: sum its normalizer and mean series off the cached
    weight table, both in one numerics.sum_series pass.

    On numerics._SERIES_HARD_CAP exhaustion the distribution is still
    returned with series_converged False and the unresolved tail estimate
    in truncation; the caller decides whether to accept it.
    """
    p = _validate_p(p)
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    variant = DualVariant(variant)
    if variant not in _DELETION_VARIANTS and delta != 1.0:
        raise ValueError("mass modification at y = 0 requires support at y = 0")
    table = _get_table(variant, p)
    dual = partial(DualDistribution, variant, p, float(q), float(delta), _table=table)
    # A weight series with geometric ratio q needs at least ~28/(1-q) terms
    # to push the relative tail under numerics._SERIES_REL_TOL (the weights
    # decay like q^y / sqrt(y)); refuse upfront when even an underestimate
    # of that exceeds the cap, rather than paying for a doomed summation.
    if 25.0 / (1.0 - q) > numerics._SERIES_HARD_CAP:
        return dual(math.nan, math.nan, (0, math.inf), False)
    logq = math.log(q)
    shift = _SPECS[variant].weight_shift(p)

    def log_term(ys: np.ndarray) -> np.ndarray:
        # ys is a run of consecutive y, so the table is read as a slice
        return table.upto(int(ys[-1]))[int(ys[0]) - 1:int(ys[-1])] + shift + ys * logq

    series = sum_series(log_term)
    if variant in _DELETION_VARIANTS:
        log_normalizer = float(np.logaddexp(math.log(delta), series.log_sum))
    else:
        log_normalizer = series.log_sum
    return dual(
        log_normalizer,
        math.exp(series.log_moment - log_normalizer),
        (series.terms_used, series.tail_bound),
        series.converged,
    )


# The gap scan behind eps covers x = 1.._EPS_SCAN_X_MAX; the analytic
# limit stands in for larger x.
_EPS_SCAN_X_MAX = 500


def _check_pairing(channel: RepeatChannel, dual: DualDistribution) -> None:
    if _VARIANT_FAMILY[dual.variant] is not channel.family:
        raise ValueError(
            f"dual variant {dual.variant.value} does not match channel family "
            f"{channel.family.value}"
        )
    if channel.p != dual.p:
        raise ValueError("channel and dual disagree on p")


def kl_divergence(channel: RepeatChannel, x: int, dual: DualDistribution) -> float:
    """D_KL(Y_x || dual) in nats by summation over Y_x's support window,
    calling the package's log-gamma for this x alone.  Returns inf if Y_x
    puts mass where the dual has none (a pairing bug, not a number).
    """
    _check_pairing(channel, dual)
    ys = ConditionalOutputLaw(channel, x).truncated_support()
    lp = channels.output_log_pmf(channel, x, ys)
    pm = np.exp(lp)
    ld = dual.log_pmf(ys)
    live = pm > 0.0
    if np.any(live & np.isneginf(ld)):
        return math.inf
    contrib = np.where(live, pm * (lp - ld), 0.0)
    return float(np.sum(contrib))


def _slice_reader(lg: np.ndarray) -> Callable:
    """log_gamma for output_log_pmf that reads lg = log Gamma(0, 1, ...) by
    index: a scalar, or a run of consecutive integers (ascending, or
    descending as duplication's 2x - y + 1) as a view of lg."""

    def read(a):
        if not isinstance(a, np.ndarray):
            return lg[a]
        first, last = int(a[0]), int(a[-1])
        return lg[first:last + 1] if first <= last else lg[last:first + 1][::-1]

    return read


def gap_scan(variant: DualVariant, p: float, x_max: int) -> np.ndarray:
    """Delta(x) at delta = 1 for x = 1..x_max for any dual variant: the
    convexity integral (_conv_columns) for the variants on the convexity
    weights, plus the weight shift times P(Y_x >= 1); the summed scan
    (_summed_gap_scan) for the others."""
    if isinstance(x_max, bool) or not isinstance(x_max, (int, np.integer)) or x_max < 1:
        raise ValueError(f"x_max must be an integer >= 1, got {x_max!r}")
    if (_SPECS[variant].s_table or variant) is not DualVariant.GEOMDEL_CONVEXITY:
        return _summed_gap_scan(variant, p, x_max)
    p = _validate_p(p)
    gaps = _gap_integral(_conv_columns(p), np.arange(1.0, x_max + 1.0))
    shift = _SPECS[variant].weight_shift(p)
    if shift:
        gaps += shift * -np.expm1(np.arange(1.0, x_max + 1.0) * math.log1p(-p))
    return gaps


# The convexity gap's rule: composite 16-point Gauss-Legendre in u = log t
# over [log 1e-22, log(80 max(1, p/(1-p)))], _CONV_TAIL_PANELS equal panels
# up to t = 1e-8 and _CONV_PANELS equal panels past it.  Near t = 0 the
# integrand (in u) is about x t (3-p) / (2(1-p)), smooth enough in u for
# two wide panels; the lower cut drops 5e-17 of it at x = 500, p = 0.999,
# where a cut at 1e-13 would drop 5e-8.  A2 decays on the scale
# t ~ p/(1-p), which the upper cut follows.  Over x <= 500 and p in
# [0.05, 0.999], 12 panels past 1e-8 reach the float64 floor, 10 miss it by
# up to 4e-13 and 8 by 8e-11; 16 leave a margin.
_CONV_TAIL_PANELS = 2
_CONV_PANELS = 16
# R_p's rule: the same in u = log(v - v_t), _R_P_PANELS equal panels over
# [log 1e-22, log 60].  In u the integrand rises like e^u up to about
# log v_t and falls like e^(-x e^u) past about -log x, smooth on the scale
# of one unit of u wherever v_t sits, so equal panels serve every p; past
# v_t + 60 it is below 9e-27.  Over x <= 500 and p from 1e-9 to 0.9999,
# doubling 24 panels moves no value by more than 1e-16, doubling 20 by
# 4e-15 and doubling 16 by 2e-13.
_R_P_PANELS = 24
# No temporary of the integrand holds more than this many values (128 kB):
# a larger one is mapped afresh by the allocator on every block, and its
# page faults cost more than the block's arithmetic.
_GAP_BLOCK_VALUES = 1 << 14


def _expm1_minus_id(s: np.ndarray) -> np.ndarray:
    """e^s - 1 - s elementwise to a few ulp: by its Taylor series where
    |s| < 1, where e^s - 1 and s cancel (the first term dropped is
    1.6e-17 of the sum at |s| = 1), and directly elsewhere."""
    out = np.expm1(s) - s
    near = np.abs(s) < 1.0
    z = s[near]
    acc = np.zeros_like(z)
    for k in range(18, 1, -1):
        acc = acc * z + 1.0 / math.factorial(k)
    out[near] = acc * z * z
    return out


def _conv_columns(p: float) -> np.ndarray:
    """The t-only parts of the convexity integrand at the rule's n nodes
    t, as the five rows _gap_integral takes: a1 = log G(e^(-t/p)), -d1,
    a2 = log G(e^(-(1-p)t/p)), d2 and the weight w / (1 - e^-t).

    With d1 = a1 - log G(e^-t) + t >= 0 and d2 = -t - a2 <= 0 the
    numerator is e^(x a2) expm1(x d2) - e^(x a1) expm1(-x d1): the four 1s
    of e^(-xt) - e^(-xt) B + A1 - A2 cancel in two pairs before rounding,
    and neither factor of a pair overflows.  d1 is
    t + log1p(-p e^-t) - log1p(-p e^(-t/p)).  Both d1 and d2 are O(t^2) as
    t -> 0, where those forms cancel, so below t = 1 they are taken from
    d1 = log1p((phi(t) + p phi(-t/p)) / (1 - p e^(-t/p))),
    d2 = log1p((phi(-t) - p phi(-t/p)) / (1 - p)), phi(s) = e^s - 1 - s."""
    tail = math.log(1e-8)
    t, w = numerics._gl_rule(np.concatenate((
        np.linspace(math.log(1e-22), tail, _CONV_TAIL_PANELS + 1)[:-1],
        np.linspace(tail, math.log(80.0 * max(1.0, p / (1.0 - p))), _CONV_PANELS + 1),
    )))
    w /= -np.expm1(-t)
    r = p / (1.0 - p)

    def log_g(s):  # log G(e^-s)
        return -np.log1p(r * -np.expm1(-s))

    a1, a2 = log_g(t / p), log_g((1.0 - p) * t / p)
    with np.errstate(under="ignore"):
        d1 = t + np.log1p(-p * np.exp(-t)) - np.log1p(-p * np.exp(-t / p))
    d2 = -t - a2
    near = t < 1.0
    s = t[near]
    phi_p = p * _expm1_minus_id(-s / p)
    d1[near] = np.log1p((_expm1_minus_id(s) + phi_p) / (1.0 - p - p * np.expm1(-s / p)))
    d2[near] = np.log1p((_expm1_minus_id(-s) - phi_p) / (1.0 - p))
    return np.stack((a1, -d1, a2, d2, w))


def _r_p_nodes(p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R_p's rule from v_t = log(1+2p): its nodes v, its weights times the
    factor 1 / (t v) that the integrands of R_p and I_p share, and
    t = 1 - e^-v."""
    s, w = numerics._gl_rule(np.linspace(math.log(1e-22), math.log(60.0), _R_P_PANELS + 1))
    v = math.log1p(2.0 * p) + s
    t = -np.expm1(-v)
    return v, w * s / (t * v), t


def r_p(x, p: float):
    """R_p(x): the KL-gap of the truncated deletion dual, nonnegative and
    exponentially decaying in x.

    R_p(x) = -int_T^1 (1-t)^(x-1) (1 - ((1-p)/(1-p(1-t)))^x) / (t log(1-t)) dt
    with T = 2p/(1+2p); in v coordinates the integrand is
    exp(-x v) (1 - ratio^x) / (t v) on [log(1+2p), inf), ratio =
    d / (1 - p e^-v).  It is one single-term gap integral (_gap_integral,
    factored over x = h + l) on R_p's fixed rule, so its value at x does not
    depend on the other x.
    """
    p = _validate_p(p)
    xs, scalar = _as_y_array(x)
    if not np.all(np.isfinite(xs) & (xs >= 1.0)):
        raise ValueError("r_p requires finite x >= 1")
    v, w, t = _r_p_nodes(p)
    # log ratio = log1p(-p t / (1 - p e^-v)), free of the cancellation of
    # log(1-p) - log(1 - p e^-v), and 1 - ratio^x through expm1: for small
    # p the ratio is 1 - O(p), and 1 - ratio**x would keep only the noise
    # of its last bits
    val = _gap_integral(np.stack((-v, np.log1p(-p * t / (1.0 - p * np.exp(-v))), w)), xs)
    return float(val[0]) if scalar else val


def r_p_envelope(p: float) -> float:
    """I_p = int_T^1 dt / (-t log(1-t)); R_p(x) <= (1+2p)^-(x-1) * I_p.

    I_p exists for every finite p > 0, not only for a channel's p < 1.
    It is int exp(-v) / (t v) dv on R_p's rule."""
    if not 0.0 < p < math.inf:
        raise ValueError(f"r_p_envelope requires finite p > 0, got {p}")
    v, w, _ = _r_p_nodes(p)
    return float(np.sum(np.exp(-v) * w))


# The gap kernel's split x = h + l: h a multiple of _GAP_SPLIT, 0 <= l < it.
_GAP_SPLIT = 32.0


def _runs(values: np.ndarray, step: int):
    """The distinct values of an array in runs of at most step, each as
    (the run as a column, the positions of the values in it, each one's
    index in the run)."""
    order = np.argsort(values)
    ordered = values[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    rank = np.cumsum(first) - 1
    distinct = ordered[first]
    cuts = np.flatnonzero(first)[::step].tolist() + [values.size]
    for k, lo in enumerate(range(0, distinct.size, step)):
        yield distinct[lo:lo + step, None], order[cuts[k]:cuts[k + 1]], rank[cuts[k]:cuts[k + 1]] - lo


def _gap_integral(cols: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """A gap integral at each x of xs (floats >= 1) from the rows of its
    rule: the sum over nodes of w (e^(x a2) expm1(x d2) - e^(x a1)
    expm1(x d1)) for the rows (a1, d1, a2, d2, w) of _conv_columns, and of
    -w e^(x a1) expm1(x d1) for the rows (a1, d1, w) of r_p.

    With x = h + l, h = 32 floor(x/32) and 0 <= l < 32, each term is

        e^(xa) expm1(xd) = e^(la) [e^(ha) expm1(hd)] + e^(la) expm1(ld) [e^(ha) e^(hd)],

    so the exponentials are taken once per distinct h and once per distinct
    l (16 + 32 rows for x <= 500), and each x's value is a node sum of
    products of an l row and an h row.  Both pieces have the sign of
    expm1(d), so the split cancels nothing; every d row here is <= 0
    (conv's -d1 and d2, r_p's log ratio) and every a row <= 0, so no factor
    overflows.  The node sums are np.einsum's, without BLAS, so the bits do
    not depend on the BLAS thread count, and each is one contiguous einsum
    loop over the nodes whatever the other rows, so each x's value depends
    on x alone.  Blocks of xs and runs of h and of l keep every temporary
    within _GAP_BLOCK_VALUES values.

    The convexity gap is within 1e-13 of 30-digit direct sums at x <= 500
    for p in [0.3, 0.999] and at x <= 64 for p in {1e-3, 0.01}.  Each term
    is summed over the nodes alone, and below p = 0.05 conv's two terms
    cancel to about 1/(e p) of their size: at p = 1e-3 it is off by up to
    1.8e-13 at x <= 500, where summing the terms per node gave 1.3e-14."""
    *rows, w = cols
    terms = [(rows[0], rows[1], -w)] + ([(rows[2], rows[3], w)] if len(rows) == 4 else [])
    step = max(1, _GAP_BLOCK_VALUES // w.size)
    out = np.empty(xs.size)
    with np.errstate(under="ignore"):
        for lo in range(0, xs.size, _GAP_BLOCK_VALUES):
            part = xs[lo:lo + _GAP_BLOCK_VALUES]
            heads = _GAP_SPLIT * np.floor(part / _GAP_SPLIT)
            for h, at_h, h_row in _runs(heads, step):
                h_tabs = []
                for a, d, wt in terms:
                    ea = np.exp(h * a)
                    h_tabs.append((ea * np.expm1(h * d) * wt, ea * np.exp(h * d) * wt))
                for l, at_l, l_col in _runs(part[at_h] - heads[at_h], step):
                    grid = 0.0
                    for (a, d, _), (h1, h2) in zip(terms, h_tabs):
                        el = np.exp(l * a)
                        grid = grid + np.einsum("ln,hn->hl", el, h1)
                        grid = grid + np.einsum("ln,hn->hl", el * np.expm1(l * d), h2)
                    out[lo + at_h[at_l]] = grid[h_row[at_l], l_col]
    return out


def _summed_gap_scan(variant: DualVariant, p: float, x_max: int) -> np.ndarray:
    """Delta(x) for x = 1..x_max for any dual variant by the identity in the
    module docstring, each Y_x summed over its support window
    (channels._windows, computed for every x at once).  The weight shift
    enters once, as a scalar times P(Y_x >= 1).

    Every log-gamma argument of log Y_x(y) there is an integer at most
    hi + x, so the scan evaluates numerics._lgamma once, on
    0..max hi + x_max + 1, and each x reads slices of that array instead of
    calling it.  The kernel's value at x does not depend on the array
    holding it, so the slices equal the per-call values bit for bit.  The
    products are summed by np.sum, not by a BLAS dot, whose split across
    threads would move the last bits with the thread count."""
    channel = RepeatChannel(_VARIANT_FAMILY[variant], p)
    table = _get_table(variant, p)
    shift = _SPECS[variant].weight_shift(p)
    los, his = channels._windows(channel, np.arange(1, x_max + 1))
    s_vals = table.upto(int(his.max()))
    log_gamma = _slice_reader(_lgamma(np.arange(int(his.max()) + x_max + 2, dtype=float)))
    out = np.empty(x_max, dtype=float)
    for x, lo, hi in zip(range(1, x_max + 1), los.tolist(), his.tolist()):
        ys = np.arange(lo, hi + 1, dtype=np.int64)
        lp = channels.output_log_pmf(channel, x, ys, log_gamma)
        pm = np.exp(lp)
        k = int(lo == 0)  # S covers y >= 1 from index k
        out[x - 1] = -float(np.sum(pm * lp)) + float(np.sum(pm[k:] * s_vals[lo + k - 1:hi]))
        if shift:
            out[x - 1] += shift * float(np.sum(pm[k:]))
    return out


def convexity_gap_scan(p: float, x_max: int) -> np.ndarray:
    """gap_scan of the convexity deletion dual (the conv and delta-d bounds)."""
    return gap_scan(DualVariant.GEOMDEL_CONVEXITY, p, x_max)


def _delta_rule(variant: DualVariant, gaps: np.ndarray, p: float, delta: float):
    """A variant's gaps (x = 1, 2, ...) and their x -> infinity limit with
    the mass at zero set to delta: gap(x) - d log delta + d^x log delta and
    limit - d log delta, d = 1 - p."""
    d = 1.0 - p
    log_delta = math.log(delta)
    xs = np.arange(1, gaps.size + 1, dtype=float)
    limit = _SPECS[variant].gap_limit(p)
    with np.errstate(under="ignore"):
        return gaps - d * log_delta + d**xs * log_delta, limit - d * log_delta


def _infimum(variant: DualVariant, gaps, limit: float, p: float) -> float:
    """inf over x >= 1 of a modified gap scanned at x = 1..X: the scan's minimum
    or the floor past X, its limit, or limit (1 - d^X) for the truncated variant."""
    if variant is DualVariant.GEOMDEL_TRUNCATED:
        # R_p >= 0, so the modified gap R_p(x) + limit (1 - d^(x-1)),
        # d = 1 - p, is at least this past X; the limit alone misses its
        # dip at x of order 1/p.
        limit *= 1.0 - (1.0 - p) ** len(gaps)
    return min(float(np.min(gaps)), limit)


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
    limit_candidate: float


def kl_gap_profile(
    channel: RepeatChannel, dual: DualDistribution, x_max: int
) -> KLGapProfile:
    """The KL-gap for x = 1..x_max against the dual's bound line: the
    variant's gap_scan under the dual's delta rule.  For trunc that is the
    S-table route, the independent check on the bound's R_p, off it by the
    S-table's quadrature error (4.1e-10 nats at p = 0.995, 5.1e-12 at 0.9)."""
    _check_pairing(channel, dual)
    gaps, limit = _delta_rule(
        dual.variant, gap_scan(dual.variant, dual.p, x_max), dual.p, dual.delta
    )
    return KLGapProfile(
        line_slope=-math.log(dual.q),
        line_intercept=dual.log_normalizer - (1.0 - dual.p) * math.log(dual.delta),
        gaps=dict(enumerate(gaps.tolist(), start=1)),
        limit_candidate=limit,
    )


def epsilon_inf(
    channel: RepeatChannel, dual: DualDistribution, x_max: int = _EPS_SCAN_X_MAX
) -> float:
    """inf over x >= 1 of the KL-gap, with the bounds' floor past the scan
    (_infimum); for trunc it misses epsilon_used by kl_gap_profile's error."""
    profile = kl_gap_profile(channel, dual, x_max)
    return _infimum(dual.variant, list(profile.gaps.values()), profile.limit_candidate, dual.p)
