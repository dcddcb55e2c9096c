"""Analytical capacity upper bounds for binary repeat channels.

Each bound instantiates the same duality template: if a candidate output
distribution Y satisfies

    D_KL(Y_x || Y) <= log_norm - E[Y_x] log q - d log delta - eps

for every input run length x >= 1 (eps the infimum of the KL-gap, d = 1-p
and delta the dual's mass at zero), then the capacity of the mean-limited
auxiliary channel is bounded affinely in its mean, and the run-length
reduction turns that into a per-symbol capacity bound.  Concretely, with
mu = E[Y^(q)] the dual mean and lambda = E[D] the mean number of copies of
an input bit, every bound is

    lambda (log_norm - mu log q - eps - d log delta) / (m + mu),
    mu >= lambda,

maximized over q in (0, 1), with per construction

                    lambda     m
    sticky:         1/(1-p)    0
    duplication:    1+p        0
    deletion:       p/(1-p)    1

The sticky and duplication duals have zero gap and no mass at zero, so
eps = 0 and delta = 1 there.  Infeasible q (dual mean below lambda)
contribute objective value 0, and a q whose series did not converge raises
BoundComputationError.  With theta = log q and Z = delta [deletion] +
sum_y a(y) e^(theta y), log Z is convex in theta, so mu = (log Z)'
increases with q, and F = log_norm - mu log q, the negative Legendre
transform of log Z, has dF/dmu = -log q.  Setting the value's derivative
in mu to zero gives the first-order condition

    G(q*) = log Z(q*) + m log q* - eps - d log delta = 0,
    bound -lambda log q* nats.

G increases with q, and the value rises below q* and falls above it, so
q* is a monotone root.  In theta = log q, G is convex with G' = mu + m, so
Newton's method solves it from one dual per iterate: a tangent lands at or
right of the root, and from there the iterates fall to it.  The value and
mu_opt are read at q*.  If mu(q*) is below lambda, the constraint binds
and the sup sits where mu reaches lambda; Newton stops at the first
iterate right of q* that shows it, and the bound scans the q-grid from the
first grid point above that iterate, past which its zeros run out within a
point or two, and golden-sections around the best point
(numerics.maximize_concave).  The deletion bound comes in three flavors
differing in the dual and its mass-at-zero rule:

    Conv:   convexity-based weights, balance delta (gap limit 1/2)
    Trunc:  truncated-integral weights, balance delta (gap limit 0, so
            delta = exp(-R_p(1)/d)); past the scan's x <= 500 eps takes
            R_p(1) (1 - d^500), which R_p >= 0 makes a lower bound
    DeltaD: convexity-based weights with the alternative delta = 1-p,
            which wins for p close to 1

where the balance rule delta = min(exp(-(gap(1) - gap limit)/d), 1)
equates the modified gap at x = 1 with its x -> infinity limit.  A
closed-form elementary bound -d log d - log(1 - d/2)/d nats (valid for
d < 1/2) completes the set; its limit is 1/(2 log 2) ~ 0.7214 bits as
p -> 1.

All arithmetic is in nats; bits appear only in reported results as
bound_nats / log 2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repeatcap import numerics, tables
from repeatcap.channels import Family, RepeatChannel, reduction_params
from repeatcap.duals import (
    _DELTA_SCANS,
    _EPS_SCAN_X_MAX,
    _SPECS,
    DualVariant,
    _delta_rule,
    _infimum,
    _memo,
    _validate_p,
    build_dual,
    convexity_gap_scan,
    gap_scan,
    r_p,
)
from repeatcap.numerics import QuadratureError, maximize_concave

_LOG2 = math.log(2.0)
_Q_OPT_TOL = 1e-7  # golden-section tolerance on q_opt where the constraint binds
# Newton's method stops once a step in log q is at most _NEWTON_REL |log q|,
# or at most 4 ulp(q), below which rounding in q leaves nothing to resolve;
# needing more than _NEWTON_MAX_STEPS steps is an error.
_NEWTON_REL = 1e-13
_NEWTON_MAX_STEPS = 60
# The tolerances a bound's run metadata reports.
SOLVER_TOLERANCES = {"q_opt": _Q_OPT_TOL, "newton_log_q": _NEWTON_REL,
                     "series_rel": numerics._SERIES_REL_TOL}

# Mass-at-zero rules (deletion_delta) and reference-table selectors
# (verify_tables), in the order the CLI offers them.
DELTA_RULES = ("one", "recommended", "d")
TABLE_SELECTORS = ("T1", "T2", "T3")


class BoundVariant(enum.Enum):
    STICKY_EXACT = "StickyExact"
    DUPLICATION_EXACT = "DuplicationExact"
    GEOMDEL_CONV = "GeomDelConv"
    GEOMDEL_TRUNC = "GeomDelTrunc"
    GEOMDEL_DELTA_D = "GeomDelDeltaD"
    GEOMDEL_ELEMENTARY = "GeomDelElementary"


_VARIANT_ALIASES = {
    "conv": BoundVariant.GEOMDEL_CONV,
    "trunc": BoundVariant.GEOMDEL_TRUNC,
    "delta-d": BoundVariant.GEOMDEL_DELTA_D,
    "deltad": BoundVariant.GEOMDEL_DELTA_D,
    "elementary": BoundVariant.GEOMDEL_ELEMENTARY,
    "sticky": BoundVariant.STICKY_EXACT,
    "duplication": BoundVariant.DUPLICATION_EXACT,
}


def as_bound_variant(value) -> BoundVariant | None:
    """Normalize a variant given as enum, tag string, alias, 'auto', or None."""
    if value is None or value == "auto":
        return None
    if isinstance(value, BoundVariant):
        return value
    if isinstance(value, str):
        if value in _VARIANT_ALIASES:
            return _VARIANT_ALIASES[value]
        try:
            return BoundVariant(value)
        except ValueError:
            pass
    raise ValueError(f"unknown bound variant {value!r}")


class BoundComputationError(RuntimeError):
    """A numerical failure (quadrature, series, an underflowed delta) or an
    infeasible optimum during a bound evaluation."""


@dataclass(frozen=True)
class BoundResult:
    """An optimized capacity upper bound at one channel parameter.

    bound_bits = bound_nats / log 2.  Every result is feasible: an optimized
    bound whose q_opt is infeasible raises BoundComputationError instead.
    clamped_to_one marks raw values above the trivial 1 bit/use cap; the raw
    value is still reported.
    epsilon_used is the KL-gap infimum entering the bound (0 for the
    zero-gap constructions, NaN for the closed-form elementary bound).
    """

    p: float
    variant: BoundVariant
    bound_nats: float
    bound_bits: float
    q_opt: float
    mu_opt: float
    epsilon_used: float
    clamped_to_one: bool


@dataclass(frozen=True)
class SweepFailure:
    """A per-point failure inside a sweep; the sweep itself continues."""

    p: float
    variant: BoundVariant | None
    message: str


def _q_grid(p: float) -> np.ndarray:
    # The points a binding bound's scan reads (_optimize).  The optimum sits
    # near 1 for retentive channels (the mean constraint forces
    # 1 - q = O(1 - p); 1 - q* = 2.6e-3 at p = 0.99), so once 1 - p is
    # small a geometric cluster is appended that reaches 1 - q =
    # 2e-2 (1 - p), floored at 2e-5.  The scan starts above Newton's last
    # iterate and stops just past the peak, so the S-table, about 28/(1-q)
    # terms for the largest q read, follows the peak rather than the
    # cluster's end.
    lo = max(2e-5, 2e-2 * (1.0 - p))
    parts = [np.linspace(0.01, 0.99, 64)]
    if lo < 1e-2:
        parts.append(1.0 - np.geomspace(lo, 1e-2, 12))
    grid = np.unique(np.concatenate(parts))
    return grid[(grid > 0.0) & (grid < 1.0)]


# Each deletion dual's KL-gap at delta = 1 for x = 1.._EPS_SCAN_X_MAX.  Each
# reads its scan function by name at call time, as a wrapper put on the
# module attribute expects.
_GAP_SCANS = {
    DualVariant.GEOMDEL_CONVEXITY: lambda p: convexity_gap_scan(p, _EPS_SCAN_X_MAX),
    DualVariant.GEOMDEL_TRUNCATED: lambda p: r_p(np.arange(1, _EPS_SCAN_X_MAX + 1, dtype=float), p),
}


def _gap_scan(dual: DualVariant, p: float) -> np.ndarray:
    """The dual's gap scan at p, kept in _DELTA_SCANS by (dual, p), so that
    conv, delta-d and deletion_delta read one array."""
    return _memo(_DELTA_SCANS, (dual, p), lambda: _GAP_SCANS[dual](p))


@dataclass(frozen=True)
class _Construction:
    """One bound variant: its dual and the template's m (module docstring),
    None for the closed form, which evaluates its dual analytically.
    Deletion constructions also carry whether their recommended delta is
    the balance rule (else 1-p); a dual in _GAP_SCANS has a KL-gap and so
    an eps.  The channel family is the dual's."""

    dual: DualVariant
    m: float | None = None
    balance: bool = False

    @property
    def family(self) -> Family:
        return _SPECS[self.dual].family


_CONSTRUCTIONS = {
    BoundVariant.STICKY_EXACT: _Construction(DualVariant.STICKY_ZERO_GAP, 0.0),
    BoundVariant.DUPLICATION_EXACT: _Construction(DualVariant.DUPLICATION_ZERO_GAP, 0.0),
    BoundVariant.GEOMDEL_CONV: _Construction(DualVariant.GEOMDEL_CONVEXITY, 1.0, balance=True),
    BoundVariant.GEOMDEL_TRUNC: _Construction(DualVariant.GEOMDEL_TRUNCATED, 1.0, balance=True),
    BoundVariant.GEOMDEL_DELTA_D: _Construction(DualVariant.GEOMDEL_CONVEXITY, 1.0),
    BoundVariant.GEOMDEL_ELEMENTARY: _Construction(DualVariant.INVERSE_BINOMIAL),
}


def constructions(family: Family, variant: BoundVariant | None = None) -> tuple[BoundVariant, ...]:
    """The constructions a request runs.  For variant None, the family's
    q-optimized constructions, whose best is its default bound; else
    (variant,), which must belong to the family (ValueError otherwise)."""
    if variant is None:
        return tuple(v for v, c in _CONSTRUCTIONS.items() if c.family is family and c.m is not None)
    if _CONSTRUCTIONS[variant].family is not family:
        raise ValueError(f"variant {variant.value} does not belong to {family.value}")
    return (variant,)


def _delta(con: _Construction, p: float, rule: str) -> float:
    """delta under rule 'one', 'd' or 'recommended'; the balance rule reads
    the gap at x = 1 from the cached scan the bound's eps reads (_gap_scan)."""
    if rule not in DELTA_RULES:
        raise ValueError(f"unknown delta rule {rule!r}")
    d = 1.0 - p
    if rule == "one":
        return 1.0
    if rule == "d" or not con.balance:
        return d
    gap1 = float(_gap_scan(con.dual, p)[0])
    return math.exp(min(-(gap1 - _SPECS[con.dual].gap_limit(p)) / d, 0.0))


def deletion_delta(p: float, variant, rule: str = "recommended") -> float:
    """Mass-at-zero value for a deletion dual under a named rule.

    rule 'one' leaves the dual unmodified (delta = 1), 'd' uses delta = 1-p,
    and 'recommended' uses the variant's own rule: 1-p for delta-d, and for
    the convexity and truncated variants the balance rule
    delta = min(exp(-(gap(1) - gap limit)/d), 1), which equates the gap at
    x = 1 with its x -> infinity limit (for the truncated variant the limit
    is 0, so delta = exp(-R_p(1)/d)).
    """
    p = _validate_p(p)
    variant = as_bound_variant(variant)
    if variant not in constructions(Family.GEOMETRIC_DELETION):
        raise ValueError(f"delta rules do not apply to variant {variant}")
    return _delta(_CONSTRUCTIONS[variant], p, rule)


def _single_variant(variant, caller: str) -> BoundVariant:
    """variant as one q-optimized construction, else a ValueError."""
    variant = as_bound_variant(variant)
    if variant is None or variant is BoundVariant.GEOMDEL_ELEMENTARY:
        raise ValueError(f"{caller} needs a single optimized variant")
    return variant


def gap_profile(p: float, variant, x_max: int, rule: str | None = None) -> tuple[np.ndarray, float]:
    """A construction's q-free KL-gaps at x = 1..x_max and their limit, in
    nats, under a delta rule: deletion_delta's (default 'recommended') for
    a deletion dual, only None or 'one' (delta = 1) for the others."""
    p = _validate_p(p)
    con = _CONSTRUCTIONS[_single_variant(variant, "gap_profile")]
    gaps = gap_scan(con.dual, p, x_max)
    if con.dual in _GAP_SCANS:
        delta = _delta(con, p, rule or "recommended")
    elif rule in (None, "one"):
        delta = 1.0
    else:
        raise ValueError("delta rules only apply to deletion duals")
    return _delta_rule(con.dual, gaps, p, delta)


class _Search:
    """One bound's search over q at p.  delta, eps and threshold, lambda =
    E[D] (the objective's factor and the mean constraint), are fixed once,
    before any q, and every dual the search builds is kept by q, so the
    root, the scan, the golden section and mu_opt read each q's dual once."""

    def __init__(self, p: float, variant: BoundVariant):
        con = _CONSTRUCTIONS[variant]
        self.p, self.con, self.built = p, con, {}
        self.where = f"(p = {p}, {variant.value})"
        self.d = 1.0 - p
        self.threshold = reduction_params(RepeatChannel(con.family, p)).lam
        self.delta, self.eps = 1.0, 0.0
        if con.dual in _GAP_SCANS:
            scan = _gap_scan(con.dual, p)
            self.delta = _delta(con, p, "recommended")
            if self.delta == 0.0:
                raise BoundComputationError(f"the balance delta underflows to 0 {self.where}")
            self.eps = _infimum(con.dual, *_delta_rule(con.dual, scan, p, self.delta), p)
        self.log_delta = math.log(self.delta)

    def dual(self, q: float):
        """The dual at q, built once.  A q whose series was refused or did
        not converge raises, not reads 0."""
        if q not in self.built:
            try:
                self.built[q] = build_dual(self.con.dual, self.p, q, delta=self.delta)
            except QuadratureError as exc:
                raise BoundComputationError(
                    f"quadrature failure at q = {q:.8g} {self.where}: {exc}"
                ) from exc
        dual = self.built[q]
        if not dual.series_converged:
            raise BoundComputationError(
                f"the series at q = {q:.8g} did not converge {self.where}: "
                f"the sup may lie past the series cap of {numerics._SERIES_HARD_CAP} terms"
            )
        return dual

    def objective(self, q: float) -> float:
        """The value under the sup at q, 0 where the dual mean is below the
        threshold."""
        dual = self.dual(q)
        log_norm, mu = dual.log_normalizer, dual.mean
        if mu < self.threshold:
            return 0.0
        return (
            self.threshold * (-self.eps - self.d * self.log_delta + log_norm - mu * math.log(q))
            / (self.con.m + mu)
        )

    def condition(self, q: float) -> float:
        """G(q), the first-order condition's left side less its right side:
        it rises with q, and its root is q*."""
        return (
            self.dual(q).log_normalizer + self.con.m * math.log(q)
            - self.eps - self.d * self.log_delta
        )

    def root(self) -> float:
        """q*, by Newton's method on G in theta = log q with G' = mu + m,
        or an iterate right of q* whose dual mean is below the threshold:
        the mean rises with q, so the constraint binds at q* too, and the
        binding search needs no more of the root.

        G is convex in theta, so each tangent lands at or right of theta*,
        and from there the iterates fall to it.  A step may shrink 1 - q
        at most 4x, so a start left of the root does not overshoot towards
        the series cap.  The start is 1 - d/4: the mean constraint keeps
        1 - q* at 0.21-0.44 d for the sticky and deletion channels over
        the tables.  Duplication's q* stays within 0.58-0.72 at every p,
        so its start is 0.7."""
        if self.con.family is Family.ELEMENTARY_DUPLICATION:
            q = 0.7
        else:
            q = 1.0 - 0.25 * self.d
        for _ in range(_NEWTON_MAX_STEPS):
            theta = math.log(q)
            g, mu = self.condition(q), self.dual(q).mean
            if g >= 0.0 and mu < self.threshold:
                return q
            step = g / (mu + self.con.m)
            if abs(step) <= max(_NEWTON_REL * abs(theta), 4.0 * math.ulp(q)):
                return q
            q = min(math.exp(theta - step), 1.0 - 0.25 * (1.0 - q))
        raise BoundComputationError(
            f"Newton's method on the first-order condition took more than "
            f"{_NEWTON_MAX_STEPS} steps {self.where}"
        )


def _result(p: float, variant: BoundVariant, nats: float, q_opt: float, mu_opt: float,
            eps: float) -> BoundResult:
    bits = nats / _LOG2
    return BoundResult(p, variant, nats, bits, q_opt, mu_opt, eps, clamped_to_one=bits > 1.0)


def _optimize(p: float, variant: BoundVariant) -> BoundResult:
    search = _Search(p, variant)
    # The series length grows with q, so no q past one whose series did not
    # converge converges either: the search raises at the first it reads.
    q_opt = search.root()
    nats = search.objective(q_opt)
    if search.dual(q_opt).mean < search.threshold:
        # The constraint binds: the sup sits where the dual mean reaches the
        # threshold, above q_opt, since the mean rises with q.  The scan from
        # grid[k], the first grid point above q_opt, with the bracket's left
        # end at grid[k - 1], is the whole grid's scan without zeros, which
        # neither stop the scan nor set its noise scale: same result.
        grid = _q_grid(p)
        k = int(np.searchsorted(grid, q_opt, side="right"))
        lo = 1e-6 if k == 0 else float(grid[k - 1])
        res = maximize_concave(search.objective, lo, 1.0 - 1e-6, grid[k:], _Q_OPT_TOL)
        q_opt, nats = float(res.arg), float(res.value)
    mu_opt = search.dual(q_opt).mean
    if mu_opt < search.threshold:
        raise BoundComputationError(
            f"q_opt = {q_opt:.8g} is infeasible {search.where}: the sup lies past "
            f"the series cap of {numerics._SERIES_HARD_CAP} terms, or no q is feasible"
        )
    return _result(p, variant, nats, q_opt, mu_opt, search.eps)


def objective_curve(p: float, variant, q_values) -> list[float]:
    """The quasi-concave function under the sup, in nats, at each q in q_values.

    Zero marks the infeasible region (dual mean below the reduction
    threshold).  A q whose series was refused or did not converge raises
    BoundComputationError naming the series cap.  Not defined for the
    closed-form elementary bound.
    """
    p = _validate_p(p)
    search = _Search(p, _single_variant(variant, "objective_curve"))
    return [search.objective(float(q)) for q in q_values]


def sticky_bound(p: float) -> BoundResult:
    """Best capacity upper bound for the geometric sticky channel, in which
    each input bit is replaced by Geometric(p) >= 1 copies of itself.

    The reduction to run lengths is lossless here, and the dual family has
    zero KL-gap, so the only slack is the restriction of the sup to means
    realized by the one-parameter family.
    """
    return _optimize(_validate_p(p), BoundVariant.STICKY_EXACT)


def duplication_bound(p: float) -> BoundResult:
    """Capacity upper bound for the elementary duplication channel, in which
    each input bit is duplicated once with probability p.

    Values above 1 bit/use are reported raw with clamped_to_one set; the
    bound is only informative for small p.
    """
    return _optimize(_validate_p(p), BoundVariant.DUPLICATION_EXACT)


def geomdel_bound(p: float, variant) -> BoundResult:
    """Capacity upper bound for the geometric deletion channel, in which
    each input bit is replaced by Geometric(p) >= 0 copies (so bits vanish
    with probability 1-p).

    variant selects the dual construction and its mass-at-zero rule:
    GEOMDEL_CONV, GEOMDEL_TRUNC, or GEOMDEL_DELTA_D (see module docstring).
    The KL-gap infimum eps and the rule's delta depend on p only, so both
    are fixed before the q-optimization.
    """
    p = _validate_p(p)
    variant = as_bound_variant(variant)
    if variant not in constructions(Family.GEOMETRIC_DELETION):
        raise ValueError(f"geomdel_bound does not handle variant {variant}")
    return _optimize(p, variant)


def geomdel_elementary_bound(p: float) -> BoundResult:
    """Closed-form geometric-deletion bound -d log d - log(1 - d/2)/d nats,
    d = 1-p, valid for d < 1/2.

    It comes from fixing delta = d and q = 1 - d/2 in the inverse-binomial
    construction and bounding the normalizer analytically instead of
    optimizing; the value tends to 1/(2 log 2) ~ 0.7214 bits as p -> 1.  It
    rises with d and crosses 0.73 bits at d ~ 8.31e-4 (0.731494 bits at
    d = 1e-3).
    """
    p = _validate_p(p)
    d = 1.0 - p
    if d >= 0.5:
        raise ValueError(f"elementary bound requires p > 1/2, got p = {p}")
    nats = -d * math.log(d) - math.log1p(-d / 2.0) / d
    return _result(p, BoundVariant.GEOMDEL_ELEMENTARY, nats, 1.0 - d / 2.0, math.nan, math.nan)


def best_bound(p: float, results) -> BoundResult | SweepFailure:
    """The family default at p from its constructions' results: the least
    bound among those computed, or a SweepFailure when none was."""
    ok = [r for r in results if isinstance(r, BoundResult)]
    if not ok:
        return SweepFailure(p, None, "all variants failed")
    return min(ok, key=lambda r: r.bound_nats)


def _bound_for(family: Family, variant: BoundVariant | None, p: float) -> BoundResult:
    candidates = constructions(family, variant)
    if variant is BoundVariant.GEOMDEL_ELEMENTARY:
        return geomdel_elementary_bound(p)
    # The family default is the best of its optimized constructions that
    # can be computed; the winner's identity stays in the variant field.
    p = _validate_p(p)
    results, errors = [], []
    for v in candidates:
        try:
            results.append(_optimize(p, v))
        except BoundComputationError as exc:
            errors.append(exc)
    if results:
        return best_bound(p, results)
    if len(errors) == 1:
        raise errors[0]
    raise BoundComputationError(
        "no construction could be computed: " + "; ".join(map(str, errors))
    )


def compute_bound(family, variant, p: float) -> BoundResult:
    """One bound for any family/variant combination.

    variant None or 'auto' picks the family default: the exact bound for
    sticky and duplication, the minimum over the three optimized
    constructions for deletion.  A deletion construction that raises
    BoundComputationError drops out of that minimum; the error is raised
    only when no construction can be computed.
    """
    return _bound_for(Family(family), as_bound_variant(variant), float(p))


def _attempt(family: Family, variant: BoundVariant | None, p: float):
    try:
        return _bound_for(family, variant, p)
    except Exception as exc:
        return SweepFailure(p, variant, f"{type(exc).__name__}: {exc}")


def _evaluate_point(task: tuple[Family, tuple[BoundVariant | None, ...], float]):
    """Every bound one p needs, in one process and in the order given
    (_CONSTRUCTIONS order), so delta-d reuses the gap scan and S-table
    conv built at the same p.  A failing variant gives a SweepFailure in
    its place; the others still run."""
    family, variants, p = task
    return tuple(_attempt(family, v, p) for v in variants)


def evaluate_points(tasks: list, max_workers: int | None = None) -> list[tuple]:
    """_evaluate_point over (family, variants, p) tasks, in input order.
    max_workers > 1 spreads the tasks over one pool of worker processes."""
    if max_workers is not None and max_workers > 1 and len(tasks) > 1:
        # imported here, so a process that never opens a pool never loads
        # concurrent.futures.process and multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(max_workers, len(tasks))) as pool:
            return list(pool.map(_evaluate_point, tasks))
    return [_evaluate_point(t) for t in tasks]


def sweep(
    family,
    variant,
    p_values,
    *,
    max_workers: int | None = None,
) -> list[BoundResult | SweepFailure]:
    """One bound per p, in input order; per-point failures are returned
    in-place as SweepFailure records rather than aborting the sweep.

    variant None (or 'auto') means the family default: the exact bound for
    sticky/duplication, the min of the three optimized constructions for
    deletion.  Each p is one task whose constructions all run in the same
    process, so they share its weight caches and gap scan;
    max_workers > 1 spreads the p values over worker processes.
    """
    family = Family(family)
    variant = as_bound_variant(variant)
    constructions(family, variant)  # a variant of another family raises here
    # one task per p: a None variant is the family default's one min row
    tasks = [(family, (variant,), float(p)) for p in p_values]
    return [r for (r,) in evaluate_points(tasks, max_workers)]


@dataclass(frozen=True)
class TableCheck:
    """One verified table entry: |computed - expected| against a tolerance.

    For entries printed as '>1' the check is that the computed raw value
    exceeds 1 bit (deviation is NaN there).  note carries the failure
    message when the computation itself errored.
    """

    table_id: str
    p: float
    column: str
    expected: str
    computed: float
    deviation: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class TableVerification:
    checks: tuple[TableCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[TableCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _check_value(
    table_id: str,
    p: float,
    column: str,
    expected: float | None,
    result,
    tol: float,
) -> TableCheck:
    if isinstance(result, SweepFailure):
        return TableCheck(
            table_id, p, column, ">1" if expected is None else f"{expected:.6f}",
            math.nan, math.nan, tol, False, note=result.message,
        )
    computed = result.bound_bits
    if expected is None:
        return TableCheck(
            table_id, p, column, ">1", computed, math.nan, tol,
            passed=bool(computed > 1.0 and result.clamped_to_one),
        )
    dev = abs(computed - expected)
    return TableCheck(
        table_id, p, column, f"{expected:.6f}", computed, dev, tol, passed=dev <= tol
    )


def verify_tables(
    tolerance: float | None = None,
    *,
    only: tuple[str, ...] | None = None,
    max_workers: int | None = None,
) -> TableVerification:
    """Recompute every embedded reference-table entry and compare.

    With tolerance None, per-table defaults apply: 1e-5 for the sticky
    table at p <= 0.5 and 1e-3 above (the q-optimum sits in a flat near-1
    region there and the published digits are softer), 5e-4 for the
    duplication table (printed to 4 decimals), 1e-3 for the deletion
    table.  A finite float >= 0 overrides all of them; any other float is a
    ValueError, raised before any bound is computed.  only restricts to a
    nonempty subset of {'T1', 'T2', 'T3'} (full table_ids also accepted).
    """
    if tolerance is not None and not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    if not tables.verify_integrity():
        raise RuntimeError("embedded reference tables failed their checksum")
    if only is not None:
        wanted = {name[:2].upper() for name in only}
        unknown = wanted - set(TABLE_SELECTORS)
        if not wanted:
            raise ValueError("only names no table")
        if unknown:
            raise ValueError(f"unknown table selector(s): {sorted(unknown)}")
    else:
        wanted = set(TABLE_SELECTORS)
    # One task per table row, all mapped at once: a T3 row runs conv and
    # trunc, plus delta-d where the table prints it.
    rows, tasks = [], []
    for table in tables.ALL_TABLES:
        if table.table_id[:2] not in wanted:
            continue
        for row in table.rows:
            variants = (None,)
            if table.family is Family.GEOMETRIC_DELETION:
                variants = (BoundVariant.GEOMDEL_CONV, BoundVariant.GEOMDEL_TRUNC)
                if row[3] is not None:
                    variants += (BoundVariant.GEOMDEL_DELTA_D,)
            rows.append((table.table_id, row))
            tasks.append((table.family, variants, row[0]))

    checks: list[TableCheck] = []
    for (table_id, row), res in zip(rows, evaluate_points(tasks, max_workers)):
        p, key = row[0], table_id[:2]
        default = {"T1": 1e-5 if p <= 0.5 else 1e-3, "T2": 5e-4, "T3": 1e-3}[key]
        tol = default if tolerance is None else tolerance
        if key != "T3":
            checks.append(_check_value(table_id, p, "ours", row[3], res[0], tol))
            continue
        # The published "ours" column is the best of conv and trunc;
        # delta-d has a column of its own.
        failed = [r for r in res[:2] if isinstance(r, SweepFailure)]
        best = failed[0] if failed else best_bound(p, res[:2])
        checks.append(_check_value(table_id, p, "ours", row[2], best, tol))
        if row[3] is not None:
            checks.append(_check_value(table_id, p, "ours_delta_d", row[3], res[2], tol))
    return TableVerification(checks=tuple(checks))
