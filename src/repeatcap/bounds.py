"""Analytical capacity upper bounds for binary repeat channels.

Each bound instantiates the same duality template: if a candidate output
distribution Y satisfies D_KL(Y_x || Y) >= -log_norm + E[Y_x] * (-log q)
- eps for every input run length x >= 1 (eps the infimum of the KL-gap),
then the capacity of the mean-limited auxiliary channel is bounded affinely
in its mean, and the run-length reduction turns that into a per-symbol
capacity bound.  Concretely, with mu = E[Y^(q)] the dual mean and d = 1-p:

    sticky:       (log_norm - mu log q) / (mu (1-p)),        mu >= 1/(1-p)
    duplication:  (1+p) (log_norm - mu log q) / mu,          mu >= 1+p
    deletion:     p (-eps - d log delta + log_norm - mu log q) / (d (1+mu)),
                                                             mu >= p/(1-p)

each maximized over q in (0, 1), where infeasible q (dual mean below the
reduction threshold) contribute objective value 0.  Each objective is
quasi-concave in q on the feasible set: with theta = log q and
Z = delta [deletion] + sum_y a(y) e^(theta y), log Z is convex in theta, so
mu = (log Z)' increases with q, and F = log_norm - mu log q, the negative
Legendre transform of log Z, is concave in mu; each value above is F (less
a constant) over a positive affine function of mu.  So once a positive
value descends it never rises again, and the q scan stops at the first
sustained descent past the peak (numerics.maximize_concave).  The sticky and
duplication duals have zero gap, so eps = 0 there.  The deletion bound
comes in three flavors differing in the dual and its mass-at-zero rule:

    Conv:   convexity-based weights, balance delta (gap limit 1/2)
    Trunc:  truncated-integral weights, balance delta (gap limit 0, so
            delta = exp(-R_p(1)/d))
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
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repeatcap import tables
from repeatcap.channels import Family, RepeatChannel, reduction_params
from repeatcap.duals import (
    _DELTA_SCANS,
    _SPECS,
    DualVariant,
    build_dual,
    convexity_gap_scan,
    r_p,
)
from repeatcap.numerics import QuadratureError, maximize_concave

_LOG2 = math.log(2.0)
_EPS_SCAN_X_MAX = 500


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
    """A numerical failure (quadrature or series) during a bound evaluation."""


@dataclass(frozen=True)
class BoundResult:
    """An optimized capacity upper bound at one channel parameter.

    bound_bits = bound_nats / log 2.  feasible records whether the dual mean
    constraint was met at q_opt (if no q on the search grid was feasible the
    objective is identically 0 and this is False).  clamped_to_one marks raw
    values above the trivial 1 bit/use cap; the raw value is still reported.
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
    feasible: bool
    clamped_to_one: bool


@dataclass(frozen=True)
class SweepFailure:
    """A per-point failure inside a sweep; the sweep itself continues."""

    p: float
    variant: BoundVariant | None
    message: str


def _validate_p(p: float) -> float:
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return p


def _q_grid(p: float) -> np.ndarray:
    # The optimum sits near 1 for retentive channels (the mean constraint
    # forces 1 - q = O(1 - p); 1 - q* = 2.6e-3 at p = 0.99), so once 1 - p
    # is small a geometric cluster is appended that reaches 1 - q =
    # 2e-2 (1 - p), floored at 2e-5.  The scan stops just past the peak,
    # so the S-table, about 28/(1-q) terms for the largest q read, follows
    # q* rather than the cluster's end.
    lo = max(2e-5, 2e-2 * (1.0 - p))
    parts = [np.linspace(0.01, 0.99, 64)]
    if lo < 1e-2:
        parts.append(1.0 - np.geomspace(lo, 1e-2, 12))
    grid = np.unique(np.concatenate(parts))
    return grid[(grid > 0.0) & (grid < 1.0)]


_SCAN_LOCK = threading.Lock()


def _delta_scan(p: float, x_max: int = _EPS_SCAN_X_MAX) -> np.ndarray:
    key = (float(p), int(x_max))
    with _SCAN_LOCK:
        cached = _DELTA_SCANS.get(key)
    if cached is not None:
        return cached
    scan = convexity_gap_scan(p, x_max)
    with _SCAN_LOCK:
        _DELTA_SCANS[key] = scan
    return scan


def _epsilon_inf_modified(
    gap_scan: np.ndarray, d: float, log_delta: float, gap_limit: float
) -> tuple[float, str]:
    """inf over x of gap(x) - d log delta + d^x log delta, against the
    analytic x -> infinity limit; returns the inf and where it was attained."""
    xs = np.arange(1, gap_scan.size + 1, dtype=float)
    with np.errstate(under="ignore"):
        modified = gap_scan - d * log_delta + d**xs * log_delta
    i = int(np.argmin(modified))
    scan_min = float(modified[i])
    limit = gap_limit - d * log_delta
    if limit < scan_min:
        return limit, "limit"
    return scan_min, f"x={i + 1}"


def _sticky_value(log_norm, mu, log_q, d, log_delta, eps):
    return (log_norm - mu * log_q) / (mu * d)


def _dup_value(log_norm, mu, log_q, d, log_delta, eps):
    p = 1.0 - d
    return (1.0 + p) * (log_norm - mu * log_q) / mu


def _geomdel_value(log_norm, mu, log_q, d, log_delta, eps):
    p = 1.0 - d
    return p * (-eps - d * log_delta + log_norm - mu * log_q) / (d * (1.0 + mu))


def _truncated_gap_scan(p: float, x_max: int) -> np.ndarray:
    return r_p(np.arange(1, x_max + 1, dtype=float), p)


@dataclass(frozen=True)
class _Construction:
    """One bound variant: its channel family, its dual (None for the closed
    form) and the value formula under the sup.  Deletion duals also carry
    gap_scan(p, x_max), their KL-gap at delta = 1 for x = 1..x_max, and
    whether their recommended delta is the balance rule (else 1-p)."""

    family: Family
    dual: DualVariant | None = None
    value_from: Callable[..., float] | None = None
    gap_scan: Callable[[float, int], np.ndarray] | None = None
    balance: bool = False


_CONSTRUCTIONS = {
    BoundVariant.STICKY_EXACT: _Construction(
        Family.GEOMETRIC_STICKY, DualVariant.STICKY_ZERO_GAP, _sticky_value
    ),
    BoundVariant.DUPLICATION_EXACT: _Construction(
        Family.ELEMENTARY_DUPLICATION, DualVariant.DUPLICATION_ZERO_GAP, _dup_value
    ),
    BoundVariant.GEOMDEL_CONV: _Construction(
        Family.GEOMETRIC_DELETION, DualVariant.GEOMDEL_CONVEXITY, _geomdel_value,
        _delta_scan, balance=True,
    ),
    BoundVariant.GEOMDEL_TRUNC: _Construction(
        Family.GEOMETRIC_DELETION, DualVariant.GEOMDEL_TRUNCATED, _geomdel_value,
        _truncated_gap_scan, balance=True,
    ),
    BoundVariant.GEOMDEL_DELTA_D: _Construction(
        Family.GEOMETRIC_DELETION, DualVariant.GEOMDEL_CONVEXITY, _geomdel_value,
        _delta_scan,
    ),
    BoundVariant.GEOMDEL_ELEMENTARY: _Construction(Family.GEOMETRIC_DELETION),
}


def _optimized(family: Family) -> tuple[BoundVariant, ...]:
    """The family's q-optimized constructions; its default bound is their best."""
    return tuple(
        v for v, c in _CONSTRUCTIONS.items() if c.family is family and c.dual is not None
    )


def _best(results):
    return min(results, key=lambda r: r.bound_nats)


def _delta(con: _Construction, p: float, rule: str, scan=None) -> float:
    """delta under rule 'one', 'd' or 'recommended'; the balance rule reads
    the gap at x = 1 from scan, scanning x = 1 alone when none is given."""
    if rule not in ("one", "d", "recommended"):
        raise ValueError(f"unknown delta rule {rule!r}")
    d = 1.0 - p
    if rule == "one":
        return 1.0
    if rule == "d" or not con.balance:
        return d
    gap1 = float((con.gap_scan(p, 1) if scan is None else scan)[0])
    return min(math.exp(-(gap1 - _SPECS[con.dual].gap_limit(p)) / d), 1.0)


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
    if variant not in _optimized(Family.GEOMETRIC_DELETION):
        raise ValueError(f"delta rules do not apply to variant {variant}")
    return _delta(_CONSTRUCTIONS[variant], p, rule)


@dataclass(frozen=True)
class _Pieces:
    """Everything that fixes one objective before the q-optimization."""

    con: _Construction
    delta: float
    eps: float
    threshold: float


def _pieces(p: float, variant: BoundVariant) -> _Pieces:
    con = _CONSTRUCTIONS[variant]
    if con.dual is None:
        raise ValueError(f"no q-objective for variant {variant}")
    threshold = reduction_params(RepeatChannel(con.family, p)).lam
    if con.gap_scan is None:
        return _Pieces(con, 1.0, 0.0, threshold)
    scan = con.gap_scan(p, _EPS_SCAN_X_MAX)
    delta = _delta(con, p, "recommended", scan)
    limit = _SPECS[con.dual].gap_limit(p)
    eps, _attained = _epsilon_inf_modified(scan, 1.0 - p, math.log(delta), limit)
    return _Pieces(con, delta, eps, threshold)


def _dual_at(p: float, variant: BoundVariant, pieces: _Pieces, q: float):
    try:
        return build_dual(pieces.con.dual, p, q, delta=pieces.delta)
    except QuadratureError as exc:
        raise BoundComputationError(
            f"quadrature failure at q = {q:.8g} (p = {p}, {variant.value}): {exc}"
        ) from exc


def _objective(p: float, variant: BoundVariant, pieces: _Pieces) -> Callable[[float], float]:
    d = 1.0 - p
    log_delta = math.log(pieces.delta)

    def objective(q: float) -> float:
        dual = _dual_at(p, variant, pieces, q)
        if not dual.series_converged:
            return 0.0
        mu = dual.mean
        if mu < pieces.threshold:
            return 0.0
        return pieces.con.value_from(
            dual.log_normalizer, mu, math.log(q), d, log_delta, pieces.eps
        )

    return objective


def _optimize(p: float, variant: BoundVariant) -> BoundResult:
    pieces = _pieces(p, variant)
    objective = _objective(p, variant, pieces)
    res = maximize_concave(
        objective, 1e-6, 1.0 - 1e-6, tol=1e-7, grid=_q_grid(p), quasiconcave=True
    )
    q_opt = float(res.arg)
    nats = float(res.value)
    at_opt = _dual_at(p, variant, pieces, q_opt)
    mu_opt = float(at_opt.mean) if at_opt.series_converged else math.nan
    feasible = at_opt.series_converged and at_opt.mean >= pieces.threshold
    bits = nats / _LOG2
    return BoundResult(
        p=p,
        variant=variant,
        bound_nats=nats,
        bound_bits=bits,
        q_opt=q_opt,
        mu_opt=mu_opt,
        epsilon_used=pieces.eps,
        feasible=feasible,
        clamped_to_one=bits > 1.0,
    )


def objective_curve(p: float, variant, q_values) -> list[float]:
    """The quasi-concave function under the sup, in nats, at each q in q_values.

    Zero marks the infeasible region (dual mean below the reduction
    threshold, or a series past the convergence guard).  Not defined for
    the closed-form elementary bound.
    """
    p = _validate_p(p)
    variant = as_bound_variant(variant)
    if variant is None or variant is BoundVariant.GEOMDEL_ELEMENTARY:
        raise ValueError("objective_curve needs a single optimized variant")
    objective = _objective(p, variant, _pieces(p, variant))
    return [objective(float(q)) for q in q_values]


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
    if variant not in _optimized(Family.GEOMETRIC_DELETION):
        raise ValueError(f"geomdel_bound does not handle variant {variant}")
    return _optimize(p, variant)


def geomdel_elementary_bound(p: float) -> BoundResult:
    """Closed-form geometric-deletion bound -d log d - log(1 - d/2)/d nats,
    d = 1-p, valid for d < 1/2.

    It comes from fixing delta = d and q = 1 - d/2 in the inverse-binomial
    construction and bounding the normalizer analytically instead of
    optimizing; the value tends to 1/(2 log 2) ~ 0.7214 bits as p -> 1 and
    stays below 0.73 bits for d <= 1e-3.
    """
    p = _validate_p(p)
    d = 1.0 - p
    if d >= 0.5:
        raise ValueError(f"elementary bound requires p > 1/2, got p = {p}")
    q = 1.0 - d / 2.0
    nats = -d * math.log(d) - math.log1p(-d / 2.0) / d
    bits = nats / _LOG2
    return BoundResult(
        p=p,
        variant=BoundVariant.GEOMDEL_ELEMENTARY,
        bound_nats=nats,
        bound_bits=bits,
        q_opt=q,
        mu_opt=math.nan,
        epsilon_used=math.nan,
        feasible=True,
        clamped_to_one=bits > 1.0,
    )


def _check_family(family: Family, variant: BoundVariant | None) -> None:
    """Reject a variant (None: the family default) that belongs to another family."""
    if variant is not None and _CONSTRUCTIONS[variant].family is not family:
        raise ValueError(f"variant {variant.value} does not belong to {family.value}")


def _bound_for(family: Family, variant: BoundVariant | None, p: float) -> BoundResult:
    _check_family(family, variant)
    if variant is BoundVariant.GEOMDEL_ELEMENTARY:
        return geomdel_elementary_bound(p)
    # The family default is the best of its optimized constructions; the
    # winner's identity stays in the variant field.
    candidates = _optimized(family) if variant is None else (variant,)
    if not candidates:
        raise ValueError(f"no capacity bound for family {family.value}")
    p = _validate_p(p)
    return _best(_optimize(p, v) for v in candidates)


def compute_bound(family, variant, p: float) -> BoundResult:
    """One bound for any family/variant combination.

    variant None or 'auto' picks the family default: the exact bound for
    sticky and duplication, the minimum over the three optimized
    constructions for deletion.
    """
    return _bound_for(Family(family), as_bound_variant(variant), float(p))


def _sweep_point(task: tuple[Family, BoundVariant | None, float]):
    family, variant, p = task
    try:
        return _bound_for(family, variant, p)
    except Exception as exc:
        return SweepFailure(p=p, variant=variant, message=f"{type(exc).__name__}: {exc}")


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
    deletion.  Points are independent; max_workers > 1 runs them in worker
    processes (each rebuilds its own weight caches).
    """
    family = Family(family)
    variant = as_bound_variant(variant)
    _check_family(family, variant)
    tasks = [(family, variant, float(p)) for p in p_values]
    if not tasks:
        return []
    if max_workers is not None and max_workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(_sweep_point, tasks))
    return [_sweep_point(t) for t in tasks]


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
    table.  A float overrides all of them.  only restricts to a subset of
    {'T1', 'T2', 'T3'} (full table_ids also accepted).
    """
    if not tables.verify_integrity():
        raise RuntimeError("embedded reference tables failed their checksum")
    if only is not None:
        wanted = {name[:2].upper() for name in only}
        unknown = wanted - {"T1", "T2", "T3"}
        if unknown:
            raise ValueError(f"unknown table selector(s): {sorted(unknown)}")
    else:
        wanted = {"T1", "T2", "T3"}
    t1, t2, t3 = tables.T1_STICKY, tables.T2_DUPLICATION, tables.T3_GEOMDEL
    checks: list[TableCheck] = []

    if "T1" in wanted:
        t1_ps = [row[0] for row in t1.rows]
        t1_res = sweep(Family.GEOMETRIC_STICKY, None, t1_ps, max_workers=max_workers)
        for row, res in zip(t1.rows, t1_res):
            p, expected = row[0], row[3]
            tol = tolerance if tolerance is not None else (1e-5 if p <= 0.5 else 1e-3)
            checks.append(_check_value("T1_sticky", p, "ours", expected, res, tol))

    if "T2" in wanted:
        t2_ps = [row[0] for row in t2.rows]
        t2_res = sweep(
            Family.ELEMENTARY_DUPLICATION, None, t2_ps, max_workers=max_workers
        )
        for row, res in zip(t2.rows, t2_res):
            p, expected = row[0], row[3]
            tol = tolerance if tolerance is not None else 5e-4
            checks.append(_check_value("T2_duplication", p, "ours", expected, res, tol))

    if "T3" in wanted:
        t3_ps = [row[0] for row in t3.rows]
        t3_dd_ps = [row[0] for row in t3.rows if row[3] is not None]
        conv_res, trunc_res, dd_res = (
            sweep(Family.GEOMETRIC_DELETION, v, ps, max_workers=max_workers)
            for v, ps in (
                (BoundVariant.GEOMDEL_CONV, t3_ps),
                (BoundVariant.GEOMDEL_TRUNC, t3_ps),
                (BoundVariant.GEOMDEL_DELTA_D, t3_dd_ps),
            )
        )
        dd_map = dict(zip(t3_dd_ps, dd_res))
        for row, rc, rt in zip(t3.rows, conv_res, trunc_res):
            p, expected, expected_dd = row[0], row[2], row[3]
            tol = tolerance if tolerance is not None else 1e-3
            # The published "ours" column is the best of conv and trunc;
            # delta-d has a column of its own.
            failed = [r for r in (rc, rt) if isinstance(r, SweepFailure)]
            best = failed[0] if failed else _best((rc, rt))
            checks.append(_check_value("T3_geomdel", p, "ours", expected, best, tol))
            if expected_dd is not None:
                checks.append(
                    _check_value(
                        "T3_geomdel", p, "ours_delta_d", expected_dd, dd_map[p], tol
                    )
                )
    return TableVerification(checks=tuple(checks))
