"""Capacity bound assembly: objectives, optimization, sweeps, verification."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import importlib.util
import math
import pathlib
import sys

import numpy as np
import pytest

from repeatcap import bounds, channels, duals, numerics, tables
from repeatcap.bounds import (
    BoundResult,
    BoundVariant,
    SweepFailure,
    as_bound_variant,
    compute_bound,
    deletion_delta,
    duplication_bound,
    geomdel_bound,
    geomdel_elementary_bound,
    objective_curve,
    sticky_bound,
    sweep,
    verify_tables,
)
from repeatcap.channels import Family
from repeatcap.duals import DualVariant, r_p
from repeatcap.numerics import OptimizeResult, maximize_concave

import oracles

_LOG2 = math.log(2.0)


def test_sticky_bound_published_points():
    res = sticky_bound(0.05)
    assert isinstance(res, BoundResult)
    assert abs(res.bound_bits - 0.814464) <= 1e-5
    assert abs(res.bound_nats - res.bound_bits * _LOG2) <= 1e-14
    assert not res.clamped_to_one
    assert abs(sticky_bound(0.5).bound_bits - 0.394333) <= 1e-5


def test_duplication_bound_published_points():
    assert abs(duplication_bound(0.1).bound_bits - 0.7406) <= 5e-4
    res = duplication_bound(0.8)
    assert res.bound_bits > 1.0
    assert res.clamped_to_one


def test_geomdel_bounds_published_points():
    conv = geomdel_bound(0.5, BoundVariant.GEOMDEL_CONV)
    assert abs(conv.bound_bits - 0.168074) <= 1e-5
    assert abs(conv.epsilon_used - oracles.EPSILON_CONV_HALF) <= 1e-9
    trunc = geomdel_bound(0.05, BoundVariant.GEOMDEL_TRUNC)
    assert abs(trunc.bound_bits - 0.021244) <= 1e-5
    dd = geomdel_bound(0.99, BoundVariant.GEOMDEL_DELTA_D)
    assert abs(dd.bound_bits - 0.338927) <= 1e-5


def test_geomdel_auto_takes_minimum():
    res = compute_bound(Family.GEOMETRIC_DELETION, None, 0.5)
    assert res.variant is BoundVariant.GEOMDEL_CONV
    assert abs(res.bound_bits - 0.168074) <= 1e-5
    low = compute_bound(Family.GEOMETRIC_DELETION, None, 0.05)
    assert low.variant is BoundVariant.GEOMDEL_TRUNC


def _failing_r_p(x, p):
    # the error that drops a construction from auto, as trunc's delta
    # underflow does at p = 0.9998
    raise bounds.BoundComputationError("trunc cannot be computed here")


def test_geomdel_auto_skips_a_construction_that_fails(monkeypatch):
    monkeypatch.setattr(bounds, "r_p", _failing_r_p)
    res = compute_bound(Family.GEOMETRIC_DELETION, None, 1e-4)
    computable = [geomdel_bound(1e-4, v) for v in ("conv", "delta-d")]
    assert res == min(computable, key=lambda r: r.bound_nats)
    assert 5e-5 < res.bound_bits < 7e-5


def test_default_raises_when_no_construction_succeeds(monkeypatch):
    def fail(p, variant):
        raise bounds.BoundComputationError(f"no {variant.value}")

    monkeypatch.setattr(bounds, "_optimize", fail)
    with pytest.raises(bounds.BoundComputationError, match="no GeomDelConv; no GeomDelTrunc"):
        compute_bound(Family.GEOMETRIC_DELETION, None, 0.5)
    with pytest.raises(bounds.BoundComputationError, match="^no StickyExact$"):
        compute_bound(Family.GEOMETRIC_STICKY, None, 0.5)


def test_elementary_bound():
    res = geomdel_elementary_bound(1.0 - 1e-6)  # d = 1-p = 1e-6
    assert abs(res.bound_bits - 1.0 / (2.0 * _LOG2)) <= 1e-4
    assert math.isnan(res.mu_opt)
    with pytest.raises(ValueError):
        geomdel_elementary_bound(0.5)  # needs d = 1-p < 1/2


def test_p_domain_validation():
    for fn in (sticky_bound, duplication_bound):
        with pytest.raises(ValueError):
            fn(0.0)
        with pytest.raises(ValueError):
            fn(1.5)


def test_variant_family_pairing():
    with pytest.raises(ValueError):
        geomdel_bound(0.5, BoundVariant.STICKY_EXACT)
    with pytest.raises(ValueError):
        compute_bound(Family.GEOMETRIC_STICKY, BoundVariant.GEOMDEL_CONV, 0.3)


def test_as_bound_variant():
    assert as_bound_variant(None) is None
    assert as_bound_variant("auto") is None
    assert as_bound_variant("conv") is BoundVariant.GEOMDEL_CONV
    assert as_bound_variant("trunc") is BoundVariant.GEOMDEL_TRUNC
    assert as_bound_variant("delta-d") is BoundVariant.GEOMDEL_DELTA_D
    assert as_bound_variant("GeomDelConv") is BoundVariant.GEOMDEL_CONV
    assert as_bound_variant(BoundVariant.STICKY_EXACT) is BoundVariant.STICKY_EXACT
    with pytest.raises(ValueError):
        as_bound_variant("nonsense")


def test_conv_balance_delta_saturates_instead_of_overflowing():
    # gap(1) < 1/2 there, so the balance exponent passes 709 before the cap at 1
    assert deletion_delta(0.9998, "conv") == 1.0


def test_underflowed_trunc_delta_is_a_bound_error():
    with pytest.raises(bounds.BoundComputationError, match=r"underflows to 0 \(p = 0\.9998,"):
        geomdel_bound(0.9998, "trunc")


@pytest.mark.parametrize("variant", [BoundVariant.STICKY_EXACT, BoundVariant.GEOMDEL_DELTA_D])
def test_infeasible_q_opt_is_a_bound_error_not_a_bound(variant, cold_tables):
    # G is still negative where the series stops converging: the root lies
    # past the series cap, and the error names it rather than return a bound
    family = bounds._CONSTRUCTIONS[variant].family
    with pytest.raises(
        bounds.BoundComputationError,
        match=rf"\(p = 0\.99995, {variant.value}\): .*series cap of "
        rf"{numerics._SERIES_HARD_CAP} terms",
    ):
        compute_bound(family, variant, 0.99995)


def test_newton_step_cap_is_a_bound_error(monkeypatch):
    # The root's Newton iteration gives up after _NEWTON_MAX_STEPS steps
    # rather than loop; one step never reaches sticky's q* at p = 0.3.
    monkeypatch.setattr(bounds, "_NEWTON_MAX_STEPS", 1)
    with pytest.raises(bounds.BoundComputationError) as exc:
        bounds._optimize(0.3, BoundVariant.STICKY_EXACT)
    assert str(exc.value) == (
        "Newton's method on the first-order condition took more than 1 steps "
        "(p = 0.3, StickyExact)"
    )


def test_infeasible_scanned_q_opt_is_a_bound_error(monkeypatch):
    # A q_opt whose dual mean stays below the threshold after the scan is
    # not a bound: a root and a scan that both land at q = 1e-3 raise.
    monkeypatch.setattr(bounds._Search, "root", lambda self: 1e-3)
    monkeypatch.setattr(
        bounds, "maximize_concave", lambda f, lo, hi, grid, tol: OptimizeResult(1e-3, 0.0, True, 1)
    )
    with pytest.raises(bounds.BoundComputationError) as exc:
        bounds._optimize(0.3, BoundVariant.STICKY_EXACT)
    assert str(exc.value) == (
        "q_opt = 0.001 is infeasible (p = 0.3, StickyExact): the sup lies past "
        f"the series cap of {numerics._SERIES_HARD_CAP} terms, or no q is feasible"
    )


def test_verify_tables_refuses_tables_that_fail_their_checksum(monkeypatch):
    monkeypatch.setattr(tables, "verify_integrity", lambda: False)
    with pytest.raises(RuntimeError) as exc:
        verify_tables(only=("T1",))
    assert str(exc.value) == "embedded reference tables failed their checksum"


@pytest.mark.parametrize(
    "family, variant, p, winner, bits",
    [
        (Family.GEOMETRIC_DELETION, None, 0.999, "GeomDelDeltaD", 0.341746574036),
        (Family.GEOMETRIC_DELETION, None, 0.9995, "GeomDelDeltaD", 0.341903287271),
        (Family.GEOMETRIC_DELETION, "delta-d", 0.9998, "GeomDelDeltaD", 0.341997320349),
        (Family.GEOMETRIC_STICKY, None, 0.9999, "StickyExact", 0.489290515902),
    ],
)
def test_near_one_bounds_converge_without_a_silent_fallback(
    family, variant, p, winner, bits, cold_tables
):
    # Near p = 1 a step of 1e-13 |log q| is finer than q's rounding, so
    # only the 4 ulp(q) floor lets Newton stop; without it delta-d fails
    # from p = 0.9995 on, and auto falls back to a far looser construction
    # without a word.
    res = compute_bound(family, variant, p)
    assert res.variant.value == winner
    assert abs(res.bound_bits - bits) <= 1e-12


def test_deletion_delta_rules():
    p = 0.3
    d = 1.0 - p
    assert deletion_delta(p, BoundVariant.GEOMDEL_TRUNC, "one") == 1.0
    assert deletion_delta(p, BoundVariant.GEOMDEL_DELTA_D, "d") == d
    want = math.exp(-oracles.R_P[(1, 0.3)] / d)
    assert abs(deletion_delta(p, BoundVariant.GEOMDEL_TRUNC, "recommended") - want) <= 1e-10
    conv = deletion_delta(p, BoundVariant.GEOMDEL_CONV, "recommended")
    assert 0.0 < conv <= 1.0
    with pytest.raises(ValueError):
        deletion_delta(p, BoundVariant.GEOMDEL_CONV, "bogus")
    with pytest.raises(ValueError):
        deletion_delta(0.5, "sticky", "one")
    with pytest.raises(ValueError):
        deletion_delta(0.5, None, "d")
    with pytest.raises(ValueError):
        deletion_delta(0.5, "elementary", "d")


@pytest.mark.parametrize("rule", (None, *bounds.DELTA_RULES))
@pytest.mark.parametrize("variant", ("conv", "trunc", "delta-d"))
def test_gap_profile_is_the_scan_under_the_delta_rule(variant, rule):
    p, x_max = 0.6, 7
    dual = bounds._CONSTRUCTIONS[as_bound_variant(variant)].dual
    gaps, limit = bounds.gap_profile(p, variant, x_max, rule)
    want_gaps, want_limit = duals._delta_rule(
        dual, duals.gap_scan(dual, p, x_max), p, deletion_delta(p, variant, rule or "recommended")
    )
    assert gaps.tolist() == want_gaps.tolist() and limit == want_limit


def test_gap_profile_rules_outside_deletion():
    for rule in (None, "one"):
        gaps, limit = bounds.gap_profile(0.3, "sticky", 5, rule)
        assert gaps.tolist() == duals.gap_scan(DualVariant.STICKY_ZERO_GAP, 0.3, 5).tolist()
        assert limit == 0.0
    for rule in ("d", "recommended"):
        with pytest.raises(ValueError, match="delta rules only apply to deletion duals"):
            bounds.gap_profile(0.3, "duplication", 5, rule)
    for variant in (None, "auto", "elementary"):
        with pytest.raises(ValueError, match="single optimized variant"):
            bounds.gap_profile(0.6, variant, 5)


@pytest.mark.parametrize("variant", (BoundVariant.GEOMDEL_CONV, BoundVariant.GEOMDEL_TRUNC))
@pytest.mark.parametrize("p", [row[0] for row in tables.T3_GEOMDEL.rows])
def test_deletion_delta_is_the_optimized_delta(variant, p):
    assert deletion_delta(p, variant, "recommended") == bounds._Search(p, variant).delta


@pytest.mark.parametrize("p", (1e-3, 2e-3, 5e-3))
def test_trunc_eps_bounds_the_gap_past_the_scan(p):
    # Below p ~ 0.007 the modified trunc gap dips below its limit past the
    # 500-x scan, at x of order 1/p; eps must stay below that dip too, and
    # so must epsilon_inf, which puts the same floor past the scan.
    eps = geomdel_bound(p, "trunc").epsilon_used
    gaps, _ = duals._delta_rule(
        DualVariant.GEOMDEL_TRUNCATED, r_p(np.arange(1, 20001), p), p, deletion_delta(p, "trunc")
    )
    assert eps <= gaps.min()
    search = bounds._Search(p, BoundVariant.GEOMDEL_TRUNC)
    dual = duals.build_dual(DualVariant.GEOMDEL_TRUNCATED, p, 0.5, delta=search.delta)
    view = duals.epsilon_inf(channels.RepeatChannel(Family.GEOMETRIC_DELETION, p), dual)
    assert view <= gaps.min()
    assert abs(view - search.eps) <= 1e-11


@pytest.mark.parametrize("p", (0.01, 0.05, 0.3, 0.9, 0.995))
def test_trunc_eps_is_the_infimum_of_a_long_reference_scan(p):
    # From p = 0.01 on the modified trunc gap's argmin lies inside the
    # 500-x scan, so eps is the infimum over x <= 20 000 and the limit
    # exactly: R_p at x does not depend on the other x in the call.
    eps = geomdel_bound(p, "trunc").epsilon_used
    gaps, limit = duals._delta_rule(
        DualVariant.GEOMDEL_TRUNCATED, r_p(np.arange(1, 20001), p), p, deletion_delta(p, "trunc")
    )
    assert eps == min(float(gaps.min()), limit)


def test_delta_d_rule_needs_no_gap_scan(monkeypatch):
    def no_scan(p, x_max):
        raise AssertionError("delta-d must not scan the gap")

    monkeypatch.setattr(bounds, "convexity_gap_scan", no_scan)
    assert deletion_delta(0.9, "delta-d") == 1.0 - 0.9


def test_bench_hook_points(monkeypatch):
    # The benchmark wraps bounds.convexity_gap_scan and reads the scan cache
    # and duals._VARIANT_FAMILY; a cold auto deletion bound scans once.
    duals.clear_caches()
    calls = []
    scan = bounds.convexity_gap_scan

    def counted(p, x_max):
        calls.append((p, x_max))
        return scan(p, x_max)

    monkeypatch.setattr(bounds, "convexity_gap_scan", counted)
    # The benchmark counts channel-law work on channels.output_log_pmf; the
    # convexity gap is an integral over the law's pgf and reads none.
    pmf_calls = []
    pmf = channels.output_log_pmf

    def counted_pmf(*args):
        pmf_calls.append(args[1])
        return pmf(*args)

    monkeypatch.setattr(channels, "output_log_pmf", counted_pmf)
    compute_bound(Family.GEOMETRIC_DELETION, None, 0.5)
    assert calls == [(0.5, 500)]
    assert pmf_calls == []
    assert bounds._DELTA_SCANS is duals._DELTA_SCANS
    # Its reduction thresholds read the dual's family from duals._VARIANT_FAMILY.
    channel = channels.RepeatChannel(duals._VARIANT_FAMILY[DualVariant.GEOMDEL_CONVEXITY], 0.5)
    assert channels.reduction_params(channel).lam == 1.0


def _bench(monkeypatch, stem, name=None):
    """bench/<stem>.py, loaded read-only as sys.modules[name] (default
    bench_<stem>) for the test's duration."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(name or f"bench_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _bench_spans(monkeypatch):
    """bench/spans.py, the benchmark's wrappers around the library's hooks."""
    return _bench(monkeypatch, "spans")


def test_bench_hook_points_take_the_bench_wrappers(monkeypatch):
    # The traced benchmark run replaces module attributes with the wrappers
    # listed in bench/spans.py; a renamed or re-signatured hook fails here.
    spans = _bench_spans(monkeypatch)
    with spans.installed(spans.Tracer()) as tracer:
        compute_bound(Family.GEOMETRIC_STICKY, None, 0.3)
        duals.clear_caches()
        compute_bound(Family.GEOMETRIC_DELETION, BoundVariant.GEOMDEL_CONV, 0.5)
        # a binding bound: only these reach maximize_concave
        compute_bound(Family.GEOMETRIC_DELETION, BoundVariant.GEOMDEL_CONV, 0.9)
    optimizer = tracer.layers["numerics.maximize_concave"]
    assert optimizer.counts["evals"] > 0
    assert optimizer.counts["nonunimodal"] == 0
    assert tracer.layers["numerics.sum_series"].counts["terms"] > 0


def test_bench_table_ops_start_cold_each_time(monkeypatch):
    # The benchmark's TableOp empties the q-free caches in prepare, and its
    # check_cold wants quadrature on every row and one convexity scan on a
    # T3 row, which conv and delta-d share.  A renamed cache, or a memo key
    # that split conv from delta-d, fails here rather than in a bench run.
    spans = _bench_spans(monkeypatch)
    _bench(monkeypatch, "oracles", "oracles")  # the name workloads imports
    workloads = _bench(monkeypatch, "workloads")
    for table, p, scans in (
        (tables.T3_GEOMDEL, 0.9, 1),
        (tables.T3_GEOMDEL, 0.9, 1),
        (tables.T1_STICKY, 0.9, 0),
    ):
        op = workloads.TableOp(table, p)
        op.prepare()
        with spans.installed(spans.Tracer()) as tracer:
            op.execute()
        calls = tracer.calls()
        assert op.check_cold(calls) == []
        assert calls["duals.convexity_gap_scan"] == calls["duals.r_p"] == scans
        assert calls["numerics.integrate"] > 0


def test_objective_curve_consistency():
    res = sticky_bound(0.3)
    values = objective_curve(0.3, BoundVariant.STICKY_EXACT, [0.2, res.q_opt, 0.9])
    assert abs(values[1] - res.bound_nats) <= 1e-9
    assert values[1] >= values[0] and values[1] >= values[2]
    with pytest.raises(ValueError):
        objective_curve(0.3, BoundVariant.GEOMDEL_ELEMENTARY, [0.5])


_OPTIMIZED = [v for v, c in bounds._CONSTRUCTIONS.items() if c.m is not None]


@pytest.mark.parametrize("p", [0.3, 0.9])
@pytest.mark.parametrize("variant", _OPTIMIZED)
def test_objective_never_exceeds_the_reported_bound(variant, p):
    # The optimizer stops its q scan past the peak; the unscanned rest of
    # the grid must not hold a larger value.
    res = compute_bound(bounds._CONSTRUCTIONS[variant].family, variant, p)
    curve = objective_curve(p, variant, bounds._q_grid(p))
    assert max(curve) - res.bound_nats <= 1e-12 * abs(res.bound_nats)


# Each T1/T2 row with half a unit of its printed last digit: T1 prints six
# decimals, T2 four.  T3 publishes no lower bound, but capacity is at least
# 0, so each T3 row takes 0 with no slack.
_PRIOR_LOWER_ROWS = [
    (table.family, row[0], row[1], slack)
    for table, slack in ((tables.T1_STICKY, 5e-7), (tables.T2_DUPLICATION, 5e-5))
    for row in table.rows
] + [(tables.T3_GEOMDEL.family, row[0], 0.0, 0.0) for row in tables.T3_GEOMDEL.rows]


@pytest.mark.parametrize("family, p, prior_lower, slack", _PRIOR_LOWER_ROWS)
def test_no_upper_bound_sits_below_the_published_lower_bound(family, p, prior_lower, slack):
    # An upper bound below a lower bound on the same capacity is wrong, for
    # every construction.  The closest rows (T1 at p = 0.05, T2 at p = 0.2)
    # clear it by about 7e-6 bits.
    for variant in bounds.constructions(family):
        assert compute_bound(family, variant, p).bound_bits >= prior_lower - slack, variant


# Every table construction at both ends of its table, at p = 0.6, and at
# the p near 1 where the deletion bounds bind: 31 of the 89, about 1.5 s.
_PREMISE_ROWS = [
    (variant, p)
    for table, ps in (
        (tables.T1_STICKY, (0.05, 0.3, 0.6, 0.85, 0.9, 0.95, 0.99)),
        (tables.T2_DUPLICATION, (0.1, 0.5, 0.9)),
        (tables.T3_GEOMDEL, (0.05, 0.3, 0.6, 0.85, 0.9, 0.95, 0.99)),
    )
    for p in ps
    for variant in bounds.constructions(table.family)
]


@pytest.mark.parametrize("variant, p", _PREMISE_ROWS)
def test_the_premise_holds_at_the_reported_optimum(variant, p):
    # The premise every bound rests on (module docstring of bounds):
    # gap(x) = log_norm - E[Y_x] log q - d log delta - D_KL(Y_x || Y) is at
    # least eps at the reported q* and delta, here with D_KL summed by
    # kl_divergence, apart from the gap scans behind eps.  x runs densely
    # to 64, past trunc's argmin x = 45 at p = 0.05.  The S-table's
    # quadrature error grows with y, so x = 100 and 1 000 get 1e-9 x; the
    # tail past the checked x is the gap scans' own.
    con = bounds._CONSTRUCTIONS[variant]
    res = compute_bound(con.family, variant, p)
    channel = channels.RepeatChannel(con.family, p)
    d = 1.0 - p if con.family is Family.GEOMETRIC_DELETION else 0.0
    delta = deletion_delta(p, variant) if d else 1.0
    dual = duals.build_dual(con.dual, p, res.q_opt, delta=delta)
    for x in [*range(1, 65), 100, 1000]:
        gap = (
            dual.log_normalizer - d * math.log(delta)
            - channels.ConditionalOutputLaw(channel, x).mean * math.log(res.q_opt)
            - duals.kl_divergence(channel, x, dual)
        )
        assert gap - res.epsilon_used >= -1e-9 * (1 if x <= 64 else x), x


@pytest.mark.parametrize("p", [0.3, 0.9])
@pytest.mark.parametrize(
    "variant", [BoundVariant.STICKY_EXACT, BoundVariant.GEOMDEL_TRUNC]
)
def test_early_stop_matches_the_full_scan(variant, p):
    # The scan stops before the end of the grid, yet has already seen the
    # grid point where the full objective curve peaks.
    objective = bounds._Search(p, variant).objective
    grid = bounds._q_grid(p)
    seen = []

    def traced(q):
        seen.append(q)
        return objective(q)

    maximize_concave(traced, 1e-6, 1.0 - 1e-6, grid, bounds._Q_OPT_TOL)
    scanned = [q for q in seen if q in set(grid.tolist())]
    assert scanned == grid[: len(scanned)].tolist()
    assert len(scanned) < grid.size
    assert int(np.argmax([objective(q) for q in grid])) < len(scanned)


# The T3 rows whose constraint binds: the dual mean at q* is below the
# reduction threshold, and the bound scans q instead.
_BINDING = {
    (BoundVariant.GEOMDEL_CONV, 0.85),
    (BoundVariant.GEOMDEL_CONV, 0.9),
    (BoundVariant.GEOMDEL_CONV, 0.95),
    (BoundVariant.GEOMDEL_CONV, 0.99),
    (BoundVariant.GEOMDEL_TRUNC, 0.99),
}


def _bracket(condition, grid) -> int:
    """The index of the first grid point where condition is nonnegative."""
    return next(j for j, q in enumerate(grid) if condition(float(q)) >= 0.0)


@pytest.mark.parametrize("p", [0.05, 0.5, 0.9])
@pytest.mark.parametrize("variant", _OPTIMIZED)
def test_every_optimized_scan_is_unimodal(variant, p, monkeypatch):
    # Newton's iterates fall to the root from its right because the
    # first-order condition rises with q (it does not decrease along the
    # grid); golden section refines only the bracket around the best
    # scanned point of a binding bound, which is the global maximum because
    # its scan is unimodal.
    results = []
    optimize = bounds.maximize_concave

    def traced(*args):
        results.append(optimize(*args))
        return results[-1]

    monkeypatch.setattr(bounds, "maximize_concave", traced)
    res = compute_bound(bounds._CONSTRUCTIONS[variant].family, variant, p)
    grid = bounds._q_grid(p)
    condition = bounds._Search(p, variant).condition
    j = _bracket(condition, grid)
    values = [condition(float(q)) for q in grid[: j + 1]]
    assert np.all(np.diff(values) >= 0.0)
    assert values[-1] >= 0.0 and (j == 0 or values[-2] < 0.0)
    if (variant, p) in _BINDING:
        assert len(results) == 1 and results[0].unimodal
    else:
        assert results == []
        assert (grid[j - 1] if j else 0.0) < res.q_opt <= grid[j]


@pytest.mark.parametrize(
    "variant, p",
    [
        (BoundVariant.STICKY_EXACT, 0.999),
        (BoundVariant.GEOMDEL_CONV, 0.99),
        (BoundVariant.GEOMDEL_TRUNC, 0.99),
        (BoundVariant.GEOMDEL_DELTA_D, 0.99),
    ],
)
def test_q_opt_is_inside_the_grid_near_p_one(variant, p):
    # Near p = 1 the optimum crowds towards q = 1; it must still lie
    # strictly between the grid's first and last points, not at an edge.
    grid = bounds._q_grid(p)
    res = compute_bound(bounds._CONSTRUCTIONS[variant].family, variant, p)
    assert grid[0] < res.q_opt < grid[-1]


@pytest.fixture
def cold_tables():
    """Empty caches around the test, so that it starts cold and leaves no
    table grown under its own settings to a later test."""
    duals.clear_caches()
    yield
    duals.clear_caches()


def _whole_grid_optimum(p, variant):
    """(bound_nats, q_opt, mu_opt) by maximize_concave over the whole
    q-grid from its first point, zeros and all."""
    search = bounds._Search(p, variant)
    res = maximize_concave(
        search.objective, 1e-6, 1.0 - 1e-6, bounds._q_grid(p), bounds._Q_OPT_TOL
    )
    dual = bounds.build_dual(search.con.dual, p, res.arg, delta=search.delta)
    return res.value, res.arg, dual.mean


def _table_sizes():
    return {key: table._vals.size for key, table in duals._TABLES.items()}


@pytest.mark.parametrize("p", [0.05, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("variant", _OPTIMIZED)
def test_bisection_past_the_zeros_leaves_the_optimum_and_tables_unchanged(variant, p, cold_tables):
    # A binding bound is the whole grid's scan, bit for bit, on tables of
    # the same size: its scan starts above Newton's last iterate, past grid
    # points that are all infeasible.  Elsewhere the root is the sup
    # the scan approximates: no lower than it, by more than rounding, and
    # on tables no larger.  It may be higher: the golden section stops up
    # to 1e-7 in q short of q*, which costs 2.5e-12 of the sticky value at
    # p = 0.99 (q* is 5.6e-9 away, and 1 - q* = 2.6e-3 makes the curvature
    # in q large).
    res = bounds._optimize(p, variant)
    sizes = _table_sizes()
    duals.clear_caches()
    whole = _whole_grid_optimum(p, variant)
    whole_sizes = _table_sizes()
    if (variant, p) in _BINDING:
        assert (res.bound_nats, res.q_opt, res.mu_opt) == whole
        assert sizes == whole_sizes
        return
    nats, q_opt, _ = whole
    assert nats * (1.0 - 1e-15) <= res.bound_nats <= nats * (1.0 + 1e-11)
    assert abs(res.q_opt - q_opt) <= bounds._Q_OPT_TOL
    assert sizes.keys() == whole_sizes.keys()
    assert all(sizes[key] <= whole_sizes[key] for key in sizes)


_CLOSED_FORM = {
    BoundVariant.STICKY_EXACT: lambda q, p: -math.log(q) / (1.0 - p),
    BoundVariant.DUPLICATION_EXACT: lambda q, p: -(1.0 + p) * math.log(q),
    BoundVariant.GEOMDEL_CONV: lambda q, p: -p * math.log(q) / (1.0 - p),
    BoundVariant.GEOMDEL_TRUNC: lambda q, p: -p * math.log(q) / (1.0 - p),
    BoundVariant.GEOMDEL_DELTA_D: lambda q, p: -p * math.log(q) / (1.0 - p),
}


@pytest.mark.parametrize("p", [0.3, 0.9])
@pytest.mark.parametrize("variant", _OPTIMIZED)
def test_the_root_solves_the_first_order_condition(variant, p):
    search = bounds._Search(p, variant)
    condition = search.condition
    grid = bounds._q_grid(p)
    threshold = search.threshold
    q_first = search.root()
    # with no threshold to stop it early, Newton runs to the root itself
    search.threshold = -math.inf
    q_star = search.root()
    if (variant, p) in _BINDING:
        # where the constraint binds, Newton may stop right of q* at an
        # iterate whose mean already lies below the threshold
        assert search.dual(q_first).mean < threshold
        assert condition(q_first) >= 0.0 or q_first == q_star
    else:
        assert q_first == q_star
    # the grid's bracket holds the sign change, and q* lies inside it
    j = _bracket(condition, grid)
    assert condition(float(grid[j - 1])) < 0.0 <= condition(float(grid[j]))
    assert grid[j - 1] < q_star <= grid[j]
    # the residual is within Newton's stop times the slope in theta = log q,
    # mu + m, and the sign changes within twice the stop
    theta = math.log(q_star)
    tol = max(bounds._NEWTON_REL * abs(theta), 4.0 * math.ulp(q_star))
    slope = search.dual(q_star).mean + search.con.m
    assert abs(condition(q_star)) <= tol * slope
    assert condition(math.exp(theta - 2.0 * tol)) <= 0.0 <= condition(math.exp(theta + 2.0 * tol))
    # where the constraint does not bind, the bound is the closed form at q*
    res = compute_bound(search.con.family, variant, p)
    if (variant, p) in _BINDING:
        assert res.q_opt > q_star and res.mu_opt >= threshold
    else:
        assert res.q_opt == q_star
        assert abs(res.bound_nats - _CLOSED_FORM[variant](q_star, p)) <= 1e-9 * res.bound_nats


# The module docstring's value and first-order condition for each family:
# lambda = E[D] read from the channel at p itself, m = 1 for deletion, and
# no eps or log delta terms for the zero-gap duals' condition.
def _docstring_value(family, p, log_norm, mu, log_q, d, log_delta, eps):
    lam = channels.reduction_params(channels.RepeatChannel(family, p)).lam
    m = 1.0 if family is Family.GEOMETRIC_DELETION else 0.0
    return lam * (-eps - d * log_delta + log_norm - mu * log_q) / (m + mu)


def _docstring_condition(family, log_norm, log_q, d, log_delta, eps):
    if family is Family.GEOMETRIC_DELETION:
        return log_norm + log_q - eps - d * log_delta
    return log_norm


@pytest.mark.parametrize("p", [0.3, 0.9])
@pytest.mark.parametrize("variant", _OPTIMIZED)
def test_the_template_is_the_docstring_formulas(variant, p):
    search = bounds._Search(p, variant)
    family, d, log_delta = search.con.family, 1.0 - p, math.log(search.delta)
    # the grid's first three feasible points
    feasible = []
    for q in bounds._q_grid(p).tolist():
        dual = bounds.build_dual(search.con.dual, p, q, delta=search.delta)
        if dual.mean >= search.threshold:
            feasible.append((q, dual))
        if len(feasible) == 3:
            break
    assert len(feasible) == 3
    for q, dual in feasible:
        log_norm, mu, log_q = dual.log_normalizer, dual.mean, math.log(q)
        assert search.objective(q) == _docstring_value(
            family, p, log_norm, mu, log_q, d, log_delta, search.eps
        )
        assert search.condition(q) == _docstring_condition(
            family, log_norm, log_q, d, log_delta, search.eps
        )


def _trace_builds(monkeypatch) -> list:
    """(q, series_converged) of every bounds.build_dual call from now on."""
    builds = []
    build = bounds.build_dual

    def traced(*args, **kwargs):
        dual = build(*args, **kwargs)
        builds.append((dual.q, dual.series_converged))
        return dual

    monkeypatch.setattr(bounds, "build_dual", traced)
    return builds


def test_the_table_constructions_build_few_duals(cold_tables, monkeypatch):
    # Every optimized construction at every T1/T2/T3 p (89, delta-d at each
    # T3 p), each cold, counted by the benchmark's own build_dual span, and
    # duplication at p = 0.99, past T2's last row.  Newton takes 4-6 builds
    # per root; a binding bound adds the scan from the first grid point
    # above Newton's last iterate and the golden section (29-35 in all).
    # The 89 took 1 062 builds with the bracket and Brent search, and take
    # 552; the target is 580, and the limit of 560 also fails without the
    # binding stop (579).
    spans = _bench_spans(monkeypatch)
    counts = {}
    for table in tables.ALL_TABLES:
        for row in table.rows:
            for variant in bounds.constructions(table.family):
                duals.clear_caches()
                with spans.installed(spans.Tracer()) as tracer:
                    compute_bound(table.family, variant, row[0])
                counts[variant, row[0]] = tracer.layers["duals.build_dual"].calls
    assert len(counts) == 89
    assert sum(counts.values()) <= 560
    duals.clear_caches()
    with spans.installed(spans.Tracer()) as tracer:
        compute_bound(Family.ELEMENTARY_DUPLICATION, None, 0.99)
    counts[BoundVariant.DUPLICATION_EXACT, 0.99] = tracer.layers["duals.build_dual"].calls
    for key, n in counts.items():
        assert n <= (40 if key in _BINDING else 8), key


@pytest.mark.parametrize("p", [0.3, 0.9])
@pytest.mark.parametrize("variant", _OPTIMIZED)
def test_a_bound_builds_each_q_once(variant, p, monkeypatch):
    # the root, the scan, the golden section and mu_opt share the duals
    # built
    builds = _trace_builds(monkeypatch)
    compute_bound(bounds._CONSTRUCTIONS[variant].family, variant, p)
    qs = [q for q, _ in builds]
    assert len(set(qs)) == len(qs)


@pytest.mark.parametrize(
    "variant, cap", [(BoundVariant.GEOMDEL_DELTA_D, 8000), (BoundVariant.STICKY_EXACT, 9000)]
)
def test_an_unconverged_series_past_q_opt_is_a_bound_error(variant, cap, cold_tables, monkeypatch):
    # Under these caps the series stop converging below q* at p = 0.99, and
    # the best q they reach reads 0.298590 bits for delta-d and 0.354673 for
    # sticky, below the sups 0.338927 and 0.368459: not upper bounds.
    monkeypatch.setattr(numerics, "_SERIES_HARD_CAP", cap)
    with pytest.raises(
        bounds.BoundComputationError,
        match=rf"\(p = 0\.99, {variant.value}\): .* series cap of {cap} terms",
    ):
        compute_bound(bounds._CONSTRUCTIONS[variant].family, variant, 0.99)


def test_the_search_stops_at_the_first_unconverged_series(cold_tables, monkeypatch):
    variant = BoundVariant.GEOMDEL_DELTA_D
    monkeypatch.setattr(numerics, "_SERIES_HARD_CAP", 8000)
    builds = _trace_builds(monkeypatch)
    with pytest.raises(bounds.BoundComputationError, match="series cap of 8000 terms"):
        compute_bound(Family.GEOMETRIC_DELETION, variant, 0.99)
    # the last dual built is the first unconverged one
    assert [ok for _, ok in builds].index(False) == len(builds) - 1
    # nor does objective_curve read 0 there, or at a q refused upfront
    # (25 / (1 - q) terms above the cap)
    for q in (builds[-1][0], 0.999):
        with pytest.raises(
            bounds.BoundComputationError,
            match=rf"q = {q:.8g} did not converge .* series cap of 8000 terms",
        ):
            objective_curve(0.99, variant, [q])


def test_objective_zero_below_threshold():
    # tiny q forces the dual mean below the feasibility threshold
    values = objective_curve(0.3, BoundVariant.STICKY_EXACT, [1e-5])
    assert values[0] == 0.0


def test_sweep_preserves_order():
    ps = [0.4, 0.1, 0.25]
    results = sweep(Family.GEOMETRIC_STICKY, None, ps)
    assert [r.p for r in results] == ps
    assert all(isinstance(r, BoundResult) for r in results)


def test_sweep_parallel_matches_serial():
    ps = [0.2, 0.5]
    serial = sweep(Family.GEOMETRIC_STICKY, None, ps)
    parallel = sweep(Family.GEOMETRIC_STICKY, None, ps, max_workers=2)
    for a, b in zip(serial, parallel):
        assert a.bound_nats == b.bound_nats
        assert a.q_opt == b.q_opt


def test_sweep_captures_failures():
    results = sweep(Family.GEOMETRIC_STICKY, None, [0.3, 1.7])
    assert isinstance(results[0], BoundResult)
    assert isinstance(results[1], SweepFailure)
    assert "1.7" in results[1].message or "p" in results[1].message


def test_sweep_variant_check():
    with pytest.raises(ValueError):
        sweep(Family.GEOMETRIC_STICKY, BoundVariant.GEOMDEL_CONV, [0.3])


@pytest.fixture
def cold_pool(monkeypatch):
    """Replace the bounds process pool with an in-process one whose every
    task starts from empty caches, as a fresh worker does; count the pools
    opened and the convexity gap scans run.  bounds imports the pool from
    concurrent.futures only when it opens one, so the patch goes there."""
    counts = {"pools": 0, "scans": 0}

    class ColdPool:
        def __init__(self, max_workers=None):
            counts["pools"] += 1

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            for task in tasks:
                duals.clear_caches()
                yield fn(task)

    scan = bounds.convexity_gap_scan

    def counted_scan(*args):
        counts["scans"] += 1
        return scan(*args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ColdPool)
    monkeypatch.setattr(bounds, "convexity_gap_scan", counted_scan)
    return counts


def test_geomdel_cli_sweep_opens_one_pool_and_scans_once_per_p(cold_pool, monkeypatch):
    from repeatcap.cli import main

    monkeypatch.setenv("REPEATCAP_THREADS", "2")
    argv = ["sweep", "--family", "geomdel", "--p-start", "0.3", "--p-end", "0.5",
            "--steps", "2"]
    assert main(argv) == 0
    # delta-d reads the scan conv made at the same p, in the same task
    assert cold_pool == {"pools": 1, "scans": 2}


def test_verify_t3_opens_one_pool_and_scans_once_per_row(cold_pool, monkeypatch):
    t3 = tables.T3_GEOMDEL
    two_rows = dataclasses.replace(t3, rows=tuple(r for r in t3.rows if r[0] in (0.3, 0.9)))
    monkeypatch.setattr(tables, "T3_GEOMDEL", two_rows)
    monkeypatch.setattr(
        tables, "ALL_TABLES", (tables.T1_STICKY, tables.T2_DUPLICATION, two_rows)
    )
    monkeypatch.setattr(tables, "TABLES_SHA256", tables.checksum())
    verification = verify_tables(only=("T3",), max_workers=2)
    assert [(c.p, c.column) for c in verification.checks] == [
        (0.3, "ours"), (0.9, "ours"), (0.9, "ours_delta_d"),
    ]
    assert verification.all_passed
    assert cold_pool == {"pools": 1, "scans": 2}


def test_verify_tables_t2():
    verification = verify_tables(only=("T2",))
    assert verification.all_passed
    assert len(verification.checks) == 9
    clamped = [c for c in verification.checks if c.expected == ">1"]
    assert len(clamped) == 2 and all(c.passed for c in clamped)


def test_verify_tables_strict_tolerance_fails():
    verification = verify_tables(1e-13, only=("T2",))
    assert not verification.all_passed
    assert verification.failures


@pytest.mark.parametrize("tolerance", [-1.0, math.nan, math.inf])
def test_verify_tables_refuses_a_bad_tolerance(tolerance, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a bound was computed")

    monkeypatch.setattr(bounds, "evaluate_points", forbidden)
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        verify_tables(tolerance, only=("T2",))


def test_verify_tables_unknown_selector():
    with pytest.raises(ValueError):
        verify_tables(only=("T9",))


def test_verify_tables_refuses_an_empty_selection():
    # zero checks must not read as all_passed
    with pytest.raises(ValueError, match="no table"):
        verify_tables(only=())
