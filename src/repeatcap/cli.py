"""Command-line interface: bound, sweep, verify, klgap, simulate.

Values are reported in bits by default (--nats switches single-unit
outputs); records carry both units.  Machine output goes to stdout (JSON)
or --out (CSV); human diagnostics go to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage or domain error, 3 numerical failure.
A JSON config file (--config) can supply any flag's value; explicit flags
win.  REPEATCAP_THREADS caps sweep parallelism (default: available cores).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from repeatcap.bounds import (
    _CONSTRUCTIONS,
    BoundComputationError,
    SweepFailure,
    _best,
    _check_family,
    _optimized,
    as_bound_variant,
    compute_bound,
    deletion_delta,
    objective_curve,
    sweep,
    verify_tables,
)
from repeatcap.channels import Family, RepeatChannel
from repeatcap.duals import build_dual, kl_gap_profile
from repeatcap.numerics import QuadratureError
from repeatcap import records
from repeatcap.simulate import SimConfig, run_monte_carlo

_FAMILIES = {
    "sticky": Family.GEOMETRIC_STICKY,
    "duplication": Family.ELEMENTARY_DUPLICATION,
    "geomdel": Family.GEOMETRIC_DELETION,
}

_DEFAULTS: dict[str, dict] = {
    "bound": {"family": None, "p": None, "variant": "auto",
              "nats": False, "no_meta": False},
    "sweep": {"family": None, "variant": "auto", "p_start": None, "p_end": None,
              "steps": None, "out": None, "emit_inner": False, "p": None,
              "q_points": 199, "nats": False, "no_meta": False},
    "verify": {"only": None, "tolerance": None, "json": False,
               "nats": False, "no_meta": False},
    "klgap": {"family": None, "p": None, "q": None, "delta_rule": None,
              "variant": None, "x_max": 50, "out": None,
              "nats": False, "no_meta": False},
    "simulate": {"n": None, "lam": None, "epsilon": 0.1, "trials": 100,
                 "seed": 0, "input_source": "uniform_random", "input_bits": None,
                 "verbose": False, "nats": False, "no_meta": False},
}

_CONFIG_ALIASES = {"lambda": "lam", "eps": "epsilon"}


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", default=argparse.SUPPRESS, metavar="FILE",
                    help="JSON file supplying flag defaults (flags win)")
    sp.add_argument("--no-meta", action="store_true", default=argparse.SUPPRESS,
                    help="omit run metadata (version, timestamp) for byte-stable output")
    sp.add_argument("--nats", action="store_true", default=argparse.SUPPRESS,
                    help="report in nats where a single unit is printed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repeatcap",
        description="Capacity upper bounds for binary repeat channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="one capacity bound at a single p")
    b.add_argument("--family", choices=sorted(_FAMILIES), default=argparse.SUPPRESS)
    b.add_argument("--p", type=float, default=argparse.SUPPRESS)
    b.add_argument("--variant", default=argparse.SUPPRESS,
                   help="auto | conv | trunc | delta-d | elementary (deletion only)")
    _add_common(b)

    s = sub.add_parser("sweep", help="bounds over a p grid, CSV output")
    s.add_argument("--family", choices=sorted(_FAMILIES), default=argparse.SUPPRESS)
    s.add_argument("--variant", default=argparse.SUPPRESS)
    s.add_argument("--p-start", type=float, default=argparse.SUPPRESS)
    s.add_argument("--p-end", type=float, default=argparse.SUPPRESS)
    s.add_argument("--steps", type=int, default=argparse.SUPPRESS)
    s.add_argument("--out", default=argparse.SUPPRESS, metavar="FILE",
                   help="CSV destination (default stdout)")
    s.add_argument("--emit-inner", action="store_true", default=argparse.SUPPRESS,
                   help="emit the objective-vs-q curve at a fixed --p instead")
    s.add_argument("--p", type=float, default=argparse.SUPPRESS,
                   help="fixed p for --emit-inner")
    s.add_argument("--q-points", type=int, default=argparse.SUPPRESS,
                   help="grid size for --emit-inner (default 199)")
    _add_common(s)

    v = sub.add_parser("verify", help="recompute embedded reference tables")
    v.add_argument("--only", action="append", choices=("T1", "T2", "T3"),
                   default=argparse.SUPPRESS, help="restrict to one table (repeatable)")
    v.add_argument("--tolerance", type=float, default=argparse.SUPPRESS,
                   help="override the per-table default tolerances")
    v.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                   help="emit the full report as JSON on stdout")
    _add_common(v)

    k = sub.add_parser("klgap", help="KL-gap profile of a dual, CSV output")
    k.add_argument("--family", choices=sorted(_FAMILIES), default=argparse.SUPPRESS)
    k.add_argument("--p", type=float, default=argparse.SUPPRESS)
    k.add_argument("--q", type=float, default=argparse.SUPPRESS)
    k.add_argument("--delta-rule", choices=("one", "recommended", "d"),
                   default=argparse.SUPPRESS,
                   help="mass-at-zero rule (deletion duals; default recommended)")
    k.add_argument("--variant", choices=("conv", "trunc"), default=argparse.SUPPRESS,
                   help="deletion dual construction (default conv)")
    k.add_argument("--x-max", type=int, default=argparse.SUPPRESS)
    k.add_argument("--out", default=argparse.SUPPRESS, metavar="FILE")
    _add_common(k)

    m = sub.add_parser("simulate", help="Poisson repeat channel Monte Carlo")
    m.add_argument("--n", type=int, default=argparse.SUPPRESS)
    m.add_argument("--lambda", type=float, dest="lam", default=argparse.SUPPRESS)
    m.add_argument("--eps", "--epsilon", type=float, dest="epsilon",
                   default=argparse.SUPPRESS)
    m.add_argument("--trials", type=int, default=argparse.SUPPRESS)
    m.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    m.add_argument("--input-source", choices=("uniform_random", "all_alternating",
                                              "user_supplied"),
                   default=argparse.SUPPRESS)
    m.add_argument("--input-bits", default=argparse.SUPPRESS)
    m.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS,
                   help="include per-trial reports in the JSON")
    _add_common(m)

    return parser


def _merge_params(ns: argparse.Namespace) -> dict:
    merged = dict(_DEFAULTS[ns.command])
    provided = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    config_path = getattr(ns, "config", None)
    if config_path is not None:
        with open(config_path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in loaded.items():
            key = _CONFIG_ALIASES.get(key.replace("-", "_"), key.replace("-", "_"))
            if key not in merged:
                raise ValueError(f"unknown config key {key!r} for {ns.command}")
            merged[key] = value
    merged.update(provided)
    return merged


def _require(params: dict, *names: str) -> None:
    missing = [n for n in names if params.get(n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ValueError(f"missing required option(s): {flags}")


def _workers(n_tasks: int) -> int | None:
    env = os.environ.get("REPEATCAP_THREADS")
    if env is not None:
        cap = int(env)
        if cap < 1:
            raise ValueError("REPEATCAP_THREADS must be a positive integer")
    else:
        cap = os.cpu_count() or 1
    cap = min(cap, n_tasks)
    return cap if cap > 1 else None


def _family(params: dict) -> Family:
    token = params["family"]
    if token not in _FAMILIES:
        raise ValueError(f"unknown family {token!r} (choose from {sorted(_FAMILIES)})")
    return _FAMILIES[token]


def _write_csv(params: dict, header, rows) -> None:
    out = params.get("out")
    if out is None:
        records.write_csv(sys.stdout, header, rows)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            records.write_csv(fh, header, rows)


def _cmd_bound(params: dict) -> int:
    _require(params, "family", "p")
    family = _family(params)
    result = compute_bound(family, as_bound_variant(params["variant"]), params["p"])
    meta = None if params["no_meta"] else records.run_metadata(
        {"q_opt": 1e-7, "series_rel": 1e-12}
    )
    sys.stdout.write(records.dump_json(records.bound_json(result, meta=meta)))
    if params["nats"]:
        print(f"{result.variant.value}: {result.bound_nats:.6f} nats", file=sys.stderr)
    else:
        print(f"{result.variant.value}: {result.bound_bits:.6f} bits", file=sys.stderr)
    return 0


def _cmd_sweep(params: dict) -> int:
    if params["emit_inner"]:
        return _emit_inner(params)
    _require(params, "family", "p_start", "p_end", "steps")
    family = _family(params)
    variant = as_bound_variant(params["variant"])
    p_start, p_end, steps = params["p_start"], params["p_end"], params["steps"]
    if not (0.0 < p_start < p_end < 1.0):
        raise ValueError(f"need 0 < p_start < p_end < 1, got {p_start}..{p_end}")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    ps = [float(x) for x in np.linspace(p_start, p_end, steps)]
    workers = _workers(len(ps))

    if variant is None and len(_optimized(family)) > 1:
        # One row per optimized construction plus the reported min curve.
        per_variant = [
            sweep(family, v, ps, max_workers=workers) for v in _optimized(family)
        ]
        results = []
        for p, at_p in zip(ps, zip(*per_variant)):
            results += [(None, r) for r in at_p]
            ok = [r for r in at_p if not isinstance(r, SweepFailure)]
            best = _best(ok) if ok else SweepFailure(p, None, "all variants failed")
            results.append(("min", best))
    else:
        results = [(None, r) for r in sweep(family, variant, ps, max_workers=workers)]

    with_error = any(isinstance(r, SweepFailure) for _, r in results)
    header = records.BOUND_CSV_HEADER + (("error",) if with_error else ())
    rows = [
        records.bound_csv_row(r, variant_label=label, with_error=with_error)
        for label, r in results
    ]
    _write_csv(params, header, rows)
    return 0


def _emit_inner(params: dict) -> int:
    _require(params, "family", "p")
    family = _family(params)
    variant = as_bound_variant(params["variant"])
    _check_family(family, variant)
    if variant is None:
        if len(_optimized(family)) > 1:
            raise ValueError("--emit-inner for geomdel needs --variant conv|trunc|delta-d")
        (variant,) = _optimized(family)
    q_points = params["q_points"]
    if q_points < 2:
        raise ValueError(f"q_points must be >= 2, got {q_points}")
    qs = np.linspace(0.005, 0.995, q_points)
    values = objective_curve(params["p"], variant, qs)
    if params["nats"]:
        header = ("q", "objective_nats")
        rows = [(repr(float(q)), repr(v)) for q, v in zip(qs, values)]
    else:
        header = ("q", "objective_bits")
        rows = [(repr(float(q)), f"{v / math.log(2.0):.6f}") for q, v in zip(qs, values)]
    _write_csv(params, header, rows)
    return 0


def _cmd_verify(params: dict) -> int:
    only = tuple(params["only"]) if params["only"] else None
    verification = verify_tables(
        params["tolerance"], only=only, max_workers=_workers(8)
    )
    if params["json"]:
        meta = None if params["no_meta"] else records.run_metadata(
            {"tolerance": params["tolerance"] or "per-table defaults"}
        )
        sys.stdout.write(
            records.dump_json(records.verification_json(verification, meta=meta))
        )
    else:
        for c in verification.checks:
            status = "PASS" if c.passed else "FAIL"
            dev = "-" if math.isnan(c.deviation) else f"{c.deviation:.2e}"
            line = (
                f"{status} {c.table_id:15s} p={c.p:<5g} {c.column:13s} "
                f"expected {c.expected:>9s} computed {c.computed:.6f} "
                f"dev {dev} tol {c.tolerance:g}"
            )
            if c.note:
                line += f"  [{c.note}]"
            print(line)
        n_fail = len(verification.failures)
        print(f"{len(verification.checks)} checks: "
              f"{len(verification.checks) - n_fail} passed, {n_fail} failed")
    return 0 if verification.all_passed else 1


def _cmd_klgap(params: dict) -> int:
    _require(params, "family", "p", "q")
    family = _family(params)
    p, q, x_max = params["p"], params["q"], params["x_max"]
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    rule = params["delta_rule"]
    if family is Family.GEOMETRIC_DELETION:
        variant = as_bound_variant(params["variant"] or "conv")
        delta = deletion_delta(p, variant, rule or "recommended")
    else:
        if params["variant"] is not None:
            raise ValueError("--variant only applies to the geomdel family")
        if rule not in (None, "one"):
            raise ValueError("delta rules only apply to deletion duals")
        (variant,) = _optimized(family)
        delta = 1.0
    dual = build_dual(_CONSTRUCTIONS[variant].dual, p, q, delta=delta)
    if not dual.series_converged:
        raise BoundComputationError(
            f"dual series did not converge at q = {q} (too close to 1)"
        )
    profile = kl_gap_profile(RepeatChannel(family, p), dual, x_max)
    rows = [(str(x), repr(profile.gaps[x])) for x in range(1, x_max + 1)]
    rows.append(("limit", repr(profile.limit_candidate)))
    _write_csv(params, records.KLGAP_CSV_HEADER, rows)
    return 0


def _cmd_simulate(params: dict) -> int:
    _require(params, "n", "lam")
    config = SimConfig(
        n=params["n"],
        lam=params["lam"],
        epsilon=params["epsilon"],
        trials=params["trials"],
        seed=params["seed"],
        input_source=params["input_source"],
        input_bits=params["input_bits"],
    )
    success_rate, reports = run_monte_carlo(config)
    meta = None if params["no_meta"] else records.run_metadata()
    sys.stdout.write(records.dump_json(records.simulation_json(
        config, success_rate, reports, verbose=params["verbose"], meta=meta
    )))
    print(f"success_rate={success_rate:.4f} over {config.trials} trials",
          file=sys.stderr)
    return 0


_HANDLERS = {
    "bound": _cmd_bound,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "klgap": _cmd_klgap,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else int(exc.code)
    try:
        params = _merge_params(ns)
        return _HANDLERS[ns.command](params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BoundComputationError, QuadratureError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
