"""Command-line interface: bound, sweep, verify, klgap, simulate.

Values are reported in bits by default (--nats switches single-unit
outputs); records carry both units.  Machine output goes to stdout (JSON)
or --out (CSV); human diagnostics go to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage or domain error, 3 numerical failure.
A JSON config file (--config) can supply any flag's value; its numbers
parse like flag text, and explicit flags win (a repeated flag replaces a
config list).  REPEATCAP_THREADS caps the worker processes of sweep and
verify (default: available cores).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from repeatcap.bounds import (
    DELTA_RULES,
    SOLVER_TOLERANCES,
    TABLE_SELECTORS,
    SweepFailure,
    as_bound_variant,
    best_bound,
    compute_bound,
    constructions,
    evaluate_points,
    gap_profile,
    objective_curve,
    verify_tables,
)
from repeatcap.channels import Family
from repeatcap import records
from repeatcap.simulate import INPUT_SOURCES, SimConfig, run_monte_carlo

_FAMILIES = {
    "sticky": Family.GEOMETRIC_STICKY,
    "duplication": Family.ELEMENTARY_DUPLICATION,
    "geomdel": Family.GEOMETRIC_DELETION,
}

_CONFIG_ALIASES = {"lambda": "lam", "eps": "epsilon"}

_VARIANT_HELP = ("auto (the family default); sticky and duplication for their "
                 "families; conv | trunc | delta-d | elementary for geomdel")


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", metavar="FILE",
                    help="JSON file supplying flag defaults (flags win)")
    sp.add_argument("--no-meta", action="store_true",
                    help="omit run metadata (version, timestamp) for byte-stable output")
    sp.add_argument("--nats", action="store_true",
                    help="report in nats where a single unit is printed")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="repeatcap",
        description="Capacity upper bounds for binary repeat channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="one capacity bound at a single p")
    b.add_argument("--family", choices=sorted(_FAMILIES))
    b.add_argument("--p", type=float)
    b.add_argument("--variant", default="auto", help=_VARIANT_HELP)
    _add_common(b)

    s = sub.add_parser("sweep", help="bounds over a p grid, CSV output")
    s.add_argument("--family", choices=sorted(_FAMILIES))
    s.add_argument("--variant", default="auto", help=_VARIANT_HELP)
    s.add_argument("--p-start", type=float)
    s.add_argument("--p-end", type=float)
    s.add_argument("--steps", type=int)
    s.add_argument("--out", metavar="FILE", help="CSV destination (default stdout)")
    s.add_argument("--emit-inner", action="store_true",
                   help="emit the objective-vs-q curve at a fixed --p instead")
    s.add_argument("--p", type=float, help="fixed p for --emit-inner")
    s.add_argument("--q-points", type=int, default=199,
                   help="grid size for --emit-inner (default %(default)s)")
    _add_common(s)

    v = sub.add_parser("verify", help="recompute embedded reference tables")
    v.add_argument("--only", action="append", choices=TABLE_SELECTORS, default=[],
                   help="restrict to one table (repeatable)")
    v.add_argument("--tolerance", type=float,
                   help="override the per-table default tolerances")
    v.add_argument("--json", action="store_true",
                   help="emit the full report as JSON on stdout")
    _add_common(v)

    k = sub.add_parser("klgap", help="KL-gap profile of a dual, CSV output")
    k.add_argument("--family", choices=sorted(_FAMILIES))
    k.add_argument("--p", type=float)
    k.add_argument("--q", type=float,
                   help="accepted for compatibility; the gap does not depend on q")
    k.add_argument("--delta-rule", choices=DELTA_RULES,
                   help="mass-at-zero rule (deletion duals; default recommended)")
    k.add_argument("--variant", choices=("conv", "trunc"),
                   help="deletion dual construction (default conv)")
    k.add_argument("--x-max", type=int, default=50)
    k.add_argument("--out", metavar="FILE")
    _add_common(k)

    m = sub.add_parser("simulate", help="Poisson repeat channel Monte Carlo")
    m.add_argument("--n", type=int)
    m.add_argument("--lambda", type=float, dest="lam")
    m.add_argument("--eps", "--epsilon", type=float, dest="epsilon", default=0.1)
    m.add_argument("--trials", type=int, default=100)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--input-source", choices=INPUT_SOURCES, default="uniform_random")
    m.add_argument("--input-bits")
    m.add_argument("--verbose", action="store_true",
                   help="include per-trial reports in the JSON")
    _add_common(m)

    return parser, sub.choices


def _set_config_defaults(sub: argparse.ArgumentParser, ns: argparse.Namespace) -> None:
    """Make the --config file's values sub's defaults, so flags still win.

    Numbers and list items go in as their text, so each flag's type parses
    them like flag text.  A flag given on the command line keeps its value,
    which makes a repeated flag replace a config list instead of extending it.
    """
    with open(ns.config, encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError("config file must hold a JSON object")
    defaults = vars(sub.parse_args([]))
    del defaults["config"]
    for key, value in loaded.items():
        key = _CONFIG_ALIASES.get(key.replace("-", "_"), key.replace("-", "_"))
        if key not in defaults:
            raise ValueError(f"unknown config key {key!r} for {ns.command}")
        default = defaults[key]
        if isinstance(value, dict) or isinstance(value, list) != isinstance(default, list):
            raise ValueError(f"config key {key!r} needs "
                             + ("a list" if isinstance(default, list) else "a single value"))
        if getattr(ns, key) != default:
            continue
        if isinstance(value, list):
            value = [str(item) for item in value]
        elif type(value) in (int, float) and not isinstance(default, bool):
            value = str(value)
        sub.set_defaults(**{key: value})


def _require(params: dict, *names: str) -> None:
    missing = [n for n in names if params.get(n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ValueError(f"missing required option(s): {flags}")


def _workers() -> int:
    cap = os.environ.get("REPEATCAP_THREADS", str(os.cpu_count() or 1))
    if not (cap.isdecimal() and int(cap) > 0):
        raise ValueError("REPEATCAP_THREADS must be a positive integer")
    return int(cap)


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
    meta = None if params["no_meta"] else records.run_metadata(SOLVER_TOLERANCES)
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
    # The deletion default gets one row per optimized construction plus the
    # reported min curve; every other choice is one row per p, whose
    # failure keeps the requested variant (None prints as auto).
    variants = constructions(family, variant)
    per_construction = len(variants) > 1
    tasks = [(family, variants if per_construction else (variant,), p) for p in ps]
    results = []
    for p, at_p in zip(ps, evaluate_points(tasks, _workers())):
        results += [(None, r) for r in at_p]
        if per_construction:
            results.append(("min", best_bound(p, at_p)))

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
    variants = constructions(family, as_bound_variant(params["variant"]))
    if len(variants) > 1:
        raise ValueError("--emit-inner for geomdel needs --variant conv|trunc|delta-d")
    (variant,) = variants
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
        params["tolerance"], only=only, max_workers=_workers()
    )
    if params["json"]:
        meta = None if params["no_meta"] else records.run_metadata(
            {"tolerance": "per-table defaults" if params["tolerance"] is None
             else params["tolerance"]}
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
    _require(params, "family", "p")
    family = _family(params)
    q = params["q"]
    if q is not None and not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    if family is Family.GEOMETRIC_DELETION:
        variant = params["variant"] or "conv"
    else:
        if params["variant"] is not None:
            raise ValueError("--variant only applies to the geomdel family")
        (variant,) = constructions(family)
    gaps, limit = gap_profile(params["p"], variant, params["x_max"], params["delta_rule"])
    rows = [(str(x), repr(g)) for x, g in enumerate(gaps.tolist(), start=1)]
    rows.append(("limit", repr(limit)))
    _write_csv(params, records.KLGAP_CSV_HEADER, rows)
    return 0


def _cmd_simulate(params: dict) -> int:
    _require(params, "n", "lam")
    config = SimConfig(**{f.name: params[f.name] for f in dataclasses.fields(SimConfig)})
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
    parser, subcommands = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.config is not None:
            _set_config_defaults(subcommands[ns.command], ns)
            ns = parser.parse_args(argv)
        return _HANDLERS[ns.command](vars(ns))
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else int(exc.code)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
