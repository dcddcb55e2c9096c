"""One workload in one fresh process; started by run.py, not by hand.

Prints 'ready' once repeatcap is imported and its tables pass their
integrity check (the point where the first op could start), then runs the
workload and prints one JSON line with the raw results.  With --setup-only
it exits after 'ready'; run.py starts several such processes to take the
median set-up time.

Exit codes: 0 done, 2 repeatcap missing or not the checkout's copy,
3 table integrity check failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_repeatcap() -> None:
    """Import repeatcap from the checkout's src/, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import repeatcap
    except ImportError as exc:
        print(f"bench: cannot import repeatcap from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in Path(repeatcap.__file__).resolve().parents:
        print(f"bench: imported repeatcap from {repeatcap.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def run_pass(ops, probe=None, on_op_done=None) -> tuple[list[float], list[float], list]:
    """Every op once, serially.

    Returns the wall latencies, the same latencies scaled by the speed
    probe (None without one), and the outcomes (or the exceptions raised).
    """
    latencies, scaled, outcomes = [], [], []
    for op in ops:
        op.prepare()
        if probe is not None:
            probe.reset()
        start = perf_counter()
        try:
            outcome = op.execute()
        except Exception as exc:  # a raising op is counted as failed, not fatal
            outcome = exc
        latency = perf_counter() - start
        latencies.append(latency)
        scaled.append(None if probe is None else probe.scale(latency))
        outcomes.append(outcome)
        if on_op_done is not None:
            on_op_done()
    return latencies, scaled, outcomes


def check_pass(ops, outcomes, frozen) -> list[list]:
    """Findings per op; runs after the pass, outside the timed and traced region."""
    findings = []
    for op, outcome in zip(ops, outcomes):
        if isinstance(outcome, Exception):
            findings.append([("raised", f"{op.name}: {type(outcome).__name__}: {outcome}")])
        else:
            findings.append(op.check(outcome, frozen))
    return findings


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_repeatcap()
    import numpy
    import scipy
    from repeatcap import tables

    if not tables.verify_integrity():
        print("bench: embedded reference tables failed their checksum", file=sys.stderr)
        return 3
    import oracles
    import spans
    import workloads

    frozen = oracles.load_frozen()
    ops = workloads.make_ops(args.workload, args.seed, args.tiny)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    passes, findings, trace_findings = [], [], []
    layers = None
    if args.trace:
        # One untraced pass is the base of trace.overhead_frac.
        untraced, _, outcomes = run_pass(ops)
        findings += check_pass(ops, outcomes, frozen)
        tracer = spans.Tracer()
        calls_after_op = []
        with spans.installed(tracer):
            traced, _, outcomes = run_pass(ops, on_op_done=lambda: calls_after_op.append(tracer.calls()))
        findings += check_pass(ops, outcomes, frozen)
        before = dict.fromkeys(calls_after_op[-1], 0)
        for op, after in zip(ops, calls_after_op):
            trace_findings += op.check_cold({k: after[k] - before[k] for k in after})
            before = after
        passes = [(untraced, None), (traced, None)]
        layers = spans.layer_metrics(tracer, sum(traced), sum(untraced))
        residual = spans.self_time_residual(tracer)
        if abs(residual) > 1e-6 * max(1.0, sum(traced)):
            trace_findings.append(("oracle", f"self times miss traced wall by {residual:.3e} s"))
    else:
        # Whole passes: one, then another while it should end within --seconds.
        start = perf_counter()
        while True:
            pass_start = perf_counter()
            with calibration.SpeedProbe() as probe:
                latencies, scaled, outcomes = run_pass(ops, probe)
            findings += check_pass(ops, outcomes, frozen)
            passes.append((latencies, scaled))
            now = perf_counter()
            if now - start + (now - pass_start) > args.seconds:
                break

    flat = [item for f in findings for item in f] + trace_findings
    print(json.dumps({
        "latencies": [latencies for latencies, _ in passes],
        "scaled": [scaled for _, scaled in passes],
        "attempted": len(findings),
        "failed": sum(1 for f in findings if f),
        "correct": not any(kind in oracles.INCORRECT_KINDS for kind, _ in flat),
        "findings": sorted({msg for _, msg in flat}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "layers": layers,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
