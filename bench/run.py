"""repeatcap benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload zero_gap_tables --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): zero_gap_tables, deletion_tables,
decoder_study, or 'all' for the three in turn.  Each workload runs in a
fresh worker process (worker.py), serially, with cold caches for every op.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.  The
worker runs whole passes over the op list: one, then more while another
should end within --seconds.  Each op's latency is the median over the
passes, scaled to a reference machine speed (see calibration.py).
wall_s is the sum of the op latencies, op_p50_s their median and op_max_s
the largest; setup_s is the median scaled time from process start to the
first op over SETUP_SAMPLES fresh processes; peak_rss_mb is the worker's
peak resident memory.  --trace 1 runs one untraced and one traced pass and
reports the per-layer metrics instead (see spans.py).

stdout: a JSON report (machine record, findings, unscaled wall time), a
summary line with every metric and its unit plus failed_frac, and last the
result object {"correct", "attempted", "failed", "metrics"}.  failed counts
ops that raised or missed a check (see oracles.py); correct is false only
when an op raised or a regression or exactness check failed.

Exit codes: 0 result printed, 1 the worker failed or timed out, 2 the
checkout has no repeatcap sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
NOT_CONTROLLED = ("CPU frequency, the file cache and co-tenants are not controlled; "
                  "compare only runs made on the same machine")


class BenchError(RuntimeError):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_record(seed: int, versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
        "not_controlled": NOT_CONTROLLED,
    }


def _worker(workload: str, seed: int, seconds: int, trace: int, tiny: bool,
            setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start a worker; returns (scaled seconds until it was ready, its result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    cmd += ["--tiny"] * tiny + ["--setup-only"] * setup_only
    kernel_before = calibration.burst_s()
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        setup_s = calibration.scaled(setup_s, (kernel_before + calibration.burst_s()) / 2)
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker for {workload} did not finish in time")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"worker for {workload} exited with code {proc.returncode}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def _declared_metrics(kind: str) -> list[dict]:
    """The 'end_to_end' or 'per_layer' metric list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def run_workload(workload: str, seed: int, seconds: int, trace: int, tiny: bool,
                 deadline: float) -> tuple[dict, dict]:
    """Returns the result object and a report: machine record, findings,
    and the median unscaled wall time of a pass."""
    setups = [_worker(workload, seed, seconds, trace, tiny, True, deadline)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup_s, raw = _worker(workload, seed, seconds, trace, tiny, False, deadline)
    setups.append(setup_s)
    if trace:
        values = raw["layers"]
        declared = _declared_metrics("per_layer")
    else:
        # Per op, the median over the run's passes of its scaled latency.
        per_op = [statistics.median(samples) for samples in zip(*raw["scaled"])]
        values = {
            "wall_s": sum(per_op),
            "op_p50_s": statistics.median(per_op),
            "op_max_s": max(per_op),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        declared = _declared_metrics("end_to_end")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for declared metrics {missing}")
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    report = {
        "machine": machine_record(seed, raw["versions"]),
        "workload": workload,
        "findings": raw["findings"],
        "wall_unscaled_s": statistics.median(sum(lat) for lat in raw["latencies"]),
    }
    return result, report


def _summary(result: dict, report: dict) -> str:
    parts = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    frac = result["failed"] / result["attempted"]
    parts.append(f"failed_frac={frac:.6g} ({result['failed']}/{result['attempted']})")
    parts.append(f"wall_unscaled_s={report['wall_unscaled_s']:.6g} s")
    return f"{report['workload']}: " + ", ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("zero_gap_tables", "deletion_tables", "decoder_study", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few cheap ops per workload, for selftest.py")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repeatcap" / "__init__.py").is_file():
        print(f"bench: no repeatcap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = (("zero_gap_tables", "deletion_tables", "decoder_study")
             if args.workload == "all" else (args.workload,))
    deadline = perf_counter() + DEADLINE_S * len(names)
    try:
        for name in names:
            result, report = run_workload(
                name, args.seed, args.seconds, args.trace, args.tiny, deadline)
            print(json.dumps(report))
            print(_summary(result, report))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
