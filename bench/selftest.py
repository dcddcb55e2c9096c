"""Self-test of the benchmark on its tiny configuration (about a minute).

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, that per-layer counts repeat exactly across two traced
runs, that each wrapper sees calls on exactly the workloads that should
reach it, and that the oracles catch a bound moved by 1e-6 bits and a
wrong edit distance.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("zero_gap_tables", "deletion_tables", "decoder_study")
COUNT_SUFFIXES = (".calls", ".panels", ".values", ".terms", ".evals", ".nonunimodal",
                  ".x_total", ".symbols", ".cells")

# The layers each workload must reach; every other layer must see no call.
_TABLE_LAYERS = {"numerics.integrate", "numerics.sum_series", "numerics.maximize_concave",
                 "duals.build_dual", "bounds.compute_bound"}
REACHED = {
    "zero_gap_tables": _TABLE_LAYERS,
    "deletion_tables": _TABLE_LAYERS | {"duals.convexity_gap_scan", "channels.output_log_pmf", "duals.r_p"},
    "decoder_study": {"simulate.run_monte_carlo", "simulate.sample_channel_output",
                      "simulate.run_length_decode", "simulate.edit_distance"},
}


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300,
    )
    check(proc.returncode == 0, f"{workload} trace={trace} exits 0 ({proc.stderr.strip()[-300:]})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emitted(workload: str, result: dict, declared: list) -> None:
    metrics = result["metrics"]
    check(result["correct"] and result["failed"] == 0, f"{workload}: tiny run correct, no failed op")
    check(set(metrics) == {m["name"] for m in declared}
          and all(metrics[m["name"]]["unit"] == m["unit"] for m in declared),
          f"{workload}: every declared metric emitted with its unit")


def check_oracles() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import oracles
    import workloads

    frozen = oracles.load_frozen()
    table_op = workloads.make_ops("zero_gap_tables", 0, tiny=True)[0]
    table_op.prepare()
    results = table_op.execute()
    check(table_op.check(results, frozen) == [], f"{table_op.name}: bound oracle passes the true value")
    moved = [dataclasses.replace(r, bound_bits=r.bound_bits + 1e-6) for r in results]
    kinds = {kind for kind, _ in table_op.check(moved, frozen)}
    check("frozen" in kinds, f"{table_op.name}: bound oracle catches a 1e-6-bit move")

    decoder_op = workloads.make_ops("decoder_study", 0, tiny=True)[-1]
    rate, reports = decoder_op.execute()
    check(decoder_op.check((rate, reports), frozen) == [], f"{decoder_op.name}: decoder oracle passes")
    wrong = [dataclasses.replace(r, edit_distance=r.edit_distance + 1) for r in reports]
    kinds = {kind for kind, _ in decoder_op.check((rate, wrong), frozen)}
    check("oracle" in kinds, f"{decoder_op.name}: decoder oracle catches a wrong edit distance")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        check_emitted(workload, bench(workload, 0), spec["end_to_end"])
        first, second = bench(workload, 1), bench(workload, 1)
        check_emitted(workload, first, spec["per_layer"])
        counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
                  for r in (first, second)]
        check(counts[0] == counts[1], f"{workload}: per-layer counts repeat across traced runs")
        for layer in sorted({name.rsplit(".", 1)[0] for name in first["metrics"]} - {"trace"}):
            work = [v["value"] for k, v in first["metrics"].items()
                    if k.rsplit(".", 1)[0] == layer and k.endswith((".calls", ".self_s"))]
            reached = any(value > 0 for value in work)
            check(reached == (layer in REACHED[workload]),
                  f"{workload}: {layer} {'reached' if reached else 'not reached'}")
    check_oracles()
    return 0


if __name__ == "__main__":
    sys.exit(main())
