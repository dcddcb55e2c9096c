"""Alternating benchmark runs of a base commit and the working tree.

    python tools/bench_pairs.py --workload decoder_study --pairs 10
    python tools/bench_pairs.py --workload all --pairs 10 --base HEAD~1

Copies the base commit (by git archive) and the working tree (every file
git tracks or would track, as it is on disk) into two fresh directories,
WORK/parent and WORK/change under a new temporary directory WORK: paths of
equal length, since the timings move with the bytes of the sources and of
their paths.  Then runs
`bench/run.py --workload W --seed s --seconds S --trace 0` in each, pair i
with seed i + 1, the parent first in even pairs and the change first in odd
ones.  Per workload and metric it prints the parent's median and
quartiles, the change's median, their ratio, and in how many pairs the
change read lower.  Every pair's metrics are written to WORK/pairs.json
as the pairs finish, and its path is printed on stderr; the two copies are
removed at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of values, inclusive method."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs) -> list[dict]:
    """One row per (workload, metric) of pairs, a list of (parent, change)
    results, each {workload: {metric: value}}: the parent's quartiles, the
    change's median, their ratio, and how many pairs had the change lower.
    Only metrics present on both sides of every pair are summarised."""
    rows = []
    for workload, metrics in pairs[0][0].items():
        for name in metrics:
            if not all(name in side.get(workload, {}) for pair in pairs for side in pair):
                continue
            parent = [p[workload][name] for p, _ in pairs]
            change = [c[workload][name] for _, c in pairs]
            q1, median, q3 = quartiles(parent)
            changed = statistics.median(change)
            rows.append({
                "workload": workload, "metric": name,
                "parent_q1": q1, "parent_median": median, "parent_q3": q3,
                "change_median": changed,
                "ratio": changed / median if median else float("nan"),
                "lower": sum(c < p for p, c in zip(parent, change)),
                "pairs": len(pairs),
            })
    return rows


def format_rows(rows) -> str:
    lines = [f"{'workload':<16} {'metric':<12} {'parent q1':>10} {'median':>10} {'q3':>10} "
             f"{'change':>10} {'ratio':>7} lower"]
    for r in rows:
        lines.append(
            f"{r['workload']:<16} {r['metric']:<12} {r['parent_q1']:>10.4g} {r['parent_median']:>10.4g} "
            f"{r['parent_q3']:>10.4g} {r['change_median']:>10.4g} {r['ratio']:>7.4f} "
            f"{r['lower']}/{r['pairs']}")
    return "\n".join(lines)


def parse_run(stdout: str) -> dict:
    """{workload: {metric: value}} from bench/run.py's output: each
    workload's report line names it, and its result line follows."""
    out, workload = {}, None
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "workload" in obj:
            workload = obj["workload"]
        elif "metrics" in obj:
            out[workload] = {name: m["value"] for name, m in obj["metrics"].items()}
    return out


def _copies(base: str, where: Path) -> tuple[Path, Path]:
    parent, change = where / "parent", where / "change"
    for path in parent, change:
        path.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", base],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as fh:
        fh.extractall(parent, filter="data")
    files = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "-co", "--exclude-standard"],
                           check=True, capture_output=True).stdout.decode().split("\0")
    for name in filter(None, files):
        src = ROOT / name
        if src.is_file():
            dst = change / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_bytes(src.read_bytes())
    return parent, change


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True)
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("zero_gap_tables", "deletion_tables", "decoder_study", "all"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--base", default="HEAD", help="the parent commit (default HEAD)")
    args = ap.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    out = work / "pairs.json"
    print(f"pairs: {out}", file=sys.stderr, flush=True)
    try:
        parent, change = _copies(args.base, work)
        pairs = []
        for i in range(args.pairs):
            order = (parent, change) if i % 2 == 0 else (change, parent)
            got = {path: _run(path, args.workload, i + 1, args.seconds) for path in order}
            pairs.append((got[parent], got[change]))
            out.write_text(json.dumps(pairs, indent=1))
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    finally:
        for path in work / "parent", work / "change":
            shutil.rmtree(path, ignore_errors=True)
    print(format_rows(summarize(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
