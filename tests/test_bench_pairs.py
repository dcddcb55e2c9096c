"""tools/bench_pairs.py: the per-metric summary of parent/change pairs."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import time

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tool)


def _pair(parent_wall, change_wall, parent_rss=100.0, change_rss=100.0):
    return ({"decoder_study": {"wall_s": parent_wall, "peak_rss_mb": parent_rss}},
            {"decoder_study": {"wall_s": change_wall, "peak_rss_mb": change_rss}})


def test_summary_of_canned_pairs():
    start = time.perf_counter()
    pairs = [_pair(p, c) for p, c in ((0.60, 0.52), (0.58, 0.53), (0.62, 0.63), (0.57, 0.50), (0.61, 0.55))]
    wall, rss = tool.summarize(pairs)
    assert (wall["workload"], wall["metric"]) == ("decoder_study", "wall_s")
    # parent 0.57, 0.58, 0.60, 0.61, 0.62: inclusive quartiles 0.58 and 0.61
    assert wall["parent_q1"] == pytest.approx(0.58)
    assert wall["parent_median"] == pytest.approx(0.60)
    assert wall["parent_q3"] == pytest.approx(0.61)
    assert wall["change_median"] == pytest.approx(0.53)
    assert wall["ratio"] == pytest.approx(0.53 / 0.60)
    assert (wall["lower"], wall["pairs"]) == (4, 5)
    # equal values are not lower
    assert (rss["ratio"], rss["lower"]) == (1.0, 0)
    text = tool.format_rows([wall, rss])
    assert text.splitlines()[1].split()[:2] == ["decoder_study", "wall_s"]
    assert text.splitlines()[1].endswith("4/5")
    assert time.perf_counter() - start < 0.2


def test_summary_skips_a_metric_missing_from_a_run_and_takes_one_pair():
    pairs = [_pair(1.0, 0.9)]
    del pairs[0][1]["decoder_study"]["peak_rss_mb"]
    (row,) = tool.summarize(pairs)
    assert row["metric"] == "wall_s"
    assert row["parent_q1"] == row["parent_median"] == row["parent_q3"] == 1.0
    assert row["lower"] == 1


def test_parse_run_reads_each_workloads_result_line():
    report = {"machine": {}, "workload": "decoder_study", "findings": [], "wall_unscaled_s": 1.0}
    result = {"correct": True, "attempted": 7, "failed": 0,
              "metrics": {"wall_s": {"value": 0.5, "unit": "s"}, "op_p50_s": {"value": 0.06, "unit": "s"}}}
    stdout = "\n".join([json.dumps(report), "decoder_study: wall_s=0.5 s, ...", json.dumps(result)])
    assert tool.parse_run(stdout) == {"decoder_study": {"wall_s": 0.5, "op_p50_s": 0.06}}
