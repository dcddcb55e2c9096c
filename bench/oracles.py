"""Correctness checks the benchmark applies to every op, outside the timed region.

Each check returns a list of (kind, message) findings, empty when the op
passed.  Kinds:

    raised     the op raised instead of returning
    reference  a published or expected value was missed: a table entry at
               its per-table tolerance, the table's prior_lower column, or
               a decoder success-rate bound
    frozen     a bound moved by more than FROZEN_TOL_BITS from the value the
               seed commit computed (frozen_seed_values.json)
    oracle     edit_distance disagreed with the independent DP

An op with any finding counts as failed.  Only 'reference' findings leave
the run correct: they measure the method against the paper, and the
documented T3 p = 0.6 deviation is one of them.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from repeatcap import simulate, tables

FROZEN_TOL_BITS = 1e-7
FROZEN_PATH = Path(__file__).with_name("frozen_seed_values.json")
INCORRECT_KINDS = ("raised", "frozen", "oracle")


def load_frozen() -> dict[str, float]:
    with open(FROZEN_PATH) as fh:
        return json.load(fh)


def frozen_key(table_id: str, p: float, result) -> str:
    return f"{table_id} {p!r} {result.variant.value}"


def _table_tolerance(table_id: str, p: float) -> float:
    # The per-table defaults of repeatcap.verify_tables.
    if table_id == tables.T1_STICKY.table_id:
        return 1e-5 if p <= 0.5 else 1e-3
    if table_id == tables.T2_DUPLICATION.table_id:
        return 5e-4
    return 1e-3


def _against_entry(table_id, p, column, expected, result, tol):
    if expected is None:  # printed as ">1"
        if result.bound_bits > 1.0 and result.clamped_to_one:
            return []
        return [("reference", f"{table_id} p={p} {column}: {result.bound_bits:.6f} not >1 and clamped")]
    dev = abs(result.bound_bits - expected)
    if dev <= tol:
        return []
    return [("reference", f"{table_id} p={p} {column}: {result.bound_bits:.6f} vs {expected:.6f} (dev {dev:.2e} > {tol:.0e})")]


def check_table_op(table, p: float, results: list, frozen: dict[str, float]) -> list:
    """Findings for one table row; results are the op's BoundResults in order."""
    tid = table.table_id
    tol = _table_tolerance(tid, p)
    findings = []
    if tid == tables.T3_GEOMDEL.table_id:
        conv, trunc, *delta_d = results
        best = conv if conv.bound_nats <= trunc.bound_nats else trunc
        findings += _against_entry(tid, p, "ours", table.value(p, "ours"), best, tol)
        if delta_d:
            findings += _against_entry(tid, p, "ours_delta_d", table.value(p, "ours_delta_d"), delta_d[0], tol)
    else:
        (result,) = results
        findings += _against_entry(tid, p, "ours", table.value(p, "ours"), result, tol)
        lower = table.value(p, "prior_lower")
        if not result.bound_bits >= lower:
            findings.append(("reference", f"{tid} p={p}: {result.bound_bits:.6f} below prior_lower {lower}"))
    for result in results:
        key = frozen_key(tid, p, result)
        want = frozen.get(key)
        if want is None:
            findings.append(("frozen", f"{key}: no frozen value"))
        elif not abs(result.bound_bits - want) <= FROZEN_TOL_BITS:
            findings.append(("frozen", f"{key}: {result.bound_bits!r} vs frozen {want!r}"))
    return findings


def levenshtein_dp(a, b) -> int:
    """Unit-cost edit distance by the O(len(a) len(b)) row DP.

    Each row takes substitutions and deletions from the row above in one
    vector step; insertions chain along the row, which a running minimum of
    cand[k] - k resolves: D[j] = j + min over k <= j of (cand[k] - k).
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    cols = np.arange(b.size + 1, dtype=np.int64)
    row = cols.copy()
    for i, symbol in enumerate(a, start=1):
        cand = np.empty_like(row)
        cand[0] = i
        np.minimum(row[:-1] + (b != symbol), row[1:] + 1, out=cand[1:])
        row = np.minimum.accumulate(cand - cols) + cols
    return int(row[-1])


def check_decoder_op(config, success_rate: float, reports: list) -> list:
    """Findings for one run_monte_carlo call.

    One trial, picked by a generator seeded from the config, is regenerated
    from its RNG stream and its edit distance recomputed by levenshtein_dp.
    """
    findings = []
    if config.lam >= 200 and not success_rate >= 0.99:
        findings.append(("reference", f"lambda={config.lam}: success {success_rate} < 0.99"))
    if config.lam <= 2 and not success_rate < 0.01:
        findings.append(("reference", f"lambda={config.lam}: success {success_rate} >= 0.01"))
    k = random.Random(config.seed).randrange(config.trials)
    child = np.random.SeedSequence(config.seed).spawn(config.trials)[k]
    rng = np.random.default_rng(child)
    x = rng.integers(0, 2, config.n, dtype=np.uint8)
    y = simulate.sample_channel_output(x, config.lam, rng)
    if y.size != reports[k].output_length:
        return findings + [("oracle", f"lambda={config.lam} trial {k}: regenerated output length {y.size} != {reports[k].output_length}")]
    decoded = simulate.run_length_decode(y, config.lam)
    want = levenshtein_dp(x, decoded)
    if want != reports[k].edit_distance:
        findings.append(("oracle", f"lambda={config.lam} trial {k}: edit_distance {reports[k].edit_distance} != DP {want}"))
    return findings
