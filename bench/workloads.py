"""The benchmark's workloads: fixed op lists over repeatcap's public API.

zero_gap_tables   one compute_bound per row of T1 (sticky, 20 p) and T2
                  (duplication, 9 p).  Nearly all of the cost is S-table
                  quadrature on the semi-infinite exp-tail path; no gap scan.
deletion_tables   one op per T3 row (20 ops): conv and trunc, plus delta-d
                  where the table prints it, as verify_tables builds the row.
                  Finite mapped quadrature with 50 breakpoints, the only
                  workload with the convexity gap scan and the channel laws.
decoder_study     run_monte_carlo at n = 4000, eps = 0.1, 100 trials for each
                  lambda in LAMBDAS.  No bounds code; the cost is the
                  bit-parallel edit_distance.

Every table op starts cold: the S-tables and the gap-scan cache are emptied
first, because every CLI user pays the cold cost on each run.
duals.clear_caches() alone leaves bounds._DELTA_SCANS filled, so conv and
delta-d would reuse another op's gap scan; the benchmark empties both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repeatcap import bounds, duals, simulate, tables
from repeatcap.bounds import BoundVariant
from repeatcap.channels import Family

import oracles

LAMBDAS = (2, 5, 10, 20, 50, 100, 200)

_FAMILY = {
    tables.T1_STICKY.table_id: Family.GEOMETRIC_STICKY,
    tables.T2_DUPLICATION.table_id: Family.ELEMENTARY_DUPLICATION,
    tables.T3_GEOMDEL.table_id: Family.GEOMETRIC_DELETION,
}


@dataclass(frozen=True)
class TableOp:
    table: tables.ReferenceTable
    p: float

    @property
    def name(self) -> str:
        return f"{self.table.table_id} p={self.p}"

    @property
    def variants(self) -> tuple:
        if self.table is not tables.T3_GEOMDEL:
            return (None,)
        if self.table.value(self.p, "ours_delta_d") is None:
            return (BoundVariant.GEOMDEL_CONV, BoundVariant.GEOMDEL_TRUNC)
        return (BoundVariant.GEOMDEL_CONV, BoundVariant.GEOMDEL_TRUNC, BoundVariant.GEOMDEL_DELTA_D)

    def prepare(self) -> None:
        duals.clear_caches()
        bounds._DELTA_SCANS.clear()

    def execute(self) -> list:
        family = _FAMILY[self.table.table_id]
        return [bounds.compute_bound(family, v, self.p) for v in self.variants]

    def check(self, results, frozen) -> list:
        return oracles.check_table_op(self.table, self.p, results, frozen)

    def check_cold(self, calls: dict[str, int]) -> list:
        """Findings unless the op's traced calls show it started cold:
        S-tables rebuilt by quadrature, and one gap scan per deletion row."""
        findings = []
        if calls["numerics.integrate"] == 0:
            findings.append(("oracle", f"{self.name}: no quadrature, S-tables were warm"))
        scans = calls["duals.convexity_gap_scan"]
        if scans != (1 if self.table is tables.T3_GEOMDEL else 0):
            findings.append(("oracle", f"{self.name}: {scans} gap scans"))
        return findings


@dataclass(frozen=True)
class DecoderOp:
    config: simulate.SimConfig

    @property
    def name(self) -> str:
        return f"lambda={self.config.lam:g}"

    def prepare(self) -> None:
        pass

    def execute(self) -> tuple:
        return simulate.run_monte_carlo(self.config)

    def check(self, outcome, frozen) -> list:
        return oracles.check_decoder_op(self.config, *outcome)

    def check_cold(self, calls: dict[str, int]) -> list:
        return []  # the simulator keeps no caches


def make_ops(workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's ops.  Table ops are fixed by the paper; the seed
    draws the decoder's trials.  tiny keeps a few cheap ops of each workload
    for the self-test.
    """
    if workload == "decoder_study":
        lambdas, n, trials = ((2, 200), 300, 5) if tiny else (LAMBDAS, 4000, 100)
        return [
            DecoderOp(simulate.SimConfig(n=n, lam=float(lam), epsilon=0.1, trials=trials,
                                         seed=seed * len(LAMBDAS) + i))
            for i, lam in enumerate(lambdas)
        ]
    if workload == "zero_gap_tables":
        rows = [(tables.T1_STICKY, r[0]) for r in tables.T1_STICKY.rows]
        rows += [(tables.T2_DUPLICATION, r[0]) for r in tables.T2_DUPLICATION.rows]
        if tiny:
            rows = [rows[0], rows[len(tables.T1_STICKY.rows)]]
    elif workload == "deletion_tables":
        rows = [(tables.T3_GEOMDEL, r[0]) for r in tables.T3_GEOMDEL.rows]
        if tiny:
            rows = [rows[0], rows[-3]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [TableOp(table, p) for table, p in rows]
