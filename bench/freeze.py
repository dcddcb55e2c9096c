"""Regenerate frozen_seed_values.json: every table bound, in bits, at full precision.

    python3 bench/freeze.py

The committed file was written at the commit that introduced the benchmark;
oracles.py holds later commits to it within FROZEN_TOL_BITS.  Rewrite it only
when a change to the numbers is intended and explained.
"""

from __future__ import annotations

import json

from worker import import_repeatcap

import_repeatcap()

import oracles  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    frozen = {}
    for workload in ("zero_gap_tables", "deletion_tables"):
        for op in workloads.make_ops(workload, seed=0):
            op.prepare()
            for result in op.execute():
                frozen[oracles.frozen_key(op.table.table_id, op.p, result)] = result.bound_bits
    with open(oracles.FROZEN_PATH, "w") as fh:
        json.dump(dict(sorted(frozen.items())), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
