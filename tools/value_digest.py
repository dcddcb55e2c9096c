"""Digest of every value the reference tables' constructions compute.

    PYTHONPATH=src python tools/value_digest.py > digest.json

Builds each of the 89 constructions of T1, T2 and T3 (one per row of T1
and T2, three per row of T3) cold and serially: the q-free caches are
emptied before each, so no construction reads a table another one built.
For each it prints the repr of bound_nats, q_opt, mu_opt and
epsilon_used, or the error a construction raised, and the SHA-256 of the
bytes of every S-table built for it.  Two checkouts that compute the same
values bit for bit print the same text, so comparing them is one diff of
two runs.
"""

from __future__ import annotations

import hashlib
import json
import sys

from repeatcap import bounds, duals, tables

FIELDS = ("bound_nats", "q_opt", "mu_opt", "epsilon_used")


def rows() -> list[tuple[tables.ReferenceTable, bounds.BoundVariant, float]]:
    """(table, construction, p) for every construction of every table."""
    return [(table, variant, row[0])
            for table in tables.ALL_TABLES
            for row in table.rows
            for variant in bounds.constructions(table.family)]


def digest(selected) -> dict:
    """The digest entry of each (table, construction, p), by
    'table id/construction/p'."""
    out = {}
    for table, variant, p in selected:
        duals.clear_caches()
        try:
            result = bounds.compute_bound(table.family, variant, p)
            entry = {name: repr(getattr(result, name)) for name in FIELDS}
        except bounds.BoundComputationError as exc:
            entry = {"error": str(exc)}
        entry["s_tables"] = {
            f"{kind.value}/{tp!r}/{built._vals.size}": hashlib.sha256(built._vals.tobytes()).hexdigest()
            for (kind, tp), built in duals._TABLES.items()
        }
        out[f"{table.table_id}/{variant.value}/{p!r}"] = entry
    return out


def main() -> int:
    json.dump(digest(rows()), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
