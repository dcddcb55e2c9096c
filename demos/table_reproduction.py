"""Recompute the embedded reference tables and print them side by side.

Runs the same verification the `repeatcap verify` command uses, then
prints published vs recomputed values per row.  One entry is expected to
deviate and is flagged below: the deletion table's main entry at p = 0.6
(recomputed 0.208075 vs the printed 0.204186; the printed value is not
reachable from the stated construction; README "Known deviations", item 1).
The other documented failure, criterion 8, checks no table entry.

Usage: python3 demos/table_reproduction.py
"""

from __future__ import annotations

from repeatcap.bounds import verify_tables

verification = verify_tables()

current = None
for check in verification.checks:
    if check.table_id != current:
        current = check.table_id
        print(f"\n{current}")
        print(f"{'p':>6} {'column':>14} {'published':>10} {'computed':>10} {'dev':>9}")
    dev = f"{check.deviation:.1e}" if check.deviation == check.deviation else "-"
    mark = "" if check.passed else "   <-- deviates"
    print(
        f"{check.p:>6} {check.column:>14} {check.expected:>10} "
        f"{check.computed:>10.6f} {dev:>9}{mark}"
    )

n_fail = len(verification.failures)
print(f"\n{len(verification.checks)} entries, {n_fail} deviating")
