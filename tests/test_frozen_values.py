"""Every table bound the benchmark freezes, held to the benchmark's own rule.

bench/frozen_seed_values.json holds each T1/T2/T3 construction's bound in
bits as computed when the benchmark was introduced, and the benchmark
refuses a change that moves any of them by more than 1e-7 bits
(bench/oracles.py FROZEN_TOL_BITS).  The same rule here makes a numerics
change the benchmark would refuse fail in the test suite first.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repeatcap import tables
from repeatcap.bounds import BoundVariant, compute_bound

FROZEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "frozen_seed_values.json").read_text()
)
FROZEN_TOL_BITS = 1e-7


@pytest.fixture(scope="module")
def computed() -> dict[str, float]:
    """Every frozen key's bound, computed once; the keys of one p run
    together, so its constructions share the warm S-tables and gap scan."""
    family = {table.table_id: table.family for table in tables.ALL_TABLES}
    out = {}
    for key in sorted(FROZEN, key=lambda k: (k.split()[0], float(k.split()[1]))):
        table_id, p, variant = key.split()
        out[key] = compute_bound(family[table_id], BoundVariant(variant), float(p)).bound_bits
    return out


@pytest.mark.parametrize("key", sorted(FROZEN))
def test_table_bound_matches_the_frozen_value(computed, key):
    assert abs(computed[key] - FROZEN[key]) <= FROZEN_TOL_BITS, (computed[key], FROZEN[key])
