"""Embedded reference tables: shape, integrity checksum, tamper detection."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import pathlib
import time

import pytest

from repeatcap import bounds, duals, numerics
from repeatcap.channels import Family
from repeatcap.tables import (
    T1_STICKY,
    T2_DUPLICATION,
    T3_GEOMDEL,
    TABLES_SHA256,
    canonical_serialization,
    checksum,
    verify_integrity,
)


def test_row_counts():
    assert len(T1_STICKY.rows) == 20
    assert len(T2_DUPLICATION.rows) == 9
    assert len(T3_GEOMDEL.rows) == 20


def test_each_table_names_its_family():
    assert T1_STICKY.family is Family.GEOMETRIC_STICKY
    assert T2_DUPLICATION.family is Family.ELEMENTARY_DUPLICATION
    assert T3_GEOMDEL.family is Family.GEOMETRIC_DELETION


def test_t2_large_p_marked_above_one():
    marked = [row for row in T2_DUPLICATION.rows if row[3] is None]
    assert [row[0] for row in marked] == [0.8, 0.9]


def test_t3_parentheticals_present_only_for_large_p():
    with_dd = [row[0] for row in T3_GEOMDEL.rows if row[3] is not None]
    assert with_dd == [0.9, 0.95, 0.99]


def test_reference_table_rejects_malformed_rows():
    with pytest.raises(ValueError, match="p values must be strictly increasing"):
        dataclasses.replace(T1_STICKY, rows=T1_STICKY.rows[1::-1])
    with pytest.raises(ValueError, match="row width does not match columns"):
        dataclasses.replace(T1_STICKY, rows=(T1_STICKY.rows[0][:3],))
    assert T1_STICKY.value(0.05, "ours") == 0.814464
    with pytest.raises(KeyError, match="no row for p = 0.06"):
        T1_STICKY.value(0.06, "ours")


def test_checksum_matches_frozen():
    assert checksum() == TABLES_SHA256
    assert verify_integrity()


def test_checksum_detects_tampering(monkeypatch):
    import repeatcap.tables as tables

    rows = list(tables.T1_STICKY.rows)
    first = list(rows[0])
    first[3] = first[3] + 1e-6
    rows[0] = tuple(first)
    tampered = dataclasses.replace(tables.T1_STICKY, rows=tuple(rows))
    monkeypatch.setattr(tables, "ALL_TABLES", (tampered,) + tables.ALL_TABLES[1:])
    assert tables.checksum() != TABLES_SHA256
    assert not tables.verify_integrity()


def test_serialization_is_stable():
    assert canonical_serialization() == canonical_serialization()
    assert "T1" in canonical_serialization()


def test_value_digest_tool_on_one_row():
    # tools/value_digest.py, the parent-vs-change check of every table
    # construction's values, on the first T1 row: the repr of each field of
    # the cold bound, and the hash of the one S-table it built.
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "value_digest.py"
    spec = importlib.util.spec_from_file_location("value_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert len(tool.rows()) == 89
    row = tool.rows()[0]
    assert row == (T1_STICKY, bounds.BoundVariant.STICKY_EXACT, 0.05)
    (key, entry), = tool.digest([row]).items()
    assert key == "T1_sticky/StickyExact/0.05"
    result = bounds.compute_bound(Family.GEOMETRIC_STICKY, None, 0.05)
    assert {name: entry[name] for name in tool.FIELDS} == {
        name: repr(getattr(result, name)) for name in tool.FIELDS}
    table = duals._get_table(duals.DualVariant.STICKY_ZERO_GAP, 0.05)
    assert entry["s_tables"] == {
        f"sticky-zero-gap/0.05/{table._vals.size}": hashlib.sha256(table._vals.tobytes()).hexdigest()}
    # Past the tables: the near-one pins, and every Lambda view and
    # log_gamma_via_integral, whose section stays under 1 s.
    assert tool.NEAR_ONE == ((Family.GEOMETRIC_STICKY, 0.9999), (Family.GEOMETRIC_DELETION, 0.999))
    start = time.perf_counter()
    views = tool.views()
    assert time.perf_counter() - start < 1.0
    assert len(views) == 6 * 3 + 1
    assert views["log_gamma_via_integral"] == [
        repr(numerics.log_gamma_via_integral(z)) for z in (1e-3, 0.5, 3.5, 100.0)]
    assert 0.0 in tool.TRUNC_YS and any(y % 1 for y in tool.TRUNC_YS)
    trunc = duals.lambda_trunc_geomdel(list(tool.TRUNC_YS), 0.3)
    assert views["view/lambda_trunc_geomdel/0.3"] == [[repr(x) for x in row.tolist()] for row in trunc]
