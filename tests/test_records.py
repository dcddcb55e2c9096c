"""CSV/JSON record emitters: round-trips, typing, metadata shape."""

from __future__ import annotations

import io
import json
import math

import pytest

from repeatcap.bounds import (
    BoundVariant,
    Family,
    SweepFailure,
    TableVerification,
    _check_value,
    compute_bound,
    verify_tables,
)
from repeatcap.records import (
    BOUND_CSV_HEADER,
    KLGAP_CSV_HEADER,
    bound_csv_row,
    bound_json,
    bound_record,
    dump_json,
    parse_bound_csv,
    run_metadata,
    simulation_json,
    verification_json,
    write_csv,
)
from repeatcap.simulate import SimConfig, run_monte_carlo


def test_headers():
    assert BOUND_CSV_HEADER[0] == "p"
    assert BOUND_CSV_HEADER[-2:] == ("epsilon_used", "clamped")
    assert KLGAP_CSV_HEADER == ("x", "gap_nats")


def test_bound_csv_row_success_shape():
    result = compute_bound(Family.GEOMETRIC_STICKY, BoundVariant.STICKY_EXACT, 0.3)
    row = bound_csv_row(result)
    assert len(row) == len(BOUND_CSV_HEADER)
    assert row[1] == "StickyExact"
    # bits column fixed at 6 decimals
    assert row[2] == f"{result.bound_bits:.6f}"
    assert row[7] == "false"


def test_bound_csv_row_failure_shape():
    failure = SweepFailure(p=1.7, variant=None, message="p must lie in (0, 1)")
    row = bound_csv_row(failure, with_error=True)
    assert len(row) == len(BOUND_CSV_HEADER) + 1
    assert row[0] == repr(1.7)
    assert row[1] == "auto"
    assert row[2:8] == [""] * 6
    assert "p must lie" in row[-1]


def test_csv_round_trip():
    results = [
        compute_bound(Family.GEOMETRIC_STICKY, BoundVariant.STICKY_EXACT, 0.3),
        compute_bound(Family.GEOMETRIC_DELETION, BoundVariant.GEOMDEL_CONV, 0.5),
    ]
    buf = io.StringIO()
    write_csv(buf, BOUND_CSV_HEADER, [bound_csv_row(r) for r in results])
    parsed = parse_bound_csv(buf.getvalue())
    assert len(parsed) == 2
    for rec, result in zip(parsed, results):
        assert rec["p"] == result.p
        assert rec["variant"] == result.variant.value
        assert rec["bound_nats"] == result.bound_nats
        assert rec["q_opt"] == result.q_opt
        assert rec["mu_opt"] == result.mu_opt
        assert rec["clamped"] is False
        # bits go through 6-decimal formatting, everything else exact
        assert abs(rec["bound_bits"] - result.bound_bits) < 5e-7


def test_parse_cell_typing():
    buf = io.StringIO()
    write_csv(
        buf,
        BOUND_CSV_HEADER + ("error",),
        [["0.2", "StickyExact", "0.583611", "0.404536", "0.5", "2.0", "0.0", "false", ""],
         ["1.7", "auto", "", "", "", "", "", "", "bad p"]],
    )
    good, bad = parse_bound_csv(buf.getvalue())
    assert good["clamped"] is False
    assert isinstance(good["q_opt"], float)
    assert good["error"] == ""
    assert bad["bound_bits"] is None
    assert bad["clamped"] is None
    assert bad["error"] == "bad p"


def test_bound_json_keys_and_meta():
    result = compute_bound(Family.GEOMETRIC_STICKY, BoundVariant.STICKY_EXACT, 0.3)
    obj = bound_json(result)
    assert "meta" not in obj
    assert set(obj) == set(BOUND_CSV_HEADER)
    obj = bound_json(result, meta=run_metadata())
    assert obj["meta"]["tool"] == "repeatcap"


def test_bound_record_matches_result():
    result = compute_bound(Family.GEOMETRIC_DELETION, BoundVariant.GEOMDEL_TRUNC, 0.5)
    rec = bound_record(result)
    assert rec["bound_nats"] == result.bound_nats
    assert rec["variant"] == "GeomDelTrunc"
    assert rec["clamped"] is False


def test_simulation_json_shape():
    config = SimConfig(n=5, lam=50.0, epsilon=0.2, trials=3, seed=7)
    rate, reports = run_monte_carlo(config)
    obj = simulation_json(config, rate, reports)
    assert obj["n"] == 5 and obj["lambda"] == 50.0 and obj["trials"] == 3
    assert "reports" not in obj
    obj = simulation_json(config, rate, reports, verbose=True)
    assert list(obj) == [
        "n", "lambda", "epsilon", "trials", "seed", "input_source", "success_rate", "reports"
    ]
    assert len(obj["reports"]) == 3
    assert all(list(r) == ["edit_distance", "output_length", "success"] for r in obj["reports"])


_CHECK_KEYS = [
    "table_id", "p", "column", "expected", "computed", "deviation", "tolerance", "passed"
]


def test_verification_json_shape():
    verification = verify_tables(only=("T2",))
    obj = verification_json(verification, meta=run_metadata({"t": 1e-3}))
    assert obj["all_passed"] is True
    assert len(obj["checks"]) == 9
    assert list(obj) == ["all_passed", "checks", "meta"]
    assert all(list(check) == _CHECK_KEYS for check in obj["checks"])
    assert obj["meta"]["tolerances"] == {"t": 1e-3}


def test_verification_json_notes_only_a_failed_computation():
    # note comes last, and only on a check whose computation errored
    p, result = 0.3, compute_bound(Family.GEOMETRIC_STICKY, None, 0.3)
    checks = (
        _check_value("T1_sticky", p, "ours", result.bound_bits, result, 1e-5),
        _check_value("T1_sticky", p, "ours", result.bound_bits + 1.0, result, 1e-5),
        _check_value("T1_sticky", p, "ours", 0.5, SweepFailure(p, None, "boom"), 1e-5),
    )
    obj = verification_json(TableVerification(checks))
    assert obj["all_passed"] is False
    assert [c["passed"] for c in obj["checks"]] == [True, False, False]
    assert [list(c) for c in obj["checks"]] == [_CHECK_KEYS, _CHECK_KEYS, _CHECK_KEYS + ["note"]]
    assert obj["checks"][2]["note"] == "boom"


def test_dump_json_format():
    text = dump_json({"a": 1})
    assert text.endswith("\n")
    assert "\n  \"a\": 1" in text
    assert json.loads(text) == {"a": 1}


def test_run_metadata_keys():
    meta = run_metadata()
    assert meta["tool"] == "repeatcap"
    assert "version" in meta and "timestamp" in meta
    assert "tolerances" not in meta
    meta = run_metadata({"q_opt": 1e-7})
    assert meta["tolerances"]["q_opt"] == 1e-7


def test_bits_nan_serializes():
    result = compute_bound(Family.GEOMETRIC_DELETION, BoundVariant.GEOMDEL_ELEMENTARY, 1.0 - 1e-6)
    row = bound_csv_row(result)
    assert math.isnan(result.mu_opt)
    assert row[5] == "nan"
