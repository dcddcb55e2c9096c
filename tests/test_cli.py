"""Command-line interface: exit codes, output formats, config merging."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math

import pytest

from oracles import R_P
from repeatcap import bounds, duals, numerics
from repeatcap.bounds import deletion_delta
from repeatcap.cli import main
from repeatcap.records import parse_bound_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_json_output(capsys):
    code, out, err = run_cli(capsys, "bound", "--family", "sticky", "--p", "0.05")
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["bound_bits"] - 0.814464) < 1e-5
    assert obj["variant"] == "StickyExact"
    assert obj["meta"]["tool"] == "repeatcap"
    assert "bits" in err


def test_bound_no_meta_and_nats(capsys):
    code, out, err = run_cli(
        capsys, "bound", "--family", "geomdel", "--p", "0.5", "--no-meta", "--nats"
    )
    assert code == 0
    obj = json.loads(out)
    assert "meta" not in obj
    assert obj["variant"] == "GeomDelConv"
    assert "nats" in err
    code2, out2, _ = run_cli(
        capsys, "bound", "--family", "geomdel", "--p", "0.5", "--no-meta", "--nats"
    )
    assert out2 == out


def test_bound_bad_p_exits_2(capsys):
    code, _, err = run_cli(capsys, "bound", "--family", "sticky", "--p", "1.5")
    assert code == 2
    assert err.strip() != ""


def test_bound_computation_error_exits_3(capsys):
    code, out, err = run_cli(
        capsys, "bound", "--family", "geomdel", "--variant", "trunc", "--p", "0.9998"
    )
    assert code == 3
    assert out == "" and "p = 0.9998" in err


def test_bound_missing_flags_exits_2(capsys):
    code, _, err = run_cli(capsys, "bound")
    assert code == 2
    assert "--family" in err and "--p" in err


def test_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "sticky",
        "--p-start", "0.1", "--p-end", "0.3", "--steps", "3",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "p", "variant", "bound_bits", "bound_nats", "q_opt",
        "mu_opt", "epsilon_used", "clamped",
    ]
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == ["0.1", "0.2", "0.3"]
    parsed = parse_bound_csv(out)
    assert abs(parsed[1]["bound_bits"] - 0.583611) < 1e-5


def test_sweep_geomdel_emits_min_rows(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "geomdel",
        "--p-start", "0.5", "--p-end", "0.5", "--steps", "2",
    )
    # degenerate grid start == end is rejected
    assert code == 2
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "geomdel",
        "--p-start", "0.3", "--p-end", "0.5", "--steps", "2",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    labels = [r[1] for r in rows if r[0] == "0.5"]
    assert labels == ["GeomDelConv", "GeomDelTrunc", "GeomDelDeltaD", "min"]
    by_label = {r[1]: float(r[3]) for r in rows if r[0] == "0.5"}
    assert by_label["min"] == min(
        by_label["GeomDelConv"], by_label["GeomDelTrunc"], by_label["GeomDelDeltaD"]
    )


def test_geomdel_sweep_where_every_construction_fails(capsys, monkeypatch):
    # Each construction's row carries its own error, and each p's min row
    # says that none was left to take the minimum of.
    def fail(p, variant):
        raise bounds.BoundComputationError(f"no bound for {variant.value}")

    monkeypatch.setenv("REPEATCAP_THREADS", "1")
    monkeypatch.setattr(bounds, "_optimize", fail)
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "geomdel",
        "--p-start", "0.3", "--p-end", "0.5", "--steps", "2",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][-1] == "error"
    labels = ["GeomDelConv", "GeomDelTrunc", "GeomDelDeltaD"]
    assert [(r[0], r[1]) for r in rows[1:]] == [
        (p, label) for p in ("0.3", "0.5") for label in labels + ["min"]
    ]
    for r in rows[1:]:
        assert r[2:-1] == [""] * (len(rows[0]) - 3)
        want = "all variants failed" if r[1] == "min" else (
            f"BoundComputationError: no bound for {r[1]}"
        )
        assert r[-1] == want


def test_bound_exits_3_on_a_quadrature_failure(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise numerics.QuadratureError("did not converge")

    monkeypatch.setattr(bounds, "build_dual", fail)
    message = "quadrature failure at q = 0.825 (p = 0.3, StickyExact): did not converge"
    with pytest.raises(bounds.BoundComputationError) as exc:
        bounds.compute_bound("geometric-sticky", None, 0.3)
    assert str(exc.value) == message
    code, out, err = run_cli(capsys, "bound", "--family", "sticky", "--p", "0.3", "--no-meta")
    assert code == 3 and out == ""
    assert err == f"numerical failure: {message}\n"


def test_geomdel_sweep_csv_same_with_and_without_workers(capsys, monkeypatch):
    outs = []
    for threads in ("2", "1"):
        monkeypatch.setenv("REPEATCAP_THREADS", threads)
        duals.clear_caches()
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "geomdel",
            "--p-start", "0.3", "--p-end", "0.5", "--steps", "2",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 1 + 2 * 4


def test_sweep_failure_rows_keep_their_labels(capsys, monkeypatch):
    # A default that runs one construction is one task per p under the
    # requested variant, so its failure row reads auto; the geomdel default
    # runs a row per construction, a failing one under its own name, plus min.
    monkeypatch.setenv("REPEATCAP_THREADS", "1")
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "sticky",
        "--p-start", "0.9", "--p-end", "0.99995", "--steps", "2",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[1] for r in rows] == ["StickyExact", "auto"]
    assert "series cap" in rows[1][-1]

    def failing_r_p(x, p):
        raise bounds.BoundComputationError("trunc cannot be computed here")

    duals.clear_caches()
    monkeypatch.setattr(bounds, "r_p", failing_r_p)
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "geomdel",
        "--p-start", "0.3", "--p-end", "0.5", "--steps", "2",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[1] for r in rows] == ["GeomDelConv", "GeomDelTrunc", "GeomDelDeltaD", "min"] * 2
    assert [bool(r[-1]) for r in rows] == [False, True, False, False] * 2


@pytest.mark.parametrize("command", ["bound", "sweep"])
def test_variant_help_lists_every_family_token(capsys, command):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    help_text = " ".join(out.split())
    for token in ("auto", "sticky", "duplication", "conv", "trunc", "delta-d",
                  "elementary"):
        assert token in help_text
    assert "deletion only" not in help_text


def test_sweep_out_file(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "duplication",
        "--p-start", "0.2", "--p-end", "0.4", "--steps", "2",
        "--out", str(path),
    )
    assert code == 0
    assert out == ""
    parsed = parse_bound_csv(path.read_text())
    assert [rec["p"] for rec in parsed] == [0.2, 0.4]


def test_sweep_emit_inner(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "sticky", "--p", "0.3",
        "--emit-inner", "--q-points", "5",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["q", "objective_bits"]
    assert len(rows) == 6
    values = [float(r[1]) for r in rows[1:]]
    # interior of the curve beats the endpoints
    assert max(values[1:-1]) > values[0]
    assert max(values[1:-1]) > values[-1]


def test_sweep_emit_inner_in_nats_is_the_objective_curve(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "duplication", "--p", "0.3",
        "--emit-inner", "--q-points", "5", "--nats",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["q", "objective_nats"]
    qs = [float(r[0]) for r in rows[1:]]
    assert len(qs) == 5
    assert [float(r[1]) for r in rows[1:]] == bounds.objective_curve(0.3, "duplication", qs)


def test_sweep_emit_inner_geomdel_needs_variant(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--family", "geomdel", "--p", "0.5", "--emit-inner"
    )
    assert code == 2
    assert "variant" in err


def test_sweep_emit_inner_rejects_variant_of_another_family(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--family", "sticky", "--emit-inner", "--p", "0.3",
        "--variant", "conv", "--q-points", "3", "--nats",
    )
    assert code == 2
    assert out == ""
    assert "GeomDelConv" in err and "does not belong" in err


def test_verify_only_t2(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "T2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 9
    assert all(l.startswith("PASS") for l in lines)
    assert "9 checks: 9 passed, 0 failed" in out


def test_verify_strict_tolerance_fails(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--only", "T2", "--tolerance", "1e-12"
    )
    assert code == 1
    assert any(l.startswith("FAIL") for l in out.splitlines())


def test_verify_text_notes_a_failed_computation(capsys, monkeypatch):
    def fail(p, variant):
        raise bounds.BoundComputationError(f"no bound at p = {p}")

    monkeypatch.setenv("REPEATCAP_THREADS", "1")
    monkeypatch.setattr(bounds, "_optimize", fail)
    code, out, _ = run_cli(capsys, "verify", "--only", "T1")
    assert code == 1
    fails = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert len(fails) == 20
    assert fails[0].endswith("  [BoundComputationError: no bound at p = 0.05]")


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "T2", "--json", "--no-meta")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_passed"] is True
    assert len(obj["checks"]) == 9
    assert "meta" not in obj


def test_verify_checksum_tamper_exits_3(capsys, monkeypatch):
    import repeatcap.tables as tables

    monkeypatch.setattr(tables, "TABLES_SHA256", "0" * 64)
    code, _, err = run_cli(capsys, "verify", "--only", "T2")
    assert code == 3
    assert "checksum" in err


def test_verify_detects_wrong_table_value(capsys, monkeypatch):
    # valid checksum over tampered data, so only the value comparison trips
    import repeatcap.tables as tables

    rows = list(tables.T2_DUPLICATION.rows)
    first = list(rows[0])
    first[3] = first[3] + 0.01
    rows[0] = tuple(first)
    tampered = dataclasses.replace(tables.T2_DUPLICATION, rows=tuple(rows))
    monkeypatch.setattr(tables, "T2_DUPLICATION", tampered)
    monkeypatch.setattr(
        tables, "ALL_TABLES", (tables.T1_STICKY, tampered, tables.T3_GEOMDEL)
    )
    monkeypatch.setattr(tables, "TABLES_SHA256", tables.checksum())
    code, out, _ = run_cli(capsys, "verify", "--only", "T2")
    assert code == 1
    fails = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert len(fails) == 1
    assert "0.1" in fails[0]


def test_klgap_sticky_gaps_vanish(capsys):
    code, out, _ = run_cli(
        capsys, "klgap", "--family", "sticky", "--p", "0.3", "--q", "0.6",
        "--x-max", "10",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "gap_nats"]
    assert len(rows) == 12
    assert rows[-1][0] == "limit"
    for r in rows[1:-1]:
        assert abs(float(r[1])) < 1e-6
    assert float(rows[-1][1]) == 0.0


@pytest.mark.parametrize("family", ("sticky", "geomdel"))
def test_klgap_at_small_p(capsys, family):
    # At p = 0.05 the 40-stddev cut of Y_1 leaves a Chernoff tail bound of
    # 5.9e-12; the support extends instead of failing.
    code, out, _ = run_cli(
        capsys, "klgap", "--family", family, "--p", "0.05", "--q", "0.5",
        "--x-max", "5",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 7
    if family == "sticky":
        for r in rows[1:-1]:
            assert abs(float(r[1])) <= 1e-6


def test_klgap_does_not_depend_on_q(capsys):
    # At q = 1 - 1e-7 the dual's series is refused upfront; the gap profile
    # is q-free, so the CSV is the one printed at q = 0.5.
    outs = []
    for q in ("0.5", "0.9999999"):
        code, out, _ = run_cli(
            capsys, "klgap", "--family", "geomdel", "--p", "0.6", "--q", q,
            "--x-max", "4",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_klgap_builds_no_dual(capsys, monkeypatch):
    # The CSV is the q-free gap scan under the delta rule: --q is optional
    # and no dual is ever built.
    with_q = run_cli(
        capsys, "klgap", "--family", "geomdel", "--p", "0.6", "--q", "0.5", "--x-max", "4"
    )

    def refuse(*args, **kwargs):
        raise AssertionError("build_dual called")

    # bounds binds build_dual at import, so both names are patched
    monkeypatch.setattr(duals, "build_dual", refuse)
    monkeypatch.setattr(bounds, "build_dual", refuse)
    for family in ("geomdel", "sticky"):
        code, out, _ = run_cli(capsys, "klgap", "--family", family, "--p", "0.6", "--x-max", "4")
        assert code == 0
        assert [r[0] for r in csv.reader(io.StringIO(out))] == ["x", "1", "2", "3", "4", "limit"]
        if family == "geomdel":
            assert out == with_q[1]


def test_klgap_rejects_q_outside_the_unit_interval(capsys):
    code, _, err = run_cli(capsys, "klgap", "--family", "sticky", "--p", "0.5", "--q", "1.5")
    assert code == 2 and "q must be in (0, 1)" in err


def test_klgap_trunc_delta_one_equals_remainder(capsys):
    code, out, _ = run_cli(
        capsys, "klgap", "--family", "geomdel", "--p", "0.3", "--q", "0.6",
        "--variant", "trunc", "--delta-rule", "one", "--x-max", "3",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    gaps = {r[0]: float(r[1]) for r in rows[1:]}
    assert abs(gaps["1"] - R_P[(1, 0.3)]) < 1e-9
    assert abs(gaps["3"] - R_P[(3, 0.3)]) < 1e-9


def test_klgap_geomdel_defaults_to_conv_recommended(capsys):
    code, out, _ = run_cli(
        capsys, "klgap", "--family", "geomdel", "--p", "0.6", "--q", "0.6",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[-1][0] == "limit"
    want = 0.5 - 0.4 * math.log(deletion_delta(0.6, "conv"))
    assert abs(float(rows[-1][1]) - want) <= 1e-12


def test_klgap_x_max_one(capsys):
    code, out, _ = run_cli(
        capsys, "klgap", "--family", "duplication", "--p", "0.2", "--q", "0.5",
        "--x-max", "1",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[0] for r in rows[1:]] == ["1", "limit"]


def test_klgap_sticky_rejects_delta_rule(capsys):
    code, _, err = run_cli(
        capsys, "klgap", "--family", "sticky", "--p", "0.3", "--q", "0.6",
        "--delta-rule", "d",
    )
    assert code == 2
    assert err.strip() != ""


def test_klgap_rejects_x_max_zero_before_any_delta(capsys, monkeypatch):
    def no_delta(*args):
        raise AssertionError("delta computed before the x_max check")

    monkeypatch.setattr(bounds, "_delta", no_delta)
    for family in ("sticky", "geomdel"):
        code, out, err = run_cli(
            capsys, "klgap", "--family", family, "--p", "0.3", "--x-max", "0"
        )
        assert code == 2 and out == ""
        assert "x_max must be an integer >= 1, got 0" in err


def test_klgap_out_file(tmp_path, capsys):
    path = tmp_path / "gaps.csv"
    code, out, _ = run_cli(
        capsys, "klgap", "--family", "sticky", "--p", "0.5", "--q", "0.5",
        "--x-max", "2", "--out", str(path),
    )
    assert code == 0 and out == ""
    rows = list(csv.reader(io.StringIO(path.read_text())))
    assert rows[0] == ["x", "gap_nats"]


def test_bound_geomdel_default_at_tiny_p(capsys):
    # At p = 1e-4 trunc (4.64e-5 bits) beats conv (6.01e-5 bits).
    code, out, _ = run_cli(capsys, "bound", "--family", "geomdel", "--p", "1e-4", "--no-meta")
    assert code == 0
    assert json.loads(out)["variant"] == "GeomDelTrunc"


def test_simulate_json_and_determinism(capsys):
    args = (
        "simulate", "--n", "50", "--lambda", "100", "--trials", "5",
        "--seed", "3", "--no-meta",
    )
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 50 and obj["lambda"] == 100.0 and obj["trials"] == 5
    assert obj["epsilon"] == 0.1
    assert "reports" not in obj
    assert "success_rate" in err
    code2, out2, _ = run_cli(capsys, *args)
    assert out2 == out
    code3, out3, _ = run_cli(capsys, *args[:-1])
    meta = json.loads(out3).pop("meta")
    assert code3 == 0 and meta["tool"] == "repeatcap"
    assert "version" in meta and "timestamp" in meta


def test_simulate_verbose_reports(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "10", "--lambda", "50", "--trials", "3",
        "--seed", "1", "--verbose", "--no-meta",
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["reports"]) == 3


def test_simulate_bad_lambda_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--n", "10", "--lambda", "0", "--trials", "1",
        "--seed", "0",
    )
    assert code == 2
    assert "lambda" in err


def test_simulate_negative_seed_names_the_field(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--n", "10", "--lambda", "5", "--trials", "1",
        "--seed", "-1",
    )
    assert code == 2 and out == ""
    assert err == "error: seed must be a non-negative integer, got -1\n"


def test_config_file_supplies_values(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "sticky", "p": 0.05}))
    code, out, _ = run_cli(capsys, "bound", "--config", str(cfg))
    assert code == 0
    assert abs(json.loads(out)["bound_bits"] - 0.814464) < 1e-5


def test_config_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "sticky", "p": 0.05}))
    code, out, _ = run_cli(capsys, "bound", "--config", str(cfg), "--p", "0.2")
    assert code == 0
    assert abs(json.loads(out)["bound_bits"] - 0.583611) < 1e-5


def test_config_aliases(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(
        {"n": 10, "lambda": 60.0, "eps": 0.2, "trials": 2, "seed": 0}
    ))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--no-meta")
    assert code == 0
    obj = json.loads(out)
    assert obj["lambda"] == 60.0 and obj["epsilon"] == 0.2


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"family": "sticky", "p": 0.05, "warp": 9}))
    code, _, err = run_cli(capsys, "bound", "--config", str(cfg))
    assert code == 2
    assert "warp" in err


def test_config_non_dict_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "bound", "--config", str(cfg))
    assert code == 2


def test_config_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "bound", "--config", str(tmp_path / "absent.json")
    )
    assert code == 2


def test_threads_env_parallel_path(capsys, monkeypatch):
    monkeypatch.setenv("REPEATCAP_THREADS", "2")
    code, out, _ = run_cli(capsys, "verify", "--only", "T2")
    assert code == 0
    assert "9 passed" in out


@pytest.mark.parametrize("threads", ["0", "two", "1.5", ""])
def test_threads_env_not_a_positive_integer_exits_2(capsys, monkeypatch, threads):
    monkeypatch.setenv("REPEATCAP_THREADS", threads)
    code, out, err = run_cli(capsys, "verify", "--only", "T2")
    assert code == 2 and out == ""
    assert err == "error: REPEATCAP_THREADS must be a positive integer\n"


@pytest.mark.parametrize("argv, message", [
    (("sweep", "--family", "sticky", "--p-start", "0.1", "--p-end", "0.3", "--steps", "1"),
     "steps must be >= 2, got 1"),
    (("sweep", "--family", "sticky", "--p", "0.3", "--emit-inner", "--q-points", "1"),
     "q_points must be >= 2, got 1"),
    (("klgap", "--family", "sticky", "--p", "0.3", "--variant", "conv"),
     "--variant only applies to the geomdel family"),
])
def test_out_of_range_options_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_config_family_outside_the_choices_exits_2(tmp_path, capsys):
    # argparse checks choices on flags only, not on config defaults
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "bogus", "p": 0.3}))
    code, out, err = run_cli(capsys, "bound", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "unknown family 'bogus' (choose from [" in err


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_config_numbers_parse_like_flag_text(tmp_path, capsys):
    # A JSON string or number reaches the flag's type as text: "0.1" for
    # --p-start gives the CSV the flags give, and a non-integer steps is a
    # usage error naming the flag, not a crash.
    flags = ("--family", "sticky", "--p-start", "0.1", "--p-end", "0.3", "--steps", "3")
    _, want, _ = run_cli(capsys, "sweep", *flags)
    cfg = tmp_path / "run.json"
    base = {"family": "sticky", "p_start": "0.1", "p_end": 0.3}
    cfg.write_text(json.dumps({**base, "steps": 3}))
    assert run_cli(capsys, "sweep", "--config", str(cfg))[:2] == (0, want)
    for steps in (3.0, 2.5):
        cfg.write_text(json.dumps({**base, "steps": steps}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2 and out == ""
        assert f"argument --steps: invalid int value: '{steps}'" in err


@pytest.mark.parametrize("command, key, value", [
    ("sweep", "steps", [3]),
    ("bound", "p", {"value": 0.3}),
    ("verify", "only", "T2"),
])
def test_config_value_of_the_wrong_kind_exits_2(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2 and out == ""
    assert repr(key) in err and "Traceback" not in err


def test_config_list_items_parse_like_flag_text(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"only": ["T2", 2]}))
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "unknown table selector(s): ['2']" in err


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_verify_refuses_a_bad_tolerance_before_computing(tolerance, capsys, monkeypatch):
    from repeatcap import bounds

    def forbidden(*args, **kwargs):
        raise AssertionError("a bound was computed")

    monkeypatch.setattr(bounds, "evaluate_points", forbidden)
    code, out, err = run_cli(capsys, "verify", "--only", "T2", "--json", "--tolerance", tolerance)
    assert code == 2 and out == ""
    assert "tolerance must be finite and >= 0" in err


def test_verify_json_reports_a_zero_tolerance(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "T2", "--json", "--tolerance", "0")
    obj = json.loads(out)
    assert code == 1 and not obj["all_passed"]
    assert obj["meta"]["tolerances"] == {"tolerance": 0.0}
    assert {c["tolerance"] for c in obj["checks"]} == {0.0}


def test_bound_metadata_reads_the_solver_tolerances(capsys):
    from repeatcap import bounds

    code, out, _ = run_cli(capsys, "bound", "--family", "sticky", "--p", "0.3")
    assert code == 0
    assert json.loads(out)["meta"]["tolerances"] == {
        "q_opt": bounds._Q_OPT_TOL, "newton_log_q": bounds._NEWTON_REL,
        "series_rel": numerics._SERIES_REL_TOL,
    } == bounds.SOLVER_TOLERANCES


def test_repeated_flag_replaces_a_config_list(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"only": ["T1"]}))
    for flags, table in ((("--only", "T2"), "T2_duplication"), ((), "T1_sticky")):
        code, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--json",
                               "--no-meta", *flags)
        assert code in (0, 1)
        assert {c["table_id"] for c in json.loads(out)["checks"]} == {table}


# Each subcommand's flag destinations at their documented defaults.
_DOCUMENTED_DEFAULTS = {
    "bound": {"family": None, "p": None, "variant": "auto"},
    "sweep": {"family": None, "variant": "auto", "p_start": None, "p_end": None,
              "steps": None, "out": None, "emit_inner": False, "p": None,
              "q_points": 199},
    "verify": {"only": [], "tolerance": None, "json": False},
    "klgap": {"family": None, "p": None, "q": None, "delta_rule": None,
              "variant": None, "x_max": 50, "out": None},
    "simulate": {"n": None, "lam": None, "epsilon": 0.1, "trials": 100, "seed": 0,
                 "input_source": "uniform_random", "input_bits": None,
                 "verbose": False},
}


@pytest.mark.parametrize("argv", [
    ("bound", "--family", "sticky", "--p", "0.3"),
    ("sweep", "--family", "sticky", "--p", "0.3", "--emit-inner"),
    ("verify", "--only", "T2", "--json"),
    ("klgap", "--family", "sticky", "--p", "0.3"),
    ("simulate", "--n", "20", "--lambda", "100", "--trials", "3"),
], ids=lambda argv: argv[0])
def test_config_of_documented_defaults_changes_nothing(tmp_path, capsys, argv):
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps(
        {**_DOCUMENTED_DEFAULTS[argv[0]], "nats": False, "no_meta": False}
    ))
    plain = run_cli(capsys, *argv, "--no-meta")
    assert plain[0] == 0
    assert run_cli(capsys, *argv, "--no-meta", "--config", str(cfg)) == plain
