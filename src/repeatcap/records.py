"""Machine-readable output records: CSV rows and JSON objects.

One record flattens a bound result, a table check, or a simulation report,
plus optional run metadata (tool version, tolerances, timestamp).  Bits
values are printed with 6 decimals in CSV; JSON keeps full float precision.
Emitted records parse back field-for-field (parse_bound_csv below), with
the convention that booleans serialize as true/false and missing numeric
cells as empty strings.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import io
import json
import operator

from repeatcap import __version__
from repeatcap.bounds import BoundResult, SweepFailure

KLGAP_CSV_HEADER = ("x", "gap_nats")


def run_metadata(tolerances: dict | None = None) -> dict:
    meta = {
        "tool": "repeatcap",
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if tolerances:
        meta["tolerances"] = dict(tolerances)
    return meta


def _bool_str(b: bool) -> str:
    return "true" if b else "false"


# The bound record's fields in column order: each key's BoundResult
# attribute (an operator.attrgetter path) and CSV cell formatter.
_BOUND_FIELDS = {
    "p": ("p", repr),
    "variant": ("variant.value", str),
    "bound_bits": ("bound_bits", "{:.6f}".format),
    "bound_nats": ("bound_nats", repr),
    "q_opt": ("q_opt", repr),
    "mu_opt": ("mu_opt", repr),
    "epsilon_used": ("epsilon_used", repr),
    "clamped": ("clamped_to_one", _bool_str),
}
BOUND_CSV_HEADER = tuple(_BOUND_FIELDS)


def bound_record(result: BoundResult) -> dict:
    """Ordered field dict for one bound result; keys match BOUND_CSV_HEADER."""
    return {key: operator.attrgetter(attr)(result) for key, (attr, _) in _BOUND_FIELDS.items()}


def bound_csv_row(result: BoundResult | SweepFailure, *, variant_label: str | None = None,
                  with_error: bool = False) -> list[str]:
    if isinstance(result, SweepFailure):
        label = variant_label or (result.variant.value if result.variant else "auto")
        row = [repr(result.p), label] + [""] * (len(BOUND_CSV_HEADER) - 2)
        error = result.message
    else:
        rec = bound_record(result)
        rec["variant"] = variant_label or rec["variant"]
        row = [fmt(rec[key]) for key, (_, fmt) in _BOUND_FIELDS.items()]
        error = ""
    return row + [error] if with_error else row


def write_csv(stream, header, rows) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _parse_cell(key: str, value: str):
    fmt = _BOUND_FIELDS.get(key, (None, str))[1]  # the error column is text
    if fmt is str:
        return value
    if value == "":
        return None
    return value == "true" if fmt is _bool_str else float(value)


def parse_bound_csv(text: str) -> list[dict]:
    """Inverse of the bound CSV emitter: typed dicts, one per data row."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return [
        {key: _parse_cell(key, cell) for key, cell in zip(header, row)}
        for row in reader
    ]


def bound_json(result: BoundResult, *, meta: dict | None = None) -> dict:
    obj = bound_record(result)
    if meta is not None:
        obj["meta"] = meta
    return obj


def simulation_json(
    config, success_rate: float, reports, *, verbose: bool = False,
    meta: dict | None = None,
) -> dict:
    obj = {
        "n": config.n,
        "lambda": config.lam,
        "epsilon": config.epsilon,
        "trials": config.trials,
        "seed": config.seed,
        "input_source": config.input_source,
        "success_rate": success_rate,
    }
    if verbose:
        obj["reports"] = [dataclasses.asdict(r) for r in reports]
    if meta is not None:
        obj["meta"] = meta
    return obj


def verification_json(verification, *, meta: dict | None = None) -> dict:
    obj = {
        "all_passed": verification.all_passed,
        # note, the last field, only where a computation failed
        "checks": [
            {k: v for k, v in dataclasses.asdict(c).items() if k != "note" or v}
            for c in verification.checks
        ],
    }
    if meta is not None:
        obj["meta"] = meta
    return obj


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, allow_nan=True) + "\n"
