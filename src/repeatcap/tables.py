"""Embedded reference tables of published capacity bounds, in bits/channel use.

Three tables are carried verbatim as printed (including their rounding):

    T1_sticky:      geometric sticky channel; prior numerical lower/upper
                    bounds next to the analytical bound this package computes.
    T2_duplication: elementary duplication channel; prior numerical bounds
                    next to the analytical bound.  Entries printed as ">1"
                    are stored as None in the ``ours`` column (the analytical
                    value exceeds the trivial 1 bit cap there).
    T3_geomdel:     geometric deletion channel; the prior deletion-channel
                    upper bound next to the analytical bound.  The ``ours``
                    column is the better of the convexity and truncated
                    constructions; ``ours_delta_d`` carries the alternative
                    delta = 1-p value where printed (large p), else None.

The tables are verification targets, not inputs to any computation.  A
SHA-256 checksum over a canonical serialization is frozen here so that
accidental edits are caught by the verifier.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repeatcap.channels import Family


@dataclass(frozen=True)
class ReferenceTable:
    """A published table: one row per p, column names aligned with values.

    family is the channel the table bounds.  Row p values are strictly
    increasing; a None value means the table printed a non-numeric marker
    there (see module docstring).
    """

    table_id: str
    family: Family
    columns: tuple[str, ...]
    rows: tuple[tuple[float | None, ...], ...]

    def __post_init__(self) -> None:
        ps = [row[0] for row in self.rows]
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise ValueError(f"{self.table_id}: p values must be strictly increasing")
        if any(len(row) != len(self.columns) + 1 for row in self.rows):
            raise ValueError(f"{self.table_id}: row width does not match columns")

    def value(self, p: float, column: str) -> float | None:
        idx = self.columns.index(column) + 1
        for row in self.rows:
            if row[0] == p:
                return row[idx]
        raise KeyError(f"{self.table_id}: no row for p = {p}")


T1_STICKY = ReferenceTable(
    table_id="T1_sticky",
    family=Family.GEOMETRIC_STICKY,
    columns=("prior_lower", "prior_upper", "ours"),
    rows=(
        (0.05, 0.814457, 0.814464, 0.814464),
        (0.10, 0.714096, 0.714114, 0.714114),
        (0.15, 0.640901, 0.643267, 0.640930),
        (0.20, 0.583575, 0.583611, 0.583611),
        (0.25, 0.537038, 0.537076, 0.537076),
        (0.30, 0.498427, 0.498463, 0.498463),
        (0.35, 0.465925, 0.465957, 0.465957),
        (0.40, 0.438291, 0.438318, 0.438318),
        (0.45, 0.414637, 0.414659, 0.414660),
        (0.50, 0.394311, 0.394331, 0.394333),
        (0.55, 0.376821, 0.376849, 0.376855),
        (0.60, 0.361775, 0.361794, 0.361875),
        (0.65, 0.348491, 0.348575, 0.349152),
        (0.70, 0.336593, 0.336946, 0.338551),
        (0.75, 0.325900, 0.326678, 0.330062),
        (0.80, 0.316257, 0.317317, 0.323856),
        (0.85, 0.307560, 0.308767, 0.320448),
        (0.90, 0.299601, 0.300952, 0.321210),
        (0.95, 0.292373, 0.293788, 0.330824),
        (0.99, 0.287036, 0.288476, 0.368459),
    ),
)

T2_DUPLICATION = ReferenceTable(
    table_id="T2_duplication",
    family=Family.ELEMENTARY_DUPLICATION,
    columns=("prior_lower", "prior_upper", "ours"),
    rows=(
        (0.1, 0.7405, 0.7406, 0.7406),
        (0.2, 0.6611, 0.6618, 0.6611),
        (0.3, 0.6400, 0.6404, 0.6419),
        (0.4, 0.6488, 0.6499, 0.6625),
        (0.5, 0.6788, 0.6797, 0.7182),
        (0.6, 0.7273, 0.7277, 0.8126),
        (0.7, 0.7914, 0.7915, 0.9553),
        (0.8, 0.8674, 0.8675, None),
        (0.9, 0.9469, 0.9479, None),
    ),
)

T3_GEOMDEL = ReferenceTable(
    table_id="T3_geomdel",
    family=Family.GEOMETRIC_DELETION,
    columns=("prior_upper", "ours", "ours_delta_d"),
    rows=(
        (0.05, 0.021, 0.021244, None),
        (0.10, 0.041, 0.041352, None),
        (0.15, 0.062, 0.061242, None),
        (0.20, 0.082, 0.076981, None),
        (0.25, 0.103, 0.091134, None),
        (0.30, 0.123, 0.104846, None),
        (0.35, 0.144, 0.119552, None),
        (0.40, 0.165, 0.135271, None),
        (0.45, 0.187, 0.151342, None),
        (0.50, 0.212, 0.168074, None),
        (0.55, 0.241, 0.186588, None),
        (0.60, 0.275, 0.204186, None),
        (0.65, 0.315, 0.234480, None),
        (0.70, 0.362, 0.262103, None),
        (0.75, 0.420, 0.269490, None),
        (0.80, 0.491, 0.271810, None),
        (0.85, 0.579, 0.270561, None),
        (0.90, 0.689, 0.275250, 0.310823),
        (0.95, 0.816, 0.337581, 0.326424),
        (0.99, 0.963, 0.769416, 0.338927),
    ),
)

ALL_TABLES = (T1_STICKY, T2_DUPLICATION, T3_GEOMDEL)

# sha256 of canonical_serialization(), frozen when the data was entered.
TABLES_SHA256 = "e5283ee3b69b3215a5f43eb0b4179b0b3d5952eea5a64e2438e70b93f55b2c12"


def canonical_serialization() -> str:
    """Stable text form of every table, used for the integrity checksum."""
    lines = []
    for table in ALL_TABLES:
        lines.append(table.table_id + ":" + ",".join(table.columns))
        for row in table.rows:
            lines.append(",".join("-" if v is None else repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def checksum() -> str:
    return hashlib.sha256(canonical_serialization().encode("ascii")).hexdigest()


def verify_integrity() -> bool:
    """True when the embedded data still hashes to the frozen checksum."""
    return checksum() == TABLES_SHA256
