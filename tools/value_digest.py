"""Digest of every value the Lambda layer feeds.

    PYTHONPATH=src python tools/value_digest.py > digest.json

Builds each of the 89 constructions of T1, T2 and T3 (one per row of T1
and T2, three per row of T3) cold and serially: the q-free caches are
emptied before each, so no construction reads a table another one built.
For each it prints the repr of bound_nats, q_opt, mu_opt and
epsilon_used, or the error a construction raised, and the SHA-256 of the
bytes of every S-table built for it.  The two near-one bounds that the
tests pin (sticky at p = 0.9999, deletion's best at p = 0.999) follow the
same way.  Last come the reprs of every Lambda view at fixed y (trunc's
at y = 0 and at non-integer y too) and of log_gamma_via_integral at four
z.  Two checkouts that compute the same values bit for bit print the same
text, so comparing them is one diff of two runs.
"""

from __future__ import annotations

import hashlib
import json
import sys

from repeatcap import bounds, duals, numerics, tables
from repeatcap.channels import Family

FIELDS = ("bound_nats", "q_opt", "mu_opt", "epsilon_used")
NEAR_ONE = ((Family.GEOMETRIC_STICKY, 0.9999), (Family.GEOMETRIC_DELETION, 0.999))
VIEWS = (duals.lambda1_sticky, duals.lambda2_sticky, duals.g_sticky,
         duals.lambdas_duplication, duals.g_duplication, duals.lambda_trunc_geomdel)
VIEW_PS = (1e-3, 0.3, 0.9)
VIEW_YS = (1.0, 2.0, 7.0, 100.0, 1024.0, 5000.0)
TRUNC_YS = (0.0, 0.5, 2.5) + VIEW_YS
LOG_GAMMA_ZS = (1e-3, 0.5, 3.5, 100.0)


def rows() -> list[tuple[tables.ReferenceTable, bounds.BoundVariant, float]]:
    """(table, construction, p) for every construction of every table."""
    return [(table, variant, row[0])
            for table in tables.ALL_TABLES
            for row in table.rows
            for variant in bounds.constructions(table.family)]


def _bound(family, variant, p) -> dict:
    """One construction's entry, computed cold."""
    duals.clear_caches()
    try:
        result = bounds.compute_bound(family, variant, p)
        entry = {name: repr(getattr(result, name)) for name in FIELDS}
    except bounds.BoundComputationError as exc:
        entry = {"error": str(exc)}
    entry["s_tables"] = {
        f"{kind.value}/{tp!r}/{built._vals.size}": hashlib.sha256(built._vals.tobytes()).hexdigest()
        for (kind, tp), built in duals._TABLES.items()
    }
    return entry


def digest(selected) -> dict:
    """The digest entry of each (table, construction, p), by
    'table id/construction/p'."""
    return {f"{table.table_id}/{variant.value}/{p!r}": _bound(table.family, variant, p)
            for table, variant, p in selected}


def near_one() -> dict:
    """The entry of each family's default bound in NEAR_ONE, by
    'near-one/family/p'."""
    return {f"near-one/{family.value}/{p!r}": _bound(family, None, p) for family, p in NEAR_ONE}


def views() -> dict:
    """The reprs of every Lambda view at VIEW_PS and its ys, by 'view/name/p',
    and of log_gamma_via_integral at LOG_GAMMA_ZS, by 'log_gamma_via_integral'."""
    out = {}
    for view in VIEWS:
        ys = TRUNC_YS if view is duals.lambda_trunc_geomdel else VIEW_YS
        for p in VIEW_PS:
            vals = view(list(ys), p)
            out[f"view/{view.__name__}/{p!r}"] = [
                [repr(x) for x in row.tolist()] for row in (vals if isinstance(vals, tuple) else (vals,))]
    out["log_gamma_via_integral"] = [repr(numerics.log_gamma_via_integral(z)) for z in LOG_GAMMA_ZS]
    return out


def main() -> int:
    json.dump({**digest(rows()), **near_one(), **views()}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
