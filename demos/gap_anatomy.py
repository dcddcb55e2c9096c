"""Show what makes each dual distribution tick, via its KL-gap profile.

Three exhibits:
  1. The sticky and duplication duals have zero gap at every input x, so
     their bound line touches the KL curve everywhere.
  2. The truncated deletion dual's gap equals the tail remainder R_p(x),
     decaying geometrically in x.
  3. The convexity deletion dual's gap Delta(x) is positive, dips at
     moderate x, and the mass-at-zero modification (delta rule) shifts it
     by -d log(delta) + d^x log(delta); the worst case over x is the
     epsilon the bound pays for.

Usage: python3 demos/gap_anatomy.py
"""

from __future__ import annotations

import math

from repeatcap.bounds import BoundVariant, deletion_delta
from repeatcap.channels import ConditionalOutputLaw, Family, RepeatChannel
from repeatcap.duals import DualVariant, build_dual, kl_divergence, kl_gap_profile, r_p

print("1. zero-gap duals (p = 0.3, q = 0.6), gaps in nats")
for family, variant in (
    (Family.GEOMETRIC_STICKY, DualVariant.STICKY_ZERO_GAP),
    (Family.ELEMENTARY_DUPLICATION, DualVariant.DUPLICATION_ZERO_GAP),
):
    channel = RepeatChannel(family, 0.3)
    dual = build_dual(variant, 0.3, 0.6)
    profile = kl_gap_profile(channel, dual, 8)
    gaps = "  ".join(f"{profile.gaps[x]:+.1e}" for x in range(1, 9))
    print(f"  {family.name:<22} x=1..8: {gaps}")

print("\n2. truncated deletion dual gap vs remainder R_p(x) (p = 0.5, q = 0.6)")
channel = RepeatChannel(Family.GEOMETRIC_DELETION, 0.5)
dual = build_dual(DualVariant.GEOMDEL_TRUNCATED, 0.5, 0.6)
profile = kl_gap_profile(channel, dual, 8)
print(f"  {'x':>3} {'gap':>12} {'R_p(x)':>12}")
for x in range(1, 9):
    print(f"  {x:>3} {profile.gaps[x]:>12.8f} {r_p(x, 0.5):>12.8f}")

print("\n3. convexity deletion dual, delta modification (p = 0.6, q = 0.7)")
p, q = 0.6, 0.7
d = 1.0 - p
channel = RepeatChannel(Family.GEOMETRIC_DELETION, p)
delta = deletion_delta(p, BoundVariant.GEOMDEL_CONV, "recommended")
print(f"  recommended delta = {delta:.6f}, d = {d}")
base = kl_gap_profile(channel, build_dual(DualVariant.GEOMDEL_CONVEXITY, p, q), 12)
mod_dual = build_dual(DualVariant.GEOMDEL_CONVEXITY, p, q, delta=delta)
mod = kl_gap_profile(channel, mod_dual, 12)
# "modified" sums D_KL(Y_x || modified dual) directly; "predicted" shifts
# the delta = 1 gap by -d log(delta) + d^x log(delta).
print(f"  {'x':>3} {'Delta(x)':>11} {'modified':>11} {'predicted shift':>16}")
for x in range(1, 13):
    direct = (
        mod.line_intercept
        + mod.line_slope * ConditionalOutputLaw(channel, x).mean
        - kl_divergence(channel, x, mod_dual)
    )
    predicted = base.gaps[x] - d * math.log(delta) + d**x * math.log(delta)
    print(f"  {x:>3} {base.gaps[x]:>11.6f} {direct:>11.6f} {predicted:>16.6f}")
worst = min(min(mod.gaps.values()), mod.limit_candidate)
print(f"  epsilon paid by the bound: inf over x of the modified gap = {worst:.6f}")
