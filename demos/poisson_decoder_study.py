"""Success rate of the run-length decoder as replication mean grows.

Each input bit is replaced by Poisson(lambda) copies; the decoder rewrites
each output run of length L as round(L / lambda) copies.  As lambda grows
the decode becomes exact with high probability, so the success rate climbs
to 1: replication noise does not pin this channel's capacity away from
1 bit.  Contrast the geometric deletion channel: its upper bound is
0.338927 bits at p = 0.99 (T3's delta-d column; see
demos/table_reproduction.py).

Usage: python3 demos/poisson_decoder_study.py [trials]
"""

from __future__ import annotations

import sys

from repeatcap.simulate import SimConfig, run_monte_carlo

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 100
n = 1000
print(f"n = {n} input bits, epsilon = 0.1, {trials} trials per lambda\n")
print(f"{'lambda':>8} {'success':>8} {'mean ED':>8} {'mean |Y|':>10}")
for lam in (2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0):
    config = SimConfig(n=n, lam=lam, epsilon=0.1, trials=trials, seed=0)
    rate, reports = run_monte_carlo(config)
    mean_ed = sum(r.edit_distance for r in reports) / trials
    mean_len = sum(r.output_length for r in reports) / trials
    print(f"{lam:>8.0f} {rate:>8.2f} {mean_ed:>8.1f} {mean_len:>10.0f}")
