"""Monte Carlo study of the Poisson repeat channel with run-length decoding.

Each input bit x_i is replaced by L_i independent Poisson(lambda) copies of
itself; L_i = 0 deletes the bit.  The decoder sees only the concatenated
output, splits it into maximal runs, and rewrites each run of length L as
round(L / lambda) copies of its bit value.  Since a run of j input bits
produces Poisson(j * lambda) output symbols, concentrated within
O(sqrt(j * lambda)) of its mean, the rounding recovers j exactly once
lambda is large against the squared number of runs affected, and the edit
distance between input and decode drops below any fixed fraction of n.
A trial succeeds when ED(x, decode) <= epsilon * n.

Trials draw independent RNG streams spawned from a single seed, so results
are reproducible and do not depend on how trials are grouped.
run_monte_carlo takes the trials _CHUNK at a time.  It draws each trial's
input and Poisson counts and decodes straight from the counts, without
building the channel output (sample_channel_output and run_length_decode
give the same decode from that output); the decode comes with the cost of
one explicit alignment, which bounds the trial's edit distance.  Then one
numpy kernel, _edit_distances, runs a banded Myers bit-parallel edit
distance for all of the chunk's trials in lockstep, stepping only the
words within that bound of the diagonal.  edit_distance stays the
single-pair function for any symbols; it is faster than the kernel for
one pair.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

INPUT_SOURCES = ("uniform_random", "all_alternating", "user_supplied")

# Trials the edit-distance kernel steps together; bounds its memory.
_CHUNK = 128


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one Monte Carlo run.

    n is the input length in bits, lam the Poisson replication mean,
    epsilon the allowed edit-distance fraction, input_bits the fixed input
    when input_source is user_supplied (length must equal n).
    """

    n: int
    lam: float
    epsilon: float
    trials: int
    seed: int
    input_source: str = "uniform_random"
    input_bits: str | None = None


@dataclass(frozen=True)
class TrialReport:
    """Outcome of a single trial; success means edit_distance <= epsilon*n."""

    edit_distance: int
    output_length: int
    success: bool


def _as_bit_array(bits) -> np.ndarray:
    if isinstance(bits, str):
        arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        arr = np.asarray(bits, dtype=np.uint8)
    if arr.size and not np.all(arr <= 1):
        raise ValueError("input bits must be 0 or 1")
    return arr


def _like(arr: np.ndarray, template) -> str | np.ndarray:
    if isinstance(template, str):
        return (arr + ord("0")).tobytes().decode("ascii")
    return arr


def _validate_lambda(lam: float, n: int = 1) -> None:
    """The one rule for lambda: positive, with n * lam, the mean output
    length of n input bits, below 2**62 so an int64 count holds it (which
    rejects inf and NaN too)."""
    if not 0.0 < lam * n < 2.0**62:
        raise ValueError(f"lambda must be positive with n * lambda < 2**62, got {lam}")


def validate_config(config: SimConfig) -> None:
    for name in ("n", "trials"):
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    _validate_lambda(config.lam, config.n)
    if not 0.0 < config.epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {config.epsilon}")
    if config.input_source not in INPUT_SOURCES:
        raise ValueError(f"unknown input_source {config.input_source!r}")
    if config.input_source == "user_supplied":
        if config.input_bits is None:
            raise ValueError("user_supplied input_source requires input_bits")
        bits = _as_bit_array(config.input_bits)
        if bits.size != config.n:
            raise ValueError(
                f"input_bits length {bits.size} does not match n = {config.n}"
            )
    elif config.input_bits is not None:
        raise ValueError("input_bits is only valid with input_source=user_supplied")


def sample_channel_output(x_bits, lam: float, rng) -> str | np.ndarray:
    """Concatenation of L_i copies of each x_i, L_i i.i.d. Poisson(lam).

    rng needs a poisson(lam, size) method; numpy Generators qualify (they
    switch between sequential inversion and transformed rejection with the
    mean, which covers lam from 0 to the hundreds used here).
    """
    arr = _as_bit_array(x_bits)
    _validate_lambda(lam, max(arr.size, 1))
    counts = rng.poisson(lam, arr.size)
    return _like(np.repeat(arr, counts), x_bits)


def run_length_decode(y_bits, lam: float) -> str | np.ndarray:
    """Rewrite each maximal run of length L as round(L / lam) copies.

    Rounding is half-up (2.5 -> 3); runs rounding to 0 vanish.  Empty
    input decodes to empty output.
    """
    _validate_lambda(lam)
    arr = _as_bit_array(y_bits)
    if arr.size == 0:
        return _like(arr, y_bits)
    starts = np.concatenate([[0], np.flatnonzero(np.diff(arr)) + 1])
    decoded, _ = _decode_runs(arr[starts], lam, np.diff(starts, append=arr.size))
    return _like(decoded, y_bits)


def _decode_runs(bits: np.ndarray, lam: float, counts: np.ndarray) -> tuple[np.ndarray, int]:
    """The run-length decode of bits, each bits[i] standing for counts[i]
    channel outputs, and an upper bound on its edit distance from bits.

    Symbols with count 0 vanish, so the runs are those of the output
    np.repeat(bits, counts); each run of total count L becomes
    round(L / lam) copies of its bit, rounded half-up.  Reading the counts
    directly decodes a trial without building its output.

    The bound is the cost of one alignment.  Each run, c copies of bit b,
    is aligned with the span S of bits from just past the previous run's
    last kept symbol to its own, the last span running to the end.  If S
    holds s copies of b, that costs max(|S|, c) - min(c, s).  With nothing
    kept, the bound is len(bits).
    """
    kept = np.flatnonzero(counts > 0)
    if kept.size == 0:
        return bits[:0], bits.size
    ends = kept[np.append(np.flatnonzero(np.diff(bits[kept])), -1)]
    copies = np.floor(np.diff(np.cumsum(counts)[ends], prepend=0) / lam + 0.5).astype(np.int64)
    run_bits = bits[ends]
    ends[-1] = bits.size - 1
    span = np.diff(ends, prepend=-1)
    ones = np.diff(np.cumsum(bits, dtype=np.int64)[ends], prepend=0)
    same = np.where(run_bits == 1, ones, span - ones)
    bound = int((np.maximum(span, copies) - np.minimum(copies, same)).sum())
    return np.repeat(run_bits, copies).astype(np.uint8), bound


def edit_distance(a, b) -> int:
    """Unit-cost Levenshtein distance between two sequences.

    Bit-parallel column algorithm: the pattern's delta vector is packed
    into one big integer, so a text step costs a handful of word-wide
    bit operations instead of a DP row.  Works for any hashable symbols,
    not just bits.  Memory is one integer of len(a) bits.
    """
    if isinstance(a, np.ndarray):
        a = a.tolist()
    if isinstance(b, np.ndarray):
        b = b.tolist()
    if len(a) > len(b):
        a, b = b, a
    m = len(a)
    if m == 0:
        return len(b)
    masks: dict = {}
    bit = 1
    for c in a:
        masks[c] = masks.get(c, 0) | bit
        bit <<= 1
    full = (1 << m) - 1
    high = 1 << (m - 1)
    pv = full
    mv = 0
    score = m
    for c in b:
        eq = masks.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (full ^ (xh | pv))
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = ((ph << 1) | 1) & full
        mh = (mh << 1) & full
        pv = mh | (full ^ (xv | ph))
        mv = ph & xv
    return score


def _edit_distances(xs, decoded, bands=None) -> np.ndarray:
    """edit_distance(xs[i], decoded[i]) for every i, as an int64 array.

    Bits only, and every xs[i] has the same length n.  Myers' bit-parallel
    recurrence (J. ACM 46(3), 1999) with xs[i] as the pattern, run by
    _lockstep on up to _CHUNK trials at a time.  bands[i] >= the distance
    of pair i makes it exact; a chunk steps the band of its largest.  The
    default, max(n, len(decoded[i])), covers the whole matrix.  A distance
    above its band comes back too high, never too low.  Memory is
    O(_CHUNK * (n + longest text)) for any number of trials.
    """
    if bands is None:
        bands = [max(len(x), len(d)) for x, d in zip(xs, decoded)]
    return np.concatenate(
        [np.zeros(0, np.int64)]
        + [_lockstep(xs[lo:lo + _CHUNK], decoded[lo:lo + _CHUNK], max(bands[lo:lo + _CHUNK]))
           for lo in range(0, len(decoded), _CHUNK)]
    )


def _lockstep(xs, decoded, band) -> np.ndarray:
    """_edit_distances of at most _CHUNK trials, stepped together.

    The delta vectors live in (ceil(n / 64), trials) uint64 arrays, word 0
    holding positions 0-63, and one pass of the step loop (a few dozen
    numpy calls) advances every trial by one text symbol.  Columns run
    longest text first, so the trials still reading text are the first k
    columns, and k only shrinks.  A trial's match mask is P0 ^ sel, where
    P0 marks the pattern's zeros and sel is all ones if its symbol is 1.

    At text column j only the words [lo, hi) holding a row i with
    |i - j| <= band are stepped: a block whose inner axis is contiguous,
    sliding only up.  Additions carry across its words through a ripple
    loop that stops once no carry is left; shifts carry each word's top
    bit into the next.  Words below the window stay frozen.  The lowest
    stepped word takes Myers' block rule for a +1 horizontal delta at its
    top: no carry enters, ph shifts in 1 and mh 0 (carry_in's first row,
    reset when the window moves).  A word joins in its initial state.
    So every value is the cost of a real alignment path: it grows by one
    per column along a frozen word's last row, and by one per row through
    a word yet to join.  Such +1 edges are a legal DP boundary, on which
    Myers' formulas stay exact, so no value falls below the distance.  A
    path of cost D stays within |i - j| <= D (Ukkonen, Inf. Control 64,
    1985): if D <= band, an optimal path is stepped throughout, and the
    score is D.

    The score is read from the final column: D[n][J] = J + popcount(pv)
    - popcount(mv) over the pattern's bits, each frozen word as it stood
    when it froze, since its frozen edge adds one per column it skips.
    Bits above n - 1 are masked there; carries and shifts only move up,
    so they never reach the rows below them.
    """
    n = len(xs[0])
    lengths = np.array([len(d) for d in decoded])
    order = np.argsort(-lengths, kind="stable")
    lengths = np.append(lengths[order], 0)
    trials, words = len(order), -(-n // 64)
    p0 = np.zeros((trials, words), dtype="<u8")
    text = np.zeros((lengths[0], trials), dtype=np.uint8)
    for row, i in enumerate(order):
        packed = np.packbits(np.asarray(xs[i]) == 0, bitorder="little")
        p0.view(np.uint8)[row, : packed.size] = packed
        text[: lengths[row], row] = decoded[i]
    p0 = np.ascontiguousarray(p0.T)

    vectors = np.zeros((5, words, trials), dtype=np.uint64)  # eq, xv, xh, pv, mv
    vectors[3] = ~np.uint64(0)
    horizontal = np.empty((2, words, trials), dtype=np.uint64)  # ph, mh
    carry_in = np.zeros((2, words + 1, trials), dtype=np.uint64)
    carry = np.empty((words, trials), dtype=bool)
    sel = np.empty(trials, dtype=np.uint64)
    for k in range(trials, 0, -1):
        window, sel_k = None, sel[:k]
        for j in range(lengths[k], lengths[k - 1]):
            # bit rows j - band .. j + band of text column j + 1
            lo = min(max(j - band, 0), n - 1) // 64
            hi = min(j + band, n - 1) // 64 + 1
            if window != (lo, hi):
                window = lo, hi
                eq, xv, xh, pv, mv = vectors[:, lo:hi, :k]
                h = horizontal[:, lo:hi, :k]
                ph, mh = h
                p0_w, carry_w = p0[lo:hi, :k], carry[: hi - lo - 1, :k]
                cin = carry_in[:, lo:hi + 1, :k]
                cin[0, 0], cin[1, 0] = 1, 0
            np.negative(text[j, :k], out=sel_k, dtype=np.uint64)
            np.bitwise_xor(p0_w, sel_k, out=eq)
            np.bitwise_or(eq, mv, out=xv)
            # xh = (((eq & pv) + pv) ^ pv) | eq, the sum carried across words
            np.bitwise_and(eq, pv, out=xh)
            np.add(xh, pv, out=xh)
            c = np.less(xh[:-1], pv[:-1], out=carry_w)
            for w in range(1, hi - lo):
                upper = xh[w:]
                upper += c
                c = (c & (upper == 0))[:-1]
                if not c.any():
                    break
            np.bitwise_xor(xh, pv, out=xh)
            np.bitwise_or(xh, eq, out=xh)
            # ph = mv | ~(xh | pv), mh = pv & xh
            np.bitwise_or(xh, pv, out=ph)
            np.invert(ph, out=ph)
            np.bitwise_or(ph, mv, out=ph)
            np.bitwise_and(pv, xh, out=mh)
            # ph = (ph << 1) | carry, mh = (mh << 1) | carry
            np.right_shift(h, 63, out=cin[:, 1:])
            np.left_shift(h, 1, out=h)
            np.bitwise_or(h, cin[:, :-1], out=h)
            # pv = mh | ~(xv | ph), mv = ph & xv
            np.bitwise_or(xv, ph, out=pv)
            np.invert(pv, out=pv)
            np.bitwise_or(pv, mh, out=pv)
            np.bitwise_and(ph, xv, out=mv)
    vectors[3:, -1] &= np.uint64((1 << (n - 64 * (words - 1))) - 1)
    up, down = np.bitwise_count(vectors[3:]).sum(axis=1, dtype=np.int64)
    out = np.empty(trials, dtype=np.int64)
    out[order] = lengths[:-1] + up - down
    return out


def _input_bits(config: SimConfig, rng) -> np.ndarray:
    if config.input_source == "uniform_random":
        return rng.integers(0, 2, config.n, dtype=np.uint8)
    if config.input_source == "all_alternating":
        return (np.arange(config.n, dtype=np.int64) & 1).astype(np.uint8)
    return _as_bit_array(config.input_bits)


def run_monte_carlo(config: SimConfig, *, rng_factory=None):
    """Run config.trials independent trials; returns (success_rate, reports).

    Each trial gets its own RNG stream spawned from SeedSequence(seed), so
    the run is deterministic in the config and trial outcomes do not depend
    on execution order.  rng_factory maps a SeedSequence to an rng and
    exists so tests can inject stub generators; default is numpy's.

    Each trial draws its input, then its Poisson counts, and is decoded
    from the counts; _CHUNK trials at a time are drawn, then measured
    together by _edit_distances, so the draws held at once do not grow
    with the trials.
    """
    validate_config(config)
    if rng_factory is None:
        rng_factory = np.random.default_rng
    reports = []
    threshold = config.epsilon * config.n
    children = np.random.SeedSequence(config.seed).spawn(config.trials)
    for lo in range(0, len(children), _CHUNK):
        xs, decoded, bands, lengths = [], [], [], []
        for child in children[lo:lo + _CHUNK]:
            rng = rng_factory(child)
            x = _input_bits(config, rng)
            counts = rng.poisson(config.lam, x.size)
            xs.append(x)
            decode, bound = _decode_runs(x, config.lam, counts)
            decoded.append(decode)
            bands.append(bound)
            lengths.append(int(counts.sum()))
        for dist, length in zip(_edit_distances(xs, decoded, bands).tolist(), lengths):
            reports.append(
                TrialReport(
                    edit_distance=dist,
                    output_length=length,
                    success=bool(dist <= threshold),
                )
            )
    success_rate = sum(r.success for r in reports) / len(reports)
    return success_rate, reports
