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
numpy kernel, _edit_distances, measures all of the chunk's trials at once.
It splits each trial's text at its middle column (Hirschberg) and runs
the two halves, the second reversed from the end corner, through a
banded Myers bit-parallel recurrence in lockstep, stepping only the words
within that bound of each half's diagonal; the distance is the least sum
of the two halves' final columns over the middle column's rows.  A chunk
so takes about half as many sequential text steps as its longest text.
edit_distance stays the single-pair function for any symbols; for one
pair it is faster than the kernel (at n = 4000 on a 2-vCPU x86 machine,
about 12 ms against 55-70 ms).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

INPUT_SOURCES = ("uniform_random", "all_alternating", "user_supplied")

# Trials the edit-distance kernel steps together, as 256 lanes (each
# trial's two halves); bounds its memory.
_CHUNK = 128

# Trials whose final columns are read and combined at a time, so the int32
# columns held at once stay small (64 kB at n = 4000).
_READ = 2

# Text steps whose symbols _lockstep gathers at once.
_BLOCK = 32


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
        # a non-ASCII character becomes "?", which the check below rejects
        bits = np.frombuffer(bits.encode("ascii", errors="replace"), dtype=np.uint8) - ord("0")
    arr = np.asarray(bits)
    if arr.dtype == np.uint8:
        bad = arr.size and arr.max() > 1
    else:  # compared before the cast, which would truncate 0.5 or wrap 256 to a bit
        bad = not np.all((arr == 0) | (arr == 1))
    if bad:
        raise ValueError("input bits must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


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

    Bits only, and every xs[i] has the same length n.  _lockstep runs up to
    _CHUNK trials at a time, each split at the middle column of its text
    (Hirschberg, CACM 18(6), 1975), c = len(decoded[i]) // 2, into two
    lanes that each read about half of it: the first half forward (pattern
    x, text decoded[:c]) and the second reversed (x[::-1],
    decoded[c:][::-1]).  With F and B their final columns, the distance is
    min over r of F(r) + B(n - r).  Every alignment crosses column c at
    some row r, so the minimum is the distance when both columns are
    exact; and each F(r) + B(n - r) is the cost of a real alignment, one
    through (r, c), so it never reads low.

    bands[i] >= the distance of pair i makes it exact; a chunk steps the
    band of its largest.  Reaching a cell (i, j) costs at least |i - j|
    and leaving it for the end corner at least |(n - i) - (len - j)|, so
    an optimal alignment of cost D <= band keeps within the band of the
    start corner's diagonal, which the forward lane steps, and of the end
    corner's, which the reversed lane steps; both halves of it are
    stepped, and F and B are exact at the row where it crosses column c.
    The default band, max(n, len(decoded[i])), covers the whole matrix.
    A distance above its band comes back too high, never too low.  Memory
    is O(_CHUNK * (n + longest text)) for any number of trials.
    """
    if bands is None:
        bands = [max(len(x), len(d)) for x, d in zip(xs, decoded)]
    out = [np.zeros(0, np.int64)]
    for lo in range(0, len(decoded), _CHUNK):
        band = max(bands[lo:lo + _CHUNK])
        for forward, backward in _lockstep(xs[lo:lo + _CHUNK], decoded[lo:lo + _CHUNK], band):
            out.append((forward + backward[:, ::-1]).min(axis=1))
    return np.concatenate(out, dtype=np.int64)


def _lanes(xs, decoded):
    """The two lanes of every trial, trial i's forward half as lane 2i and
    its reversed second half as lane 2i + 1.

    Returns (p0, text, start, step, lengths): p0, (2k, ceil(n / 64)) words
    marking each lane pattern's zeros; text, the trials' texts joined end
    to end; and lane l's text is text[start[l] + step[l] * j] for
    j < lengths[l].
    """
    zeros = np.asarray(xs, dtype=np.uint8) == 0
    trials, n = zeros.shape
    p0 = np.zeros((trials, 2, 8 * -(-n // 64)), dtype=np.uint8)
    p0[:, 0, : -(-n // 8)] = np.packbits(zeros, axis=1, bitorder="little")
    p0[:, 1, : -(-n // 8)] = np.packbits(zeros[:, ::-1], axis=1, bitorder="little")
    lengths = np.array([len(d) for d in decoded], dtype=np.int64)
    ends = np.cumsum(lengths)
    return (
        p0.reshape(2 * trials, -1).view("<u8"),
        np.concatenate([np.zeros(0, np.uint8), *decoded]),
        np.stack([ends - lengths, ends - 1], axis=1).reshape(-1),
        np.tile(np.array([1, -1]), trials),
        np.stack([lengths // 2, lengths - lengths // 2], axis=1).reshape(-1),
    )


def _lockstep(xs, decoded, band):
    """Final columns of both halves of every trial (see _edit_distances),
    stepped together by Myers' bit-parallel recurrence (J. ACM 46(3),
    1999).

    Yields, for each group of _READ trials in order, (forward, backward):
    two int32 arrays whose row i is trial i's forward lane's final column
    D[r][J], r = 0..n, and its reversed lane's, J being the lane's text
    length.

    The delta vectors live in (ceil(n / 64), lanes) uint64 arrays, word 0
    holding positions 0-63, and one pass of the step loop (a few dozen
    numpy calls) advances every lane by one text symbol.  Columns run
    longest text first, so the lanes still reading text are the first k
    columns, and k only shrinks.  A lane's match mask is P0 ^ sel, where
    P0 marks the pattern's zeros and sel is all ones if its symbol is 1;
    the symbols of the next _BLOCK steps are gathered at once.

    At text column j only the words [lo, hi) holding a row i with
    |i - j| <= band are stepped: a block whose inner axis is contiguous,
    sliding only up.  Additions carry across its words through a ripple
    loop that stops once no carry is left; shifts carry each word's top
    bit into the next.  Words below the window stay frozen.  The lowest
    stepped word takes Myers' block rule for a +1 horizontal delta at its
    top: no carry enters, ph shifts in 1 and mh 0 (carry_in's first row,
    reset when the window moves).  A word joins in its initial state.
    So every value is the cost of a real alignment path: it grows by one
    per column along each row of a frozen word, and by one per row
    through a word yet to join.  Such +1 edges are a legal DP boundary,
    on which Myers' formulas stay exact, so no value falls below the true
    D[r][J].  A path of cost D stays within |i - j| <= D (Ukkonen, Inf.
    Control 64, 1985): if an optimal path to (r, J) costs at most band,
    it is stepped throughout, and D[r][J] is exact.

    The column is read from the deltas: D[r][J] = J + the number of pv
    bits minus the number of mv bits among rows 0..r - 1, each frozen
    word as it stood when it froze.  Carries and shifts only move up, so
    bits above n - 1 never reach the rows below them.
    """
    n = len(xs[0])
    p0, text, start, step, lengths = _lanes(xs, decoded)
    lanes, words = p0.shape
    order = np.argsort(-lengths, kind="stable")
    start, step, steps = start[order], step[order], np.append(lengths[order], 0)
    p0 = np.ascontiguousarray(p0[order].T)
    block = np.arange(_BLOCK)[:, None]

    # xv, eq then ph, xh then mh, pv, mv: ph and mh take the slots of eq and
    # xh once those are spent, and lie next to each other for the shifts
    vectors = np.zeros((5, words, lanes), dtype=np.uint64)
    vectors[3] = ~np.uint64(0)
    carry_in = np.zeros((2, words + 1, lanes), dtype=np.uint64)
    carry = np.empty((words, lanes), dtype=bool)
    sel = np.empty(lanes, dtype=np.uint64)
    for k in range(lanes, 0, -1):
        window, sel_k = None, sel[:k]
        for j in range(steps[k], steps[k - 1]):
            if j % _BLOCK == 0:  # clipped: past its end a lane's symbols go unread
                symbols = text.take(start[:k] + step[:k] * (block + j), mode="clip")
            # bit rows j - band .. j + band of text column j + 1
            lo = min(max(j - band, 0), n - 1) // 64
            hi = min(j + band, n - 1) // 64 + 1
            if window != (lo, hi):
                window = lo, hi
                xv, eq, xh, pv, mv = vectors[:, lo:hi, :k]
                h = vectors[1:3, lo:hi, :k]
                ph, mh = h
                p0_w, carry_w = p0[lo:hi, :k], carry[: hi - lo - 1, :k]
                cin = carry_in[:, lo:hi + 1, :k]
                cin[0, 0], cin[1, 0] = 1, 0
            np.negative(symbols[j % _BLOCK, :k], out=sel_k, dtype=np.uint64)
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
    rank = np.empty(lanes, dtype=np.intp)
    rank[order] = np.arange(lanes)
    for lo in range(0, lanes, 2 * _READ):
        rows = rank[lo:lo + 2 * _READ]
        pv, mv = np.unpackbits(
            np.ascontiguousarray(vectors[3:, :, rows].transpose(0, 2, 1), dtype="<u8").view(np.uint8),
            axis=2, count=n, bitorder="little").view(np.int8)
        column = np.zeros((rows.size, n + 1), dtype=np.int32)
        np.cumsum(pv - mv, axis=1, dtype=np.int32, out=column[:, 1:])
        column += lengths[lo:lo + 2 * _READ, None]
        yield column[0::2], column[1::2]


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
