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
one explicit alignment, which bounds the trial's edit distance.  Then
_edit_distances measures all of the chunk's trials at once on the
diagonals that an alignment within that bound can use (Ukkonen's cutoff
from both corners), by Myers' O(ND) greedy when they are few and
otherwise by a Myers bit-parallel lockstep that steps along both halves
of each trial's input, with the decode as the bit-parallel pattern.
edit_distance stays the single-pair function for any symbols; for one
pair it is faster than the lockstep (at n = 4000 on a 2-vCPU x86 machine,
about 7-13 ms against 23-48 ms).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

INPUT_SOURCES = ("uniform_random", "all_alternating", "user_supplied")

# Trials the edit-distance kernel steps together, as 256 lanes (each
# trial's two halves); bounds its memory.
_CHUNK = 128

# Trials whose crossing rows are read and combined at a time, so the arrays
# held at once stay small (under 0.5 MB for a 1 500-row band).
_READ = 4

# A chunk whose diagonal range is narrower than this goes to _greedy, a
# wider one to _lockstep: about where the two take equal time on 100
# trials at n = 4000 (lambda = 30, ranges of 156-162 diagonals; measured
# on a 2-vCPU x86 machine).
_GREEDY_WIDTH = 160

# 64-bit windows a cell that _greedy's first pass left matching compares
# per round.
_SLIDE = 16

# Carry rounds of _deltas' sum that run on every step; a chunk whose
# decodes hold longer runs of all-0 or all-1 words tests for a carry left
# before each further round.
_CARRY_ROUNDS = 2


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
    seed = config.seed
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
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

    Bits only, and every xs[i] has the same length n.  Up to _CHUNK trials
    at a time go to _greedy when their diagonal range [kmin, kmax] (below)
    has kmax - kmin < _GREEDY_WIDTH, and to _lockstep otherwise.

    _lockstep takes each trial's decode as the bit-parallel pattern and x
    as the text, and splits x at its middle column (Hirschberg, CACM
    18(6), 1975), c = n // 2, into two lanes that each read half of it:
    the first half forward (pattern decoded[i], text x[:c]) and the second
    reversed (decoded[i][::-1], x[c:][::-1]).  Every lane of a chunk so
    steps c or n - c columns together.  With F and B their final columns
    and len = len(decoded[i]), the distance is min over r of
    F(r) + B(len - r).  Every alignment crosses column c at some decode
    row r, so the minimum is the distance when both columns are exact
    there; and each F(r) + B(len - r) is the cost of a real alignment, one
    through (r, c), so it never reads low.

    bands[i] >= the distance of pair i makes it exact, whichever kernel
    runs.  Reaching a cell (i, j) costs at least |i - j| and leaving it
    for the end corner at least |(n - i) - (len - j)|, so an alignment of
    cost D passes only through cells whose diagonal k = i - j has
    |k| + |delta - k| <= D, delta = n - len (Ukkonen's cutoff, Inf.
    Control 64, 1985, taken from both corners): k lies in
    [(delta - D) / 2, (delta + D) / 2].  In the reversed lane the same
    cell lies on diagonal delta - k, which meets the same inequality, so
    one range serves both lanes.  A chunk steps the union of its trials'
    ranges, [kmin, kmax]; the lockstep reads F and B only at the decode
    rows where an optimal alignment can cross x's column c,
    c - r in [kmin, kmax].  The default band, max(n, len(decoded[i])), is
    at least every distance.  A distance above its band comes back too
    high, never too low.  Memory is O(_CHUNK * (n + longest decode)) for
    any number of trials.
    """
    if bands is None:
        bands = [max(len(x), len(d)) for x, d in zip(xs, decoded)]
    out = [np.zeros(0, np.int64)]
    for lo in range(0, len(decoded), _CHUNK):
        chunk = xs[lo:lo + _CHUNK], decoded[lo:lo + _CHUNK]
        delta = len(xs[0]) - np.array([len(d) for d in chunk[1]])
        band = np.asarray(bands[lo:lo + _CHUNK])
        kmin, kmax = int(((delta - band) // 2).min()), int(((delta + band) // 2).max())
        if kmax - kmin < _GREEDY_WIDTH:
            out.append(_greedy(*chunk, kmin, kmax))
            continue
        for forward, backward in _lockstep(*chunk, kmin, kmax):
            out.append((forward + backward).min(axis=1))
    return np.concatenate(out, dtype=np.int64)


def _packed(bits):
    """Each bit array as little-endian uint64 words of its own, and its first bit's offset."""
    words = np.array([-(-len(b) // 64) for b in bits], dtype=np.int64)
    start = np.cumsum(words) - words
    packed = np.zeros(8 * max(words.sum(), 1), dtype=np.uint8)
    for b, w in zip(bits, start):
        packed[8 * w: 8 * w + -(-len(b) // 8)] = np.packbits(b, bitorder="little")
    return packed.view("<u8"), 64 * start


def _matches(xw, tw, xpos, tpos, scratch):
    """Into scratch[0], how many bits in a row from bit xpos of xw on equal
    those from bit tpos of tw on, at most 64.  xpos and tpos are
    overwritten; scratch is four int64 arrays of their shape."""
    count, q, u, v = scratch
    u, v, tmp = u.view(np.uint64), v.view(np.uint64), count.view(np.uint64)
    for words, pos, out in (xw, xpos, u), (tw, tpos, v):
        # out = (word >> s) | ((next word << 1) << (63 - s)), s = pos % 64:
        # a shift by 64 would be out of range.  A position outside the words
        # reads the first or last word (mode clip); _greedy cuts every slide
        # at its diagonal's last row, so such bits go unused.
        np.right_shift(pos, 6, out=q)
        np.take(words, q, out=out, mode="clip")
        q += 1
        np.take(words, q, out=tmp, mode="clip")
        shift = np.bitwise_and(pos, 63, out=pos).view(np.uint64)
        np.right_shift(out, shift, out=out)
        np.left_shift(tmp, np.uint64(1), out=tmp)
        np.subtract(np.uint64(63), shift, out=shift)
        np.left_shift(tmp, shift, out=tmp)
        np.bitwise_or(out, tmp, out=out)
    # trailing zeros of w = u ^ v: the bits of ~w & (w - 1), 64 when u == v
    np.bitwise_xor(u, v, out=v)
    np.subtract(v, np.uint64(1), out=u)
    np.invert(v, out=v)
    np.bitwise_and(u, v, out=u)
    np.bitwise_count(u, out=count)


def _greedy(xs, decoded, kmin, kmax):
    """edit_distance(xs[i], decoded[i]) for every i, by Myers' O(ND) greedy
    (Algorithmica 1, 1986) on the diagonals k = i - j in [kmin, kmax].

    Iteration d sets R[t, k], the furthest row of diagonal k that trial t
    reaches at cost d, for every trial and every |k| <= d at once: the
    largest of R + 1, R[k - 1] + 1 and R[k + 1], clipped to the diagonal's
    last row, then slid along its matches 64 bits at a time.  Trial t's
    distance is the first d at which its end diagonal n - len reaches row
    n.  No distance is low, and one is exact when every optimal alignment
    keeps to the range (Myers' lemma holds on any run of whole diagonals);
    a trial whose end diagonal or diagonal 0 lies outside it gets max(n, len).
    """
    n = len(xs[0])
    lengths = np.array([len(d) for d in decoded], dtype=np.int64)
    out = np.maximum(lengths, n)
    (xw, xstart), (tw, tstart) = _packed(xs), _packed(decoded)
    # column c holds diagonal kmin - 1 + c; columns 0 and -1 are never
    # stepped and stay unreached
    k = np.arange(kmin - 1, kmax + 2)
    rows = np.full((lengths.size, k.size), -(1 << 40), dtype=np.int64)
    last = np.minimum(lengths[:, None] + k, n)
    # bit offsets of row 0 of each diagonal in the pattern and the text
    xstart, tstart = xstart[:, None], tstart[:, None] - k
    delta = n - lengths
    live = (kmin <= np.minimum(delta, 0)) & (np.maximum(delta, 0) <= kmax)
    # each trial's end diagonal in rows.ravel(), clipped where it is out of
    # range (and the trial never live)
    target = np.arange(0, rows.size, k.size) + np.clip(delta - kmin + 1, 0, k.size - 1)
    # row 0 of diagonal 0 at cost 0 (when 0 is only a never-stepped edge
    # column, no trial is live)
    rows[:, k == 0] = -1
    block = np.empty((6, rows.size), dtype=np.int64)
    d = 0
    while live.any():
        # only |k| <= d: a path of cost |k| reaches diagonal k, so every cell
        # stepped holds a reached row (or, on a diagonal off the trial's
        # matrix, its clipped last row, which never slides)
        lo, hi = max(kmin, -d) - kmin + 1, min(kmax, d) - kmin + 2
        r = rows[:, lo:hi]
        a, b, *scratch = (s[: r.size].reshape(r.shape) for s in block)
        # R = max(R + 1, R[k - 1] + 1, R[k + 1]), clipped to the last row
        np.maximum(r, rows[:, lo - 1:hi - 1], out=a)
        a += 1
        np.maximum(a, rows[:, lo + 1:hi + 1], out=a)
        np.minimum(a, last[:, lo:hi], out=r)
        # slide every cell by its first window, then the ones that matched
        # all of it by _slide
        np.add(xstart, r, out=a)
        np.add(tstart[:, lo:hi], r, out=b)
        _matches(xw, tw, a, b, scratch)
        np.subtract(last[:, lo:hi], r, out=b)
        np.minimum(scratch[0], b, out=a)
        r += a
        t, c = np.divmod(np.flatnonzero(a == 64), hi - lo)
        _slide(xw, tw, rows, last, xstart, tstart, t, c + lo)
        done = (rows.ravel().take(target) == n) & live
        np.putmask(out, done, d)
        live ^= done
        d += 1
    return out


def _slide(xw, tw, rows, last, xstart, tstart, t, c):
    """Slide _greedy's cells (t[i], c[i]) to their first mismatch, _SLIDE windows a round."""
    span = 64 * np.arange(_SLIDE)
    while t.size:
        r = rows[t, c]
        pos = np.empty((6, t.size, _SLIDE), dtype=np.int64)
        np.add((xstart[t, 0] + r)[:, None], span, out=pos[0])
        np.add((tstart[t, c] + r)[:, None], span, out=pos[1])
        _matches(xw, tw, pos[0], pos[1], pos[2:])
        # the whole windows before the first partial one, then its matches
        # (none past the last window: a whole one's 64 is taken mod 64)
        gained = 64 * np.cumprod(pos[2] == 64, axis=1).sum(axis=1)
        gained += pos[2][np.arange(t.size), np.minimum(gained // 64, _SLIDE - 1)] % 64
        np.minimum(gained, last[t, c] - r, out=gained)
        rows[t, c] = r + gained
        t, c = t[gained == 64 * _SLIDE], c[gained == 64 * _SLIDE]


def _lanes(xs, decoded):
    """The two lanes of every trial: with T trials, trial t's forward half
    as lane t and its reversed second half as lane T + t.

    Returns (p0, text, lengths).  p0, (words, 2T) uint64, marks the zeros
    of each lane's pattern, decoded[t] in lane t and decoded[t][::-1] in
    lane T + t, word w holding positions 64w .. 64w + 63; words is
    ceil(longest decode / 64), at least 1.  text, (8 * ceil((n - n // 2) /
    64), 2T) bytes, holds each lane's text little-endian down axis 0:
    x[t][:n // 2] in lane t and x[t][::-1][:n - n // 2] in lane T + t.
    lengths is each trial's decode length.  Bits past a lane's pattern or
    text are padding.  Each half is packed on its own, so no array of one
    byte per symbol is made.
    """
    n, trials = len(xs[0]), len(xs)
    lengths = np.array([len(d) for d in decoded], dtype=np.int64)
    p0 = np.zeros((2 * trials, 8 * max(-(-int(lengths.max()) // 64), 1)), dtype=np.uint8)
    text = np.zeros((2 * trials, 8 * -(-(n - n // 2) // 64)), dtype=np.uint8)
    for t, (x, d) in enumerate(zip(xs, decoded)):
        for lane, pattern, half in (t, d, x[:n // 2]), (trials + t, d[::-1], x[::-1][:n - n // 2]):
            packed = np.packbits(pattern, bitorder="little")
            np.invert(packed, out=p0[lane, :packed.size])
            packed = np.packbits(half, bitorder="little")
            text[lane, :packed.size] = packed
    return np.ascontiguousarray(p0.view("<u8").T), np.ascontiguousarray(text.T), lengths


def _lockstep(xs, decoded, kmin, kmax):
    """Both halves of every trial (see _edit_distances), stepped by
    _deltas on the diagonals kmin..kmax, and their final columns at the
    rows where the two halves can meet.

    Yields, for each group of _READ trials in order, (forward, backward):
    two int32 arrays of kmax - kmin + 1 columns.  With c = n // 2 and
    r_t = c - kmax + t clipped to [0, len(decoded[i])], row i holds its
    forward lane's final column at decode row r_t, F(r_t), and its
    reversed lane's at row len(decoded[i]) - r_t, B(len - r_t).  An
    alignment on those diagonals crosses x's column c only at such a row;
    a clipped r_t repeats row 0 or len, so every crossing row in range is
    read and none outside it.

    A column is read from the deltas: D[r][J] = J + the number of pv bits
    minus the number of mv bits among rows 0..r - 1, with J = c in the
    forward lanes and n - c in the reversed ones.  The whole words below a
    lane's first crossing row are counted by popcount, and only the words
    from there on are unpacked.
    """
    n, trials = len(xs[0]), len(xs)
    lengths, (pv, mv) = _deltas(xs, decoded, kmin, kmax)
    words = pv.shape[0]
    # below[w, lane] = pv bits minus mv bits in the words under word w
    below = np.zeros((words + 1, pv.shape[1]), dtype=np.int32)
    below[1:] = np.bitwise_count(pv)
    below[1:] -= np.bitwise_count(mv)
    np.cumsum(below, axis=0, out=below)
    # a lane's crossing rows span kmax - kmin + 1 rows, so their prefixes
    # lie within reach words from the one holding its first
    crossing = np.arange(n // 2 - kmax, n // 2 - kmin + 1)
    reach = np.arange(-(-(kmax - kmin + 63) // 64))
    for lo in range(0, trials, _READ):
        group = np.arange(lo, min(lo + _READ, trials))
        ends = lengths[group, None]
        rows = np.clip(crossing, 0, ends)
        rows = np.concatenate([rows, ends - rows])
        cols = np.concatenate([group, trials + group])[:, None]
        first = rows.min(axis=1, keepdims=True) // 64
        at = np.minimum(first + reach, words - 1), cols
        bits = [np.unpackbits(np.ascontiguousarray(v[at], dtype="<u8").view(np.uint8),
                              axis=1, bitorder="little").view(np.int8) for v in (pv, mv)]
        read = np.zeros((rows.shape[0], bits[0].shape[1] + 1), dtype=np.int32)
        np.cumsum(bits[0] - bits[1], axis=1, dtype=np.int32, out=read[:, 1:])
        # flat offsets into read, one row per lane: a plain take is faster
        # than take_along_axis here
        rows -= 64 * first
        rows += np.arange(0, read.size, read.shape[1])[:, None]
        values = read.ravel().take(rows)
        values += below[first, cols]
        values[:group.size] += n // 2
        values[group.size:] += n - n // 2
        yield values[:group.size], values[group.size:]


def _longest_run(flags):
    """The longest run of True down axis 0 of flags, in any column."""
    run = 0
    while flags.any():
        run += 1
        flags = flags[1:] & flags[:-1]
    return run


def _deltas(xs, decoded, kmin, kmax):
    """Every lane of _lanes stepped to the end of its text by Myers'
    bit-parallel recurrence (J. ACM 46(3), 1999), on the diagonals
    kmin <= i - j <= kmax of x's position i and the decode's j.

    Returns (lengths, deltas): each trial's decode length, and a
    (2, words, 2T) uint64 array of every lane's final pv and mv vectors
    down its pattern, word 0 holding positions 0-63.

    One pass of the step loop (about two dozen numpy calls) advances every
    lane by one column of x.  Every lane's text is half of an n-symbol x,
    so all 2T lanes step the first n // 2 columns together, and for odd n
    the reversed lanes take one more.  A lane's match mask is P0 ^ sel,
    where P0 marks the pattern's zeros and sel is all ones if its symbol
    is 1; the sel masks of 64 steps are unpacked at once.

    At column j of x only the words [lo, hi) holding a decode row r with
    kmin <= j - r <= kmax are stepped: a block whose inner axis is
    contiguous, both of whose ends only slide up.  The steps are cut into
    segments of one window and one sel block, and each segment binds its
    views once.  Shifts carry each word's top bit into the next.  The sum
    (eq & pv) + pv carries across words in rounds: round one adds each
    word's overflow to the next, and a later round carries only out of a
    word that the last round's carry wrapped to 0.  Such a word held
    a + b = 2**64 - 1 with a = eq & pv a subset of b = pv, so eq = 0 and
    pv was all ones: its pattern word matches neither the text symbol.  So
    a chunk needs at most one round more than its longest run of whole
    pattern words that are all 0s or all 1s (padding above a lane's length
    never carries down), and a decode with none needs one.  Up to
    _CARRY_ROUNDS of these run on every step without a test; any further
    round runs only while the last one left a carry.  Words
    below the window stay frozen.  The lowest stepped word takes Myers'
    block rule for a +1 horizontal delta at its top: no carry enters, ph
    shifts in 1 and mh 0 (carry_in's first row, reset with every window).
    A word joins in its initial state.  So every value is the cost of a
    real alignment path: it grows by one per column along each row of a
    frozen word, and by one per row through a word yet to join.  Such +1
    edges are a legal DP boundary, on which Myers' formulas stay exact, so
    no value falls below the true D[r][J].  If an optimal path to (r, J)
    keeps to the diagonals kmin..kmax, it is stepped throughout, and
    D[r][J] is exact.  Carries and shifts only move up, so bits above a
    lane's length never reach the rows below them.
    """
    n, trials = len(xs[0]), len(xs)
    p0, text, lengths = _lanes(xs, decoded)
    words, lanes = p0.shape
    whole = np.arange(words)[:, None] < np.tile(lengths // 64, 2)
    rounds = 1 + max(_longest_run((p0 == 0) & whole), _longest_run((p0 == ~np.uint64(0)) & whole))

    # window of each step: decode rows j - kmax .. j - kmin of column j + 1,
    # cut also where a sel block starts and where only the reversed lanes
    # step on
    j = np.arange(n - n // 2)
    top = max(int(lengths.max()), 1) - 1
    low = np.clip(j - kmax, 0, top) // 64
    high = np.clip(j - kmin, 0, top) // 64 + 1
    cuts = (np.diff(low) != 0) | (np.diff(high) != 0) | (j[1:] % 64 == 0) | (j[1:] == n // 2)
    ends = np.append(np.flatnonzero(cuts) + 1, j.size)

    # xv, eq then ph, xh then mh: ph and mh take the slots of eq and xh
    # once those are spent, and lie next to each other for the shifts
    work = np.zeros((3, words, lanes), dtype=np.uint64)
    deltas = np.zeros((2, words, lanes), dtype=np.uint64)
    deltas[0] = ~np.uint64(0)
    # the shifts' carries, and before them the sum's
    carry_in = np.zeros((2, words + 1, lanes), dtype=np.uint64)
    sel = np.empty((64, lanes), dtype=np.uint64)
    start = 0
    for end in ends.tolist():
        lo, hi = int(low[start]), int(high[start])
        first = 0 if start < n // 2 else trials
        xv, eq, xh = work[:, lo:hi, first:]
        h = work[1:, lo:hi, first:]
        ph, mh = h
        pv, mv = deltas[:, lo:hi, first:]
        p0_w = p0[lo:hi, first:]
        cin = carry_in[:, lo:hi + 1, first:]
        cin[0, 0], cin[1, 0] = 1, 0
        shifted_out, shifted_in = cin[:, 1:], cin[:, :-1]
        # round r takes the carries out of words r - 1 .. hi - lo - 2
        # into the next ones, from round r - 1's carries in the other slot
        ripple = []
        for r in range(1, min(rounds, hi - lo - 1) + 1):
            added = pv[:-1] if r == 1 else cin[r % 2, r - 1:hi - lo - 1]
            ripple.append((xh[r - 1:-1], added, cin[1 - r % 2, r:hi - lo], xh[r:]))
        fixed, tested = ripple[:_CARRY_ROUNDS], ripple[_CARRY_ROUNDS:]
        if start % 64 == 0:
            block = np.unpackbits(text[start // 8:start // 8 + 8], axis=0, bitorder="little")
            np.negative(block, dtype=np.uint64, out=sel)
        for s in sel[start % 64:start % 64 + end - start, first:]:
            np.bitwise_xor(p0_w, s, out=eq)
            np.bitwise_or(eq, mv, out=xv)
            # xh = (((eq & pv) + pv) ^ pv) | eq, the sum carried across words
            np.bitwise_and(eq, pv, out=xh)
            np.add(xh, pv, out=xh)
            for lower, added, carry, upper in fixed:
                np.less(lower, added, out=carry)
                np.add(upper, carry, out=upper)
            for lower, added, carry, upper in tested:
                np.less(lower, added, out=carry)
                if not carry.any():
                    break
                np.add(upper, carry, out=upper)
            np.bitwise_xor(xh, pv, out=xh)
            np.bitwise_or(xh, eq, out=xh)
            # ph = mv | ~(xh | pv), mh = pv & xh
            np.bitwise_or(xh, pv, out=ph)
            np.invert(ph, out=ph)
            np.bitwise_or(ph, mv, out=ph)
            np.bitwise_and(pv, xh, out=mh)
            # ph = (ph << 1) | carry, mh = (mh << 1) | carry
            np.right_shift(h, 63, out=shifted_out)
            np.left_shift(h, 1, out=h)
            np.bitwise_or(h, shifted_in, out=h)
            # pv = mh | ~(xv | ph), mv = ph & xv
            np.bitwise_or(xv, ph, out=pv)
            np.invert(pv, out=pv)
            np.bitwise_or(pv, mh, out=pv)
            np.bitwise_and(ph, xv, out=mv)
        start = end
    return lengths, deltas


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
