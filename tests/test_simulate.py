"""Monte Carlo simulator: decoder, edit distance, trial reproducibility."""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dp_edit_distance, dp_last_column, monte_carlo_reference
from repeatcap import simulate
from repeatcap.simulate import (
    SimConfig,
    edit_distance,
    run_length_decode,
    run_monte_carlo,
    sample_channel_output,
    validate_config,
)


def test_run_length_decode_examples():
    assert run_length_decode("000111", 3.0) == "01"
    assert run_length_decode("", 3.0) == ""
    # 5 / 2 = 2.5 rounds half-up to 3 copies
    assert run_length_decode("00000", 2.0) == "000"
    # runs shorter than lam/2 vanish
    assert run_length_decode("010", 3.0) == ""


def test_run_length_decode_type_preservation():
    assert isinstance(run_length_decode("0011", 2.0), str)
    out = run_length_decode(np.array([0, 0, 1, 1], dtype=np.uint8), 2.0)
    assert isinstance(out, np.ndarray)
    assert out.tolist() == [0, 1]


def test_edit_distance_examples():
    assert edit_distance("0101", "0101") == 0
    assert edit_distance("0101", "") == 4
    assert edit_distance("", "") == 0
    assert edit_distance("kitten", "sitting") == 3
    assert edit_distance("0011", "0111") == 1


def test_edit_distance_matches_dp_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        la, lb = rng.integers(0, 30, 2)
        a = "".join(rng.choice(["0", "1"], la))
        b = "".join(rng.choice(["0", "1"], lb))
        assert edit_distance(a, b) == dp_edit_distance(a, b)


def test_edit_distance_reads_arrays_by_element():
    # a numpy array is compared element by element whatever its dtype
    assert edit_distance(np.array([0, 1]), [1]) == 1
    rng = np.random.default_rng(11)
    for _ in range(50):
        la, lb = rng.integers(0, 30, 2)
        a, b = rng.integers(0, 2, la).tolist(), rng.integers(0, 2, lb).tolist()
        want = dp_edit_distance(a, b)
        for dtype in (np.int64, np.bool_, np.uint8):
            arr_a, arr_b = np.array(a, dtype=dtype), np.array(b, dtype=dtype)
            assert edit_distance(arr_a, arr_b) == want, dtype
            assert edit_distance(arr_a, b) == want, dtype


def test_edit_distance_metric_properties():
    rng = np.random.default_rng(7)
    strings = ["".join(rng.choice(["0", "1"], rng.integers(0, 15))) for _ in range(30)]
    for a, b, c in zip(strings[::3], strings[1::3], strings[2::3]):
        assert edit_distance(a, b) == edit_distance(b, a)
        assert edit_distance(a, a) == 0
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


def test_edit_distance_arrays():
    a = np.array([0, 1, 0, 1], dtype=np.uint8)
    b = np.array([0, 1, 1, 1], dtype=np.uint8)
    assert edit_distance(a, b) == 1


class _StubRng:
    """poisson() returns a preset count vector regardless of lam."""

    def __init__(self, counts):
        self.counts = np.asarray(counts)

    def poisson(self, lam, size):
        assert size == self.counts.size
        return self.counts


def test_sample_channel_output_with_stub():
    out = sample_channel_output("01", 2.0, _StubRng([2, 2]))
    assert out == "0011"
    out = sample_channel_output("100", 5.0, _StubRng([1, 0, 3]))
    assert out == "1000"


def test_sample_channel_output_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_channel_output("01", 0.0, rng)
    with pytest.raises(ValueError):
        sample_channel_output("02", 2.0, rng)


class _IdentityRng:
    """Deterministic stand-in: every bit is copied exactly round(lam) times."""

    def __init__(self, seed_seq):
        self._rng = np.random.default_rng(seed_seq)

    def poisson(self, lam, size):
        return np.full(size, int(round(lam)), dtype=np.int64)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


def test_run_monte_carlo_identity_stub():
    config = SimConfig(n=64, lam=3.0, epsilon=0.01, trials=5, seed=1)
    rate, reports = run_monte_carlo(config, rng_factory=_IdentityRng)
    assert rate == 1.0
    for r in reports:
        assert r.edit_distance == 0
        assert r.output_length == 64 * 3


def test_validate_config_errors():
    good = dict(n=4, lam=2.0, epsilon=0.1, trials=1, seed=0)
    validate_config(SimConfig(**good))
    with pytest.raises(ValueError):
        validate_config(SimConfig(**{**good, "n": 0}))
    with pytest.raises(ValueError):
        validate_config(SimConfig(**{**good, "lam": 0.0}))
    with pytest.raises(ValueError):
        validate_config(SimConfig(**{**good, "epsilon": 1.0}))
    with pytest.raises(ValueError):
        validate_config(SimConfig(**{**good, "epsilon": 0.0}))
    with pytest.raises(ValueError):
        validate_config(SimConfig(**{**good, "trials": 0}))
    with pytest.raises(ValueError):
        validate_config(SimConfig(**{**good, "input_source": "bogus"}))
    with pytest.raises(ValueError):
        validate_config(SimConfig(**{**good, "input_source": "user_supplied"}))
    with pytest.raises(ValueError):
        validate_config(
            SimConfig(**{**good, "input_source": "user_supplied", "input_bits": "01"})
        )
    with pytest.raises(ValueError):
        validate_config(SimConfig(**{**good, "input_bits": "0101"}))
    validate_config(
        SimConfig(**{**good, "input_source": "user_supplied", "input_bits": "0101"})
    )


@pytest.mark.parametrize("bits", [[0.5, 1.7], [0.5, 1.5], [0, 2], [-1, 1], [1, 256], "0é", "01\u00b9"])
def test_input_bits_must_be_exactly_0_or_1(bits):
    # fractions are not truncated to bits, and a non-ASCII string gets the
    # same error as any other bad symbol
    config = SimConfig(n=2, lam=2.0, epsilon=0.1, trials=1, seed=0,
                       input_source="user_supplied", input_bits=bits)
    with pytest.raises(ValueError, match="input bits must be 0 or 1"):
        validate_config(config)
    with pytest.raises(ValueError, match="input bits must be 0 or 1"):
        sample_channel_output(bits, 2.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="input bits must be 0 or 1"):
        run_length_decode(bits, 2.0)


def test_input_bits_accept_exact_bits_of_any_dtype():
    for bits in ([0.0, 1.0], [False, True], np.array([0, 1], dtype=np.int64), "01"):
        validate_config(SimConfig(n=2, lam=2.0, epsilon=0.1, trials=1, seed=0,
                                  input_source="user_supplied", input_bits=bits))
        assert simulate._as_bit_array(bits).tolist() == [0, 1]


@pytest.mark.parametrize("field, value", [
    ("lam", math.inf), ("lam", 1e19), ("lam", math.nan),
    ("n", True), ("n", 5.0), ("trials", 2.5), ("trials", False),
])
def test_validate_config_names_the_bad_field(field, value):
    config = SimConfig(**{**dict(n=4, lam=2.0, epsilon=0.1, trials=1, seed=0), field: value})
    with pytest.raises(ValueError, match=field):
        validate_config(config)


@pytest.mark.parametrize("lam", [math.inf, math.nan, 1e19, 0.0, -2.0])
def test_single_calls_share_the_lambda_rule(lam):
    # validate_config's rule, not an error from inside numpy's Poisson sampler
    with pytest.raises(ValueError, match="lambda"):
        sample_channel_output("01", lam, np.random.default_rng(0))
    with pytest.raises(ValueError, match="lambda"):
        sample_channel_output("", lam, np.random.default_rng(0))
    with pytest.raises(ValueError, match="lambda"):
        run_length_decode("0011", lam)


def test_large_lambda_recovers_exactly():
    # Poisson(1e6) counts are within ~0.5% of the mean, so every run decodes
    # to exactly its input length and the edit distance is 0.
    config = SimConfig(n=50, lam=1e6, epsilon=0.02, trials=50, seed=3)
    rate, reports = run_monte_carlo(config)
    assert rate == 1.0
    assert all(r.edit_distance == 0 for r in reports)


def test_success_rate_nondecreasing_in_lambda():
    rates = []
    for lam in (20.0, 50.0, 100.0, 200.0):
        config = SimConfig(n=500, lam=lam, epsilon=0.1, trials=60, seed=11)
        rate, _ = run_monte_carlo(config)
        rates.append(rate)
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo - 0.01
    assert rates[-1] >= 0.99


def test_output_length_concentrates():
    config = SimConfig(n=1000, lam=150.0, epsilon=0.1, trials=20, seed=5)
    _, reports = run_monte_carlo(config)
    mean_len = np.mean([r.output_length for r in reports])
    assert abs(mean_len - 150.0 * 1000) < 0.01 * 150.0 * 1000


def test_determinism():
    config = SimConfig(n=200, lam=30.0, epsilon=0.1, trials=10, seed=21)
    rate1, reports1 = run_monte_carlo(config)
    rate2, reports2 = run_monte_carlo(config)
    assert rate1 == rate2
    assert reports1 == reports2
    rate3, reports3 = run_monte_carlo(SimConfig(n=200, lam=30.0, epsilon=0.1, trials=10, seed=22))
    assert reports3 != reports1


def test_alternating_and_user_inputs():
    config = SimConfig(
        n=6, lam=4.0, epsilon=0.5, trials=2, seed=0, input_source="all_alternating"
    )
    rate, _ = run_monte_carlo(config)
    assert 0.0 <= rate <= 1.0
    config = SimConfig(
        n=4, lam=50.0, epsilon=0.25, trials=3, seed=0,
        input_source="user_supplied", input_bits="0110",
    )
    rate, _ = run_monte_carlo(config)
    assert rate == 1.0


def _pairs_for(m, rng):
    """Patterns of length m against texts that are empty, shorter than the
    pattern and longer than it.

    The uniform patterns make every word alike; in "1 then 0s" and
    "0 then 1s", a text that opens with the pattern's first symbol has
    eq = bit 0 alone while pv is still all ones, so (eq & pv) + pv carries
    from bit 0 through every word of the pattern (3 words at m = 129).
    """
    patterns = [
        rng.integers(0, 2, m, dtype=np.uint8),
        np.zeros(m, dtype=np.uint8),
        np.ones(m, dtype=np.uint8),
        np.concatenate([[1], np.zeros(m - 1)]).astype(np.uint8),
        np.concatenate([[0], np.ones(m - 1)]).astype(np.uint8),
    ]
    xs, texts = [], []
    for x in patterns:
        for length in sorted({0, m // 2, m + 1, 2 * m + 3}):
            for text in (
                rng.integers(0, 2, length, dtype=np.uint8),
                np.full(length, x[0], dtype=np.uint8),
                np.full(length, 1 - x[0], dtype=np.uint8),
            ):
                xs.append(x)
                texts.append(text)
    return xs, texts


# The _GREEDY_WIDTH that sends every chunk of _edit_distances to the kernel
# named, so each kernel keeps its coverage whichever one the rule picks.
_KERNELS = {"_greedy": 1 << 62, "_lockstep": 0}


def _routed(kernel):
    return mock.patch.object(simulate, "_GREEDY_WIDTH", _KERNELS[kernel])


@pytest.mark.parametrize("kernel", _KERNELS)
@pytest.mark.parametrize("m", [1, 63, 64, 65, 128, 129])
def test_edit_distances_kernel_matches_both_references(m, kernel):
    xs, texts = _pairs_for(m, np.random.default_rng(m))
    with _routed(kernel):
        got = simulate._edit_distances(xs, texts)
    assert got.tolist() == [edit_distance(x, t) for x, t in zip(xs, texts)]
    assert got.tolist() == [dp_edit_distance(x, t) for x, t in zip(xs, texts)]


@pytest.mark.parametrize("kernel", _KERNELS)
def test_edit_distances_kernel_batch_larger_than_a_chunk(kernel):
    rng = np.random.default_rng(12)
    trials = 2 * simulate._CHUNK + 44
    xs = [rng.integers(0, 2, 65, dtype=np.uint8) for _ in range(trials)]
    texts = [rng.integers(0, 2, rng.integers(0, 100), dtype=np.uint8) for _ in range(trials)]
    with _routed(kernel):
        got = simulate._edit_distances(xs, texts)
    assert got.tolist() == [edit_distance(x, t) for x, t in zip(xs, texts)]
    assert got.tolist() == [dp_edit_distance(x, t) for x, t in zip(xs, texts)]


# n = 1, lambda < 1 (mostly empty decodes), all-alternating input, uniform
# user inputs, more trials than one chunk, and the benchmark's n = 4000 at
# lambda = 2, 20 (a band of about 240 that slides through the pattern), 50,
# 100 and 200 (both sides of the rule between the kernels)
_REFERENCE_CONFIGS = [
    SimConfig(n=1, lam=2.0, epsilon=0.5, trials=50, seed=1),
    SimConfig(n=1, lam=0.3, epsilon=0.5, trials=50, seed=2),
    SimConfig(n=300, lam=0.5, epsilon=0.1, trials=40, seed=3),
    SimConfig(n=300, lam=0.01, epsilon=0.1, trials=40, seed=4),
    SimConfig(n=64, lam=5.0, epsilon=0.1, trials=30, seed=5),
    SimConfig(n=65, lam=5.0, epsilon=0.1, trials=30, seed=6),
    SimConfig(n=129, lam=3.0, epsilon=0.1, trials=300, seed=7),
    SimConfig(n=500, lam=2.0, epsilon=0.1, trials=50, seed=8, input_source="all_alternating"),
    SimConfig(n=200, lam=4.0, epsilon=0.1, trials=20, seed=9,
              input_source="user_supplied", input_bits="0" * 200),
    SimConfig(n=200, lam=4.0, epsilon=0.1, trials=20, seed=10,
              input_source="user_supplied", input_bits="1" * 200),
    SimConfig(n=4000, lam=2.0, epsilon=0.1, trials=12, seed=11),
    SimConfig(n=4000, lam=20.0, epsilon=0.1, trials=12, seed=13),
    SimConfig(n=4000, lam=50.0, epsilon=0.1, trials=12, seed=14),
    SimConfig(n=4000, lam=100.0, epsilon=0.1, trials=12, seed=15),
    SimConfig(n=4000, lam=200.0, epsilon=0.1, trials=12, seed=12),
]


@pytest.mark.parametrize("config", _REFERENCE_CONFIGS,
                         ids=lambda c: f"n{c.n}-lam{c.lam:g}-{c.input_source}-seed{c.seed}")
def test_run_monte_carlo_matches_the_per_trial_loop(config):
    assert run_monte_carlo(config) == monte_carlo_reference(config)


@settings(deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 9)), max_size=60),
    st.floats(0.05, 12.0),
)
def test_decode_from_counts_equals_decode_of_the_output(symbols, lam):
    x = np.array([bit for bit, _ in symbols], dtype=np.uint8)
    counts = np.array([count for _, count in symbols], dtype=np.int64)
    got, _ = simulate._decode_runs(x, lam, counts)
    want = run_length_decode(np.repeat(x, counts), lam)
    assert got.dtype == want.dtype == np.uint8
    assert got.tolist() == want.tolist()


@settings(deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 9)), max_size=60),
    st.floats(0.05, 12.0),
)
def test_alignment_bound_is_at_least_the_edit_distance(symbols, lam):
    x = np.array([bit for bit, _ in symbols], dtype=np.uint8)
    counts = np.array([count for _, count in symbols], dtype=np.int64)
    decoded, bound = simulate._decode_runs(x, lam, counts)
    assert bound >= dp_edit_distance(x.tolist(), decoded.tolist())
    assert simulate._decode_runs(x, lam, 0 * counts)[1] == x.size


@pytest.mark.parametrize("kernel", _KERNELS)
@pytest.mark.parametrize("m", [1, 63, 64, 65, 128, 129])
def test_edit_distances_band_edge(m, kernel):
    # A band equal to the distance is exact; one less may only overestimate.
    xs, texts = _pairs_for(m, np.random.default_rng(m))
    want = np.array([dp_edit_distance(x, t) for x, t in zip(xs, texts)])
    with _routed(kernel):
        for dist in np.unique(want):
            pairs = np.flatnonzero(want == dist)
            sub_xs, sub_texts = [xs[i] for i in pairs], [texts[i] for i in pairs]
            assert simulate._edit_distances(sub_xs, sub_texts, [dist] * pairs.size).tolist() \
                == want[pairs].tolist()
            if dist > 0:
                below = simulate._edit_distances(sub_xs, sub_texts, [dist - 1] * pairs.size)
                assert (below >= want[pairs]).all()


@pytest.mark.parametrize("kernel", _KERNELS)
@pytest.mark.parametrize("lengths, bands", [
    # ranges [9, 11] and [5, 5], then [-11, -9] and [-5, -5]: the union
    # misses diagonal 0
    ((80, 90), (2, 0)),
    ((120, 110), (2, 0)),
    # ranges [-1, 1] and [10, 10]: the second text's end diagonal, 20, lies
    # outside [-1, 10]
    ((100, 80), (2, 0)),
    # ranges [-1, 1] and [-10, -10]: the end diagonal -20 lies outside
    ((100, 120), (2, 0)),
])
def test_a_range_missing_diagonal_0_or_an_end_diagonal_never_reads_low(lengths, bands, kernel):
    # 100-bit patterns against their own bits cut or repeated, one flipped:
    # a first text of length 100 is at distance 1, within its band, and
    # every other text is at least 10 away, outside its band.
    rng = np.random.default_rng(sum(lengths))
    xs, texts = [], []
    for length in lengths:
        x = rng.integers(0, 2, 100, dtype=np.uint8)
        text = np.resize(x, length)
        text[length // 2] ^= 1
        xs.append(x)
        texts.append(text)
    want = [dp_edit_distance(x, t) for x, t in zip(xs, texts)]
    with _routed(kernel):
        got = simulate._edit_distances(xs, texts, list(bands)).tolist()
    for dist, right, band, length in zip(got, want, bands, lengths):
        assert dist >= right
        if band >= right:
            assert dist == right
        elif kernel == "_greedy":
            assert dist == max(100, length)


def _diagonals(n, texts, bands):
    """The kernel's range of k = i - j for texts against an n-bit pattern:
    the union over texts of |k| + |delta - k| <= band, delta = n - len."""
    delta, bands = n - np.array([len(t) for t in texts]), np.array(bands)
    return int(((delta - bands) // 2).min()), int(((delta + bands) // 2).max())


@pytest.mark.parametrize("m", [1, 63, 64, 65, 128, 129])
def test_lockstep_columns_are_the_dp_columns_of_both_halves(m):
    # The combine reads both lanes' final columns at the crossing rows
    # r = c + kmin .. c + kmax, clipped to [0, m], and at no others: each
    # position holds its own row, so with the whole matrix stepped it is
    # the DP's value there, and with a narrow band none is below it (every
    # value is the cost of a real alignment).
    xs, texts = _pairs_for(m, np.random.default_rng(m))
    want = []
    for x, text in zip(xs, texts):
        half = len(text) // 2
        want.append((half, dp_last_column(x, text[:half]),
                     dp_last_column(x[::-1], text[half:][::-1])))
    for band in (2 * m + 3, 0, 2):
        kmin, kmax = _diagonals(m, texts, [band] * len(texts))
        forward, backward = (np.concatenate(halves) for halves in
                             zip(*simulate._lockstep(xs, texts, kmin, kmax)))
        assert forward.shape == backward.shape == (len(xs), kmax - kmin + 1)
        for i, (half, want_forward, want_backward) in enumerate(want):
            rows = [min(max(half + k, 0), m) for k in range(kmin, kmax + 1)]
            at_rows = np.array(want_forward)[rows], np.array(want_backward)[[m - r for r in rows]]
            if band == 2 * m + 3:
                assert forward[i].tolist() == at_rows[0].tolist()
                assert backward[i].tolist() == at_rows[1].tolist()
            else:
                assert (forward[i] >= at_rows[0]).all()
                assert (backward[i] >= at_rows[1]).all()


@st.composite
def _kernel_cases(draw):
    """Up to four texts against one pattern of 1-150 bits, each with its
    own band.  A text is much shorter than the pattern (at most m // 4
    bits) or up to 4m + 8 bits, either random or the pattern cut or
    repeated with a few bits flipped (small distances); its band runs from
    0, below the length difference, to past both lengths, so the texts of
    one chunk differ in both delta and band."""
    m = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, 2, m, dtype=np.uint8)
    texts, bands = [], []
    for _ in range(draw(st.integers(1, 4))):
        length = draw(st.one_of(st.integers(0, m // 4), st.integers(0, 4 * m + 8)))
        if draw(st.booleans()):
            text = rng.integers(0, 2, length, dtype=np.uint8)
        else:
            text = np.resize(x, length)
            if length:
                text[rng.integers(0, length, draw(st.integers(0, 4)))] ^= 1
        texts.append(text)
        bands.append(draw(st.integers(0, max(m, length) + 2)))
    return x, texts, bands


@pytest.mark.parametrize("kernel", _KERNELS)
@settings(deadline=None)
@given(_kernel_cases())
def test_split_kernel_is_exact_within_its_band_and_never_low(kernel, case):
    x, texts, bands = case
    with _routed(kernel):
        got = simulate._edit_distances([x] * len(texts), texts, bands)
    for dist, text, band in zip(got.tolist(), texts, bands):
        want = dp_edit_distance(x, text)
        assert dist == want if band >= want else dist >= want


def _benchmark_chunk(lam, trials=100, seed=1):
    """The patterns, decodes and alignment bounds of a benchmark-sized op:
    trials at n = 4000 drawn as run_monte_carlo draws them."""
    xs, decoded, bands = [], [], []
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        x = rng.integers(0, 2, 4000, dtype=np.uint8)
        decode, bound = simulate._decode_runs(x, lam, rng.poisson(lam, x.size))
        xs.append(x)
        decoded.append(decode)
        bands.append(bound)
    return xs, decoded, bands


@pytest.mark.parametrize("lam", [2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0])
def test_both_kernels_agree_on_benchmark_trials(lam):
    xs, decoded, bands = _benchmark_chunk(lam, trials=2, seed=int(lam))
    got = {}
    for kernel in _KERNELS:
        with _routed(kernel):
            got[kernel] = simulate._edit_distances(xs, decoded, bands).tolist()
    assert got["_greedy"] == got["_lockstep"]


@pytest.mark.parametrize("lam, kernel", [
    (2.0, "_lockstep"), (20.0, "_lockstep"), (50.0, "_greedy"), (200.0, "_greedy"),
])
def test_the_rule_sends_each_benchmark_chunk_to_its_kernel(lam, kernel, monkeypatch):
    called = []
    for name in _KERNELS:
        def spy(*args, _name=name, _kernel=getattr(simulate, name)):
            called.append(_name)
            return _kernel(*args)
        monkeypatch.setattr(simulate, name, spy)
    simulate._edit_distances(*_benchmark_chunk(lam))
    assert called == [kernel]


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("lam", [2.0, 50.0, 200.0])
def test_kernel_peak_memory_is_no_more_than_the_full_column_reads(lam):
    # One benchmark-sized op (100 trials, n = 4000, seed 1).  At lambda = 2,
    # on the lockstep, the kernel that read every row of both final columns
    # peaked at 1 648 465 traced bytes, and the windowed read may hold no
    # more.  At lambda = 50 and 200 the rule picks _greedy, whose peak may
    # be no higher than the lockstep's on the same chunk.
    xs, decoded, bands = _benchmark_chunk(lam)
    peak = _traced_peak(lambda: simulate._edit_distances(xs, decoded, bands))
    if lam == 2.0:
        assert peak <= 1_650_000
    else:
        with _routed("_lockstep"):
            assert peak <= _traced_peak(lambda: simulate._edit_distances(xs, decoded, bands))
