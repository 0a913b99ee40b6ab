import numpy as np
import pytest

from weaktyp.rng import (
    _MIX1,
    _MIX2,
    MASK64,
    RngStream,
    finalize,
    mix64,
    raw_at,
    raw_below,
    raw_threshold,
    stream_state,
    stream_states,
    uniforms_at,
)


def test_matches_reference_splitmix64_sequence():
    # published outputs of splitmix64 for initial state 1234567
    expected = [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]
    assert [int(v) for v in raw_at(np.uint64(1234567), np.arange(5))] == expected


def test_same_ids_replay_identically():
    a = RngStream(42, 7).uniforms(100)
    b = RngStream(42, 7).uniforms(100)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(42, 7).uniforms(100)
    b = RngStream(42, 8).uniforms(100)
    c = RngStream(43, 7).uniforms(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_cursor_continues_the_stream():
    s = RngStream(1, 2)
    first = s.uniforms(5)
    assert s.uniforms(0).size == 0
    second = s.uniforms(5)
    whole = RngStream(1, 2).uniforms(10)
    assert np.array_equal(np.concatenate([first, second]), whole)


def test_positional_access_is_pure():
    state = stream_state(9, 3)
    block = raw_at(np.uint64(state), np.arange(50))
    for i in (0, 1, 17, 49):
        assert raw_at(np.uint64(state), [i])[0] == block[i]


def test_uniforms_live_in_unit_interval():
    u = RngStream(0, 0).uniforms(10_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_uniform_mean_matches_binomial_oracle():
    # mean of 1e5 U(0,1) draws: sd = sqrt(1/12/1e5)
    u = RngStream(123, 0).uniforms(100_000)
    sd = (1.0 / 12.0 / 100_000) ** 0.5
    assert abs(u.mean() - 0.5) < 3 * sd


def test_mix64_is_pure_python_twin_of_block():
    state = stream_state(77, 5)
    blk = raw_at(np.uint64(state), np.arange(8))
    from weaktyp.rng import GAMMA, MASK64

    for i in range(8):
        assert mix64((state + i * GAMMA) & MASK64) == int(blk[i])


def test_uniforms_at_derives_from_raw_at():
    state = np.uint64(stream_state(5, 5))
    raw = raw_at(state, np.arange(3, 7))
    u = uniforms_at(state, np.arange(3, 7))
    assert np.array_equal(u, (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53)


def test_lockstep_reads_match_per_stream_cursors():
    ids = np.array([0, 3, 7, 2**40 + 3, 2**63 + 1], dtype=np.uint64)
    states = stream_states(2**64 - 5, ids)
    assert [int(v) for v in states] == [stream_state(2**64 - 5, int(i)) for i in ids]
    positions = np.array([0, 1, 4, 2, 0])
    got = uniforms_at(states, positions)
    for s, pos, value in zip(ids, positions, got):
        assert RngStream(2**64 - 5, int(s)).uniforms(pos + 1)[pos] == value
    # one master seed per stream id, as a kernel call of several sweep points forms them
    seeds = np.array([2**64 - 5, 0, 17, 2**63, 2**64 - 5], dtype=np.uint64)
    assert [int(v) for v in stream_states(seeds, ids)] == [stream_state(int(m), int(i)) for m, i in zip(seeds, ids)]


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        RngStream(0, 0).uniforms(-1)


def _before_last_xorshift(w: int) -> int:
    """The z whose two finalize rounds give ``w``: both rounds inverted, in Python integers."""

    def unxorshift(y, shift):
        x = y
        for _ in range(64 // shift + 1):
            x = y ^ (x >> shift)
        return x

    z = unxorshift((w * pow(_MIX2, -1, 1 << 64)) & MASK64, 27)
    return unxorshift((z * pow(_MIX1, -1, 1 << 64)) & MASK64, 30)


@pytest.mark.parametrize(
    "p, dyadic",
    [(p, True) for p in (0.5, 0.25, 0.75, 2.0**-31)] + [(p, False) for p in (0.05, 0.1, 0.3, 1 - 2.0**-40)],
)
def test_raw_below_is_the_finalized_compare(p, dyadic):
    t = raw_threshold(p)
    assert (int(t) % 2**33 == 0) == dyadic
    rs = np.random.default_rng(int(p * 1e9) + 3)
    # the window where skipping the last xorshift could change the compare:
    # the top 31 bits before it equal the threshold's
    top = int(t) >> 33 << 33
    window = np.array([_before_last_xorshift(top | int(low)) for low in rs.integers(0, 2**33, 300)], dtype=np.uint64)
    assert np.all(finalize(window) >> np.uint64(33) == t >> np.uint64(33))
    z = np.concatenate([rs.integers(0, 2**64, 3000, dtype=np.uint64), window])
    expected = finalize(z) < t
    out = np.empty(z.shape, dtype=np.bool_)
    assert raw_below(z.copy(), [t], out, np.empty_like(z), [0, z.size]) is out
    assert np.array_equal(out, expected)
    # runs of draws, every other one against 1/2's threshold: the skip holds only where every one allows it
    cuts = [0, *np.sort(rs.choice(np.arange(1, z.size), 40, replace=False)).tolist(), z.size]
    thresholds = [(t, raw_threshold(0.5))[i % 2] for i in range(len(cuts) - 1)]
    each = np.repeat(thresholds, np.diff(cuts))
    assert np.array_equal(raw_below(z.copy(), thresholds, out, np.empty_like(z), cuts), finalize(z) < each)
