import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from weaktyp import config, decoders, kernels, montecarlo, typicality
from weaktyp.core import Dmc, bsc
from weaktyp.montecarlo import (
    TrialConfig,
    _trial_codebook,
    call_bytes,
    derived_master,
    fixed_codebook,
    run_trials,
    trial_detail,
)
from weaktyp.rng import _to_unit, raw_threshold, unit_bits, unit_threshold
from weaktyp.typicality import build_context


def _batches_equal(a, b):
    return (
        np.array_equal(a.true_w, b.true_w)
        and np.array_equal(a.jt_decoded, b.jt_decoded)
        and np.array_equal(a.weak_decoded, b.weak_decoded)
        and np.array_equal(a.candidate_counts, b.candidate_counts)
    )


def test_chunking_invariance(monkeypatch):
    # results must not depend on how trials are grouped into kernel calls
    cfg = TrialConfig(n=15, m=3, q=0.4, channel=bsc(0.2), eps=0.4, master_seed=29)
    monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 64)
    a = run_trials(cfg, 1000)
    monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 1000)
    b = run_trials(cfg, 1000)
    assert _batches_equal(a, b)


def test_start_offset_slices_the_same_stream():
    cfg = TrialConfig(n=15, m=3, q=0.4, channel=bsc(0.2), eps=0.4, master_seed=29)
    whole = run_trials(cfg, 300)
    tail = run_trials(cfg, 100, start=200)
    assert np.array_equal(whole.true_w[200:], tail.true_w)
    assert np.array_equal(whole.weak_decoded[200:], tail.weak_decoded)


@pytest.mark.parametrize(
    "p", [0.0, 1.0, 0.5, 0.25, 0.05, 0.9, 2.0**-60, *np.random.default_rng(7).random(4).tolist()]
)
def test_integer_threshold_matches_float_compare(p):
    rs = np.random.default_rng(int(p * 1e9) + 1)
    bound = int(unit_threshold(p))
    assert 0 <= bound <= 2**53
    # the top 53 bits decide; the 11 bits below must not
    edges = [k for k in (bound - 1, bound) if 0 <= k < 2**53]
    # each edge with the lowest, the highest and a random value of the low bits
    ks = edges * 3 + rs.integers(0, 2**53, size=200).tolist()
    low = [0] * len(edges) + [2**11 - 1] * len(edges) + rs.integers(0, 2**11, size=len(edges) + 200).tolist()
    raw = (np.array(ks, dtype=np.uint64) << np.uint64(11)) | np.array(low, dtype=np.uint64)
    assert np.array_equal(unit_bits(raw) < unit_threshold(p), _to_unit(raw) < p)
    assert np.array_equal(unit_bits(raw), np.array(ks, dtype=np.uint64))
    # the raw form compares the draws themselves against bound * 2**11
    if p < 1.0:
        assert int(raw_threshold(p)) == bound << 11
        assert np.array_equal(raw < raw_threshold(p), _to_unit(raw) < p)
    else:
        with pytest.raises(ValueError):
            raw_threshold(p)


def _reference_trial(cfg, trial_id):
    """Sent message, received word, typicality mask and codebook of the reference path."""
    detail = trial_detail(cfg, trial_id)
    mask = np.zeros(cfg.m, dtype=bool)
    mask[detail.candidates.indices - 1] = True
    codebook = _trial_codebook(cfg, derived_master(cfg), trial_id)
    return detail.record.true_w, detail.received, mask, codebook.words


KERNEL_CASES = [
    # (config, trials, BLOCK_ELEMS): m*n <= BLOCK_ELEMS puts several trials
    # in a block and splits the chunk; m*n > BLOCK_ELEMS gives one-trial
    # blocks of a few codewords, or of one codeword when n > BLOCK_ELEMS
    (TrialConfig(n=12, m=3, q=0.7, channel=bsc(0.0), eps=0.1, master_seed=3), 9, 80),
    (TrialConfig(n=12, m=3, q=0.7, channel=bsc(1.0), eps=0.1, master_seed=3), 9, 80),
    (TrialConfig(n=25, m=5, q=0.5, channel=bsc(0.05), eps=0.8, master_seed=7), 7, 60),
    (TrialConfig(n=25, m=5, q=0.5, channel=bsc(0.05), eps=0.8, master_seed=7), 7, 10),
    (TrialConfig(n=9, m=4, q=0.3, channel=bsc(0.4), eps=0.3, master_seed=11), 5, 1 << 16),
    (TrialConfig(n=6, m=3, q=0.5, channel=bsc(0.1), eps=0.3, codebook_mode="fixed", master_seed=5), 8, 4),
    (TrialConfig(n=6, m=3, q=0.5, channel=bsc(1.0), eps=0.3, codebook_mode="fixed", master_seed=5), 8, 4),
    # counts past 255 at q = 1/2, the dyadic bias whose draws skip the last xorshift
    (TrialConfig(n=600, m=3, q=0.5, channel=bsc(0.05), eps=0.8, master_seed=13), 4, 1 << 16),
    # fig1-rate's n = 200 point, whose codebooks the rule splits after a prefix
    (TrialConfig(n=200, m=256, q=0.5, channel=bsc(0.05), eps=0.8, master_seed=23), 3, 1 << 16),
]


def _prefix_length(cfg):
    """The kernel's prefix length for ``cfg``, by its own rule."""
    consts = build_context(cfg.q, cfg.channel).kernel_constants()
    return kernels.prefix_length(cfg.n, cfg.m, cfg.q, consts, cfg.eps, cfg.codebook_mode == "fixed")


def test_only_the_fig1_rate_case_takes_the_split():
    # at m <= 5 the split's own work outweighs the draws it saves, even on fig1's parameters
    assert [_prefix_length(cfg) < cfg.n for cfg, _, _ in KERNEL_CASES] == [False] * 8 + [True]


@pytest.mark.parametrize("profile", ["desk", "full"])
def test_the_rule_keeps_one_pass_on_every_fig3_point(profile):
    cfg = config.defaults(profile)
    points = [(q, n) for q in cfg["fig3_q_values"] for n in cfg["fig3_blocklengths"]]
    assert len(points) == {"desk": 54, "full": 90}[profile]
    for q, n in points:
        consts = build_context(q, bsc(cfg["fig3_channel_p"])).kernel_constants()
        assert kernels.prefix_length(n, cfg["m_messages"], q, consts, cfg["fig3_eps"], False) == n


def test_the_rule_keeps_one_pass_for_a_fixed_codebook_and_a_certain_channel():
    split = KERNEL_CASES[-1][0]
    assert _prefix_length(split) < split.n
    assert _prefix_length(replace(split, codebook_mode="fixed")) == split.n
    # a zero-probability cell: a log constant is -inf and the affine ranges do not hold
    for p in (0.0, 1.0):
        assert _prefix_length(replace(split, channel=bsc(p))) == split.n


def test_the_prefix_test_keeps_a_completion_typical_by_a_hair():
    # eps just above the largest cost deviation of one completion at a corner of the
    # rectangle, where its range ends: the mask takes that completion by one ulp, and
    # the prefix test, whose affine sums round otherwise, must keep it by its slack
    rs = np.random.default_rng(21)
    for _ in range(3000):
        n = int(rs.integers(2, 301))
        k = int(rs.integers(1, n))
        q, p = rs.uniform(0.02, 0.98), rs.uniform(0.001, 0.49)
        ctx = build_context(q, bsc(p))
        lx0, lx1, _, _, l00, l01, l10, l11, hx, hy, hxy = consts = ctx.kernel_constants()
        k1, r1 = int(rs.integers(0, k + 1)), int(rs.integers(0, n - k + 1))
        n11p, n10p = int(rs.integers(0, k1 + 1)), int(rs.integers(0, k - k1 + 1))
        # exy's least corner, or its greatest
        low = bool(rs.integers(2))
        n11 = n11p + r1 * ((l01 < l11) == low)
        n10 = n10p + (n - k - r1) * ((l00 < l10) == low)
        n1x, n1y = n11 + n10, k1 + r1
        counts = (n, n1x, n1y, n - n1x - n1y + n11, n1y - n11, n10, n11)
        eps = np.nextafter(max(abs(c - h) for c, h in zip(typicality._costs(*counts, ctx), (hx, hy, hxy))), np.inf)
        assert typicality.typical_from_counts(*counts, ctx, eps)
        keep = kernels._completable(
            n, k, np.array([[n11p + n10p]]), np.array([[n11p]]), np.array([n1y]), np.array([r1]), consts, eps
        )
        assert keep.all(), (n, k, q, p, counts)


def _segment(cfg, tid0, count):
    """Trials tid0..tid0+count-1 of ``cfg`` as one kernel segment."""
    consts = build_context(cfg.q, cfg.channel).kernel_constants()
    return kernels.Segment(derived_master(cfg), tid0, count, cfg.q, consts)


def _assert_rows_follow_the_contract(got, want, mask, w, k):
    """Typical and sent rows are whole; any other row is whole or its k-prefix and zeros."""
    whole = mask.copy()
    whole[w - 1] = True
    assert np.array_equal(got[whole], want[whole])
    rest, ref = got[~whole], want[~whole]
    assert np.array_equal(rest[:, :k], ref[:, :k])
    assert np.all(np.all(rest[:, k:] == ref[:, k:], axis=1) | ~rest[:, k:].any(axis=1))


@pytest.mark.parametrize("cfg, count, block_elems", KERNEL_CASES)
def test_simulate_trials_equals_reference_path(monkeypatch, cfg, count, block_elems):
    monkeypatch.setattr(kernels, "BLOCK_ELEMS", block_elems)
    tid0 = 40
    fixed = fixed_codebook(cfg).words if cfg.codebook_mode == "fixed" else None
    true_w, mask, ybits, xwords = kernels.simulate_trials(
        [_segment(cfg, tid0, count)], count, cfg.m, cfg.n,
        float(cfg.channel.transition[0, 1]), float(cfg.channel.transition[1, 1]), cfg.eps, fixed,
    )
    assert (true_w.dtype, mask.dtype, ybits.dtype, xwords.dtype) == (np.int64, np.bool_, np.uint8, np.uint8)
    # one layout in both modes; a fixed codebook's is a read-only view of it
    assert xwords.shape == (count, cfg.m, cfg.n)
    if fixed is None:
        assert xwords.flags.writeable
    else:
        assert not xwords.flags.writeable and np.shares_memory(xwords, fixed)
    k = _prefix_length(cfg)
    for t in range(count):
        w, y, ref_mask, words = _reference_trial(cfg, tid0 + t)
        assert true_w[t] == w
        assert np.array_equal(ybits[t], y)
        assert np.array_equal(mask[t], ref_mask)
        _assert_rows_follow_the_contract(xwords[t], words, mask[t], w, k)


NOISE_CHANNELS = [
    bsc(0.0),
    bsc(1.0),
    bsc(0.4),
    Dmc(np.array([[0.9, 0.1], [0.35, 0.65]])),
    # one probability 1 beside one below it, either way round
    Dmc(np.array([[0.7, 0.3], [0.0, 1.0]])),
    Dmc(np.array([[0.0, 1.0], [0.6, 0.4]])),
]


@pytest.mark.parametrize("block_trials", [3, 0.5])
@pytest.mark.parametrize("channel", NOISE_CHANNELS, ids=lambda c: str(c.transition.tolist()))
def test_blocked_noise_equals_the_reference_channel(monkeypatch, channel, block_trials):
    # blocks of three trials split the call's eight; half a trial's symbols make
    # every block one whole received word, past BLOCK_ELEMS
    cfg = TrialConfig(n=16, m=3, q=0.4, channel=channel, eps=0.3, master_seed=19)
    monkeypatch.setattr(kernels, "BLOCK_ELEMS", int(block_trials * cfg.n))
    tid0, count = 70, 8
    true_w, mask, ybits, xwords = kernels.simulate_trials(
        [_segment(cfg, tid0, count)], count, cfg.m, cfg.n,
        float(channel.transition[0, 1]), float(channel.transition[1, 1]), cfg.eps,
    )
    for t in range(count):
        w, y, ref_mask, words = _reference_trial(cfg, tid0 + t)
        assert true_w[t] == w
        assert np.array_equal(xwords[t], words)
        assert np.array_equal(ybits[t], y)  # core.transmit of the sent word
        assert np.array_equal(mask[t], ref_mask)
    if np.isin(channel.transition, (0.0, 1.0)).all():
        # bsc(0) or bsc(1): the received word is the sent word or its complement
        sent = xwords[np.arange(count), true_w - 1]
        assert np.array_equal(ybits, sent if channel.transition[0, 1] == 0.0 else 1 - sent)


def test_calls_through_one_codebook_buffer_keep_the_row_contract():
    # one buffer serves calls of different n and k in turn, as in a sweep; it starts
    # all ones, and the split point's second call lands where its first call wrote
    # survivors' tails, so every row a call leaves undrawn must be zeroed by it
    split = TrialConfig(n=50, m=16, q=0.5, channel=bsc(0.05), eps=0.8, master_seed=17)
    plain = TrialConfig(n=40, m=4, q=0.3, channel=bsc(0.2), eps=0.4, master_seed=5)
    longer = replace(split, n=60)
    assert _prefix_length(split) < split.n and _prefix_length(longer) < longer.n
    assert _prefix_length(plain) == plain.n
    count = 6
    buffer = np.ones(count * 16 * 60, dtype=np.uint8)
    for cfg, tid0 in [(split, 0), (plain, 0), (longer, 3), (split, 6), (split, 0)]:
        args = (
            [_segment(cfg, tid0, count)], count, cfg.m, cfg.n,
            float(cfg.channel.transition[0, 1]), float(cfg.channel.transition[1, 1]), cfg.eps, None,
        )
        true_w, mask, ybits, xwords = kernels.simulate_trials(*args, buffer)
        assert np.shares_memory(xwords, buffer)
        alone = kernels.simulate_trials(*args)
        for got, want in zip((true_w, mask, ybits, xwords), alone):
            assert np.array_equal(got, want)
        for t in range(count):
            w, _, ref_mask, words = _reference_trial(cfg, tid0 + t)
            assert np.array_equal(mask[t], ref_mask)
            _assert_rows_follow_the_contract(xwords[t], words, mask[t], w, _prefix_length(cfg))


@pytest.mark.parametrize("channel", [bsc(0.4), bsc(0.0)], ids=["bsc0.4", "bsc0"])
def test_a_call_of_several_points_equals_their_one_point_calls(monkeypatch, channel):
    # three points of one (m, n, channel, eps), five trials each, in two calls of 8 and 7
    # trials: the middle point is split across them, and blocks of three trials mix a
    # non-dyadic q with the dyadic 0.5, whose last xorshift is skipped only alone;
    # bsc(0) has a probability 1, so its noise takes the unit-bit path
    cfgs = [
        TrialConfig(n=12, m=3, q=q, channel=channel, eps=0.25, master_seed=s) for q, s in ((0.3, 1), (0.5, 2), (0.7, 3))
    ]
    assert all(_prefix_length(cfg) == cfg.n for cfg in cfgs)
    monkeypatch.setattr(kernels, "BLOCK_ELEMS", 3 * 3 * 12)
    t0, t1 = float(channel.transition[0, 1]), float(channel.transition[1, 1])

    def call(segments):
        count = sum(segment.count for segment in segments)
        return kernels.simulate_trials(segments, count, 3, 12, t0, t1, 0.25)

    first = call([_segment(cfgs[0], 40, 5), _segment(cfgs[1], 40, 3)])
    second = call([_segment(cfgs[1], 43, 2), _segment(cfgs[2], 40, 5)])
    joined = [np.concatenate(arrays) for arrays in zip(first, second)]
    alone = [np.concatenate(arrays) for arrays in zip(*(call([_segment(cfg, 40, 5)]) for cfg in cfgs))]
    for got, want in zip(joined, alone):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert joined[1].any() and not joined[1].all()


def test_counts_are_exact_past_the_float16_range(monkeypatch):
    # float32 block products count exactly; at n = 5000 the counts pass 2048,
    # beyond which float16 would round odd sums, and blocks of two codewords
    # split every trial
    monkeypatch.setattr(kernels, "BLOCK_ELEMS", 2 * 5000)
    rs = np.random.default_rng(5)
    words = (rs.random((3, 5, 5000)) < 0.5).astype(np.uint8)
    ybits = (rs.random((3, 5000)) < 0.5).astype(np.uint8)
    # each trial's own codebook, and one codebook shared as a fixed one is
    for shared in (words, np.broadcast_to(words[0], words.shape)):
        n1x, n11 = kernels._count(shared, ybits)
        wide = shared.astype(np.int64)
        assert np.array_equal(n1x, wide.sum(axis=2))
        assert np.array_equal(n11, (wide & ybits[:, None, :]).sum(axis=2))
    assert n1x.max() > 2048
    # past 2**24 symbols a float32 sum could round, so the count refuses
    # (np.zeros maps these pages lazily; nothing is touched)
    with pytest.raises(ValueError, match="2\\*\\*24"):
        kernels._count(np.zeros((1, 2, 1 << 24), np.uint8), np.zeros((1, 1 << 24), np.uint8))


@pytest.mark.parametrize("mode", ["redraw", "fixed", "split"])
def test_each_symbol_is_drawn_once(monkeypatch, mode):
    # blocks of two codewords of one trial: the sent word lies in one of them; the
    # rule splits the split case's codebooks (fig1's parameters at m = 16) after a prefix
    if mode == "split":
        cfg = TrialConfig(n=50, m=16, q=0.5, channel=bsc(0.05), eps=0.8, master_seed=17)
    else:
        cfg = TrialConfig(n=10, m=5, q=0.5, channel=bsc(0.1), eps=0.3, codebook_mode=mode, master_seed=17)
    monkeypatch.setattr(kernels, "BLOCK_ELEMS", 2 * cfg.n)
    fixed = fixed_codebook(cfg).words if mode == "fixed" else None
    args = (
        [_segment(cfg, 0, 6)], 6, cfg.m, cfg.n,
        float(cfg.channel.transition[0, 1]), float(cfg.channel.transition[1, 1]), cfg.eps, fixed,
    )
    draws = []

    def spy(draw):
        def counted(*a, **kw):
            out = draw(*a, **kw)
            draws.append(out.size)
            return out

        return counted

    # the codebook blocks are drawn in place by raw_below and the noise blocks
    # by the kernel's own finalize call; the message is drawn through
    # uniforms_at and the stream states through rng.finalize, neither of
    # which is counted
    for name in ("raw_below", "finalize"):
        monkeypatch.setattr(kernels, name, spy(getattr(kernels, name)))
    # the prefix test's verdicts, as it returned them
    verdicts = []
    test = kernels._completable

    def completable(*a):
        keep = test(*a)
        verdicts.append(keep.copy())
        return keep

    monkeypatch.setattr(kernels, "_completable", completable)
    true_w = kernels.simulate_trials(*args)[0]
    if mode == "split":
        k, (keep,) = _prefix_length(cfg), verdicts
        # the sent rows are whole whatever their verdict; the other survivors get tails
        keep[np.arange(6), true_w - 1] = False
        survivors = int(keep.sum())
        assert k < cfg.n and 0 < survivors < 6 * (cfg.m - 1)
        # each trial's prefixes and sent tail, then the tails of the surviving other rows
        assert sum(draws) == 6 * (cfg.m * k + cfg.n - k) + survivors * (cfg.n - k) + 6 * cfg.n
        assert sum(draws) - 6 * cfg.n < 6 * cfg.m * cfg.n
        return
    assert verdicts == []
    codebook_words = cfg.m if fixed is None else 0
    assert sum(draws) == 6 * (codebook_words + 1) * cfg.n


def _call_counts(monkeypatch, cfg, trials, call_budget):
    """Trials per kernel call of ``run_trials`` under a patched ``CALL_BYTES``, and its batch."""
    monkeypatch.setattr(montecarlo, "CALL_BYTES", call_budget)
    monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 64)
    counts = []
    simulate = kernels.simulate_trials

    def spy(*args, **kwargs):
        counts.append(args[1])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(kernels, "simulate_trials", spy)
    return counts, run_trials(cfg, trials)


def test_chunks_are_capped_by_the_byte_budget(monkeypatch):
    cfg = TrialConfig(n=20, m=4, q=0.4, channel=bsc(0.2), eps=0.4, master_seed=31)
    monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 64)
    whole = run_trials(cfg, 7)
    # 468 bytes per trial: a budget of two and a half trials allows two per kernel call
    assert call_bytes(cfg.m, cfg.n) == 468
    counts, capped = _call_counts(monkeypatch, cfg, 7, 1170)
    assert counts == [2, 2, 2, 1]
    assert _batches_equal(capped, whole)


def test_a_trial_over_the_call_budget_runs_alone(monkeypatch):
    cfg = TrialConfig(n=20, m=4, q=0.4, channel=bsc(0.2), eps=0.4, master_seed=31)
    monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 64)
    whole = run_trials(cfg, 7)
    counts, alone = _call_counts(monkeypatch, cfg, 7, call_bytes(cfg.m, cfg.n) - 1)
    assert counts == [1] * 7
    assert _batches_equal(alone, whole)


FOOTPRINT_CASES = [
    # small n and large m (scan arrays dominate), the fig1-rate shape, and
    # large n with small m (the noise draws, made while the codebook is
    # held, dominate)
    TrialConfig(n=8, m=2048, q=0.5, channel=bsc(0.05), eps=0.8),
    TrialConfig(n=20, m=1024, q=0.5, channel=bsc(0.05), eps=0.8),
    TrialConfig(n=200, m=256, q=0.5, channel=bsc(0.05), eps=0.8),
    TrialConfig(n=600, m=4, q=0.5, channel=bsc(0.4), eps=0.1),
    TrialConfig(n=20, m=1024, q=0.5, channel=bsc(0.05), eps=0.8, codebook_mode="fixed"),
]


@pytest.mark.parametrize("cfg", FOOTPRINT_CASES, ids=lambda c: f"{c.codebook_mode}-n{c.n}-m{c.m}")
def test_a_kernel_call_stays_within_its_measured_footprint(cfg):
    # as many trials as the executor puts in one call of this shape
    count = min(montecarlo.DEFAULT_CHUNK, montecarlo.CALL_BYTES // call_bytes(cfg.m, cfg.n))
    fixed = fixed_codebook(cfg).words if cfg.codebook_mode == "fixed" else None
    args = (
        [_segment(cfg, 0, count)], count, cfg.m, cfg.n,
        float(cfg.channel.transition[0, 1]), float(cfg.channel.transition[1, 1]), cfg.eps, fixed,
    )
    tracemalloc.start()
    try:
        out = kernels.simulate_trials(*args)
        del out
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    footprint = count * call_bytes(cfg.m, cfg.n)
    assert peak <= footprint + 2 * kernels.BLOCK_ELEMS * 8
    if fixed is None:
        # and the constants are not padded: a redrawn codebook call fills most of it
        assert peak >= 0.75 * footprint


@pytest.mark.parametrize("n", [20, 120])
def test_a_call_of_several_points_stays_within_the_footprint_of_its_trials(n):
    # fig3's nine points of one blocklength share a call, each trial scanned against
    # its own point's constants: the call still takes call_bytes a trial
    cfgs = [TrialConfig(n=n, m=4, q=q / 10, channel=bsc(0.4), eps=0.1) for q in range(1, 10)]
    count = min(montecarlo.DEFAULT_CHUNK, montecarlo.CALL_BYTES // call_bytes(4, n))
    sizes = [count // 9 + (i < count % 9) for i in range(9)]
    segments = [_segment(cfg, 0, size) for cfg, size in zip(cfgs, sizes)]
    kernels.simulate_trials(segments, count, 4, n, 0.4, 0.6, 0.1)  # the kept draw buffers
    tracemalloc.start()
    try:
        out = kernels.simulate_trials(segments, count, 4, n, 0.4, 0.6, 0.1)
        del out
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.75 * count * call_bytes(4, n) <= peak <= count * call_bytes(4, n)


@pytest.mark.parametrize("n, m, count", [(50, 4096, 1), (20, 1024, 7)])
def test_fixed_codebook_counts_without_a_wide_copy_of_the_codebook(n, m, count):
    # the shared codebook is counted as uint8 in blocks, so a call stays within
    # the footprint it is sized by, yet scans as the (count, n) @ (n, m) int64
    # product did; that product's int64 copy of the codebook (8 bytes per symbol,
    # 1.6 MB at n = 50, m = 4096) took one trial's call to a 1.9 MB peak
    cfg = TrialConfig(n=n, m=m, q=0.5, channel=bsc(0.05), eps=0.8, codebook_mode="fixed")
    ctx = build_context(cfg.q, cfg.channel)
    words = fixed_codebook(cfg).words
    args = (
        [_segment(cfg, 0, count)], count, cfg.m, cfg.n,
        float(cfg.channel.transition[0, 1]), float(cfg.channel.transition[1, 1]), cfg.eps, words,
    )
    tracemalloc.start()
    try:
        true_w, mask, ybits, xwords = kernels.simulate_trials(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert xwords.shape == (count, m, n) and np.shares_memory(xwords, words)
    assert peak <= count * call_bytes(m, n)
    wide = words.astype(np.int64)
    n11 = ybits.astype(np.int64) @ wide.T
    n1x = np.broadcast_to(wide.sum(axis=1), (count, m))
    n1y = ybits.sum(axis=1, dtype=np.int64)
    expected = kernels._typicality_mask(n, n1x, n1y, n11, ctx.kernel_constants(), cfg.eps)
    assert np.array_equal(mask, expected)
    assert mask.any()


def test_a_fixed_codebook_call_returns_a_shared_view_that_the_index_rule_reads_in_place():
    # the kernel hands every trial the one codebook as a read-only (count, m, n) view, and
    # decoders.index_decided reads its rows by (trial, codeword) without copying the view
    cfg = TrialConfig(n=200, m=256, q=0.5, channel=bsc(0.05), eps=0.8, codebook_mode="fixed", master_seed=23)
    words = fixed_codebook(cfg).words
    count = 16
    *_, xwords = kernels.simulate_trials(
        [_segment(cfg, 0, count)], count, cfg.m, cfg.n,
        float(cfg.channel.transition[0, 1]), float(cfg.channel.transition[1, 1]), cfg.eps, words,
    )
    assert xwords.shape == (count, cfg.m, cfg.n) and np.shares_memory(xwords, words)
    # every codeword a candidate of every trial, as many rows as the rule can be given, and
    # three a trial, which the cluster resolvers' pairwise compares read
    every = np.ones((count, cfg.m), dtype=bool)
    three = np.zeros_like(every)
    three[:, [5, 80, 200]] = True
    trials, copied = np.arange(count), np.ascontiguousarray(xwords)
    for cands in (every, three):
        for resolver in decoders.RESOLVERS:
            tracemalloc.start()
            try:
                decided = decoders.index_decided(xwords, cands, cands.sum(axis=1), trials, resolver, 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < xwords.size / 4
            on_copy = decoders.index_decided(copied, cands, cands.sum(axis=1), trials, resolver, 3)
            assert np.array_equal(decided, on_copy)
            # random rows: only three distinct rows under a cluster resolver are decided
            assert decided.tolist() == [cands is three and resolver != "svm"] * count
