"""Property tests: the batch paths against the per-trial reference, on random inputs.

Example budgets are fixed and generation is derandomized, so every run
checks the same cases.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weaktyp import decoders, kernels, montecarlo
from weaktyp.core import bsc, draw_message
from weaktyp.decoders import (
    RESOLVERS,
    CandidateSet,
    DecodeOutcome,
    PackedTrials,
    resolve_batch,
    weak_outcome,
)
from weaktyp.montecarlo import (
    CODEBOOK_MODES,
    TrialBatch,
    TrialConfig,
    derived_master,
    fixed_codebook,
    iter_points,
    run_trial,
    run_trials,
    trial_detail,
)
from weaktyp.rng import PURPOSE_MESSAGE, RngStream, stream_states, trial_stream
from weaktyp.typicality import build_context


def fixed_budget(examples):
    return settings(max_examples=examples, derandomize=True, deadline=None, database=None)


@st.composite
def trial_setups(draw):
    cfg = TrialConfig(
        n=draw(st.integers(1, 64)),
        m=draw(st.integers(2, 8)),
        q=draw(st.floats(0.05, 0.95)),
        # the noiseless and the always-flipping channel put the thresholds at 0 and 2**53
        channel=bsc(draw(st.one_of(st.floats(0.0, 0.49), st.sampled_from((0.0, 1.0))))),
        eps=draw(st.floats(0.01, 2.0)),
        resolver=draw(st.sampled_from(RESOLVERS)),
        k_max=draw(st.integers(1, 4)),
        codebook_mode=draw(st.sampled_from(CODEBOOK_MODES)),
        master_seed=draw(st.integers(0, 2**63)),
    )
    # small kernel blocks split a chunk into several, or a trial into ranges of codewords
    block_elems = draw(st.sampled_from((1, 7, 64, kernels.BLOCK_ELEMS)))
    return cfg, draw(st.integers(1, 10)), draw(st.integers(1, 6)), draw(st.integers(0, 10**6)), block_elems


def test_run_trials_equals_run_trial():
    # a multi-candidate trial whose sent word is not a candidate is lost to both decoders:
    # weak decode 0 in the batch, path none and no resolver stream in the reference; every
    # other trial's weak decode is weak_outcome on its candidate set
    lost = {2: 0, 3: 0}
    resolver_stream = montecarlo._resolver_stream

    # trial 5 is a lost triple and trial 9 a lost pair; the other multi-candidate trials resolve
    lost_pair_and_triple = (
        TrialConfig(n=12, m=4, q=0.5, channel=bsc(0.4), eps=0.1, resolver="svm", master_seed=3),
        10,
        4,
        0,
        kernels.BLOCK_ELEMS,
    )

    @fixed_budget(60)
    @given(trial_setups())
    @example(lost_pair_and_triple)
    def check(setup):
        cfg, num, chunk_size, start, block_elems = setup
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "BLOCK_ELEMS", block_elems)
            patch.setattr(montecarlo, "DEFAULT_CHUNK", chunk_size)
            batch = run_trials(cfg, num, start=start)
        for i in range(num):
            built = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    montecarlo, "_resolver_stream", lambda *key: built.append(key) or resolver_stream(*key)
                )
                detail = trial_detail(cfg, start + i)
            rec = detail.record  # TrialRecord asserts pathwise dominance
            assert rec.true_w == batch.true_w[i]
            assert rec.jt_outcome.decoded == batch.jt_decoded[i]
            assert rec.weak_outcome.decoded == batch.weak_decoded[i]
            assert rec.candidate_count == batch.candidate_counts[i]
            cands = detail.candidates
            if cands.count >= 2 and rec.true_w not in cands.indices:
                assert batch.weak_decoded[i] == 0
                assert rec.weak_outcome == DecodeOutcome(0, cands.count, "none")
                assert not built
                lost[cands.count] = lost.get(cands.count, 0) + 1
            else:
                rng = resolver_stream(derived_master(cfg), start + i)
                assert rec.weak_outcome == weak_outcome(cands, cfg.resolver, rng, cfg.k_max)[0]

    check()
    assert lost[2] and lost[3], lost


@st.composite
def split_setups(draw):
    """A redraw config, a prefix length k in 1..n-1, a trial count and a kernel block size.

    The channel and the window are log-uniform, so a quiet channel and a
    narrow window, where prefixes are rejected, come up often; the edges
    (q within 1e-6 of 0 or 1, the noiseless and the always-flipping
    channel, whose -inf log constants let no prefix be rejected) are
    pinned examples of the test.
    """
    n = draw(st.integers(2, 300))
    cfg = TrialConfig(
        n=n,
        m=draw(st.integers(2, 64)),
        q=draw(st.floats(0.01, 0.99)),
        channel=bsc(draw(st.floats(math.log(0.001), math.log(0.49)).map(math.exp))),
        eps=draw(st.floats(math.log(0.01), math.log(2.0)).map(math.exp)),
        master_seed=draw(st.integers(0, 2**63)),
    )
    block_elems = draw(st.sampled_from((1, 7, 64, kernels.BLOCK_ELEMS)))
    # a longer prefix rejects more, so the later half is drawn as often as all of 1..n-1
    k = draw(st.one_of(st.integers(1, n - 1), st.integers(n // 2, n - 1)))
    return cfg, k, draw(st.integers(1, 6)), block_elems


def _split_edge(n, m, q, p, eps, k):
    return TrialConfig(n=n, m=m, q=q, channel=bsc(p), eps=eps, master_seed=5), k, 4, 64


def test_a_prefix_split_keeps_every_verdict_and_every_typical_row():
    # the kernel at a random prefix length against its one pass (k = n)
    hits = {"rejected_a_codeword": 0, "typical_rows": 0}

    @fixed_budget(150)
    @given(split_setups())
    @example(_split_edge(120, 16, 1e-6, 0.05, 0.8, 70))
    @example(_split_edge(120, 16, 1 - 1e-6, 0.05, 0.8, 70))
    @example(_split_edge(200, 32, 0.5, 0.0, 0.8, 112))
    @example(_split_edge(200, 32, 0.5, 1.0, 0.8, 112))
    @example(_split_edge(200, 32, 0.3, 0.0, 0.05, 20))
    def check(setup):
        cfg, k, count, block_elems = setup
        consts = build_context(cfg.q, cfg.channel).kernel_constants()
        args = (
            [kernels.Segment(derived_master(cfg), 11, count, cfg.q, consts)],
            count, cfg.m, cfg.n,
            float(cfg.channel.transition[0, 1]), float(cfg.channel.transition[1, 1]), cfg.eps, None,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "BLOCK_ELEMS", block_elems)
            patch.setattr(kernels, "prefix_length", lambda n, *rest: n)
            true_w, mask, ybits, whole = kernels.simulate_trials(*args)
            patch.setattr(kernels, "prefix_length", lambda *a: k)
            split = kernels.simulate_trials(*args)
        assert np.array_equal(split[0], true_w)
        assert np.array_equal(split[1], mask)
        assert np.array_equal(split[2], ybits)
        rows = split[3]
        # typical and sent rows are whole; every row keeps its prefix; a cut row's tail is zero
        kept = mask.copy()
        kept[np.arange(count), true_w - 1] = True
        assert np.array_equal(rows[kept], whole[kept])
        assert np.array_equal(rows[:, :, :k], whole[:, :, :k])
        cut = np.any(rows[:, :, k:] != whole[:, :, k:], axis=2)
        assert not rows[:, :, k:][cut].any()
        hits["rejected_a_codeword"] += bool(cut.any())
        hits["typical_rows"] += bool(mask.any())

    check()
    assert hits["rejected_a_codeword"] >= 40, hits
    assert hits["typical_rows"] >= 40, hits


@st.composite
def sweep_point_lists(draw):
    """1-6 sweep points drawn from one or two shapes, with the executor settings.

    n, m, resolver and k_max each come from a pool of one to three
    values, so points often share a shape (m, resolver, k_max), at
    different blocklengths, and sometimes differ in one part of it only;
    the channel and eps come from pools of one or two, so redrawn points
    of one shape and n often share kernel calls;
    the codebook mode is drawn per point, so fixed-codebook points (each
    with its own codebook, drawn from its own q and seed) pool with one
    another and with redraw points.
    """
    ns = draw(st.lists(st.integers(1, 24), min_size=1, max_size=3))
    ms = draw(st.lists(st.integers(2, 6), min_size=1, max_size=2))
    resolvers = draw(st.lists(st.sampled_from(RESOLVERS), min_size=1, max_size=2))
    k_maxes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    channel_ps = draw(st.lists(st.floats(0.0, 0.49), min_size=1, max_size=2))
    epss = draw(st.lists(st.floats(0.05, 2.0), min_size=1, max_size=2))
    seed = draw(st.integers(0, 2**63))
    cfgs = []
    for _ in range(draw(st.integers(1, 6))):
        cfgs.append(
            TrialConfig(
                n=draw(st.sampled_from(ns)),
                m=draw(st.sampled_from(ms)),
                q=draw(st.floats(0.05, 0.95)),
                channel=bsc(draw(st.sampled_from(channel_ps))),
                eps=draw(st.sampled_from(epss)),
                resolver=draw(st.sampled_from(resolvers)),
                k_max=draw(st.sampled_from(k_maxes)),
                # fixed twice as likely, so fixed points of different codebooks often share a pool
                codebook_mode=draw(st.sampled_from(CODEBOOK_MODES + ("fixed",))),
                master_seed=draw(st.sampled_from((seed, draw(st.integers(0, 2**63))))),
            )
        )
    num = draw(st.integers(1, 8))
    chunk_size = draw(st.integers(1, 6))
    start = draw(st.integers(0, 10**6))
    # small resolver blocks and pools, so a pool and a block hold trials of several points
    block_elems = draw(st.sampled_from((1, 64, 4096, decoders.BATCH_BLOCK_ELEMS)))
    pool_blocks = draw(st.sampled_from((1, 2, montecarlo.POOL_BLOCKS)))
    return cfgs, num, chunk_size, start, block_elems, pool_blocks


def test_run_points_equals_run_trials_and_run_trial(monkeypatch):
    hits = {
        "pool_spans_points": 0,
        "pool_mixes_fixed_codebooks": 0,
        "pool_spans_blocklengths": 0,
        "svm_replay_spans_blocklengths": 0,
        "point_yielded_before_its_pool_closed": 0,
        "kernel_call_spans_points": 0,
        "resolver_block_spans_blocklengths": 0,
    }
    add, flush = montecarlo._Pool.add, montecarlo._Pool.flush
    pegasos_scores = decoders._pegasos_scores
    simulate, simulate_trials = montecarlo._simulate, kernels.simulate_trials
    simulated = []
    owners = {}

    def recorded_simulate(cfgs, consts, num_trials, start, *args):
        simulated.extend(cfgs)
        owners["run"] = cfgs, num_trials, start
        return simulate(cfgs, consts, num_trials, start, *args)

    resolver_blocks = decoders._blocks

    def counted_blocks(parts):
        for block in resolver_blocks(parts):
            # a block is (c, trials, packed rows, blocklengths)
            hits["resolver_block_spans_blocklengths"] += len(set(block[3].tolist())) > 1
            yield block

    def counted_simulate_trials(segments, *args):
        hits["kernel_call_spans_points"] += len(segments) > 1
        return simulate_trials(segments, *args)

    def recorded_add(pool, trials, weak, positions):
        # the weak array of a part belongs to the run of points being simulated
        cfgs, num_trials, start = owners[id(weak)] = owners["run"]
        # every pooled trial is open: two or more candidates, its sent word typical, a set the index rule leaves;
        # position p of the run is trial start + p % num_trials of point p // num_trials
        points = [(cfgs[pos // num_trials], start + pos % num_trials) for pos in positions.tolist()]
        sent = [
            draw_message(cfg.m, RngStream(derived_master(cfg), trial_stream(t, PURPOSE_MESSAGE))) for cfg, t in points
        ]
        size, c = trials.idx.shape
        every = np.ones((size, c), dtype=bool)
        assert (
            c >= 2
            and np.all(np.any(trials.idx == np.array(sent, dtype=np.int64)[:, None] - 1, axis=1))
            and not np.any(
                decoders.index_decided(trials.z_seqs, every, every.sum(axis=1), np.arange(size), pool.resolver, pool.k_max)
            )
        )
        add(pool, trials, weak, positions)

    def counted_flush(pool):
        # a part is (trials, weak, positions)
        cfgs = [cfg for part in pool.parts for cfg in owners[id(part[1])][0]]
        hits["pool_spans_points"] += len(set(map(id, cfgs))) > 1
        fixed = {fixed_codebook(cfg).words.tobytes() for cfg in cfgs if cfg.codebook_mode == "fixed"}
        hits["pool_mixes_fixed_codebooks"] += len(fixed) > 1
        hits["pool_spans_blocklengths"] += len({part[0].n for part in pool.parts}) > 1
        flush(pool)

    def counted_scores(groups, certified):
        # one svm flush whose tie trials of several blocklengths replay in one float loop
        hits["svm_replay_spans_blocklengths"] += len({group[0] for group in groups}) > 1
        return pegasos_scores(groups, certified)

    monkeypatch.setattr(montecarlo._Pool, "add", recorded_add)
    monkeypatch.setattr(montecarlo._Pool, "flush", counted_flush)
    monkeypatch.setattr(decoders, "_pegasos_scores", counted_scores)
    monkeypatch.setattr(montecarlo, "_simulate", recorded_simulate)
    monkeypatch.setattr(kernels, "simulate_trials", counted_simulate_trials)
    monkeypatch.setattr(decoders, "_blocks", counted_blocks)

    # one svm flush over two blocklengths, c > n at the shorter, with tie trials at both
    svm_blocklengths = (
        [TrialConfig(n=n, m=6, q=0.5, channel=bsc(0.1), eps=2.0, resolver="svm") for n in (3, 20)],
        4,
        4,
        0,
        decoders.BATCH_BLOCK_ELEMS,
        montecarlo.POOL_BLOCKS,
    )

    # one cluster flush over two blocklengths, its resolver blocks spanning both; the 150
    # random cases have reached such a flush in as few as 9 flushes, as hypothesis' draws
    # vary: pin it
    cluster_blocklengths = (
        [TrialConfig(n=n, m=4, q=0.5, channel=bsc(0.2), eps=2.0) for n in (5, 12)],
        6,
        3,
        0,
        decoders.BATCH_BLOCK_ELEMS,
        montecarlo.POOL_BLOCKS,
    )

    # three points of one call shape, 4 trials each in calls of 5: every call spans two
    # points, and the middle point is split across two calls
    spanning_calls = (
        [TrialConfig(n=9, m=3, q=q, channel=bsc(0.3), eps=0.6, master_seed=4) for q in (0.3, 0.5, 0.7)],
        4,
        5,
        7,
        decoders.BATCH_BLOCK_ELEMS,
        montecarlo.POOL_BLOCKS,
    )

    # two fixed-codebook points of one shape, each its own codebook, every set open under svm
    # (eps = 2 makes every codeword typical): one flush pools both codebooks
    fixed_codebooks = (
        [
            TrialConfig(n=6, m=4, q=0.5, channel=bsc(0.2), eps=2.0, resolver="svm", codebook_mode="fixed", master_seed=s)
            for s in (1, 2)
        ],
        4,
        4,
        0,
        decoders.BATCH_BLOCK_ELEMS,
        montecarlo.POOL_BLOCKS,
    )

    # two points of one shape in runs of their own (n differs) and a pool of one byte, which
    # every part flushes: the first point is final, and yielded, before the second is simulated
    early_yield = (
        [TrialConfig(n=n, m=4, q=0.5, channel=bsc(0.2), eps=2.0, resolver="svm") for n in (6, 8)],
        4,
        4,
        0,
        1,
        1,
    )

    @fixed_budget(150)
    @given(sweep_point_lists())
    @example(svm_blocklengths)
    @example(cluster_blocklengths)
    @example(spanning_calls)
    @example(fixed_codebooks)
    @example(early_yield)
    def check(case):
        cfgs, num, chunk_size, start, block_elems, pool_blocks = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decoders, "BATCH_BLOCK_ELEMS", block_elems)
            patch.setattr(montecarlo, "POOL_BLOCKS", pool_blocks)
            patch.setattr(montecarlo, "DEFAULT_CHUNK", chunk_size)
            simulated.clear()
            batches, yielded = {}, {}
            for i, batch in iter_points(cfgs, num, start=start):
                batches[i] = batch
                # a point is yielded final: a copy taken then is its whole batch
                copies = TrialBatch(*(np.copy(getattr(batch, f.name)) for f in fields(TrialBatch)))
                yielded[i] = (copies, len(simulated))
        assert sorted(yielded) == list(range(len(cfgs)))
        batches = [batches[i] for i in range(len(cfgs))]
        for i, (copies, after) in yielded.items():
            for field in fields(TrialBatch):
                assert np.array_equal(getattr(copies, field.name), getattr(batches[i], field.name))
            shape = montecarlo._shape(cfgs[i])
            hits["point_yielded_before_its_pool_closed"] += any(
                montecarlo._shape(cfg) == shape for cfg in simulated[after:]
            )
        for cfg, batch in zip(cfgs, batches):
            alone = run_trials(cfg, num, start=start)
            for field in ("true_w", "jt_decoded", "weak_decoded", "candidate_counts"):
                assert np.array_equal(getattr(batch, field), getattr(alone, field))
            for i in range(num):
                rec = run_trial(cfg, start + i)
                assert rec.true_w == batch.true_w[i]
                assert rec.jt_outcome.decoded == batch.jt_decoded[i]
                assert rec.weak_outcome.decoded == batch.weak_decoded[i]
                assert rec.candidate_count == batch.candidate_counts[i]

    check()
    assert all(hits.values()), hits


@st.composite
def point_sets(draw):
    """A few trials of 2..8 candidates on up to 70 symbols, words drawn from a small pool.

    A pool of few distinct words gives duplicate and all-equal rows at
    every n, and n falls both below the candidate count (k-means products
    taken from the rows) and above it (from the Gram matrix).
    """
    trials = draw(st.integers(1, 6))
    m = draw(st.integers(2, 8))
    n = draw(st.integers(1, 70))
    word = st.integers(0, 2**n - 1).map(lambda v: [(v >> j) & 1 for j in range(n)])
    pool = draw(st.lists(word, min_size=1, max_size=6))
    codebook = st.lists(st.sampled_from(pool), min_size=m, max_size=m)
    # a shared codebook is every trial's, a read-only view as the kernel gives a fixed one
    shared = draw(st.booleans())
    words = np.array(draw(codebook) if shared else [draw(codebook) for _ in range(trials)], dtype=np.uint8)
    words = np.broadcast_to(words, (trials, m, n))
    received = np.array([draw(word) for _ in range(trials)], dtype=np.uint8)
    row_mask = st.lists(st.booleans(), min_size=m, max_size=m).filter(lambda r: sum(r) >= 2)
    mask = np.array([draw(row_mask) for _ in range(trials)])
    ids = st.lists(st.integers(0, 2**40), min_size=trials, max_size=trials, unique=True)
    stream_ids = np.array(draw(ids))
    master = draw(st.integers(0, 2**64 - 1))
    k_max = draw(st.integers(1, 4))
    resolver = draw(st.sampled_from(("cluster", "cluster-random")))
    return words, received, mask, stream_ids, master, k_max, resolver


@st.composite
def separated_point_sets(draw):
    """Trials whose candidates form well-separated groups of equal words, as ``point_sets`` lays them out.

    Groups a and b differ on a block of 10 symbols, and an outlier word
    differs from a on another block of 6; a bridge word has 2 of b's
    symbols.  When k-means++ seeds the outlier and b, a joins the
    outlier's cluster and the bridge joins b's, but the updated means put
    the bridge nearer the outlier's cluster, so the second assignment
    pass moves it and Lloyd runs a third pass: 14 to 28% of streams do,
    for each of the group sizes drawn here.  Rows are shuffled per trial
    and XORed with a received word, which preserves every distance.
    """
    trials = draw(st.integers(1, 4))
    n = 16 + draw(st.integers(0, 4))
    a = np.zeros(n, dtype=np.uint8)
    b, outlier, bridge = a.copy(), a.copy(), a.copy()
    b[:10] = 1
    outlier[10:16] = 1
    bridge[:2] = 1
    rows = np.array([a] * draw(st.integers(1, 3)) + [b] * draw(st.integers(2, 3)) + [outlier, bridge])
    m = rows.shape[0]
    word = st.integers(0, 2**n - 1).map(lambda v: [(v >> j) & 1 for j in range(n)])
    received = np.array([draw(word) for _ in range(trials)], dtype=np.uint8)
    words = np.array([rows[draw(st.permutations(range(m)))] for _ in range(trials)]) ^ received[:, None, :]
    ids = st.lists(st.integers(0, 2**40), min_size=trials, max_size=trials, unique=True)
    stream_ids = np.array(draw(ids))
    master = draw(st.integers(0, 2**64 - 1))
    resolver = draw(st.sampled_from(("cluster", "cluster-random")))
    return words, received, np.ones((trials, m), dtype=bool), stream_ids, master, 2, resolver


def resolve_packed(sets, resolver, k_max):
    """``resolve_batch`` on the trials ``keep`` of point sets, packed as the executor pools them.

    ``sets`` holds each set's (words, received, mask, states, keep), its
    (unpacked) codewords and received words.  Each set gives one part per
    candidate count c, of its candidates' words XOR received, packed.
    Returns each set's (decoded, iterations) by trial, 0 outside ``keep``.
    """
    parts, places = [], []
    for s, (words, received, mask, states, keep) in enumerate(sets):
        counts = mask.sum(axis=1)
        for c in np.unique(counts[keep]).tolist():
            at = np.flatnonzero(keep & (counts == c))
            idx = np.nonzero(mask[at])[1].reshape(-1, c)
            z = np.bitwise_xor(words[at[:, None], idx], received[at, None, :])
            parts.append(PackedTrials(words.shape[2], idx, np.packbits(z, axis=2), states[at]))
            places.append((s, at))
    out = [(np.zeros(len(keep), dtype=np.int64), np.zeros(len(keep), dtype=np.int64)) for *_, keep in sets]
    for (s, at), got in zip(places, resolve_batch(parts, resolver, k_max) if parts else []):
        out[s][0][at], out[s][1][at] = got.decoded, got.iterations
    return out


def open_trials(words, received, mask, stream_ids, master, resolver, k_max):
    """Mask of a point set's trials that the index rule leaves, read on their codewords as the executor reads them.

    Every set the rule decides is checked against ``weak_outcome``: it
    decodes its lowest index and draws nothing.
    """
    trials = np.arange(mask.shape[0])
    decided = decoders.index_decided(words, mask, mask.sum(axis=1), trials, resolver, k_max)
    for t in np.flatnonzero(decided):
        idx0 = np.flatnonzero(mask[t])
        z = np.bitwise_xor(words[t, idx0], received[t])
        cands = CandidateSet(indices=idx0 + 1, z_seqs=z)
        rng = RngStream(master, int(stream_ids[t]))
        outcome, clus = weak_outcome(cands, resolver, rng, k_max)
        assert outcome.decoded == idx0[0] + 1 and clus is None and rng._cursor == 0
    return ~decided


def test_batch_resolution_equals_cluster_resolve(monkeypatch):
    """``resolve_batch`` with the cluster resolvers decides as the per-trial reference, ``weak_outcome``, on random pools.

    The name keeps the per-trial wrapper ``cluster_resolve`` that the
    reference once was, so the test id stays the same.
    """
    # tiny blocks, so a call spans several lockstep blocks per candidate count
    monkeypatch.setattr(decoders, "BATCH_BLOCK_ELEMS", 8)
    hits = {
        "all_rows_equal": 0,
        "kmeans_on_fewer_distinct_rows_than_k": 0,
        "lloyd_repeat": 0,
        "gram_side": 0,
        "row_side": 0,
    }
    gram_products = decoders._gram_products

    def counted_products(x, n):
        # c <= n takes products from the Gram matrix, c > n from the rows
        hits["gram_side" if x.shape[1] <= n else "row_side"] += 1
        return gram_products(x, n)

    monkeypatch.setattr(decoders, "_gram_products", counted_products)

    # a second centroid update that moves a point is rare on sets this
    # small (about 3% of random ones at n=3, c=7, k=2): pin one
    lloyd_repeat = (
        np.array([[[0, 0, 0], [0, 1, 1], [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 0, 1]]], dtype=np.uint8),
        np.zeros((1, 3), dtype=np.uint8),
        np.ones((1, 6), dtype=bool),
        np.array([1]),
        0,
        2,
        "cluster",
    )
    # more candidates than symbols takes k-means' products from the rows;
    # the 400 random sets reach that side in 5 to 39 calls, as the modules
    # run before this one change hypothesis' draws: pin it, with a shared
    # codebook and two trials, so it is checked in every module order
    row_side = (
        np.broadcast_to(np.array([[0, 0], [0, 1], [1, 0], [1, 1], [1, 1]], dtype=np.uint8), (2, 5, 2)),
        np.array([[0, 1], [1, 1]], dtype=np.uint8),
        np.ones((2, 5), dtype=bool),
        np.array([1, 2]),
        3,
        3,
        "cluster-random",
    )
    # two distinct rows and k = 3: the third seed finds every distance 0. The reference takes the
    # lowest unchosen row, the batch its first seed; on streams 2, 6 and 8 that seed is a 1111 and
    # the reference's a 0000. The assignments, passes and cursor must not differ, and the final
    # cluster-random draw reads that cursor
    zero_total = (
        np.broadcast_to(np.array([[0, 0, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1], [1, 1, 1, 1]], dtype=np.uint8), (8, 4, 4)),
        np.zeros((8, 4), dtype=np.uint8),
        np.ones((8, 4), dtype=bool),
        np.arange(1, 9),
        0,
        3,
        "cluster-random",
    )

    # a shared codebook whose rows are all equal: the index rule decides both trials
    all_rows_equal = (
        np.broadcast_to(np.array([[1, 0, 1], [1, 0, 1], [1, 0, 1]], dtype=np.uint8), (2, 3, 3)),
        np.array([[0, 0, 0], [0, 1, 1]], dtype=np.uint8),
        np.ones((2, 3), dtype=bool),
        np.array([1, 2]),
        0,
        2,
        "cluster",
    )

    def checked(case):
        """The batch against the reference on one example; returns how many trials ran a third Lloyd pass."""
        words, received, mask, stream_ids, master, k_max, resolver = case
        states = stream_states(master, stream_ids)
        # the index rule's sets are checked on their codewords; the open rest go to the batch
        keep = open_trials(words, received, mask, stream_ids, master, resolver, k_max)
        ((decoded, iterations),) = resolve_packed([(words, received, mask, states, keep)], resolver, k_max)
        for t in range(mask.shape[0]):
            idx0 = np.flatnonzero(mask[t])
            z = np.bitwise_xor(words[t, idx0], received[t])
            hits["all_rows_equal"] += bool(np.all(z == z[0]))
            if not keep[t]:
                continue
            cands = CandidateSet(indices=idx0 + 1, z_seqs=z)
            rng = RngStream(master, int(stream_ids[t]))
            assert rng.state == states[t]
            outcome, clus = weak_outcome(cands, resolver, rng, k_max)
            assert decoded[t] == outcome.decoded
            assert iterations[t] == clus.iterations_used
            # where both paths take the zero-total fallback seed and reseed an emptied cluster
            hits["kmeans_on_fewer_distinct_rows_than_k"] += len({r.tobytes() for r in z}) < clus.k
        # the first pass never converges; a third means centroids moved a point
        repeats = int(np.count_nonzero(iterations > 2))
        hits["lloyd_repeat"] += repeats
        return repeats

    @fixed_budget(400)
    @given(point_sets())
    @example(lloyd_repeat)
    @example(row_side)
    @example(zero_total)
    @example(all_rows_equal)
    def check(case):
        checked(case)

    separated = {"examples": 0, "lloyd_repeat": 0}

    @fixed_budget(100)
    @given(separated_point_sets())
    def check_separated(case):
        separated["examples"] += 1
        separated["lloyd_repeat"] += checked(case) > 0

    check()
    check_separated()
    assert all(hits.values()), hits
    # well-separated groups reach a third Lloyd pass often, not on one pinned case
    assert separated["lloyd_repeat"] >= 0.1 * separated["examples"], separated


def test_batch_resolution_with_wide_comparisons_equals_cluster_resolve(monkeypatch):
    """As the test above, with every comparison made in Python integers; the reference is ``weak_outcome``.

    The name keeps the per-trial wrapper ``cluster_resolve`` that the
    reference once was, so the test id stays the same.
    """
    # every Lloyd assignment compared by cross products in Python integers, as past c**4 n = 2**52
    nearest = decoders._nearest
    monkeypatch.setattr(decoders, "_nearest", lambda shifted, w, sq, n: nearest(shifted, w, sq, 2**52))

    @fixed_budget(100)
    @given(point_sets())
    def check(case):
        words, received, mask, stream_ids, master, k_max, resolver = case
        states = stream_states(master, stream_ids)
        keep = open_trials(words, received, mask, stream_ids, master, resolver, k_max)
        ((decoded, iterations),) = resolve_packed([(words, received, mask, states, keep)], resolver, k_max)
        for t in np.flatnonzero(keep):
            idx0 = np.flatnonzero(mask[t])
            z = np.bitwise_xor(words[t, idx0], received[t])
            cands = CandidateSet(indices=idx0 + 1, z_seqs=z)
            outcome, clus = weak_outcome(cands, resolver, RngStream(master, int(stream_ids[t])), k_max)
            assert decoded[t] == outcome.decoded
            assert iterations[t] == clus.iterations_used

    check()


def test_batch_resolution_pools_row_side_trials_across_blocklengths(monkeypatch):
    """Trials with more candidates than symbols, of two blocklengths, share a block and decide as ``weak_outcome``."""
    mixed = {"cluster": 0, "cluster-random": 0}
    blocks = decoders._blocks

    def counted_blocks(parts):
        for block in blocks(parts):
            c, _, _, ns = block
            # a row-side block holding both blocklengths
            mixed[resolver] += bool(c > ns.max() and ns.min() < ns.max())
            yield block

    monkeypatch.setattr(decoders, "_blocks", counted_blocks)
    rng = np.random.default_rng(2024)
    cases = []
    for n, first_id in ((2, 0), (3, 100)):
        words = rng.integers(0, 2, size=(6, 5, n), dtype=np.uint8)
        received = rng.integers(0, 2, size=(6, n), dtype=np.uint8)
        cases.append((words, received, np.ones((6, 5), dtype=bool), np.arange(first_id, first_id + 6)))
    master, k_max, kmeans_runs = 91, 3, 0
    for resolver in mixed:
        sets = [(words, received, mask, stream_states(master, ids), mask.any(axis=1)) for words, received, mask, ids in cases]
        for (words, received, mask, ids), (decoded, iterations) in zip(cases, resolve_packed(sets, resolver, k_max)):
            for t in range(mask.shape[0]):
                cands = CandidateSet(indices=np.arange(1, 6), z_seqs=np.bitwise_xor(words[t], received[t]))
                outcome, clus = weak_outcome(cands, resolver, RngStream(master, int(ids[t])), k_max)
                assert decoded[t] == outcome.decoded
                assert iterations[t] == (clus.iterations_used if clus else 0)
                kmeans_runs += clus is not None
    assert all(mixed.values()), mixed
    assert kmeans_runs > 0


@st.composite
def sets_with_repeated_rows(draw):
    """c candidates over d < c distinct rows (d >= 2) in shuffled order, and a k_max above d."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(2, min(5, 2**n)))
    distinct = draw(st.lists(st.integers(0, 2**n - 1), min_size=d, max_size=d, unique=True))
    c = draw(st.integers(d + 1, 9))
    values = distinct + draw(st.lists(st.sampled_from(distinct), min_size=c - d, max_size=c - d))
    values = draw(st.permutations(values))
    rows = np.array([[(v >> j) & 1 for j in range(n)] for v in values], dtype=np.uint8)
    k_max = draw(st.integers(d + 1, c + 1))
    resolver = draw(st.sampled_from(("cluster", "cluster-random")))
    return rows, d, k_max, resolver, draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 2**40))


@fixed_budget(300)
@given(sets_with_repeated_rows())
def test_cluster_resolution_ignores_k_max_above_the_distinct_rows(case):
    # clusters past the d distinct rows are seeded by the zero-total fallback, lose every
    # tie and are reseeded once empty, yet change no decode, pass count or assignment
    rows, d, k_max, resolver, master, stream_id = case
    cands = CandidateSet(indices=np.arange(1, rows.shape[0] + 1), z_seqs=rows)
    above, clus_above = weak_outcome(cands, resolver, RngStream(master, stream_id), k_max)
    at_d, clus_d = weak_outcome(cands, resolver, RngStream(master, stream_id), d)
    assert clus_above.k > d == clus_d.k
    assert above.decoded == at_d.decoded
    assert clus_above.iterations_used == clus_d.iterations_used
    assert np.array_equal(clus_above.assignments, clus_d.assignments)


@st.composite
def index_rule_sets(draw):
    """c = 2..6 candidate codewords among m, over at most d <= c distinct rows, a received word, resolver and k_max 1..4."""
    n = draw(st.integers(1, 24))
    c = draw(st.integers(2, 6))
    # d < c forces a repeated row; d = 1 makes every row equal
    d = draw(st.integers(1, c))
    distinct = draw(st.lists(st.integers(0, 2**n - 1), min_size=d, max_size=d))
    values = draw(st.permutations(distinct + draw(st.lists(st.sampled_from(distinct), min_size=c - d, max_size=c - d))))
    m = c + draw(st.integers(0, 3))
    positions = sorted(draw(st.lists(st.integers(0, m - 1), min_size=c, max_size=c, unique=True)))
    words = np.array([[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(m)], dtype=np.uint8)
    words[positions] = [[(v >> j) & 1 for j in range(n)] for v in values]
    received = np.array([draw(st.integers(0, 1)) for _ in range(n)], dtype=np.uint8)
    resolver, k_max = draw(st.sampled_from(RESOLVERS)), draw(st.integers(1, 4))
    return words, np.array(positions), received, resolver, k_max, draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 2**40))


def test_the_index_rule_decodes_as_weak_outcome_and_never_on_a_set_that_draws():
    # decoders.index_decided, on a trial's codewords as the executor reads them from a kernel
    # call, redrawn or fixed, and on its packed difference words, takes a set exactly where
    # the reference makes no draw at all (so never one where cluster-random makes its
    # uniform draw), and such a set decodes its lowest index
    hits = {f"{resolver} {verdict}": 0 for resolver in RESOLVERS for verdict in ("decided", "resolved")}
    hits["repeated rows decided"] = hits["repeated rows resolved"] = 0

    def rule_set(rows, resolver, k_max):
        # the rows as every codeword of the call's trial 1, candidates all, against a zero received word
        rows = np.array(rows, dtype=np.uint8)
        return rows, np.arange(rows.shape[0]), np.zeros(rows.shape[1], dtype=np.uint8), resolver, k_max, 7, 3

    @fixed_budget(400)
    @given(index_rule_sets())
    # equal rows, decided under every resolver
    @example(rule_set([[0, 1, 1], [0, 1, 1]], "svm", 1))
    # c <= k_max distinct rows, decided under the cluster resolvers only
    @example(rule_set([[0, 1], [1, 0], [1, 1]], "cluster", 3))
    @example(rule_set([[0, 0], [1, 1]], "cluster-random", 2))
    # distinct rows past k_max, and a distinct pair under svm
    @example(rule_set([[0, 0], [0, 1], [1, 1]], "cluster", 2))
    @example(rule_set([[0, 1], [1, 1]], "svm", 2))
    # some rows repeated, but not all: never decided
    @example(rule_set([[0, 1], [0, 1], [1, 0]], "cluster-random", 4))
    def check(case):
        words, positions, received, resolver, k_max, master, stream_id = case
        m, c = words.shape[0], positions.size
        z = words[positions] ^ received
        rng = RngStream(master, stream_id)
        outcome, _ = weak_outcome(CandidateSet(indices=positions + 1, z_seqs=z), resolver, rng, k_max)
        # the set as trial 1 of a two-trial kernel call whose trial 0 has every candidate
        mask = np.zeros((2, m), dtype=bool)
        mask[0], mask[1, positions] = True, True
        call, counts, at = np.stack([np.ones_like(words), words]), mask.sum(axis=1), np.array([1])
        on_words = decoders.index_decided(call, mask, counts, at, resolver, k_max)
        # the same codewords as a fixed codebook, every trial's, as the kernel's read-only view
        on_fixed = decoders.index_decided(np.broadcast_to(words, call.shape), mask, counts, at, resolver, k_max)
        packed = np.packbits(z, axis=1)[None]
        on_packed = decoders.index_decided(packed, mask[1:, positions], np.array([c]), np.array([0]), resolver, k_max)
        assert on_words.tolist() == on_fixed.tolist() == on_packed.tolist()
        decided = bool(on_packed[0])
        assert decided == (rng._cursor == 0)
        if decided:
            assert outcome.decoded == positions[0] + 1
        hits[f"{resolver} {'decided' if decided else 'resolved'}"] += 1
        if len({row.tobytes() for row in z}) not in (1, c):
            hits[f"repeated rows {'decided' if decided else 'resolved'}"] += 1

    check()
    # a set with some rows repeated but not all is never decided
    assert hits.pop("repeated rows decided") == 0
    assert all(hits.values()), hits


@fixed_budget(200)
@given(st.integers(2, 12), st.integers(1, 10), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_kmeans_objective_never_increases_on_binary_points(num, n, k, seed):
    # integer points: each pass's objective is exact, rounded once, so no tolerance
    points = np.random.default_rng(seed).integers(0, 2, size=(num, n), dtype=np.uint8)
    trace = decoders.kmeans(points, min(k, num), RngStream(seed, 0)).objective_trace
    assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))


@st.composite
def svm_parts(draw):
    """One to three parts of a few trials of 2..8 candidates on up to 70 symbols, each part its own n.

    n + 1 runs past the unrolled tails of the BLAS dot kernels, tie
    trials of different n and c share one float replay, n < c happens,
    and a pool of few distinct words gives duplicate and all-equal
    candidate rows, and with them exact score ties.
    """
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        trials = draw(st.integers(1, 6))
        m = draw(st.integers(2, 8))
        n = draw(st.integers(1, 70))
        word = st.integers(0, 2**n - 1).map(lambda v: [(v >> j) & 1 for j in range(n)])
        pool = draw(st.lists(word, min_size=1, max_size=6))
        codebook = st.lists(st.sampled_from(pool), min_size=m, max_size=m)
        shared = draw(st.booleans())
        words = np.array(draw(codebook) if shared else [draw(codebook) for _ in range(trials)], dtype=np.uint8)
        words = np.broadcast_to(words, (trials, m, n))
        received = np.array([draw(word) for _ in range(trials)], dtype=np.uint8)
        row_mask = st.lists(st.booleans(), min_size=m, max_size=m).filter(lambda r: sum(r) >= 2)
        mask = np.array([draw(row_mask) for _ in range(trials)])
        ids = st.lists(st.integers(0, 2**40), min_size=trials, max_size=trials, unique=True)
        parts.append((words, received, mask, np.array(draw(ids))))
    master = draw(st.integers(0, 2**64 - 1))
    # blocks of one trial, of a few, or of the whole call
    block_elems = draw(st.sampled_from((1, 64, 4096)))
    # now and then a margin bound that certifies nothing, so every split trial replays
    uncertified = draw(st.sampled_from((False,) * 5 + (True,)))
    return parts, master, block_elems, uncertified


def test_batch_svm_equals_svm_resolve(monkeypatch):
    """``resolve_batch`` with ``svm`` decides as the per-trial reference, ``weak_outcome`` with ``svm``.

    The name keeps the per-trial wrapper ``svm_resolve`` that the
    reference once was, so the test id stays the same.
    """
    hits = {
        "all_rows_equal": 0,
        "even_split": 0,
        "margin_tie": 0,
        "branch_decided": 0,
        "branch_decided_c_above_n": 0,
        "score_tie": 0,
        "unflagged": 0,
        "c_above_n": 0,
        "replay_staggered_ends": 0,
        "replay_spans_blocklengths": 0,
        "uncertified_replays_every_split_trial": 0,
    }
    gram_products, exact_pegasos = decoders._gram_products, decoders._exact_pegasos
    pegasos_scores, svm_pick = decoders._pegasos_scores, decoders._svm_pick
    above_n, replayed = [], []

    def counted_products(x, n):
        # _exact_pegasos reads the product map made last
        above_n.append(x.shape[1] > n)
        return gram_products(x, n)

    def counted_exact(gram_times, labels):
        trial, sums, pick, replay = exact_pegasos(gram_times, labels)
        # a margin tie forks its trial; a score tie on the first branch alone is a score tie only
        first = sums[: labels.shape[0]]
        forked = np.bincount(trial, minlength=labels.shape[0]) > 1
        score = np.any(first == 0, axis=1) | ((first == first[np.arange(pick.size), pick][:, None]).sum(axis=1) > 1)
        decided = int(np.count_nonzero(forked & ~replay))
        hits["margin_tie"] += int(np.count_nonzero(forked))
        hits["branch_decided"] += decided
        hits["branch_decided_c_above_n"] += decided * above_n[-1]
        hits["score_tie"] += int(np.count_nonzero(score & ~forked))
        hits["unflagged"] += int(np.count_nonzero(~replay))
        return trial, sums, pick, replay

    def checked_scores(groups, certified):
        # trials of different candidate counts stop at different steps
        hits["replay_staggered_ends"] += len({z.shape[1] for _, z, _, _ in groups}) > 1
        hits["replay_spans_blocklengths"] += len({group[0] for group in groups}) > 1
        hits["c_above_n"] += any(z.shape[1] > n for n, z, _, _ in groups)
        replayed.extend(z.shape[0] for _, z, _, _ in groups)
        got = pegasos_scores(groups, certified)
        # bit for bit, not only the decoded index: the scores of the per-trial loop
        for (n, z, labels, _), scores in zip(groups, got):
            for packed, lab, score in zip(z, labels, scores):
                feats = np.hstack([np.unpackbits(packed, axis=1, count=n), np.ones((packed.shape[0], 1))])
                ref = feats @ decoders._pegasos_separator(feats, lab.astype(np.float64))
                assert score.tobytes() == ref.tobytes()
        return got

    def counted_pick(scores):
        n_pos = (scores >= 0.0).sum(axis=1)
        hits["even_split"] += int(np.count_nonzero(2 * n_pos == scores.shape[1]))
        return svm_pick(scores)

    monkeypatch.setattr(decoders, "_gram_products", counted_products)
    monkeypatch.setattr(decoders, "_exact_pegasos", counted_exact)
    monkeypatch.setattr(decoders, "_pegasos_scores", checked_scores)
    monkeypatch.setattr(decoders, "_svm_pick", counted_pick)

    # a trial of more candidates than symbols whose margin tie the branches decide; the 150
    # random cases reach one or not as the test's source moves hypothesis' draws: pin it
    branch_decided_c_above_n = (
        [
            (
                np.array([[[0, 0, 1], [0, 0, 1], [0, 0, 0], [1, 1, 0], [0, 0, 0]]], dtype=np.uint8),
                np.array([[1, 0, 1]], dtype=np.uint8),
                np.ones((1, 5), dtype=bool),
                np.array([2]),
            )
        ],
        2,
        4096,
        False,
    )

    # an uncertified flush of two parts, n = 2 with c = 3 > n and n = 4 with c = 4, beside a set
    # of equal rows at n = 2: every open trial replays in one float loop that spans both
    # blocklengths and both ends, and the exact run meets margin and score ties on the way.
    # Found by a random search, it reaches every counter of this test, so no counter rests
    # on the draws that hypothesis derives from the source of ``check``
    uncertified_two_blocklengths = (
        [
            (
                np.array([[[1, 1], [0, 0], [0, 1]], [[0, 1], [0, 1], [0, 1]]], dtype=np.uint8),
                np.array([[1, 1], [1, 0]], dtype=np.uint8),
                np.ones((2, 3), dtype=bool),
                np.array([557154, 979414]),
            ),
            (
                np.array(
                    [
                        [[1, 1, 0, 1], [0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 0, 0]],
                        [[1, 1, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [1, 0, 1, 0]],
                    ],
                    dtype=np.uint8,
                ),
                np.array([[1, 1, 1, 1], [1, 0, 0, 0]], dtype=np.uint8),
                np.ones((2, 4), dtype=bool),
                np.array([933520, 344116]),
            ),
        ],
        975634435,
        4096,
        True,
    )

    @fixed_budget(150)
    @given(svm_parts())
    @example(branch_decided_c_above_n)
    @example(uncertified_two_blocklengths)
    def check(case):
        parts, master, block_elems, uncertified = case
        replayed.clear()
        split = 0
        # the index rule's sets are checked on their codewords; the open rest go to the batch
        keeps = [open_trials(*part[:3], part[3], master, "svm", 2) for part in parts]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decoders, "BATCH_BLOCK_ELEMS", block_elems)
            if uncertified:
                patch.setattr(decoders, "_margin_slack", lambda steps, k: np.inf)
            got = resolve_packed(
                [
                    (words, received, mask, stream_states(master, stream_ids), keep)
                    for (words, received, mask, stream_ids), keep in zip(parts, keeps)
                ],
                "svm",
                2,
            )
        for (words, received, mask, stream_ids), keep, (decoded, iterations) in zip(parts, keeps, got):
            for t in np.flatnonzero(keep):
                idx0 = np.flatnonzero(mask[t])
                z = np.bitwise_xor(words[t, idx0], received[t])
                cands = CandidateSet(indices=idx0 + 1, z_seqs=z)
                outcome, clus = weak_outcome(cands, "svm", RngStream(master, int(stream_ids[t])))
                assert decoded[t] == outcome.decoded
                assert iterations[t] == clus.iterations_used
                split += 1
            equal = np.array([np.all(r[on] == r[on][0]) for r, on in zip(words, mask)])
            # under svm the index rule decides exactly the sets of equal rows
            assert np.array_equal(equal, ~keep)
            hits["all_rows_equal"] += int(equal.sum())
        if uncertified:
            assert sum(replayed) == split
            hits["uncertified_replays_every_split_trial"] += split > 0

    check()
    assert all(hits.values()), hits


def test_svm_pairs_take_their_2_means_from_the_first_draw(monkeypatch):
    # two distinct rows: k-means++ seeds row floor(2 u_0) and then the other, Lloyd's second pass
    # repeats its first, so resolve_batch labels svm pairs without the lockstep loop
    def no_lockstep(*args):
        raise AssertionError("an svm pair ran lockstep k-means")

    exact_pegasos, labelled = decoders._exact_pegasos, []

    def recorded_exact(gram_times, labels):
        labelled.append(labels)
        return exact_pegasos(gram_times, labels)

    monkeypatch.setattr(decoders, "_lockstep_kmeans", no_lockstep)
    monkeypatch.setattr(decoders, "_exact_pegasos", recorded_exact)

    @fixed_budget(100)
    @given(st.integers(1, 600), st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1))
    def check(n, trials, seed, master):
        rng = np.random.default_rng(seed)
        z = rng.integers(0, 2, size=(trials, 2, n), dtype=np.uint8)
        # make the rows of every trial distinct: equal pairs are the index rule's
        same = np.all(z[:, 0] == z[:, 1], axis=1)
        z[same, 1, rng.integers(0, n, size=int(same.sum()))] ^= 1
        stream_ids = rng.choice(2**40, size=trials, replace=False)
        states = stream_states(master, stream_ids)
        pairs = PackedTrials(n, np.tile(np.arange(2), (trials, 1)), np.packbits(z, axis=2), states)
        labelled.clear()
        (got,) = resolve_batch([pairs], "svm", 2)
        # one block, its trials in order, labelled +1 where k-means puts a row in cluster 0
        (labels,) = labelled
        for t in range(trials):
            key = (master, int(stream_ids[t]))
            outcome, clus = weak_outcome(CandidateSet(np.array([1, 2]), z[t]), "svm", RngStream(*key))
            ref = decoders.kmeans(z[t], 2, RngStream(*key))
            first = int(2 * RngStream(*key).uniform())
            assert got.decoded[t] == outcome.decoded
            assert got.iterations[t] == 2 == ref.iterations_used == clus.iterations_used
            assert ref.assignments[first] == 0 and ref.assignments[1 - first] == 1
            assert np.array_equal(labels[t] == 1, ref.assignments == 0)

    check()


@fixed_budget(80)
@given(st.integers(2, 8), st.integers(1, 600), st.integers(0, 2**32 - 1))
def test_float_pegasos_stays_within_the_slack_of_the_exact_margins_and_scores(c, n, seed):
    # the certificate: along the reference's own hits, every float margin and final score
    # is within _margin_slack of the exact 100 y_i M_i / (t - 1) and 100 M_i / T
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 2, size=(c, n), dtype=np.uint8)
    feats = np.hstack([z, np.ones((c, 1), dtype=np.uint8)]).astype(np.float64)
    k, labels = feats.astype(np.int64) @ feats.T.astype(np.int64), rng.choice([-1, 1], size=c)
    steps = decoders.SVM_EPOCHS * c
    slack = decoders._margin_slack(steps, n + 1)
    assert slack < 1.0 / steps  # certified at every c and n drawn here
    w, m = np.zeros(n + 1), np.zeros(c, dtype=np.int64)
    for t in range(1, steps + 1):
        # the reference's step, as in decoders._pegasos_separator
        i = (t - 1) % c
        eta = 1.0 / (decoders.SVM_LAMBDA * t)
        margin = labels[i] * float(feats[i] @ w)
        if t > 1:
            assert abs(margin - 100 * labels[i] * m[i] / (t - 1)) <= slack
        w *= 1.0 - eta * decoders.SVM_LAMBDA
        if margin < 1.0:
            w += (eta * labels[i]) * feats[i]
            m += labels[i] * k[:, i]
    assert np.all(np.abs(feats @ w - 100 * m / steps) <= slack)
