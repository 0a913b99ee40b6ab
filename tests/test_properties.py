"""Property tests: the batch paths against the per-trial reference, on random inputs.

Example budgets are fixed and generation is derandomized, so every run
checks the same cases.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weaktyp import decoders, kernels, montecarlo
from weaktyp.core import bsc
from weaktyp.decoders import (
    RESOLVERS,
    CandidateSet,
    cluster_resolve_batch,
    svm_resolve_batch,
    weak_outcome,
)
from weaktyp.montecarlo import CODEBOOK_MODES, TrialConfig, run_points, run_trial, run_trials
from weaktyp.rng import RngStream, stream_states


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


@fixed_budget(60)
@given(trial_setups())
def test_run_trials_equals_run_trial(setup):
    cfg, num, chunk_size, start, block_elems = setup
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "BLOCK_ELEMS", block_elems)
        batch = run_trials(cfg, num, chunk_size=chunk_size, start=start)
    for i in range(num):
        rec = run_trial(cfg, start + i)  # TrialRecord asserts pathwise dominance
        assert rec.true_w == batch.true_w[i]
        assert rec.jt_outcome.decoded == batch.jt_decoded[i]
        assert rec.weak_outcome.decoded == batch.weak_decoded[i]
        assert rec.candidate_count == batch.candidate_counts[i]


@st.composite
def sweep_point_lists(draw):
    """1-6 sweep points drawn from one or two shapes, with the executor settings.

    (n, m), resolver and k_max each come from a pool of one or two
    values, so points often share a shape and sometimes differ in one
    part of it only; the codebook mode is drawn per point, so
    fixed-codebook points (each with its own codebook, drawn from its own
    q and seed) pool with one another and with redraw points.
    """
    shapes = draw(st.lists(st.tuples(st.integers(1, 24), st.integers(2, 6)), min_size=1, max_size=2))
    resolvers = draw(st.lists(st.sampled_from(RESOLVERS), min_size=1, max_size=2))
    k_maxes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    seed = draw(st.integers(0, 2**63))
    cfgs = []
    for _ in range(draw(st.integers(1, 6))):
        n, m = draw(st.sampled_from(shapes))
        cfgs.append(
            TrialConfig(
                n=n,
                m=m,
                q=draw(st.floats(0.05, 0.95)),
                channel=bsc(draw(st.floats(0.0, 0.49))),
                eps=draw(st.floats(0.05, 2.0)),
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
    hits = {"pool_spans_points": 0, "pool_mixes_fixed_codebooks": 0}
    flush = montecarlo._Pool.flush

    def counted_flush(pool):
        # a part's weak array belongs to its point; a fixed codebook is a broadcast view
        points = {id(part[4]) for part in pool.parts}
        hits["pool_spans_points"] += len(points) > 1
        fixed = {part[1][0].tobytes() for part in pool.parts if part[1].strides[0] == 0}
        hits["pool_mixes_fixed_codebooks"] += len(fixed) > 1
        flush(pool)

    monkeypatch.setattr(montecarlo._Pool, "flush", counted_flush)

    @fixed_budget(150)
    @given(sweep_point_lists())
    def check(case):
        cfgs, num, chunk_size, start, block_elems, pool_blocks = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decoders, "BATCH_BLOCK_ELEMS", block_elems)
            patch.setattr(montecarlo, "POOL_BLOCKS", pool_blocks)
            batches = run_points(cfgs, num, chunk_size=chunk_size, start=start)
        assert len(batches) == len(cfgs)
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
    # a 2-D words array is one codebook shared by every trial
    shared = draw(st.booleans())
    words = np.array(draw(codebook) if shared else [draw(codebook) for _ in range(trials)], dtype=np.uint8)
    received = np.array([draw(word) for _ in range(trials)], dtype=np.uint8)
    row_mask = st.lists(st.booleans(), min_size=m, max_size=m).filter(lambda r: sum(r) >= 2)
    mask = np.array([draw(row_mask) for _ in range(trials)])
    ids = st.lists(st.integers(0, 2**40), min_size=trials, max_size=trials, unique=True)
    stream_ids = np.array(draw(ids))
    master = draw(st.integers(0, 2**64 - 1))
    k_max = draw(st.integers(1, 4))
    resolver = draw(st.sampled_from(("cluster", "cluster-random")))
    return words, received, mask, stream_ids, master, k_max, resolver


def test_batch_resolution_equals_cluster_resolve(monkeypatch):
    # tiny blocks, so a call spans several lockstep blocks per candidate count
    monkeypatch.setattr(decoders, "BATCH_BLOCK_ELEMS", 8)
    hits = {
        "all_rows_equal": 0,
        "zero_total_seed": 0,
        "empty_cluster_reseed": 0,
        "lloyd_repeat": 0,
        "gram_side": 0,
        "row_side": 0,
    }
    gram_products = decoders._gram_products

    def counted_products(x):
        # c <= n takes products from the Gram matrix, c > n from the rows
        hits["gram_side" if x.shape[1] <= x.shape[2] else "row_side"] += 1
        return gram_products(x)

    monkeypatch.setattr(decoders, "_gram_products", counted_products)

    # a second centroid update that moves a point is rare on sets this
    # small (about 3% of random ones at n=3, c=7, k=2): pin one
    lloyd_repeat = (
        np.array([[0, 0, 0], [0, 1, 1], [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 0, 1]], dtype=np.uint8),
        np.zeros((1, 3), dtype=np.uint8),
        np.ones((1, 6), dtype=bool),
        np.array([1]),
        0,
        2,
        "cluster",
    )

    @fixed_budget(400)
    @given(point_sets())
    @example(lloyd_repeat)
    def check(case):
        words, received, mask, stream_ids, master, k_max, resolver = case
        states = stream_states(master, stream_ids)
        got = cluster_resolve_batch(
            mask, words, received, states, k_max, decoders.CLUSTER_PICKS[resolver]
        )
        for t in range(mask.shape[0]):
            idx0 = np.flatnonzero(mask[t])
            z = np.bitwise_xor((words if words.ndim == 2 else words[t])[idx0], received[t])
            cands = CandidateSet(indices=idx0 + 1, z_seqs=z)
            rng = RngStream(master, int(stream_ids[t]))
            assert rng.state == states[t]
            outcome, clus = weak_outcome(cands, resolver, rng, k_max)
            assert got.decoded[t] == outcome.decoded
            assert got.iterations[t] == (clus.iterations_used if clus else 0)
            hits["all_rows_equal"] += bool(np.all(z == z[0]))
        hits["zero_total_seed"] += int(np.count_nonzero(got.fallback_seeds))
        hits["empty_cluster_reseed"] += int(np.count_nonzero(got.reseeds))
        # the first pass never converges; a third means centroids moved a point
        hits["lloyd_repeat"] += int(np.count_nonzero(got.iterations > 2))

    check()
    assert all(hits.values()), hits


def test_batch_resolution_with_wide_comparisons_equals_cluster_resolve(monkeypatch):
    # every Lloyd assignment compared by 128-bit cross products, as past c**4 n = 2**52
    nearest = decoders._nearest
    monkeypatch.setattr(decoders, "_nearest", lambda shifted, w, sq, n: nearest(shifted, w, sq, 2**52))

    @fixed_budget(100)
    @given(point_sets())
    def check(case):
        words, received, mask, stream_ids, master, k_max, resolver = case
        got = cluster_resolve_batch(
            mask, words, received, stream_states(master, stream_ids), k_max, decoders.CLUSTER_PICKS[resolver]
        )
        for t in range(mask.shape[0]):
            idx0 = np.flatnonzero(mask[t])
            z = np.bitwise_xor((words if words.ndim == 2 else words[t])[idx0], received[t])
            cands = CandidateSet(indices=idx0 + 1, z_seqs=z)
            outcome, clus = weak_outcome(cands, resolver, RngStream(master, int(stream_ids[t])), k_max)
            assert got.decoded[t] == outcome.decoded
            assert got.iterations[t] == (clus.iterations_used if clus else 0)

    check()


@fixed_budget(200)
@given(st.integers(2, 12), st.integers(1, 10), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_kmeans_objective_never_increases_on_binary_points(num, n, k, seed):
    # integer points: each pass's objective is exact, rounded once, so no tolerance
    points = np.random.default_rng(seed).integers(0, 2, size=(num, n), dtype=np.uint8)
    trace = decoders.kmeans(points, min(k, num), RngStream(seed, 0)).objective_trace
    assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))


@st.composite
def svm_point_sets(draw):
    """A few trials of 2..8 candidates on up to 70 symbols, words drawn from a small pool.

    n + 1 runs past the unrolled tails of the BLAS dot kernels, and a
    pool of few distinct words gives duplicate and all-equal candidate rows.
    """
    trials = draw(st.integers(1, 6))
    m = draw(st.integers(2, 8))
    n = draw(st.integers(1, 70))
    word = st.integers(0, 2**n - 1).map(lambda v: [(v >> j) & 1 for j in range(n)])
    pool = draw(st.lists(word, min_size=1, max_size=6))
    codebook = st.lists(st.sampled_from(pool), min_size=m, max_size=m)
    shared = draw(st.booleans())
    words = np.array(draw(codebook) if shared else [draw(codebook) for _ in range(trials)], dtype=np.uint8)
    received = np.array([draw(word) for _ in range(trials)], dtype=np.uint8)
    row_mask = st.lists(st.booleans(), min_size=m, max_size=m).filter(lambda r: sum(r) >= 2)
    mask = np.array([draw(row_mask) for _ in range(trials)])
    ids = st.lists(st.integers(0, 2**40), min_size=trials, max_size=trials, unique=True)
    stream_ids = np.array(draw(ids))
    master = draw(st.integers(0, 2**64 - 1))
    # blocks of one trial, of a few, or of the whole call
    block_elems = draw(st.sampled_from((1, 64, 4096)))
    return words, received, mask, stream_ids, master, block_elems


def test_batch_svm_equals_svm_resolve(monkeypatch):
    hits = {
        "all_rows_equal": 0,
        "even_split": 0,
        "staggered_ends": 0,
        "fallback": 0,
        "pattern_slots": 0,
        "column_slots": 0,
    }
    pegasos_scores, svm_pick, ddot_margins = decoders._pegasos_scores, decoders._svm_pick, decoders._ddot_margins

    def checked_scores(x, groups):
        # groups of different candidate counts stop at different steps
        hits["staggered_ends"] += len(groups) > 1
        # columns share a slot per pattern when 2**c_max patterns fit in n + 1 columns
        pattern = 2 ** x.shape[1] <= x.shape[2]
        hits["pattern_slots"] += pattern
        hits["column_slots"] += not pattern
        # the signed rows label * [z, 1] carry their labels in the bias column
        refs, at = [], 0
        for size, c in groups:
            lab = x[at : at + size, :c, -1].copy()
            refs.append((x[at : at + size, :c] * lab[:, :, None], lab))
            at += size
        got = pegasos_scores(x, groups)
        # bit for bit, not only the decoded index: the scores of the per-trial loop
        for (f, lab), scores in zip(refs, got):
            for i in range(f.shape[0]):
                ref = f[i] @ decoders._pegasos_separator(f[i], lab[i])
                assert scores[i].tobytes() == ref.tobytes()
        return got

    def counted_pick(scores):
        n_pos = (scores >= 0.0).sum(axis=1)
        hits["even_split"] += int(np.count_nonzero(2 * n_pos == scores.shape[1]))
        return svm_pick(scores)

    def counted_margins(x, slot, w, trials, r):
        # slot sums too close to 1 to decide: the reference ddot decides
        hits["fallback"] += trials.size
        return ddot_margins(x, slot, w, trials, r)

    monkeypatch.setattr(decoders, "_pegasos_scores", checked_scores)
    monkeypatch.setattr(decoders, "_svm_pick", counted_pick)
    monkeypatch.setattr(decoders, "_ddot_margins", counted_margins)

    @fixed_budget(150)
    @given(svm_point_sets())
    def check(case):
        words, received, mask, stream_ids, master, block_elems = case
        states = stream_states(master, stream_ids)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decoders, "BATCH_BLOCK_ELEMS", block_elems)
            got = svm_resolve_batch(mask, words, received, states)
        for t in range(mask.shape[0]):
            idx0 = np.flatnonzero(mask[t])
            z = np.bitwise_xor((words if words.ndim == 2 else words[t])[idx0], received[t])
            cands = CandidateSet(indices=idx0 + 1, z_seqs=z)
            outcome, clus = weak_outcome(cands, "svm", RngStream(master, int(stream_ids[t])))
            assert got.decoded[t] == outcome.decoded
            assert got.iterations[t] == (clus.iterations_used if clus else 0)
            hits["all_rows_equal"] += bool(np.all(z == z[0]))

    check()
    assert all(hits.values()), hits


@fixed_budget(80)
@given(
    st.integers(2, 8),
    st.integers(1, 600),
    st.sampled_from(("uniform", "extreme")),
    st.integers(0, 2**32 - 1),
)
def test_slot_sums_stay_within_the_tolerance_of_the_ddot(c, n, weights, seed):
    # the certified margin: for any weights with |w| <= 1/lambda, the slot sum of
    # each row is within the tolerance of the reference's label * ([z, 1] @ w)
    rng = np.random.default_rng(seed)
    rows = np.hstack([rng.integers(0, 2, size=(c, n)), np.ones((c, 1), dtype=np.int64)])
    labels = rng.choice([-1, 1], size=c)
    x = (rows * labels[:, None]).astype(np.int8)[None]
    slot, sizes, signs = decoders._column_slots(x)
    p = sizes.shape[1]
    assert p == (2**c if 2**c <= n + 1 else n + 1)
    bound = 1.0 / decoders.SVM_LAMBDA
    if weights == "uniform":
        w = rng.uniform(-bound, bound, size=(1, p))
    else:
        # every weight at the bound: the largest sums, and the largest cancellations
        w = rng.choice([-bound, bound], size=(1, p))
    tol = decoders._slot_tolerance(n + 1, p)
    w_full = w[0, slot[0]]
    for i in range(c):
        approx = decoders._slot_sums(signs[:, i].astype(np.float64), sizes, w)[0]
        exact = labels[i] * float(rows[i].astype(np.float64) @ w_full)
        assert abs(approx - exact) <= tol
