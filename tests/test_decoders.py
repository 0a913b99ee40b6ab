import numpy as np
import pytest

from weaktyp import decoders
from weaktyp.core import bsc, generate_codebook, hamming_diff, sequence, transmit
from weaktyp.decoders import (
    CandidateSet,
    DecodeOutcome,
    classical_outcome,
    cluster_resolve,
    find_candidates,
    kmeans,
    svm_resolve,
    weak_outcome,
)
from weaktyp.kernels import simulate_trials
from weaktyp.montecarlo import derived_master
from weaktyp.rng import RngStream
from weaktyp.typicality import build_context, is_jointly_typical


def cand_set(indices, rows):
    return CandidateSet(
        indices=np.asarray(indices, dtype=np.int64),
        z_seqs=np.asarray(rows, dtype=np.uint8),
    )


# ---------------------------------------------------------------------------
# candidate search and the two decoding rules


def test_noiseless_unique_candidate():
    cb = generate_codebook(4, 30, 0.5, RngStream(3, 0))
    ctx = build_context(0.5, bsc(0.0))
    y = cb.word(3).copy()
    cands = find_candidates(y, cb, ctx, eps=0.1)
    assert cands.indices.tolist() == [3]
    assert np.array_equal(cands.z_seqs[0], np.zeros(30, dtype=np.uint8))


def test_huge_eps_keeps_every_message():
    cb = generate_codebook(5, 12, 0.5, RngStream(4, 0))
    ctx = build_context(0.5, bsc(0.1))
    y = transmit(cb.word(2), bsc(0.1), RngStream(4, 1))
    cands = find_candidates(y, cb, ctx, eps=50.0)
    assert cands.indices.tolist() == [1, 2, 3, 4, 5]
    for j, i in enumerate(cands.indices):
        assert np.array_equal(cands.z_seqs[j], hamming_diff(cb.word(int(i)), y))


def test_candidates_match_membership_scan():
    cb = generate_codebook(3, 6, 0.5, RngStream(88, 0))
    ctx = build_context(0.5, bsc(0.1))
    eps = 0.3
    for y_int in range(2**6):
        y = np.array([(y_int >> j) & 1 for j in range(6)], dtype=np.uint8)
        expected = [
            i + 1 for i in range(3) if is_jointly_typical(cb.words[i], y, ctx, eps)
        ]
        assert find_candidates(y, cb, ctx, eps).indices.tolist() == expected


def test_jt_decode_three_cases():
    cb = generate_codebook(6, 20, 0.5, RngStream(9, 0))
    ctx = build_context(0.5, bsc(0.05))
    y = cb.word(3).copy()
    # a clean copy of word 3 sits 0.2124 below hxy per symbol; eps=0.25 covers it
    out = classical_outcome(find_candidates(y, cb, ctx, eps=0.25))
    assert out.decoded == 3 and out.path == "unique"

    # tiny eps: nothing is typical
    out = classical_outcome(find_candidates(y, cb, ctx, eps=1e-12))
    assert out.decoded == 0 and out.candidate_count == 0 and out.path == "none"

    # giant eps: everything is typical, ambiguity is an error
    out = classical_outcome(find_candidates(y, cb, ctx, eps=50.0))
    assert out.decoded == 0 and out.candidate_count == 6 and out.path == "none"


def test_weak_agrees_on_unique_and_empty():
    cb = generate_codebook(4, 25, 0.5, RngStream(10, 0))
    ctx = build_context(0.5, bsc(0.05))
    y = transmit(cb.word(2), bsc(0.05), RngStream(10, 1))
    for eps in (0.2, 1e-12):
        cands = find_candidates(y, cb, ctx, eps)
        jt = classical_outcome(cands)
        weak, _ = weak_outcome(cands, "cluster", RngStream(10, 2))
        if jt.candidate_count <= 1:
            assert weak.decoded == jt.decoded
            assert weak.path == jt.path


def test_weak_decode_pair_hand_trace():
    # candidates [1, 6] with z-weights 2 and 4: singleton clusters, the
    # largest-cluster tie goes to the cluster holding message 1
    cands = cand_set([1, 6], [sequence("000011"), sequence("111100")])
    assert cluster_resolve(cands, 2, RngStream(0, 0)) == 1


def test_weak_decode_multi_returns_candidate_member():
    cb = generate_codebook(4, 10, 0.5, RngStream(11, 0))
    ctx = build_context(0.5, bsc(0.4))
    hits = 0
    for t in range(200):
        y = transmit(cb.word(1 + t % 4), bsc(0.4), RngStream(11, t + 1))
        cands = find_candidates(y, cb, ctx, eps=0.3)
        weak, _ = weak_outcome(cands, resolver="cluster", rng=RngStream(11, 1000 + t))
        if cands.count == 0:
            assert weak.decoded == 0
        else:
            assert weak.decoded in cands.indices
            hits += int(cands.count >= 2)
    assert hits > 0  # the sweep actually exercised multi-candidate resolution


def test_outcome_validation():
    with pytest.raises(ValueError):
        DecodeOutcome(decoded=0, candidate_count=1, path="unique")
    with pytest.raises(ValueError):
        DecodeOutcome(decoded=3, candidate_count=0, path="none")
    with pytest.raises(ValueError):
        DecodeOutcome(decoded=3, candidate_count=2, path="unique")
    with pytest.raises(ValueError):
        DecodeOutcome(decoded=3, candidate_count=2, path="wat")


def test_candidate_set_validation():
    with pytest.raises(ValueError):
        cand_set([2, 2], [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        cand_set([0, 1], [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        cand_set([1, 2], [[0, 1]])


# ---------------------------------------------------------------------------
# k-means


def brute_force_best_two_partition(pts):
    """Exhaustive minimum within-cluster squared distance over 2-partitions."""
    num = len(pts)
    best, best_groups = None, None
    for mask in range(1, 2 ** (num - 1)):  # last point stays in group a, avoids mirror duplicates
        a = [i for i in range(num) if not (mask >> i) & 1]
        b = [i for i in range(num) if (mask >> i) & 1]
        if not a or not b:
            continue
        cost = 0.0
        for group in (a, b):
            centroid = pts[group].mean(axis=0)
            cost += ((pts[group] - centroid) ** 2).sum()
        if best is None or cost < best:
            best, best_groups = cost, (frozenset(a), frozenset(b))
    return best, best_groups


def test_kmeans_saturated_k():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    clus = kmeans(pts, 4, RngStream(1, 0))
    assert sorted(clus.assignments.tolist()) == [0, 1, 2, 3]
    assert clus.objective_trace[-1] == 0.0


def test_kmeans_single_cluster_mean():
    pts = np.array([[0.0, 2.0], [4.0, 6.0], [2.0, 1.0]])
    clus = kmeans(pts, 1, RngStream(1, 0))
    assert np.allclose(clus.centroids[0], pts.mean(axis=0))


def test_kmeans_reference_instance_is_brute_force_optimal():
    pts = np.array([[0, 0, 0, 0], [0, 0, 0, 1], [1, 1, 1, 0], [1, 1, 1, 1]], dtype=np.float64)
    cost, groups = brute_force_best_two_partition(pts)
    assert set(groups) == {frozenset({0, 1}), frozenset({2, 3})}

    clus = kmeans(pts, 2, RngStream(0, 0))
    got = (
        frozenset(np.flatnonzero(clus.assignments == clus.assignments[0]).tolist()),
        frozenset(np.flatnonzero(clus.assignments != clus.assignments[0]).tolist()),
    )
    assert set(got) == set(groups)
    # centroids of the two groups
    by_id = {int(clus.assignments[0]): [0, 1], int(clus.assignments[2]): [2, 3]}
    for cid, members in by_id.items():
        assert np.allclose(clus.centroids[cid], pts[members].mean(axis=0))


def test_kmeans_objective_monotone_and_fixed_point():
    rng = np.random.default_rng(12)
    for trial in range(100):
        num = int(rng.integers(2, 12))
        dim = int(rng.integers(1, 6))
        pts = rng.normal(size=(num, dim))
        k = int(rng.integers(1, num + 1))
        clus = kmeans(pts, k, RngStream(500, trial))
        trace = clus.objective_trace
        assert all(b <= a * (1 + 1e-9) + 1e-12 for a, b in zip(trace, trace[1:]))
        # converged assignments are a fixed point of one more assignment pass
        dist2 = ((pts[:, None, :] - clus.centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(np.argmin(dist2, axis=1), clus.assignments)


def test_kmeans_duplicate_points_terminate():
    pts = np.ones((3, 4))
    clus = kmeans(pts, 2, RngStream(2, 0))
    assert clus.iterations_used <= 3
    assert (clus.assignments == clus.assignments[0]).all()


def test_kmeans_validation():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans(pts, 0, RngStream(0, 0))
    with pytest.raises(ValueError):
        kmeans(pts, 4, RngStream(0, 0))
    with pytest.raises(ValueError):
        kmeans(pts, 1, RngStream(0, 0), max_iters=0)


# ---------------------------------------------------------------------------
# cluster resolution


def reference_cluster_resolve(cands, k_max, rng):
    """The resolution rule executed literally, with no shortcuts."""
    z = cands.z_seqs.astype(np.float64)
    if np.all(cands.z_seqs == cands.z_seqs[0]):
        return int(cands.indices[0])
    k = min(k_max, cands.count)
    clus = kmeans(z, k, rng)
    sizes = np.bincount(clus.assignments, minlength=k)
    best = int(sizes.max())
    winner = next(
        int(clus.assignments[i]) for i in range(cands.count) if sizes[clus.assignments[i]] == best
    )
    members = clus.assignments == winner
    m = z[members].mean(axis=0)
    d2 = ((z - m) ** 2).sum(axis=1)
    return int(cands.indices[int(np.argmin(d2))])


def test_identical_z_sequences_collapse():
    rows = [sequence("0110")] * 3
    cands = cand_set([2, 4, 9], rows)
    for k_max in (1, 2, 3):
        assert cluster_resolve(cands, k_max, RngStream(0, 0)) == 2


def test_resolver_reference_example():
    # z-weights {1, 1, 9}: the light pair forms the best 2-cluster, its
    # mean is equidistant from both members, lowest index 2 wins
    z2 = np.zeros(10, dtype=np.uint8)
    z2[0] = 1
    z5 = np.zeros(10, dtype=np.uint8)
    z5[1] = 1
    z7 = np.ones(10, dtype=np.uint8)
    z7[9] = 0
    pts = np.vstack([z2, z5, z7]).astype(np.float64)
    cost, groups = brute_force_best_two_partition(pts)
    assert set(groups) == {frozenset({0, 1}), frozenset({2})}

    cands = cand_set([2, 5, 7], [z2, z5, z7])
    # stream (0, 0) reaches the brute-force optimum; assert the whole chain
    outcome, clus = weak_outcome(cands, "cluster", RngStream(0, 0), k_max=2)
    assert outcome.decoded == 2
    assert clus is not None
    assert clus.assignments[0] == clus.assignments[1] != clus.assignments[2]


def test_resolver_clamps_k():
    cands = cand_set([1, 2], [sequence("0011"), sequence("1100")])
    # k_max above the candidate count clamps without error
    assert cluster_resolve(cands, 3, RngStream(7, 0)) == 1


def test_fast_paths_match_reference_resolution():
    rng = np.random.default_rng(99)
    checked = 0
    for trial in range(400):
        count = int(rng.integers(2, 5))
        n = int(rng.integers(2, 12))
        rows = rng.integers(0, 2, (count, n)).astype(np.uint8)
        indices = np.sort(rng.choice(np.arange(1, 10), size=count, replace=False))
        cands = cand_set(indices, rows)
        k_max = int(rng.integers(1, 5))
        mine = cluster_resolve(cands, k_max, RngStream(4242, trial))
        ref = reference_cluster_resolve(cands, k_max, RngStream(4242, trial))
        assert mine == ref, (trial, rows.tolist(), indices.tolist(), k_max)
        checked += 1
    assert checked == 400


def test_random_pick_stays_in_largest_cluster():
    z2 = np.zeros(8, dtype=np.uint8)
    z2[0] = 1
    z5 = np.zeros(8, dtype=np.uint8)
    z5[1] = 1
    z9 = np.ones(8, dtype=np.uint8)
    cands = cand_set([2, 5, 9], [z2, z5, z9])
    seen = set()
    for t in range(40):
        outcome, clus = weak_outcome(cands, "cluster-random", RngStream(1000, t), k_max=2)
        decoded = outcome.decoded
        seen.add(decoded)
        assert clus is not None
        sizes = np.bincount(clus.assignments, minlength=2)
        best = int(sizes.max())
        winner = next(
            int(clus.assignments[i]) for i in range(3) if sizes[clus.assignments[i]] == best
        )
        members = np.flatnonzero(clus.assignments == winner)
        assert decoded in cands.indices[members]
    assert len(seen) >= 2  # the random pick actually varies


def test_resolution_needs_two_candidates():
    cands = cand_set([3], [sequence("0011")])
    with pytest.raises(ValueError):
        cluster_resolve(cands, 2, RngStream(0, 0))
    with pytest.raises(ValueError):
        svm_resolve(cands, RngStream(0, 0))


# ---------------------------------------------------------------------------
# max-margin resolution


def test_svm_agrees_with_clusters_on_separated_clouds():
    # weights {1, 1} vs {9}: linearly separated
    z1 = np.zeros(10, dtype=np.uint8)
    z1[0] = 1
    z2 = np.zeros(10, dtype=np.uint8)
    z2[1] = 1
    z3 = np.ones(10, dtype=np.uint8)
    z3[9] = 0
    cands = cand_set([3, 6, 8], [z1, z2, z3])
    got_svm = svm_resolve(cands, RngStream(21, 0))
    got_cluster = cluster_resolve(cands, 2, RngStream(21, 0))
    assert got_svm == got_cluster == 3


def test_svm_degenerate_identical_points():
    cands = cand_set([4, 7], [sequence("0101")] * 2)
    assert svm_resolve(cands, RngStream(0, 0)) == 4


def test_lockstep_pegasos_scores_keep_the_sign_of_an_exact_zero():
    # two equal rows of opposite labels cancel: the reference scores them +0.0,
    # which a score taken on the signed row and then negated would turn into -0.0
    four = np.array([[0, 1, 1], [0, 1, 1], [1, 1, 1], [0, 0, 1]], dtype=np.float64)
    four_labels = np.array([1.0, -1.0, 1.0, -1.0])
    two = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.float64)
    two_labels = np.array([-1.0, 1.0])
    # signed rows label * [z, 1], the c=2 trial zero-padded to c_max = 4
    x = np.zeros((2, 4, 3))
    x[0] = four * four_labels[:, None]
    x[1, :2] = two * two_labels[:, None]
    got = decoders._pegasos_scores(x, [(1, 4), (1, 2)])
    for (feats, labels), scores in zip(((four, four_labels), (two, two_labels)), got):
        ref = feats @ decoders._pegasos_separator(feats, labels)
        assert scores[0].tobytes() == ref.tobytes()
    assert got[0][0, 1] == 0.0 and not np.signbit(got[0][0, 1])


def test_svm_two_candidates_tie_break():
    cands = cand_set([2, 6], [sequence("000011"), sequence("111100")])
    assert svm_resolve(cands, RngStream(5, 0)) == 2


def test_svm_returns_candidate_member():
    rng = np.random.default_rng(17)
    for trial in range(100):
        count = int(rng.integers(2, 5))
        rows = rng.integers(0, 2, (count, 8)).astype(np.uint8)
        indices = np.sort(rng.choice(np.arange(1, 9), size=count, replace=False))
        cands = cand_set(indices, rows)
        assert svm_resolve(cands, RngStream(7000, trial)) in indices


# ---------------------------------------------------------------------------
# symbol-relabeling equivariance of the whole decode stack


def test_symbol_flip_equivariance():
    # flip every bit and swap q for 1-q: candidates, z-sequences, and the
    # decoded indices are unchanged on a symmetric channel
    from weaktyp.montecarlo import TrialConfig

    cfg = TrialConfig(n=16, m=3, q=0.3, channel=bsc(0.4), eps=0.4, master_seed=606)
    ctx = build_context(0.3, bsc(0.4))
    ctx_flip = build_context(0.7, bsc(0.4))
    dm = derived_master(cfg)
    consts = ctx.kernel_constants()
    w, mask, ybits, xwords = simulate_trials(
        dm, 0, 300, cfg.m, cfg.n, cfg.q, 0.4, 0.6, consts, cfg.eps, None
    )
    from weaktyp.core import Codebook

    exercised = 0
    for t in range(300):
        cb = Codebook(words=xwords[t], q=0.3)
        cb_flip = Codebook(words=1 - xwords[t], q=0.7)
        y = ybits[t]
        y_flip = (1 - y).astype(np.uint8)
        cands = find_candidates(y, cb, ctx, cfg.eps)
        cands_flip = find_candidates(y_flip, cb_flip, ctx_flip, cfg.eps)
        assert cands.indices.tolist() == cands_flip.indices.tolist()
        assert np.array_equal(cands.z_seqs, cands_flip.z_seqs)
        if cands.count >= 2:
            a, _ = weak_outcome(cands, "cluster", RngStream(dm, 4 * t + 3))
            b, _ = weak_outcome(cands_flip, "cluster", RngStream(dm, 4 * t + 3))
            assert a.decoded == b.decoded
            exercised += 1
    assert exercised > 0
