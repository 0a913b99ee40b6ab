import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from weaktyp import decoders, kernels, montecarlo
from weaktyp.core import bsc, generate_codebook, hamming_diff, sequence, transmit
from weaktyp.decoders import (
    CandidateSet,
    DecodeOutcome,
    PackedTrials,
    classical_outcome,
    find_candidates,
    kmeans,
    resolve_batch,
    weak_outcome,
)
from weaktyp.kernels import Segment, simulate_trials
from weaktyp.montecarlo import TrialConfig, derived_master, run_trials
from weaktyp.rng import PURPOSE_RESOLVER, RngStream, stream_states, trial_stream
from weaktyp.typicality import build_context, is_jointly_typical


def cand_set(indices, rows):
    return CandidateSet(
        indices=np.asarray(indices, dtype=np.int64),
        z_seqs=np.asarray(rows, dtype=np.uint8),
    )


def decode(cands, resolver, rng, k_max=3):
    """The weak decode of a candidate set through the per-trial resolver entry."""
    return weak_outcome(cands, resolver, rng, k_max)[0].decoded


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
    assert decode(cands, "cluster", RngStream(0, 0), 2) == 1


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


def test_kmeans_seeds_the_lowest_unchosen_point_where_every_seeding_distance_is_zero():
    # two rows, each twice, at k = 3: once both rows are seeds every seeding distance is 0,
    # and the third seed is the lowest unchosen point, always a 0000.  Its cluster empties at
    # the first pass and is reseeded with the point farthest from it, the first 1111; a
    # third seed on the highest unchosen point, always a 1111, would leave a 0000 there
    pts = [sequence("0000"), sequence("0000"), sequence("1111"), sequence("1111")]
    firsts = set()
    for stream in range(8):
        clus = kmeans(pts, 3, RngStream(5, stream))
        firsts.add(int(clus.assignments[0]))
        assert clus.assignments.tolist() in ([0, 0, 1, 1], [1, 1, 0, 0])
        assert clus.centroids[2].tolist() == [1.0, 1.0, 1.0, 1.0]
        assert clus.iterations_used == 2
    # the first seed fell on either row
    assert firsts == {0, 1}


def test_kmeans_validation():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans(pts, 0, RngStream(0, 0))
    with pytest.raises(ValueError):
        kmeans(pts, 4, RngStream(0, 0))


# ---------------------------------------------------------------------------
# cluster resolution


def reference_cluster_resolve(cands, k_max, rng, resolver):
    """The resolution rule executed literally, with no shortcuts, in exact rationals."""
    z = cands.z_seqs
    if np.all(z == z[0]):
        return int(cands.indices[0])
    k = min(k_max, cands.count)
    clus = kmeans(z, k, rng)
    sizes = np.bincount(clus.assignments, minlength=k)
    best = int(sizes.max())
    winner = next(
        int(clus.assignments[i]) for i in range(cands.count) if sizes[clus.assignments[i]] == best
    )
    members = clus.assignments == winner
    if resolver == "cluster-random":
        # a uniform member, drawn from the stream kmeans drew from
        positions = np.flatnonzero(members)
        return int(cands.indices[positions[min(int(rng.uniform() * positions.size), positions.size - 1)]])
    mean = [Fraction(int(col.sum()), int(members.sum())) for col in z[members].T]
    d2 = [sum((int(v) - mu) ** 2 for v, mu in zip(row, mean)) for row in z]
    # the first of the least: ties to the lowest index
    return int(cands.indices[d2.index(min(d2))])


def test_identical_z_sequences_collapse():
    rows = [sequence("0110")] * 3
    cands = cand_set([2, 4, 9], rows)
    for k_max in (1, 2, 3):
        for resolver in ("cluster", "cluster-random"):
            assert decode(cands, resolver, RngStream(0, 0), k_max) == 2


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
    assert decode(cands, "cluster", RngStream(7, 0), 3) == 1


def test_fast_paths_match_reference_resolution():
    # the index rule (distinct rows, k = c) and the all-equal rule against plain
    # kmeans and the literal pick, for both cluster resolvers; pairs at k_max = 1
    # run k-means, whose single cluster's equidistant rows also decode the lowest index
    rng = np.random.default_rng(99)
    hits = {"index_rule": 0, "pair_at_k1": 0}
    for trial in range(400):
        count = int(rng.integers(2, 5))
        n = int(rng.integers(2, 12))
        rows = rng.integers(0, 2, (count, n)).astype(np.uint8)
        indices = np.sort(rng.choice(np.arange(1, 10), size=count, replace=False))
        cands = cand_set(indices, rows)
        k_max = int(rng.integers(1, 5))
        hits["pair_at_k1"] += count == 2 and k_max == 1
        hits["index_rule"] += k_max >= count == len({r.tobytes() for r in rows})
        for resolver in ("cluster", "cluster-random"):
            mine = decode(cands, resolver, RngStream(4242, trial), k_max)
            ref = reference_cluster_resolve(cands, k_max, RngStream(4242, trial), resolver)
            assert mine == ref, (trial, resolver, rows.tolist(), indices.tolist(), k_max)
    assert min(hits.values()) >= 20, hits


def test_exact_ties_go_to_the_lowest_index():
    # every candidate is exactly 2/3 from the mean [0, 1/3, 2/3, 1, 2/3]; float
    # distances to it read 0.66...669, 0.66...667 and 0.66...666
    rows = [sequence("01111"), sequence("00011"), sequence("00110")]
    cands = cand_set([1, 2, 3], rows)
    assert decode(cands, "cluster", RngStream(0, 0), 1) == 1
    states = stream_states(0, np.array([0]))
    trials = PackedTrials(5, np.arange(3)[None], np.packbits(np.array([rows]), axis=2), states)
    (got,) = resolve_batch([trials], "cluster", 1)
    assert got.decoded.tolist() == [1]
    assert got.iterations.tolist() == [2]


def test_nearest_is_exact_where_int64_products_overflow():
    rng = np.random.default_rng(8)
    trials, c = 1000, 3
    # s**2 below 2**45 and N below 2**51, as near the admission bound: products near 2**95
    b = rng.integers(2**41, 2**42, size=trials)
    d = rng.integers(2**41, 2**42, size=trials)
    a = rng.integers(0, 2**48, size=(trials, c))
    # N_i1 / d within 1 / d of N_i0 / b, and N_i2 / 5b within 1 / 5b: the closest misses on either side
    near = np.array([[x * int(z) // int(y) for x in row] for row, y, z in zip(a.tolist(), b, d)])
    misses = rng.integers(-1, 2, size=(trials, c, 2))
    # and a cluster anywhere, so products that agree mod 2**64 are compared too
    far = rng.integers(0, 2**51, size=(trials, c))
    scaled = np.stack([a, near + misses[:, :, 0], 5 * a + misses[:, :, 1], far], axis=2)
    squares = np.stack([b, d, 5 * b, rng.integers(2**41, 2**44, size=trials)], axis=1)
    # a quarter of the trials are exact three-way ties, a / b = 3a / 3b = 5a / 5b < (7a + 1) / 7b
    tie = slice(trials // 4)
    scaled[tie] = a[tie, :, None] * np.array([1, 3, 5, 7]) + np.array([0, 0, 0, 1])
    squares[tie] = b[tie, None] * np.array([1, 3, 5, 7])
    scaled = np.maximum(scaled, 0)
    assert int(scaled.max()) * int(squares.min()) >= 2**63
    weight = rng.integers(0, 64, size=(trials, c))
    shifted = scaled - squares[:, None, :] * weight[:, :, None]
    # the least N_ij / s_j**2 in Python integers, the lowest id among ties
    expected = [
        [min(range(4), key=lambda j: (Fraction(int(n_i[j]), int(s[j])), j)) for n_i in n_t]
        for n_t, s in zip(scaled, squares)
    ]
    got = decoders._nearest(shifted, weight, squares, 2**52)
    assert got.tolist() == expected
    assert not got[tie].any()
    assert set(got[trials // 4 :].ravel().tolist()) == {0, 1, 2, 3}


def test_nearest_decides_alike_from_quotients_and_from_wide_products():
    rng = np.random.default_rng(9)
    for _ in range(50):
        trials, c, n, k = 20, int(rng.integers(2, 9)), int(rng.integers(1, 40)), int(rng.integers(1, 5))
        x = rng.integers(0, 2, size=(trials, c, n), dtype=np.uint8)
        weight, gram_times = decoders._gram_products(np.packbits(x, axis=2), n)
        member = np.zeros((trials, c, k), dtype=bool)
        member[np.arange(trials)[:, None], rng.integers(0, c, size=(trials, k)), np.arange(k)] = True
        member |= rng.random((trials, c, k)) < 0.3
        size = member.sum(axis=1)
        inner = gram_times(member.astype(np.int64))
        shifted = (inner * member).sum(axis=1)[:, None, :] - 2 * size[:, None, :] * inner
        quotients = decoders._nearest(shifted, weight, size**2, n)
        # past the bound on n the same call compares cross products in Python integers
        assert np.array_equal(quotients, decoders._nearest(shifted, weight, size**2, 2**52))


def test_lockstep_kmeans_on_grams_joined_across_blocklengths_equals_per_blocklength_calls():
    # the lockstep reads a point set only through its Gram matrix, so sets of several
    # blocklengths, their packed rows zero-padded to the widest, run as one call with
    # the largest n
    rng = np.random.default_rng(12)
    c, k, trials = 8, 3, 40
    sets = {n: np.packbits(rng.integers(0, 2, size=(trials, c, n), dtype=np.uint8), axis=2) for n in (8, 17, 40)}
    states = {n: stream_states(n, np.arange(trials)) for n in sets}
    alone = [decoders._lockstep_kmeans(*decoders._gram_products(x, n), states[n], k, n) for n, x in sets.items()]
    padded = np.zeros((3 * trials, c, sets[40].shape[2]), dtype=np.uint8)
    for i, x in enumerate(sets.values()):
        padded[i * trials : (i + 1) * trials, :, : x.shape[2]] = x
    joined_states = np.concatenate(list(states.values()))
    joined = decoders._lockstep_kmeans(*decoders._gram_products(padded, 8), joined_states, k, 40)
    for got, want in zip(joined, zip(*alone)):
        assert np.array_equal(got, np.concatenate(want))
    assert len(set(joined[1].tolist())) > 1  # passes differ between sets


def test_many_candidates_on_few_symbols_resolve_from_the_rows():
    # c > n: a c x c Gram matrix would take c**2 elements; the products are taken from the rows
    c, n, k_max = 2000, 8, 3
    words = np.random.default_rng(10).integers(0, 2, size=(1, c, n), dtype=np.uint8)
    trials = PackedTrials(n, np.arange(c)[None], np.packbits(words, axis=2), stream_states(11, np.array([5])))
    tracemalloc.start()
    try:
        (got,) = resolve_batch([trials], "cluster", k_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < c * c
    ref = decode(cand_set(np.arange(1, c + 1), words[0]), "cluster", RngStream(11, 5), k_max)
    assert got.decoded.tolist() == [ref]


def test_an_emptied_cluster_is_reseeded_on_distinct_rows():
    # twelve distinct rows at k = 5: a cluster empties at the fourth Lloyd pass, in kmeans
    # and in the lockstep batch alike, and the farthest-point reseed decides the decode
    # (a reseed with point 0 would decode 6)
    rows = [
        sequence(r)
        for r in (
            "010100010010 011110010010 001000100001 010111011011 011111011011 011100010010 "
            "011000100001 010100011000 010101011010 001010100001 111100010010 110111010011"
        ).split()
    ]
    cands = cand_set(np.arange(1, 13), rows)
    states = stream_states(3872243241, np.array([5249]))
    trials = PackedTrials(12, np.arange(12)[None], np.packbits(np.array([rows]), axis=2), states)
    for resolver, expected in (("cluster", 1), ("cluster-random", 8)):
        outcome, clus = weak_outcome(cands, resolver, RngStream(3872243241, 5249), 5)
        assert (outcome.decoded, clus.iterations_used) == (expected, 6)
        (got,) = resolve_batch([trials], resolver, 5)
        assert (got.decoded.tolist(), got.iterations.tolist()) == ([expected], [6])


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
    for resolver in ("cluster", "cluster-random"):
        with pytest.raises(ValueError):
            decoders._resolve_by_clusters(cands, 2, RngStream(0, 0), resolver)
    with pytest.raises(ValueError):
        decoders._svm_by_clusters(cands, RngStream(0, 0))


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
    got_svm = decode(cands, "svm", RngStream(21, 0))
    got_cluster = decode(cands, "cluster", RngStream(21, 0), 2)
    assert got_svm == got_cluster == 3


def test_svm_degenerate_identical_points():
    cands = cand_set([4, 7], [sequence("0101")] * 2)
    assert decode(cands, "svm", RngStream(0, 0)) == 4


def pegasos_group(rows, labels):
    """A group of :func:`decoders._pegasos_scores`: (n, packed rows, int8 labels, K = G + 1) of trials of one count."""
    rows = np.asarray(rows, dtype=np.uint8)
    wide = rows.astype(np.int64)
    kernel = np.matmul(wide, wide.transpose(0, 2, 1)) + 1
    return rows.shape[2], np.packbits(rows, axis=2), np.asarray(labels, dtype=np.int8), kernel


def reference_scores(n, z, labels, _kernel=None):
    """The per-trial Pegasos scores ``[z, 1] @ w`` of each trial of a group, in float64."""
    out = []
    for packed, lab in zip(z, labels):
        feats = np.hstack([np.unpackbits(packed, axis=1, count=n), np.ones((packed.shape[0], 1))])
        out.append(feats @ decoders._pegasos_separator(feats, lab.astype(np.float64)))
    return np.array(out)


def stepwise_ways(rows, labels):
    """Exact Pegasos one step at a time on (c, n) rows, every margin tie taken both ways: M of each way.

    Step 1 hits row 0; step t >= 2 visits row i = (t - 1) mod c and hits
    where its margin 100 y_i M_i / (t - 1) is below 1.  Where it is exactly
    1 the way splits, into one without the hit and one with it, so the
    first way takes no tie as a hit.  Stops once there are more ways than
    ``SVM_BRANCHES``.
    """
    feats = np.hstack([rows, np.ones((rows.shape[0], 1), dtype=rows.dtype)]).astype(np.int64)
    k, y = feats @ feats.T, np.asarray(labels, dtype=np.int64)
    ways = [np.zeros(y.size, dtype=np.int64)]
    for t in range(1, decoders.SVM_EPOCHS * y.size + 1):
        if len(ways) > decoders.SVM_BRANCHES:
            return ways
        i = (t - 1) % y.size
        split = []
        for m in ways:
            margin = 100 * y[i] * m[i]
            if t > 1 and margin == t - 1:
                split.append(m)
            if t == 1 or margin <= t - 1:
                split.append(m + y[i] * k[:, i])
            else:
                split.append(m)
        ways = split
    return ways


def exact_pegasos(n, z, labels, _kernel=None):
    """:func:`decoders._exact_pegasos` on a group, read through the Gram products of its packed rows."""
    return decoders._exact_pegasos(decoders._gram_products(z, n)[1], labels)


def score_tie(m):
    """Whether the scores the pick reads tie on exact M: some M_i = 0, or a second row with the picked M."""
    pick = decoders._svm_pick(m[None].astype(np.float64))[0]
    return bool(np.any(m == 0) or np.count_nonzero(m == m[pick]) > 1)


def test_exact_pegasos_jumps_to_the_hits_of_the_per_step_recurrence():
    # every branch's M is the M of one way of the step-by-step recurrence that takes each
    # margin tie both ways, on c <= n and c > n sets, one branch a way; a trial's first
    # branch takes no tie as a hit; a trial replays exactly where it has more ways than
    # the cap, or some way has a score tie, or two ways pick different rows
    rng = np.random.default_rng(21)
    flags = {"forked": 0, "forked_decided": 0, "over_cap": 0, "score": 0, "none": 0}
    for c, n in ((2, 5), (3, 20), (4, 60), (4, 120), (6, 3), (7, 2)):
        rows = rng.integers(0, 2, size=(40, c, n), dtype=np.uint8)
        labels = rng.choice(np.array([-1, 1], dtype=np.int8), size=(40, c))
        trial, sums, pick, replay = exact_pegasos(*pegasos_group(rows, labels))
        for t in range(rows.shape[0]):
            ways = stepwise_ways(rows[t], labels[t])
            if len(ways) > decoders.SVM_BRANCHES:
                assert replay[t]
                flags["over_cap"] += 1
                continue
            assert sorted(map(tuple, sums[trial == t].tolist())) == sorted(map(tuple, ways))
            assert np.array_equal(sums[t], ways[0])
            picks = {int(decoders._svm_pick(m[None].astype(np.float64))[0]) for m in ways}
            assert pick[t] in picks
            assert replay[t] == (any(score_tie(m) for m in ways) or len(picks) > 1)
            flags["forked"] += len(ways) > 1
            flags["forked_decided"] += len(ways) > 1 and not replay[t]
            flags["score" if any(score_tie(m) for m in ways) else "none"] += 1
    assert all(flags.values()), flags


def fig3_svm_pool(seed, per_group):
    """Pegasos groups shaped like a fig3-svm flush, c in {2, 3, 4}, n in {20, 60, 120}, 2-means labels.

    Also returns each group's rows and the stream of each of its trials,
    which seeds the 2-means labels.
    """
    rng = np.random.default_rng(seed)
    groups, sources = [], []
    for n in (20, 60, 120):
        for c in (2, 3, 4):
            rows = rng.integers(0, 2, size=(per_group, c, n), dtype=np.uint8)
            streams = [RngStream(seed, 1000 * n + 10 * c + t) for t in range(per_group)]
            labels = [np.where(kmeans(z, 2, s).assignments == 0, 1, -1) for z, s in zip(rows, streams)]
            groups.append(pegasos_group(rows, labels))
            sources.append((rows, [RngStream(seed, s.stream_id) for s in streams]))
    return groups, sources


def test_integer_picks_without_a_tie_decode_as_svm_by_clusters():
    # a trial not flagged for the replay decodes from its integers, whatever the float
    # loop does: with no margin tie, and with margin ties whose branches all pick one row
    groups, sources = fig3_svm_pool(41, 40)
    flagged = unflagged = forked = 0
    for group, (rows, streams) in zip(groups, sources):
        trial, _, pick, replay = exact_pegasos(*group)
        for t in np.flatnonzero(~replay):
            indices = np.arange(1, rows.shape[1] + 1)
            decoded, _ = decoders._svm_by_clusters(cand_set(indices, rows[t]), streams[t])
            assert decoded == indices[pick[t]]
        forked += int(np.count_nonzero((np.bincount(trial) > 1) & ~replay))
        flagged, unflagged = flagged + int(replay.sum()), unflagged + int((~replay).sum())
    assert unflagged > 3 * flagged > 0 and forked > 0


def test_replayed_scores_of_flagged_trials_match_the_reference_bytes():
    # only the flagged trials reach the float replay, which gives the per-trial loop's
    # scores bit for bit, in groups of different c and n (c = 3 and 4: no 2-candidate
    # trial of this pool has a score tie, or branches that disagree)
    groups, _ = fig3_svm_pool(43, 40)
    flagged = []
    for n, z, labels, kernel in groups:
        tie = exact_pegasos(n, z, labels)[3]
        if tie.any():
            flagged.append((n, z[tie], labels[tie], kernel[tie]))
    assert len({group[1].shape[1] for group in flagged}) == 2 and len({group[0] for group in flagged}) == 3
    for group, scores in zip(flagged, decoders._pegasos_scores(flagged, True)):
        assert scores.tobytes() == reference_scores(*group).tobytes()


def test_lockstep_pegasos_scores_keep_the_sign_of_an_exact_zero():
    # two equal rows of opposite labels cancel: M = 0, a score tie, and the replay scores
    # them +0.0 as the reference does, which a score taken on the signed row and then
    # negated would turn into -0.0
    four = pegasos_group([[[0, 1], [0, 1], [1, 1], [0, 0]]], [[1, -1, 1, -1]])
    two = pegasos_group([[[1, 0], [0, 1]]], [[-1, 1]])
    _, sums, _, replay = exact_pegasos(*four)
    assert sums[0, 1] == 0 and replay[0]
    got = decoders._pegasos_scores([four, two], True)
    for group, scores in zip((four, two), got):
        assert scores.tobytes() == reference_scores(*group).tobytes()
    assert got[0][0, 1] == 0.0 and not np.signbit(got[0][0, 1])


def counted_ddots(monkeypatch):
    """Record every margin the replay takes by ``ddot``."""
    margins, ddot_margin = [], decoders._ddot_margin

    def counted(row, label, w):
        margins.append(ddot_margin(row, label, w))
        return margins[-1]

    monkeypatch.setattr(decoders, "_ddot_margin", counted)
    return margins


def test_pegasos_scores_with_every_margin_by_ddot_match_the_reference(monkeypatch):
    # a bound that certifies nothing flags every split trial, and the replay takes every
    # margin of every step by the reference's ddot; the decodes stay the reference's
    monkeypatch.setattr(decoders, "_margin_slack", lambda steps, k: np.inf)
    margins = counted_ddots(monkeypatch)
    replayed, pegasos_scores = [], decoders._pegasos_scores

    def checked(groups, certified):
        assert not certified
        got = pegasos_scores(groups, certified)
        for group, scores in zip(groups, got):
            assert scores.tobytes() == reference_scores(*group).tobytes()
        replayed.extend(z.shape[:2] for _, z, _, _ in groups)
        return got

    monkeypatch.setattr(decoders, "_pegasos_scores", checked)
    rng = np.random.default_rng(11)
    parts, references, split = [], [], 0
    for n, size, m in ((40, 6, 5), (2, 6, 5), (17, 5, 3)):
        rows = rng.integers(0, 2, size=(size, m, n), dtype=np.uint8)
        split += sum(not np.all(z == z[0]) for z in rows)
        states = stream_states(7, np.arange(size, dtype=np.uint64) + 100 * n)
        parts.append(PackedTrials(n, np.tile(np.arange(m), (size, 1)), np.packbits(rows, axis=2), states))
        references.append([decode(cand_set(np.arange(1, m + 1), z), "svm", RngStream(7, 100 * n + t)) for t, z in enumerate(rows)])
    for got, expected in zip(decoders.resolve_batch(parts, "svm", 2), references):
        assert got.decoded.tolist() == expected
    assert sum(size for size, _ in replayed) == split  # every trial whose rows split
    assert len(margins) == decoders.SVM_EPOCHS * sum(size * c for size, c in replayed)


def test_pegasos_scores_of_many_trials_match_the_reference():
    # the replay is the reference's loop for any trial, flagged or not
    rng = np.random.default_rng(12)
    groups = [
        pegasos_group(rng.integers(0, 2, size=(size, c, n)), rng.choice([-1, 1], size=(size, c)))
        for size, c, n in ((120, 4, 30), (80, 3, 30), (30, 2, 7), (10, 9, 4))
    ]
    for group, scores in zip(groups, decoders._pegasos_scores(groups, True)):
        assert scores.tobytes() == reference_scores(*group).tobytes()


def reference_ties(n, packed, labels):
    """Visits of the reference loop on one trial where the exact margin along its own hits is 1."""
    feats = np.hstack([np.unpackbits(packed, axis=1, count=n), np.ones((labels.size, 1))])
    k, y = feats.astype(np.int64) @ feats.T.astype(np.int64), labels.astype(np.int64)
    w, m, ties = np.zeros(n + 1), np.zeros(y.size, dtype=np.int64), 0
    for t in range(1, decoders.SVM_EPOCHS * y.size + 1):
        i = (t - 1) % y.size
        eta = 1.0 / (decoders.SVM_LAMBDA * t)
        margin = y[i] * float(feats[i] @ w)
        ties += t > 1 and 100 * y[i] * m[i] == t - 1
        w *= 1.0 - eta * decoders.SVM_LAMBDA
        if margin < 1.0:
            w += (eta * y[i]) * feats[i]
            m += y[i] * k[:, i]
    return ties


def test_pegasos_loop_sums_few_margins_and_matches_the_reference(monkeypatch):
    # with the certificate the replay takes a ddot exactly at the visits where the exact
    # margin along the reference's own hits is 1: a few per trial, against 200 c visits
    margins = counted_ddots(monkeypatch)
    groups, _ = fig3_svm_pool(31, 30)
    got = decoders._pegasos_scores(groups, True)
    ties = sum(reference_ties(n, packed, lab) for n, z, labels, _ in groups for packed, lab in zip(z, labels))
    trial_steps = decoders.SVM_EPOCHS * sum(z.shape[0] * z.shape[1] for _, z, _, _ in groups)
    assert 0 < len(margins) == ties < 0.005 * trial_steps
    for group, scores in zip(groups, got):
        assert scores.tobytes() == reference_scores(*group).tobytes()


def test_a_margin_of_exactly_one_forks_and_the_replay_takes_no_hit(monkeypatch):
    # the reference margin of row 2 is exactly 1.0 at step 500: not below 1, so no add.
    # Exactly, 100 y_2 M_2 = 499 there: the trial forks, and both branches end with one M,
    # so it decodes from integers; replayed, the ddot decides the visit
    packed = np.array([[136, 10, 92, 3, 147], [84, 10, 95, 3, 131], [208, 46, 88, 19, 147]], dtype=np.uint8)
    group = pegasos_group([np.unpackbits(packed, axis=1, count=40)], [[1, -1, 1]])
    trial, sums, _, replay = exact_pegasos(*group)
    assert trial.tolist() == [0, 0] and np.array_equal(sums[0], sums[1]) and not replay[0]
    margins = counted_ddots(monkeypatch)
    (scores,) = decoders._pegasos_scores([group], True)
    assert margins == [1.0]
    assert scores.tobytes() == reference_scores(*group).tobytes()


# 3-candidate svm trials of n = 8 whose 2-means labels, on stream (5, id), meet margin ties:
# the 4 branches of the first end with one M; those of the second, with no score tie, pick
# different rows
AGREEING_TIE = (np.array([[1, 0, 0, 1, 0, 1, 1, 1], [0, 1, 1, 1, 1, 1, 0, 0], [0, 0, 0, 1, 0, 0, 1, 0]], np.uint8), 58)
DISAGREEING_TIE = (np.array([[0, 1, 1, 1, 0, 1, 0, 1], [1, 0, 0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1, 0, 0]], np.uint8), 756)


def svm_labels(rows, stream_id):
    """The 2-means +/-1 labels svm gives the rows, on stream (5, stream_id)."""
    return np.where(kmeans(rows, 2, RngStream(5, stream_id)).assignments == 0, 1, -1).astype(np.int8)


def svm_decodes(rows, stream_id):
    """The batch and the per-trial svm decode of candidates 1..c with ``rows``, on stream (5, stream_id)."""
    states = stream_states(5, np.array([stream_id]))
    trials = PackedTrials(rows.shape[1], np.arange(rows.shape[0])[None], np.packbits(rows[None], axis=2), states)
    (got,) = decoders.resolve_batch([trials], "svm", 2)
    return int(got.decoded[0]), decode(cand_set(np.arange(1, rows.shape[0] + 1), rows), "svm", RngStream(5, stream_id))


def spied_replays(monkeypatch):
    """Record how many trials each ``_pegasos_scores`` call replays, checking their scores against the reference's bytes."""
    replayed, pegasos_scores = [], decoders._pegasos_scores

    def checked(groups, certified):
        got = pegasos_scores(groups, certified)
        for group, scores in zip(groups, got):
            assert scores.tobytes() == reference_scores(*group).tobytes()
        replayed.append(sum(z.shape[0] for _, z, _, _ in groups))
        return got

    monkeypatch.setattr(decoders, "_pegasos_scores", checked)
    return replayed


def test_a_margin_tie_whose_branches_agree_decodes_without_the_replay(monkeypatch):
    rows, stream_id = AGREEING_TIE
    trial, sums, _, replay = exact_pegasos(*pegasos_group([rows], [svm_labels(rows, stream_id)]))
    assert trial.size == 4 and np.all(sums == sums[0]) and not replay[0]
    replayed = spied_replays(monkeypatch)
    batch, reference = svm_decodes(rows, stream_id)
    assert batch == reference and replayed == []


def test_a_margin_tie_whose_branches_disagree_replays_as_the_reference(monkeypatch):
    rows, stream_id = DISAGREEING_TIE
    trial, sums, _, replay = exact_pegasos(*pegasos_group([rows], [svm_labels(rows, stream_id)]))
    assert trial.size > 1 and not any(map(score_tie, sums)) and replay[0]
    assert len(set(decoders._svm_pick(sums.astype(np.float64)).tolist())) > 1
    replayed = spied_replays(monkeypatch)
    batch, reference = svm_decodes(rows, stream_id)
    assert batch == reference and replayed == [1]


def test_a_trial_over_the_branch_cap_replays(monkeypatch):
    # the agreeing trial's 4 branches decide it; under a cap of 3 it stops and replays
    rows, stream_id = AGREEING_TIE
    monkeypatch.setattr(decoders, "SVM_BRANCHES", 3)
    trial, _, _, replay = exact_pegasos(*pegasos_group([rows], [svm_labels(rows, stream_id)]))
    assert trial.size == 4 and replay[0]
    replayed = spied_replays(monkeypatch)
    batch, reference = svm_decodes(rows, stream_id)
    assert batch == reference and replayed == [1]


def test_pegasos_loop_peak_memory_is_a_few_weight_arrays():
    # the replay holds one float64 weight per column class, padded to the most classes of any
    # trial, its uint8 rows and class rows, each trial's int64 K and one int64 M a row; it adds
    # the class rows that hit and takes the final gemv BATCH_BLOCK_ELEMS elements at a time:
    # under 3.5 arrays of float64 weights on every trial's own columns (2.3 measured)
    groups, _ = fig3_svm_pool(5, 120)
    weight_bytes = 8 * sum(z.shape[0] * (n + 1) for n, z, _, _ in groups)
    tracemalloc.start()
    try:
        scores = decoders._pegasos_scores(groups, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [s.shape for s in scores] == [z.shape[:2] for _, z, _, _ in groups]
    assert peak < 3.5 * weight_bytes


def test_svm_two_candidates_tie_break():
    cands = cand_set([2, 6], [sequence("000011"), sequence("111100")])
    assert decode(cands, "svm", RngStream(5, 0)) == 2


def test_svm_can_decode_the_higher_index_of_two_nested_candidates():
    # z1 is z0 plus one more 1: with 200 ones shared (n = 205) the separator leaves
    # message 2 ahead whichever row comes first, with 150 message 1; so svm pairs do
    # not always decode their lowest index, as the cluster resolvers' pairs do
    for shared, expected in ((200, 2), (150, 1)):
        z0 = np.zeros(205, dtype=np.uint8)
        z0[:shared] = 1
        z1 = z0.copy()
        z1[shared] = 1
        for rows in ((z0, z1), (z1, z0)):
            for seed in range(8):
                assert decode(cand_set([1, 2], rows), "svm", RngStream(seed, 3)) == expected


def test_svm_decodes_the_lowest_index_of_every_pair_up_to_the_oracle_blocklength():
    # two distinct rows are, up to the order of their columns, a ones of the first
    # alone, b of the second alone and s shared, and all-zero columns take no weight.
    # Every pair with a + b + s <= ENUM_MAX_N, in either order and with either row
    # seeding 2-means (its label +1), decodes message 1: exhaustive_pe's m = 2 claim
    # for svm
    from weaktyp.montecarlo import ENUM_MAX_N

    # the first k-means seed is row 0 under a first draw below 1/2, else row 1
    streams = [next(RngStream(0, i) for i in range(100) if (RngStream(0, i).uniform() < 0.5) == low) for low in (1, 0)]
    cases = 0
    for a in range(ENUM_MAX_N + 1):
        for b in range(ENUM_MAX_N + 1 - a):
            for s in range(ENUM_MAX_N + 1 - a - b):
                if a + b == 0:
                    continue
                first = np.array([1] * a + [0] * b + [1] * s, dtype=np.uint8)
                second = np.array([0] * a + [1] * b + [1] * s, dtype=np.uint8)
                for rows in ((first, second), (second, first)):
                    for stream in streams:
                        assert decode(cand_set([1, 2], rows), "svm", RngStream(0, stream.stream_id)) == 1
                        cases += 1
    assert cases == 1768


def test_svm_returns_candidate_member():
    rng = np.random.default_rng(17)
    for trial in range(100):
        count = int(rng.integers(2, 5))
        rows = rng.integers(0, 2, (count, 8)).astype(np.uint8)
        indices = np.sort(rng.choice(np.arange(1, 9), size=count, replace=False))
        cands = cand_set(indices, rows)
        assert decode(cands, "svm", RngStream(7000, trial)) in indices


@pytest.mark.parametrize("m, n", [(4, 43), (6, 43)])
def test_resolvers_read_candidate_rows_only(monkeypatch, m, n):
    # no non-candidate row of a kernel call reaches the pool: each pooled part holds its
    # trials' candidate rows only, and scrambling every other codeword after the scan
    # moves no decode, at m = 4 and at m = 6
    simulate, add = kernels.simulate_trials, montecarlo._Pool.add
    calls, pooled = [], []

    def scrambled(*args):
        w, mask, ybits, words = simulate(*args)
        noise = np.random.default_rng(9).integers(0, 2, size=words.shape, dtype=np.uint8)
        out = np.where(mask[:, :, None], words, noise)
        assert not np.array_equal(out, words)
        calls.append((mask, ybits, words.copy()))
        return w, mask, ybits, out

    def checked_add(pool, trials, weak, positions):
        # one kernel call of 400 trials: positions are the call's rows
        mask, ybits, words = calls[-1]
        size, c = trials.idx.shape
        assert c >= 2 and np.all(mask[positions].sum(axis=1) == c)
        assert np.array_equal(trials.idx, np.nonzero(mask[positions])[1].reshape(size, c))
        rows = words[positions[:, None], trials.idx] ^ ybits[positions, None, :]
        assert np.array_equal(trials.z_seqs, np.packbits(rows, axis=2))
        pooled.append(size if c < m else 0)
        add(pool, trials, weak, positions)

    for resolver in decoders.RESOLVERS:
        cfg = TrialConfig(n=n, m=m, q=0.5, channel=bsc(0.4), eps=0.1, master_seed=808, resolver=resolver)
        expected = run_trials(cfg, 400)
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "simulate_trials", scrambled)
            patch.setattr(montecarlo._Pool, "add", checked_add)
            calls.clear()
            got = run_trials(cfg, 400)
        assert len(calls) == 1
        assert np.array_equal(got.weak_decoded, expected.weak_decoded)
    # pooled trials with rejected codewords beside their candidates
    assert sum(pooled) >= 20


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
    w, mask, ybits, _ = simulate_trials([Segment(dm, 0, 300, cfg.q, consts)], 300, cfg.m, cfg.n, 0.4, 0.6, cfg.eps)
    from weaktyp.core import Codebook
    from weaktyp.montecarlo import _trial_codebook

    exercised = 0
    for t in range(300):
        # the reference codebook: the kernel's rows of rejected codewords hold only their prefix
        words = _trial_codebook(cfg, dm, t).words
        cb = Codebook(words=words, q=0.3)
        cb_flip = Codebook(words=1 - words, q=0.7)
        y = ybits[t]
        y_flip = (1 - y).astype(np.uint8)
        cands = find_candidates(y, cb, ctx, cfg.eps)
        cands_flip = find_candidates(y_flip, cb_flip, ctx_flip, cfg.eps)
        assert cands.indices.tolist() == cands_flip.indices.tolist()
        assert np.array_equal(cands.z_seqs, cands_flip.z_seqs)
        if cands.count >= 2:
            a, _ = weak_outcome(cands, "cluster", RngStream(dm, trial_stream(t, PURPOSE_RESOLVER)))
            b, _ = weak_outcome(cands_flip, "cluster", RngStream(dm, trial_stream(t, PURPOSE_RESOLVER)))
            assert a.decoded == b.decoded
            exercised += 1
    assert exercised > 0
