"""Classical and weak joint-typicality decoding with candidate resolvers.

The classical decoder treats anything but a unique typical codeword as
an error.  The weak decoder keeps every typical candidate and, when
there are several, resolves them from the geometry of their difference
sequences, by one of ``RESOLVERS``: ``cluster`` clusters the
Z-sequences, takes the largest cluster and decodes to the Z closest to
its mean, ``cluster-random`` to a uniform member of that cluster, and
``svm`` refines the 2-means split with a Pegasos-trained linear
separator.

Two entries map a resolver name to its code: :func:`weak_outcome`
resolves one candidate set, and :func:`resolve_batch` many trials at
once, with exactly the same results; its batch forms share one lockstep
k-means and take the candidates' difference sequences bit-packed
(:class:`PackedTrials`).

All ties break toward the lowest message index (and, inside k-means,
toward the lowest cluster id), which makes every resolution
deterministic given its random stream.  Both cluster resolvers decode
the lowest index without k-means where the rows are all equal, and where
c distinct rows have k = min(k_max, c) = c.  There k-means++ would seed
all c rows (its weighted draw, r < total, never lands on a row at
distance 0); Lloyd's first pass would make c singletons and the second
repeat them; and the size tie would go to the cluster at position 0,
whose single member is both the closest pick and the only random pick.

k-means on 0/1 candidates is exact integer arithmetic (the kernel
k-means identity; Dhillon, Guan & Kulis, KDD 2004).  A cluster with 0/1
weights v over the c candidates has size s = sum(v) and member sum
sigma = sum_a v_a z_a, and s**2 times the squared distance from z_i to
its mean is the integer N_i = ||s z_i - sigma||**2
= s**2 |z_i|**2 - 2 s (z_i . sigma) + |sigma|**2.  Clusters j and l are
compared by N_ij s_l**2 against N_il s_j**2, seeding reads Hamming
distances, and the ``cluster`` pick is the least sum of Hamming
distances to the winning cluster's members, so every tie is a true tie
and the tie rules above hold exactly.  The reference computes N from the
rows, in Python integers; the batch form from each trial's Gram matrix
G = Z Z^T, since z_i . sigma = (G v)_i.

The Pegasos final scores go through the reference's ``gemv`` on the
same shape.  A Pegasos margin is evaluated only where a proven bound
lets it fall below 1, by a sum over column patterns in any order where
an error bound puts it clear of 1, else by the reference's ``ddot``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import Codebook, hamming_diff
from .rng import RngStream, uniforms_at
from .typicality import JointContext, pair_counts, typical_from_counts

RESOLVERS = ("cluster", "cluster-random", "svm")

KMEANS_MAX_ITERS = 100
SVM_LAMBDA = 0.01
SVM_EPOCHS = 200
# cap on the elements of one block's int64 k-means operands, the Gram
# matrices (trials, c, c) or, when c > n, the rows (trials, c, n), and of
# one block of unpacked svm rows (trials, c, n+1); bounds their memory
# whatever the chunk.  The svm Pegasos loop runs once per slot count
BATCH_BLOCK_ELEMS = 1 << 15


@dataclass(frozen=True)
class CandidateSet:
    """Messages whose codeword is jointly typical with the received word.

    ``indices`` are 1-based and strictly increasing; ``z_seqs`` holds the
    matching difference sequences row by row.
    """

    indices: np.ndarray  # (count,) int64
    z_seqs: np.ndarray  # (count, n) uint8

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        z = np.asarray(self.z_seqs, dtype=np.uint8)
        if idx.ndim != 1 or z.ndim != 2 or z.shape[0] != idx.size:
            raise ValueError("indices and z_seqs must be parallel")
        if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 1):
            raise ValueError("indices must be strictly increasing and 1-based")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "z_seqs", z)

    @property
    def count(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class DecodeOutcome:
    """Decoder verdict: a message index, or 0 when a dummy is emitted."""

    decoded: int
    candidate_count: int
    path: str  # none | unique | cluster | svm

    def __post_init__(self) -> None:
        if self.path not in ("none", "unique", "cluster", "svm"):
            raise ValueError(f"unknown decode path {self.path!r}")
        if (self.decoded == 0) != (self.path == "none"):
            raise ValueError("dummy output and path 'none' must coincide")
        if self.path == "unique" and self.candidate_count != 1:
            raise ValueError("path 'unique' requires exactly one candidate")
        if self.candidate_count == 0 and self.decoded != 0:
            raise ValueError("no candidates must decode to the dummy index")


@dataclass(frozen=True)
class Clustering:
    """Result of Lloyd iterations: assignments, centroids, and the objective trace.

    ``objective_trace[i]`` is the total within-cluster squared distance
    right after the (i+1)-th assignment pass; Lloyd's argument makes it
    non-increasing.
    """

    assignments: np.ndarray
    centroids: np.ndarray
    k: int
    iterations_used: int
    objective_trace: np.ndarray


def find_candidates(y: np.ndarray, cb: Codebook, ctx: JointContext, eps: float) -> CandidateSet:
    """Scan messages 1..m in order and keep those jointly typical with y."""
    if y.shape != (cb.n,):
        raise ValueError("received word length must match the codebook blocklength")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    keep = []
    for i in range(cb.m):
        counts = pair_counts(cb.words[i], y)
        if typical_from_counts(*counts, ctx, eps):
            keep.append(i)
    if keep:
        z = np.vstack([hamming_diff(cb.words[i], y) for i in keep])
    else:
        z = np.empty((0, cb.n), dtype=np.uint8)
    return CandidateSet(indices=np.asarray(keep, dtype=np.int64) + 1, z_seqs=z)


def classical_outcome(cands: CandidateSet) -> DecodeOutcome:
    """Classical verdict on a candidate set: only a unique candidate decodes."""
    if cands.count == 1:
        return DecodeOutcome(int(cands.indices[0]), 1, "unique")
    return DecodeOutcome(0, cands.count, "none")


def weak_outcome(
    cands: CandidateSet, resolver: str, rng: RngStream, k_max: int = 3
) -> tuple[DecodeOutcome, Clustering | None]:
    """Weak verdict on a candidate set, plus the clustering when k-means ran.

    One of the two resolver entries (the other is its batch twin
    :func:`resolve_batch`), shared by the single-trial reference path
    and the exhaustive oracle.
    """
    if resolver not in RESOLVERS:
        raise ValueError(f"unknown resolver {resolver!r}")
    if cands.count == 0:
        return DecodeOutcome(0, 0, "none"), None
    if cands.count == 1:
        return DecodeOutcome(int(cands.indices[0]), 1, "unique"), None
    if resolver == "svm":
        decoded, clus = _svm_by_clusters(cands, rng)
        return DecodeOutcome(decoded, cands.count, "svm"), clus
    decoded, clus = _resolve_by_clusters(cands, k_max, rng, resolver)
    return DecodeOutcome(decoded, cands.count, "cluster"), clus


def kmeans(points, k: int, rng: RngStream) -> Clustering:
    """Lloyd's algorithm with k-means++ style seeding, at most ``KMEANS_MAX_ITERS`` passes.

    Each cluster is a 0/1 weight vector v over the points, with size
    s = sum(v) and member sum sigma = sum_a v_a z_a; point i's squared
    distance to the centroid sigma/s is N_i / s**2 with
    N_i = ||s z_i - sigma||**2.  Two clusters are compared by
    cross-multiplying these fractions in Python numbers, so integer
    points (the 0/1 candidates) are clustered in exact integers and float
    points in float arithmetic.  Point-to-centroid ties go to the lowest
    cluster id; a cluster that empties is reseeded with the point
    farthest from its centroid (the lowest such index).  When the
    squared distances driving a seeding step are all zero (duplicate
    points), the lowest-index unchosen point is taken, keeping the whole
    procedure deterministic for a given stream.  For integer points each
    ``objective_trace`` entry is its pass's exact sum, rounded once, so
    the trace never increases.
    """
    pts = np.asarray(points)
    pts = pts.astype(np.int64 if pts.dtype.kind in "biu" else np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty 2-D array")
    num = pts.shape[0]
    if not 1 <= k <= num:
        raise ValueError(f"k must be in 1..{num}, got {k}")

    first = min(int(rng.uniform() * num), num - 1)
    seeds = [first]
    d2 = ((pts - pts[first]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            r = rng.uniform() * total
            pick = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            pick = min(pick, num - 1)
        else:
            pick = min(i for i in range(num) if i not in seeds)
        seeds.append(pick)
        d2 = np.minimum(d2, ((pts - pts[pick]) ** 2).sum(axis=1))

    weights = np.zeros((k, num), dtype=np.int64)
    weights[np.arange(k), seeds] = 1
    assign = np.full(num, -1, dtype=np.int64)
    trace = []
    iterations = KMEANS_MAX_ITERS
    for it in range(1, KMEANS_MAX_ITERS + 1):
        sizes = weights.sum(axis=1)
        sums = weights @ pts
        scaled = np.stack([((s * pts - sigma) ** 2).sum(axis=1) for s, sigma in zip(sizes, sums)], axis=1)
        scaled, squares = scaled.astype(object), (sizes**2).astype(object)
        new_assign = np.zeros(num, dtype=np.int64)
        for j in range(1, k):
            # N_ij / s_j**2 < N_ib / s_b**2 against the best cluster b so far:
            # strict, so the lowest id keeps a tie
            closer = scaled[:, j] * squares[new_assign] < scaled[np.arange(num), new_assign] * squares[j]
            new_assign[closer] = j
        # the pass's sum of N_i / s**2 over a common denominator, rounded once
        common = math.lcm(*squares)
        total = sum(scaled[i, j] * (common // squares[j]) for i, j in enumerate(new_assign.tolist()))
        trace.append(total / common)
        if np.array_equal(new_assign, assign):
            iterations = it
            break
        assign = new_assign
        for j in range(k):
            members = assign == j
            if members.any():
                weights[j] = members
            else:
                # one size for every point: the farthest has the largest N, argmax takes the lowest index
                weights[j] = 0
                weights[j, int(np.argmax(scaled[:, j]))] = 1
    return Clustering(
        assignments=assign,
        centroids=(weights @ pts) / weights.sum(axis=1)[:, None],
        k=k,
        iterations_used=iterations,
        objective_trace=np.asarray(trace),
    )


def _all_rows_equal(z: np.ndarray) -> bool:
    return bool(np.all(z == z[0]))


def _largest_cluster(assignments: np.ndarray, k: int) -> int:
    """Largest cluster id; ties go to the cluster holding the lowest point index."""
    sizes = np.bincount(assignments, minlength=k)
    best = int(sizes.max())
    for pos in range(assignments.size):
        if sizes[assignments[pos]] == best:
            return int(assignments[pos])
    raise AssertionError("unreachable: some cluster is nonempty")


def _resolve_by_clusters(
    cands: CandidateSet, k_max: int, rng: RngStream, resolver: str
) -> tuple[int, Clustering | None]:
    if cands.count < 2:
        raise ValueError("resolution needs at least two candidates")
    if k_max < 1:
        raise ValueError("k_max must be positive")
    indices = cands.indices
    if _all_rows_equal(cands.z_seqs):
        # nothing separates the candidates; lowest index wins
        return int(indices[0]), None
    k = min(k_max, cands.count)
    if k == cands.count and len({row.tobytes() for row in np.ascontiguousarray(cands.z_seqs)}) == k:
        # singleton clusters: the lowest index wins (proof in the module docstring)
        return int(indices[0]), None
    clus = kmeans(cands.z_seqs, k, rng)
    winner = _largest_cluster(clus.assignments, k)
    members = clus.assignments == winner
    if resolver == "cluster-random":
        positions = np.flatnonzero(members)
        r = rng.uniform()
        pos = positions[min(int(r * positions.size), positions.size - 1)]
        return int(indices[pos]), clus
    # closest to the mean sigma/s: the least ||s z_i - sigma||**2, in exact integers;
    # ties toward the lowest message index: indices ascend, argmin is first
    z = cands.z_seqs.astype(np.int64)
    scaled = ((members.sum() * z - z[members].sum(axis=0)) ** 2).sum(axis=1)
    return int(indices[int(np.argmin(scaled))]), clus


@dataclass(frozen=True)
class BatchResolution:
    """Per-trial results of :func:`resolve_batch`.

    ``iterations`` counts Lloyd assignment passes (``Clustering.iterations_used``)
    and is 0 exactly where a shortcut of the module docstring decided
    without k-means.
    """

    decoded: np.ndarray  # (T,) int64, 1-based message index
    iterations: np.ndarray  # (T,) int64


@dataclass(frozen=True)
class PackedTrials:
    """Multi-candidate trials of one blocklength n, as the batch resolvers take them.

    Trial t has candidates ``flatnonzero(cand_mask[t])`` (at least two),
    difference sequences ``z_seqs[t]``, its codewords XOR its received
    word, row i that of message i + 1, and stream state ``states[t]``.
    Rows are ``np.packbits`` rows, zero-padded, so packed rows are equal
    exactly when the rows are, and XOR commutes with packing.
    """

    n: int
    cand_mask: np.ndarray  # (T, m) bool
    z_seqs: np.ndarray  # (T, m, ceil(n/8)) uint8
    states: np.ndarray  # (T,) uint64


def _blocks(parts: list[PackedTrials]):
    """(c, trials, candidate indices, packed rows, blocklengths) of every resolver block of ``parts``.

    Trials are numbered through the parts in turn and taken by candidate
    count c, ascending; each row's indices ascend.  Trials with c <= n,
    whose k-means reads only Gram matrices, are taken from every part at
    once, their rows zero-padded to the widest (no Gram entry or row
    equality moves); trials with c > n a part at a time.  Either way in
    blocks of :func:`_block_trials` trials.  Every trial must have at
    least two candidates.
    """
    sizes = [part.states.size for part in parts]
    owner = np.repeat(np.arange(len(parts)), sizes)
    local = np.arange(owner.size) - np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
    ns = np.array([part.n for part in parts])[owner]
    widths = np.array([part.z_seqs.shape[2] for part in parts])
    counts = np.concatenate([np.asarray(part.cand_mask, dtype=bool).sum(axis=1) for part in parts])
    if np.any(counts < 2):
        raise ValueError("resolution needs at least two candidates")
    # np.unique would import numpy.ma, tens of ms and MB on a cold process
    for c in np.flatnonzero(np.bincount(counts)).tolist():
        group = np.flatnonzero(counts == c)
        by_rows = group[ns[group] < c]
        for side in [group[ns[group] >= c], *np.split(by_rows, np.flatnonzero(np.diff(owner[by_rows])) + 1)]:
            if side.size == 0:
                continue
            step = _block_trials(c, int(ns[side].min()))
            for lo in range(0, side.size, step):
                block = side[lo : lo + step]
                idx = np.empty((block.size, c), dtype=np.int64)
                x = np.zeros((block.size, c, widths[owner[block]].max()), dtype=np.uint8)
                cuts = [0, *(np.flatnonzero(np.diff(owner[block])) + 1).tolist(), block.size]
                for a, b in zip(cuts, cuts[1:]):
                    part, rows = parts[owner[block[a]]], local[block[a:b]]
                    # nonzero walks rows in order, so each row's indices ascend
                    idx[a:b] = np.nonzero(part.cand_mask[rows])[1].reshape(-1, c)
                    x[a:b, :, : part.z_seqs.shape[2]] = part.z_seqs[rows[:, None], idx[a:b]]
                yield c, block, idx, x, ns[block]


def _per_part(parts: list[PackedTrials], decoded: np.ndarray, iterations: np.ndarray) -> list[BatchResolution]:
    """The per-trial results of trials numbered through ``parts``, one :class:`BatchResolution` per part."""
    cuts = np.cumsum([part.states.size for part in parts])[:-1]
    return [BatchResolution(*pair) for pair in zip(np.split(decoded, cuts), np.split(iterations, cuts))]


def resolve_batch(parts: list[PackedTrials], resolver: str, k_max: int) -> list[BatchResolution]:
    """The batch twin of :func:`weak_outcome`, decision for decision: one result per part.

    The parts may differ in n; :func:`svm_resolve_batch` (``svm``) or
    :func:`cluster_resolve_batch` resolves every part in one call.
    """
    if resolver not in RESOLVERS:
        raise ValueError(f"unknown resolver {resolver!r}")
    if resolver == "svm":
        return svm_resolve_batch(parts)
    return cluster_resolve_batch(parts, resolver, k_max)


def cluster_resolve_batch(parts: list[PackedTrials], resolver: str, k_max: int) -> list[BatchResolution]:
    """The ``cluster`` or ``cluster-random`` decodes of many trials at once, one result per part.

    Each resolver block of :func:`_blocks` (one candidate count c, at
    most :func:`_block_trials` trials, of any n where c <= n) runs
    through k-means++ seeding and Lloyd in lockstep
    (:func:`_lockstep_kmeans`) on its packed rows.  Each trial reads its
    stream at its own cursor, and every comparison is exact in integers,
    so each one decides as in :func:`kmeans`, and every trial as in
    :func:`weak_outcome`.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    states = np.concatenate([part.states for part in parts])
    decoded = np.zeros(states.size, dtype=np.int64)
    iterations = np.zeros(states.size, dtype=np.int64)
    for c, rows, idx, x, ns in _blocks(parts):
        pos, its = _resolve_block(x, ns, states[rows], min(k_max, c), resolver)
        decoded[rows] = idx[np.arange(rows.size), pos] + 1
        iterations[rows] = its
    return _per_part(parts, decoded, iterations)


def _block_trials(c: int, n: int) -> int:
    """Trials per resolver block of c candidates of n symbols.

    A block holds the trials' c x c Gram matrices when c <= n, else their
    (c, n) int64 rows (see :func:`_gram_products`), and either takes at
    most ``BATCH_BLOCK_ELEMS`` elements, or one trial.
    """
    return max(1, BATCH_BLOCK_ELEMS // (c * min(c, n)))


def _split_rows(z: np.ndarray) -> np.ndarray:
    """(T,) mask of the (c, width) packed point sets in z whose rows are not all equal."""
    return ~np.all(z == z[:, :1], axis=(1, 2))


def _gram_products(x: np.ndarray, n: int) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Diagonal and product map of the Gram matrices G = x x^T of (T, c, ceil(n/8)) packed rows x.

    Returns the (T, c) diagonal (each row's weight) and a map taking
    (T, c, k) 0/1 weights v to G v, all int64.  When c <= n, G is formed
    once, (T, c, c), from the packed bytes with ``np.bitwise_count``;
    when c > n, G v is taken as x (x^T v) from the unpacked rows, so no
    array grows as c**2.  The integers are the same either way.
    """
    size, c, width = x.shape
    if c > n:
        rows = np.unpackbits(x, axis=2, count=n).astype(np.int64)
        return rows.sum(axis=2), lambda v: np.matmul(rows, np.matmul(rows.transpose(0, 2, 1), v))
    bits = np.zeros((size, c, -(-width // 8) * 8), dtype=np.uint8)
    bits[:, :, :width] = x
    bits = bits.view(np.uint64)
    gram = np.zeros((size, c, c), dtype=np.int64)
    for w in range(bits.shape[2]):
        gram += np.bitwise_count(bits[:, :, None, w] & bits[:, None, :, w])
    return np.diagonal(gram, axis1=1, axis2=2), lambda v: np.matmul(gram, v)


def _resolve_block(
    x: np.ndarray, ns: np.ndarray, states: np.ndarray, k: int, resolver: str
) -> tuple[np.ndarray, np.ndarray]:
    """Winning candidate position and Lloyd passes of each set of c packed rows in x, of ``ns`` symbols.

    Mirrors :func:`_resolve_by_clusters` step by step on a (T, c, width)
    block of :func:`_blocks`; both shortcuts compare the packed rows.
    """
    size, c, _ = x.shape
    pos = np.zeros(size, dtype=np.int64)  # shortcuts decode the lowest index
    iterations = np.zeros(size, dtype=np.int64)

    run = _split_rows(x)
    if k == c:
        distinct = np.ones(size, dtype=bool)
        for a in range(c):
            for b in range(a + 1, c):
                distinct &= np.any(x[:, a] != x[:, b], axis=1)
        run &= ~distinct
    sel = np.flatnonzero(run)
    if sel.size == 0:
        return pos, iterations
    weight, gram_times = _gram_products(x[sel], int(ns.min()))
    st = states[sel]
    assign, used, cursor = _lockstep_kmeans(weight, gram_times, st, k, int(ns.max()))
    trial = np.arange(sel.size)

    # largest cluster, ties to the cluster of the lowest point index
    cluster_ids = np.arange(k)
    sizes = (assign[:, :, None] == cluster_ids).sum(axis=1)
    point_sizes = np.take_along_axis(sizes, assign, axis=1)
    lead = np.argmax(point_sizes == sizes.max(axis=1)[:, None], axis=1)
    members = assign == assign[trial, lead][:, None]
    member_count = members.sum(axis=1)
    if resolver == "cluster-random":
        nth = np.minimum((uniforms_at(st, cursor) * member_count).astype(np.int64), member_count - 1)
        winner = np.argmax(np.cumsum(members, axis=1) > nth[:, None], axis=1)
    else:
        # least sum of Hamming distances to the members, s G_ii - 2 (G v)_i up to a constant
        inner = gram_times(members[:, :, None].astype(np.int64))[:, :, 0]
        winner = np.argmin(member_count[:, None] * weight - 2 * inner, axis=1)

    pos[sel] = winner
    iterations[sel] = used
    return pos, iterations


def _lockstep_kmeans(
    weight: np.ndarray, gram_times: Callable[[np.ndarray], np.ndarray], states: np.ndarray, k: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`kmeans` on many sets of c 0/1 points of n symbols at once, decision for decision.

    A point set enters only through its Gram matrix G: ``weight`` is its
    (T, c) diagonal and ``gram_times`` its product map, as
    :func:`_gram_products` gives them, so the sets may differ in length,
    and n bounds the longest.  The seeding distances are the
    integers G_aa + G_bb - 2 G_ab.  A cluster with 0/1 weights v has size
    s = sum(v) and q = v^T G v, and s**2 times point i's squared distance
    to its centroid is the integer N_i = s**2 G_ii - 2 s (G v)_i + q, so
    Lloyd reads only integers, and :func:`_nearest` compares them exactly.

    Trial t reads stream ``states[t]`` from position 0.  Returns the
    (T, c) assignments, the Lloyd passes used and each stream's cursor
    after the last draw.
    """
    num, c = weight.shape
    trial = np.arange(num)

    def seed_dist(at: np.ndarray) -> np.ndarray:
        onehot = np.zeros((num, c, 1), dtype=np.int64)
        onehot[trial, at] = 1
        return weight + weight[trial, at][:, None] - 2 * gram_times(onehot)[:, :, 0]

    # k-means++ seeding; the cursor advances only on the draws kmeans makes
    cursor = np.zeros(num, dtype=np.int64)
    seeds = np.empty((num, k), dtype=np.int64)
    seeds[:, 0] = np.minimum((uniforms_at(states, cursor) * c).astype(np.int64), c - 1)
    cursor += 1
    chosen = np.zeros((num, c), dtype=bool)
    chosen[trial, seeds[:, 0]] = True
    d2 = seed_dist(seeds[:, 0])
    for j in range(1, k):
        total = d2.sum(axis=1)
        spread = total > 0.0
        r = uniforms_at(states, cursor) * total
        # searchsorted(cumsum, r, side="right") on every row at once
        drawn = np.minimum((np.cumsum(d2, axis=1) <= r[:, None]).sum(axis=1), c - 1)
        # all distances 0: every row copies a seed, and no output here depends on which
        seeds[:, j] = np.where(spread, drawn, np.argmin(chosen, axis=1))
        cursor += spread
        chosen[trial, seeds[:, j]] = True
        d2 = np.minimum(d2, seed_dist(seeds[:, j]))

    # Lloyd on the (T, c, k) 0/1 cluster weights, each trial frozen once its assignment repeats
    cluster_ids = np.arange(k)
    member = np.zeros((num, c, k), dtype=bool)
    member[trial[:, None], seeds, cluster_ids] = True
    assign = np.full((num, c), -1, dtype=np.int64)
    used = np.full(num, KMEANS_MAX_ITERS, dtype=np.int64)
    active = np.ones(num, dtype=bool)
    for it in range(1, KMEANS_MAX_ITERS + 1):
        size = member.sum(axis=1)
        inner = gram_times(member.astype(np.int64))
        quad = (inner * member).sum(axis=1)
        # N_i - s**2 G_ii: G_ii is the same for every cluster, so it does not move the argmin
        shifted = quad[:, None, :] - 2 * size[:, None, :] * inner
        new_assign = _nearest(shifted, weight, size**2, n)
        done = active & np.all(new_assign == assign, axis=1)
        used[done] = it
        active &= ~done
        if not active.any():
            break
        # frozen trials keep their assignment and weights; every cluster keeps a member
        assign[active] = new_assign[active]
        member[active] = assign[active, :, None] == cluster_ids
        # an emptied cluster is reseeded with the point farthest from its old centroid:
        # one size for every point, so the largest N, and argmax takes the lowest index
        empty = active[:, None] & ~member.any(axis=1)
        t_e, j_e = np.nonzero(empty)
        far = shifted[t_e, :, j_e] + (size[t_e, j_e] ** 2)[:, None] * weight[t_e]
        member[t_e, np.argmax(far, axis=1), j_e] = True
    return assign, used, cursor


def _nearest(shifted: np.ndarray, weight: np.ndarray, squares: np.ndarray, n: int) -> np.ndarray:
    """(T, c) cluster of the least N_ij / s_j**2 for each point i, ties to the lowest id, exactly.

    ``shifted`` is the (T, c, k) N_ij - s_j**2 G_ii, ``weight`` the (T, c)
    G_ii and ``squares`` the (T, k) s_j**2, for points of n symbols.
    Each quotient N_ij / s_j**2 is a squared distance, in [0, n], with a
    denominator at most c**2, so two unequal ones of a point differ by at
    least c**-4.  The shifted quotients N_ij / s_j**2 - G_ii lie in
    [-n, n] and differ as the quotients do, and float64 division rounds
    each by at most n * 2**-53 (equal ones alike).  So when c**4 n < 2**52
    the rounded shifted quotients keep every order and every tie, and
    one ``argmin`` decides; otherwise N_ij s_l**2 and N_il s_j**2 are
    compared in Python integers, as :func:`kmeans` compares them.
    """
    c = weight.shape[1]
    if c**4 * n < 2**52:
        return np.argmin(shifted / squares[:, None, :], axis=2)
    scaled = (shifted + squares[:, None, :] * weight[:, :, None]).astype(object)
    squares = squares.astype(object)
    best = np.zeros(weight.shape, dtype=np.int64)
    for j in range(1, scaled.shape[2]):
        # N_ij s_b**2 < N_ib s_j**2 against the best cluster b so far:
        # strict, so the lower id keeps a tie
        best_scaled = np.take_along_axis(scaled, best[:, :, None], axis=2)[:, :, 0]
        best_square = np.take_along_axis(squares, best, axis=1)
        closer = scaled[:, :, j] * best_square < best_scaled * squares[:, j : j + 1]
        best[closer] = j
    return best


def svm_resolve_batch(parts: list[PackedTrials]) -> list[BatchResolution]:
    """The ``svm`` decodes of many trials, one result per part, bit for bit as :func:`weak_outcome`.

    The parts may differ in n.  A resolver block of :func:`_blocks` gets
    the all-equal shortcut and 2-means labels (the lockstep k-means of
    :func:`cluster_resolve_batch`) on its packed Z rows, and its split
    trials of each n are one group of :func:`_pegasos_scores`, which
    trains the separators of every group at once.  ``iterations`` counts
    the 2-means run (0 where all rows are equal and the lowest index wins).
    """
    states = np.concatenate([part.states for part in parts])
    decoded = np.zeros(states.size, dtype=np.int64)
    iterations = np.zeros(states.size, dtype=np.int64)
    groups, places = [], []
    for _, rows, idx, x, ns in _blocks(parts):
        decoded[rows] = idx[:, 0] + 1
        split = _split_rows(x)
        if not split.any():
            continue
        rows, idx, x, ns = rows[split], idx[split], x[split], ns[split]
        assign, used, _ = _lockstep_kmeans(*_gram_products(x, int(ns.min())), states[rows], 2, int(ns.max()))
        iterations[rows] = used
        labels = np.where(assign == 0, 1, -1).astype(np.int8)
        for n in np.flatnonzero(np.bincount(ns)).tolist():
            at = ns == n
            groups.append((n, x[at, :, : -(-n // 8)], labels[at]))
            places.append((rows[at], idx[at]))
    if groups:
        for (rows, idx), scores in zip(places, _pegasos_scores(groups)):
            decoded[rows] = idx[np.arange(rows.size), _svm_pick(scores)] + 1
    return _per_part(parts, decoded, iterations)


def _slot_map(z: np.ndarray, pattern: bool) -> np.ndarray:
    """(T, n+1) slot of each column of ``[z, 1]`` for (T, c, n) 0/1 rows z.

    With ``pattern`` a column's slot is its pattern code
    ``sum_i z_ij * 2**i`` (the bias column's is 2**c - 1); otherwise
    each column is its own slot.
    """
    size, c, n = z.shape
    if not pattern:
        return np.broadcast_to(np.arange(n + 1), (size, n + 1))
    slot = np.empty((size, n + 1), dtype=np.min_scalar_type(2**c - 1))
    # one integer product against 2**i, exact in the slot type
    np.einsum("tcn,c->tn", z, 2 ** np.arange(c, dtype=slot.dtype), out=slot[:, :n])
    slot[:, n] = 2**c - 1
    return slot


def _slot_tolerance(k: int, p: int) -> float:
    """Bound on |slot sum - reference margin| for rows of at most k columns in p slots.

    Every weight satisfies |w| <= 1/lambda (the Pegasos update keeps the
    bound by induction, and rounding moves it by under 1e-12), and
    products with 0/+1/-1 are exact, so both sums add k/lambda at most
    in absolute terms.  Summing in any order errs by at most
    gamma_j = j*u/(1 - j*u) times that, u = 2**-53: gamma_p for the slot
    sum, its size products included, and gamma_k for the reference
    ``ddot``.  The factor 2 covers the denominators.
    """
    return 2.0 * (k + p) * 2.0**-53 * k / SVM_LAMBDA


def _slot_sums(rows: np.ndarray, sizes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(T, ...) sums of ``rows * sizes * w`` over slots, in any order: margins up to :func:`_slot_tolerance`."""
    return np.einsum("t...p,tp,tp->t...", rows, sizes, w)


def _signed_table(groups: list, p: int, pattern: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, p) slot sizes, a table of signed slot rows and each trial row's (T, c_max) table row.

    A trial's row i has the signed slot row ``label * bit``.  With
    pattern slots that depends only on i and the label, so the table is
    the 2 * c_max int8 rows +-(bits of i), with sizes in the least type
    that holds n + 1; otherwise every trial's own int8 rows.
    """
    c_max = max(z.shape[1] for _, z, _ in groups)
    total = sum(z.shape[0] for _, z, _ in groups)
    codes = np.zeros((total, c_max), dtype=np.min_scalar_type(2 * c_max if pattern else total * c_max))
    if pattern:
        bits = (np.arange(p) >> np.arange(c_max)[:, None]) & 1
        table = np.concatenate([bits, -bits]).astype(np.int8)
        sizes = np.empty((total, p), dtype=np.min_scalar_type(max(n for n, _, _ in groups) + 1))
    else:
        table = np.zeros((total * c_max, p), dtype=np.int8)
        sizes = np.broadcast_to(1.0, (total, p))
    at = 0
    for n, z, labels in groups:
        size, c, _ = z.shape
        if pattern:
            codes[at : at + size, :c] = np.arange(c) + c_max * (labels < 0)
        else:
            codes[at : at + size] = np.arange(at * c_max, (at + size) * c_max).reshape(size, c_max)
        step = max(1, BATCH_BLOCK_ELEMS // (c * (n + 1)))
        for lo in range(0, size, step):
            rows = np.unpackbits(z[lo : lo + step], axis=2, count=n)
            start, count = at + lo, rows.shape[0]
            if pattern:
                keys = (np.arange(count) * p)[:, None] + _slot_map(rows, True)
                sizes[start : start + count] = np.bincount(keys.ravel(), minlength=count * p).reshape(count, p)
            else:
                signed = table[start * c_max : (start + count) * c_max].reshape(count, c_max, p)
                signed[:, :c, :n] = rows
                signed[:, :c, n] = 1
                signed[:, :c] *= labels[lo : lo + step, :, None]
        at += size
    return sizes, table, codes


def _ddot_margins(
    groups: list, starts: list[int], pattern: bool, w: np.ndarray, trials: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """Margins of rows ``r`` of the given trials, each the reference's ``label * ([z, 1] @ w)``.

    Trial t (ascending) is row t - starts[g] of ``groups[g]``; a group's
    trials are expanded to n + 1 columns at once, then one ``ddot`` a row.
    """
    out = np.empty(trials.size)
    bounds = np.searchsorted(trials, starts).tolist()
    for g in np.flatnonzero(np.diff(bounds)).tolist():
        (n, z, labels), lo, hi = groups[g], bounds[g], bounds[g + 1]
        local, row = trials[lo:hi] - starts[g], r[lo:hi]
        rows = np.unpackbits(z[local], axis=2, count=n)
        w_full = w[trials[lo:hi, None], _slot_map(rows, pattern)]
        feats = np.ones((hi - lo, n + 1))
        feats[:, :n] = rows[np.arange(hi - lo), row]
        for j, x, wj, label in zip(range(lo, hi), feats, w_full, labels[local, row].tolist()):
            out[j] = float(label) * float(x @ wj)
    return out


def _pegasos_scores(groups: list[tuple[int, np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """Scores ``[z, 1] @ w`` after the Pegasos loop of :func:`_svm_by_clusters`, for each group.

    A group ``(n, z, labels)`` is one resolver block, trials of one n and
    one count c: their (T, c, ceil(n/8)) packed rows and (T, c) +/-1
    labels.  Each trial's run is its own, so how the trials are cut into
    groups changes no score.  A trial keeps one weight per slot of
    :func:`_slot_map`: columns of one slot start at 0 and get the same
    multiply and add every step, so a slot's weight is, bit for bit, each
    of its columns'.  With c_max the largest count, trials whose n + 1
    columns fit 2**c_max patterns share P = 2**c_max pattern slots; the
    others have P = n + 1, a slot per column; each P is one loop.

    The final scores expand each trial's weights to its own n + 1
    columns and take ``(T, c, n+1) @ (T, n+1, 1)`` on one group's
    unsigned float rows, a ``BATCH_BLOCK_ELEMS`` block at a time: one
    ``gemv`` per trial of the shape of the reference's ``feats @ w``,
    whose summation order, like the ``ddot``'s, may depend on the shape.
    """
    c_max = max(z.shape[1] for _, z, _ in groups)
    loops: dict[int, list[int]] = {}
    for g, (n, _, _) in enumerate(groups):
        loops.setdefault(2**c_max if 2**c_max <= n + 1 else n + 1, []).append(g)
    scores: list[np.ndarray] = [np.empty(0)] * len(groups)
    for p, members in loops.items():
        pattern = p == 2**c_max
        # descending candidate count, so the trials still running are a prefix
        members.sort(key=lambda g: -groups[g][1].shape[1])
        weights = _pegasos_loop([groups[g] for g in members], p, pattern)
        at = 0
        for g in members:
            n, z, _ = groups[g]
            size, c, _ = z.shape
            out = np.empty((size, c))
            step = max(1, BATCH_BLOCK_ELEMS // (c * (n + 1)))
            for lo in range(0, size, step):
                rows = np.unpackbits(z[lo : lo + step], axis=2, count=n)
                feats = np.ones((rows.shape[0], c, n + 1))
                feats[:, :, :n] = rows
                slots = _slot_map(rows, pattern)
                w_full = np.take_along_axis(weights[at + lo : at + lo + rows.shape[0]], slots, axis=1)
                out[lo : lo + step] = np.matmul(feats, w_full[:, :, None])[:, :, 0]
            scores[g] = out
            at += size
    return scores


def _pegasos_loop(groups: list, p: int, pattern: bool) -> np.ndarray:
    """(T, p) slot weights after the Pegasos loop of the trials of ``groups``, c descending.

    At global step s every trial is at ``t = s + 1`` on row ``s % c``, and
    stops after ``SVM_EPOCHS * c`` steps, so the running trials are a
    prefix.  A step scales their weights by ``1 - eta * lambda`` and adds
    ``eta * label * bit`` where a margin is below 1.  It evaluates only the
    trials due (:func:`_next_due`): by slot sum where :func:`_slot_tolerance`
    clears 1, else by ``ddot`` (:func:`_ddot_margins`).
    """
    sizes, table, codes = _signed_table(groups, p, pattern)
    total, c_max = codes.shape
    k = max(n for n, _, _ in groups) + 1
    tol = _slot_tolerance(k, p)
    slack = tol + 2.0 * (5 * SVM_EPOCHS * c_max + 2) * 2.0**-53 * k / SVM_LAMBDA
    starts = np.cumsum([0] + [z.shape[0] for _, z, _ in groups]).tolist()
    count = np.repeat([z.shape[1] for _, z, _ in groups], np.diff(starts))
    stop = -SVM_EPOCHS * count  # ascending; the trials running at step s have -stop > s
    w, due = np.zeros((total, p)), np.zeros(total, dtype=np.int64)
    upcoming = 0  # the least due step of a running trial
    for s in range(SVM_EPOCHS * c_max):
        eta = 1.0 / (SVM_LAMBDA * (s + 1))
        live = int(np.searchsorted(stop, -s))
        if s < upcoming:
            w[:live] *= 1.0 - eta * SVM_LAMBDA
            continue
        now = np.flatnonzero(due[:live] == s)
        if 2 * now.size > live:  # all of them, on views, not (T, p) gathers
            now = np.arange(live)
        at = slice(0, live) if now.size == live else now
        r = s % count[at]
        rows = table[codes[now, r]]
        approx = _slot_sums(rows, sizes[at], w[at])
        hit = approx < 1.0 - tol
        unsure = np.flatnonzero((approx <= 1.0 + tol) & ~hit)
        if unsure.size:
            hit[unsure] = _ddot_margins(groups, starts, pattern, w, now[unsure], r[unsure]) < 1.0
        w[:live] *= 1.0 - eta * SVM_LAMBDA
        np.add.at(w, now[hit], eta * rows[hit])
        due[at] = _next_due(s, slack, table, codes[at], sizes[at], w[at], count[at])
        upcoming = int(due[:live].min())
    return w


def _next_due(s: int, slack: float, table, codes, sizes, w, count: np.ndarray) -> np.ndarray:
    """Next due step of trials with weights w entering step s + 1.

    Until an add, step j only scales, by j/(j + 1) in exact terms, so the
    margin of row r at a later visit s' = r (mod c) is its slot sum a_r at
    w times (s + 1)/s', up to rounding: the trial is due at the first visit
    where that can be below 1 + slack, never (SVM_EPOCHS * c_max) past its
    last step.  The slack bounds the rounding: slot sum and ddot err by the
    tolerance together; eta * lambda is 1/t within 3u (u = 2**-53; lambda's
    rounding cancels), so a scale is j/(j + 1) within 4u for t >= 2 and its
    product adds u: gamma_{5N} K/lambda over N = SVM_EPOCHS * c_max steps,
    K columns and |w| <= 1/lambda.  "+ 2" and the factor 2 cover the
    visit's rounding and the denominators.
    """
    c_max = codes.shape[1]
    margin = np.empty(codes.shape)
    # rows per block: gathers within BATCH_BLOCK_ELEMS
    step = max(1, BATCH_BLOCK_ELEMS // w.size)
    for i in range(0, c_max, step):
        margin[:, i : i + step] = _slot_sums(table[codes[:, i : i + step]], sizes, w)
    margin[np.arange(c_max) >= count[:, None]] = np.nan  # rows past c: fmin gives the horizon
    limit = np.fmin(margin * ((s + 1) / (1.0 + slack)), SVM_EPOCHS * c_max)
    first = np.maximum(np.floor(limit).astype(np.int64) + 1, s + 1)
    visit = (first + (np.arange(c_max) - first) % count[:, None]).min(axis=1)
    return np.where(visit < SVM_EPOCHS * count, visit, SVM_EPOCHS * c_max)


def _svm_pick(scores: np.ndarray) -> np.ndarray:
    """Winning row of each row of (T, c) decision scores, as :func:`_svm_by_clusters` picks."""
    pos = scores >= 0.0
    n_pos = pos.sum(axis=1)
    n_neg = scores.shape[1] - n_pos
    # the larger side wins; an exact split goes to the side of the lowest index
    keep_pos = (n_pos > n_neg) | ((n_pos == n_neg) & pos[:, 0])
    side = np.where(keep_pos[:, None], pos, ~pos)
    side_scores = np.where(side, np.where(pos, scores, -scores), -np.inf)
    return np.argmax(side_scores, axis=1)


def _svm_by_clusters(cands: CandidateSet, rng: RngStream) -> tuple[int, Clustering | None]:
    """Max-margin resolution: 2-means labels refined by a Pegasos separator.

    The candidate Z-sequences get provisional +/-1 labels from a k=2
    clustering, a soft-margin linear separator (bias folded in as a
    constant feature) is trained by cyclic subgradient passes, points
    are re-labelled by the separator, and the larger side wins; the
    winning-side candidate with the largest decision margin is decoded.
    """
    if cands.count < 2:
        raise ValueError("resolution needs at least two candidates")
    z = cands.z_seqs.astype(np.float64)
    indices = cands.indices
    if _all_rows_equal(cands.z_seqs):
        return int(indices[0]), None

    clus = kmeans(cands.z_seqs, 2, rng)
    labels = np.where(clus.assignments == 0, 1.0, -1.0)
    feats = np.hstack([z, np.ones((cands.count, 1))])
    scores = feats @ _pegasos_separator(feats, labels)
    pos = scores >= 0.0
    n_pos = int(pos.sum())
    # the larger side wins; an exact split goes to the side holding the lowest message index
    side = pos if 2 * n_pos > cands.count or (2 * n_pos == cands.count and pos[0]) else ~pos
    side_scores = np.where(side, np.where(pos, scores, -scores), -np.inf)
    return int(indices[int(np.argmax(side_scores))]), clus


def _pegasos_separator(feats: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Pegasos weights for the rows of ``feats`` with +/-1 ``labels`` (cyclic subgradient steps)."""
    w = np.zeros(feats.shape[1])
    t = 0
    for _ in range(SVM_EPOCHS):
        for i in range(feats.shape[0]):
            t += 1
            eta = 1.0 / (SVM_LAMBDA * t)
            margin = labels[i] * float(feats[i] @ w)
            w *= 1.0 - eta * SVM_LAMBDA
            if margin < 1.0:
                w += (eta * labels[i]) * feats[i]
    return w
