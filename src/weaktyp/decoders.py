"""Classical and weak joint-typicality decoding with candidate resolvers.

The classical decoder treats anything but a unique typical codeword as
an error.  The weak decoder keeps every typical candidate and, when
there are several, resolves them from the geometry of their difference
sequences: cluster the Z-sequences, take the largest cluster, and
decode to the Z closest to its mean.  A max-margin variant refines the
2-means split with a Pegasos-trained linear separator.

All ties break toward the lowest message index (and, inside k-means,
toward the lowest cluster id), which makes every resolution
deterministic given its random stream.

Each resolver has a per-trial reference (:func:`cluster_resolve`,
:func:`svm_resolve`) and a batch form that resolves many trials in
lockstep and gives exactly the same results (:func:`cluster_resolve_batch`,
:func:`svm_resolve_batch`); both batch forms share one lockstep k-means.
Exactness needs every float64 sum to run in the reference's order: the
k-means distances reduce over the same contiguous axis, and the Pegasos
dot products go through the same BLAS call on the same shape (``ddot``
for a margin, ``gemv`` for the final scores), never through ``einsum``
or ``.sum()``, which sum in another order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Codebook, hamming_diff
from .rng import RngStream, uniforms_at
from .typicality import JointContext, pair_counts, typical_from_counts

RESOLVERS = ("cluster", "cluster-random", "svm")
# final pick rule of each cluster resolver (see :func:`cluster_resolve`)
CLUSTER_PICKS = {"cluster": "closest", "cluster-random": "random"}

KMEANS_MAX_ITERS = 100
SVM_LAMBDA = 0.01
SVM_EPOCHS = 200
# cap on the elements of one (trials, candidates, n) float64 block that
# cluster_resolve_batch or svm_resolve_batch (whose rows carry n+1
# features) holds at once; bounds their memory whatever the chunk
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

    @property
    def is_dummy(self) -> bool:
        return self.decoded == 0


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

    The per-trial resolver dispatch, shared by the single-trial
    reference path and the exhaustive oracle.
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
    decoded, clus = _resolve_by_clusters(cands, k_max, rng, CLUSTER_PICKS[resolver])
    return DecodeOutcome(decoded, cands.count, "cluster"), clus


def kmeans(points, k: int, rng: RngStream, max_iters: int = KMEANS_MAX_ITERS) -> Clustering:
    """Lloyd's algorithm with k-means++ style seeding.

    Point-to-centroid ties go to the lowest cluster id; a cluster that
    empties is reseeded with the point farthest from its centroid.  When
    the squared distances driving a seeding step are all zero (duplicate
    points), the lowest-index unchosen point is taken, keeping the whole
    procedure deterministic for a given stream.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty 2-D array")
    num = pts.shape[0]
    if not 1 <= k <= num:
        raise ValueError(f"k must be in 1..{num}, got {k}")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")

    centroids = np.empty((k, pts.shape[1]))
    first = min(int(rng.uniform() * num), num - 1)
    centroids[0] = pts[first]
    chosen = {first}
    d2 = ((pts - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            r = rng.uniform() * total
            pick = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            pick = min(pick, num - 1)
        else:
            pick = min(i for i in range(num) if i not in chosen)
        centroids[j] = pts[pick]
        chosen.add(pick)
        d2 = np.minimum(d2, ((pts - centroids[j]) ** 2).sum(axis=1))

    assign = np.full(num, -1, dtype=np.int64)
    trace = []
    iterations = max_iters
    for it in range(1, max_iters + 1):
        dist2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(dist2, axis=1)  # argmin takes the lowest id on ties
        trace.append(float(dist2[np.arange(num), new_assign].sum()))
        if np.array_equal(new_assign, assign):
            iterations = it
            break
        assign = new_assign
        for c in range(k):
            members = assign == c
            if members.any():
                centroids[c] = pts[members].mean(axis=0)
            else:
                far = int(np.argmax(((pts - centroids[c]) ** 2).sum(axis=1)))
                centroids[c] = pts[far]
    return Clustering(
        assignments=assign,
        centroids=centroids,
        k=k,
        iterations_used=iterations,
        objective_trace=np.asarray(trace),
    )


def _all_rows_equal(z: np.ndarray) -> bool:
    return bool(np.all(z == z[0]))


def _rows_distinct(z: np.ndarray) -> bool:
    return len({row.tobytes() for row in np.ascontiguousarray(z)}) == z.shape[0]


def _largest_cluster(assignments: np.ndarray, k: int) -> int:
    """Largest cluster id; ties go to the cluster holding the lowest point index."""
    sizes = np.bincount(assignments, minlength=k)
    best = int(sizes.max())
    for pos in range(assignments.size):
        if sizes[assignments[pos]] == best:
            return int(assignments[pos])
    raise AssertionError("unreachable: some cluster is nonempty")


def _resolve_by_clusters(
    cands: CandidateSet, k_max: int, rng: RngStream, pick: str
) -> tuple[int, Clustering | None]:
    if cands.count < 2:
        raise ValueError("resolution needs at least two candidates")
    if k_max < 1:
        raise ValueError("k_max must be positive")
    z = cands.z_seqs.astype(np.float64)
    indices = cands.indices
    if _all_rows_equal(cands.z_seqs):
        # nothing separates the candidates; lowest index wins
        return int(indices[0]), None
    k = min(k_max, cands.count)
    if pick == "closest" and _rows_distinct(cands.z_seqs) and (cands.count == 2 or k == cands.count):
        # Distinct points with k saturating the set (or a bare pair) always
        # collapse to singleton clusters, whose tie-break chain provably
        # lands on the lowest index; skip the Lloyd run.
        return int(indices[0]), None
    clus = kmeans(z, k, rng)
    winner = _largest_cluster(clus.assignments, k)
    members = clus.assignments == winner
    m = z[members].mean(axis=0)
    if pick == "random":
        positions = np.flatnonzero(members)
        r = rng.uniform()
        pos = positions[min(int(r * positions.size), positions.size - 1)]
        return int(indices[pos]), clus
    d2 = ((z - m) ** 2).sum(axis=1)
    # ties toward the lowest message index: indices ascend, argmin is first
    return int(indices[int(np.argmin(d2))]), clus


def cluster_resolve(cands: CandidateSet, k_max: int, rng: RngStream, pick: str = "closest") -> int:
    """Largest-cluster-mean resolution over the candidate Z-sequences.

    ``pick`` selects the final step: "closest" decodes to the Z nearest
    the largest cluster's mean, "random" to a uniform member of that
    cluster.
    """
    if pick not in ("closest", "random"):
        raise ValueError(f"unknown pick rule {pick!r}")
    decoded, _ = _resolve_by_clusters(cands, k_max, rng, pick)
    return decoded


@dataclass(frozen=True)
class BatchResolution:
    """Per-trial results of :func:`cluster_resolve_batch` and :func:`svm_resolve_batch`.

    ``iterations`` counts Lloyd assignment passes (``Clustering.iterations_used``)
    and is 0 where a shortcut decided without k-means; ``fallback_seeds``
    counts seeding steps that took the lowest unchosen point because every
    squared distance was zero; ``reseeds`` counts empty-cluster reseeds.
    """

    decoded: np.ndarray  # (T,) int64, 1-based message index
    iterations: np.ndarray  # (T,) int64
    fallback_seeds: np.ndarray  # (T,) int64
    reseeds: np.ndarray  # (T,) int64


def cluster_resolve_batch(
    cand_mask: np.ndarray,
    words: np.ndarray,
    received: np.ndarray,
    states: np.ndarray,
    k_max: int,
    pick: str = "closest",
) -> BatchResolution:
    """:func:`cluster_resolve` on many trials at once, bit for bit.

    Trial t has candidates ``flatnonzero(cand_mask[t])`` (at least two),
    codebook ``words[t]`` (or the shared ``words`` when it is 2-D),
    received word ``received[t]``, and resolver stream state ``states[t]``.
    Trials are grouped by candidate count and run through k-means++
    seeding and Lloyd in lockstep, a block of at most
    ``BATCH_BLOCK_ELEMS`` coordinates at a time.  Each trial reads its
    stream at its own cursor, so it draws exactly the values the
    per-trial path draws; distances reduce over the contiguous last axis
    and centroids are exact member sums over member counts, so every
    float64 tie resolves as in :func:`kmeans`.
    """
    if pick not in ("closest", "random"):
        raise ValueError(f"unknown pick rule {pick!r}")
    if k_max < 1:
        raise ValueError("k_max must be positive")
    cand_mask = np.asarray(cand_mask, dtype=bool)
    counts = cand_mask.sum(axis=1)
    if np.any(counts < 2):
        raise ValueError("resolution needs at least two candidates")
    total = counts.size
    decoded = np.zeros(total, dtype=np.int64)
    iterations = np.zeros(total, dtype=np.int64)
    fallback_seeds = np.zeros(total, dtype=np.int64)
    reseeds = np.zeros(total, dtype=np.int64)
    n = received.shape[1]
    for c in np.flatnonzero(np.bincount(counts)).tolist():
        group = np.flatnonzero(counts == c)
        # nonzero walks rows in order, so each row's indices ascend
        cand_idx = np.nonzero(cand_mask[group])[1].reshape(group.size, c)
        step = max(1, BATCH_BLOCK_ELEMS // (c * n))
        for lo in range(0, group.size, step):
            rows = group[lo : lo + step]
            idx = cand_idx[lo : lo + step]
            own = words[rows[:, None], idx] if words.ndim == 3 else words[idx]
            z = np.bitwise_xor(own, received[rows][:, None, :])
            pos, its, fb, rs = _resolve_block(z, states[rows], min(k_max, c), pick)
            decoded[rows] = idx[np.arange(rows.size), pos] + 1
            iterations[rows] = its
            fallback_seeds[rows] = fb
            reseeds[rows] = rs
    return BatchResolution(decoded, iterations, fallback_seeds, reseeds)


def _sq_dist(pts: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """(T, c) squared distances of each trial's points to its centre.

    The sum runs over the contiguous last axis, in the order ``kmeans`` uses;
    squaring in place holds one temporary the size of pts, not two.
    """
    diff = pts - centres[:, None, :]
    return np.square(diff, out=diff).sum(axis=2)


def _split_rows(z: np.ndarray) -> np.ndarray:
    """(T,) mask of the (c, n) point sets in z whose rows are not all equal."""
    return ~np.all(z == z[:, :1], axis=(1, 2))


def _resolve_block(
    z: np.ndarray, states: np.ndarray, k: int, pick: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Winning candidate position of each (c, n) point set in z, plus counters.

    Mirrors :func:`_resolve_by_clusters` step by step on a (T, c, n) block.
    """
    size, c, _ = z.shape
    pos = np.zeros(size, dtype=np.int64)  # shortcuts decode the lowest index
    iterations = np.zeros(size, dtype=np.int64)
    fallback_seeds = np.zeros(size, dtype=np.int64)
    reseeds = np.zeros(size, dtype=np.int64)

    run = _split_rows(z)
    if pick == "closest" and (c == 2 or k == c):
        distinct = np.ones(size, dtype=bool)
        for a in range(c):
            for b in range(a + 1, c):
                distinct &= np.any(z[:, a] != z[:, b], axis=1)
        run &= ~distinct
    sel = np.flatnonzero(run)
    if sel.size == 0:
        return pos, iterations, fallback_seeds, reseeds
    pts = z[sel].astype(np.float64)
    st = states[sel]
    assign, used, cursor, fallback, empty_count = _lockstep_kmeans(pts, st, k)
    trial = np.arange(sel.size)

    # largest cluster, ties to the cluster of the lowest point index
    cluster_ids = np.arange(k)
    sizes = (assign[:, :, None] == cluster_ids).sum(axis=1)
    point_sizes = np.take_along_axis(sizes, assign, axis=1)
    lead = np.argmax(point_sizes == sizes.max(axis=1)[:, None], axis=1)
    members = assign == assign[trial, lead][:, None]
    member_count = members.sum(axis=1)
    if pick == "random":
        nth = np.minimum((uniforms_at(st, cursor) * member_count).astype(np.int64), member_count - 1)
        winner = np.argmax(np.cumsum(members, axis=1) > nth[:, None], axis=1)
    else:
        mean = np.einsum("tc,tcn->tn", members.astype(np.float64), pts) / member_count[:, None]
        winner = np.argmin(_sq_dist(pts, mean), axis=1)

    pos[sel] = winner
    iterations[sel] = used
    fallback_seeds[sel] = fallback
    reseeds[sel] = empty_count
    return pos, iterations, fallback_seeds, reseeds


def _lockstep_kmeans(
    pts: np.ndarray, states: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`kmeans` on every (c, n) float64 point set of pts at once, bit for bit.

    Trial t reads stream ``states[t]`` from position 0.  Returns the
    (T, c) assignments, the Lloyd passes used, each stream's cursor
    after the last draw, and the fallback-seed and reseed counts of
    :class:`BatchResolution`.
    """
    num, c, _ = pts.shape
    trial = np.arange(num)

    # k-means++ seeding; the cursor advances only on the draws kmeans makes
    cursor = np.zeros(num, dtype=np.int64)
    first = np.minimum((uniforms_at(states, cursor) * c).astype(np.int64), c - 1)
    cursor += 1
    centroids = np.empty((num, k, pts.shape[2]))
    centroids[:, 0] = pts[trial, first]
    chosen = np.zeros((num, c), dtype=bool)
    chosen[trial, first] = True
    d2 = _sq_dist(pts, centroids[:, 0])
    fallback = np.zeros(num, dtype=np.int64)
    for j in range(1, k):
        total = d2.sum(axis=1)
        spread = total > 0.0
        r = uniforms_at(states, cursor) * total
        # searchsorted(cumsum, r, side="right") on every row at once
        drawn = np.minimum((np.cumsum(d2, axis=1) <= r[:, None]).sum(axis=1), c - 1)
        pick_j = np.where(spread, drawn, np.argmin(chosen, axis=1))
        cursor += spread
        fallback += ~spread
        chosen[trial, pick_j] = True
        centroids[:, j] = pts[trial, pick_j]
        d2 = np.minimum(d2, _sq_dist(pts, centroids[:, j]))

    # Lloyd, each trial frozen once its assignment repeats
    assign = np.full((num, c), -1, dtype=np.int64)
    used = np.full(num, KMEANS_MAX_ITERS, dtype=np.int64)
    empty_count = np.zeros(num, dtype=np.int64)
    active = np.ones(num, dtype=bool)
    cluster_ids = np.arange(k)
    for it in range(1, KMEANS_MAX_ITERS + 1):
        dist2 = np.stack([_sq_dist(pts, centroids[:, j]) for j in range(k)], axis=2)
        new_assign = np.argmin(dist2, axis=2)
        done = active & np.all(new_assign == assign, axis=1)
        used[done] = it
        active &= ~done
        if not active.any():
            break
        assign[active] = new_assign[active]
        member = assign[:, :, None] == cluster_ids
        sizes = member.sum(axis=1)
        # an emptied cluster is reseeded from its old centroid, so find those points first
        empty = active[:, None] & (sizes == 0)
        reseeded = []
        for j in np.flatnonzero(empty.any(axis=0)).tolist():
            e = np.flatnonzero(empty[:, j])
            far = np.argmax(_sq_dist(pts[e], centroids[e, j]), axis=1)
            reseeded.append((e, j, pts[e, far]))
        empty_count += empty.sum(axis=1)
        # centroids are updated in place, frozen trials included: they are never read again
        np.einsum("tck,tcn->tkn", member.astype(np.float64), pts, out=centroids)
        np.divide(centroids, np.maximum(sizes, 1)[:, :, None], out=centroids)
        for e, j, far_pts in reseeded:
            centroids[e, j] = far_pts
    return assign, used, cursor, fallback, empty_count


def svm_resolve_batch(
    cand_mask: np.ndarray,
    words: np.ndarray,
    received: np.ndarray,
    states: np.ndarray,
) -> BatchResolution:
    """:func:`svm_resolve` on many trials at once, bit for bit.

    Inputs are laid out as in :func:`cluster_resolve_batch`.  Trials are
    ordered by candidate count c, descending, and cut into blocks of at
    most ``BATCH_BLOCK_ELEMS`` padded elements (trials x largest c x
    (n+1)).  In a block, the 2-means labels come from the lockstep
    k-means of :func:`cluster_resolve_batch`, one candidate count at a
    time, and then one Pegasos loop runs every trial together.  The
    reference bumps ``t`` on every inner step, so at global step s every
    trial is at ``t = s + 1`` and uses its row ``s % c``; a trial with c
    candidates stops after ``SVM_EPOCHS * c`` steps, so the trials still
    running are a prefix of the block.  Rows are stored signed,
    ``label * [z, 1]``, which is exact for labels of +/-1, so a margin is
    one dot product and an update adds ``eta * x``.  They live in one
    zero-padded (trials, c_max, n+1) array per block, the block's only
    float copy: the 2-means reads its points from it before the signs go in.

    Bit-exactness rests on each float64 sum being the same BLAS call on
    the same shape as in the reference:

    - margins are ``np.matmul(x[:, None, :], w[:, :, None])``, which numpy
      runs as one vector-vector ``ddot`` per trial, the call ``feats[i] @ w``
      makes;
    - final scores are ``(T_c, c, n+1) @ (T_c, n+1, 1)`` for the trials of
      one candidate count, one ``gemv`` per trial of the shape of
      ``feats @ w``, on the rows unsigned again; the view holds exactly c
      rows, never the padding, since the ``gemv`` kernel's summation order may depend
      on the row count.

    ``einsum`` or ``.sum()`` in place of either call would change the
    summation order, and with it the last bits.  ``iterations``,
    ``fallback_seeds`` and ``reseeds`` count the 2-means run (0 where all
    rows are equal and the lowest index is decoded without one).
    """
    cand_mask = np.asarray(cand_mask, dtype=bool)
    counts = cand_mask.sum(axis=1)
    if np.any(counts < 2):
        raise ValueError("resolution needs at least two candidates")
    total = counts.size
    decoded = np.zeros(total, dtype=np.int64)
    iterations = np.zeros(total, dtype=np.int64)
    fallback_seeds = np.zeros(total, dtype=np.int64)
    reseeds = np.zeros(total, dtype=np.int64)
    n = received.shape[1]
    order = np.argsort(-counts, kind="stable")
    lo = 0
    while lo < total:
        c_max = int(counts[order[lo]])
        step = max(1, BATCH_BLOCK_ELEMS // (c_max * (n + 1)))
        block = order[lo : lo + step]
        lo += step
        # signed rows label * [z, 1] of the trials the separator runs on, zero-padded to c_max
        x = np.zeros((block.size, c_max, n + 1))
        live, groups, at = [], [], 0
        # per candidate count: candidate indices, Z, the all-equal shortcut, 2-means
        for c in np.flatnonzero(np.bincount(counts[block]))[::-1].tolist():
            rows = block[counts[block] == c]
            idx = np.nonzero(cand_mask[rows])[1].reshape(rows.size, c)
            own = words[rows[:, None], idx] if words.ndim == 3 else words[idx]
            z = np.bitwise_xor(own, received[rows][:, None, :])
            decoded[rows] = idx[:, 0] + 1
            sel = np.flatnonzero(_split_rows(z))
            if sel.size == 0:
                continue
            rows = rows[sel]
            feats = x[at : at + sel.size, :c]
            feats[:, :, :n] = z[sel]
            feats[:, :, n] = 1.0
            assign, used, _, fb, rs = _lockstep_kmeans(feats[:, :, :n], states[rows], 2)
            iterations[rows] = used
            fallback_seeds[rows] = fb
            reseeds[rows] = rs
            feats *= np.where(assign == 0, 1.0, -1.0)[:, :, None]
            live.append((rows, idx[sel]))
            groups.append((sel.size, c))
            at += sel.size
        if live:
            scores = _pegasos_scores(x[:at], groups)
            for (rows, idx), s in zip(live, scores):
                decoded[rows] = idx[np.arange(rows.size), _svm_pick(s)] + 1
    return BatchResolution(decoded, iterations, fallback_seeds, reseeds)


def _pegasos_scores(x: np.ndarray, groups: list[tuple[int, int]]) -> list[np.ndarray]:
    """Decision scores ``[z, 1] @ w`` after the Pegasos loop of :func:`svm_resolve`.

    ``x`` holds every trial's signed rows ``label * [z, 1]``, zero-padded
    to the largest candidate count; ``groups`` gives (trials, c_g) for the
    consecutive runs of trials with c_g candidates, in descending c_g.
    After the loop the rows are unsigned in place, multiplied by their
    labels read from the bias column, which gives back ``[z, 1]`` exactly,
    signed zeros included; the scores are then ``[z, 1] @ w`` as the
    reference computes them.  See :func:`svm_resolve_batch` for why the
    rest is exact.
    """
    sizes = [size for size, _ in groups]
    cs = np.repeat([c for _, c in groups], sizes)
    w = np.zeros((cs.size, x.shape[2]))
    start = 0
    # the smallest count stops first: the running trials are groups 0..g
    for g in reversed(range(len(groups))):
        live = sum(sizes[: g + 1])
        rows, c_live, w_live = np.arange(live), cs[:live], w[:live]
        end = SVM_EPOCHS * groups[g][1]
        for s in range(start, end):
            t = s + 1
            eta = 1.0 / (SVM_LAMBDA * t)
            xs = x[rows, s % c_live]
            hit = np.matmul(xs[:, None, :], w_live[:, :, None])[:, 0] < 1.0
            w_live *= 1.0 - eta * SVM_LAMBDA
            xs *= eta
            np.add(w_live, xs, out=w_live, where=hit)
        start = end
    scores = []
    at = 0
    for size, c in groups:
        feats = x[at : at + size, :c]
        feats *= feats[:, :, -1:].copy()
        scores.append(np.matmul(feats, w[at : at + size, :, None])[:, :, 0])
        at += size
    return scores


def _svm_pick(scores: np.ndarray) -> np.ndarray:
    """Winning row of each row of (T, c) decision scores, as :func:`svm_resolve` picks."""
    pos = scores >= 0.0
    n_pos = pos.sum(axis=1)
    n_neg = scores.shape[1] - n_pos
    # the larger side wins; an exact split goes to the side of the lowest index
    keep_pos = (n_pos > n_neg) | ((n_pos == n_neg) & pos[:, 0])
    side = np.where(keep_pos[:, None], pos, ~pos)
    side_scores = np.where(side, np.where(pos, scores, -scores), -np.inf)
    return np.argmax(side_scores, axis=1)


def svm_resolve(
    cands: CandidateSet,
    rng: RngStream,
    lam: float = SVM_LAMBDA,
    epochs: int = SVM_EPOCHS,
) -> int:
    """Max-margin resolution: 2-means labels refined by a Pegasos separator.

    The candidate Z-sequences get provisional +/-1 labels from a k=2
    clustering, a soft-margin linear separator (bias folded in as a
    constant feature) is trained by cyclic subgradient passes, points
    are re-labelled by the separator, and the larger side wins; the
    winning-side candidate with the largest decision margin is decoded.
    """
    decoded, _ = _svm_by_clusters(cands, rng, lam, epochs)
    return decoded


def _svm_by_clusters(
    cands: CandidateSet, rng: RngStream, lam: float = SVM_LAMBDA, epochs: int = SVM_EPOCHS
) -> tuple[int, Clustering | None]:
    if cands.count < 2:
        raise ValueError("resolution needs at least two candidates")
    z = cands.z_seqs.astype(np.float64)
    indices = cands.indices
    if _all_rows_equal(cands.z_seqs):
        return int(indices[0]), None

    clus = kmeans(z, 2, rng)
    labels = np.where(clus.assignments == 0, 1.0, -1.0)
    feats = np.hstack([z, np.ones((cands.count, 1))])
    scores = feats @ _pegasos_separator(feats, labels, lam, epochs)
    pos = scores >= 0.0
    n_pos = int(pos.sum())
    n_neg = cands.count - n_pos
    if n_pos > n_neg:
        side = pos
    elif n_neg > n_pos:
        side = ~pos
    else:
        # exact split: take the side holding the lowest message index
        side = pos if pos[0] else ~pos
    side_scores = np.where(side, np.where(pos, scores, -scores), -np.inf)
    return int(indices[int(np.argmax(side_scores))]), clus


def _pegasos_separator(
    feats: np.ndarray, labels: np.ndarray, lam: float = SVM_LAMBDA, epochs: int = SVM_EPOCHS
) -> np.ndarray:
    """Pegasos weights for the rows of ``feats`` with +/-1 ``labels`` (cyclic subgradient steps)."""
    w = np.zeros(feats.shape[1])
    t = 0
    for _ in range(epochs):
        for i in range(feats.shape[0]):
            t += 1
            eta = 1.0 / (lam * t)
            margin = labels[i] * float(feats[i] @ w)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += (eta * labels[i]) * feats[i]
    return w
