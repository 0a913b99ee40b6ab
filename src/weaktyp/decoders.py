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
once, with exactly the same results; it takes the candidates'
difference sequences bit-packed, with their indices, in parts of one
blocklength and one candidate count (:class:`PackedTrials`), and walks
them in one loop of blocks, through one lockstep k-means, for every
resolver.
It takes open trials only: two or more candidates, a typical sent word,
and a set :func:`index_decided` leaves.  The trial executor decides the
rest before it packs anything.

All ties break toward the lowest message index (and, inside k-means,
toward the lowest cluster id), which makes every resolution
deterministic given its random stream.  One index rule,
:func:`index_decided`, decodes the lowest index without a resolver where
the rows are all equal, and, under both cluster resolvers, where c
distinct rows have k = min(k_max, c) = c.  There k-means++ would seed
all c rows (its weighted draw, r < total, never lands on a row at
distance 0); Lloyd's first pass would make c singletons and the second
repeat them; and the size tie would go to the cluster at position 0,
whose single member is both the closest pick and the only random pick.
A pair the rule leaves under ``svm``, two distinct rows, needs no Lloyd
loop either: its 2-means is fixed by the first draw u_0.  Row
floor(2 u_0) seeds cluster 0; the other row is then the only one at a
nonzero distance, so the weighted draw seeds it for cluster 1; Lloyd's
first pass keeps each row with its own seed and the second repeats it.
So :func:`resolve_batch` labels the pair from u_0 alone, with 2 passes.

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

``svm`` runs Pegasos in exact integers (Shalev-Shwartz et al., *Pegasos*,
Math. Programming 2011, section 4): the weights after step t are
S_t/(lambda t), S_t summing y_s x_s over the hits, so with x = [z, 1],
K = G + 1 and the integers M = sum of y_s K[:, s], step t >= 2 hits its row
i where 100 y_i M_i < t - 1 and the scores are 100 M/T.  The float
reference stays within :func:`_margin_slack` of these along the same
hits, so where that is below 1/T it takes every hit the integers take
except at a margin tie, a visit with 100 y_i M_i = t - 1, where it may
go either way.  The integers follow both ways, so the reference's hits
are those of one branch, and a trial whose branches all end with untied
scores and one pick decodes to it.  Only the rest replay the float
loop, whose ``ddot`` and ``gemv`` make their bytes the BLAS kernel's.
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
# most integer branches one svm trial forks into at its margin ties; a trial over it replays in floats
SVM_BRANCHES = 32
# a step no visit reaches
_NEVER = np.iinfo(np.int64).max
# cap on the elements of one block's int64 k-means operands, the Gram
# matrices (trials, c, c) or, when c passes the block's longest n, the
# rows (trials, c, n), with Lloyd's (trials, c, k <= c) cluster weights beside them, and of
# the svm replay's float rows (trials, c, n+1) for its scores and of the
# (trials, classes) weights its hits add to at once; bounds their memory whatever the chunk
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

    ``iterations`` counts Lloyd assignment passes (``Clustering.iterations_used``),
    at least 2, as every trial it resolves is open (see
    :func:`resolve_batch`); an svm pair's closed-form 2-means counts the 2
    passes :func:`kmeans` makes.
    """

    decoded: np.ndarray  # (T,) int64, 1-based message index
    iterations: np.ndarray  # (T,) int64


@dataclass(frozen=True)
class PackedTrials:
    """Open trials of one blocklength n and one candidate count c, as :func:`resolve_batch` takes them.

    Trial t's c >= 2 candidates are messages ``idx[t] + 1`` (``idx`` is
    0-based, each row ascending); its difference sequence ``z_seqs[t, i]``
    is message ``idx[t, i] + 1``'s codeword XOR its received word, an
    ``np.packbits`` row, zero-padded; ``states[t]`` is its stream state.
    """

    n: int
    idx: np.ndarray  # (T, c) integers
    z_seqs: np.ndarray  # (T, c, ceil(n/8)) uint8
    states: np.ndarray  # (T,) uint64


def _blocks(parts: list[PackedTrials]):
    """(c, trials, packed rows, blocklengths) of every resolver block of ``parts``.

    Trials are numbered through the parts in turn.  The parts of one
    candidate count c, ascending, are joined whatever their n, rows
    zero-padded to the widest, which moves no Gram entry or row product,
    and cut into even blocks of at most :func:`_block_trials` trials for
    the longest n; a block's k-means reads Gram matrices or rows as its
    longest n decides (see :func:`_gram_products`).
    """
    counts = [part.idx.shape[1] for part in parts]
    if min(counts) < 2:
        raise ValueError("resolution needs at least two candidates")
    starts = np.cumsum([0] + [part.states.size for part in parts])
    for c in sorted(set(counts)):
        group = [p for p, count in enumerate(counts) if count == c]
        rows = np.concatenate([np.arange(starts[p], starts[p + 1]) for p in group])
        ns = np.concatenate([np.full(parts[p].states.size, parts[p].n) for p in group])
        x = np.zeros((rows.size, c, max(parts[p].z_seqs.shape[2] for p in group)), dtype=np.uint8)
        lo = 0
        for z in (parts[p].z_seqs for p in group):
            x[lo : lo + len(z), :, : z.shape[2]] = z
            lo += len(z)
        blocks = -(-rows.size // _block_trials(c, int(ns.max())))
        for block in zip(*(np.array_split(a, blocks) for a in (rows, x, ns))):
            yield c, *block


def resolve_batch(parts: list[PackedTrials], resolver: str, k_max: int) -> list[BatchResolution]:
    """The batch twin of :func:`weak_outcome`, decision for decision: one result per part.

    Every trial must be open: two or more candidates, a typical sent
    word, and a set :func:`index_decided` leaves, which the executor has
    checked on the codewords; no trial here is decided by index.  The parts
    may differ in n.  Every resolver block of :func:`_blocks` (one
    candidate count c) runs k-means++ seeding and Lloyd in lockstep
    (:func:`_lockstep_kmeans`) on the block's Gram products, with
    k = min(k_max, c), or 2 under ``svm``, whose pairs take their 2-means
    from their first draw instead (proof in the module docstring).
    Each trial reads its stream at its own cursor, and every comparison is
    exact in integers, so each decides as in :func:`kmeans`.  The cluster
    resolvers then pick with :func:`_cluster_pick`; ``svm`` runs
    :func:`_exact_pegasos` on the 2-means labels, and the trials it leaves
    undecided, or all where :func:`_margin_slack` does not certify the
    flush, replay in one :func:`_pegasos_scores` call.  ``iterations``
    counts the k-means passes, closed form or run.
    """
    if resolver not in RESOLVERS:
        raise ValueError(f"unknown resolver {resolver!r}")
    k_cap = 2 if resolver == "svm" else k_max
    if k_cap < 1:
        raise ValueError("k_max must be positive")
    certified = True
    if resolver == "svm":
        steps = SVM_EPOCHS * max(part.idx.shape[1] for part in parts)
        certified = _margin_slack(steps, max(part.n for part in parts) + 1) < 1.0 / steps
    states = np.concatenate([part.states for part in parts])
    picks = np.zeros(states.size, dtype=np.int64)  # each trial's decode, as a row of its part's idx
    iterations = np.zeros(states.size, dtype=np.int64)
    groups, places = [], []
    for c, rows, x, ns in _blocks(parts):
        k = min(k_cap, c)
        longest = int(ns.max())
        weight, gram_times = _gram_products(x, longest)
        if resolver == "svm" and c == 2:
            # 2-means of two distinct rows (module docstring): cluster 0 is row floor(2 u_0), 1 where
            # u_0 >= 1/2, cluster 1 the other row, in 2 passes
            first = uniforms_at(states[rows], 0) >= 0.5
            assign, iterations[rows] = (np.arange(2) != first[:, None]).astype(np.int64), 2
        else:
            assign, iterations[rows], cursor = _lockstep_kmeans(weight, gram_times, states[rows], k, longest)
        if resolver != "svm":
            pick = _cluster_pick(assign, k, weight, gram_times, states[rows], cursor, resolver)
        else:
            labels = np.where(assign == 0, 1, -1).astype(np.int8)
            _, _, pick, replay = _exact_pegasos(gram_times, labels)
            replay |= not certified
            for n in np.flatnonzero(np.bincount(ns[replay])).tolist():
                at = np.flatnonzero(replay & (ns == n))
                kernel = gram_times(np.broadcast_to(np.eye(c, dtype=np.int64), (at.size, c, c)), at) + 1
                groups.append((n, x[at, :, : -(-n // 8)], labels[at], kernel))
                places.append(rows[at])
        picks[rows] = pick
    if groups:
        for rows, scores in zip(places, _pegasos_scores(groups, certified)):
            picks[rows] = _svm_pick(scores)
    cuts = np.cumsum([part.states.size for part in parts])[:-1]
    return [
        BatchResolution(part.idx[np.arange(pick.size), pick].astype(np.int64) + 1, its)
        for part, pick, its in zip(parts, np.split(picks, cuts), np.split(iterations, cuts))
    ]


def _block_trials(c: int, n: int) -> int:
    """Trials per resolver block of c candidates of n symbols.

    A block holds the trials' c x c Gram matrices when c <= n, else their
    (c, n) int64 rows (see :func:`_gram_products`), and Lloyd's (c, k)
    products with k <= c beside them, and these take at most
    ``BATCH_BLOCK_ELEMS`` elements, or one trial.
    """
    return max(1, BATCH_BLOCK_ELEMS // (c * (min(c, n) + c)))


def index_decided(
    words: np.ndarray, mask: np.ndarray, counts: np.ndarray, trials: np.ndarray, resolver: str, k_max: int
) -> np.ndarray:
    """Mask of the ``trials``, of ``counts`` >= 2 candidates each, that decode their lowest index without a resolver.

    Trial t's candidates are the rows ``flatnonzero(mask[t])`` of its
    (T, m, L) uint8 rows ``words[t]``; ``counts`` are the mask's row sums.
    The rows are the kernel call's codewords, or difference words, packed
    or not, as XOR with one received word and zero-padded packing keep
    equality; each is one L-byte void scalar, so two compare in one
    memcmp, read by (trial, codeword), so a broadcast view (a fixed
    codebook's) is never copied.  The index rule (proof in the module
    docstring): all rows equal, under every resolver; or, under
    ``cluster`` and ``cluster-random``, c <= k_max pairwise-distinct rows,
    which takes every pair when k_max >= 2.  No set it decides makes a
    draw.  A trial leaves each test at its first row that fails it.
    """
    rows = words.view(np.dtype((np.void, words.shape[2])))[:, :, 0]
    # every candidate's codeword, trial after trial, ascending
    cands = np.flatnonzero(mask)
    cands %= mask.shape[1]
    starts, counts = (np.cumsum(counts) - counts)[trials], counts[trials]

    def same(a: int, b: int, at: np.ndarray) -> np.ndarray:
        t, first = trials[at], starts[at]
        return rows[t, cands[first + a]] == rows[t, cands[first + b]]

    # svm decides equal rows only; a pair within k_max is decided equal or not, so its rows go unread
    k_max = 1 if resolver == "svm" else k_max
    first = np.zeros(counts.size, dtype=bool)
    at = np.flatnonzero((counts > 2) | (counts > k_max))
    first[at] = same(0, 1, at)
    equal = first.copy()
    for b in range(2, int(counts.max(initial=2))):
        at = np.flatnonzero(equal & (counts > b))
        if at.size == 0:
            break
        equal[at] = same(0, b, at)
    distinct = (counts <= k_max) & ~first
    for b in range(2, min(k_max, int(counts.max(initial=2)))):
        for a in range(b):
            at = np.flatnonzero(distinct & (counts > b))
            distinct[at] = ~same(a, b, at)
    return equal | distinct


def _gram_products(x: np.ndarray, n: int) -> tuple[np.ndarray, Callable[..., np.ndarray]]:
    """Diagonal and product map of the Gram matrices G = x x^T of (T, c, width) packed rows x of at most n symbols.

    Returns the (T, c) diagonal (each row's weight) and a map taking
    (T, c, k) 0/1 weights v to G v, all int64; given trial indices
    ``at`` it takes (len(at), c, k) weights to G[at] v.  When c <= n, G
    is formed once, (T, c, c), from the packed bytes with
    ``np.bitwise_count``; when c > n, G v is taken as x (x^T v) from the
    rows unpacked to n symbols, a shorter row's past its end being 0, so
    no array grows as c**2.  The integers are the same either way.
    """
    size, c, width = x.shape
    if c > n:
        rows = np.unpackbits(x, axis=2, count=n).astype(np.int64)

        def rows_times(v: np.ndarray, at=slice(None)) -> np.ndarray:
            x_at = rows[at]
            return np.matmul(x_at, np.matmul(x_at.transpose(0, 2, 1), v))

        return rows.sum(axis=2), rows_times
    bits = np.zeros((size, c, -(-width // 8) * 8), dtype=np.uint8)
    bits[:, :, :width] = x
    bits = bits.view(np.uint64)
    gram = np.zeros((size, c, c), dtype=np.int64)
    for w in range(bits.shape[2]):
        gram += np.bitwise_count(bits[:, :, None, w] & bits[:, None, :, w])
    return np.diagonal(gram, axis1=1, axis2=2), lambda v, at=slice(None): np.matmul(gram[at], v)


def _cluster_pick(
    assign: np.ndarray,
    k: int,
    weight: np.ndarray,
    gram_times: Callable[..., np.ndarray],
    states: np.ndarray,
    cursor: np.ndarray,
    resolver: str,
) -> np.ndarray:
    """Winning candidate position of each of T k-means runs, as :func:`_resolve_by_clusters` picks.

    ``assign`` is the (T, c) k-means assignment, ``weight`` and
    ``gram_times`` the Gram products of :func:`_gram_products`, and
    ``cluster-random`` draws from each stream ``states[t]`` at ``cursor[t]``.
    """
    trial = np.arange(assign.shape[0])
    # largest cluster, ties to the cluster of the lowest point index
    sizes = (assign[:, :, None] == np.arange(k)).sum(axis=1)
    point_sizes = np.take_along_axis(sizes, assign, axis=1)
    lead = np.argmax(point_sizes == sizes.max(axis=1)[:, None], axis=1)
    members = assign == assign[trial, lead][:, None]
    member_count = members.sum(axis=1)
    if resolver == "cluster-random":
        nth = np.minimum((uniforms_at(states, cursor) * member_count).astype(np.int64), member_count - 1)
        return np.argmax(np.cumsum(members, axis=1) > nth[:, None], axis=1)
    # least sum of Hamming distances to the members, s G_ii - 2 (G v)_i up to a constant
    inner = gram_times(members[:, :, None].astype(np.int64))[:, :, 0]
    return np.argmin(member_count[:, None] * weight - 2 * inner, axis=1)


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
    d2 = seed_dist(seeds[:, 0])
    for j in range(1, k):
        total = d2.sum(axis=1)
        spread = total > 0.0
        r = uniforms_at(states, cursor) * total
        # searchsorted(cumsum, r, side="right") on every row at once
        drawn = np.minimum((np.cumsum(d2, axis=1) <= r[:, None]).sum(axis=1), c - 1)
        # all distances 0: every row copies one of the drawn seeds, all of lower id, so a cluster seeded
        # here ties with a lower-id twin on every row, empties in pass 1 and again in pass 2 after its
        # reseed; kmeans seeds the lowest unchosen row, which only its centroids show, so take seed 0
        seeds[:, j] = np.where(spread, drawn, seeds[:, 0])
        cursor += spread
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
        shifted = (-2 * size)[:, None, :] * inner
        shifted += quad[:, None, :]
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


def _margin_slack(steps: int, k: int) -> float:
    """Bound on |float - exact| of Pegasos margins and scores on k columns, over ``steps`` steps of the same hits.

    |w| <= 1/lambda; a step's scale errs by at most 4u |w| (u = 2**-53) and
    its add by u |w|, and a scale only shrinks an earlier error, so a weight
    errs by 5 u N / lambda after N steps; a sum of K of them adds
    K u K / lambda in any order.  "+ 2" and the factor 2 cover the rest.
    """
    return 2.0 * (5 * steps + k + 2) * 2.0**-53 * k / SVM_LAMBDA


def _visits(margin: np.ndarray, row: np.ndarray, c, after) -> tuple[np.ndarray, np.ndarray]:
    """Next hit and tie visit after step ``after`` of rows i of c with margins 100 y_i M_i, while M stays.

    Row i is visited at the steps t = i + 1 (mod c); it hits at the first
    with t - 1 > 100 y_i M_i, and ties at t - 1 = 100 y_i M_i, or never
    (the largest int64).
    """
    hit = np.maximum(after + 1, margin + 2)
    hit += (row + 1 - hit) % c
    tie = margin + 1
    return hit, np.where((tie > after) & ((tie - row - 1) % c == 0), tie, _NEVER)


def _exact_pegasos(
    gram_times: Callable[..., np.ndarray], labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact Pegasos on T sets of c rows with (T, c) +/-1 labels, each margin tie followed both ways.

    K = G + 1 comes from the Gram product map of :func:`_gram_products`.
    A branch is a trial's M and the step it has run to; branch t < T is
    trial t's first.  Each pass moves every live branch to its next hit
    (:func:`_visits`), adding the K column of that hit; a branch whose
    next tie comes first forks there, into a new branch that hits at the
    tie and itself, which runs on from the tie without the hit.  A trial
    with more than ``SVM_BRANCHES`` branches stops.  Returns each
    branch's trial and (c,) M, and per trial the :func:`_svm_pick` of
    its first branch and a replay flag: the trial went over the cap, or
    one of its branches has a score tie (some M_i = 0, or another row
    with the picked M) or picks another row.
    """
    (num, c), steps = labels.shape, SVM_EPOCHS * labels.shape[1]
    y, live, over = labels.astype(np.int64), np.arange(num), np.zeros(num, dtype=bool)
    # per branch: its trial, M, the step it has run to and the row that hits there (-1: none)
    trial, sums = np.arange(num), np.zeros((num, c), dtype=np.int64)
    last, at = np.ones(num, dtype=np.int64), np.zeros(num, dtype=np.int64)  # step 1 hits row 0: w_0 = 0
    while live.size:
        hits = live[at[live] >= 0]
        onehot = np.zeros((hits.size, c, 1), dtype=np.int64)
        onehot[np.arange(hits.size), at[hits]] = 1
        sums[hits] += y[trial[hits], at[hits], None] * (gram_times(onehot, trial[hits])[:, :, 0] + 1)
        hit, tied = _visits(100 * y[trial[live]] * sums[live], np.arange(c), c, last[live, None])
        nxt, tie = hit.min(axis=1), tied.min(axis=1)
        fork = tie < np.minimum(nxt, steps + 1)
        last[live], at[live] = np.where(fork, tie, nxt), np.where(fork, -1, np.argmin(hit, axis=1))
        forked, live = live[fork], live[fork | (nxt <= steps)]
        if forked.size:
            live = np.append(live, np.arange(trial.size, trial.size + forked.size))
            trial, sums = np.append(trial, trial[forked]), np.concatenate([sums, sums[forked]])
            last, at = np.append(last, tie[fork]), np.append(at, np.argmin(tied[fork], axis=1))
            over[np.bincount(trial, minlength=num) > SVM_BRANCHES] = True
            live = live[~over[trial[live]]]
    pick = _svm_pick(sums.astype(np.float64))
    tied_score = np.any(sums == 0, axis=1) | ((sums == sums[np.arange(trial.size), pick, None]).sum(axis=1) > 1)
    replay = over.copy()
    replay[trial[tied_score | (pick != pick[trial])]] = True
    return trial, sums, pick[:num], replay


def _column_classes(feats: np.ndarray) -> np.ndarray:
    """Class of each column of (..., c, k) 0/1 rows: its pattern, sum of x_a 2**a, or the column itself where 2**c > k."""
    c, k = feats.shape[-2:]
    if 2**c > k:
        return np.broadcast_to(np.arange(k), feats.shape[:-2] + (k,))
    return (1 << np.arange(c)) @ feats


def _pegasos_scores(groups: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]], certified: bool) -> list[np.ndarray]:
    """Scores ``[z, 1] @ w`` after the float Pegasos loop of :func:`_svm_by_clusters`, for each group.

    A group ``(n, z, labels, kernel)`` holds the (T, c, ceil(n/8)) packed
    rows, (T, c) +/-1 labels and (T, c, c) K = G + 1 of trials of one n
    and c.  All run in one lockstep
    loop, c descending so the running trials are a prefix, with the
    reference's float operations one for one on one float64 weight per
    column class of each trial (:func:`_column_classes`): the columns of
    a class take the same scales and adds, so each of their reference
    weights is bitwise the class weight.  The weights are one (T, P)
    matrix, a row per trial, and the class rows one (rows, P) matrix, P
    the most classes of any trial; a trial with fewer leaves the rest
    +0 and never reads them.  Each row keeps its exact M,
    updated from the trial's K = G + 1, so where ``certified`` a trial
    is visited only at its next hit, which M decides, or tie, which
    :func:`_ddot_margin` decides; otherwise that decides every visit.
    The weights expand to the reference's n+1 columns only for that
    ``ddot`` and for the scores, one ``gemv`` per trial of the
    reference's shape.
    """
    order = sorted(range(len(groups)), key=lambda g: -groups[g][1].shape[1])
    ordered = [groups[g] for g in order]
    width, sizes = max(group[0] for group in groups) + 1, [z.shape[0] for _, z, _, _ in ordered]
    count = np.repeat([z.shape[1] for _, z, _, _ in ordered], sizes)
    cols = np.repeat([n + 1 for n, _, _, _ in ordered], sizes)
    classes = max(min(2 ** z.shape[1], n + 1) for n, z, _, _ in ordered)
    y = np.concatenate([labels.ravel() for _, _, labels, _ in ordered]).astype(np.int64)
    kernel = np.concatenate([group[3].ravel() for group in ordered])
    start, koff = np.cumsum(count) - count, np.cumsum(count**2) - count**2
    rows, w = np.zeros((int(count.sum()), width), dtype=np.uint8), np.zeros((count.size, classes))
    class_rows = np.zeros((rows.shape[0], classes), dtype=np.uint8)
    cuts = start[np.cumsum(sizes)[:-1]]
    row_blocks = np.split(rows, cuts)
    for (n, z, _, _), block, class_block in zip(ordered, row_blocks, np.split(class_rows, cuts)):
        (size, c, _), k = z.shape, n + 1
        block[:, :n], block[:, n] = np.unpackbits(z, axis=2, count=n).reshape(-1, n), 1
        if 2**c > k:
            class_block[:, :k] = block[:, :k]
        else:
            # class p holds row a where bit a of p is set
            class_block[:, : 2**c] = np.tile((np.arange(2**c) >> np.arange(c)[:, None]) & 1, (size, 1))
    # the trials running at step t, SVM_EPOCHS * c >= t, are the first lives[t]
    lives = np.searchsorted(-SVM_EPOCHS * count, -np.arange(SVM_EPOCHS * int(count[0]) + 1), side="right").tolist()
    chunk = max(1, BATCH_BLOCK_ELEMS // classes)
    sums, due, upcoming = np.zeros(rows.shape[0], dtype=np.int64), np.ones(count.size, dtype=np.int64), 1  # step 1 hits
    for t in range(1, len(lives)):
        eta = 1.0 / (SVM_LAMBDA * t)
        if t < upcoming:
            w[: lives[t]] *= 1.0 - eta * SVM_LAMBDA
            continue
        now = np.flatnonzero(due[: lives[t]] == t)
        r = start[now] + (t - 1) % count[now]
        margin = 100 * y[r] * sums[r]
        hit = (margin < t - 1) | (t == 1)
        for j in np.flatnonzero(((margin == t - 1) & (t > 1)) | (not certified)).tolist():
            f = now[j]
            own = rows[start[f] : start[f] + count[f], : cols[f]]
            hit[j] = _ddot_margin(rows[r[j], : cols[f]], int(y[r[j]]), w[f, _column_classes(own)]) < 1.0
        w[: lives[t]] *= 1.0 - eta * SVM_LAMBDA
        h, rh = now[hit], r[hit]
        # adding +-0 where a class row is 0 moves no weight but -0, and none is -0 (they start +0, scales
        # are >= 0, a sum is -0 only of two -0): each hit adds its whole class row, chunk trials at a time
        for lo in range(0, h.size, chunk):
            hc, rc = h[lo : lo + chunk], rh[lo : lo + chunk]
            w[hc] += (eta * y[rc])[:, None] * class_rows[rc]
        # M += y_s K[:, s] on the rows of each trial that hits, s its hit row; then each trial's next visit
        firsts = np.cumsum(count[now]) - count[now]
        owner = np.repeat(np.arange(now.size), count[now])
        pos = np.arange(owner.size) - firsts[owner]
        at = start[now][owner] + pos
        sums[at] += (hit * y[r])[owner] * kernel[(koff[now] + r - start[now])[owner] + pos * count[now][owner]]
        nxt, tied = _visits(100 * y[at] * sums[at], pos, count[now][owner], t)
        due[now] = np.minimum.reduceat(np.minimum(nxt, tied), firsts) if certified else t + 1
        upcoming = int(due[: lives[t]].min())
    scores: list[np.ndarray] = [np.empty(0)] * len(groups)
    for g, (n, z, _, _), feats, w_g in zip(order, ordered, row_blocks, np.split(w, np.cumsum(sizes)[:-1])):
        size, c, _ = z.shape
        feats = feats[:, : n + 1].reshape(size, c, n + 1)
        step = max(1, BATCH_BLOCK_ELEMS // (c * (n + 1)))
        blocks = []
        for lo in range(0, size, step):
            f = feats[lo : lo + step]
            full = np.take_along_axis(w_g[lo : lo + step], _column_classes(f), axis=1)
            blocks.append(f.astype(np.float64) @ full.reshape(f.shape[0], n + 1, 1))
        scores[g] = np.concatenate(blocks)[:, :, 0]
    return scores


def _ddot_margin(row: np.ndarray, label: int, w: np.ndarray) -> float:
    """The reference's margin ``label * float(feats[i] @ w)`` of one uint8 row [z, 1].

    On a fresh copy of the weights, aligned as the reference's: OpenBLAS's
    Prescott ``ddot`` sums in an order set by its second operand's alignment.
    """
    return float(label) * float(row.astype(np.float64) @ w.copy())


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
