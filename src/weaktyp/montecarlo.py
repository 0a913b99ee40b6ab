"""Trial execution, paired error estimation, exponents, and the exact oracle.

Both decoders always see the same codebook, message, and noise, so the
weak decoder can only ever remove errors: zero or one candidates give
identical verdicts, and with two or more candidates the classical
decoder has already failed.  That pathwise dominance is asserted on
every trial.  Where the sent word is not typical, the weak decoder errs
too, whatever candidate it would pick, so a multi-candidate trial whose
sent word is atypical is lost: it decodes 0 under both decoders,
unresolved, in the executor and in the reference path alike.

Stream discipline: all randomness flows from ``master_seed``.  The
instance parameters (n, m, q, channel, eps, codebook mode) are folded
into a derived master so that different sweep points draw decorrelated
streams, and trial t then owns the four purpose streams (codebook,
message, noise, resolver) that ``rng.trial_stream`` lays out, as do
the kernel and the reference path.  Batches, single trials, and the
exhaustive oracle all reproduce each other exactly.

Execution: :func:`iter_points` is the one trial executor.  It simulates
the points that share (m, n, channel, eps) in kernel calls sized to
``CALL_BYTES`` that span points, leaves each lost trial at 0, decodes
each other multi-candidate trial the index rule decides
(``decoders.index_decided``) to its lowest candidate straight from the
kernel's codewords, and resolves the rest, the open trials, of every
point of one shape (m, resolver, k_max), whatever their blocklengths,
together, from their bit-packed difference sequences, so a kernel call
and a lockstep resolver loop each run once per batch of points rather
than once per point; :func:`run_trials` runs it on a single point.

:func:`estimate_points` is the one error-count loop: every sweep,
:func:`estimate_pe` and the oracle check count errors through it, in
spans of ``DEFAULT_CHUNK`` trials, so memory does not grow with the
trial count.  Because every point owns its derived master, the result
of a point never depends on which points it was pooled with.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields
from hashlib import blake2b
from itertools import groupby

import numpy as np

from . import decoders, kernels
from .core import Codebook, Dmc, draw_message, generate_codebook, transmit
from .decoders import (
    CandidateSet,
    Clustering,
    DecodeOutcome,
    PackedTrials,
    RESOLVERS,
    classical_outcome,
    find_candidates,
    resolve_batch,
    weak_outcome,
)
from .rng import FIXED_CODEBOOK_STREAM, ORACLE_RESOLVER_STREAM, RngStream, mix64, stream_states, trial_stream
from .rng import PURPOSE_CODEBOOK, PURPOSE_MESSAGE, PURPOSE_NOISE, PURPOSE_RESOLVER
from .typicality import build_context

ENUM_MAX_N = 12
ENUM_MAX_M = 4

# trials per kernel call at most, and per span of estimate_points
DEFAULT_CHUNK = 2048

# admission bound: the most bytes one trial may take in a kernel call,
# call_bytes(m, n); config.validate rejects a config whose longest
# blocklength needs more
CHUNK_BYTES = 1 << 27

# per-call target of a kernel call's footprint (trials x call_bytes): cache
# scale, and below glibc's 32 MiB mmap-threshold cap, so each call reuses
# heap pages instead of faulting in fresh ones; a trial above it runs alone
CALL_BYTES = 1 << 24

# a pool of open trials is resolved once their bit-packed difference
# sequences fill this many resolver blocks (decoders.BATCH_BLOCK_ELEMS
# bytes each), or once the batches it keeps waiting would pass as many bytes
POOL_BLOCKS = 4

CODEBOOK_MODES = ("redraw", "fixed")


@dataclass(frozen=True)
class TrialConfig:
    """Everything one trial depends on, besides its trial id."""

    n: int
    m: int
    q: float
    channel: Dmc
    eps: float
    resolver: str = "cluster"
    k_max: int = 3
    codebook_mode: str = "redraw"
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("blocklength n must be positive")
        if self.m < 2:
            raise ValueError("need at least 2 messages for meaningful decoding")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"codeword bias q must be in (0, 1), got {self.q}")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.resolver not in RESOLVERS:
            raise ValueError(f"unknown resolver {self.resolver!r}")
        if self.k_max < 1:
            raise ValueError("k_max must be positive")
        if self.codebook_mode not in CODEBOOK_MODES:
            raise ValueError(f"unknown codebook_mode {self.codebook_mode!r}")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one trial under both decoders on shared randomness."""

    trial_id: int
    true_w: int
    jt_outcome: DecodeOutcome
    weak_outcome: DecodeOutcome
    candidate_count: int

    def __post_init__(self) -> None:
        weak_err = self.weak_outcome.decoded != self.true_w
        jt_err = self.jt_outcome.decoded != self.true_w
        if weak_err and not jt_err:
            raise ValueError("dominance violated: weak decoder erred where the classical one succeeded")


@dataclass(frozen=True)
class PeEstimate:
    """Monte Carlo error-probability estimate with the zero-error floor."""

    trials: int
    errors: int
    pe_hat: float
    zero_error: bool

    @classmethod
    def from_counts(cls, trials: int, errors: int) -> "PeEstimate":
        if trials < 1:
            raise ValueError("trials must be positive")
        if not 0 <= errors <= trials:
            raise ValueError("errors must lie in 0..trials")
        if errors == 0:
            # Pe=0 has no exponent; floor at one error and flag the point
            return cls(trials=trials, errors=0, pe_hat=1.0 / trials, zero_error=True)
        return cls(trials=trials, errors=errors, pe_hat=errors / trials, zero_error=False)


@dataclass(frozen=True)
class ExponentPoint:
    """One (blocklength, rate, Pe, exponent) tuple for one decoder."""

    n: int
    rate: float
    pe: PeEstimate
    exponent: float


def error_exponent(pe_hat: float, n: int) -> float:
    """-ln(pe)/n, the exponent a given error probability implies at blocklength n."""
    if n < 1:
        raise ValueError("blocklength must be positive")
    if not 0.0 < pe_hat <= 1.0:
        raise ValueError(f"pe must be in (0, 1], got {pe_hat}")
    return -math.log(pe_hat) / n


def exponent(pe: PeEstimate, n: int, m: int) -> ExponentPoint:
    """Exponent point for an estimate; rate is log2(m)/n bits per symbol."""
    if m < 1:
        raise ValueError("message count must be positive")
    return ExponentPoint(n=n, rate=math.log2(m) / n, pe=pe, exponent=error_exponent(pe.pe_hat, n))


def derived_master(cfg: TrialConfig) -> int:
    """Fold the instance parameters into the master seed.

    Distinct sweep points must not share stream prefixes, but the seed
    may not depend on decode-stage knobs (resolver, k_max): those only
    read the dedicated resolver stream, so changing them never perturbs
    the generated trials.
    """
    key = repr(
        (
            cfg.n,
            cfg.m,
            cfg.q,
            cfg.channel.transition.tolist(),
            cfg.eps,
            cfg.codebook_mode,
        )
    ).encode()
    digest = blake2b(key, digest_size=8).digest()
    return mix64(cfg.master_seed ^ int.from_bytes(digest, "little"))


def fixed_codebook(cfg: TrialConfig) -> Codebook:
    """The shared codebook of fixed-codebook mode, drawn from its reserved stream."""
    rng = RngStream(derived_master(cfg), FIXED_CODEBOOK_STREAM)
    return generate_codebook(cfg.m, cfg.n, cfg.q, rng)


def _trial_codebook(cfg: TrialConfig, dm: int, trial_id: int) -> Codebook:
    if cfg.codebook_mode == "fixed":
        return fixed_codebook(cfg)
    rng = RngStream(dm, trial_stream(trial_id, PURPOSE_CODEBOOK))
    return generate_codebook(cfg.m, cfg.n, cfg.q, rng)


def _resolver_stream(dm: int, trial_id: int) -> RngStream:
    return RngStream(dm, trial_stream(trial_id, PURPOSE_RESOLVER))


@dataclass(frozen=True)
class TrialDetail:
    """Everything :func:`run_trial` saw, for inspection and debugging."""

    record: TrialRecord
    received: np.ndarray
    candidates: CandidateSet
    clustering: Clustering | None


def trial_detail(cfg: TrialConfig, trial_id: int) -> TrialDetail:
    """One trial through the reference (non-kernel) path, with its candidate set and clustering.

    The candidate set is the full scan.  A trial of two or more
    candidates without the sent word among them is lost: its weak
    outcome is ``DecodeOutcome(0, c, "none")``, and no resolver stream is
    built for it; every other trial's is :func:`~weaktyp.decoders.weak_outcome`
    on its candidate set.
    """
    if trial_id < 0:
        raise ValueError("trial_id must be nonnegative")
    dm = derived_master(cfg)
    ctx = build_context(cfg.q, cfg.channel)
    cb = _trial_codebook(cfg, dm, trial_id)
    w = draw_message(cfg.m, RngStream(dm, trial_stream(trial_id, PURPOSE_MESSAGE)))
    y = transmit(cb.word(w), cfg.channel, RngStream(dm, trial_stream(trial_id, PURPOSE_NOISE)))
    cands = find_candidates(y, cb, ctx, cfg.eps)
    if cands.count >= 2 and w not in cands.indices:
        # the sent word is atypical: both decoders err whatever the resolver would pick
        weak, clustering = DecodeOutcome(0, cands.count, "none"), None
    else:
        weak, clustering = weak_outcome(cands, cfg.resolver, _resolver_stream(dm, trial_id), cfg.k_max)
    record = TrialRecord(
        trial_id=trial_id,
        true_w=w,
        jt_outcome=classical_outcome(cands),
        weak_outcome=weak,
        candidate_count=cands.count,
    )
    return TrialDetail(record=record, received=y, candidates=cands, clustering=clustering)


def run_trial(cfg: TrialConfig, trial_id: int) -> TrialRecord:
    """One trial through the reference (non-kernel) path; both decoders share everything.

    The record of :func:`trial_detail`: a lost trial decodes 0 under both decoders.
    """
    return trial_detail(cfg, trial_id).record


@dataclass(frozen=True)
class TrialBatch:
    """Vectorized outcomes of a contiguous block of trials."""

    true_w: np.ndarray
    jt_decoded: np.ndarray
    weak_decoded: np.ndarray
    candidate_counts: np.ndarray

    @property
    def trials(self) -> int:
        return int(self.true_w.size)

    @property
    def jt_errors(self) -> int:
        return int((self.jt_decoded != self.true_w).sum())

    @property
    def weak_errors(self) -> int:
        return int((self.weak_decoded != self.true_w).sum())


def call_bytes(m: int, n: int) -> int:
    """Bytes one trial takes inside a :func:`~weaktyp.kernels.simulate_trials` call, of one point or several.

    Measured with tracemalloc and pinned by tests.  A trial's codebook
    (mn bytes) and received word (n) are held throughout, its sent word
    (n) only through the noise draw, and its scan arrays (int64 counts,
    typicality terms, mask: 65 bytes per codeword measured, 73 allowed)
    after it; with 56 bytes of per-trial scalars (its stream states and
    its point's threshold and constants among them), this sum bounds them.
    The kernel's block buffers come on top, once per call: its two kept
    ``kernels.BLOCK_ELEMS`` uint64 draw buffers, the codebook's position
    offsets and one ``kernels.BLOCK_ELEMS`` float32 count buffer.
    """
    return m * (n + 73) + 2 * n + 56


def _shape(cfg: TrialConfig) -> tuple[int, str, int]:
    """Sweep points of one shape have their multi-candidate trials resolved together, whatever their n."""
    return (cfg.m, cfg.resolver, cfg.k_max)


class _Pool:
    """Open trials of the sweep points of one shape, awaiting one resolver call.

    A part holds open trials of one kernel call: n, candidate masks,
    bit-packed difference sequences (each trial's codewords XOR its
    received word) and resolver states, plus the array and positions
    their decodes go to.  The pool is bounded by ``budget`` =
    ``POOL_BLOCKS`` resolver blocks of packed rows, a part counting its
    ``z_seqs.nbytes``: a part that would pass it first
    flushes the pool, and a part that fills it alone is resolved alone.
    No part is joined to another or copied, so the pooled trials stay
    within it.  A part of a batch the pool does not await yet also first
    flushes it where that batch would take the awaited batches past the
    budget, so a sweep holds few batches open, however few trials it pools.
    """

    def __init__(self, resolver: str, k_max: int) -> None:
        self.resolver, self.k_max = resolver, k_max
        self.budget = POOL_BLOCKS * decoders.BATCH_BLOCK_ELEMS
        self.parts: list[tuple] = []
        self.bytes = 0

    def add(
        self,
        n: int,
        mask: np.ndarray,
        z_seqs: np.ndarray,
        states: np.ndarray,
        weak: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        size = z_seqs.nbytes
        waiting = self.waiting()
        if self.bytes + size > self.budget or (
            id(weak) not in waiting and sum(waiting.values()) + _batch_bytes(weak) > self.budget
        ):
            self.flush()
        self.parts.append((n, mask, z_seqs, states, weak, positions))
        self.bytes += size
        if self.bytes >= self.budget:
            self.flush()

    def waiting(self) -> dict[int, int]:
        """Bytes of each batch that pooled trials are still to be written into, by the id of its decode array."""
        return {id(part[4]): _batch_bytes(part[4]) for part in self.parts}

    def flush(self) -> None:
        """Resolve every pooled trial in one resolver call, its parts as they are, and scatter the decodes back."""
        if not self.parts:
            return
        parts, self.parts, self.bytes = self.parts, [], 0
        batches = [PackedTrials(*part[:4]) for part in parts]
        for resolved, (*_, weak, positions) in zip(resolve_batch(batches, self.resolver, self.k_max), parts):
            weak[positions] = resolved.decoded


def _batch_bytes(weak: np.ndarray) -> int:
    """Bytes of the :class:`TrialBatch` whose decode array is ``weak``: its arrays are alike."""
    return len(fields(TrialBatch)) * weak.nbytes


def _per_call(cfg: TrialConfig) -> int:
    """Trials per kernel call: ``DEFAULT_CHUNK``, or fewer where ``CALL_BYTES`` bounds them."""
    return min(DEFAULT_CHUNK, max(1, CALL_BYTES // call_bytes(cfg.m, cfg.n)))


def _call_key(cfg: TrialConfig, consts: tuple[float, ...]) -> tuple | None:
    """Points with one key share kernel calls: redrawn points of one (m, n, channel, eps) drawn in one pass.

    ``consts`` are the point's kernel constants.  None for a point that
    takes calls of its own: a fixed codebook is the point's alone, and a
    prefix split (``kernels.prefix_length``) draws less in a call of one
    point.
    """
    if cfg.codebook_mode == "fixed":
        return None
    if kernels.prefix_length(cfg.n, cfg.m, cfg.q, consts, cfg.eps, False) < cfg.n:
        return None
    return (cfg.m, cfg.n, cfg.channel.transition.tobytes(), cfg.eps)


def _simulate(
    cfgs: list[TrialConfig],
    consts: list[tuple[float, ...]],
    num_trials: int,
    start: int,
    pool: _Pool,
    codebooks: np.ndarray | None,
) -> TrialBatch:
    """Simulate and scan a run of points, trials start..start+num_trials-1 of each, with codebooks in ``codebooks``.

    The points, with kernel constants ``consts``, share kernel calls
    (:func:`_call_key`), or the run is one point.  Its trials are taken
    point after point, in kernel calls of :func:`_per_call` trials that
    may span points; the returned batch holds point p's trials at
    p*num_trials onwards.  A call's codewords come back (count, m, n) in
    both codebook modes, a fixed codebook as a read-only view, and are
    read alike.  Its multi-candidate trials that are neither lost nor
    decided by the index rule go to ``pool``, whose flush writes their
    weak decodes into it.
    """
    cfg = cfgs[0]
    per_call = _per_call(cfg)
    t0 = float(cfg.channel.transition[0, 1])
    t1 = float(cfg.channel.transition[1, 1])
    fixed_words = fixed_codebook(cfg).words if cfg.codebook_mode == "fixed" else None
    dms = [derived_master(c) for c in cfgs]
    total = num_trials * len(cfgs)
    batch = TrialBatch(*(np.empty(total, dtype=np.int64) for _ in range(4)))

    for off in range(0, total, per_call):
        end = min(total, off + per_call)
        count = end - off
        segments = []
        for p in range(off // num_trials, (end - 1) // num_trials + 1):
            lo, hi = max(off, p * num_trials), min(end, (p + 1) * num_trials)
            segments.append(kernels.Segment(dms[p], start + lo - p * num_trials, hi - lo, cfgs[p].q, consts[p]))
        w, mask, ybits, words = kernels.simulate_trials(
            segments, count, cfg.m, cfg.n, t0, t1, cfg.eps, fixed_words, codebooks
        )
        counts = mask.sum(axis=1)
        sl = slice(off, end)
        batch.true_w[sl] = w
        batch.candidate_counts[sl] = counts
        batch.jt_decoded[sl] = np.where(counts == 1, mask.argmax(axis=1) + 1, 0)
        batch.weak_decoded[sl] = batch.jt_decoded[sl]
        # a multi-candidate trial whose sent row is atypical is lost to both decoders: its weak decode stays 0
        multi = np.flatnonzero((counts >= 2) & mask[np.arange(count), w - 1])
        decided = decoders.index_decided(words, mask, counts, multi, cfg.resolver, cfg.k_max)
        batch.weak_decoded[off + multi[decided]] = mask[multi[decided]].argmax(axis=1) + 1
        pooled = multi[~decided]
        if pooled.size:
            z_seqs = _packed(words, ybits, pooled)
        # the next call draws over the chunk's codebooks: no view of them outlives the chunk
        del words
        if pooled.size:
            at = off + pooled
            # trial at of the run is trial start + at % num_trials of point at // num_trials
            point, tid = np.divmod(at, num_trials)
            masters = np.array(dms, dtype=np.uint64)[point]
            states = stream_states(masters, trial_stream((start + tid).astype(np.uint64), PURPOSE_RESOLVER))
            pool.add(cfg.n, mask[pooled], z_seqs, states, batch.weak_decoded, at)
    return batch


def _packed(rows: np.ndarray, ybits: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Bit-packed difference words (codeword ``rows`` XOR received word) of trials ``at``, (len(at), m, ceil(n/8)).

    ``kernels.BLOCK_ELEMS`` symbols at a time, so no unpacked copy of the
    trials is made, each row zero-padded to whole bytes: one flat
    ``np.packbits`` then packs a block, several times faster than one
    along its rows.
    """
    _, m, n = rows.shape
    width = -(-n // 8)
    z_seqs = np.empty((at.size, m, width), dtype=np.uint8)
    step = max(1, kernels.BLOCK_ELEMS // (m * n))
    padded = np.zeros((min(step, at.size), m, 8 * width), dtype=np.uint8)
    for lo in range(0, at.size, step):
        sel = at[lo : lo + step]
        block = padded[: sel.size]
        np.bitwise_xor(rows[sel], ybits[sel, None, :], out=block[:, :, :n])
        z_seqs[lo : lo + sel.size] = np.packbits(block).reshape(sel.size, m, width)
    return z_seqs


def iter_points(cfgs: list[TrialConfig], num_trials: int, start: int = 0) -> Iterator[tuple[int, TrialBatch]]:
    """(index, batch) of every sweep point in ``cfgs``, each as soon as its decodes are final.

    The trial executor, identical point by point to looping
    :func:`run_trial` (tests pin it), but far faster.  Consecutive points
    of one shape that share a kernel-call key (:func:`_call_key`) run as
    one sequence of trials, point after point, in kernel calls of
    ``DEFAULT_CHUNK`` trials that may span points, and fewer where their
    footprint, :func:`call_bytes` per trial, would pass ``CALL_BYTES``; a
    trial above that runs alone.  (``CHUNK_BYTES`` only bounds one trial's
    :func:`call_bytes`, which ``config.validate`` checks.)  A trial with
    two or more candidates whose sent row is not typical is lost to both
    decoders: it keeps weak decode 0, as :func:`run_trial` gives it, and
    is neither decided nor packed.  One of the others that the index rule
    decides
    (:func:`~weaktyp.decoders.index_decided`: rows all equal, or under the
    cluster resolvers c <= k_max distinct rows) decodes its lowest
    candidate there, from the codewords, before anything is packed; the
    batch path applies the rule nowhere else.  The rest, the open trials, of
    every point of one shape (m, resolver, k_max), whatever their n, are pooled
    as their candidates' difference sequences, bit-packed
    (:class:`~weaktyp.decoders.PackedTrials`), and resolved in lockstep by
    one :func:`~weaktyp.decoders.resolve_batch` call per flush: one
    k-means and integer Pegasos per candidate count and resolver block,
    one float replay of svm ties, across every n.  A kernel call or a
    lockstep loop costs about the same whether it carries one point or
    many.  Points of one shape run back to back, so one pool is open at
    a time; every point owns its streams, so the order changes no
    result.  A point is yielded once no pooled trial of it awaits
    resolution, so a caller that keeps only its counts holds the batches
    of the open pool's points.  All kernel calls draw codebooks into one
    buffer sized for the largest, so a sweep maps those pages once.
    """
    if num_trials < 1:
        raise ValueError("num_trials must be positive")
    if start < 0:
        raise ValueError("start must be nonnegative")
    return _points(cfgs, num_trials, start)


def _points(cfgs: list[TrialConfig], num_trials: int, start: int) -> Iterator[tuple[int, TrialBatch]]:
    """The generator behind :func:`iter_points`, on checked arguments."""
    consts = [build_context(cfg.q, cfg.channel).kernel_constants() for cfg in cfgs]
    by_shape = sorted(range(len(cfgs)), key=lambda i: _shape(cfgs[i]))
    # runs of consecutive points of one shape that share kernel calls; a point with no key runs alone
    runs = [
        list(run) for _, run in groupby(by_shape, key=lambda i: (_shape(cfgs[i]), _call_key(cfgs[i], consts[i]) or i))
    ]
    heads = [cfgs[run[0]] for run in runs]
    sizes = [
        min(num_trials * len(run), _per_call(cfg)) * cfg.m * cfg.n
        for run, cfg in zip(runs, heads)
        if cfg.codebook_mode == "redraw"
    ]
    codebooks = np.empty(max(sizes), dtype=np.uint8) if sizes else None
    for shape, group in groupby(runs, key=lambda run: _shape(cfgs[run[0]])):
        group = list(group)
        pool = _Pool(*shape[1:])
        open_runs: list[tuple[list[int], TrialBatch]] = []
        for run in group:
            batch = _simulate([cfgs[i] for i in run], [consts[i] for i in run], num_trials, start, pool, codebooks)
            open_runs.append((run, batch))
            waiting = pool.waiting()
            for done in open_runs:
                if id(done[1].weak_decoded) not in waiting:
                    yield from _checked(done, num_trials)
            open_runs = [done for done in open_runs if id(done[1].weak_decoded) in waiting]
        pool.flush()
        for done in open_runs:
            yield from _checked(done, num_trials)


def _checked(done: tuple[list[int], TrialBatch], num_trials: int) -> Iterator[tuple[int, TrialBatch]]:
    """(index, batch) of each point of a run, once its batch has passed the pathwise dominance check."""
    run, batch = done
    if np.any((batch.weak_decoded != batch.true_w) & (batch.jt_decoded == batch.true_w)):
        raise RuntimeError("dominance violated: weak decoder erred where the classical one succeeded")
    for p, i in enumerate(run):
        part = slice(p * num_trials, (p + 1) * num_trials)
        yield i, TrialBatch(*(getattr(batch, f.name)[part] for f in fields(TrialBatch)))


def run_trials(cfg: TrialConfig, num_trials: int, start: int = 0) -> TrialBatch:
    """Trials start..start+num_trials-1 of one point: :func:`iter_points` on ``[cfg]``.

    Kernel calls take at most ``DEFAULT_CHUNK`` trials, and fewer where
    ``CALL_BYTES`` bounds them; no result depends on either.
    """
    ((_, batch),) = iter_points([cfg], num_trials, start)
    return batch


def estimate_points(cfgs: list[TrialConfig], trials_per_point: int) -> list[tuple[PeEstimate, PeEstimate]]:
    """(classical, weak) error estimates of every point in ``cfgs``, each over trials 0..trials_per_point-1.

    Runs :func:`iter_points` on all the points once per span of
    ``DEFAULT_CHUNK`` trials and keeps only each point's error counts,
    so a batch holds one span, not ``trials_per_point``, and only the
    batches of the open pool's points are alive at once.  Each trial id
    draws the same trial in any span, so the summed counts are exact.
    """
    if trials_per_point < 1:
        raise ValueError("trials_per_point must be positive")
    jt_errors = [0] * len(cfgs)
    weak_errors = [0] * len(cfgs)
    for start in range(0, trials_per_point, DEFAULT_CHUNK):
        for i, batch in iter_points(cfgs, min(DEFAULT_CHUNK, trials_per_point - start), start=start):
            jt_errors[i] += batch.jt_errors
            weak_errors[i] += batch.weak_errors
    return [
        (PeEstimate.from_counts(trials_per_point, jt), PeEstimate.from_counts(trials_per_point, weak))
        for jt, weak in zip(jt_errors, weak_errors)
    ]


def estimate_pe(cfg: TrialConfig, num_trials: int) -> tuple[PeEstimate, PeEstimate]:
    """(classical, weak) error estimates over the same trial stream: :func:`estimate_points` on ``[cfg]``."""
    return estimate_points([cfg], num_trials)[0]


def exhaustive_pe(cfg: TrialConfig) -> tuple[float, float]:
    """Exact error probabilities of both decoders by full enumeration.

    Requires fixed-codebook mode and a small instance.  The resolver
    stream is pinned to a reserved id so the enumeration is a pure
    function of the configuration; for instances whose resolution is
    seeding-invariant the result is exactly the expectation of the Monte
    Carlo path.  m=2 is one: a pair decodes its lowest index, provably
    under the cluster resolvers, and under svm at n <= ``ENUM_MAX_N``,
    where a test checks every pair up to column order (a longer svm pair
    may not).
    """
    if cfg.codebook_mode != "fixed":
        raise ValueError("exhaustive enumeration requires codebook_mode='fixed'")
    if cfg.n > ENUM_MAX_N or cfg.m > ENUM_MAX_M:
        raise ValueError(f"instance beyond enumeration bounds (n<={ENUM_MAX_N}, m<={ENUM_MAX_M})")
    dm = derived_master(cfg)
    ctx = build_context(cfg.q, cfg.channel)
    cb = fixed_codebook(cfg)
    w_mat = cfg.channel.transition
    n = cfg.n

    all_y = ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)
    # with the resolver stream pinned, both verdicts depend on y alone
    decoded = []
    for y in all_y:
        cands = find_candidates(y, cb, ctx, cfg.eps)
        rng = RngStream(dm, ORACLE_RESOLVER_STREAM)
        weak, _ = weak_outcome(cands, cfg.resolver, rng, cfg.k_max)
        decoded.append((classical_outcome(cands).decoded, weak.decoded))
    n1y = all_y.sum(axis=1).tolist()
    total_weight = 0.0
    jt_pe = 0.0
    weak_pe = 0.0
    for w in range(1, cfg.m + 1):
        x = cb.word(w)
        n1x = int(x.sum())
        n11s = (all_y & x).sum(axis=1).tolist()
        for y_ones, n11, (jt, weak) in zip(n1y, n11s, decoded):
            n10 = n1x - n11
            n01 = y_ones - n11
            n00 = n - n1x - y_ones + n11
            prob = (
                w_mat[0, 0] ** n00 * w_mat[0, 1] ** n01 * w_mat[1, 0] ** n10 * w_mat[1, 1] ** n11
            )
            weight = prob / cfg.m
            total_weight += weight
            if jt != w:
                jt_pe += weight
            if weak != w:
                weak_pe += weight
    if abs(total_weight - 1.0) > 1e-10:
        raise RuntimeError(f"outcome weights sum to {total_weight}, expected 1")
    return jt_pe, weak_pe
