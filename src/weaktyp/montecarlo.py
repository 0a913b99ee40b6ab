"""Trial execution, paired error estimation, exponents, and the exact oracle.

Both decoders always see the same codebook, message, and noise, so the
weak decoder can only ever remove errors: zero or one candidates give
identical verdicts, and with two or more candidates the classical
decoder has already failed.  That pathwise dominance is asserted on
every trial.

Stream discipline: all randomness flows from ``master_seed``.  The
instance parameters (n, m, q, channel, eps, codebook mode) are folded
into a derived master so that different sweep points draw decorrelated
streams, and trial t then owns four purpose streams (codebook, message,
noise, resolver).  Batches, single trials, and the exhaustive oracle
all reproduce each other exactly.

Execution: :func:`run_points` is the one trial executor.  It simulates
each sweep point in chunks sized to ``CALL_BYTES`` and resolves the
multi-candidate trials of every point of one shape (n, m, resolver,
k_max) together, so a lockstep resolver loop runs once per pool of
points rather than once per point; :func:`run_trials` is that executor
on a single point.  Because every point owns its derived master, the
result of a point never depends on which points it was pooled with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from hashlib import blake2b
from itertools import groupby

import numpy as np

from . import decoders, kernels
from .core import Codebook, Dmc, draw_message, generate_codebook, transmit
from .decoders import (
    CLUSTER_PICKS,
    CandidateSet,
    Clustering,
    DecodeOutcome,
    RESOLVERS,
    classical_outcome,
    cluster_resolve_batch,
    find_candidates,
    svm_resolve_batch,
    weak_outcome,
)
from .rng import RngStream, mix64, stream_states
from .typicality import build_context

PURPOSE_CODEBOOK = 0
PURPOSE_MESSAGE = 1
PURPOSE_NOISE = 2
PURPOSE_RESOLVER = 3
STREAMS_PER_TRIAL = 4

# reserved stream ids, far above any trial's 4*t+purpose range
FIXED_CODEBOOK_STREAM = 1 << 62
ORACLE_RESOLVER_STREAM = (1 << 62) + 1

ENUM_MAX_N = 12
ENUM_MAX_M = 4

DEFAULT_CHUNK = 2048

# admission bound: the most codebook bytes (m x n, uint8) one trial may
# need; config.validate rejects a config whose longest blocklength needs more
CHUNK_BYTES = 1 << 27

# per-call target of a kernel call's footprint (trials x call_bytes): cache
# scale, and below glibc's 32 MiB mmap-threshold cap, so each call reuses
# heap pages instead of faulting in fresh ones; a trial above it runs alone
CALL_BYTES = 1 << 24

# a pool of multi-candidate trials is resolved once their codebooks fill
# this many resolver blocks (decoders.BATCH_BLOCK_ELEMS elements, one
# byte per codebook symbol)
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
    rng = RngStream(dm, trial_id * STREAMS_PER_TRIAL + PURPOSE_CODEBOOK)
    return generate_codebook(cfg.m, cfg.n, cfg.q, rng)


def _resolver_stream(dm: int, trial_id: int) -> RngStream:
    return RngStream(dm, trial_id * STREAMS_PER_TRIAL + PURPOSE_RESOLVER)


@dataclass(frozen=True)
class TrialDetail:
    """Everything :func:`run_trial` saw, for inspection and debugging."""

    record: TrialRecord
    received: np.ndarray
    candidates: CandidateSet
    clustering: Clustering | None


def trial_detail(cfg: TrialConfig, trial_id: int) -> TrialDetail:
    """One trial through the reference (non-kernel) path, with its candidate set and clustering."""
    if trial_id < 0:
        raise ValueError("trial_id must be nonnegative")
    dm = derived_master(cfg)
    ctx = build_context(cfg.q, cfg.channel)
    cb = _trial_codebook(cfg, dm, trial_id)
    w = draw_message(cfg.m, RngStream(dm, trial_id * STREAMS_PER_TRIAL + PURPOSE_MESSAGE))
    y = transmit(cb.word(w), cfg.channel, RngStream(dm, trial_id * STREAMS_PER_TRIAL + PURPOSE_NOISE))
    cands = find_candidates(y, cb, ctx, cfg.eps)
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
    """One trial through the reference (non-kernel) path; both decoders share everything."""
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

    def estimates(self) -> tuple[PeEstimate, PeEstimate]:
        """(classical, weak) error estimates over the batch's trials."""
        return (
            PeEstimate.from_counts(self.trials, self.jt_errors),
            PeEstimate.from_counts(self.trials, self.weak_errors),
        )


def trial_bytes(m: int, n: int) -> int:
    """Bytes of one trial's codebook in a kernel call (m words of n uint8 symbols)."""
    return m * n


def call_bytes(m: int, n: int) -> int:
    """Bytes one trial takes inside a :func:`~weaktyp.kernels.simulate_trials` call.

    Measured with tracemalloc and pinned by a test.  A trial's draw
    arrays (sent word and noise, 17 bytes per symbol) are freed before
    its codebook (m*n bytes) and its scan arrays (73 bytes per codeword:
    the int64 counts, the typicality terms and the mask) are made; their
    sum, plus 56 bytes of per-trial scalars, bounds both stages.  The
    kernel's block buffers (at most three arrays of
    ``kernels.BLOCK_ELEMS`` uint64, freed before the scan) come on top,
    once per call.
    """
    return m * (n + 73) + 17 * n + 56


def _shape(cfg: TrialConfig) -> tuple[int, int, str, int]:
    """Sweep points of one shape have their multi-candidate trials resolved together."""
    return (cfg.n, cfg.m, cfg.resolver, cfg.k_max)


class _Pool:
    """Multi-candidate trials of the sweep points of one shape, awaiting one resolver call.

    Each part keeps only what resolution needs of one chunk's
    multi-candidate trials: the candidate masks, the codebooks, the
    received words and the resolver stream states, plus the array and
    positions the decoded indices go to.  Every trial carries its own
    codebook, because each fixed-codebook point draws its shared
    codebook from its own derived master.

    The pool is bounded in bytes of codebook, ``trial_bytes(m, n)`` per
    trial, against ``budget`` = ``POOL_BLOCKS`` resolver blocks: a part
    that would take it past the budget first resolves what is pooled,
    and a part that fills the budget on its own is resolved alone and
    uncopied.  So the pool's parts, and the one copy that joins them,
    each stay within the budget.
    """

    def __init__(self, cfg: TrialConfig) -> None:
        self.cfg = cfg
        self.budget = POOL_BLOCKS * decoders.BATCH_BLOCK_ELEMS
        self.parts: list[tuple[np.ndarray, ...]] = []
        self.bytes = 0

    def add(
        self,
        mask: np.ndarray,
        words: np.ndarray,
        received: np.ndarray,
        states: np.ndarray,
        weak: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        size = positions.size * trial_bytes(self.cfg.m, self.cfg.n)
        if self.bytes + size > self.budget:
            self.flush()
        self.parts.append((mask, words, received, states, weak, positions))
        self.bytes += size
        if self.bytes >= self.budget:
            self.flush()

    def flush(self) -> None:
        """Resolve every pooled trial in one batched call and scatter the decodes back."""
        if not self.parts:
            return
        parts, self.parts, self.bytes = self.parts, [], 0
        mask, words, received, states = (_joined([part[i] for part in parts]) for i in range(4))
        targets = [part[4:] for part in parts]
        del parts  # the joined copies replace the parts
        if self.cfg.resolver == "svm":
            resolved = svm_resolve_batch(mask, words, received, states)
        else:
            resolved = cluster_resolve_batch(
                mask, words, received, states, self.cfg.k_max, CLUSTER_PICKS[self.cfg.resolver]
            )
        at = 0
        for weak, positions in targets:
            weak[positions] = resolved.decoded[at : at + positions.size]
            at += positions.size


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The parts as one array, with no copy when there is one part (a point alone in its pool)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _simulate_point(
    cfg: TrialConfig, num_trials: int, chunk_size: int, start: int, pool: _Pool
) -> TrialBatch:
    """Simulate and scan one point chunk by chunk, handing its multi-candidate trials to ``pool``.

    The weak decodes of those trials are written into the returned
    batch when the pool is flushed.
    """
    chunk_size = min(chunk_size, max(1, CALL_BYTES // call_bytes(cfg.m, cfg.n)))
    dm = derived_master(cfg)
    consts = build_context(cfg.q, cfg.channel).kernel_constants()
    t0 = float(cfg.channel.transition[0, 1])
    t1 = float(cfg.channel.transition[1, 1])
    fixed_words = fixed_codebook(cfg).words if cfg.codebook_mode == "fixed" else None
    batch = TrialBatch(*(np.empty(num_trials, dtype=np.int64) for _ in range(4)))

    for off in range(0, num_trials, chunk_size):
        tid0 = start + off
        count = min(chunk_size, num_trials - off)
        w, mask, ybits, xwords = kernels.simulate_trials(
            dm, tid0, count, cfg.m, cfg.n, cfg.q, t0, t1, consts, cfg.eps, fixed_words
        )
        counts = mask.sum(axis=1)
        sl = slice(off, off + count)
        batch.true_w[sl] = w
        batch.candidate_counts[sl] = counts
        batch.jt_decoded[sl] = np.where(counts == 1, mask.argmax(axis=1) + 1, 0)
        batch.weak_decoded[sl] = batch.jt_decoded[sl]
        multi = np.flatnonzero(counts >= 2)
        if xwords is None:
            words = np.broadcast_to(fixed_words, (multi.size, *fixed_words.shape))
        else:
            words = xwords[multi]
        del xwords  # the chunk's codebooks are freed before any resolution
        if multi.size:
            states = stream_states(dm, (tid0 + multi) * STREAMS_PER_TRIAL + PURPOSE_RESOLVER)
            pool.add(mask[multi], words, ybits[multi], states, batch.weak_decoded, off + multi)
    return batch


def run_points(
    cfgs: list[TrialConfig], num_trials: int, chunk_size: int = DEFAULT_CHUNK, start: int = 0
) -> list[TrialBatch]:
    """Trials start..start+num_trials-1 of every sweep point in ``cfgs``, resolver included.

    The trial executor.  Identical, point by point, to looping
    :func:`run_trial`, but orders of magnitude faster; equality of the
    two paths is pinned by tests.  Each point is simulated and scanned
    in chunks of ``chunk_size`` trials, one kernel call per chunk, and
    fewer where their footprint, :func:`call_bytes` per trial, would pass
    ``CALL_BYTES``; a trial above that runs alone.  (``CHUNK_BYTES``
    only bounds the codebook bytes one trial may need, which
    ``config.validate`` checks.)  The trials with two
    or more candidates of every point of one shape (n, m, resolver,
    k_max) are pooled and resolved together, in lockstep, by
    :func:`~weaktyp.decoders.cluster_resolve_batch` for the cluster
    resolvers or :func:`~weaktyp.decoders.svm_resolve_batch` for ``svm``:
    a lockstep loop costs about the same whether it carries the trials of
    one point or of many.  Points of one shape run back to back, so one
    pool is open at a time; every point owns its streams, so the order
    changes no result.  No resolver runs one trial at a time.
    """
    if num_trials < 1:
        raise ValueError("num_trials must be positive")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if start < 0:
        raise ValueError("start must be nonnegative")
    batches: list[TrialBatch | None] = [None] * len(cfgs)
    by_shape = sorted(range(len(cfgs)), key=lambda i: _shape(cfgs[i]))
    for _, group in groupby(by_shape, key=lambda i: _shape(cfgs[i])):
        group = list(group)
        pool = _Pool(cfgs[group[0]])
        for i in group:
            batches[i] = _simulate_point(cfgs[i], num_trials, chunk_size, start, pool)
        pool.flush()
    for batch in batches:
        if np.any((batch.weak_decoded != batch.true_w) & (batch.jt_decoded == batch.true_w)):
            raise RuntimeError("dominance violated: weak decoder erred where the classical one succeeded")
    return batches


def run_trials(
    cfg: TrialConfig, num_trials: int, chunk_size: int = DEFAULT_CHUNK, start: int = 0
) -> TrialBatch:
    """Trials start..start+num_trials-1 of one point: :func:`run_points` on ``[cfg]``."""
    return run_points([cfg], num_trials, chunk_size, start)[0]


def estimate_pe(cfg: TrialConfig, num_trials: int) -> tuple[PeEstimate, PeEstimate]:
    """(classical, weak) error estimates over the same trial stream."""
    return run_trials(cfg, num_trials).estimates()


def estimate_pe_adaptive(
    cfg: TrialConfig,
    min_errors: int = 50,
    max_trials: int = 1_000_000,
    chunk_size: int = DEFAULT_CHUNK * 4,
) -> tuple[PeEstimate, PeEstimate]:
    """Run until both decoders have min_errors errors (or the trial cap).

    Error-count targeting keeps the relative error of the estimate under
    control in deep-tail regimes.  Figure runs use fixed trial counts
    instead so that points stay comparable.
    """
    if min_errors < 1:
        raise ValueError("min_errors must be positive")
    if max_trials < 1:
        raise ValueError("max_trials must be positive")
    jt_err = 0
    weak_err = 0
    done = 0
    while done < max_trials:
        count = min(chunk_size, max_trials - done)
        # extend the trial-id range rather than re-running a prefix
        batch = run_trials(cfg, count, start=done)
        jt_err += batch.jt_errors
        weak_err += batch.weak_errors
        done += count
        if jt_err >= min_errors and weak_err >= min_errors:
            break
    return PeEstimate.from_counts(done, jt_err), PeEstimate.from_counts(done, weak_err)


def exhaustive_pe(cfg: TrialConfig) -> tuple[float, float]:
    """Exact error probabilities of both decoders by full enumeration.

    Requires fixed-codebook mode and a small instance.  The resolver
    stream is pinned to a reserved id so the enumeration is a pure
    function of the configuration; for instances whose resolution is
    seeding-invariant (for example m=2, where any multi-candidate set
    provably decodes to its lowest index) the result is exactly the
    expectation of the Monte Carlo path.
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
