import math
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from weaktyp import decoders, kernels, montecarlo
from weaktyp.core import bsc
from weaktyp.typicality import build_context
from weaktyp.decoders import RESOLVERS, DecodeOutcome, PackedTrials
from weaktyp.montecarlo import (
    CHUNK_BYTES,
    PeEstimate,
    TrialConfig,
    TrialRecord,
    call_bytes,
    error_exponent,
    estimate_pe,
    estimate_points,
    exhaustive_pe,
    exponent,
    fixed_codebook,
    iter_points,
    run_trial,
    run_trials,
    trial_detail,
)


def cfg_noiseless():
    return TrialConfig(n=50, m=2, q=0.5, channel=bsc(0.0), eps=0.1, master_seed=101)


def cfg_oracle(seed=20260809):
    return TrialConfig(
        n=6, m=2, q=0.5, channel=bsc(0.1), eps=0.3, codebook_mode="fixed", master_seed=seed
    )


def test_run_trial_noiseless_both_correct():
    cfg = cfg_noiseless()
    for t in range(20):
        rec = run_trial(cfg, t)
        assert rec.jt_outcome.decoded == rec.true_w
        assert rec.weak_outcome.decoded == rec.true_w


def test_run_trial_deterministic():
    cfg = TrialConfig(n=30, m=4, q=0.5, channel=bsc(0.1), eps=0.3, master_seed=55)
    a = run_trial(cfg, 17)
    b = run_trial(cfg, 17)
    assert a == b


def test_batch_equals_single_trial_loop():
    configs = [
        TrialConfig(n=25, m=4, q=0.5, channel=bsc(0.05), eps=0.8, master_seed=7),
        TrialConfig(n=20, m=3, q=0.3, channel=bsc(0.4), eps=0.1, master_seed=8),
        TrialConfig(n=20, m=3, q=0.3, channel=bsc(0.4), eps=0.1, master_seed=8, resolver="svm"),
        TrialConfig(
            n=20, m=3, q=0.3, channel=bsc(0.4), eps=0.1, master_seed=8, resolver="cluster-random"
        ),
        cfg_oracle(),
    ]
    for cfg in configs:
        batch = run_trials(cfg, 120)
        for t in range(120):
            rec = run_trial(cfg, t)
            assert rec.true_w == batch.true_w[t]
            assert rec.jt_outcome.decoded == batch.jt_decoded[t]
            assert rec.weak_outcome.decoded == batch.weak_decoded[t]
            assert rec.candidate_count == batch.candidate_counts[t]


def test_points_pool_only_with_their_own_resolver_and_k_max():
    # resolver and k_max do not enter the derived master: every point draws the same trials
    base = TrialConfig(n=20, m=4, q=0.5, channel=bsc(0.4), eps=0.1, master_seed=5)
    cfgs = [replace(base, resolver=r, k_max=k) for r in RESOLVERS for k in (2, 3)]
    batches = [batch for _, batch in sorted(iter_points(cfgs, 200), key=lambda point: point[0])]
    for cfg, batch in zip(cfgs, batches):
        assert np.array_equal(batch.weak_decoded, run_trials(cfg, 200).weak_decoded)
    # each resolution differs here (svm ignores k_max), so a pool shared across them would show
    assert len({batch.weak_decoded.tobytes() for batch in batches}) == len(cfgs) - 1


def packed_bytes(c, n):
    """Bytes of one trial's c candidates' difference words bit-packed along n: its share of ``z_seqs.nbytes``."""
    return c * -(-n // 8)


def pooled_footprints(monkeypatch, resolver, parts):
    """Packed difference-sequence bytes the pool holds, and hands the resolver, while ``parts`` pass through it.

    ``parts`` lists (n, c, trials) parts, each of one kernel call and
    candidate count c.  The parts are broadcast views, so nothing of the
    footprint is allocated.  Returns the pool's bytes after each part
    and, per flush, the (n, c, trials) of each part the resolver call
    took, as the pool holds them: no part is split.
    """
    flushed = []

    def decoded(batch):
        size, c = batch.idx.shape
        flushed[-1].append((batch.n, c, size))
        return SimpleNamespace(decoded=np.ones(size, dtype=np.int64))

    flush = montecarlo._Pool.flush

    def recorded_flush(pool):
        if pool.parts:
            flushed.append([])
        flush(pool)

    monkeypatch.setattr(montecarlo, "resolve_batch", lambda parts, resolver, k_max: [decoded(b) for b in parts])
    monkeypatch.setattr(montecarlo._Pool, "flush", recorded_flush)
    pool = montecarlo._Pool(resolver, 3)
    weak = np.zeros(sum(k for *_, k in parts), dtype=np.int64)
    held, at = [], 0
    for n, c, k in parts:
        trials = PackedTrials(
            n,
            np.broadcast_to(np.arange(c), (k, c)),
            np.broadcast_to(np.zeros((1, 1, 1), dtype=np.uint8), (k, c, -(-n // 8))),
            np.zeros(k, dtype=np.uint64),
        )
        pool.add(trials, weak, np.arange(at, at + k))
        held.append(pool.bytes)
        at += k
    pool.flush()
    assert np.all(weak == 1)  # every decode is scattered back
    return held, flushed


def test_pool_resolves_a_trial_at_the_chunk_budget_alone_and_uncopied(monkeypatch):
    # the largest fig3 trial the full profile accepts at n = 600: 119 MB of
    # codebook, 15 MB packed with every codeword a candidate, so a kernel call holds
    # one trial and every chunk is one part
    m = (CHUNK_BYTES - call_bytes(0, 600)) // (call_bytes(1, 600) - call_bytes(0, 600))
    cfg = TrialConfig(n=600, m=m, q=0.5, channel=bsc(0.4), eps=0.1, resolver="svm")
    assert call_bytes(cfg.m, cfg.n) <= CHUNK_BYTES < call_bytes(cfg.m + 1, cfg.n)
    assert CHUNK_BYTES // (cfg.m * cfg.n) == 1
    assert packed_bytes(cfg.m, cfg.n) > montecarlo.POOL_BLOCKS * decoders.BATCH_BLOCK_ELEMS
    held, flushed = pooled_footprints(monkeypatch, cfg.resolver, [(600, cfg.m, 1)] * 4)
    # nothing is held over to the next chunk, and each trial is resolved alone: the
    # worst pooled footprint is the one part being resolved, as without pooling
    assert held == [0, 0, 0, 0] and flushed == [[(600, cfg.m, 1)]] * 4


def test_pool_holds_and_joins_at_most_its_budget():
    # the fig3 grid's longest and shortest blocklengths at m = 4: 60 and 12 packed bytes
    # a trial of c = 4 candidates, 45 and 9 of c = 3
    budget = montecarlo.POOL_BLOCKS * decoders.BATCH_BLOCK_ELEMS
    assert (packed_bytes(4, 120), packed_bytes(4, 20), packed_bytes(3, 120)) == (60, 12, 45)
    per_budget = budget // packed_bytes(4, 120)
    parts = [(120, 4, 45), (120, 3, 5), (20, 4, 45)] * 20
    parts += [(120, 4, per_budget + 1), (20, 3, 1), (120, 4, 1), (120, 4, per_budget - 1)]
    parts += [(20, 4, 2), (120, 4, per_budget), (20, 3, 3)]
    for resolver in ("cluster", "svm"):
        with pytest.MonkeyPatch.context() as patch:
            held, flushed = pooled_footprints(patch, resolver, parts)
        resolved = [sum(k * packed_bytes(c, n) for n, c, k in flush) for flush in flushed]
        assert max(held) < budget
        # a resolver call takes at most the budget, or one part that passes it alone
        assert all(size <= budget or len(flush) == 1 for size, flush in zip(resolved, flushed))
        assert [(120, 4, per_budget + 1)] in flushed
        # a resolver call takes the parts of several points, of both blocklengths and of
        # both candidate counts: the pool does pool
        assert max(size for size in resolved if size <= budget) > 45 * packed_bytes(4, 120)
        assert any(sorted({n for n, _, _ in flush}) == [20, 120] for flush in flushed)
        assert any(sorted({c for _, c, _ in flush}) == [3, 4] for flush in flushed)
        # no part is split: each flush takes whole parts
        assert sorted(part for flush in flushed for part in flush) == sorted(parts)


def test_a_chunks_codebooks_are_freed_before_the_next_kernel_call(monkeypatch):
    # a chunk's codebooks (up to CALL_BYTES) must not outlive it, with or without
    # multi-candidate trials, or each kernel call holds two chunks at once
    simulate = kernels.simulate_trials
    codebooks, alive = [], []

    def recorded(*args):
        alive.append(sum(ref() is not None for ref in codebooks))
        out = simulate(*args)
        codebooks.append(weakref.ref(out[3]))
        return out

    monkeypatch.setattr(kernels, "simulate_trials", recorded)
    monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 3)
    for channel_p in (0.0, 0.4):  # no multi-candidate trials, and many
        for resolver in ("cluster", "svm"):
            cfg = TrialConfig(n=20, m=4, q=0.5, channel=bsc(channel_p), eps=0.1, resolver=resolver)
            alive.clear()
            batch = run_trials(cfg, 12)
            assert alive == [0, 0, 0, 0]
            assert (np.count_nonzero(batch.candidate_counts >= 2) > 0) == (channel_p > 0)


@pytest.mark.parametrize("resolver", ["cluster", "svm"])
def test_a_bias_sweep_makes_one_kernel_call_per_blocklength_and_one_lockstep_per_candidate_count(
    monkeypatch, resolver
):
    # the fig3 grid at 50 trials a point: the 9 points of each n share one kernel call,
    # and each flush runs one lockstep k-means per candidate count across every n; svm
    # decides its pairs' 2-means in closed form, so its flush runs none at c = 2
    base = TrialConfig(n=20, m=4, q=0.5, channel=bsc(0.4), eps=0.1, resolver=resolver, master_seed=1)
    qs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    cfgs = [replace(base, q=q, n=n) for n in (20, 40, 60, 80, 100, 120) for q in qs]
    calls, flushes = [], []
    simulate, lockstep, flush = kernels.simulate_trials, decoders._lockstep_kmeans, montecarlo._Pool.flush

    def spy_simulate(segments, *args):
        calls.append(len(segments))
        return simulate(segments, *args)

    def spy_lockstep(weight, *args):
        flushes[-1].append(weight.shape[1])
        return lockstep(weight, *args)

    def spy_flush(pool):
        flushes.append([])
        flush(pool)

    monkeypatch.setattr(kernels, "simulate_trials", spy_simulate)
    monkeypatch.setattr(decoders, "_lockstep_kmeans", spy_lockstep)
    monkeypatch.setattr(montecarlo._Pool, "flush", spy_flush)
    estimate_points(cfgs, 50)
    assert calls == [9] * 6
    ran = [counts for counts in flushes if counts]
    assert ran and all(len(counts) == len(set(counts)) for counts in ran)
    if resolver == "svm":
        assert sorted(ran[0]) == [3, 4] and len(ran) == 1
    # prefix-split and fixed-codebook points take one-point calls, two of each shape
    split = [TrialConfig(n=100, m=16, q=q, channel=bsc(0.05), eps=0.8, master_seed=2) for q in (0.5, 0.45)]
    for cfg in split:
        consts = build_context(cfg.q, cfg.channel).kernel_constants()
        assert kernels.prefix_length(cfg.n, cfg.m, cfg.q, consts, cfg.eps, False) < cfg.n
    calls.clear()
    estimate_points(split + [replace(base, q=q, codebook_mode="fixed") for q in (0.5, 0.3)], 50)
    assert calls == [1] * 4


def desk_fig3_grid(resolver):
    """The desk fig3 grid (perfbench's fig3-desk at seed 1): nine biases at each of six blocklengths."""
    base = TrialConfig(n=20, m=4, q=0.5, channel=bsc(0.4), eps=0.1, resolver=resolver, master_seed=1)
    return [replace(base, q=q / 10, n=n) for n in (20, 40, 60, 80, 100, 120) for q in range(1, 10)]


def test_the_pool_takes_only_the_trials_the_index_rule_leaves(monkeypatch):
    # the executor decodes by index, before packing, every set the rule decides: with
    # k_max = 3 every pair and every 3 distinct or equal rows; the pool gets the c = 4
    # trials whose rows are not all equal and the c = 3 trials with exactly two distinct rows
    simulate, add = kernels.simulate_trials, montecarlo._Pool.add
    expected, pooled = [], []

    def spy_simulate(*args):
        out = simulate(*args)
        _, mask, ybits, words = out
        counts = mask.sum(axis=1)
        for t in np.flatnonzero(counts >= 3):
            distinct = len({words[t, i].tobytes() for i in np.flatnonzero(mask[t])})
            expected.append(distinct > 1 and (counts[t] > 3 or distinct == 2))
        return out

    def spy_add(pool, trials, weak, positions):
        # packed difference words are equal exactly when the codewords are, so the rule, read on them, decides none
        every = np.ones(trials.idx.shape, dtype=bool)
        decided = decoders.index_decided(trials.z_seqs, every, every.sum(axis=1), np.arange(positions.size), "cluster", 3)
        assert not decided.any()
        pooled.append(positions.size)
        add(pool, trials, weak, positions)

    monkeypatch.setattr(kernels, "simulate_trials", spy_simulate)
    monkeypatch.setattr(montecarlo._Pool, "add", spy_add)
    estimate_points(desk_fig3_grid("cluster"), 500)
    assert sum(pooled) == sum(expected) == 7430


def test_a_pooled_part_holds_exactly_its_trials_candidates(monkeypatch):
    # on one svm point, each pooled part holds one candidate count c and, for each of its
    # trials, that trial's candidates only: their indices and difference words are the
    # reference scan's, and no other codeword of the kernel call is packed
    cfg = TrialConfig(n=24, m=6, q=0.5, channel=bsc(0.4), eps=0.1, resolver="svm", master_seed=31)
    add, parts = montecarlo._Pool.add, []

    def spy_add(pool, trials, weak, positions):
        parts.append((trials, positions.copy()))
        add(pool, trials, weak, positions)

    monkeypatch.setattr(montecarlo._Pool, "add", spy_add)
    run_trials(cfg, 300)
    for trials, positions in parts:
        size, c = trials.idx.shape
        assert trials.z_seqs.shape[:2] == (size, c) and c >= 2 and trials.n == cfg.n
        for t, tid in enumerate(positions.tolist()):
            cands = trial_detail(cfg, tid).candidates
            assert np.array_equal(trials.idx[t] + 1, cands.indices)
            assert np.array_equal(np.unpackbits(trials.z_seqs[t], axis=1, count=cfg.n), cands.z_seqs)
    counts = sorted(trials.idx.shape[1] for trials, _ in parts)
    # parts of every count from 2 to m, so trials with codewords beside their candidates
    assert sorted(set(counts)) == [2, 3, 4, 5, 6]
    assert sum(positions.size for _, positions in parts) > 200


def test_candidate_indices_past_one_byte_decode_as_the_reference():
    # at m = 300 a pooled trial's candidate indices take two bytes each, and decodes past 256 are the reference's
    for resolver in RESOLVERS:
        cfg = TrialConfig(n=10, m=300, q=0.5, channel=bsc(0.3), eps=0.1, resolver=resolver, master_seed=3)
        batch = run_trials(cfg, 12)
        assert batch.weak_decoded.tolist() == [run_trial(cfg, t).weak_outcome.decoded for t in range(12)]
        assert np.all(batch.candidate_counts >= 2) and batch.weak_decoded.max() > 256


def test_a_sweep_holds_no_unpacked_copy_of_a_calls_trials_and_few_open_batches(monkeypatch):
    # from a kernel call's return to its pool add, the executor decides by index and packs
    # the rest from the codeword rows without an unpacked copy of the call's multi-candidate
    # trials (m n bytes each): at most 0.60x those bytes measured in the calls that hold 8
    # kernel blocks of them, 0.76x to 0.97x with the pooled trials copied and then packed;
    # and when a run starts at most two earlier runs' batches are
    # alive, as many as before the index rule left the pool so few trials
    simulate, add, run = kernels.simulate_trials, montecarlo._Pool.add, montecarlo._simulate
    at_return, extras, batches, open_at_start = {}, [], [], []

    def spy_simulate(*args):
        out = simulate(*args)
        tracemalloc.reset_peak()
        count, m, n = out[3].shape
        at_return.update(now=tracemalloc.get_traced_memory()[0], unpacked=int((out[1].sum(axis=1) >= 2).sum()) * m * n)
        return out

    def spy_add(pool, *args):
        if at_return["unpacked"] >= 8 * kernels.BLOCK_ELEMS:
            extras.append((tracemalloc.get_traced_memory()[1] - at_return["now"]) / at_return["unpacked"])
        add(pool, *args)

    def spy_run(*args):
        open_at_start.append(sum(ref() is not None for ref in batches))
        batch = run(*args)
        batches.append(weakref.ref(batch.weak_decoded))
        return batch

    monkeypatch.setattr(kernels, "simulate_trials", spy_simulate)
    monkeypatch.setattr(montecarlo._Pool, "add", spy_add)
    monkeypatch.setattr(montecarlo, "_simulate", spy_run)
    tracemalloc.start()
    try:
        estimate_points(desk_fig3_grid("cluster"), 500)
    finally:
        tracemalloc.stop()
    assert len(extras) >= 6 and max(extras) < 0.75
    assert len(open_at_start) == 6 and max(open_at_start) <= 2


def test_estimate_noiseless_floors_at_one_over_trials():
    pe_jt, pe_weak = estimate_pe(cfg_noiseless(), 500)
    for pe in (pe_jt, pe_weak):
        assert pe.zero_error
        assert pe.errors == 0
        assert pe.pe_hat == 1 / 500


def test_estimate_dominance_everywhere():
    for cfg in (
        TrialConfig(n=30, m=4, q=0.5, channel=bsc(0.4), eps=0.1, master_seed=1),
        TrialConfig(n=25, m=4, q=0.5, channel=bsc(0.05), eps=0.8, master_seed=2),
    ):
        pe_jt, pe_weak = estimate_pe(cfg, 3000)
        assert pe_weak.pe_hat <= pe_jt.pe_hat


def test_pe_estimate_invariants():
    pe = PeEstimate.from_counts(1000, 17)
    assert pe.pe_hat == 17 / 1000 and not pe.zero_error
    pe = PeEstimate.from_counts(1000, 0)
    assert pe.pe_hat == 1 / 1000 and pe.zero_error
    with pytest.raises(ValueError):
        PeEstimate.from_counts(0, 0)
    with pytest.raises(ValueError):
        PeEstimate.from_counts(10, 11)


def test_trial_record_rejects_dominance_violation():
    ok = DecodeOutcome(decoded=2, candidate_count=1, path="unique")
    bad = DecodeOutcome(decoded=0, candidate_count=0, path="none")
    with pytest.raises(ValueError):
        TrialRecord(trial_id=0, true_w=2, jt_outcome=ok, weak_outcome=bad, candidate_count=1)


def test_exponent_arithmetic_identity():
    assert abs(error_exponent(math.exp(-6.0), 100) - 0.06) < 1e-15
    assert error_exponent(1.0, 10) == 0.0
    assert abs(error_exponent(0.01, 50) - (-math.log(0.01) / 50)) < 1e-15


def test_exponent_rejects_bad_inputs():
    with pytest.raises(ValueError):
        error_exponent(0.0, 10)
    with pytest.raises(ValueError):
        error_exponent(1.1, 10)
    with pytest.raises(ValueError):
        error_exponent(0.5, 0)


def test_exponent_point_fields():
    pe = PeEstimate.from_counts(1000, 10)
    point = exponent(pe, 50, 4)
    assert point.n == 50
    assert abs(point.rate - math.log2(4) / 50) < 1e-15
    assert point.exponent == error_exponent(0.01, 50)
    assert point.pe is pe


def test_exhaustive_noiseless_is_errorless():
    cfg = TrialConfig(
        n=6, m=2, q=0.5, channel=bsc(0.0), eps=0.1, codebook_mode="fixed", master_seed=20260809
    )
    cb = fixed_codebook(cfg)
    assert not np.array_equal(cb.words[0], cb.words[1])
    assert exhaustive_pe(cfg) == (0.0, 0.0)


def test_exhaustive_all_erasure_instance():
    # at q=0.3 the x-condition lattice never hits h2(0.3): nothing is
    # typical at tiny eps and every trial yields the dummy index
    cfg = TrialConfig(
        n=6, m=2, q=0.3, channel=bsc(0.1), eps=1e-9, codebook_mode="fixed", master_seed=3
    )
    exact_jt, exact_weak = exhaustive_pe(cfg)
    assert abs(exact_jt - 1.0) < 1e-10 and abs(exact_weak - 1.0) < 1e-10
    pe_jt, pe_weak = estimate_pe(cfg, 300)
    assert pe_jt.pe_hat == 1.0 and pe_weak.pe_hat == 1.0


def test_exhaustive_matches_monte_carlo_with_resolution():
    # master seed 5 draws codewords at distance 2, so multi-candidate sets
    # occur and the weak decoder is strictly better in exact arithmetic
    cfg = cfg_oracle(seed=5)
    exact_jt, exact_weak = exhaustive_pe(cfg)
    assert exact_weak < exact_jt
    trials = 50_000
    mc_jt, mc_weak = estimate_pe(cfg, trials)
    for exact, mc in ((exact_jt, mc_jt), (exact_weak, mc_weak)):
        band = 3.0 * math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(mc.pe_hat - exact) <= band


@pytest.mark.parametrize(
    "resolver, expected",
    [
        # exact values; resolving each y once for all messages moves no bit
        ("svm", (0.671009280000001, 0.3872384)),
        ("cluster-random", (0.671009280000001, 0.38920447999999996)),
    ],
)
def test_exhaustive_values_are_pinned(resolver, expected):
    cfg = TrialConfig(
        n=8, m=4, q=0.5, channel=bsc(0.2), eps=0.6, resolver=resolver,
        codebook_mode="fixed", master_seed=20260809,
    )
    assert exhaustive_pe(cfg) == expected


def test_exhaustive_rejects_bad_instances():
    with pytest.raises(ValueError):
        exhaustive_pe(TrialConfig(n=20, m=2, q=0.5, channel=bsc(0.1), eps=0.3, codebook_mode="fixed"))
    with pytest.raises(ValueError):
        exhaustive_pe(TrialConfig(n=6, m=2, q=0.5, channel=bsc(0.1), eps=0.3))  # redraw mode


def test_trial_detail_consistent_with_run_trial():
    cfg = TrialConfig(n=50, m=4, q=0.5, channel=bsc(0.4), eps=0.1, master_seed=20260809)
    detail = trial_detail(cfg, 0)
    rec = run_trial(cfg, 0)
    assert detail.record == rec
    assert detail.candidates.count == rec.candidate_count
    assert detail.candidates.count >= 2  # chosen trial exercises resolution
    assert rec.jt_outcome.decoded == 0
    assert rec.weak_outcome.decoded in detail.candidates.indices


def test_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(n=0, m=2, q=0.5, channel=bsc(0.1), eps=0.1)
    with pytest.raises(ValueError):
        TrialConfig(n=5, m=1, q=0.5, channel=bsc(0.1), eps=0.1)
    with pytest.raises(ValueError):
        TrialConfig(n=5, m=2, q=0.0, channel=bsc(0.1), eps=0.1)
    with pytest.raises(ValueError):
        TrialConfig(n=5, m=2, q=0.5, channel=bsc(0.1), eps=0.0)
    with pytest.raises(ValueError):
        TrialConfig(n=5, m=2, q=0.5, channel=bsc(0.1), eps=0.1, resolver="nope")
    with pytest.raises(ValueError):
        TrialConfig(n=5, m=2, q=0.5, channel=bsc(0.1), eps=0.1, codebook_mode="nope")
