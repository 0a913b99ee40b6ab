import numpy as np
import pytest

from weaktyp import kernels, montecarlo
from weaktyp.core import bsc
from weaktyp.montecarlo import (
    TrialConfig,
    _trial_codebook,
    derived_master,
    fixed_codebook,
    run_trials,
    trial_detail,
)
from weaktyp.rng import _to_unit, unit_bits, unit_threshold
from weaktyp.typicality import build_context


def _batches_equal(a, b):
    return (
        np.array_equal(a.true_w, b.true_w)
        and np.array_equal(a.jt_decoded, b.jt_decoded)
        and np.array_equal(a.weak_decoded, b.weak_decoded)
        and np.array_equal(a.candidate_counts, b.candidate_counts)
    )


def test_chunking_invariance():
    # results must not depend on how trials are grouped into kernel calls
    cfg = TrialConfig(n=15, m=3, q=0.4, channel=bsc(0.2), eps=0.4, master_seed=29)
    a = run_trials(cfg, 1000, chunk_size=64)
    b = run_trials(cfg, 1000, chunk_size=1000)
    assert _batches_equal(a, b)


def test_start_offset_slices_the_same_stream():
    cfg = TrialConfig(n=15, m=3, q=0.4, channel=bsc(0.2), eps=0.4, master_seed=29)
    whole = run_trials(cfg, 300)
    tail = run_trials(cfg, 100, start=200)
    assert np.array_equal(whole.true_w[200:], tail.true_w)
    assert np.array_equal(whole.weak_decoded[200:], tail.weak_decoded)


@pytest.mark.parametrize(
    "p", [0.0, 1.0, 0.5, 0.25, 0.05, 0.9, 2.0**-60, *np.random.default_rng(7).random(4).tolist()]
)
def test_integer_threshold_matches_float_compare(p):
    rs = np.random.default_rng(int(p * 1e9) + 1)
    bound = int(unit_threshold(p))
    assert 0 <= bound <= 2**53
    # the top 53 bits decide; the 11 bits below must not
    ks = [k for k in (bound - 1, bound) if 0 <= k < 2**53]
    ks += [int(k) for k in rs.integers(0, 2**53, size=200)]
    low = rs.integers(0, 2**11, size=len(ks))
    raw = (np.array(ks, dtype=np.uint64) << np.uint64(11)) | low.astype(np.uint64)
    assert np.array_equal(unit_bits(raw) < unit_threshold(p), _to_unit(raw) < p)
    assert np.array_equal(unit_bits(raw), np.array(ks, dtype=np.uint64))


def _reference_trial(cfg, trial_id):
    """Sent message, received word, typicality mask and codebook of the reference path."""
    detail = trial_detail(cfg, trial_id)
    mask = np.zeros(cfg.m, dtype=bool)
    mask[detail.candidates.indices - 1] = True
    codebook = _trial_codebook(cfg, derived_master(cfg), trial_id)
    return detail.record.true_w, detail.received, mask, codebook.words


KERNEL_CASES = [
    # (config, trials, BLOCK_ELEMS): m*n <= BLOCK_ELEMS puts several trials
    # in a block and splits the chunk; m*n > BLOCK_ELEMS gives one-trial
    # blocks of a few codewords, or of one codeword when n > BLOCK_ELEMS
    (TrialConfig(n=12, m=3, q=0.7, channel=bsc(0.0), eps=0.1, master_seed=3), 9, 80),
    (TrialConfig(n=12, m=3, q=0.7, channel=bsc(1.0), eps=0.1, master_seed=3), 9, 80),
    (TrialConfig(n=25, m=5, q=0.5, channel=bsc(0.05), eps=0.8, master_seed=7), 7, 60),
    (TrialConfig(n=25, m=5, q=0.5, channel=bsc(0.05), eps=0.8, master_seed=7), 7, 10),
    (TrialConfig(n=9, m=4, q=0.3, channel=bsc(0.4), eps=0.3, master_seed=11), 5, 1 << 16),
    (TrialConfig(n=6, m=3, q=0.5, channel=bsc(0.1), eps=0.3, codebook_mode="fixed", master_seed=5), 8, 4),
    (TrialConfig(n=6, m=3, q=0.5, channel=bsc(1.0), eps=0.3, codebook_mode="fixed", master_seed=5), 8, 4),
]


@pytest.mark.parametrize("cfg, count, block_elems", KERNEL_CASES)
def test_simulate_trials_equals_reference_path(monkeypatch, cfg, count, block_elems):
    monkeypatch.setattr(kernels, "BLOCK_ELEMS", block_elems)
    ctx = build_context(cfg.q, cfg.channel)
    tid0 = 40
    fixed = fixed_codebook(cfg).words if cfg.codebook_mode == "fixed" else None
    true_w, mask, ybits, xwords = kernels.simulate_trials(
        derived_master(cfg), tid0, count, cfg.m, cfg.n, cfg.q,
        float(cfg.channel.transition[0, 1]), float(cfg.channel.transition[1, 1]),
        ctx.kernel_constants(), cfg.eps, fixed,
    )
    assert (true_w.dtype, mask.dtype, ybits.dtype) == (np.int64, np.bool_, np.uint8)
    assert (xwords is None) == (fixed is not None)
    for t in range(count):
        w, y, ref_mask, words = _reference_trial(cfg, tid0 + t)
        assert true_w[t] == w
        assert np.array_equal(ybits[t], y)
        assert np.array_equal(mask[t], ref_mask)
        if xwords is not None:
            assert xwords.dtype == np.uint8
            assert np.array_equal(xwords[t], words)


def test_chunks_are_capped_by_the_byte_budget(monkeypatch):
    cfg = TrialConfig(n=20, m=4, q=0.4, channel=bsc(0.2), eps=0.4, master_seed=31)
    whole = run_trials(cfg, 7, chunk_size=64)
    # 80 bytes per trial: a 200-byte budget allows two trials per kernel call
    monkeypatch.setattr(montecarlo, "CHUNK_BYTES", 200)
    counts = []
    simulate = kernels.simulate_trials

    def spy(*args, **kwargs):
        counts.append(args[2])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(kernels, "simulate_trials", spy)
    capped = run_trials(cfg, 7, chunk_size=64)
    assert counts == [2, 2, 2, 1]
    assert _batches_equal(capped, whole)
