"""The batched simulation kernel: one blocked, in-place numpy pass per chunk.

A trial batch is the inner loop of every experiment: draw a codebook,
draw a message, push the codeword through the channel, and test each
codeword for joint typicality with the received word.  The kernel gives
bit for bit what the reference path (``core.generate_codebook``,
``core.transmit``, ``decoders.find_candidates``) gives; the tests pin
that equivalence.

Stream layout: each trial's codebook, message and noise streams are
those of :func:`weaktyp.rng.trial_stream`.  Codebook draws fill words
row-major (word i, symbol j at offset i*n+j); the message uses offset 0
of its stream; noise uses offsets 0..n-1.

The streams are counter-based, so any block of draws can be made on its
own, in any order.  The kernel draws each symbol once, in three steps.
It draws every trial's codebook in blocks of at most ``BLOCK_ELEMS``
draws, each finalized in two reused uint64 buffers and turned into bits
straight into the returned codebooks.  It reads each sent word as row
w-1 of its trial's codebook (or of the fixed one), and draws the noise
to form the received word.  Then one blocked loop counts the drawn
codebooks, or the shared uint8 codebook with no wider copy of it,
against the received words.  Only the returned ``uint8`` codebooks grow
with trials x m x n, but the scan's int64 counts, float64 typicality
terms and mask grow with trials x m, about 73 bytes per codeword
(``montecarlo.call_bytes`` is the whole per-trial footprint, and the
executor sizes calls by it).
A draw is 1 when its uniform falls below p; that test is made on the
integer draw, against :func:`weaktyp.rng.raw_threshold` for the
codebook bias and :func:`weaktyp.rng.unit_threshold` for the channel,
and either is exactly the same comparison.
"""

from __future__ import annotations

import numpy as np

from .rng import (
    PURPOSE_CODEBOOK,
    PURPOSE_MESSAGE,
    PURPOSE_NOISE,
    finalize,
    position_offsets,
    raw_at,
    raw_threshold,
    skip,
    stream_states,
    trial_stream,
    uniforms_at,
    unit_bits,
    unit_threshold,
)

# draws per codebook block: two uint64 buffers of this size stay in cache
BLOCK_ELEMS = 1 << 16


def active_backend() -> str:
    """Name of the simulation backend; numpy is the only one."""
    return "numpy"


def _typicality_mask(
    n: int,
    n1x: np.ndarray,
    n1y: np.ndarray,
    n00: np.ndarray,
    n01: np.ndarray,
    n10: np.ndarray,
    n11: np.ndarray,
    consts: tuple[float, ...],
    eps: float,
) -> np.ndarray:
    # Term order and parenthesization mirror typicality._costs
    # exactly; the count guard keeps 0 * (-inf) cells out of the sums.
    lx0, lx1, ly0, ly1, l00, l01, l10, l11, hx, hy, hxy = consts

    def term(count, log_p):
        # the masked branch may transiently compute 0 * (-inf)
        with np.errstate(invalid="ignore"):
            return np.where(count == 0, 0.0, count * log_p)

    ex = -(term(n - n1x, lx0) + term(n1x, lx1)) / n
    ey = -(term(n - n1y, ly0) + term(n1y, ly1)) / n
    exy = -(((term(n00, l00) + term(n01, l01)) + term(n10, l10)) + term(n11, l11)) / n
    return (np.abs(ex - hx) < eps) & (np.abs(ey - hy) < eps)[..., None] & (np.abs(exy - hxy) < eps)


def _blocks(count, m, n):
    """(trials, codewords) per block of at most ``BLOCK_ELEMS`` symbols.

    Blocks hold whole trials when a trial's m*n symbols fit, else ranges
    of whole codewords of one trial.
    """
    return min(count, max(1, BLOCK_ELEMS // (m * n))), min(m, max(1, BLOCK_ELEMS // n))


def _draw_codebooks(cb_states, rq, xwords):
    """Draw every trial's codebook into ``xwords``, (count, m, n), in blocks.

    A symbol is 1 when its raw draw falls below ``rq``.
    """
    count, m, n = xwords.shape
    trials_per_block, words_per_block = _blocks(count, m, n)
    size = trials_per_block * words_per_block * n
    # one block row's position offsets serve every range of codewords: a
    # later range starts from the codebook states skipped ahead to it
    offsets = position_offsets(np.arange(words_per_block * n, dtype=np.uint64))
    buf = np.empty(size, dtype=np.uint64)
    scratch = np.empty(size, dtype=np.uint64)
    for i0 in range(0, m, words_per_block):
        i1 = min(m, i0 + words_per_block)
        states = skip(cb_states, i0 * n)[:, None]
        row = offsets[: (i1 - i0) * n]
        for a in range(0, count, trials_per_block):
            b = min(count, a + trials_per_block)
            words = xwords[a:b, i0:i1]
            z = buf[: words.size].reshape(b - a, -1)
            np.add(states[a:b], row, out=z)
            finalize(z, out=z, scratch=scratch[: words.size].reshape(z.shape))
            np.less(z.reshape(words.shape), rq, out=words.view(np.bool_))


def _count(words, ybits):
    """(n1x, n11) per codeword of ``words`` against every received word.

    ``words`` is the drawn (count, m, n) codebooks or one shared
    (1, m, n) codebook, counted as it is, uint8, in blocks of at most
    ``BLOCK_ELEMS`` symbol pairs, so no wider copy of it is made.
    """
    count, n = ybits.shape
    m = words.shape[1]
    trials_per_block, words_per_block = _blocks(count, m, n)
    both = np.empty(trials_per_block * words_per_block * n, dtype=np.bool_)
    bits = np.broadcast_to(words.view(np.bool_), (count, m, n))
    ymask = ybits.view(np.bool_)[:, None, :]
    n1x = np.empty(words.shape[:2], dtype=np.int64)
    n11 = np.empty((count, m), dtype=np.int64)
    for i0 in range(0, m, words_per_block):
        i1 = min(m, i0 + words_per_block)
        for a in range(0, count, trials_per_block):
            b = min(count, a + trials_per_block)
            block = both[: (b - a) * (i1 - i0) * n].reshape(b - a, i1 - i0, n)
            np.logical_and(ymask[a:b], bits[a:b, i0:i1], out=block)
            # int32 sums of the 0/1 bytes count faster than count_nonzero
            n11[a:b, i0:i1] = block.view(np.uint8).sum(axis=2, dtype=np.int32)
            # a shared codebook has one row, so its n1x is summed in the first block only
            n1x[a:b, i0:i1] = words[a:b, i0:i1].sum(axis=2, dtype=np.int32)
    return np.broadcast_to(n1x, (count, m)), n11


def simulate_trials(
    derived_master: int,
    tid0: int,
    count: int,
    m: int,
    n: int,
    q: float,
    t0: float,
    t1: float,
    consts: tuple[float, ...],
    eps: float,
    fixed_words: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Simulate trials tid0..tid0+count-1.

    Returns (true_w, typicality mask, received bits, drawn codebooks);
    the last entry is None in fixed-codebook mode.  ``t0``/``t1`` are
    the channel's P(y=1 | x=0) and P(y=1 | x=1).
    """
    tids = np.arange(tid0, tid0 + count, dtype=np.uint64)
    u_msg = uniforms_at(stream_states(derived_master, trial_stream(tids, PURPOSE_MESSAGE)), 0)
    true_w = np.minimum((u_msg * m).astype(np.int64), m - 1) + 1

    if fixed_words is None:
        xwords = np.empty((count, m, n), dtype=np.uint8)
        cb_states = stream_states(derived_master, trial_stream(tids, PURPOSE_CODEBOOK))
        _draw_codebooks(cb_states, raw_threshold(q), xwords)
        words = xwords
    else:
        xwords, words = None, fixed_words[None]
    # the sent word is row w-1 of its trial's codebook, drawn once
    sent = np.broadcast_to(words, (count, m, n))[np.arange(count), true_w - 1].view(np.bool_)
    noise_states = stream_states(derived_master, trial_stream(tids, PURPOSE_NOISE))
    noise = raw_at(noise_states[:, None], np.arange(n, dtype=np.uint64))
    unit_bits(noise, out=noise)
    # p may be 0 or 1 here, so the noise takes the unit-bits compare
    ybits = np.where(sent, noise < unit_threshold(t1), noise < unit_threshold(t0)).view(np.uint8)
    del sent, noise  # the scan need not hold their 9 bytes per symbol

    n1x, n11 = _count(words, ybits)
    n1y = ybits.sum(axis=1, dtype=np.int64)
    n10 = n1x - n11
    n01 = n1y[:, None] - n11
    n00 = n - n1x - n1y[:, None] + n11
    mask = _typicality_mask(n, n1x, n1y, n00, n01, n10, n11, consts, eps)
    return true_w, mask, ybits, xwords
