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
draws, each mixed in two uint64 buffers kept from call to call and
compared straight into the returned codebooks.  It reads each sent word
as row w-1 of its trial's codebook (or of the fixed one), and draws the
noise to form the received word.  Then one blocked loop counts the drawn
codebooks, or the shared uint8 codebook with no wider copy of it,
against the received words: each block is copied into a float32 buffer
and multiplied by its trials' received words beside a ones column,
which gives n11 and n1x in one product.  That product is exact in any
summation order and under any BLAS thread count, because every partial
sum is an integer of at most n < 2**24 (``config.validate`` admits no
longer blocklength).  Only the returned ``uint8`` codebooks grow with
trials x m x n, but the scan's int64 counts, float64 typicality terms
and mask grow with trials x m, about 73 bytes per codeword
(``montecarlo.call_bytes`` is the whole per-trial footprint, and the
executor sizes calls by it).
A draw is 1 when its uniform falls below p; that test is made on the
integer draw, against :func:`weaktyp.rng.raw_threshold` for the
codebook bias and :func:`weaktyp.rng.unit_threshold` for the channel,
and either is exactly the same comparison.  The codebook compare,
:func:`weaktyp.rng.raw_below`, skips the finalizer's last xorshift
``z ^ (z >> 31)`` when the threshold's low 33 bits are zero, as they are
for every q = k / 2**31: that step leaves bits 33..63 as they are, and
those bits alone decide a compare against such a threshold.
"""

from __future__ import annotations

import threading

import numpy as np

from .rng import (
    PURPOSE_CODEBOOK,
    PURPOSE_MESSAGE,
    PURPOSE_NOISE,
    position_offsets,
    raw_at,
    raw_below,
    raw_threshold,
    skip,
    stream_states,
    trial_stream,
    uniforms_at,
    unit_bits,
    unit_threshold,
)

# symbols per block: the draw's two uint64 buffers of this size, and the
# count's one float32 buffer, stay in cache
BLOCK_ELEMS = 1 << 16

# the draw's two uint64 block buffers, kept from call to call (one pair per
# thread): made afresh, their pages can be mapped anew on every call, which
# cost a desk fig3 sweep 8,000–10,000 page faults
_kept = threading.local()


def _kept_buffer(slot: str, size: int) -> np.ndarray:
    """``size`` uint64 of the kept buffer ``slot``, grown as needed; a new array past ``BLOCK_ELEMS``."""
    if size > BLOCK_ELEMS:
        return np.empty(size, dtype=np.uint64)
    buf = getattr(_kept, slot, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype=np.uint64)
        setattr(_kept, slot, buf)
    return buf[:size]


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
    buf = _kept_buffer("draw", size)
    scratch = _kept_buffer("scratch", size)
    for i0 in range(0, m, words_per_block):
        i1 = min(m, i0 + words_per_block)
        states = skip(cb_states, i0 * n)[:, None, None]
        row = offsets[: (i1 - i0) * n].reshape(i1 - i0, n)
        for a in range(0, count, trials_per_block):
            b = min(count, a + trials_per_block)
            words = xwords[a:b, i0:i1]
            z = buf[: words.size].reshape(words.shape)
            np.add(states[a:b], row, out=z)
            raw_below(z, rq, words.view(np.bool_), scratch[: words.size].reshape(words.shape))


def _count(words, ybits):
    """(n1x, n11) per codeword of ``words`` against every received word.

    ``words`` is the drawn (count, m, n) codebooks or one shared
    (1, m, n) codebook.  Each block of at most ``BLOCK_ELEMS`` symbols
    is copied into one float32 buffer and multiplied by its trials'
    received words beside a ones column, giving n11 and n1x at once.
    The product is exact in any summation order: every partial sum is an
    integer of at most n < 2**24.
    """
    count, n = ybits.shape
    if n >= 1 << 24:
        raise ValueError(f"float32 counts are exact only below 2**24 symbols, got n = {n}")
    m = words.shape[1]
    trials_per_block, words_per_block = _blocks(count, m, n)
    block_buf = np.empty(trials_per_block * words_per_block * n, dtype=np.float32)
    ycols = np.ones((trials_per_block, n, 2), dtype=np.float32)
    bits = np.broadcast_to(words, (count, m, n))
    n1x = np.empty((count, m), dtype=np.int64)
    n11 = np.empty((count, m), dtype=np.int64)
    for i0 in range(0, m, words_per_block):
        i1 = min(m, i0 + words_per_block)
        for a in range(0, count, trials_per_block):
            b = min(count, a + trials_per_block)
            block = block_buf[: (b - a) * (i1 - i0) * n].reshape(b - a, i1 - i0, n)
            np.copyto(block, bits[a:b, i0:i1])
            y = ycols[: b - a]
            y[:, :, 0] = ybits[a:b]
            prod = np.matmul(block, y)
            n11[a:b, i0:i1] = prod[..., 0]
            n1x[a:b, i0:i1] = prod[..., 1]
    return n1x, n11


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
