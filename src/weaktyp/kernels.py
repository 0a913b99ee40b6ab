"""The batched simulation kernel: one blocked, in-place numpy pass per chunk.

A trial batch is the inner loop of every experiment: draw a codebook,
draw a message, push the codeword through the channel, and test each
codeword for joint typicality with the received word.  The kernel gives
bit for bit what the reference path (``core.generate_codebook``,
``core.transmit``, ``decoders.find_candidates``) gives; the tests pin
that equivalence.

Stream layout (matching ``montecarlo``): trial t uses stream ids
``t*4 + purpose`` with purposes 0=codebook, 1=message, 2=noise,
3=resolver.  Codebook draws fill words row-major (word i, symbol j at
offset i*n+j); the message uses offset 0 of its stream; noise uses
offsets 0..n-1.

The streams are counter-based, so any block of draws can be made on its
own.  The kernel therefore draws the message and the sent word first,
which gives the received word, and then draws the codebook in blocks of
at most ``BLOCK_ELEMS`` draws: each block is finalized in two reused
uint64 buffers, turned into bits straight into the returned codebooks,
and counted against the received word while it is still in cache.
Only the returned ``uint8`` codebooks grow with trials x m x n, but the
scan's int64 counts, float64 typicality terms and mask grow with
trials x m, about 73 bytes per codeword (``montecarlo.call_bytes`` is
the whole per-trial footprint, and the executor sizes calls by it).
In fixed-codebook mode the shared uint8 codebook is counted against the
received words in blocks of the same size, with no wider copy of it.
A draw is 1 when its uniform falls below p; that test is made on the
integer draw, against :func:`weaktyp.rng.raw_threshold` for the
codebook bias and :func:`weaktyp.rng.unit_threshold` for the channel,
and either is exactly the same comparison.
"""

from __future__ import annotations

import numpy as np

from .rng import (
    finalize,
    position_offsets,
    raw_at,
    raw_threshold,
    skip,
    stream_states,
    uniforms_at,
    unit_bits,
    unit_threshold,
)

# draws per codebook block: two uint64 buffers of this size stay in cache
BLOCK_ELEMS = 1 << 16

_STREAMS_PER_TRIAL = 4


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
    # Term order and parenthesization mirror typicality.typical_from_counts
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


def _unit_bits_at(states: np.ndarray, positions) -> np.ndarray:
    """:func:`~weaktyp.rng.unit_bits` of the draws at the given positions, elementwise."""
    raw = raw_at(states, positions)
    return unit_bits(raw, out=raw)


def _draw_and_count(cb_states, m, n, rq, ybits, xwords):
    """Draw every codebook into ``xwords`` and return (n1x, n11) per codeword.

    Blocks hold whole trials when a trial's m*n draws fit in
    ``BLOCK_ELEMS``, else ranges of whole codewords of one trial.  A
    symbol is 1 when its raw draw falls below ``rq``.
    """
    count = cb_states.size
    words_per_block = min(m, max(1, BLOCK_ELEMS // n))
    trials_per_block = min(count, max(1, BLOCK_ELEMS // (m * n)))
    size = trials_per_block * words_per_block * n
    # one block row's position offsets serve every range of codewords: a
    # later range starts from the codebook states skipped ahead to it
    offsets = position_offsets(np.arange(words_per_block * n, dtype=np.uint64))
    buf = np.empty(size, dtype=np.uint64)
    scratch = np.empty(size, dtype=np.uint64)
    # the scratch buffer is free again once a block is finalized
    both = scratch.view(np.bool_)[:size]
    ymask = ybits.view(np.bool_)[:, None, :]
    n1x = np.empty((count, m), dtype=np.int64)
    n11 = np.empty((count, m), dtype=np.int64)
    for i0 in range(0, m, words_per_block):
        i1 = min(m, i0 + words_per_block)
        states = skip(cb_states, i0 * n)[:, None]
        row = offsets[: (i1 - i0) * n]
        for a in range(0, count, trials_per_block):
            b = min(count, a + trials_per_block)
            shape = (b - a, i1 - i0, n)
            elems = shape[0] * shape[1] * n
            z = buf[:elems].reshape(shape[0], -1)
            np.add(states[a:b], row, out=z)
            finalize(z, out=z, scratch=scratch[:elems].reshape(z.shape))
            words = xwords[a:b, i0:i1]
            bits = words.view(np.bool_)
            np.less(z.reshape(shape), rq, out=bits)
            # int32 sums of the 0/1 bytes count faster than count_nonzero
            n1x[a:b, i0:i1] = words.sum(axis=2, dtype=np.int32)
            block_both = both[:elems].reshape(shape)
            np.logical_and(bits, ymask[a:b], out=block_both)
            n11[a:b, i0:i1] = block_both.view(np.uint8).sum(axis=2, dtype=np.int32)
    return n1x, n11


def _count_fixed(words, ybits):
    """(n1x, n11) per codeword of one shared codebook against every received word.

    The codebook is counted as it is, uint8, in blocks of at most
    ``BLOCK_ELEMS`` symbol pairs laid out as in :func:`_draw_and_count`,
    so no wider copy of it is made.
    """
    count, n = ybits.shape
    m = words.shape[0]
    words_per_block = min(m, max(1, BLOCK_ELEMS // n))
    trials_per_block = min(count, max(1, BLOCK_ELEMS // (m * n)))
    both = np.empty(trials_per_block * words_per_block * n, dtype=np.bool_)
    bits = words.view(np.bool_)
    ymask = ybits.view(np.bool_)[:, None, :]
    n11 = np.empty((count, m), dtype=np.int64)
    for i0 in range(0, m, words_per_block):
        i1 = min(m, i0 + words_per_block)
        for a in range(0, count, trials_per_block):
            b = min(count, a + trials_per_block)
            block = both[: (b - a) * (i1 - i0) * n].reshape(b - a, i1 - i0, n)
            np.logical_and(ymask[a:b], bits[i0:i1], out=block)
            n11[a:b, i0:i1] = block.view(np.uint8).sum(axis=2, dtype=np.int32)
    n1x = np.broadcast_to(words.sum(axis=1, dtype=np.int64), (count, m))
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
    ids = np.arange(tid0, tid0 + count, dtype=np.uint64) * np.uint64(_STREAMS_PER_TRIAL)
    cb_states = stream_states(derived_master, ids)
    rq = raw_threshold(q)

    u_msg = uniforms_at(stream_states(derived_master, ids + np.uint64(1)), 0)
    true_w = np.minimum((u_msg * m).astype(np.int64), m - 1) + 1

    symbols = np.arange(n, dtype=np.uint64)
    if fixed_words is None:
        # the sent word alone: its n draws start at position (w-1)*n of the codebook stream
        word_states = skip(cb_states, (true_w - 1) * n)
        sent = raw_at(word_states[:, None], symbols) < rq
    else:
        sent = fixed_words[true_w - 1] == 1
    noise = _unit_bits_at(stream_states(derived_master, ids + np.uint64(2))[:, None], symbols)
    # p may be 0 or 1 here, so the noise takes the unit-bits compare
    ybits = np.where(sent, noise < unit_threshold(t1), noise < unit_threshold(t0)).view(np.uint8)
    del sent, noise  # the codebook draw need not hold their 9 bytes per symbol

    if fixed_words is None:
        xwords = np.empty((count, m, n), dtype=np.uint8)
        n1x, n11 = _draw_and_count(cb_states, m, n, rq, ybits, xwords)
    else:
        xwords = None
        n1x, n11 = _count_fixed(fixed_words, ybits)
    n1y = ybits.sum(axis=1, dtype=np.int64)
    n10 = n1x - n11
    n01 = n1y[:, None] - n11
    n00 = n - n1x - n1y[:, None] + n11
    mask = _typicality_mask(n, n1x, n1y, n00, n01, n10, n11, consts, eps)
    return true_w, mask, ybits, xwords
