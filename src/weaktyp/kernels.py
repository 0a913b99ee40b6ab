"""The batched simulation kernel: one blocked, in-place numpy pass per chunk.

A trial batch is the inner loop of every experiment: draw a codebook,
draw a message, push the codeword through the channel, and test each
codeword for joint typicality with the received word.  The kernel gives
bit for bit what the reference path (``core.generate_codebook``,
``core.transmit``, ``decoders.find_candidates``) gives; the tests pin
that equivalence.

A call simulates the trials of one or more segments (:class:`Segment`),
each a run of one sweep point's trials with its own derived master, bias
q and kernel constants; the segments share m, n, the channel and eps.
Every step works on all of a call's trials at once, with each trial's own
streams, threshold and constants, elementwise, so a trial's message,
received word and verdicts do not depend on the call it is in.

Stream layout: each trial's codebook, message and noise streams are
those of :func:`weaktyp.rng.trial_stream`.  Codebook draws fill words
row-major (word i, symbol j at offset i*n+j); the message uses offset 0
of its stream; noise uses offsets 0..n-1.

The streams are counter-based, so any block of draws can be made on its
own, in any order.  The kernel draws each symbol at most once, in blocks
of at most ``BLOCK_ELEMS`` draws mixed in two uint64 buffers kept from
call to call and compared straight into uint8 output: the codebooks
(into the caller's buffer, if given), then the noise, into the received
words, each sent word read as row w-1 of its codebook.  A fixed
codebook is drawn outside the kernel: a call returns it as its
(count, m, n) codewords, a read-only view in which every trial's rows
are the same memory, read as drawn ones are.  One blocked loop
then counts the codebooks against the received words: each block is
copied into a float32 buffer and multiplied by its trials' received
words beside a ones column, giving n11 and n1x in one product, exact in
any summation order because every partial sum is an integer below
``MAX_N`` = 2**24 (``config.validate`` admits no longer blocklength).
Beside the codebooks a trial holds 2n bytes of words and at most 73
bytes per codeword of scan arrays (``montecarlo.call_bytes``).

Prefix split: where :func:`prefix_length` gives a k < n, the kernel
draws the first k symbols of every codeword and the rest of each sent
word, and counts the prefixes.  The completions of a prefix reach
exactly the counts n11 in [n11', n11' + r1] and n10 in
[n10', n10' + r0], r1 and r0 the ones and zeros of the received word
after position k; on that rectangle n*ex and n*exy are affine, and a
codeword with a range that misses its window, widened by the rounding
slack of :func:`_prefix_slack`, cannot be typical (:func:`_completable`).
Only the other codewords' tails are drawn and counted, and only they and
the sent rows are scanned; a rejected row's verdict is False.  So the
sent rows and every typical row are whole, and a rejected row holds its
prefix and a zero tail, which no resolver reads.  The rule returns n,
one pass, where the split would save little, in fixed-codebook mode and
where a log constant is -inf.

A draw is 1 when its uniform falls below p; that test is made on the
integer draw, against :func:`weaktyp.rng.raw_threshold`, or, for a
channel with a probability 1, against :func:`weaktyp.rng.unit_threshold`
after the shift to unit bits, and either is exactly the same comparison,
each against a scalar threshold: a block's slice of one segment against
its q's, a noise block against t0 and t1 both, the sent bit picking one.
The codebook compare, :func:`weaktyp.rng.raw_below`, skips the
finalizer's last xorshift ``z ^ (z >> 31)`` in a block whose thresholds'
low 33 bits are all zero, as they are for every q = k / 2**31: that step
leaves bits 33..63 as they are, and those bits alone decide a compare
against such a threshold.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import NamedTuple

import numpy as np

from .rng import (
    PURPOSE_CODEBOOK,
    PURPOSE_MESSAGE,
    PURPOSE_NOISE,
    finalize,
    position_offsets,
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

# blocklengths below this keep every float32 count exact
MAX_N = 1 << 24

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
    n11: np.ndarray,
    consts: tuple[float, ...] | np.ndarray,
    eps: float,
    seg: np.ndarray | int = 0,
) -> np.ndarray:
    """Typicality of codewords with counts (n1x, n11), (T, c), against received words with n1y ones, (T,).

    ``consts`` is one tuple of kernel constants or an (S, 11) array of
    them; word t takes row ``seg[t, 0]`` of a (T, 1) ``seg``, or row 0.
    """
    col = n1y[:, None]
    n00, n01, n10 = n - n1x - col + n11, col - n11, n1x - n11
    # Term order and parenthesization mirror typicality._costs
    # exactly; the count guard keeps 0 * (-inf) cells out of the sums.
    table = np.reshape(consts, (-1, 11))
    lx0, lx1, ly0, ly1, l00, l01, l10, l11, hx, hy, hxy = table.T
    finite = np.isfinite(table).all()

    def term(count, log_p):
        # finite constants need no guard: 0 * log_p is a zero whose sign no
        # verdict sees (it can only flip a zero sum, and |±0 - h| is |h|)
        if finite:
            # count * log_p, cast in place: numpy's own cast would take a temporary
            out = np.empty(np.broadcast_shapes(np.shape(count), np.shape(log_p)))
            np.copyto(out, count)
            out *= log_p
            return out
        # the masked branch may transiently compute 0 * (-inf)
        with np.errstate(invalid="ignore"):
            return np.where(count == 0, 0.0, count * log_p)

    # ex depends on n1x alone and ey on n1y alone: each verdict is taken once
    # per segment and count 0..n, elementwise and so bit for bit, then looked up
    ones = np.arange(n + 1)
    ex = -(term(n - ones, lx0[:, None]) + term(ones, lx1[:, None])) / n
    ey = -(term(n - ones, ly0[:, None]) + term(ones, ly1[:, None])) / n
    x_ok = (np.abs(ex - hx[:, None]) < eps).ravel()
    y_ok = (np.abs(ey - hy[:, None]) < eps).ravel()
    # one flat S*(n+1) table each, read at count + segment offset
    at = seg * (n + 1)
    ok = x_ok[n1x + at]
    ok &= y_ok[n1y[..., None] + at]
    # -(((t00 + t01) + t10) + t11) / n, summed in place: one (T, c) term at a time
    exy = term(n00, l00[seg])
    exy += term(n01, l01[seg])
    exy += term(n10, l10[seg])
    exy += term(n11, l11[seg])
    exy = np.negative(exy, out=exy)
    exy /= n
    exy -= hxy[seg]
    ok &= np.abs(exy, out=exy) < eps
    return ok


def _blocks(count, m, n):
    """(trials, codewords) per block of at most ``BLOCK_ELEMS`` symbols.

    Blocks hold whole trials when a trial's m*n symbols fit, else ranges
    of whole codewords of one trial.
    """
    return min(count, max(1, BLOCK_ELEMS // (m * n))), min(m, max(1, BLOCK_ELEMS // n))


def _draw_codebooks(states, rq, words, n):
    """Draw ``words``, (U, r, c) uint8 and perhaps a view of row prefixes, in blocks.

    Row i, column j of unit u is position i*n + j of the codebook stream
    with state ``states[u]``: a unit is a trial's codebook, or a stretch
    of one codeword when r = 1.  A symbol is 1 when its raw draw falls
    below ``rq[u]``: each run of units with one threshold (a segment's
    trials) is compared against that scalar, a block's slice at a time.
    """
    count, m, width = words.shape
    trials_per_block, words_per_block = _blocks(count, m, width)
    size = trials_per_block * words_per_block * width
    # one block row's position offsets serve every range of rows: a later
    # range starts from the states skipped ahead to it
    positions = np.arange(words_per_block * n, dtype=np.uint64).reshape(words_per_block, n)
    offsets = position_offsets(positions[:, :width].ravel())
    buf = _kept_buffer("draw", size)
    scratch = _kept_buffer("scratch", size)
    edges = (np.flatnonzero(rq[1:] != rq[:-1]) + 1).tolist()
    for i0 in range(0, m, words_per_block):
        i1 = min(m, i0 + words_per_block)
        block_states = skip(states, i0 * n)[:, None, None]
        row = offsets[: (i1 - i0) * width].reshape(i1 - i0, width)
        for a in range(0, count, trials_per_block):
            b = min(count, a + trials_per_block)
            block = words[a:b, i0:i1]
            z = buf[: block.size].reshape(block.shape)
            np.add(block_states[a:b], row, out=z)
            # the block mixed once, each segment's slice compared against its scalar
            cuts = [0, *(e - a for e in edges if a < e < b), b - a]
            out, s = block.view(np.bool_), scratch[: block.size].reshape(block.shape)
            raw_below(z, [rq[a + lo] for lo in cuts[:-1]], out, s, cuts)


def _draw_received(states, sent, t0, t1, ybits):
    """Draw the received words of the (T, n) uint8 ``sent`` words into ``ybits``, in blocks.

    Symbol j of trial u, position j of stream ``states[u]``, is 1 when
    its draw falls below t1 where the sent bit is 1, else below t0: with
    b0, b1 the two scalar compares, y = b0 ^ ((b0 ^ b1) & sent), in
    bytes.  A probability 1 has no raw threshold, so then the draws are
    shifted to unit bits first.
    """
    count, n = ybits.shape
    per_block = min(count, max(1, BLOCK_ELEMS // n))
    offsets = position_offsets(np.arange(n, dtype=np.uint64))
    raw = max(t0, t1) < 1.0
    th0, th1 = (raw_threshold(t0), raw_threshold(t1)) if raw else (unit_threshold(t0), unit_threshold(t1))
    buf = _kept_buffer("draw", per_block * n)
    scratch = _kept_buffer("scratch", per_block * n)
    for a in range(0, count, per_block):
        b = min(count, a + per_block)
        z = buf[: (b - a) * n].reshape(b - a, n)
        s = scratch[: z.size].reshape(z.shape)
        np.add(states[a:b, None], offsets, out=z)
        finalize(z, out=z, scratch=s)
        if not raw:
            unit_bits(z, out=z)
        y, other = ybits[a:b], scratch.view(np.uint8)[: z.size].reshape(z.shape)
        np.less(z, th0, out=y.view(np.bool_))
        np.less(z, th1, out=other.view(np.bool_))
        np.bitwise_xor(other, y, out=other)
        np.bitwise_and(other, sent[a:b], out=other)
        np.bitwise_xor(y, other, out=y)


def _count(words, ybits):
    """(n1x, n11) per codeword of the (count, m, n) ``words`` against every received word.

    Counted in blocks, as the module docstring says.
    """
    count, n = ybits.shape
    if n >= MAX_N:
        raise ValueError(f"float32 counts are exact only below 2**24 symbols, got n = {n}")
    m = words.shape[1]
    trials_per_block, words_per_block = _blocks(count, m, n)
    block_buf = np.empty(trials_per_block * words_per_block * n, dtype=np.float32)
    ycols = np.ones((trials_per_block, n, 2), dtype=np.float32)
    n1x = np.empty((count, m), dtype=np.int64)
    n11 = np.empty((count, m), dtype=np.int64)
    for i0 in range(0, m, words_per_block):
        i1 = min(m, i0 + words_per_block)
        for a in range(0, count, trials_per_block):
            b = min(count, a + trials_per_block)
            block = block_buf[: (b - a) * (i1 - i0) * n].reshape(b - a, i1 - i0, n)
            np.copyto(block, words[a:b, i0:i1])
            y = ycols[: b - a]
            y[:, :, 0] = ybits[a:b]
            prod = np.matmul(block, y)
            n11[a:b, i0:i1] = prod[..., 0]
            n1x[a:b, i0:i1] = prod[..., 1]
    return n1x, n11


# the split must cut a trial's expected work, in draws, by at least this share
SPLIT_MIN_SAVING = 1 / 8

# the split's work beyond its draws, in draws: a tail drawn apart (the sent
# word's, or a prefix test survivor's) is drawn a row at a time, scattered into
# its codebook and counted on its own, about two draws more a symbol than a
# prefix symbol; each codeword's prefix test costs about four
TAIL_EXTRA = 2
TEST_COST = 4

# prefix lengths the rule weighs: n * j / PREFIX_STEPS, j = 1 .. PREFIX_STEPS - 1
PREFIX_STEPS = 32


def _at_least(mean: float, var: float, t: float) -> float:
    """P(V >= t) for V normal with this mean and variance (a step at var = 0)."""
    if var <= 0.0:
        return float(mean >= t)
    return 0.5 * math.erfc((t - mean) / math.sqrt(2.0 * var))


@functools.lru_cache(maxsize=None)
def prefix_length(n: int, m: int, q: float, consts: tuple[float, ...], eps: float, fixed: bool) -> int:
    """Codeword prefix length k of the split draw; n for one pass.

    ``consts`` are the kernel constants of (q, channel).  A trial draws
    m*k + (n - k) + (m - 1)*(n - k)*P_k symbols in expectation, P_k the
    chance that a non-sent codeword's prefix passes :func:`_completable`;
    k minimises that over k = n * j / ``PREFIX_STEPS``, each tail symbol
    weighted 1 + ``TAIL_EXTRA``, plus ``TEST_COST`` a codeword.  A
    non-sent codeword is i.i.d. Bernoulli(q) and independent of the
    received word, whose symbols are i.i.d. with P(y = 1) = 2**ly1, so
    the ends of n*ex's and n*exy's reachable ranges are sums of
    independent per-symbol costs; P_k takes each sum as normal, a range
    missing its window on one side only, and the x and xy tests as
    independent.  That models the cost only: k changes no output.  The
    rule returns n where the split would save under
    ``SPLIT_MIN_SAVING`` of the m*n draws, in fixed-codebook mode and
    where a log constant is -inf.
    """
    if fixed or n < 2 or not all(math.isfinite(c) for c in consts):
        return n
    lx0, lx1, _, ly1, l00, l01, l10, l11, hx, _, hxy = consts
    px, py = (1.0 - q, q), (1.0 - 2.0**ly1, 2.0**ly1)
    cost = {(0, 0): -l00, (0, 1): -l01, (1, 0): -l10, (1, 1): -l11}
    cx = (-lx0, -lx1)
    mean_x = px[0] * cx[0] + px[1] * cx[1]
    var_x = px[0] * px[1] * (cx[1] - cx[0]) ** 2
    mean_xy = sum(px[x] * py[y] * c for (x, y), c in cost.items())
    var_xy = sum(px[x] * py[y] * c * c for (x, y), c in cost.items()) - mean_xy**2

    def ends(pick):
        # mean and variance of one later symbol's cost at its cheapest (min) or dearest (max) completion
        c0, c1 = pick(cost[0, 0], cost[1, 0]), pick(cost[0, 1], cost[1, 1])
        return py[0] * c0 + py[1] * c1, py[0] * py[1] * (c1 - c0) ** 2

    low, high = ends(min), ends(max)

    def survives(k):
        tail = n - k
        x_high = _at_least(k * mean_x + tail * min(cx), k * var_x, n * (hx + eps))
        x_low = _at_least(-(k * mean_x + tail * max(cx)), k * var_x, -n * (hx - eps))
        xy_high = _at_least(k * mean_xy + tail * low[0], k * var_xy + tail * low[1], n * (hxy + eps))
        xy_low = _at_least(-(k * mean_xy + tail * high[0]), k * var_xy + tail * high[1], -n * (hxy - eps))
        return max(0.0, 1.0 - x_high - x_low) * max(0.0, 1.0 - xy_high - xy_low)

    # a split saves (m - 1)(n - k)(1 - P_k) draws and P_k falls as k grows, so
    # k in [n(1 - 2**-j), n(1 - 2**-(j+1))] saves at most (m - 1) n 2**-j (1 - P at
    # the right end); past 7n/8 that is under SPLIT_MIN_SAVING * m * n for any m
    bound = max(2.0**-j * (1.0 - survives(round(n * (1.0 - 2.0 ** -(j + 1))))) for j in range(3))
    if (m - 1) * bound < SPLIT_MIN_SAVING * m:
        return n

    def work(k):
        # in draws: the prefixes, then the tails drawn apart at their extra cost, and the tests
        tails = (n - k) * (1.0 + (m - 1) * survives(k))
        return m * k + (1 + TAIL_EXTRA) * tails + TEST_COST * m

    k = min({min(n - 1, max(1, round(n * j / PREFIX_STEPS))) for j in range(1, PREFIX_STEPS)}, key=work)
    return k if work(k) <= (1.0 - SPLIT_MIN_SAVING) * m * n else n


def _prefix_slack(n: int, consts: tuple[float, ...], eps: float) -> float:
    """Bound on the rounding that :func:`_completable`'s compares must absorb, at blocklength n.

    With L the largest |constant| (the entropies are at most L too),
    every count at most n < 2**24 (exact in float64) and u = 2**-53:
    the mask's per-symbol costs err by under 6uL (four rounded products
    and three sums of at most nL, then / n) and its compare by 2uL, so a
    typical completion's exact n*cost lies within n(eps + 8uL) + 2nu*eps
    of n*h.  The filter's affine form rounds its coefficients (|a|, |b|
    <= 2L), two products and a sum (under 23unL), and its thresholds add
    five terms of at most n(4L + eps) each (under 25unL + 8un*eps).  The
    sum is under 64un(L + eps); the factor 2 is room.
    """
    size = max(abs(c) for c in consts) + eps
    return 128.0 * 2.0**-53 * n * size


def _completable(n, k, n1x, n11, n1y, r1, consts, eps):
    """(count, m) mask of the codewords some completion of whose first k symbols may be typical.

    (n1x, n11) are the prefix counts, n1y and r1 each trial's ones in
    its whole received word and after position k.  With every constant
    finite, n*ex = -n*lx0 + (lx0 - lx1)*n1x over n1x in [n1x, n1x + n - k],
    and n*exy = base + a*n11 + b*n10 over the rectangle of the module
    docstring, base = -((n - n1y)*l00 + n1y*l01), a = l01 - l11,
    b = l00 - l10; a codeword passes unless a range lies a slack
    (:func:`_prefix_slack`) beyond its window.  A -inf constant breaks
    the affine form, and every codeword passes.
    """
    if not all(math.isfinite(c) for c in consts):
        return np.ones(n1x.shape, dtype=bool)
    lx0, lx1, _, _, l00, l01, l10, l11, hx, _, hxy = consts
    slack = _prefix_slack(n, consts, eps)
    tail = n - k
    cx = lx0 - lx1
    lin = cx * n1x
    keep = lin < n * (hx + eps) + n * lx0 - min(0.0, cx * tail) + slack
    keep &= lin > n * (hx - eps) + n * lx0 - max(0.0, cx * tail) - slack
    a, b = l01 - l11, l00 - l10
    r0 = tail - r1
    base = -((n - n1y) * l00 + n1y * l01)
    below = (n * (hxy + eps) + slack) - base - min(0.0, a) * r1 - min(0.0, b) * r0
    above = (n * (hxy - eps) - slack) - base - max(0.0, a) * r1 - max(0.0, b) * r0
    lin = (a - b) * n11
    lin += b * n1x
    keep &= lin < below[:, None]
    keep &= lin > above[:, None]
    return keep


def _add_counts(n1x, n11, rows, tails, ytails):
    """Add the counts of ``tails`` against ``ytails``, both (R, w) uint8, to flat rows ``rows``.

    The block is counted in float32, exactly, as in :func:`_count`.
    """
    block = tails.astype(np.float32)
    n1x.reshape(-1)[rows] += (block @ np.ones(block.shape[1], dtype=np.float32)).astype(np.int64)
    n11.reshape(-1)[rows] += np.einsum("ij,ij->i", block, ytails, dtype=np.float32).astype(np.int64)


def _draw_tails(cb_states, rq, rows, k, which, ytails, n1x, n11):
    """Draw the tails (symbols k..n-1) of the (count * m, n) codebook rows ``which`` into ``rows`` and count them.

    A block of at most ``BLOCK_ELEMS / 4`` symbols at a time: its uint8
    tails, their float32 copy and its received tails, about 6 bytes a
    symbol, then fit in heap the call has freed.
    """
    m = n1x.shape[1]
    n = rows.shape[1]
    per_block = max(1, BLOCK_ELEMS // (4 * (n - k)))
    for a in range(0, which.size, per_block):
        idx = which[a : a + per_block]
        t, i = np.divmod(idx, m)
        tails = np.empty((idx.size, n - k), dtype=np.uint8)
        _draw_codebooks(skip(cb_states[t], i * n + k), rq[t], tails[:, None], n)
        rows[idx, k:] = tails
        _add_counts(n1x, n11, idx, tails, ytails[t])


class Segment(NamedTuple):
    """A sweep point's trials tid0..tid0+count-1 in a kernel call, with its derived master, bias and constants."""

    derived_master: int
    tid0: int
    count: int
    q: float
    consts: tuple[float, ...]


def simulate_trials(
    segments: list[Segment],
    count: int,
    m: int,
    n: int,
    t0: float,
    t1: float,
    eps: float,
    fixed_words: np.ndarray | None = None,
    codebooks: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Simulate the ``count`` trials of ``segments``, one segment after another.

    Returns (true_w, typicality mask, received bits, codewords), the
    last (count, m, n) uint8 in both modes: drawn into the buffer
    ``codebooks`` if given, or, in fixed-codebook mode, a read-only
    ``np.broadcast_to`` view of ``fixed_words``, which no code past the
    kernel tells apart.  ``t0``/``t1`` are P(y=1 | x=0) and
    P(y=1 | x=1).  A call of one segment may split at a prefix
    (:func:`prefix_length`), where a row that cannot be typical holds its
    first k symbols and zeros; a call of several is one pass.
    """
    sizes = [s.count for s in segments]
    if sum(sizes) != count:
        raise ValueError(f"the segments hold {sum(sizes)} trials, not count = {count}")
    # each trial's derived master, trial id and codebook threshold
    masters = np.repeat(np.array([s.derived_master for s in segments], dtype=np.uint64), sizes)
    tids = np.concatenate([np.arange(s.tid0, s.tid0 + s.count, dtype=np.uint64) for s in segments])
    rq = np.repeat(np.array([raw_threshold(s.q) for s in segments]), sizes)
    purposes = np.array([[PURPOSE_MESSAGE], [PURPOSE_NOISE], [PURPOSE_CODEBOOK]], dtype=np.uint64)
    states = stream_states(masters, trial_stream(tids, purposes))
    u_msg = uniforms_at(states[0], 0)
    true_w = np.minimum((u_msg * m).astype(np.int64), m - 1) + 1

    (head, *rest) = segments
    k = n if rest else prefix_length(n, m, head.q, head.consts, eps, fixed_words is not None)
    if fixed_words is None:
        size = count * m * n
        xwords = (np.empty(size, dtype=np.uint8) if codebooks is None else codebooks[:size]).reshape(count, m, n)
        # a split leaves the tails it never draws zero
        xwords[:, :, k:] = 0
        rows = xwords.reshape(count * m, n)
        cb_states = states[2].copy()
        _draw_codebooks(cb_states, rq, xwords[:, :, :k], n)
        if k < n:
            # the rest of each sent word, which its received word needs
            sent_rows = np.arange(count) * m + true_w - 1
            sent_tails = np.empty((count, n - k), dtype=np.uint8)
            _draw_codebooks(skip(cb_states, (true_w - 1) * n + k), rq, sent_tails[:, None], n)
            rows[sent_rows, k:] = sent_tails
    else:
        # every trial's codebook is the one fixed codebook, shared, not copied
        xwords = np.broadcast_to(fixed_words, (count, m, n))
    # the sent word is row w-1 of its trial's codebook, drawn once
    sent = xwords[np.arange(count), true_w - 1]
    ybits = np.empty((count, n), dtype=np.uint8)
    _draw_received(states[1], sent, t0, t1, ybits)
    del sent, states

    n1x, n11 = _count(xwords[:, :, :k], ybits[:, :k])
    n1y = ybits.sum(axis=1, dtype=np.int64)
    if k == n:
        # each trial scans against its own segment's row of constants
        consts = np.array([s.consts for s in segments])
        seg = np.repeat(np.arange(len(segments)), sizes)[:, None] if rest else 0
        return true_w, _typicality_mask(n, n1x, n1y, n11, consts, eps, seg), ybits, xwords
    ytails = ybits[:, k:]
    keep = _completable(n, k, n1x, n11, n1y, ytails.sum(axis=1, dtype=np.int64), head.consts, eps)
    # the sent rows are whole already; of the others, only those that may be typical get tails
    keep.reshape(-1)[sent_rows] = False
    todo = np.flatnonzero(keep)
    del keep
    _add_counts(n1x, n11, sent_rows, sent_tails, ytails)
    _draw_tails(cb_states, rq, rows, k, todo, ytails, n1x, n11)
    # a rejected row cannot be typical: only the sent rows and the survivors are scanned
    at = np.concatenate((sent_rows, todo))
    mask = np.zeros((count, m), dtype=bool)
    verdicts = _typicality_mask(n, n1x.reshape(-1)[at, None], n1y[at // m], n11.reshape(-1)[at, None], head.consts, eps)
    mask.reshape(-1)[at] = verdicts[:, 0]
    return true_w, mask, ybits, xwords
