"""Entropies of a (codeword bias, channel) pair and the joint-typicality test.

Everything here is in bits (log base 2).  Empirical per-symbol
log-probabilities are assembled from symbol-pair counts, so a decision
depends only on how often each (x, y) pair occurs, never on position
order, and nothing underflows at large blocklengths.

The per-symbol costs of :func:`_costs`, which both
:func:`typical_from_counts` and :func:`empirical_log_probs` read, are
the single source of truth; the batched simulation kernel in
``weaktyp.kernels`` mirrors their arithmetic term for term, so both
reach bit-identical verdicts.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import Dmc


def _log2_or_neg_inf(p: float) -> float:
    return math.log2(p) if p > 0.0 else float("-inf")


@dataclass(frozen=True)
class JointContext:
    """Exact laws and entropies shared by every typicality decision.

    ``log_*`` tables hold log2 probabilities with -inf at
    zero-probability cells; the count guards in the test keep those
    cells from ever producing NaNs.
    """

    px: np.ndarray
    py: np.ndarray
    pxy: np.ndarray
    hx: float
    hy: float
    hxy: float
    log_px: np.ndarray
    log_py: np.ndarray
    log_pxy: np.ndarray

    def kernel_constants(self) -> tuple[float, ...]:
        """Flat float tuple consumed by the simulation kernels."""
        return (
            float(self.log_px[0]),
            float(self.log_px[1]),
            float(self.log_py[0]),
            float(self.log_py[1]),
            float(self.log_pxy[0, 0]),
            float(self.log_pxy[0, 1]),
            float(self.log_pxy[1, 0]),
            float(self.log_pxy[1, 1]),
            self.hx,
            self.hy,
            self.hxy,
        )


def build_context(q: float, ch: Dmc) -> JointContext:
    """Joint law p(x, y) = p(x) W[y|x] and its entropies, computed exactly."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"codeword bias q must be in (0, 1), got {q}")
    if ch.input_alphabet_size != 2 or ch.output_alphabet_size != 2:
        raise ValueError("only binary channels are supported")
    px = np.array([1.0 - q, q])
    pxy = px[:, None] * ch.transition
    py = pxy.sum(axis=0)

    def entropy(probs: np.ndarray) -> float:
        h = 0.0
        for p in probs.ravel():
            if p > 0.0:
                h -= p * math.log2(p)
        return h

    def log_table(probs: np.ndarray) -> np.ndarray:
        return np.array([_log2_or_neg_inf(p) for p in probs.ravel().tolist()]).reshape(probs.shape)

    return JointContext(
        px=px,
        py=py,
        pxy=pxy,
        hx=entropy(px),
        hy=entropy(py),
        hxy=entropy(pxy),
        log_px=log_table(px),
        log_py=log_table(py),
        log_pxy=log_table(pxy),
    )


def pair_counts(x: np.ndarray, y: np.ndarray) -> tuple[int, int, int, int, int, int, int]:
    """Joint symbol statistics (n, n1x, n1y, n00, n01, n10, n11) of two binary sequences."""
    n = x.size
    n1x = int(x.sum())
    n1y = int(y.sum())
    n11 = int((x & y).sum())
    n10 = n1x - n11
    n01 = n1y - n11
    n00 = n - n1x - n1y + n11
    return n, n1x, n1y, n00, n01, n10, n11


def _term(count: int, log_p: float) -> float:
    # 0 * log 0 convention: an absent symbol contributes nothing
    return 0.0 if count == 0 else count * log_p


def _costs(
    n: int, n1x: int, n1y: int, n00: int, n01: int, n10: int, n11: int, ctx: JointContext
) -> Iterator[float]:
    """Per-symbol -log2 empirical probabilities of (x), (y) and (x, y) from symbol-pair counts, in turn.

    Lazy, so a verdict that fails on an early cost computes no later one.
    """
    lx0, lx1, ly0, ly1, l00, l01, l10, l11, _, _, _ = ctx.kernel_constants()
    yield -(_term(n - n1x, lx0) + _term(n1x, lx1)) / n
    yield -(_term(n - n1y, ly0) + _term(n1y, ly1)) / n
    yield -(((_term(n00, l00) + _term(n01, l01)) + _term(n10, l10)) + _term(n11, l11)) / n


def typical_from_counts(
    n: int,
    n1x: int,
    n1y: int,
    n00: int,
    n01: int,
    n10: int,
    n11: int,
    ctx: JointContext,
    eps: float,
) -> bool:
    """Three-condition typicality verdict from symbol-pair counts.

    A pair containing a zero-probability cell drives the corresponding
    empirical cost to +inf and can never be typical.
    """
    costs = _costs(n, n1x, n1y, n00, n01, n10, n11, ctx)
    return (
        abs(next(costs) - ctx.hx) < eps
        and abs(next(costs) - ctx.hy) < eps
        and abs(next(costs) - ctx.hxy) < eps
    )


def empirical_log_probs(x: np.ndarray, y: np.ndarray, ctx: JointContext) -> tuple[float, float, float]:
    """Per-symbol -log2 empirical probabilities of (x), (y), and (x, y)."""
    if x.shape != y.shape:
        raise ValueError("sequences must have equal length")
    n, n1x, n1y, n00, n01, n10, n11 = pair_counts(x, y)
    if n == 0:
        raise ValueError("sequences must be nonempty")
    ex, ey, exy = _costs(n, n1x, n1y, n00, n01, n10, n11, ctx)
    return ex, ey, exy


def is_jointly_typical(x: np.ndarray, y: np.ndarray, ctx: JointContext, eps: float) -> bool:
    """True iff all three empirical costs lie strictly within eps of H(X), H(Y), H(X,Y)."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if x.shape != y.shape:
        raise ValueError("sequences must have equal length")
    n, n1x, n1y, n00, n01, n10, n11 = pair_counts(x, y)
    if n == 0:
        raise ValueError("sequences must be nonempty")
    return typical_from_counts(n, n1x, n1y, n00, n01, n10, n11, ctx, eps)
