"""Figure-style sweeps: exponent vs blocklength, and the bias sweep.

The blocklength sweep evaluates both decoders on identical trial
streams at each n.  The bias sweep takes, for every codeword bias q,
each decoder's best exponent over the blocklength grid and reports the
difference (classical minus weak); dominance makes that difference
nonpositive at every single point, not merely on average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .montecarlo import ExponentPoint, TrialConfig, estimate_points, exponent

M_MODES = ("fixed-m", "fixed-rate")


@dataclass(frozen=True)
class SweepResult:
    """Paired exponent points over a strictly increasing x-grid."""

    points: tuple[tuple[float, ExponentPoint, ExponentPoint], ...]

    def __post_init__(self) -> None:
        xs = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("sweep x-values must be strictly increasing")


def messages_at_rate(n: int, rate_bits: float) -> int:
    """Message count of fixed-rate mode at blocklength n: 2**ceil(rate_bits * n), at least 2."""
    return max(2, 2 ** math.ceil(rate_bits * n))


def _messages_for(base: TrialConfig, n: int, m_mode: str, rate_bits: float | None) -> int:
    if m_mode == "fixed-m":
        return base.m
    if rate_bits is None or rate_bits <= 0.0:
        raise ValueError("fixed-rate mode needs a positive rate_bits")
    return messages_at_rate(n, rate_bits)


def sweep_blocklengths(
    base: TrialConfig,
    blocklengths: list[int],
    trials_per_point: int,
    m_mode: str = "fixed-m",
    rate_bits: float | None = None,
) -> SweepResult:
    """Paired exponent curves over a blocklength grid.

    ``m_mode`` "fixed-m" keeps the message count of ``base``;
    "fixed-rate" grows it as 2**ceil(rate_bits * n).
    """
    if not blocklengths:
        raise ValueError("blocklengths must be nonempty")
    if any(b <= a for a, b in zip(blocklengths, blocklengths[1:])):
        raise ValueError("blocklengths must be strictly increasing")
    if trials_per_point < 1:
        raise ValueError("trials_per_point must be positive")
    if m_mode not in M_MODES:
        raise ValueError(f"unknown m_mode {m_mode!r}")

    cfgs = [replace(base, n=n, m=_messages_for(base, n, m_mode, rate_bits)) for n in blocklengths]
    points = [
        (float(cfg.n), exponent(pe_jt, cfg.n, cfg.m), exponent(pe_weak, cfg.n, cfg.m))
        for cfg, (pe_jt, pe_weak) in zip(cfgs, estimate_points(cfgs, trials_per_point))
    ]
    return SweepResult(points=tuple(points))


def sweep_source_prob(
    base: TrialConfig,
    q_values: list[float],
    blocklengths: list[int],
    trials_per_point: int,
) -> SweepResult:
    """Best exponent of each decoder over the blocklength grid, per codeword bias.

    Each returned point carries the decoders' individually best
    ExponentPoints (their argmax blocklengths may differ).
    """
    if not q_values:
        raise ValueError("q_values must be nonempty")
    if any(not 0.0 < q < 1.0 for q in q_values):
        raise ValueError("every q must lie in (0, 1)")
    if any(b <= a for a, b in zip(q_values, q_values[1:])):
        raise ValueError("q_values must be strictly increasing")
    if not blocklengths:
        raise ValueError("blocklengths must be nonempty")
    if trials_per_point < 1:
        raise ValueError("trials_per_point must be positive")

    # every point of the grid shares a shape, so their multi-candidate
    # trials are resolved together
    grid = [(q, n) for n in blocklengths for q in q_values]
    estimates = dict(zip(grid, estimate_points([replace(base, q=q, n=n) for q, n in grid], trials_per_point)))
    points = []
    for q in q_values:
        best_jt: ExponentPoint | None = None
        best_weak: ExponentPoint | None = None
        for n in blocklengths:
            pe_jt, pe_weak = estimates[q, n]
            ep_jt = exponent(pe_jt, n, base.m)
            ep_weak = exponent(pe_weak, n, base.m)
            if best_jt is None or ep_jt.exponent > best_jt.exponent:
                best_jt = ep_jt
            if best_weak is None or ep_weak.exponent > best_weak.exponent:
                best_weak = ep_weak
        points.append((float(q), best_jt, best_weak))
    return SweepResult(points=tuple(points))
