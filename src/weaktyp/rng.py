"""Deterministic counter-based random streams.

Every random draw in this package is a pure function of
(master_seed, stream_id, position): stream states are derived with
splitmix64 mixing, and the draw at position i is the splitmix64 output
for counter i.  Distinct (master_seed, stream_id) pairs give
statistically independent sequences, any position can be regenerated
without replaying the stream, and parallel execution reproduces serial
results bit for bit.

The array helpers below serve both the per-trial streams and the
batched simulation kernel in ``weaktyp.kernels``, so there is one
implementation of the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# top 53 bits of a draw, scaled to [0, 1)
_U01_BITS = 53
_U01_SCALE = 2.0**-_U01_BITS

_U64_GAMMA = np.uint64(GAMMA)
_U64_MIX1 = np.uint64(_MIX1)
_U64_MIX2 = np.uint64(_MIX2)
_U64_ONE = np.uint64(1)
_SHIFT_U01 = np.uint64(64 - _U01_BITS)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)


def mix64(x: int) -> int:
    """One splitmix64 step: advance the state by gamma and finalize."""
    z = (x + GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def stream_state(master_seed: int, stream_id: int) -> int:
    """Base state of stream ``stream_id`` under ``master_seed``."""
    return mix64(mix64(master_seed & MASK64) ^ (stream_id & MASK64))


def position_offsets(positions) -> np.ndarray:
    """State increments of stream positions: position i is ``finalize(state + (i+1)*GAMMA)``."""
    offsets = np.asarray(positions, dtype=np.uint64) + _U64_ONE
    offsets *= _U64_GAMMA  # in place: the sum above is a fresh array
    return offsets


def raw_block(state: int, start: int, count: int) -> np.ndarray:
    """uint64 draws at positions start..start+count-1 of a stream.

    Position i of a stream is ``mix64(state + i*GAMMA)``, i.e. the
    plain splitmix64 output sequence started at ``state``.  uint64
    array arithmetic wraps mod 2**64, which is exactly what we want.
    """
    offsets = position_offsets(np.arange(start, start + count, dtype=np.uint64))
    return finalize(np.uint64(state) + offsets)


def finalize(z, out: np.ndarray | None = None, scratch: np.ndarray | None = None):
    """The splitmix64 output function of :func:`mix64`, on a uint64 array.

    Given ``out`` (which may be ``z`` itself) and a ``scratch`` array of
    the same shape, it works in place and allocates nothing.
    """
    t = np.right_shift(z, _SHIFT_30, out=scratch)
    z = np.multiply(np.bitwise_xor(z, t, out=out), _U64_MIX1, out=out)
    t = np.right_shift(z, _SHIFT_27, out=scratch)
    z = np.multiply(np.bitwise_xor(z, t, out=out), _U64_MIX2, out=out)
    t = np.right_shift(z, _SHIFT_31, out=scratch)
    return np.bitwise_xor(z, t, out=out)


def unit_bits(raw, out: np.ndarray | None = None):
    """The top 53 bits of draws, as integers: the numerator of :func:`_to_unit`."""
    return np.right_shift(raw, _SHIFT_U01, out=out)


def unit_threshold(p: float) -> np.uint64:
    """Integer ``t`` with ``unit_bits(raw) < t`` exactly when ``_to_unit(raw) < p``.

    ``_to_unit(raw)`` is ``k * 2**-53`` for the integer ``k = unit_bits(raw)``,
    and ``k * 2**-53 < p`` holds iff ``k < ceil(p * 2**53)``.  Scaling by a
    power of two is exact in float64, so the threshold is exact too; it
    lies in 0..2**53 for p in [0, 1], which a uint64 holds even at p = 1.
    """
    return np.uint64(math.ceil(p * 2.0**_U01_BITS))


def raw_threshold(p: float) -> np.uint64:
    """Integer ``r`` with ``raw < r`` exactly when ``_to_unit(raw) < p``, for p < 1.

    ``raw >> 11 < t`` holds iff ``raw < t * 2**11`` for the integer
    ``t = unit_threshold(p)``, so comparing the raw draw saves the shift.
    ``t * 2**11`` fits a uint64 only while ``t < 2**53``, i.e. p < 1.
    """
    t = int(unit_threshold(p))
    if t >= 1 << _U01_BITS:
        raise ValueError(f"a raw threshold needs p < 1, got {p}")
    return np.uint64(t << (64 - _U01_BITS))


def _to_unit(raw: np.ndarray) -> np.ndarray:
    return unit_bits(raw).astype(np.float64) * _U01_SCALE


def uniform_block(state: int, start: int, count: int) -> np.ndarray:
    """float64 draws in [0, 1) at the given stream positions."""
    return _to_unit(raw_block(state, start, count))


def stream_states(master_seed: int, stream_ids: np.ndarray) -> np.ndarray:
    """:func:`stream_state` of every id in ``stream_ids``, as a uint64 array."""
    z = np.uint64(mix64(master_seed & MASK64)) ^ np.asarray(stream_ids, dtype=np.uint64)
    return finalize(z + _U64_GAMMA)


def skip(states: np.ndarray, steps) -> np.ndarray:
    """States of the same streams started ``steps`` positions later, elementwise.

    Position i of ``skip(s, k)`` is position k + i of ``s``.
    """
    return states + np.asarray(steps, dtype=np.uint64) * _U64_GAMMA


def raw_at(states: np.ndarray, positions) -> np.ndarray:
    """uint64 draw of stream ``states[i]`` at position ``positions[i]``, elementwise (broadcasting)."""
    z = states + position_offsets(positions)
    # in place: six fewer temporaries of a size that batched callers make large
    return finalize(z, out=z, scratch=np.empty_like(z))


def uniforms_at(states: np.ndarray, positions) -> np.ndarray:
    """float64 draw of stream ``states[i]`` at position ``positions[i]``, elementwise.

    Lets many streams advance by different amounts in lockstep: the
    value equals what an :class:`RngStream` with that state returns when
    its cursor stands at that position.
    """
    return _to_unit(raw_at(states, positions))


@dataclass
class RngStream:
    """One independent draw sequence, identified by (master_seed, stream_id).

    The cursor advances as values are consumed; a freshly built stream
    with the same identifiers always replays the same sequence.  A
    stream is a value type: hand each worker its own instance and the
    outcome cannot depend on scheduling.
    """

    master_seed: int
    stream_id: int
    _cursor: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._state = stream_state(self.master_seed, self.stream_id)

    @property
    def state(self) -> int:
        return self._state

    def uniforms(self, count: int) -> np.ndarray:
        """Next ``count`` float64 values in [0, 1)."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        out = uniform_block(self._state, self._cursor, count)
        self._cursor += count
        return out

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])
