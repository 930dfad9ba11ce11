"""Deterministic counter-based random numbers.

Streams are addressed, not stateful: a 64-bit key plus a counter index maps
to the same output on every run, so fixtures are reproducible without
carrying generator objects around. The core is the splitmix64 finalizer
applied to ``key + (i + 1) * GAMMA``; Gaussian variates come from the
Box-Muller transform on counter pairs. All integer arithmetic is explicit
64-bit wraparound.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer on one 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_key(seed: int, *parts: int) -> int:
    """Fold a seed and integer labels into one stream key.

    Distinct label tuples give statistically independent streams, which lets
    callers address per-purpose substreams (e.g. one per city and week).
    """
    key = mix64(seed)
    for part in parts:
        key = mix64((key + _GAMMA) ^ mix64(part))
    return key


def _outputs(key: int, start: int, n: int) -> np.ndarray:
    """Raw 64-bit outputs for counters ``start .. start+n-1``, vectorized."""
    idx = np.arange(start, start + n, dtype=np.uint64)
    state = np.uint64(key) + (idx + np.uint64(1)) * np.uint64(_GAMMA)
    z = (state ^ (state >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def uniforms(key: int, n: int, start: int = 0) -> np.ndarray:
    """``n`` doubles in [0, 1) from the keyed counter stream."""
    bits = _outputs(key, start, n) >> np.uint64(11)
    return bits.astype(np.float64) * 2.0**-53


def normals(key: int, n: int) -> np.ndarray:
    """``n`` standard normal doubles via Box-Muller on counter pairs."""
    # u1 is shifted into (0, 1] so log() never sees zero.
    u1 = uniforms(key, n) + 2.0**-53
    u2 = uniforms(key, n, start=n)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
