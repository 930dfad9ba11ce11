"""Deterministic counter-based random numbers.

Streams are addressed, not stateful: a 64-bit key plus a counter index maps
to the same output on every run, so fixtures are reproducible without
carrying generator objects around. The core is the splitmix64 finalizer
applied to ``key + (i + 1) * GAMMA``; Gaussian variates come from the
Box-Muller transform on counter pairs. All integer arithmetic is explicit
64-bit wraparound.

The vectorized draws work in place: each applies its elementwise steps to
the array it returns, with one scratch array for the shifted words.
``normals(key, n)`` draws ``_CHUNK`` counter pairs at a time, so beside the
``n`` doubles it returns it holds a few chunks, whatever ``n``.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Counter pairs per step of ``normals``; bounds its scratch.
_CHUNK = 1 << 13


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
    """Raw 64-bit outputs for counters ``start .. start+n-1``, vectorized.

    The mixing runs in place on the returned array, with one scratch array
    for each step's shifted words.
    """
    z = np.arange(start, start + n, dtype=np.uint64)
    z += np.uint64(1)
    z *= np.uint64(_GAMMA)
    z += np.uint64(key)
    shifted = np.empty_like(z)
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        if mix is not None:
            z *= np.uint64(mix)
    return z


def uniforms(key: int, n: int, start: int = 0) -> np.ndarray:
    """``n`` doubles in [0, 1) from the keyed counter stream.

    Each double takes the top 53 bits of its output word, converted in the
    word's own memory.
    """
    bits = _outputs(key, start, n)
    bits >>= np.uint64(11)
    out = bits.view(np.float64)
    np.multiply(bits, 2.0**-53, out=out, casting="unsafe")
    return out


def normals(key: int, n: int) -> np.ndarray:
    """``n`` standard normal doubles via Box-Muller on counter pairs.

    Counters ``0 .. n-1`` give the radii and ``n .. 2n-1`` the angles. They
    are drawn ``_CHUNK`` pairs at a time: each factor is transformed in
    place, and their product is written to the chunk's slice of the result.
    """
    out = np.empty(n)
    for begin in range(0, n, _CHUNK):
        size = min(_CHUNK, n - begin)
        # The radii's uniforms are shifted into (0, 1] so log() never sees
        # zero.
        radius = uniforms(key, size, start=begin)
        radius += 2.0**-53
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle = uniforms(key, size, start=n + begin)
        angle *= 2.0 * np.pi
        np.cos(angle, out=angle)
        np.multiply(radius, angle, out=out[begin:begin + size])
    return out
