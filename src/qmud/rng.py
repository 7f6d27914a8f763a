"""Deterministic random streams.

Simulation results must be bit-reproducible across platforms and library
versions, so the package carries its own generator instead of relying on
numpy's (whose method streams may change between releases).  The core is
SplitMix64: state advances by the 64-bit golden-ratio constant and each
output is the standard finalizer of the new state.

Draw contracts, fixed forever:

* ``uniform()`` is ``(next_u64() >> 11) * 2**-53`` — one 64-bit output per
  call, value in [0, 1).
* ``normal()`` uses the Marsaglia polar transform: draw ``u, v`` uniform on
  (-1, 1) (two ``uniform()`` calls per attempt) until ``0 < u**2 + v**2 < 1``,
  then return ``u * f`` and cache ``v * f`` with ``f = sqrt(-2 ln s / s)``.
  A cached spare is returned by the next call without consuming draws.
* ``derive_seed(master, index)`` is the ``(index + 1)``-th raw output of the
  SplitMix64 stream seeded with ``master``; used to give every Monte Carlo
  trial (and nothing else) its own independent stream.

SplitMix64 is counter-based: the n-th output of the stream seeded with
``s`` is ``mix64(s + n * gamma)``.  ``TrialStreams`` uses this to advance
the streams of many trials at once in numpy ``uint64`` arrays, one draw
counter per trial, and gives every trial exactly the values its own
``SplitMix64`` would.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 output finalizer (Stafford variant 13)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Seed for the ``index``-th derived stream of ``master_seed``."""
    if index < 0:
        raise ValueError("index must be non-negative")
    return mix64((master_seed + _GAMMA * (index + 1)) & _MASK64)


class SplitMix64:
    """Tiny deterministic RNG; one instance per trial, never shared."""

    __slots__ = ("_state", "_spare")

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def normal(self) -> float:
        """Standard normal via the Marsaglia polar method."""
        if self._spare is not None:
            z, self._spare = self._spare, None
            return z
        while True:
            u = 2.0 * self.uniform() - 1.0
            v = 2.0 * self.uniform() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                f = math.sqrt(-2.0 * math.log(s) / s)
                self._spare = v * f
                return u * f


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 over a uint64 array; numpy wraps array products modulo 2**64 without a warning."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class TrialStreams:
    """The streams of trials ``t0 .. t0 + count - 1``, advanced in lockstep.

    Row i holds the stream ``SplitMix64(derive_seed(master_seed, t0 + i))``
    and the number of draws taken from it, so each row may advance by its
    own amount and still yields exactly that stream's values.
    """

    def __init__(self, master_seed: int, t0: int, count: int):
        if t0 < 0:
            raise ValueError("index must be non-negative")
        index = np.arange(t0 + 1, t0 + count + 1, dtype=np.uint64)
        start = np.uint64(master_seed & _MASK64) + index * np.uint64(_GAMMA)
        self._seeds = _mix64_array(start)
        self.draws = np.zeros(count, dtype=np.uint64)

    def uniforms(self, n: int, rows=None) -> np.ndarray:
        """The next ``n`` ``uniform()`` values of each stream in ``rows``.

        ``rows`` is an index array (every stream by default); the result
        has shape ``(len(rows), n)``, in draw order along the second axis.
        """
        rows = slice(None) if rows is None else rows
        taken = self.draws[rows]
        counters = taken[:, None] + np.arange(1, n + 1, dtype=np.uint64)
        state = self._seeds[rows][:, None] + counters * np.uint64(_GAMMA)
        self.draws[rows] = taken + np.uint64(n)
        return (_mix64_array(state) >> np.uint64(11)) * 1.1102230246251565e-16  # 2**-53

    def normals(self, n: int) -> np.ndarray:
        """``n`` successive ``normal()`` values per stream, shape ``(count, n)``.

        Each stream starts with no cached spare.  Marsaglia polar pairs are
        drawn in masked rejection rounds: every stream that still needs a
        pair draws one candidate per round.  For odd ``n`` the last pair's
        second value is dropped, the spare a trial never asks for.
        """
        pairs = (n + 1) // 2
        out = np.empty((self.draws.size, 2 * pairs))
        done = np.zeros(self.draws.size, dtype=np.intp)
        rows = np.arange(self.draws.size)
        while rows.size:
            uv = 2.0 * self.uniforms(2, rows) - 1.0
            u, v = uv[:, 0], uv[:, 1]
            s = u * u + v * v
            ok = (0.0 < s) & (s < 1.0)
            s = s[ok]
            # math.log, not np.log: the two differ in the last bit for some s.
            log_s = np.fromiter(map(math.log, s.tolist()), dtype=float, count=s.size)
            f = np.sqrt(-2.0 * log_s / s)
            hit = rows[ok]
            col = 2 * done[hit]
            out[hit, col] = u[ok] * f
            out[hit, col + 1] = v[ok] * f
            done[hit] += 1
            rows = rows[done[rows] < pairs]
        return out[:, :n]
