"""Deterministic, seedable sampling of Haar-random unitaries and row frames.

Randomness comes from numpy's counter-based Philox generator (algorithm
identifier "philox4x64"), keyed by the pair (master_seed, stream_index).
Identical keys reproduce identical byte streams on any machine and for any
worker layout; distinct stream indices give statistically independent streams.

One routine, `_haar_frame`, draws both: the QR factor of an n x m complex
Ginibre block with Mezzadri's phase fix has the law of the first m columns of
a Haar unitary.  Since U^T is Haar whenever U is, its transpose is an m x n
block of orthonormal rows with the law of the first m rows of U, which is all
the Monte Carlo sampler needs.  `sample_haar_unitary` is the case m = n.
Both always apply the phase fix; the draw has no switch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .gaussian import PassiveUnitary
from .provenance import RNG_ALGORITHM

__all__ = ["RNG_ALGORITHM", "SeededStream", "derive_substream", "sample_haar_unitary"]

_U64 = 2**64


@dataclass(frozen=True)
class SeededStream:
    """Value-like handle for one reproducible random stream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not (0 <= self.master_seed < _U64):
            raise InputError(f"master_seed must fit in 64 bits, got {self.master_seed}")
        if not (0 <= self.stream_index < _U64):
            raise InputError(f"stream_index must fit in 64 bits, got {self.stream_index}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def derive_substream(stream: SeededStream, worker: int) -> SeededStream:
    """Worker substream via the fixed mixing index' = index * 2^32 + worker (mod 2^64).

    For a fixed parent stream the mapping is injective over workers < 2^32.
    """
    if worker < 0:
        raise InputError(f"worker must be nonnegative, got {worker}")
    mixed = (stream.stream_index * 2**32 + worker) % _U64
    return SeededStream(stream.master_seed, mixed)


def _haar_frame(n: int, m: int, generator: np.random.Generator) -> np.ndarray:
    """n x m matrix whose orthonormal columns are the first m columns of a Haar U.

    QR-orthonormalizes an n x m block of independent standard complex
    Gaussians (real parts drawn first, then imaginary parts) and rescales
    each column by the unit phase of the matching diagonal entry of R
    (Mezzadri, Notices AMS 54, 2007); without that fix LAPACK's sign
    convention would bias the distribution, so the draw has no switch to
    skip it.  The cost is O(n m^2); at m = n this is the full unitary.
    """
    re = generator.standard_normal((n, m))
    z = (re + 1j * generator.standard_normal((n, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def sample_haar_unitary(n: int, stream: SeededStream) -> PassiveUnitary:
    """Draw an exactly Haar-distributed n x n unitary: `_haar_frame` at m = n."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    return PassiveUnitary(_haar_frame(n, n, stream.generator()))
