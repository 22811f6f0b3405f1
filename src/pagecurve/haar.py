"""Deterministic, seedable sampling of Haar-random unitaries and row frames.

Randomness comes from numpy's counter-based Philox generator (algorithm
identifier "philox4x64"), keyed by the pair (master_seed, stream_index).
Identical keys reproduce identical byte streams on any machine and for any
worker layout; distinct stream indices give statistically independent streams.

Two draws share one orthonormalization step, `_orthonormal_columns`: the QR
factor of a complex Gaussian block with Mezzadri's phase fix.

* `_haar_frame(n, m)` orthonormalizes an n x m complex Ginibre block Z, which
  gives the first m columns of a Haar unitary at O(n m^2).  Since U^T is Haar
  whenever U is, its transpose is an m x n block of orthonormal rows with the
  law of the first m rows of U.  `sample_haar_unitary` is the case m = n.
* `_bartlett_frame(n, m)`, for 2m < n, orthonormalizes a 2m x m block Z'
  built from the triangular factor alone, at O(m^3).  Write the real n x 2m
  block G = [Re Z, Im Z] as G = Q_E T.  By Bartlett's decomposition T is upper
  triangular with T_ii^2 ~ chi^2_{n-i}, independent N(0, 1) entries above the
  diagonal (up to the common scale of Z, which the QR ignores), and it is
  independent of Q_E.  Then Z = Q_E Z' with Z' = T[:, :m] + i T[:, m:], so
  the frame of Z is Q_E times the frame of Z'.  Under equal squeezing the
  initial covariance diag(e^{2s} I, e^{-2s} I) commutes with eta(O) for every
  real orthogonal O, so Q_E drops out of the covariance of every k <= m
  modes: the 2m-mode frame of Z' gives the same reduced states, in law and
  for each Z, as the n-mode frame of Z.  Under unequal squeezing Q_E does not
  drop out, and the full draw is needed.

Both always apply the phase fix; neither draw has a switch.
"""

from __future__ import annotations

import functools
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


def _orthonormal_columns(z: np.ndarray) -> np.ndarray:
    """Q of z = QR with every diagonal entry of R made real and positive.

    Rescales each column of LAPACK's Q by the unit phase of the matching
    diagonal entry of R (Mezzadri, Notices AMS 54, 2007); without that fix
    LAPACK's sign convention would bias the distribution, so no draw skips it.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def _haar_frame(n: int, m: int, generator: np.random.Generator) -> np.ndarray:
    """n x m matrix whose orthonormal columns are the first m columns of a Haar U.

    Orthonormalizes an n x m block of independent standard complex Gaussians
    (real parts drawn first, then imaginary parts).  The cost is O(n m^2); at
    m = n this is the full unitary.
    """
    re = generator.standard_normal((n, m))
    z = (re + 1j * generator.standard_normal((n, m))) / np.sqrt(2.0)
    return _orthonormal_columns(z)


@functools.lru_cache(maxsize=None)
def _strict_upper(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major indices above the diagonal of a size x size matrix."""
    return np.triu_indices(size, 1)


def _bartlett_frame(n: int, m: int, generator: np.random.Generator) -> np.ndarray:
    """2m x m frame whose equally squeezed reduced states match `_haar_frame(n, m)`'s.

    Needs 2m < n.  Orthonormalizes Z' = T[:, :m] + i T[:, m:] for the 2m x 2m
    Bartlett factor T of an n x 2m real Gaussian block (see the module
    docstring for why this is exact).  The stream is used in a fixed order:
    first the diagonal, T_ii = sqrt(chi^2_{n-i}) for i = 0..2m-1, then the
    m(2m - 1) standard normals above the diagonal in row-major order.  The
    cost is O(m^3), whatever n.
    """
    t = np.diag(np.sqrt(generator.chisquare(n - np.arange(2 * m))))
    t[_strict_upper(2 * m)] = generator.standard_normal(m * (2 * m - 1))
    return _orthonormal_columns(t[:, :m] + 1j * t[:, m:])


def sample_haar_unitary(n: int, stream: SeededStream) -> PassiveUnitary:
    """Draw an exactly Haar-distributed n x n unitary: `_haar_frame` at m = n."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    return PassiveUnitary(_haar_frame(n, n, stream.generator()))
