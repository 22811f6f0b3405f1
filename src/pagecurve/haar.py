"""Deterministic, seedable sampling of Haar-random unitaries and row frames.

Randomness comes from numpy's counter-based Philox generator (algorithm
identifier "philox4x64"), keyed by the pair (master_seed, stream_index).
Identical keys reproduce identical byte streams on any machine and for any
worker layout; distinct stream indices give statistically independent streams.

Two draws read such a stream.

* `_haar_frame(n, m)` orthonormalizes an n x m complex Ginibre block Z, with
  Mezzadri's phase fix, which gives the first m columns of a Haar unitary at
  O(n m^2).  Since U^T is Haar whenever U is, its transpose is an m x n
  block of orthonormal rows with the law of the first m rows of U.
  `sample_haar_unitary` is the case m = n.
* `_jacobi_transmissions(n, k')` draws, at O(k'^3) whatever n, what an
  equally squeezed subsystem of k modes needs of U, with k' = min(k, n - k).
  At equal squeezing every entropy of the first k modes depends on U only
  through C = U U^T, a matrix of the circular orthogonal ensemble: the k
  symplectic eigenvalues are sqrt(1 + sinh^2(2s) T_i) for the k' squared
  singular values T_i of the block C[:k, k:], and 1 for the other k - k'.
  C is the scattering matrix of a time-reversal-symmetric chaotic cavity
  with k and n - k channels, so the T_i are its transmission eigenvalues,
  and their joint law is the real (beta = 1) Jacobi ensemble, with density
  proportional to prod_{i<j} |T_i - T_j| prod_i T_i^{(n - 2k' - 1)/2} on
  [0, 1] (Beenakker, Rev. Mod. Phys. 69, 731 (1997)).  That is the real
  MANOVA law: the eigenvalues of W1 (W1 + W2)^-1 for independent k' x k'
  real Wisharts W1 of n - k' and W2 of k' + 1 degrees of freedom (Edelman &
  Sutton, Found. Comput. Math. 8, 259 (2008)).  W1 comes from its Bartlett
  factor and W2 from a Gaussian block; the function's docstring gives the
  order in which they use the stream.  A tier-1 test checks the draw's
  moments E prod Tr W^l, with W = C[:k, :k] conj(C[:k, :k]), against the
  exact Weingarten engine.

`montecarlo._frame_draw` picks the Jacobi draw for equal squeezing when
every requested size 0 < k < n has the same k', and Haar rows otherwise.
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

    Orthonormalizes an n x m block of independent standard complex Gaussians
    (real parts drawn first, then imaginary parts) by QR, and rescales each
    column of LAPACK's Q by the unit phase of the matching diagonal entry of
    R (Mezzadri, Notices AMS 54, 2007); without that fix LAPACK's sign
    convention would bias the distribution.  The cost is O(n m^2); at m = n
    this is the full unitary.
    """
    re = generator.standard_normal((n, m))
    q, r = np.linalg.qr((re + 1j * generator.standard_normal((n, m))) / np.sqrt(2.0))
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def _jacobi_transmissions(n: int, kp: int, generator: np.random.Generator) -> np.ndarray:
    """The kp transmission eigenvalues T_i of kp = min(k, n - k) of n Haar modes.

    Needs 0 < 2 kp <= n.  The T_i are the eigenvalues of W1 (W1 + W2)^-1 for
    independent real Wisharts W1 = B1 B1^T of n - kp and W2 = G2 G2^T of
    kp + 1 degrees of freedom (see the module docstring).  The stream is used
    in a fixed order: the kp diagonal entries B1_ii = sqrt(chi^2_{n-kp-i})
    for i = 0..kp-1, then the kp(kp - 1)/2 standard normals below the
    diagonal of B1 in row-major order, then the kp x (kp + 1) block G2 in
    row-major order.
    With X = [B1^T; G2^T] = QR, the T_i are the squared singular values of
    the top kp x kp block of Q.  The cost is O(kp^3), whatever n.
    """
    b1 = np.diag(np.sqrt(generator.chisquare(n - kp - np.arange(kp))))
    b1[np.tri(kp, kp, -1, dtype=bool)] = generator.standard_normal(kp * (kp - 1) // 2)
    g2 = generator.standard_normal((kp, kp + 1))
    q = np.linalg.qr(np.hstack([b1, g2]).T)[0]
    return np.linalg.svd(q[:kp], compute_uv=False) ** 2


def sample_haar_unitary(n: int, stream: SeededStream) -> PassiveUnitary:
    """Draw an exactly Haar-distributed n x n unitary: `_haar_frame` at m = n."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    return PassiveUnitary(_haar_frame(n, n, stream.generator()))
