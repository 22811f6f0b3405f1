"""Deterministic, seedable sampling of Haar-random unitaries and row frames.

Randomness comes from numpy's counter-based Philox generator (algorithm
identifier "philox4x64"), keyed by the pair (master_seed, stream_index).
Identical keys reproduce identical byte streams on any machine and for any
worker layout; distinct stream indices give statistically independent streams.

Both draws below take an iterable of generators, one per sample, and return
a stack with a leading sample axis: each sample reads only its own stream,
in the order its docstring gives, and one stacked LAPACK call (numpy runs
the same routine on each matrix of the stack) factors every sample, so a
sample's value does not depend on the stack it is drawn in.  The Monte
Carlo draws many substreams in a row from `_rekeyed_generator`, which
re-keys one Philox to each (master_seed, stream_index) in place of building
a new one: the re-keyed stream is the one `SeededStream.generator()` gives,
so no stream changes.

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
every requested size 0 < k < n has the same k', and `_haar_frame` otherwise.
"""

from __future__ import annotations

import numpy as np

from .analytic import Record
from .errors import InputError
from .gaussian import PassiveUnitary
from .provenance import RNG_ALGORITHM

__all__ = ["RNG_ALGORITHM", "SeededStream", "derive_substream", "sample_haar_unitary"]

_U64 = 2**64


class SeededStream(Record):
    """Value-like handle for one reproducible random stream (master_seed, stream_index)."""

    def __init__(self, master_seed: int, stream_index: int = 0):
        if not (0 <= master_seed < _U64):
            raise InputError(f"master_seed must fit in 64 bits, got {master_seed}")
        if not (0 <= stream_index < _U64):
            raise InputError(f"stream_index must fit in 64 bits, got {stream_index}")
        vars(self).update(master_seed=master_seed, stream_index=stream_index)

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def derive_substream(stream: SeededStream, index: int) -> SeededStream:
    """Substream `index` of a stream: stream_index' = stream_index * 2^32 + index (mod 2^64).

    The Monte Carlo keys sample j by substream j of its namespace, and the
    bootstrap by substream 0 of its own.  For a fixed parent stream the
    mapping is injective over indices < 2^32.
    """
    if index < 0:
        raise InputError(f"index must be nonnegative, got {index}")
    mixed = (stream.stream_index * 2**32 + index) % _U64
    return SeededStream(stream.master_seed, mixed)


def _rekeyed_generator():
    """A function stream -> `stream.generator()`'s stream, re-keying one Philox.

    A Philox state is its counter and key plus a buffer of unused output, so
    setting counter 0, key (master_seed, stream_index) and an empty buffer
    restarts exactly the stream that `SeededStream.generator()` builds,
    without the `SeedSequence` of OS entropy that `Philox(key=...)` builds
    and never uses.  Every call returns the same Generator: draw all of one
    stream from it before re-keying it to the next.
    """
    bit_generator = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    generator = np.random.Generator(bit_generator)
    state = bit_generator.state  # counter 0, empty buffer
    key = state["state"]["key"]

    def keyed(stream: SeededStream) -> np.random.Generator:
        key[:] = stream.master_seed, stream.stream_index
        bit_generator.state = state
        return generator

    return keyed


def _haar_frame(n: int, m: int, generators) -> np.ndarray:
    """Stack of n x m matrices, one per generator, whose orthonormal columns
    are the first m columns of a Haar U.

    Each generator gives an n x m block of independent standard complex
    Gaussians (its n m real parts first, then its n m imaginary parts); one
    stacked QR orthonormalizes every block, and each column of LAPACK's Q is
    rescaled by the unit phase of the matching diagonal entry of R (Mezzadri,
    Notices AMS 54, 2007); without that fix LAPACK's sign convention would
    bias the distribution.  The cost is O(n m^2) per block; at m = n this is
    the full unitary.
    """
    z = np.array([generator.standard_normal((2, n, m)) for generator in generators])
    q, r = np.linalg.qr((z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=1, axis2=2).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[:, None, :]


def _jacobi_transmissions(n: int, kp: int, generators) -> np.ndarray:
    """Stack, one row per generator, of the kp transmission eigenvalues T_i of
    kp = min(k, n - k) of n Haar modes.

    Needs 0 < 2 kp <= n.  The T_i are the eigenvalues of W1 (W1 + W2)^-1 for
    independent real Wisharts W1 = B1 B1^T of n - kp and W2 = G2 G2^T of
    kp + 1 degrees of freedom (see the module docstring).  Each generator is
    used in a fixed order: the kp diagonal entries B1_ii = sqrt(chi^2_{n-kp-i})
    for i = 0..kp-1, then the kp(kp - 1)/2 standard normals below the
    diagonal of B1 in row-major order, then the kp x (kp + 1) block G2 in
    row-major order.
    With X = [B1^T; G2^T] = QR, the T_i are the squared singular values of
    the top kp x kp block of Q; one stacked QR and one stacked SVD serve
    every generator.  The cost is O(kp^3) per row, whatever n.
    """
    dof = n - kp - np.arange(kp)
    below = np.tri(kp, kp, -1, dtype=bool)
    blocks = []
    for generator in generators:
        b1 = np.diag(np.sqrt(generator.chisquare(dof)))
        b1[below] = generator.standard_normal(kp * (kp - 1) // 2)
        blocks.append(np.hstack([b1, generator.standard_normal((kp, kp + 1))]))
    q = np.linalg.qr(np.swapaxes(blocks, 1, 2))[0]
    return np.linalg.svd(q[:, :kp], compute_uv=False) ** 2


def sample_haar_unitary(n: int, stream: SeededStream) -> PassiveUnitary:
    """Draw an exactly Haar-distributed n x n unitary: `_haar_frame` at m = n."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    return PassiveUnitary(_haar_frame(n, n, [stream.generator()])[0])
