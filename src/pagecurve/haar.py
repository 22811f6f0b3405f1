"""Deterministic, seedable sampling of Haar-random unitaries and row frames.

Randomness comes from numpy's counter-based Philox generator (algorithm
identifier "philox4x64"), keyed by the pair (master_seed, stream_index).
Identical keys reproduce identical byte streams on any machine and for any
worker layout; distinct stream indices give statistically independent streams.

Every draw below takes an iterable of generators, one per sample, and returns
a stack with a leading sample axis: each sample reads only its own stream,
in the order its docstring gives, and is evaluated elementwise or by one
stacked LAPACK call (numpy runs the same routine on each matrix of the
stack), so a sample's value does not depend on the stack it is drawn in.
The Monte Carlo draws many substreams in a row from `_rekeyed_generator`,
which re-keys one Philox to each (master_seed, stream_index) in place of
building a new one: the re-keyed stream is the one
`SeededStream.generator()` gives, so no stream changes.

* `_ginibre_block(n, m)` is the raw n x m complex Ginibre block Z, and
  `_haar_frame(n, m)` orthonormalizes the same Z, with Mezzadri's phase fix,
  which gives the first m columns of a Haar unitary at O(n m^2).  Since U^T
  is Haar whenever U is, the frame's transpose is an m x n block of
  orthonormal rows with the law of the first m rows of U.  Z = V T with V
  the frame and T upper triangular, so Z's first k columns span V's first k
  columns for every k <= m: a quantity of the first k rows of U that is a
  ratio of Gram determinants, such as S2, can be read off Z without the
  complex QR (`montecarlo._renyi2_from_ginibre`).  `sample_haar_unitary` is
  the frame at m = n.
* `_jacobi_bidiagonal(n, kps)` draws, at O(k') whatever n, what an equally
  squeezed subsystem of k modes needs of U, with k' = min(k, n - k), for
  each k' of kps.  At equal squeezing every entropy of the first k modes
  depends on U only through C = U U^T, a matrix of the circular orthogonal
  ensemble: the k symplectic eigenvalues are sqrt(1 + sinh^2(2s) T_i) for
  the k' squared singular values T_i of the block C[:k, k:], and 1 for the
  other k - k'.  C is the scattering matrix of a time-reversal-symmetric
  chaotic cavity with k and n - k channels, so the T_i are its transmission
  eigenvalues, and their joint law is the real (beta = 1) Jacobi ensemble,
  with density proportional to
  prod_{i<j} |T_i - T_j| prod_i T_i^{(n - 2k' - 1)/2} on [0, 1] (Beenakker,
  Rev. Mod. Phys. 69, 731 (1997)).  The Edelman-Sutton beta-Jacobi matrix
  model (Found. Comput. Math. 8, 259 (2008)) gives a k' x k' upper
  bidiagonal B with independent Beta-distributed angles whose squared
  singular values have the density
  prod |T_i - T_j|^beta prod T_i^{beta(a+1)/2 - 1} (1 - T_i)^{beta(b+1)/2 - 1};
  beta = 1, a = n - 2k' and b = 1 give the law above, with no (1 - T)
  factor.  The draw returns each B's squared diagonal and superdiagonal,
  2k' numbers from 2k' - 1 Beta variates, every B of one sample from one
  `beta` call, in ascending k' and in the order the function's docstring
  gives; with a single k' that call is the one B's alone.  Distinct k' are
  independent draws, each with its exact law: sizes k and n - k share one B.
  S2 = (1/2) log det(I + c B^T B) needs no T_i
  (`montecarlo._renyi2_from_bidiagonal`); `_bidiagonal_transmissions`
  gives them, by a stacked SVD, where S1 needs them.  A tier-1 test checks
  the draw's moments E prod Tr W^l, with W = C[:k, :k] conj(C[:k, :k]),
  against the exact Weingarten engine.

`montecarlo._frame_draw` picks the Jacobi draw for every equal-squeezing
run, the Ginibre block for S2 alone at unequal squeezing, and `_haar_frame`
for S1 at unequal squeezing.
"""

from __future__ import annotations

import itertools

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


def _ginibre_block(n: int, m: int, generators) -> np.ndarray:
    """Stack of n x m complex Ginibre blocks Z, one per generator: its n m
    real parts, then its n m imaginary parts, each a standard normal, over
    sqrt 2.

    The first k columns of Z span the first k columns of the Haar frame
    `_haar_frame` orthonormalizes from the same stream, for every k <= m.
    """
    z = np.array([generator.standard_normal((2, n, m)) for generator in generators])
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)


def _haar_frame(n: int, m: int, generators) -> np.ndarray:
    """Stack of n x m matrices, one per generator, whose orthonormal columns
    are the first m columns of a Haar U.

    One stacked QR orthonormalizes each `_ginibre_block`, and each column of
    LAPACK's Q is rescaled by the unit phase of the matching diagonal entry
    of R (Mezzadri, Notices AMS 54, 2007); without that fix LAPACK's sign
    convention would bias the distribution.  The cost is O(n m^2) per block;
    at m = n this is the full unitary.
    """
    q, r = np.linalg.qr(_ginibre_block(n, m, generators))
    d = np.diagonal(r, axis1=1, axis2=2).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[:, None, :]


def _jacobi_bidiagonal(n: int, kps, generators) -> np.ndarray:
    """Stack, one (2, sum(kps)) entry per generator, of the squared diagonal
    (row 0) and squared superdiagonal (row 1) of one kp x kp upper
    bidiagonal B per kp of kps, end to end in the order of kps, each with
    last superdiagonal entry 0.  The squared singular values of the kp x kp
    B are the kp = min(k, n - k) transmission eigenvalues T_i of k of n Haar
    modes.

    kps is a tuple of distinct sizes in ascending order, each with
    0 < 2 kp <= n.  Each B is the Edelman-Sutton beta = 1 Jacobi model with
    a = n - 2 kp and b = 1 (see the module docstring).  Each generator makes
    one `beta` call, whose variates are, for each kp of kps in turn, the
    2 kp - 1 of that B in this order: c_i^2 ~ Beta((a + i)/2, (b + i)/2) for
    i = 1..kp, then c'_i^2 ~ Beta(i/2, (a + b + 1 + i)/2) for i = 1..kp-1.
    With s^2 = 1 - c^2, B's squared diagonal is
    (c_kp^2, c_{kp-1}^2 s'_{kp-1}^2, ..., c_1^2 s'_1^2) and its squared
    superdiagonal (s_kp^2 c'_{kp-1}^2, ..., s_2^2 c'_1^2); the signs of B's
    entries change none of its singular values.  The cost is O(sum(kps)) per
    generator, whatever n.
    """
    alpha, beta = [np.empty(0)], [np.empty(0)]
    for kp in kps:
        i = np.arange(1, kp + 1)
        a, b = n - 2 * kp, 1
        alpha += [(a + i) / 2, i[:-1] / 2]
        beta += [(b + i) / 2, (a + b + 1 + i[:-1]) / 2]
    alpha, beta = np.concatenate(alpha), np.concatenate(beta)
    x = np.array([generator.beta(alpha, beta) for generator in generators])
    b2 = np.zeros((len(x), 2, sum(kps)))
    start = 0
    for kp, end in zip(kps, itertools.accumulate(kps)):
        c2 = x[:, start : start + kp][:, ::-1]  # c_kp^2, ..., c_1^2
        cp2 = x[:, start + kp : start + 2 * kp - 1][:, ::-1]  # c'_{kp-1}^2, ..., c'_1^2
        b2[:, 0, end - kp : end] = c2
        b2[:, 0, end - kp + 1 : end] *= 1.0 - cp2
        b2[:, 1, end - kp : end - 1] = (1.0 - c2[:, :-1]) * cp2
        start += 2 * kp - 1
    return b2


def _bidiagonal_transmissions(b2) -> np.ndarray:
    """The T_i of each `_jacobi_bidiagonal` sample: the squared singular
    values of its dense kp x kp B, from one stacked SVD."""
    kp = b2.shape[2]
    i = np.arange(kp)
    b = np.zeros((len(b2), kp, kp))
    b[:, i, i] = np.sqrt(b2[:, 0])
    b[:, i[:-1], i[1:]] = np.sqrt(b2[:, 1, :-1])
    return np.linalg.svd(b, compute_uv=False) ** 2


def sample_haar_unitary(n: int, stream: SeededStream) -> PassiveUnitary:
    """Draw an exactly Haar-distributed n x n unitary: `_haar_frame` at m = n."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    return PassiveUnitary(_haar_frame(n, n, [stream.generator()])[0])
