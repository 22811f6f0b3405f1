"""Gaussian covariance-matrix simulation of squeezed modes under linear optics.

Conventions (fixed everywhere in this package):

* quadrature ordering is (x_1..x_n, p_1..p_n), so the symplectic form is
  Omega = [[0, I], [-I, 0]];
* an initially squeezed product state has covariance diag(e^{2s_i}) (+)
  diag(e^{-2s_i});
* an interferometer U in U(n) acts by conjugation with the orthogonal
  symplectic eta(U) = [[Re U, Im U], [-Im U, Re U]];
* the reduced state on the first k modes keeps rows/columns {1..k} and
  {n+1..n+k}.

Entropies: S2 = (1/2) log det sigma, S1 = sum h1(nu_i) over the symplectic
spectrum, with h1(x) = ((x+1)/2) log((x+1)/2) - ((x-1)/2) log((x-1)/2).

Both come from an upper-triangular factor R with sigma = R^T R whose rows and
columns run in the interleaved order x_1, p_1, x_2, p_2, ...  Its leading
2k x 2k block R_k factors the covariance of the first k modes the same way,
so S2 of the first k modes is the sum of log|R_ii| over i < 2k, and their
nu_i are the k positive eigenvalues of the Hermitian matrix i R_k Omega R_k^T
(Williamson's theorem; Serafini, Quantum Continuous Variables, ch. 3).  The
Monte Carlo gets R, for every subsystem size at once, from one QR
factorization of the squeezed rows of eta(U) (`_row_columns`), or takes S2
at unequal squeezing from the diagonals of two such factors of a Ginibre
block's rows (`montecarlo._renyi2_from_ginibre`); the public functions get R
from a Cholesky factorization of the given covariance.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .analytic import Record, SqueezingConfig, log_cosh
from .errors import CapacityError, InputError, NumericalError

__all__ = [
    "SqueezingConfig",
    "CovarianceMatrix",
    "PassiveUnitary",
    "SymplecticSpectrum",
    "build_initial_covariance",
    "evolve",
    "reduce_subsystem",
    "reduce_modes",
    "symplectic_eigenvalues",
    "renyi2_entropy",
    "von_neumann_entropy",
    "max_subsystem_entropy",
    "build_max_entangling_unitary",
    "trace_W_powers",
    "h1",
]

SYMMETRY_RTOL = 1e-12
UNITARITY_TOL = 1e-12
PURITY_CLAMP = 1e-9       # nu in [1 - PURITY_CLAMP, 1) clamps to 1


class CovarianceMatrix:
    """Real symmetric 2m x 2m second-moment matrix in (x..x, p..p) ordering."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        mat = np.array(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
            raise InputError(f"covariance matrix must be square of even size, got {mat.shape}")
        scale = max(1.0, float(np.abs(mat).max()))
        asym = float(np.abs(mat - mat.T).max())
        if asym > SYMMETRY_RTOL * scale:
            raise InputError(f"matrix not symmetric: relative asymmetry {asym / scale:.3e}")
        mat = (mat + mat.T) / 2.0
        mat.setflags(write=False)
        self.matrix = mat

    @property
    def dim_modes(self) -> int:
        return self.matrix.shape[0] // 2

    def __repr__(self):
        return f"CovarianceMatrix(modes={self.dim_modes})"


class PassiveUnitary:
    """n x n unitary matrix of a linear-optical interferometer."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        mat = np.array(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InputError(f"unitary must be square, got {mat.shape}")
        defect = float(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max())
        if defect > UNITARITY_TOL:
            raise InputError(f"matrix not unitary: max |U^dag U - I| = {defect:.3e}")
        mat.setflags(write=False)
        self.matrix = mat

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"PassiveUnitary(dim={self.dim})"


class SymplecticSpectrum(Record):
    """Symplectic eigenvalues nu_i >= 1 of a subsystem: field `values`, sorted descending."""

    def __init__(self, values):
        vals = tuple(sorted((float(v) for v in values), reverse=True))
        if vals and vals[-1] < 1.0:
            raise InputError(f"symplectic eigenvalues must be >= 1, got {vals[-1]}")
        vars(self).update(values=vals)


_MAX_SQUEEZE = math.log(sys.float_info.max) / 2  # ~354.89; e^{2|s|} is finite up to it


def _initial_diagonal(values) -> np.ndarray:
    """diag(e^{2s_i}) (+) diag(e^{-2s_i}); CapacityError if some |s_i| > _MAX_SQUEEZE.

    Beyond the bound e^{2|s_i|} overflows to inf, and every entropy of the
    covariance route would come out nan, so the check runs before any draw.
    """
    worst = max(map(abs, values), default=0.0)
    if worst > _MAX_SQUEEZE:
        raise CapacityError(
            f"squeezing |s_i| = {worst} exceeds log(DBL_MAX)/2 = {_MAX_SQUEEZE:.6f}, "
            "beyond which e^(2|s_i|) overflows a double"
        )
    z = np.exp(2.0 * np.asarray(values, dtype=float))
    return np.concatenate([z, 1.0 / z])


def build_initial_covariance(config: SqueezingConfig) -> CovarianceMatrix:
    """Product squeezed-vacuum covariance diag(e^{2s_i}) (+) diag(e^{-2s_i}).

    Raises CapacityError if some |s_i| exceeds log(DBL_MAX)/2 ~ 354.89.
    """
    return CovarianceMatrix(np.diag(_initial_diagonal(config.values)))


def _eta(u: np.ndarray) -> np.ndarray:
    return np.block([[u.real, u.imag], [-u.imag, u.real]])


def evolve(sigma0: CovarianceMatrix, u: PassiveUnitary) -> CovarianceMatrix:
    """Conjugate the covariance by the symplectic orthogonal image of u.

    The covariance is rounded to doubles, so entropies computed from it
    carry errors of about eps * e^{4 max|s_i|}; tested to |s_i| <= 3.  The
    Monte Carlo sampler never forms this matrix.
    """
    if sigma0.dim_modes != u.dim:
        raise InputError(f"mode mismatch: state has {sigma0.dim_modes}, unitary {u.dim}")
    eta = _eta(u.matrix)
    return CovarianceMatrix(eta @ sigma0.matrix @ eta.T)


def reduce_subsystem(sigma: CovarianceMatrix, k: int) -> CovarianceMatrix:
    """Covariance of the first k modes: rows/columns {1..k} and {n+1..n+k}.

    Exact selection; an input from `evolve` keeps its accuracy of about
    eps * e^{4 max|s_i|} (tested to |s_i| <= 3).
    """
    n = sigma.dim_modes
    if not (1 <= k <= n):
        raise InputError(f"need 1 <= k <= {n}, got k={k}")
    if k == n:
        return sigma
    return reduce_modes(sigma, range(k))


def reduce_modes(sigma: CovarianceMatrix, modes) -> CovarianceMatrix:
    """Covariance of an arbitrary mode subset (zero-based, in the given order).

    Exact selection; an input from `evolve` keeps its accuracy of about
    eps * e^{4 max|s_i|} (tested to |s_i| <= 3).
    """
    n = sigma.dim_modes
    modes = list(modes)
    if not modes or len(set(modes)) != len(modes) or any(not 0 <= m < n for m in modes):
        raise InputError(f"modes must be distinct indices in [0, {n}), got {modes}")
    idx = modes + [n + m for m in modes]
    return CovarianceMatrix(sigma.matrix[np.ix_(idx, idx)])


def _cholesky_factor(mat: np.ndarray) -> np.ndarray:
    """Upper-triangular R with mat = R^T R, in interleaved quadrature order."""
    m = mat.shape[0] // 2
    idx = np.arange(2 * m).reshape(2, m).T.ravel()  # x_1, p_1, x_2, p_2, ...
    try:
        return np.linalg.cholesky(mat[np.ix_(idx, idx)]).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance not positive definite: {exc}") from exc


def _log_diagonal(r: np.ndarray) -> np.ndarray:
    """log|R_ii| along the last axis, over any leading sample axes."""
    return np.log(np.abs(np.diagonal(r, axis1=-2, axis2=-1)))


def _renyi2_values(log_diagonal: np.ndarray) -> np.ndarray:
    """S2 of the first 1, 2, ... modes of sigma = R^T R (interleaved order),
    from log|R_ii| (`_log_diagonal`).

    Leading sample axes are allowed; the values run along the last axis.
    """
    values = np.cumsum(log_diagonal, axis=-1)[..., 1::2]
    return np.where((values >= -1e-10) & (values < 0.0), 0.0, values)


def _symplectic_spectrum(r: np.ndarray) -> np.ndarray:
    """Symplectic spectrum, descending and unchecked, of sigma = R^T R
    (interleaved order), along the last axis of any leading sample axes.

    i R Omega R^T is Hermitian and similar to i Omega sigma, so its
    eigenvalues are the +-nu_i.
    """
    x, p = r[..., 0::2], r[..., 1::2]
    herm = 1j * (x @ np.swapaxes(p, -1, -2) - p @ np.swapaxes(x, -1, -2))
    return np.linalg.eigvalsh(herm)[..., ::-1][..., : x.shape[-1]]


def _purity_clamp(nus: np.ndarray) -> np.ndarray:
    """Descending nus (last axis) with those in [1 - PURITY_CLAMP, 1) clamped to 1.

    A nu further below the uncertainty bound raises NumericalError; over
    leading sample axes the message names the lowest such nu.
    """
    lowest = nus[..., -1].min()
    if lowest < 1.0 - PURITY_CLAMP:
        raise NumericalError(
            f"symplectic eigenvalue {float(lowest)!r} below the uncertainty bound"
        )
    return np.maximum(nus, 1.0)


def symplectic_eigenvalues(sigma: CovarianceMatrix) -> SymplecticSpectrum:
    """Symplectic spectrum of a covariance matrix, one value per mode.

    For a covariance from `evolve` the values are accurate to about
    eps * e^{4 max|s_i|} (tested to |s_i| <= 3); beyond that a nu can fall
    below 1 - PURITY_CLAMP and raise NumericalError.
    """
    return SymplecticSpectrum(
        tuple(_purity_clamp(_symplectic_spectrum(_cholesky_factor(sigma.matrix))))
    )


def renyi2_entropy(sigma: CovarianceMatrix) -> float:
    """S2 = (1/2) log det sigma via Cholesky factorization.

    For a covariance from `evolve` the value is accurate to about
    eps * e^{4 max|s_i|} (tested to |s_i| <= 3).
    """
    return float(_renyi2_values(_log_diagonal(_cholesky_factor(sigma.matrix)))[-1])


def h1(x: float) -> float:
    """Thermal-mode entropy function, continuously extended by h1(1) = 0.

    h1(x) = up log up - dn log dn with up = (x+1)/2, dn = (x-1)/2.  For x >= 3
    it is evaluated as log dn + up log1p(1/dn), which avoids the cancellation
    of the two large terms; below 3 that form would cancel instead.
    """
    if x <= 1.0:
        return 0.0
    up = (x + 1.0) / 2.0
    dn = (x - 1.0) / 2.0
    if x >= 3.0:
        return math.log(dn) + up * math.log1p(1.0 / dn)
    return up * math.log(up) - dn * math.log(dn)


def von_neumann_entropy(spectrum: SymplecticSpectrum) -> float:
    """S1 = sum h1(nu_i) over the symplectic spectrum."""
    return math.fsum(h1(nu) for nu in spectrum.values)


def max_subsystem_entropy(n: int, k: int, s: float, order: int) -> float:
    """Maximum over interferometers of the subsystem entropy:
    n min(r, 1-r) h_order(cosh 2s)."""
    if not (0 <= k <= n) or n < 1:
        raise InputError(f"need 0 <= k <= n, got k={k}, n={n}")
    if order not in (1, 2):
        raise InputError(f"order must be 1 or 2, got {order}")
    weight = min(k, n - k)
    if weight == 0 or s == 0.0:
        return 0.0
    if order == 2:
        return weight * log_cosh(2.0 * s)
    return weight * h1(math.cosh(2.0 * s))


def build_max_entangling_unitary(n: int, k: int) -> PassiveUnitary:
    """Interferometer achieving the maximal subsystem entropy for 2k <= n.

    The first k rows are (e_{2i} + i e_{2i+1}) / sqrt(2) (0-based); they make
    the projected mode-overlap matrix W vanish, so every subsystem symplectic
    eigenvalue equals cosh(2s).  Rows k + i are (e_{2i} - i e_{2i+1}) / sqrt(2)
    and rows j >= 2k are e_j, which completes the rows to a unitary.
    """
    if k < 0 or n < 1:
        raise InputError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    if 2 * k > n:
        raise InputError(f"construction needs 2k <= n, got k={k}, n={n}")
    rows = np.zeros((n, n), dtype=complex)
    rows[2 * k :, 2 * k :] = np.eye(n - 2 * k)
    pair = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / math.sqrt(2.0)
    for i in range(k):
        rows[[i, k + i], 2 * i : 2 * i + 2] = pair
    return PassiveUnitary(rows)


def trace_W_powers(u: PassiveUnitary, k: int, max_power: int) -> list[float]:
    """[Tr W, Tr W^2, ..., Tr W^max_power] of W = Pi U U^T Pi conj(U U^T) Pi;
    W is positive semidefinite, so all entries are real and nonnegative up to
    rounding."""
    if not (1 <= k <= u.dim):
        raise InputError(f"need 1 <= k <= {u.dim}, got k={k}")
    if max_power < 1:
        raise InputError(f"max_power must be >= 1, got {max_power}")
    ck = (u.matrix @ u.matrix.T)[:k, :k]
    w = ck @ ck.conj()
    out = []
    p = w
    for _ in range(max_power):
        out.append(float(np.trace(p).real))
        p = p @ w
    return out


def _reduced_sigma_from_unitary(frame: np.ndarray, diag: np.ndarray, k: int) -> np.ndarray:
    """Reduced covariances of the first k modes of eta(U) diag eta(U)^T for a
    stack of Haar frames, without forming the full states.

    Each frame is n x m, m >= k, with the first m rows of U as its columns
    (`haar._haar_frame`).  Only the 2k needed rows of each eta(U) are
    materialized, so the cost is O(k n^2) per U instead of O(n^3).
    """
    uk = np.swapaxes(frame[:, :, :k], 1, 2)
    rows = np.block([[uk.real, uk.imag], [-uk.imag, uk.real]])
    return (rows * diag) @ np.swapaxes(rows, 1, 2)


def _row_columns(block: np.ndarray, m: int) -> np.ndarray:
    """F^T for a stack of n x m' blocks (m' >= m): the 2n x 2m real matrix
    whose columns 2i and 2i + 1 are (Re u_i, Im u_i) and (-Im u_i, Re u_i)
    for column u_i of the block, i < m.

    For a Haar frame (`haar._haar_frame`), whose columns are the first m'
    rows of U, F holds the rows of eta(U) for x_1, p_1, ..., x_m, p_m; for a
    Ginibre block (`haar._ginibre_block`) it holds rows spanning the same
    spaces, mode by mode.
    """
    uk = block[:, :, :m]
    x_cols, p_cols = np.concatenate([uk.real, uk.imag], 1), np.concatenate([-uk.imag, uk.real], 1)
    return np.stack([x_cols, p_cols], axis=3).reshape(len(block), -1, 2 * m)


def _squeezed_row_factor(frame: np.ndarray, scale: np.ndarray, m: int) -> np.ndarray:
    """For a stack of Haar frames, the R with R_k^T R_k the reduced covariance
    of the first k <= m modes.

    The rows F of eta(U) for the first m modes (`_row_columns`), scaled
    column-wise by scale = sqrt(diag sigma_0), have F F^T the reduced
    covariance of those modes; R is the triangular factor of F^T = QR, from
    one stacked QR.
    """
    return np.linalg.qr(_row_columns(frame, m) * scale[:, None], mode="r")
