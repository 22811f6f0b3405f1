import numpy as np
import pytest

from pagecurve import montecarlo
from pagecurve.haar import SeededStream, _haar_frame


@pytest.fixture
def haar_matrix():
    """Full n x n Haar matrix (the frame at m = n) keyed by (seed, index)."""

    def make(n, seed=0, index=0):
        return _haar_frame(n, n, [SeededStream(seed, index).generator()])[0]

    return make


@pytest.fixture
def no_sampling(monkeypatch):
    """Fail the test if any Monte Carlo sample is drawn."""

    def refuse(*args, **kwargs):
        raise AssertionError("sampled before validating every ladder point")

    monkeypatch.setattr(montecarlo, "sample_entropies", refuse)
    monkeypatch.setattr(montecarlo, "_map_samples", refuse)


def dense_reduced_covariance(u, s_values, k):
    """Independent oracle: full eta conjugation and explicit index slicing."""
    n = u.shape[0]
    z = np.exp(2.0 * np.asarray(s_values, dtype=float))
    sigma0 = np.diag(np.concatenate([z, 1.0 / z]))
    eta = np.block([[u.real, u.imag], [-u.imag, u.real]])
    full = eta @ sigma0 @ eta.T
    idx = list(range(k)) + list(range(n, n + k))
    return full[np.ix_(idx, idx)]


def equal_squeezing_coupling(u, k):
    """Compressed 2k x 2k coupling matrix M of an equally squeezed state.

    The reduced covariance at equal squeezing s is cosh(2s) I + sinh(2s) M.
    M is built from the real and imaginary parts of the projected conj(U U^T)
    of the PassiveUnitary u; its odd-power traces vanish and
    Tr M^{2j} = 2 Tr Re(W^j).
    """
    cbar = (u.matrix @ u.matrix.T).conj()[:k, :k]
    re, im = cbar.real, cbar.imag
    return np.block([[re, im], [im, -re]])
