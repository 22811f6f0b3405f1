import numpy as np
import pytest

from pagecurve import montecarlo
from pagecurve.haar import SeededStream, _haar_frame


@pytest.fixture
def haar_matrix():
    """Full n x n Haar matrix (the frame at m = n) keyed by (seed, index)."""

    def make(n, seed=0, index=0):
        return _haar_frame(n, n, SeededStream(seed, index).generator())

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
