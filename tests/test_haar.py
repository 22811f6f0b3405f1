import math

import numpy as np
import pytest
from scipy import stats

from pagecurve import (
    InputError,
    RunConfig,
    SeededStream,
    SqueezingConfig,
    derive_substream,
    sample_entropies,
    sample_haar_unitary,
)
from pagecurve.gaussian import (
    _initial_diagonal,
    _renyi2_values,
    _squeezed_row_factor,
    _symplectic_spectrum,
)
from pagecurve.haar import RNG_ALGORITHM, _bartlett_frame, _haar_frame, _orthonormal_columns
from pagecurve.montecarlo import _entropies_for_sample


def test_rng_algorithm_identifier():
    assert RNG_ALGORITHM == "philox4x64"


def test_unitarity():
    u = sample_haar_unitary(7, SeededStream(123, 4))
    defect = np.abs(u.matrix.conj().T @ u.matrix - np.eye(7)).max()
    assert defect <= 1e-12


def test_bit_identical_reproduction():
    a = sample_haar_unitary(6, SeededStream(2024, 17))
    b = sample_haar_unitary(6, SeededStream(2024, 17))
    assert np.array_equal(a.matrix, b.matrix)


def test_streams_differ():
    a = sample_haar_unitary(4, SeededStream(7, 0))
    b = sample_haar_unitary(4, SeededStream(7, 1))
    assert not np.allclose(a.matrix, b.matrix)


def test_substream_derivation():
    base = SeededStream(7, 0)
    w0 = derive_substream(base, 0)
    w1 = derive_substream(base, 1)
    assert w0 != w1
    assert derive_substream(base, 1) == w1  # deterministic
    # documented mixing: index' = index * 2^32 + worker
    assert derive_substream(SeededStream(3, 5), 9).stream_index == 5 * 2**32 + 9
    with pytest.raises(InputError):
        derive_substream(base, -1)


def test_seed_validation():
    with pytest.raises(InputError):
        SeededStream(-1, 0)
    with pytest.raises(InputError):
        SeededStream(0, 2**64)


def test_first_moment():
    # E |U_11|^2 = 1/n for Haar sampling
    n, samples = 4, 10_000
    vals = np.empty(samples)
    for j in range(samples):
        u = _haar_frame(n, n, SeededStream(11, j).generator())
        vals[j] = abs(u[0, 0]) ** 2
    stderr = vals.std(ddof=1) / math.sqrt(samples)
    assert abs(vals.mean() - 1.0 / n) <= 3 * stderr


def test_left_invariance_proxy():
    # Tr(VU) and Tr(U) must be identically distributed for fixed V
    n, samples = 4, 10_000
    rng = np.random.default_rng(5)
    v = _haar_frame(n, n, SeededStream(99, 0).generator())
    plain = np.empty(samples)
    rotated = np.empty(samples)
    for j in range(samples):
        u = _haar_frame(n, n, SeededStream(21, j).generator())
        plain[j] = np.trace(u).real
        u2 = _haar_frame(n, n, SeededStream(22, j).generator())
        rotated[j] = np.trace(v @ u2).real
    assert stats.ks_2samp(plain, rotated).pvalue > 0.01
    del rng


def test_phase_fix_necessity():
    # without the diagonal phase correction the mean of U_11 is biased
    n, samples = 2, 10_000
    fixed = np.empty(samples, dtype=complex)
    unfixed = np.empty(samples, dtype=complex)
    for j in range(samples):
        fixed[j] = sample_haar_unitary(n, SeededStream(31, j)).matrix[0, 0]
        unfixed[j] = full_draw_reference(n, SeededStream(31, j), phase_fix=False)[0, 0]
    se_fixed = fixed.real.std(ddof=1) / math.sqrt(samples)
    se_unfixed = unfixed.real.std(ddof=1) / math.sqrt(samples)
    assert abs(fixed.real.mean()) <= 3 * se_fixed
    assert abs(unfixed.real.mean()) > 3 * se_unfixed


def test_pooled_substreams_match_single_stream():
    # |U_11|^2 pooled over ten worker substreams vs one plain stream;
    # each worker draws sequentially from its own substream generator
    n, per_stream = 4, 100
    base = SeededStream(77, 0)
    pooled = []
    for worker in range(10):
        gen = derive_substream(base, worker).generator()
        for _ in range(per_stream):
            pooled.append(abs(_haar_frame(n, n, gen)[0, 0]) ** 2)
    single_gen = SeededStream(78, 0).generator()
    single = [
        abs(_haar_frame(n, n, single_gen)[0, 0]) ** 2 for _ in range(10 * per_stream)
    ]
    assert stats.ks_2samp(np.array(pooled), np.array(single)).pvalue > 0.01


def full_draw_reference(n, stream, phase_fix=True):
    """The n x n draw as written before the frame helper: Ginibre, QR, phase fix."""
    generator = stream.generator()
    re = generator.standard_normal((n, n))
    im = generator.standard_normal((n, n))
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2.0))
    if phase_fix:
        d = np.diagonal(r).copy()
        d[d == 0] = 1.0
        q = q * (d / np.abs(d))
    return q


@pytest.mark.parametrize("n,m", [(1, 1), (8, 3), (50, 7), (400, 20), (12, 12)])
def test_frame_rows_orthonormal(n, m):
    v = _haar_frame(n, m, SeededStream(13, n).generator()).T
    assert v.shape == (m, n)
    assert np.abs(v @ v.conj().T - np.eye(m)).max() <= 1e-12


@pytest.mark.parametrize("n,seed,index", [(1, 0, 0), (4, 7, 3), (9, 2024, 17), (30, 5, 2**40)])
def test_unitary_draw_unchanged(n, seed, index):
    # the m = n frame consumes the same normals in the same order as the
    # former full draw, so public unitaries are bit-identical
    stream = SeededStream(seed, index)
    drawn = sample_haar_unitary(n, stream).matrix
    assert np.array_equal(drawn, full_draw_reference(n, stream))


def test_frame_entry_moments():
    # each entry of a Haar row frame has |V_ij|^2 ~ Beta(1, n - 1):
    # E |V_ij|^2 = 1/n and E |V_ij|^4 = 2 / (n (n + 1))
    n, m, samples = 8, 3, 20_000
    base = SeededStream(41, 0)
    sq = np.empty((samples, m, n))
    for j in range(samples):
        sq[j] = np.abs(_haar_frame(n, m, derive_substream(base, j).generator()).T) ** 2
    fourth = sq**2
    checks = [
        (sq[:, 0, 0], 1.0 / n),
        (sq[:, m - 1, n - 1], 1.0 / n),
        (fourth[:, 0, 0], 2.0 / (n * (n + 1))),
        (fourth[:, m - 1, n - 1], 2.0 / (n * (n + 1))),
        (fourth.mean(axis=(1, 2)), 2.0 / (n * (n + 1))),
    ]
    for values, expected in checks:
        stderr = values.std(ddof=1) / math.sqrt(samples)
        assert abs(values.mean() - expected) <= 3 * stderr


def test_frame_entropies_match_full_unitaries():
    # per-sample S2 of k = 10 of n = 100 modes: the sampler's draws (the
    # 20-mode Bartlett frame at equal squeezing) against the first 10 rows of
    # full Haar unitaries
    n, k, samples = 100, 10, 500
    squeezing = SqueezingConfig.equal(n, 0.75)
    framed, _ = sample_entropies(
        RunConfig(n=n, squeezing=squeezing, subsystem_sizes=(k,), samples=samples, master_seed=51)
    )
    scale = np.sqrt(_initial_diagonal(squeezing.values))
    rows = [_haar_frame(n, n, SeededStream(52, j).generator()).T for j in range(samples)]
    full = np.array([_entropies_for_sample(u, n, scale, (k,), False)[0, 0] for u in rows])
    assert stats.ks_2samp(framed[:, 0], full).pvalue > 0.01


def equal_squeezed_factor(frame, s, m):
    """Triangular factor of the first m modes of an equally squeezed frame."""
    v = frame.T
    return _squeezed_row_factor(v, np.sqrt(_initial_diagonal([s] * v.shape[1])), m)


@pytest.mark.parametrize("n,m", [(40, 5), (50, 12), (24, 11), (100, 10), (400, 20)])
@pytest.mark.parametrize("s", [0.75, 3.0, 6.0])
def test_bartlett_block_gives_the_same_reduced_states(n, m, s):
    # Z = Q_E Z' with Z' = T[:, :m] + i T[:, m:] from G = [Re Z, Im Z] = Q_E T:
    # at equal squeezing the 2m-mode frame of Z' gives, for this very Z, the
    # covariance of every k <= m modes that the n-mode frame of Z gives
    generator = SeededStream(61, n + m).generator()
    z = generator.standard_normal((n, m)) + 1j * generator.standard_normal((n, m))
    _, t = np.linalg.qr(np.hstack([z.real, z.imag]))
    full = equal_squeezed_factor(_orthonormal_columns(z), s, m)
    reduced = equal_squeezed_factor(_orthonormal_columns(t[:, :m] + 1j * t[:, m:]), s, m)
    s2_full, s2_reduced = _renyi2_values(full), _renyi2_values(reduced)
    assert np.all(np.abs(s2_reduced - s2_full) <= 1e-12 * s2_full)
    for k in range(1, m + 1):
        nu_full = _symplectic_spectrum(full[: 2 * k, : 2 * k])
        nu_reduced = _symplectic_spectrum(reduced[: 2 * k, : 2 * k])
        assert np.all(np.abs(nu_reduced - nu_full) <= 1e-12 * nu_full)


@pytest.mark.parametrize("n,m", [(3, 1), (9, 4), (400, 20)])
def test_bartlett_frame_stream_order(n, m):
    # the documented use of the stream: the 2m chi-square diagonal entries
    # first, then the normals above the diagonal in row-major order
    frame = _bartlett_frame(n, m, SeededStream(14, n).generator())
    generator = SeededStream(14, n).generator()
    t = np.zeros((2 * m, 2 * m))
    diagonal = np.sqrt(generator.chisquare(n - np.arange(2 * m)))
    upper = iter(generator.standard_normal(m * (2 * m - 1)))
    for i in range(2 * m):
        t[i, i] = diagonal[i]
        for j in range(i + 1, 2 * m):
            t[i, j] = next(upper)
    assert frame.shape == (2 * m, m)
    assert np.array_equal(frame, _orthonormal_columns(t[:, :m] + 1j * t[:, m:]))
    assert np.abs(frame.conj().T @ frame - np.eye(m)).max() <= 1e-12
