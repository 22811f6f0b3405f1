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
from pagecurve.gaussian import _initial_diagonal
from pagecurve.haar import (
    RNG_ALGORITHM,
    _bidiagonal_transmissions,
    _haar_frame,
    _jacobi_bidiagonal,
    _rekeyed_generator,
)
from pagecurve.montecarlo import _entropies_for_sample, _entropies_from_bidiagonal
from pagecurve.weingarten import haar_moment_trace_product

# every `powers` with q = 2 * sum(powers) <= 6, the exact engine's cap
TRACE_POWERS = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


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


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_rekeyed_generator_is_the_stream_generator(seed):
    # re-keying one Philox restarts each stream exactly, also after the
    # previous stream left half a 64-bit word and part of its buffer unread
    keyed = _rekeyed_generator()
    draws = (
        lambda g: g.integers(0, 2**31, size=3, dtype=np.int32),  # 32-bit halves
        lambda g: g.standard_normal(5),
        lambda g: g.chisquare(np.arange(1, 4)),
    )
    for index in (0, 2**32 - 1, 2**32 + 1, 2**64 - 1):
        stream = SeededStream(seed, index)
        drawn, expected = keyed(stream), stream.generator()
        for draw in draws:
            assert np.array_equal(draw(drawn), draw(expected))
        drawn.integers(0, 2**31, dtype=np.int32)


def test_seed_validation():
    with pytest.raises(InputError):
        SeededStream(-1, 0)
    with pytest.raises(InputError):
        SeededStream(0, 2**64)


def test_first_moment():
    # E |U_11|^2 = 1/n for Haar sampling
    n, samples = 4, 10_000
    u = _haar_frame(n, n, (SeededStream(11, j).generator() for j in range(samples)))
    vals = np.abs(u[:, 0, 0]) ** 2
    stderr = vals.std(ddof=1) / math.sqrt(samples)
    assert abs(vals.mean() - 1.0 / n) <= 3 * stderr


def test_left_invariance_proxy():
    # Tr(VU) and Tr(U) must be identically distributed for fixed V
    n, samples = 4, 10_000
    rng = np.random.default_rng(5)
    v = _haar_frame(n, n, [SeededStream(99, 0).generator()])[0]
    u = _haar_frame(n, n, (SeededStream(21, j).generator() for j in range(samples)))
    u2 = _haar_frame(n, n, (SeededStream(22, j).generator() for j in range(samples)))
    plain = np.trace(u, axis1=1, axis2=2).real
    rotated = np.trace(v @ u2, axis1=1, axis2=2).real
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
        pooled.extend(np.abs(_haar_frame(n, n, [gen] * per_stream)[:, 0, 0]) ** 2)
    single_gen = SeededStream(78, 0).generator()
    single = np.abs(_haar_frame(n, n, [single_gen] * (10 * per_stream))[:, 0, 0]) ** 2
    assert stats.ks_2samp(np.array(pooled), single).pvalue > 0.01


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
    v = _haar_frame(n, m, [SeededStream(13, n).generator()])[0].T
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
    frames = _haar_frame(n, m, (derive_substream(base, j).generator() for j in range(samples)))
    sq = np.abs(np.swapaxes(frames, 1, 2)) ** 2
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
    # 10 x 10 bidiagonal Jacobi model at equal squeezing) against the first
    # 10 rows of full Haar unitaries
    n, k, samples = 100, 10, 500
    squeezing = SqueezingConfig.equal(n, 0.75)
    framed, _ = sample_entropies(
        RunConfig(n=n, squeezing=squeezing, subsystem_sizes=(k,), samples=samples, master_seed=51)
    )
    scale = np.sqrt(_initial_diagonal(squeezing.values))
    frames = [_haar_frame(n, n, [SeededStream(52, j).generator()]) for j in range(samples)]
    full = np.array([_entropies_for_sample(f, n, scale, (k,), False)[0, 0, 0] for f in frames])
    assert stats.ks_2samp(framed[:, 0], full).pvalue > 0.01


@pytest.mark.parametrize("n,k", [(8, 3), (9, 6), (24, 12), (40, 5), (30, 23)])
@pytest.mark.parametrize("s", [0.75, 3.0, 6.0])
def test_transmissions_give_the_row_frame_entropies(n, k, s):
    # for one Haar U: S2 and S1 from the squared singular values T_i of
    # C[:k, k:], C = U U^T, as the diagonal B = diag(sqrt T_i), equal those
    # of the symplectic route on U's rows
    u = _haar_frame(n, n, [SeededStream(61, 100 * n + k).generator()])[0]
    t = np.linalg.svd((u @ u.T)[:k, k:], compute_uv=False) ** 2
    assert len(t) == min(k, n - k)
    log_c = 2.0 * math.log(math.sinh(2.0 * s))
    from_t = _entropies_from_bidiagonal(np.stack([t, 0.0 * t])[None], n, log_c, (k,), True)
    scale = np.sqrt(_initial_diagonal([s] * n))
    from_rows = _entropies_for_sample(u.T[None], n, scale, (k,), True)
    assert from_t == pytest.approx(from_rows, rel=1e-12)


@pytest.mark.parametrize("n", [9, 24])
@pytest.mark.parametrize("s", [0.75, 6.0])
def test_transmissions_of_several_sizes_give_the_row_frame_entropies(n, s):
    # for one Haar U and every size k <= n/2 at once: the T_i of each
    # C[:k, k:], as diagonal B's end to end in ascending k, through the
    # kernel's several-k' path, against the symplectic route on U's rows
    u = _haar_frame(n, n, [SeededStream(62, n).generator()])[0]
    c, ks = u @ u.T, tuple(range(1, n // 2 + 1))
    t = np.concatenate([np.linalg.svd(c[:k, k:], compute_uv=False) ** 2 for k in ks])
    log_c = 2.0 * math.log(math.sinh(2.0 * s))
    from_t = _entropies_from_bidiagonal(np.stack([t, 0.0 * t])[None], n, log_c, ks, True)
    from_rows = _entropies_for_sample(u.T[None], n, np.sqrt(_initial_diagonal([s] * n)), ks, True)
    assert from_t == pytest.approx(from_rows, rel=1e-12)


def householder_bidiagonal(a):
    """Squared diagonal and superdiagonal (last entry 0) of the upper
    bidiagonal U^T a V of a square a, by Golub-Kahan Householder steps."""
    a = np.array(a, dtype=float)
    m = len(a)
    for j in range(m):
        for left in (True, False):
            x = a[j:, j] if left else a[j, j + 1 :]
            if len(x) < 2:
                continue
            v = x.copy()
            v[0] += math.copysign(np.linalg.norm(x), x[0])
            v /= np.linalg.norm(v)
            if left:
                a[j:] -= 2.0 * np.outer(v, v @ a[j:])
            else:
                a[:, j + 1 :] -= 2.0 * np.outer(a[:, j + 1 :] @ v, v)
    d, e = np.diag(a), np.diag(a, 1)
    assert np.abs(a - np.diag(d) - np.diag(e, 1)).max() <= 1e-13
    return np.stack([d**2, np.append(e**2, 0.0)])


@pytest.mark.parametrize("n,m", [(40, 5), (50, 12), (24, 11), (100, 10), (400, 20)])
@pytest.mark.parametrize("s", [0.75, 3.0, 6.0])
def test_bartlett_block_gives_the_same_reduced_states(n, m, s):
    # X1 = L Q1 with L the lower-triangular (Bartlett) factor of the m x (n - m)
    # Gaussian block X1: W1 = X1 X1^T = L L^T, so for this very X1 the m x m
    # block L gives the transmissions, and so S2 and S1 of the m modes, that
    # the n - m columns of X1 give.  The T_i of X1 enter the sampler's kernel
    # as a diagonal B; those of L as the bidiagonal form of its m x m
    # transmission block, so S2 takes the pivot recurrence through a full
    # superdiagonal
    generator = SeededStream(61, n + m).generator()
    x1 = generator.standard_normal((m, n - m))
    g2 = generator.standard_normal((m, m + 1))
    bartlett = np.linalg.qr(x1.T)[1].T
    assert np.allclose(bartlett, np.tril(bartlett))
    t = np.linalg.svd(np.linalg.qr(np.vstack([x1.T, g2.T]))[0][: n - m], compute_uv=False) ** 2
    q = np.linalg.qr(np.vstack([bartlett.T, g2.T]))[0]
    reduced_b2 = householder_bidiagonal(q[:m])
    assert np.all(reduced_b2[1, :-1] > 0.0)
    log_c = 2.0 * math.log(math.sinh(2.0 * s))
    both = np.array([np.stack([t, 0.0 * t]), reduced_b2])
    full, reduced = _entropies_from_bidiagonal(both, n, log_c, (m,), True)
    assert np.all(full > 0.0)
    assert np.all(np.abs(reduced - full) <= 1e-12 * full)


@pytest.mark.parametrize("n,m", [(3, 1), (9, 4), (400, 20)])
def test_bidiagonal_stream_order(n, m):
    # the documented use of the stream by the Jacobi draw, one Beta variate
    # each: c_i^2 ~ Beta((a + i)/2, (b + i)/2) for i = 1..m, then
    # c'_i^2 ~ Beta(i/2, (a + b + 1 + i)/2) for i = 1..m-1, with a = n - 2m
    # and b = 1; B has diagonal (c_m, c_{m-1} s'_{m-1}, ..., c_1 s'_1) and
    # superdiagonal (-s_m c'_{m-1}, ..., -s_2 c'_1)
    used = SeededStream(14, n).generator()
    drawn = _jacobi_bidiagonal(n, (m,), [used])[0]
    generator = SeededStream(14, n).generator()
    a, b = n - 2 * m, 1
    c2 = [None] + [generator.beta((a + i) / 2, (b + i) / 2) for i in range(1, m + 1)]
    cp2 = [None] + [generator.beta(i / 2, (a + b + 1 + i) / 2) for i in range(1, m)]
    assert used.random() == generator.random()  # nothing more was drawn
    d2 = [c2[m]] + [c2[i] * (1.0 - cp2[i]) for i in range(m - 1, 0, -1)]
    e2 = [(1.0 - c2[i + 1]) * cp2[i] for i in range(m - 1, 0, -1)] + [0.0]
    assert drawn.shape == (2, m)
    assert np.array_equal(drawn, [d2, e2])
    signed = np.diag(np.sqrt(d2)) - np.diag(np.sqrt(e2[:-1]), 1)
    t = _bidiagonal_transmissions(drawn[None])[0]
    assert t == pytest.approx(np.linalg.svd(signed, compute_uv=False) ** 2, rel=1e-12)
    assert np.all((t > 0.0) & (t < 1.0))


def test_bidiagonal_stream_order_of_several_sizes():
    # several k' draw from one `beta` call per sample, in ascending k', each
    # B from its own share of the variates in the order of a single size
    n, kps = 24, (1, 3, 7, 12)
    used = SeededStream(15, n).generator()
    drawn = _jacobi_bidiagonal(n, kps, [used])[0]
    generator = SeededStream(15, n).generator()
    assert drawn.shape == (2, sum(kps))
    for m, end in zip(kps, np.cumsum(kps)):
        a, b = n - 2 * m, 1
        c2 = [None] + [generator.beta((a + i) / 2, (b + i) / 2) for i in range(1, m + 1)]
        cp2 = [None] + [generator.beta(i / 2, (a + b + 1 + i) / 2) for i in range(1, m)]
        d2 = [c2[m]] + [c2[i] * (1.0 - cp2[i]) for i in range(m - 1, 0, -1)]
        e2 = [(1.0 - c2[i + 1]) * cp2[i] for i in range(m - 1, 0, -1)] + [0.0]
        assert np.array_equal(drawn[:, end - m : end], [d2, e2]), m
    assert used.random() == generator.random()  # nothing more was drawn
    assert _jacobi_bidiagonal(n, (), [used]).shape == (1, 2, 0)


@pytest.mark.parametrize("n,k", [(6, 1), (8, 2), (9, 4), (12, 5), (8, 5), (10, 7)])
def test_jacobi_draw_matches_exact_trace_moments(n, k):
    # W = Pi C Pi conj(C) Pi has eigenvalues 1 - T_i and k - k' ones, so the
    # Jacobi draw must reproduce every exact moment E prod_i Tr W^{l_i}
    samples, kp = 8000, min(k, n - k)
    generator = SeededStream(71, 100 * n + k).generator()
    w = 1.0 - _bidiagonal_transmissions(_jacobi_bidiagonal(n, (kp,), [generator] * samples))
    for powers in TRACE_POWERS:
        values = np.prod([(w**l).sum(axis=1) + (k - kp) for l in powers], axis=0)
        exact = float(haar_moment_trace_product(powers, n, k))
        stderr = values.std(ddof=1) / math.sqrt(samples)
        assert abs(values.mean() - exact) <= 5 * stderr, powers
