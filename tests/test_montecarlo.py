import math
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pagecurve
from pagecurve import (
    InputError,
    cli,
    montecarlo,
    RunConfig,
    SqueezingConfig,
    conjecture_probe,
    estimate_constant_term,
    estimate_entropy_statistics,
    mean_covariance_check,
    page_constant_lambda,
    page_curve_prediction,
    sample_entropies,
    sample_ladder,
    typicality_probe,
    variance_series,
)
from pagecurve.gaussian import (
    build_initial_covariance,
    evolve,
    reduce_modes,
    reduce_subsystem,
    renyi2_entropy,
)
from pagecurve.errors import NumericalError, PageCurveError
from pagecurve.gaussian import _initial_diagonal, _reduced_sigma_from_unitary, _row_columns, h1
from pagecurve.haar import (
    SeededStream,
    _bidiagonal_transmissions,
    _ginibre_block,
    _haar_frame,
    _jacobi_bidiagonal,
    derive_substream,
    sample_haar_unitary,
)
from pagecurve.montecarlo import (
    _SHARE,
    Experiment,
    _derivative_for_sample,
    _entropies_for_sample,
    _entropies_from_bidiagonal,
    _frame_draw,
    _map_samples,
    _renyi2_from_bidiagonal,
    _renyi2_from_ginibre,
    _sample_range,
    _stack_size,
    stream_namespace,
)

COSH_15 = 2.352409615243247325767668

# more samples than one 256-sample share, so that workers=2 forks a second process
POOLED_SAMPLES = 600


@pytest.fixture
def pool_starts(monkeypatch):
    """Sampling processes (1 + its forks) of each `_map_samples` call that forked."""
    starts, forks = [], []
    fork, map_samples = os.fork, montecarlo._map_samples

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    def counting_map(*args):
        before = len(forks)
        try:
            return map_samples(*args)
        finally:
            if len(forks) > before:
                starts.append(1 + len(forks) - before)

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(montecarlo, "_map_samples", counting_map)
    return starts


def assert_no_children():
    """Every process a sampling call forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def small_config(**overrides):
    base = dict(
        n=8,
        squeezing=SqueezingConfig.equal(8, 0.6),
        subsystem_sizes=(0, 2, 4, 8),
        samples=200,
        master_seed=11,
        workers=1,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestDeterminism:
    def test_repeat_run_identical(self):
        a = estimate_entropy_statistics(small_config())
        b = estimate_entropy_statistics(small_config())
        assert a == b

    def test_worker_count_invariance(self, pool_starts):
        a = estimate_entropy_statistics(small_config(samples=POOLED_SAMPLES))
        b = estimate_entropy_statistics(small_config(samples=POOLED_SAMPLES, workers=2))
        assert pool_starts == [2]
        assert a.mean_s2 == b.mean_s2
        assert a.var_s2 == b.var_s2
        a2, a1 = sample_entropies(small_config(samples=POOLED_SAMPLES), with_s1=True)
        b2, b1 = sample_entropies(small_config(samples=POOLED_SAMPLES, workers=2), with_s1=True)
        assert pool_starts == [2, 2]
        assert np.array_equal(a2, b2) and np.array_equal(a1, b1)

    def test_worker_count_invariance_large_n(self, pool_starts):
        # at n = 400 the thread count of a multi-threaded BLAS would change
        # the last bits of the 400 x 20 QR; every sampling process runs on one
        # thread.  Unequal squeezing keeps the n-mode draw (equal squeezing
        # would draw the 20 x 20 bidiagonal Jacobi model)
        values = (0.8,) + (0.75,) * 399
        config = RunConfig(
            n=400, squeezing=SqueezingConfig(values), subsystem_sizes=(20,),
            samples=POOLED_SAMPLES, master_seed=8,
        )
        a, _ = sample_entropies(config)
        b, _ = sample_entropies(RunConfig(**{**config.__dict__, "workers": 2}))
        assert pool_starts == [2]
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("samples, workers", [(600, 8), (257, 2), (769, 3)])
    def test_pool_sized_by_the_work(self, pool_starts, samples, workers):
        # one process per 256 samples begun, at most `workers`, each on a
        # near-equal range: 200 x 3, 128 + 129 and 256 + 256 + 257 samples
        processes = min(workers, -(-samples // _SHARE))
        a, _ = sample_entropies(small_config(samples=samples))
        b, _ = sample_entropies(small_config(samples=samples, workers=workers))
        assert pool_starts == [processes]
        assert np.array_equal(a, b)
        assert_no_children()

    def test_without_fork_every_chunk_runs_here(self, pool_starts, monkeypatch):
        # where os.fork does not exist, two workers sample in this process alone
        a, _ = sample_entropies(small_config(samples=POOLED_SAMPLES))
        monkeypatch.delattr(os, "fork")
        b, _ = sample_entropies(small_config(samples=POOLED_SAMPLES, workers=2))
        assert pool_starts == []
        assert np.array_equal(a, b)

    def test_blas_threads_probed_once_and_restored(self, monkeypatch):
        # one probe of the OpenBLAS controls serves the set and the restore of
        # a `_map_samples` call; its kernels run on one BLAS thread
        probe = montecarlo._openblas_thread_controls
        probes, seen = [], []
        monkeypatch.setattr(montecarlo, "_openblas_thread_controls",
                            lambda: probes.append(1) or probe())
        before = [get() for get, _ in probe()]

        def kernel(b2, *params):
            seen.append([get() for get, _ in probe()])
            return _entropies_from_bidiagonal(b2, *params)

        _map_samples(kernel, _jacobi_bidiagonal, 20, (5,), (20, 1.0, (5,), False), 30, 1, 0, 1)
        assert probes == [1]
        assert seen and all(counts == [1] * len(before) for counts in seen)
        assert [get() for get, _ in probe()] == before

    def test_seed_changes_results(self):
        a = estimate_entropy_statistics(small_config())
        b = estimate_entropy_statistics(small_config(master_seed=12))
        assert a.mean_s2 != b.mean_s2


class TestTrivialValues:
    def test_vacuum_all_zero(self):
        s2, s1 = sample_entropies(
            small_config(squeezing=SqueezingConfig.equal(8, 0.0), samples=50), with_s1=True
        )
        assert np.abs(s2.mean(axis=0)).max() <= 1e-10
        assert np.abs(s1.mean(axis=0)).max() <= 1e-10

    def test_boundary_subsystems_pure(self):
        s2, s1 = sample_entropies(small_config(samples=50), with_s1=True)
        assert abs(s2[:, 0].mean()) <= 1e-10   # k = 0
        assert abs(s2[:, -1].mean()) <= 1e-9   # k = n
        assert abs(s1[:, -1].mean()) <= 1e-7

    def test_full_system_exactly_pure_at_large_squeezing(self):
        # the full covariance at s=8 is too ill-conditioned for a
        # factorization to return 0; k = 0 and k = n are pure by definition
        n = 20
        s2, s1 = sample_entropies(
            RunConfig(
                n=n, squeezing=SqueezingConfig.equal(n, 8.0), subsystem_sizes=(0, n // 2, n),
                samples=64, master_seed=1,
            ),
            with_s1=True,
        )
        assert np.all(s2[:, [0, 2]] == 0.0) and np.all(s1[:, [0, 2]] == 0.0)
        assert np.all(s2[:, 1] > 0.0)

    @pytest.mark.parametrize("n", [8, 24])
    def test_equal_squeezing_s5_runs(self, n):
        # s = 5 is inside the analytic domain; the sampler must not fail there
        k = np.arange(n + 1)
        s2, s1 = sample_entropies(
            RunConfig(
                n=n, squeezing=SqueezingConfig.equal(n, 5.0), subsystem_sizes=tuple(k),
                samples=32, master_seed=0,
            ),
            with_s1=True,
        )
        assert np.all(s2[:, 1:-1] > 0.0)
        assert np.all(s2 - 1e-9 <= s1)
        assert np.all(s1 <= s2 + k * (1 - math.log(2)) + 1e-9)


def two_moments(x):
    """Mean, variance and their standard errors from one sample."""
    mean, var = x.mean(), x.var(ddof=1)
    fourth = ((x - mean) ** 4).mean()
    return mean, var, math.sqrt(var / len(x)), math.sqrt((fourth - var**2) / len(x))


class TestJacobiDraw:
    def test_selection_rule(self):
        # equal squeezing takes the Jacobi draw of every distinct k' whatever
        # the sizes and with_s1; unequal squeezing takes the Ginibre block
        # for S2 alone and the Haar frame with S1
        equal = SqueezingConfig.equal(10, 0.5).values
        unequal = (0.6,) + equal[1:]
        for with_s1 in (False, True):
            assert _frame_draw(equal, (4,), with_s1)[:2] == (_jacobi_bidiagonal, (4,))
            assert _frame_draw(equal, (7,), with_s1)[:2] == (_jacobi_bidiagonal, (3,))   # k > n/2
            assert _frame_draw(equal, (5,), with_s1)[:2] == (_jacobi_bidiagonal, (5,))   # 2k = n
            assert _frame_draw(equal, (0, 3, 7, 10), with_s1)[:2] == (_jacobi_bidiagonal, (3,))
            assert _frame_draw(equal, (4, 2), with_s1)[:2] == (_jacobi_bidiagonal, (2, 4))
            full = _frame_draw(equal, tuple(range(11)), with_s1)   # the full page curve
            assert full[:2] == (_jacobi_bidiagonal, (1, 2, 3, 4, 5))
            assert _frame_draw(equal, (0, 10), with_s1)[:2] == (_jacobi_bidiagonal, ())
            row_draw = _haar_frame if with_s1 else _ginibre_block
            assert _frame_draw(unequal, (4,), with_s1)[:2] == (row_draw, 4)
            assert _frame_draw(unequal, tuple(range(11)), with_s1)[:2] == (row_draw, 9)
            assert _frame_draw(unequal, (0, 10), with_s1)[:2] == (row_draw, 0)

    def test_sample_j_is_the_jacobi_draw_of_substream_j(self):
        # the entropies of sample j come from the bidiagonal B that
        # substream j gives (the stream order itself is pinned by
        # tests/test_haar.py::test_bidiagonal_stream_order)
        n, ks, s, kp = 20, (5, 15), 0.9, 5
        config = RunConfig(n=n, squeezing=SqueezingConfig.equal(n, s), subsystem_sizes=ks,
                           samples=4, master_seed=6)
        s2, s1 = sample_entropies(config, with_s1=True)
        c = math.sinh(2 * s) ** 2
        for j in range(4):
            generator = derive_substream(SeededStream(6, 0), j).generator()
            t = _bidiagonal_transmissions(_jacobi_bidiagonal(n, (kp,), [generator]))[0]
            assert t.shape == (kp,)
            assert s2[j] == pytest.approx([0.5 * math.fsum(np.log1p(c * t))] * 2, rel=1e-13)
            expected_s1 = math.fsum(h1(math.sqrt(1 + c * x)) for x in t)
            assert s1[j] == pytest.approx([expected_s1] * 2, rel=1e-13)

    def test_pure_boundaries_exactly_zero(self):
        n = 30
        s2, s1 = sample_entropies(
            RunConfig(n=n, squeezing=SqueezingConfig.equal(n, 6.0),
                      subsystem_sizes=(0, 4, n - 4, n), samples=40, master_seed=2),
            with_s1=True,
        )
        assert np.all(s2[:, [0, 3]] == 0.0) and np.all(s1[:, [0, 3]] == 0.0)
        assert np.all(s2[:, 1] > 0.0) and np.all(s1[:, 1] >= s2[:, 1])
        assert np.array_equal(s2[:, 1], s2[:, 2]) and np.array_equal(s1[:, 1], s1[:, 2])
        only_boundaries, _ = sample_entropies(
            RunConfig(n=n, squeezing=SqueezingConfig.equal(n, 1.0), subsystem_sizes=(0, n),
                      samples=3, master_seed=2)
        )
        assert np.all(only_boundaries == 0.0)

    @pytest.mark.parametrize("n,k,s", [(60, 6, 1.5), (24, 17, 3.0)])
    def test_same_law_as_the_row_frame(self, n, k, s):
        # mean and variance of S2 and S1 from the Jacobi draw against the
        # first k rows of Haar unitaries, on independent streams
        samples = 6000
        config = RunConfig(n=n, squeezing=SqueezingConfig.equal(n, s), subsystem_sizes=(k,),
                           samples=samples, master_seed=15)
        jacobi = sample_entropies(config, with_s1=True)
        params = (n, np.sqrt(_initial_diagonal(config.squeezing.values)), (k,), True)
        rows = _map_samples(_entropies_for_sample, _haar_frame, n, k, params, samples, 16, 0, 1)
        for drawn, row_frame in zip(jacobi, (rows[:, 0, 0], rows[:, 1, 0])):
            m_j, v_j, se_m_j, se_v_j = two_moments(drawn[:, 0])
            m_f, v_f, se_m_f, se_v_f = two_moments(row_frame)
            assert abs(m_j - m_f) <= 4 * math.hypot(se_m_j, se_m_f)
            assert abs(v_j - v_f) <= 4 * math.hypot(se_v_j, se_v_f)

    @pytest.mark.parametrize("n,k,s", [(400, 20, 12.0), (8, 6, 12.0), (60, 6, 0.75)])
    def test_s1_needs_no_clamp(self, n, k, s):
        # per sample S2 <= S1 <= k' h1(e^{S2/k'}), since h1(e^x) >= x and is
        # concave; at s = 12 the Jensen gap is of order 1/sinh^2(2s), so the
        # upper bound gets a rounding allowance
        kp = min(k, n - k)
        s2, s1 = sample_entropies(
            RunConfig(n=n, squeezing=SqueezingConfig.equal(n, s), subsystem_sizes=(k,),
                      samples=200, master_seed=4),
            with_s1=True,
        )
        s2, s1 = s2[:, 0], s1[:, 0]
        assert np.all(np.isfinite(s1)) and np.all(s2 > 0.0)
        assert np.all(s2 <= s1)
        bound = np.array([kp * h1(math.exp(x / kp)) for x in s2])
        assert np.all(s1 <= bound * (1 + 1e-13))

    def test_inline_runs_do_not_import_the_pool(self):
        # a fresh interpreter: sampling, on one worker or on forked ones,
        # loads neither concurrent.futures nor multiprocessing
        env = dict(os.environ, PYTHONPATH=str(Path(pagecurve.__file__).parents[1]))
        code = (
            "import sys\n"
            "from pagecurve import montecarlo\n"
            "montecarlo.typicality_probe([8, 100], 'sqrt', 0.5, 0.1, 300, 0)\n"
            f"montecarlo.typicality_probe([8], 'sqrt', 0.5, 0.1, {POOLED_SAMPLES}, 0, workers=2)\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("s", [0.01, 0.75, 5.0, 12.0, 400.0])
    def test_s2_recurrence_matches_the_singular_values(self, s):
        # the O(k') pivot recurrence against (1/2) sum log1p(c T_i) over the
        # SVD of the same B, on both sides of c = 1 and where c overflows
        for n, kp in ((3, 1), (9, 4), (400, 200)):
            streams = [derive_substream(SeededStream(8, n), j).generator() for j in range(20)]
            b2 = _jacobi_bidiagonal(n, (kp,), streams)
            log_c = _frame_draw((s,) * n, (kp,), False)[3]
            log_nu2 = np.logaddexp(0.0, log_c + np.log(_bidiagonal_transmissions(b2)))
            expected = [0.5 * math.fsum(row) for row in log_nu2.tolist()]
            s2 = _renyi2_from_bidiagonal(b2, log_c, (kp,))
            assert s2.shape == (20, 1)
            assert s2[:, 0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, 0.01, 0.75, 5.0, 400.0])
    def test_several_sizes_run_as_each_alone(self, s):
        # one recurrence over the bidiagonals of several k', padded in front
        # to the largest, gives each exactly the S2 it has alone, on both
        # sides of c = 1
        n, kps = 30, (1, 2, 7, 15)
        streams = [derive_substream(SeededStream(9, n), j).generator() for j in range(12)]
        b2 = _jacobi_bidiagonal(n, kps, streams)
        log_c = _frame_draw((s,) * n, kps, False)[3]
        together = _renyi2_from_bidiagonal(b2, log_c, kps)
        assert together.shape == (12, len(kps))
        ends = np.cumsum(kps)
        for i, (kp, end) in enumerate(zip(kps, ends)):
            alone = _renyi2_from_bidiagonal(b2[:, :, end - kp : end], log_c, (kp,))[:, 0]
            assert np.array_equal(together[:, i], alone), kp

    def test_single_size_s2_makes_no_linalg_call(self, monkeypatch):
        # S2 of one size at equal squeezing is the recurrence alone; only S1
        # factors B
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg was called")

        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, refuse)
        n = 400
        for k, s in ((200, 0.75), (20, 5.0), (399, 400.0), (3, 0.0)):
            config = RunConfig(n=n, squeezing=SqueezingConfig.equal(n, s), subsystem_sizes=(k,),
                               samples=40, master_seed=3)
            s2, s1 = sample_entropies(config)
            assert s1 is None and np.all(np.isfinite(s2)) and np.all((s2 > 0.0) == (s > 0.0))
        with pytest.raises(AssertionError, match="numpy.linalg"):
            sample_entropies(config, with_s1=True)

    def test_curve_s2_makes_no_linalg_call(self, monkeypatch):
        # nor does S2 of several sizes: the page curve at equal squeezing
        # runs one recurrence over the bidiagonals of all its k'
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg was called")

        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, refuse)
        for n, s in ((24, 0.75), (9, 400.0), (40, 0.0)):
            config = RunConfig(n=n, squeezing=SqueezingConfig.equal(n, s),
                               subsystem_sizes=tuple(range(n + 1)), samples=40, master_seed=3)
            s2, _ = sample_entropies(config)
            assert np.all(np.isfinite(s2)) and np.all((s2[:, 1:n] > 0.0) == (s > 0.0))


class TestExactValues:
    # the sampler's S2 against exact finite-n values of the beta = 1 Jacobi
    # law (de Bruijn's Pfaffian formula at 30 or more digits, rounded), at
    # 5 sigma; each ladder point draws on its own namespace
    SAMPLES = 40_000

    def test_mean_and_variance_at_s_0_75(self):
        exact = {(8, 4): (1.882114, 0.080905), (12, 3): (2.066202, 0.032354)}
        cols = sample_ladder(Experiment.ENTROPY, list(exact), 0.75, self.SAMPLES, 26)
        for (mean, var), col in zip(exact.values(), cols):
            m, v, se_m, se_v = two_moments(col)
            assert abs(m - mean) <= 5 * se_m
            assert abs(v - var) <= 5 * se_v

    def test_mean_at_half_the_modes_at_s_5(self):
        # r = 1/2 at s = 5, the hard edge where the order-one deficit is far
        # from its large-n limit
        exact = {(8, 4): 33.85179, (16, 8): 68.14209, (24, 12): 102.49880, (32, 16): 136.88360}
        cols = sample_ladder(Experiment.ENTROPY, list(exact), 5.0, self.SAMPLES, 26)
        for mean, col in zip(exact.values(), cols):
            m, _, se_m, _ = two_moments(col)
            assert abs(m - mean) <= 5 * se_m

    @pytest.mark.parametrize("n,s,k,mean,var", [
        (8, 0.75, 4, 1.882114, 0.080905),
        (12, 0.75, 3, 2.066202, 0.032354),
        (24, 5.0, 12, 102.49880, None),
    ])
    def test_full_curves_on_the_jacobi_draw(self, n, s, k, mean, var):
        # a whole equal-squeezing curve draws one bidiagonal per k' from one
        # `beta` call per sample; the gated size keeps its exact law, and
        # sizes k and n - k share one draw
        config = RunConfig(n=n, squeezing=SqueezingConfig.equal(n, s),
                           subsystem_sizes=tuple(range(n + 1)), samples=self.SAMPLES,
                           master_seed=28)
        s2, _ = sample_entropies(config)
        assert np.array_equal(s2, s2[:, ::-1])
        m, v, se_m, se_v = two_moments(s2[:, k])
        assert abs(m - mean) <= 5 * se_m
        if var is not None:
            assert abs(v - var) <= 5 * se_v


class TestGinibreRoute:
    # S2 at unequal squeezing from the two real R factors of the Ginibre
    # block Z, against the row-frame kernel on Z's orthonormalization
    @pytest.mark.parametrize("top", [0.01, 0.75, 3.0, 8.0])
    @pytest.mark.parametrize("shape", ["ramp", "equal"])
    def test_s2_matches_the_orthonormalized_frame(self, top, shape):
        # the same blocks for both; at top = 0.01 S2 is of order 1e-5 while
        # either route sums 2k logarithms of order 1, so each carries a few
        # 2k eps absolute (up to 1.7e-14 at n = 24), hence the absolute floor
        for n in (2, 7, 24):
            values = np.linspace(top / 4, top, n) if shape == "ramp" else np.full(n, top)
            scale = np.sqrt(_initial_diagonal(values))
            ks = tuple(range(n + 1))

            def streams():
                return [derive_substream(SeededStream(12, n), j).generator() for j in range(30)]

            from_z = _renyi2_from_ginibre(_ginibre_block(n, n - 1, streams()), n, scale, ks, False)
            frame = _entropies_for_sample(_haar_frame(n, n - 1, streams()), n, scale, ks, False)
            assert from_z.shape == frame.shape == (30, 1, n + 1)
            assert np.all(from_z[:, 0, [0, n]] == 0.0) and np.all(from_z[:, 0, 1:n] > 0.0)
            assert from_z == pytest.approx(frame, rel=1e-12, abs=1e-13)

    def test_s2_at_both_signs_against_exact_gram_determinants(self):
        # s_i of both signs up to |s_i| = 8 put e^{+-8} on the rows of D F^T;
        # the scaled QR takes them in decreasing order of scale, which keeps
        # S2 = (1/2) log det(G_D) / det(G_1) of the leading 2k columns' Gram
        # matrices accurate (about 1e-10 off in the order the rows come in)
        import mpmath as mp

        n = 6
        values = (8.0, -6.0, 2.0, -8.0, 0.5, 5.0)
        scale = np.sqrt(_initial_diagonal(values))
        generators = [derive_substream(SeededStream(13, n), j).generator() for j in range(3)]
        z = _ginibre_block(n, n - 1, generators)
        s2 = _renyi2_from_ginibre(z, n, scale, tuple(range(1, n)), False)[:, 0]
        with mp.workdps(60):
            for f, row in zip(_row_columns(z, n - 1), s2):
                f = mp.matrix(f.tolist())
                df = mp.diag([mp.mpf(x) for x in scale.tolist()]) * f
                for k in range(1, n):
                    g1, gd = (a[:, : 2 * k].T * a[:, : 2 * k] for a in (f, df))
                    exact = float((mp.log(mp.det(gd)) - mp.log(mp.det(g1))) / 2)
                    assert row[k - 1] == pytest.approx(exact, rel=1e-14), k

    @pytest.mark.parametrize("values,mode,k,derivative,stderr", [
        ((0.3, 0.5, 0.9, 0.1, 0.7, 1.1, 0.2, 0.6), 2, 3, 0.35028757751126977,
         0.003893230713918619),
        ((0.75,) * 12, 0, 6, 0.4085720288621478, 0.004159972552730576),
    ])
    def test_conjecture_probe_keeps_the_frame_values(self, values, mode, k, derivative, stderr):
        # the values the Haar-frame route gave at seed 41 (400 samples,
        # delta 1e-3): both sides now take the scaled R factors of the same
        # Ginibre blocks, whose frame the old route drew
        est = conjecture_probe(SqueezingConfig(values), mode, 1e-3, 400, 41, k=k)
        assert est.derivative == pytest.approx(derivative, rel=1e-12)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)
        assert est.negative_fraction == 0.0

    def test_only_unequal_s1_reaches_the_haar_frame_route(self, monkeypatch):
        # every equal-squeezing run, and every run of S2 alone at unequal
        # squeezing, completes without the Haar frame, the symplectic
        # eigensolve or the purity clamp
        def refuse(*args, **kwargs):
            raise AssertionError("reached the Haar-frame route")

        for name in ("_haar_frame", "_symplectic_spectrum", "_purity_clamp"):
            monkeypatch.setattr(montecarlo, name, refuse)
        for n, s in ((8, 0.75), (13, 5.0), (8, 12.0), (6, 0.0)):
            for ks in ((3,), (2, 5), tuple(range(n + 1)), (0, n)):
                config = RunConfig(n=n, squeezing=SqueezingConfig.equal(n, s),
                                   subsystem_sizes=ks, samples=20, master_seed=5)
                for with_s1 in (False, True):
                    s2, s1 = sample_entropies(config, with_s1=with_s1)
                    assert np.all(np.isfinite(s2)) and (s1 is None or np.all(np.isfinite(s1)))
        sample_ladder(Experiment.VARIANCE, [(8, 4), (12, 3)], 0.5, 20, 1)
        typicality_probe([8, 20], "sqrt", 0.5, 0.1, 20, 1)
        estimate_constant_term([8, 12, 16], 0.5, Fraction(1, 2), 20, 1)
        ramp = SqueezingConfig(RAMP8)
        for ks in ((3,), (2, 5), tuple(range(9)), (0, 8)):
            s2, _ = sample_entropies(RunConfig(n=8, squeezing=ramp, subsystem_sizes=ks,
                                               samples=20, master_seed=5))
            assert np.all(np.isfinite(s2))
        for k in (1, 4, 8):
            conjecture_probe(ramp, 2, 1e-3, 20, 3, k=k)
            conjecture_probe(SqueezingConfig.equal(8, 0.5), 0, 1e-3, 20, 3, k=k)
        with pytest.raises(AssertionError, match="Haar-frame route"):
            sample_entropies(RunConfig(n=8, squeezing=ramp, subsystem_sizes=(3,), samples=2),
                             with_s1=True)


RAMP8 = (0.3, 0.5, 0.9, 0.1, 0.7, 1.1, 0.2, 0.6)


def stacked_pairs():
    """(draw, kernel, n, m, params) for every draw and kernel the sampler pairs."""
    scale = np.sqrt(_initial_diagonal(RAMP8))
    minus = np.sqrt(_initial_diagonal((0.25,) + RAMP8[1:]))
    log_c = 2.0 * math.log(math.sinh(1.8))
    return {
        "rows-entropies": (_haar_frame, _entropies_for_sample, 8, 7,
                           (8, scale, tuple(range(9)), True)),
        "ginibre-s2": (_ginibre_block, _renyi2_from_ginibre, 8, 5,
                       (8, scale, (0, 2, 5, 8), False)),
        "jacobi-entropies": (_jacobi_bidiagonal, _entropies_from_bidiagonal, 20, (8,),
                             (20, log_c, (0, 8, 12, 20), True)),
        "jacobi-curve": (_jacobi_bidiagonal, _entropies_from_bidiagonal, 12, (1, 2, 3, 4, 5, 6),
                         (12, log_c, tuple(range(13)), True)),
        "ginibre-derivative": (_ginibre_block, _derivative_for_sample, 8, 3,
                               (8, scale, minus, 3, 0.03)),
        "rows-covariance": (_haar_frame, _reduced_sigma_from_unitary, 8, 3,
                            (_initial_diagonal(RAMP8), 3)),
    }


class TestStackedCalls:
    @pytest.mark.parametrize("pair", sorted(stacked_pairs()))
    def test_matches_the_per_sample_reference(self, pair):
        # 263 samples in one process, ending in a ragged stacked call; every
        # sample equals its draw and kernel alone
        draw, kernel, n, m, params = stacked_pairs()[pair]
        step = _stack_size(draw, n, m)
        assert 1 < step < 263 and 263 % step
        stream = SeededStream(5, stream_namespace(Experiment.ENTROPY, 3))
        stacked = _map_samples(kernel, draw, n, m, params, 263, 5, stream.stream_index, 1)
        for j in range(263):
            alone = draw(n, m, [derive_substream(stream, j).generator()])
            assert np.array_equal(stacked[j], kernel(alone, *params)[0]), j

    def test_numerical_error_names_the_global_sample(self):
        # one mode squeezed at s = 16: the other nus are exactly 1 but round
        # to about 1 - 1.4e-9 in some samples, below 1 - PURITY_CLAMP; at
        # seed 7 sample 60 is the first, in the middle of the first stacked call
        values = (16.0,) + (0.0,) * 7
        config = RunConfig(n=8, squeezing=SqueezingConfig(values), subsystem_sizes=tuple(range(9)),
                           samples=263, master_seed=7)
        draw, m, *_ = _frame_draw(values, config.subsystem_sizes, True)
        assert 60 % _stack_size(draw, 8, m) != 0
        sample_entropies(RunConfig(**{**config.__dict__, "samples": 60}), with_s1=True)
        with pytest.raises(NumericalError, match=r"^sample 60 \(seed 7\): symplectic eigenvalue"):
            sample_entropies(config, with_s1=True)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_failing_chunk_wins_at_any_worker_count(self, workers):
        # at s = 15.95 seed 172 first fails at sample 274 and again at 549.
        # On three processes the ranges are 0-255, 256-511 and 512-767: the
        # third child fails too, at 549, but the second one's error is raised
        values = (15.95,) + (0.0,) * 7
        ks = tuple(range(9))
        draw, m, *_ = _frame_draw(values, ks, True)
        params = (8, np.sqrt(_initial_diagonal(values)), ks, True)
        stream = SeededStream(172, 0)
        with pytest.raises(NumericalError, match=r"^sample 549 "):
            _sample_range(_entropies_for_sample, draw, 8, m, params, stream, 512, 768)
        config = RunConfig(n=8, squeezing=SqueezingConfig(values), subsystem_sizes=ks,
                           samples=3 * _SHARE, master_seed=172, workers=workers)
        with pytest.raises(NumericalError, match=r"^sample 274 \(seed 172\): symplectic eigenvalue"):
            sample_entropies(config, with_s1=True)
        assert_no_children()

    def test_killed_child_names_its_signal(self):
        # a child that dies without a report (here by SIGKILL, as from the
        # OOM killer) fails the call with its signal, and is reaped
        caller = os.getpid()

        def kernel(b2, *params):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return _entropies_from_bidiagonal(b2, *params)

        with pytest.raises(
            PageCurveError, match=r"\(samples 300 to 599\) was killed by signal 9 before"
        ):
            _map_samples(kernel, _jacobi_bidiagonal, 20, (5,), (20, 1.0, (5,), False),
                         POOLED_SAMPLES, 1, 0, 2)
        assert_no_children()

    def test_interrupt_kills_running_children(self):
        # an interrupt in this process leaves no child sampling on after it
        caller = os.getpid()

        def kernel(b2, *params):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60)

        with pytest.raises(KeyboardInterrupt):
            _map_samples(kernel, _jacobi_bidiagonal, 20, (5,), (), POOLED_SAMPLES, 1, 0, 3)
        assert_no_children()


class TestAgainstPrediction:
    def test_mean_matches_asymptotic(self):
        n, s, samples = 20, 0.75, 3000
        est = estimate_entropy_statistics(
            RunConfig(
                n=n,
                squeezing=SqueezingConfig.equal(n, s),
                subsystem_sizes=(n // 2,),
                samples=samples,
                master_seed=5,
            )
        )
        predicted = page_curve_prediction(n, s, n // 2)
        band = 3 * est.stderr_s2[0] + 2.0 / n
        assert abs(est.mean_s2[0] - predicted) <= band

    @pytest.mark.parametrize("n", [24, 48, 96])
    def test_mean_matches_asymptotic_at_large_squeezing(self, n):
        # away from r = 1/2 the T_i stay above the soft edge (1 - 2r)^2, so
        # the order-one term holds at s = 5 already at n = 24
        s, k, samples = 5.0, n // 4, 4000
        est = estimate_entropy_statistics(
            RunConfig(n=n, squeezing=SqueezingConfig.equal(n, s), subsystem_sizes=(k,),
                      samples=samples, master_seed=25)
        )
        band = 3 * est.stderr_s2[0] + 2.0 / n
        assert abs(est.mean_s2[0] - page_curve_prediction(n, s, k)) <= band

    def test_complement_consistency_per_sample(self):
        n, k = 9, 3
        for j in range(25):
            u = sample_haar_unitary(n, SeededStream(3, j))
            state = evolve(build_initial_covariance(SqueezingConfig.equal(n, 0.7)), u)
            first = renyi2_entropy(reduce_subsystem(state, k))
            complement = renyi2_entropy(reduce_modes(state, range(k, n)))
            assert abs(first - complement) <= 1e-9

    def test_variance_scale(self):
        # at small squeezing the sampled variance approaches the leading
        # series term; the first omitted term is a relative t^2 correction
        n, s, samples = 40, 0.15, 4000
        s2, _ = sample_entropies(
            RunConfig(
                n=n, squeezing=SqueezingConfig.equal(n, s), subsystem_sizes=(n // 2,),
                samples=samples, master_seed=17,
            )
        )
        observed = float(s2[:, 0].var(ddof=1))
        leading = variance_series(s, 0.5)
        assert observed == pytest.approx(leading, rel=0.2)


class TestConstantTerm:
    def test_zero_squeezing(self):
        est = estimate_constant_term([8, 12, 16], 0.0, Fraction(1, 2), 100, 3)
        assert abs(est.value) <= max(3 * est.stderr, 1e-9)

    def test_ladder_validation(self, no_sampling):
        with pytest.raises(InputError):
            estimate_constant_term([8, 16], 0.5, Fraction(1, 2), 100, 0)
        with pytest.raises(InputError, match="n=17"):
            estimate_constant_term([8, 12, 17], 0.5, Fraction(1, 2), 100, 0)

    def test_small_ladder_estimate(self):
        est = estimate_constant_term([10, 20, 40], 0.75, Fraction(1, 2), 2500, 23)
        target = page_constant_lambda(0.75, 0.5)
        assert abs(est.value - target) <= 3 * est.stderr + 2.0 / 10
        assert est.stderr > 0
        assert len(est.per_n) == 3


class TestTypicality:
    def test_vacuum_never_deviates(self):
        records = typicality_probe([8, 12], "ratio:0.5", 0.0, 0.05, 100, 2)
        for rec in records:
            assert rec.strong_deviation_frequency == 0.0
            assert rec.weak_deviation_frequency == 0.0

    def test_weak_typicality_at_moderate_size(self):
        (rec,) = typicality_probe([100], "ratio:0.5", 0.75, 0.1, 1000, 4)
        assert rec.k == 50
        assert rec.weak_deviation_frequency <= 0.05

    def test_strong_deviation_decays_with_n(self):
        records = typicality_probe([16, 64, 144], "sqrt", 0.75, 0.1, 400, 9)
        freqs = [r.strong_deviation_frequency for r in records]
        assert freqs[0] >= freqs[1] >= freqs[2]
        assert records[0].k == 4 and records[1].k == 8 and records[2].k == 12

    def test_k_rule_validation(self, no_sampling):
        with pytest.raises(InputError):
            typicality_probe([8], "cubic", 0.5, 0.1, 10, 0)
        with pytest.raises(InputError):
            typicality_probe([8], "ratio:0.5", 0.5, 0.0, 10, 0)
        for rule in ("ratio:abc", "ratio:"):
            with pytest.raises(InputError, match=rule):
                typicality_probe([8], rule, 0.5, 0.1, 10, 0)
        for epsilon in (math.nan, math.inf):
            with pytest.raises(InputError, match="epsilon"):
                typicality_probe([8], "ratio:0.5", 0.5, epsilon, 10, 0)
        with pytest.raises(InputError, match="at least one mode"):  # a later bad point
            typicality_probe([8, 0], "sqrt", 0.5, 0.1, 10, 0)

    def test_worker_count_invariance(self, pool_starts):
        a = typicality_probe([8, 12], "sqrt", 0.6, 0.1, POOLED_SAMPLES, 3, workers=1)
        b = typicality_probe([8, 12], "sqrt", 0.6, 0.1, POOLED_SAMPLES, 3, workers=2)
        assert pool_starts == [2, 2]
        assert a == b


class TestConjectureProbe:
    def test_zero_squeezing_derivative(self):
        # exact finite-n slope of the mean entropy in sum s_i^2 is
        # 2 k (n-k) / (n (n+1)); it approaches 2 r (1-r)
        n, k = 40, 20
        est = conjecture_probe(SqueezingConfig.equal(n, 0.0), 0, 1e-3, 600, 7, k=k)
        finite_n = 2 * k * (n - k) / (n * (n + 1))
        assert abs(est.derivative - finite_n) <= 3 * est.stderr + 1e-3
        assert abs(est.derivative - 0.5) <= 3 * est.stderr + 2.0 / n
        assert est.negative_fraction == 0.0

    def test_positive_mean_derivative(self, monkeypatch):
        est = conjecture_probe(SqueezingConfig.equal(10, 0.5), 0, 1e-3, 1500, 19, k=5)
        assert est.derivative - 3 * est.stderr > 0
        # k = n is a pure state, whose S2 is 0 at any squeezing: no rounding
        # noise, and no row of U is drawn for it
        columns = []

        def recording(n, m, generators):
            columns.append(m)
            return _ginibre_block(n, m, generators)

        monkeypatch.setattr(montecarlo, "_ginibre_block", recording)
        values = (0.5, 0.2, 0.9, 0.1, 0.4, 0.7)
        pure = conjecture_probe(SqueezingConfig(values), 2, 1e-3, 1000, 0, k=6)
        assert (pure.derivative, pure.stderr, pure.negative_fraction) == (0.0, 0.0, 0.0)
        assert set(columns) == {0}

    def test_single_state_counterexamples_exist(self):
        # a 50:50 beamsplitter on modes with s_1 < s_2 leaves the subsystem
        # with S2 = log cosh(s_1 - s_2), decreasing in s_1^2; under unequal
        # squeezing such unitaries occur with positive probability, while the
        # mean derivative stays positive
        from pagecurve.gaussian import (
            PassiveUnitary,
            build_initial_covariance,
            evolve,
            reduce_subsystem,
            renyi2_entropy,
        )

        bs = PassiveUnitary(np.array([[1, 1], [-1, 1]]) / math.sqrt(2))

        def entropy(h):
            cfg = SqueezingConfig((math.sqrt(h), 0.8))
            state = evolve(build_initial_covariance(cfg), bs)
            return renyi2_entropy(reduce_subsystem(state, 1))

        h = 0.09  # s_1 = 0.3
        slope = (entropy(h + 1e-6) - entropy(h - 1e-6)) / 2e-6
        assert slope == pytest.approx(math.tanh(0.3 - 0.8) / 0.6, rel=1e-4)
        assert slope < 0

        est = conjecture_probe(SqueezingConfig((0.3, 0.8)), 0, 1e-3, 1000, 19, k=1)
        assert est.negative_fraction > 0.0
        assert est.derivative - 3 * est.stderr > 0

    def test_forward_difference_at_zero(self):
        est = conjecture_probe(SqueezingConfig.equal(6, 0.0), 0, 1e-3, 50, 1, k=3)
        assert est.h_minus == 0.0
        assert est.h_plus == pytest.approx(1e-3)

    def test_validation(self):
        cfg = SqueezingConfig.equal(4, 0.1)
        with pytest.raises(InputError):
            conjecture_probe(cfg, 4, 1e-3, 10, 0, k=2)
        with pytest.raises(InputError):
            conjecture_probe(cfg, 0, 1e-3, 0, 0, k=2)
        with pytest.raises(InputError):
            conjecture_probe(cfg, 0, 1e-3, 10, 0, k=2, workers=0)

    @pytest.mark.parametrize("delta", [-1e-3, 0.0, math.nan, math.inf])
    def test_delta_validation(self, delta, no_sampling):
        with pytest.raises(InputError, match="delta"):
            conjecture_probe(SqueezingConfig.equal(4, 0.1), 0, delta, 10, 0, k=2)

    def test_worker_count_invariance(self, pool_starts):
        cfg = SqueezingConfig((0.3, 0.8, 0.5, 0.1))
        a = conjecture_probe(cfg, 1, 1e-3, POOLED_SAMPLES, 19, k=2, workers=1)
        b = conjecture_probe(cfg, 1, 1e-3, POOLED_SAMPLES, 19, k=2, workers=2)
        assert pool_starts == [2]
        assert a == b


class TestMeanCovariance:
    def test_vacuum_exact(self):
        # vacuum reduced covariance is the identity up to rounding
        res = mean_covariance_check(SqueezingConfig.equal(6, 0.0), 2, 20, 0)
        assert res.max_abs_deviation <= 1e-14
        assert res.max_sigma_units == 0.0

    def test_haar_average_is_isotropic(self):
        res = mean_covariance_check(SqueezingConfig.equal(8, 0.75), 3, 10_000, 3)
        assert res.target_diagonal == pytest.approx(COSH_15, abs=1e-12)
        # entrywise: diagonal near cosh(2s), off-diagonal near zero
        assert res.max_sigma_units <= 3.5
        assert res.max_abs_deviation <= 3.5 * float(res.stderr.max())

    def test_worker_invariance(self, pool_starts):
        a = mean_covariance_check(SqueezingConfig.equal(6, 0.4), 2, POOLED_SAMPLES, 5, workers=1)
        b = mean_covariance_check(SqueezingConfig.equal(6, 0.4), 2, POOLED_SAMPLES, 5, workers=2)
        assert pool_starts == [2]
        assert np.array_equal(a.mean, b.mean)


class TestRunConfigValidation:
    def test_bad_sizes(self):
        with pytest.raises(InputError):
            small_config(subsystem_sizes=(9,))

    def test_squeezing_length_mismatch(self):
        with pytest.raises(InputError):
            small_config(squeezing=SqueezingConfig.equal(7, 0.1))

    def test_bad_counts(self):
        with pytest.raises(InputError):
            small_config(samples=0)
        with pytest.raises(InputError):
            small_config(workers=0)


class TestStreamKeys:
    def test_key_blocks_are_disjoint(self):
        # the key of (experiment, point, sample) is increasing in
        # (experiment, point, sample) for points < 2^16 and samples < 2^32,
        # so the last key of each experiment lies below the first of the next
        def key(experiment, point, sample):
            stream = SeededStream(0, stream_namespace(experiment, point))
            return derive_substream(stream, sample).stream_index

        experiments = sorted(Experiment)
        assert [int(e) for e in experiments] == list(range(len(experiments)))
        for e in experiments:
            assert key(e, 0, 0) < key(e, 0, 2**32 - 1) < key(e, 1, 0)
            assert key(e, 2**16 - 2, 2**32 - 1) < key(e, 2**16 - 1, 0)
        for lower, upper in zip(experiments, experiments[1:]):
            assert key(lower, 2**16 - 1, 2**32 - 1) < key(upper, 0, 0)
        assert key(experiments[-1], 2**16 - 1, 2**32 - 1) < 2**64
        for point in (-1, 2**16):
            with pytest.raises(InputError):
                stream_namespace(Experiment.ENTROPY, point)

    def test_each_experiment_draws_in_its_own_block(self, monkeypatch, capsys):
        keys = []

        def recording(stream, j):
            sub = derive_substream(stream, j)
            keys.append(sub.stream_index)
            return sub

        monkeypatch.setattr(montecarlo, "derive_substream", recording)
        sq = SqueezingConfig.equal(4, 0.5)
        runs = {
            Experiment.ENTROPY: lambda: sample_entropies(
                RunConfig(n=4, squeezing=sq, subsystem_sizes=(2,), samples=3)
            ),
            Experiment.CONSTANT_TERM: lambda: estimate_constant_term(
                [4, 8, 12], 0.5, Fraction(1, 2), 3, 0
            ),
            Experiment.TYPICALITY: lambda: typicality_probe([4, 8, 12], "sqrt", 0.5, 0.1, 3, 0),
            Experiment.VARIANCE: lambda: cli.main([
                "variance", "--modes", "4,8,12", "--squeeze", "0.5", "--samples", "3",
                "--workers", "1",
            ]),
            Experiment.CONJECTURE: lambda: conjecture_probe(sq, 0, 1e-3, 3, 0, k=2),
            Experiment.MEAN_COVARIANCE: lambda: mean_covariance_check(sq, 2, 3, 0),
        }
        ladders = (Experiment.CONSTANT_TERM, Experiment.TYPICALITY, Experiment.VARIANCE)
        for experiment, run in runs.items():
            keys.clear()
            run()
            blocks = {key >> 48 for key in keys if key >> 48 != Experiment.BOOTSTRAP}
            assert blocks == {experiment}
            points = {(key >> 32) & 0xFFFF for key in keys}
            assert points == ({0, 1, 2} if experiment in ladders else {0})
            bootstrap = [key for key in keys if key >> 48 == Experiment.BOOTSTRAP]
            assert bootstrap == ([stream_namespace(Experiment.BOOTSTRAP) << 32]
                                 if experiment == Experiment.CONSTANT_TERM else [])
        capsys.readouterr()

    def test_verify_draws_in_its_own_block(self, monkeypatch):
        # the unitaries the verify suites draw themselves, Tr W at point 0 and
        # the complement checks at point 1, share no key with the suites'
        # `estimate_entropy_statistics` runs on point 0 of Experiment.ENTROPY
        from pagecurve import verify

        keys = []

        def recording(n, stream):
            keys.append(stream.stream_index)
            return sample_haar_unitary(n, stream)

        monkeypatch.setattr(verify, "sample_haar_unitary", recording)
        verify.suite_weingarten(seed=3, samples=50)
        verify.suite_montecarlo(seed=3, samples=50)
        assert len(keys) == 100
        assert {key >> 48 for key in keys} == {Experiment.VERIFY}
        assert {(key >> 32) & 0xFFFF for key in keys} == {0, 1}
