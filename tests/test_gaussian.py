import math

import mpmath as mp
import numpy as np
import pytest

from pagecurve import (
    CovarianceMatrix,
    InputError,
    NumericalError,
    SqueezingConfig,
    SymplecticSpectrum,
    build_initial_covariance,
    build_max_entangling_unitary,
    evolve,
    max_subsystem_entropy,
    reduce_subsystem,
    renyi2_entropy,
    sample_haar_unitary,
    symplectic_eigenvalues,
    trace_W_powers,
    von_neumann_entropy,
)
from pagecurve.gaussian import PassiveUnitary, h1, reduce_modes
from pagecurve.haar import SeededStream

from conftest import dense_reduced_covariance, equal_squeezing_coupling

# high-precision constants, frozen from 30-digit evaluation
E_PLUS_1 = 2.718281828459045235360287
E_MINUS_1 = 0.367879441171442321595524
E_06 = 1.822118800390508974875368
COSH_1 = 1.543080634815243778477906
LOG_COSH_15 = 0.855440171013796749341694
COSH_15 = 2.352409615243247325767668
H1_COSH_15 = 1.130385153758191839598528
MAX_ENT_8_4_075 = 3.421760684055186997366775


class TestInitialCovariance:
    def test_vacuum_is_identity(self):
        cov = build_initial_covariance(SqueezingConfig((0.0, 0.0)))
        assert np.array_equal(cov.matrix, np.eye(4))

    def test_single_mode_values(self):
        cov = build_initial_covariance(SqueezingConfig((0.5,)))
        assert cov.matrix[0, 0] == pytest.approx(E_PLUS_1, abs=1e-14)
        assert cov.matrix[1, 1] == pytest.approx(E_MINUS_1, abs=1e-14)

    def test_opposite_squeezing_pair(self):
        cov = build_initial_covariance(SqueezingConfig((0.3, -0.3)))
        expected = np.diag([E_06, 1 / E_06, 1 / E_06, E_06])
        assert np.abs(cov.matrix - expected).max() < 1e-14

    def test_per_mode_determinant_is_one(self):
        cov = build_initial_covariance(SqueezingConfig((0.7, -1.2, 0.05)))
        for i in range(3):
            assert cov.matrix[i, i] * cov.matrix[3 + i, 3 + i] == pytest.approx(1.0, abs=1e-14)

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            SqueezingConfig((0.1, float("nan")))
        with pytest.raises(InputError):
            SqueezingConfig(())

    def test_mean_boson_number(self):
        cfg = SqueezingConfig((0.5, -0.5))
        assert cfg.mean_boson_number == pytest.approx(math.sinh(0.5) ** 2)


class TestEvolve:
    def test_identity_unitary_fixes_state(self):
        sigma0 = build_initial_covariance(SqueezingConfig((0.4, -0.2)))
        out = evolve(sigma0, PassiveUnitary(np.eye(2)))
        assert np.abs(out.matrix - sigma0.matrix).max() < 1e-14

    def test_vacuum_invariant(self, haar_matrix):
        sigma0 = build_initial_covariance(SqueezingConfig((0.0,) * 5))
        out = evolve(sigma0, PassiveUnitary(haar_matrix(5, seed=3)))
        assert np.abs(out.matrix - np.eye(10)).max() < 1e-12

    def test_determinant_preserved(self, haar_matrix):
        sigma0 = build_initial_covariance(SqueezingConfig((0.8, -0.3, 0.1, 0.6)))
        out = evolve(sigma0, PassiveUnitary(haar_matrix(4, seed=11)))
        d0 = np.linalg.det(sigma0.matrix)
        assert abs(np.linalg.det(out.matrix) - d0) / d0 < 1e-10

    def test_dimension_mismatch(self):
        sigma0 = build_initial_covariance(SqueezingConfig((0.1, 0.2)))
        with pytest.raises(InputError):
            evolve(sigma0, PassiveUnitary(np.eye(3)))


class TestReduce:
    def test_full_subsystem_unchanged(self):
        sigma0 = build_initial_covariance(SqueezingConfig((0.4, 0.1)))
        assert reduce_subsystem(sigma0, 2) is sigma0

    def test_product_state_reduction(self):
        sigma0 = build_initial_covariance(SqueezingConfig((0.7, -0.4)))
        red = reduce_subsystem(sigma0, 1)
        expected = np.diag([math.exp(1.4), math.exp(-1.4)])
        assert np.abs(red.matrix - expected).max() < 1e-14

    def test_beamsplitter_reduction(self):
        # 50:50 beamsplitter on opposite squeezers leaves a thermal mode
        u = np.array([[1, 1], [-1, 1]]) / math.sqrt(2)
        sigma = evolve(build_initial_covariance(SqueezingConfig((0.5, -0.5))), PassiveUnitary(u))
        red = reduce_subsystem(sigma, 1)
        assert np.abs(red.matrix - COSH_1 * np.eye(2)).max() < 1e-12
        oracle = dense_reduced_covariance(u.astype(complex), [0.5, -0.5], 1)
        assert np.abs(red.matrix - oracle).max() < 1e-14

    def test_out_of_range(self):
        sigma0 = build_initial_covariance(SqueezingConfig((0.1, 0.2)))
        for k in (0, 3):
            with pytest.raises(InputError):
                reduce_subsystem(sigma0, k)


class TestSymplecticSpectrum:
    def test_identity(self):
        spec = symplectic_eigenvalues(CovarianceMatrix(np.eye(6)))
        assert spec.values == (1.0, 1.0, 1.0)

    def test_single_thermal_mode(self):
        spec = symplectic_eigenvalues(CovarianceMatrix(np.diag([2.5, 2.5])))
        assert spec.values[0] == pytest.approx(2.5, abs=1e-12)

    def test_beamsplitter_mode(self):
        u = np.array([[1, 1], [-1, 1]]) / math.sqrt(2)
        sigma = evolve(build_initial_covariance(SqueezingConfig((0.5, -0.5))), PassiveUnitary(u))
        spec = symplectic_eigenvalues(reduce_subsystem(sigma, 1))
        assert spec.values[0] == pytest.approx(COSH_1, abs=1e-12)

    def test_uncertainty_violation_rejected(self):
        with pytest.raises(NumericalError):
            symplectic_eigenvalues(CovarianceMatrix(0.5 * np.eye(2)))

    def test_spectrum_type_validates(self):
        with pytest.raises(InputError):
            SymplecticSpectrum((0.5,))


class TestEntropies:
    def test_renyi2_identity(self):
        assert renyi2_entropy(CovarianceMatrix(np.eye(8))) == 0.0

    def test_renyi2_single_mode(self):
        assert renyi2_entropy(CovarianceMatrix(np.diag([3.0, 3.0]))) == pytest.approx(
            math.log(3.0), abs=1e-13
        )

    def test_renyi2_thermal_value(self):
        cov = CovarianceMatrix(COSH_15 * np.eye(2))
        assert renyi2_entropy(cov) == pytest.approx(LOG_COSH_15, abs=1e-13)

    def test_renyi2_non_pd(self):
        with pytest.raises(NumericalError):
            renyi2_entropy(CovarianceMatrix(np.diag([1.0, -1.0])))

    def test_von_neumann_pure(self):
        assert von_neumann_entropy(SymplecticSpectrum((1.0, 1.0))) == 0.0

    def test_von_neumann_value(self):
        assert von_neumann_entropy(SymplecticSpectrum((COSH_15,))) == pytest.approx(
            H1_COSH_15, abs=1e-12
        )

    def test_entropy_gap_below_limit(self):
        gap = H1_COSH_15 - LOG_COSH_15
        assert gap == pytest.approx(0.274944982744395, abs=1e-12)
        assert gap < 1 - math.log(2)

    def test_h1_continuous_at_one(self):
        assert h1(1.0) == 0.0
        assert h1(1.0 + 1e-12) < 1e-10

    def test_h1_against_mpmath(self):
        mp.mp.dps = 50
        points = [1.0 + 1e-12, 1.01, 2.0, 10.0] + [math.cosh(2.0 * s) for s in (1, 5, 8, 12, 16)]
        for x in points:
            up, dn = (mp.mpf(x) + 1) / 2, (mp.mpf(x) - 1) / 2
            exact = float(up * mp.log(up) - dn * mp.log(dn))
            assert abs(h1(x) - exact) <= 1e-15 * max(1.0, exact), x


class TestMaxEntropy:
    def test_zero_squeezing(self):
        for k in range(5):
            assert max_subsystem_entropy(4, k, 0.0, 2) == 0.0

    def test_value(self):
        assert max_subsystem_entropy(8, 4, 0.75, 2) == pytest.approx(MAX_ENT_8_4_075, abs=1e-12)

    def test_complement_symmetry(self):
        for k in range(9):
            assert max_subsystem_entropy(8, k, 0.6, 1) == pytest.approx(
                max_subsystem_entropy(8, 8 - k, 0.6, 1)
            )

    def test_bad_order(self):
        with pytest.raises(InputError):
            max_subsystem_entropy(4, 2, 0.5, 3)


class TestMaxEntanglingUnitary:
    def test_two_mode_case(self):
        u = build_max_entangling_unitary(2, 1)
        for s in (0.3, 0.75, 1.2):
            sigma = evolve(build_initial_covariance(SqueezingConfig.equal(2, s)), u)
            assert renyi2_entropy(reduce_subsystem(sigma, 1)) == pytest.approx(
                math.log(math.cosh(2 * s)), abs=1e-10
            )

    def test_reaches_maximum(self):
        u = build_max_entangling_unitary(8, 4)
        sigma = evolve(build_initial_covariance(SqueezingConfig.equal(8, 0.75)), u)
        s2 = renyi2_entropy(reduce_subsystem(sigma, 4))
        assert abs(s2 - MAX_ENT_8_4_075) < 1e-9

    def test_requires_small_subsystem(self):
        with pytest.raises(InputError):
            build_max_entangling_unitary(3, 2)

    def test_overlap_vanishes(self):
        u = build_max_entangling_unitary(9, 4)
        assert max(trace_W_powers(u, 4, 3)) <= 1e-10


class TestTraceWPowers:
    def test_identity_unitary(self):
        traces = trace_W_powers(PassiveUnitary(np.eye(5)), 3, 4)
        assert traces == pytest.approx([3.0] * 4, abs=1e-12)

    def test_full_subsystem(self, haar_matrix):
        traces = trace_W_powers(PassiveUnitary(haar_matrix(6, seed=2)), 6, 3)
        assert traces == pytest.approx([6.0] * 3, abs=1e-10)

    def test_nonnegative(self, haar_matrix):
        traces = trace_W_powers(PassiveUnitary(haar_matrix(7, seed=9)), 3, 5)
        assert min(traces) >= -1e-10


class TestCouplingMatrixIdentities:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_odd_traces_vanish_even_match(self, haar_matrix, seed):
        n, k = 12, 5
        u = PassiveUnitary(haar_matrix(n, seed=seed))
        m = equal_squeezing_coupling(u, k)
        c = (u.matrix @ u.matrix.T)[:k, :k]
        w = c @ c.conj()
        power = np.eye(2 * k)
        wj = np.eye(k, dtype=complex)
        for j in range(1, 5):
            power = power @ m @ m
            wj = wj @ w
            assert abs(np.trace(power @ m)) < 1e-9          # odd power
            assert abs(np.trace(power) - 2 * np.trace(wj).real) < 1e-9

    def test_reduced_covariance_decomposition(self, haar_matrix):
        # sigma(U) = cosh(2s) I + sinh(2s) M at equal squeezing
        n, k, s = 6, 2, 0.45
        u = PassiveUnitary(haar_matrix(n, seed=5))
        sigma = evolve(build_initial_covariance(SqueezingConfig.equal(n, s)), u)
        red = reduce_subsystem(sigma, k)
        m = equal_squeezing_coupling(u, k)
        expected = math.cosh(2 * s) * np.eye(2 * k) + math.sinh(2 * s) * m
        assert np.abs(red.matrix - expected).max() < 1e-10


class TestStateInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_purity_symmetry(self, haar_matrix, seed):
        # entropy of the first k modes equals that of the complementary n-k
        n, s = 9, 0.7
        sigma = evolve(
            build_initial_covariance(SqueezingConfig.equal(n, s)),
            PassiveUnitary(haar_matrix(n, seed=seed)),
        )
        for k in (2, 4):
            a = reduce_subsystem(sigma, k)
            b = reduce_modes(sigma, range(k, n))
            assert abs(renyi2_entropy(a) - renyi2_entropy(b)) < 1e-9
            s1a = von_neumann_entropy(symplectic_eigenvalues(a))
            s1b = von_neumann_entropy(symplectic_eigenvalues(b))
            assert abs(s1a - s1b) < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_entropy_ordering(self, haar_matrix, seed):
        n = 10
        sigma = evolve(
            build_initial_covariance(SqueezingConfig.equal(n, 0.8)),
            PassiveUnitary(haar_matrix(n, seed=seed)),
        )
        for k in (1, 3, 5, 7):
            red = reduce_subsystem(sigma, k)
            s2 = renyi2_entropy(red)
            s1 = von_neumann_entropy(symplectic_eigenvalues(red))
            assert s2 <= s1 + 1e-12
            assert s1 < s2 + k * (1 - math.log(2))

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_series_matches_direct_entropy(self, haar_matrix, seed):
        # moderate squeezing: |tanh 2s| <= 0.5 guarantees fast convergence
        n, k, s = 8, 3, 0.25
        t = math.tanh(2 * s)
        assert abs(t) <= 0.5
        u = PassiveUnitary(haar_matrix(n, seed=seed))
        sigma = evolve(build_initial_covariance(SqueezingConfig.equal(n, s)), u)
        direct = renyi2_entropy(reduce_subsystem(sigma, k))
        L = 40
        traces = trace_W_powers(u, k, L)
        series = n * (k / n) * math.log(math.cosh(2 * s)) - sum(
            t ** (2 * l) / (2 * l) * traces[l - 1] for l in range(1, L + 1)
        )
        tail = n * t ** (2 * L + 2) / ((2 * L + 2) * (1 - t * t))
        assert abs(direct - series) <= tail + 1e-12


def test_unitary_validation():
    with pytest.raises(InputError):
        PassiveUnitary(np.ones((2, 2)))


def test_covariance_symmetry_validation():
    bad = np.eye(4)
    bad[0, 1] = 1e-6
    with pytest.raises(InputError):
        CovarianceMatrix(bad)


def test_sampled_state_respects_uncertainty_bound(haar_matrix):
    # every symplectic eigenvalue of a reduced pure state stays >= 1
    sigma = evolve(
        build_initial_covariance(SqueezingConfig((0.9, -0.4, 0.2, 0.0, 1.1))),
        PassiveUnitary(haar_matrix(5, seed=8)),
    )
    for k in (1, 2, 3, 4, 5):
        spec = symplectic_eigenvalues(reduce_subsystem(sigma, k))
        assert all(nu >= 1.0 for nu in spec.values)


def test_sample_haar_unitary_is_valid_passive_unitary():
    u = sample_haar_unitary(5, SeededStream(1, 2))
    assert u.dim == 5
