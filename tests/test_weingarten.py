import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from pagecurve import (
    CapacityError,
    InputError,
    Permutation,
    SeededStream,
    a_ell_enumeration,
    alpha_top_enumeration,
    catalan_number,
    cycle_type,
    f_polynomial,
    haar_moment_trace_product,
    omega2_extrapolation,
    sample_haar_unitary,
    trace_W_powers,
    wg_asymptotic,
    wg_exact,
    xi_statistic,
)
from pagecurve import kernels
from pagecurve.verify import wg_orthogonality
from pagecurve.weingarten import haar_entry_moment


class TestPermutation:
    def test_identity_cycle_type(self):
        p = Permutation.identity(4)
        assert cycle_type(p) == [1, 1, 1, 1]
        assert p.transposition_distance == 0

    def test_double_transposition(self):
        p = Permutation.from_cycles(4, [(1, 2), (3, 4)])
        assert cycle_type(p) == [2, 2]
        assert p.transposition_distance == 2

    def test_four_cycle(self):
        p = Permutation.from_cycles(4, [(1, 2, 3, 4)])
        assert cycle_type(p) == [4]
        assert p.transposition_distance == 3

    def test_validation(self):
        with pytest.raises(InputError):
            Permutation((1, 1, 3))


def _brute_force_wg(q, n):
    """Independent oracle: invert the full q! x q! Gram matrix with Fractions."""
    perms = list(itertools.permutations(range(1, q + 1)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)

    def compose_inverse(sigma, tau):
        inv = [0] * q
        for pos, img in enumerate(tau):
            inv[img - 1] = pos + 1
        return tuple(sigma[inv[i] - 1] for i in range(q))

    def cycles(p):
        seen = [False] * q
        count = 0
        for s in range(q):
            if not seen[s]:
                count += 1
                j = s
                while not seen[j]:
                    seen[j] = True
                    j = p[j] - 1
        return count

    gram = [[Fraction(n ** cycles(compose_inverse(a, b))) for b in perms] for a in perms]
    rhs = [Fraction(int(p == tuple(range(1, q + 1)))) for p in perms]
    aug = [row[:] + [rhs[i]] for i, row in enumerate(gram)]
    for col in range(size):
        piv = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return {p: aug[index[p]][size] for p in perms}


class TestWgExact:
    def test_single_element(self):
        assert wg_exact(Permutation((1,)), 5) == Fraction(1, 5)

    def test_s2_values_against_direct_inversion(self):
        # [[25, 5], [5, 25]] inverted by hand gives the first column
        assert wg_exact(Permutation((1, 2)), 5) == Fraction(1, 24)
        assert wg_exact(Permutation((2, 1)), 5) == Fraction(-1, 120)
        assert wg_exact(Permutation((1, 2)), 5) == Fraction(25, 25 * 25 - 5 * 5)
        assert wg_exact(Permutation((2, 1)), 5) == Fraction(-5, 25 * 25 - 5 * 5)

    def test_full_gram_oracle_s3(self):
        oracle = _brute_force_wg(3, 6)
        for images, value in oracle.items():
            assert wg_exact(Permutation(images), 6) == value

    def test_class_invariance_s4(self):
        transpositions = [
            Permutation.from_cycles(4, [(a, b)])
            for a, b in itertools.combinations(range(1, 5), 2)
        ]
        values = {wg_exact(p, 7) for p in transpositions}
        assert len(values) == 1

    def test_requires_large_dimension(self):
        with pytest.raises(InputError):
            wg_exact(Permutation((2, 1, 3)), 2)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            wg_exact(Permutation.identity(7), 30)


class TestOrthogonality:
    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("n", [5, 9])
    def test_exact_orthogonality(self, q, n):
        assert wg_orthogonality(q, n)


class TestWgAsymptotic:
    def test_identity(self):
        assert wg_asymptotic(Permutation.identity(3), 10) == pytest.approx(1e-3, rel=1e-12)

    def test_transposition_relative_error(self):
        p = Permutation((2, 1))
        n = 50
        assert wg_asymptotic(p, n) == pytest.approx(-1.0 / n**3, rel=1e-12)
        exact = wg_exact(p, n)  # equals -1/(n^3 - n)
        assert exact == Fraction(-1, n**3 - n)
        assert abs(wg_asymptotic(p, n) / float(exact) - 1.0) <= 5e-4

    def test_three_cycle(self):
        p = Permutation.from_cycles(3, [(1, 2, 3)])
        n = 40
        assert wg_asymptotic(p, n) == pytest.approx(2.0 / n**5, rel=1e-12)
        ratio = wg_asymptotic(p, n) / float(wg_exact(p, n))
        assert abs(ratio - 1.0) < 5.0 / n**2


def _xi_brute_force(images, base):
    """Count index assignments satisfying the pairing deltas; xi = log_base."""
    q = len(images)
    half = q // 2
    edges = [(images[2 * a - 1], images[2 * a]) for a in range(1, half)]
    edges.append((images[q - 1], images[0]))
    edges = [((a - 1) // 2, (b - 1) // 2) for a, b in edges]
    count = 0
    for js in itertools.product(range(base), repeat=half):
        if all(js[a] == js[b] for a, b in edges):
            count += 1
    power = round(math.log(count, base))
    assert base**power == count
    return power


class TestXiStatistic:
    def test_swap_l1(self):
        p = Permutation((2, 1))
        assert xi_statistic(p) == 1
        assert p.transposition_distance == 1  # contributes to the constant sum

    def test_identity_l1(self):
        p = Permutation((1, 2))
        assert xi_statistic(p) == 1
        assert p.transposition_distance == 0  # condition xi == |tau| fails

    def test_identity_l2(self):
        assert xi_statistic(Permutation((1, 2, 3, 4))) == 1

    def test_odd_size_rejected(self):
        with pytest.raises(InputError):
            xi_statistic(Permutation((1, 2, 3)))

    @pytest.mark.parametrize("half", [1, 2, 3])
    def test_brute_force_oracle(self, half):
        rng = np.random.default_rng(3)
        for _ in range(40):
            images = tuple(int(x) + 1 for x in rng.permutation(2 * half))
            p = Permutation(images)
            assert xi_statistic(p) == _xi_brute_force(images, 2) == _xi_brute_force(images, 3)


class TestEnumerations:
    def test_a_ell_values(self):
        for l in range(1, 5):
            assert a_ell_enumeration(l) == Fraction((-1) ** l * 4 ** (l - 1))

    def test_alpha_top_values(self):
        assert alpha_top_enumeration(1) == 1
        assert alpha_top_enumeration(2) == -1
        assert alpha_top_enumeration(3) == 2

    def test_alpha_top_matches_polynomial_leading_coefficient(self):
        for l in range(1, 5):
            assert alpha_top_enumeration(l) == f_polynomial(l).coefficient(2 * l)
            closed = Fraction((-1) ** (l + 1) * math.comb(2 * l - 1, l - 1), 2 * l - 1)
            assert alpha_top_enumeration(l) == closed

    def test_capacity(self):
        for l in (6, 7):
            with pytest.raises(CapacityError):
                a_ell_enumeration(l)
            with pytest.raises(CapacityError):
                alpha_top_enumeration(l)
        for l in (0, -1):
            with pytest.raises(InputError):
                a_ell_enumeration(l)
            with pytest.raises(InputError):
                alpha_top_enumeration(l)


def _brute_force_pair_counts(powers):
    """Oracle for the coset-reduced count: visit every pair of S_q x S_q."""
    q = 2 * sum(powers)
    i_edges, j_edges = kernels._structural_edges(powers)
    perms = list(itertools.permutations(range(q)))
    comp_a, comp_b, invs = [], [], []
    for p in perms:
        sigma_edges = [(m, q + p[m]) for m in range(q)]
        comp_a.append(kernels._component_count(2 * q, i_edges + sigma_edges))
        comp_b.append(kernels._component_count(2 * q, j_edges + sigma_edges))
        inv = [0] * q
        for a, b in enumerate(p):
            inv[b] = a
        invs.append(inv)
    counts = {}
    for sigma, a in zip(perms, comp_a):
        for inv, b in zip(invs, comp_b):
            key = (kernels.cycle_type([sigma[inv[m]] for m in range(q)]), a, b)
            counts[key] = counts.get(key, 0) + 1
    return counts


class TestPairCounts:
    @pytest.mark.parametrize("powers", [(1,), (2,), (1, 1), (3,), (1, 2), (2, 1), (1, 1, 1)])
    def test_matches_brute_force(self, powers):
        assert kernels.moment_pair_counts(powers) == _brute_force_pair_counts(powers)


class TestTraceMoments:
    def test_hand_value(self):
        assert haar_moment_trace_product([1], 4, 2) == Fraction(6, 5)

    def test_known_formula(self):
        # E Tr W = k(k+1)/(n+1)
        for n, k in ((4, 2), (6, 3), (7, 2), (9, 5)):
            assert haar_moment_trace_product([1], n, k) == Fraction(k * (k + 1), n + 1)

    def test_full_subsystem(self):
        for n in (3, 5):
            assert haar_moment_trace_product([1], n, n) == n

    def test_monte_carlo_agreement(self):
        n, k, samples = 6, 3, 2000
        exact = float(haar_moment_trace_product([1], n, k))
        traces = np.empty(samples)
        for j in range(samples):
            u = sample_haar_unitary(n, SeededStream(13, j))
            traces[j] = trace_W_powers(u, k, 1)[0]
        stderr = traces.std(ddof=1) / math.sqrt(samples)
        assert abs(traces.mean() - exact) <= 3 * stderr

    def test_second_power_approaches_polynomial(self):
        # Richardson-extrapolate E Tr W^2 / n at r = 1/2 towards f_2(1/2)
        target = float(f_polynomial(2)(Fraction(1, 2)))
        xs, ys = [], []
        for n in (8, 16, 32):
            value = haar_moment_trace_product([2], n, n // 2)
            xs.append(Fraction(1, n))
            ys.append(value / n)
        vals = list(ys)
        for j in range(1, len(xs)):
            for i in range(len(xs) - 1, j - 1, -1):
                vals[i] = vals[i] + (vals[i] - vals[i - 1]) * (0 - xs[i]) / (xs[i] - xs[i - j])
        assert abs(float(vals[-1]) - target) < 1e-3

    def test_asymptotic_consistency(self):
        # E Tr W^l = n f_l(r) + 4^(l-1) (r(1-r))^l + O(1/n)
        for l in (1, 2):
            f = f_polynomial(l)
            for n in (16, 32, 64):
                k = n // 2
                r = Fraction(k, n)
                exact = haar_moment_trace_product([l], n, k)
                approx = n * f(r) + 4 ** (l - 1) * (r * (1 - r)) ** l
                assert abs(float(exact - approx)) <= 4.0 / n

    def test_capacity_and_validation(self):
        with pytest.raises(CapacityError):
            haar_moment_trace_product([2, 2], 10, 5)
        with pytest.raises(InputError):
            haar_moment_trace_product([1], 4, 5)
        with pytest.raises(InputError):
            haar_moment_trace_product([], 4, 2)


class TestEntryMoments:
    def test_second_moment(self):
        # E |U_11|^2 = 1/n
        for n in (2, 5, 9):
            assert haar_entry_moment((1,), (1,), (1,), (1,), n) == Fraction(1, n)

    def test_fourth_moment(self):
        # E U_11 U_22 conj(U_11) conj(U_22) = 1/(n^2 - 1)
        for n in (2, 3, 6):
            value = haar_entry_moment((1, 2), (1, 2), (1, 2), (1, 2), n)
            assert value == Fraction(1, n**2 - 1)

    def test_unbalanced_vanishes(self):
        assert haar_entry_moment((1, 1), (1, 2), (1, 1), (2, 1), 4) != 0
        assert haar_entry_moment((1, 2), (1, 1), (1, 1), (1, 2), 4) == 0


class TestOmegaTwo:
    def test_extrapolates_to_half(self):
        value = omega2_extrapolation([8, 16, 32, 64], Fraction(1, 2))
        assert abs(value - 0.5) <= 1e-3

    def test_quarter_ratio_same_limit(self):
        value = omega2_extrapolation([8, 16, 32, 64], Fraction(1, 4))
        assert abs(value - 0.5) <= 1e-3

    def test_validation(self):
        with pytest.raises(InputError):
            omega2_extrapolation([8], Fraction(1, 2))
        with pytest.raises(InputError):
            omega2_extrapolation([8, 16], Fraction(1, 3))
