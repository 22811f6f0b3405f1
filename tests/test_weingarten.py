import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from pagecurve import (
    CapacityError,
    InputError,
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
)
from pagecurve import kernels, weingarten
from pagecurve.verify import wg_orthogonality


class TestPermutation:
    """Permutations are tuples of the images of 0..q-1."""

    def test_identity_cycle_type(self):
        ct = cycle_type((0, 1, 2, 3))
        assert ct == (1, 1, 1, 1)
        assert 4 - len(ct) == 0  # transposition distance

    def test_double_transposition(self):
        ct = cycle_type((1, 0, 3, 2))
        assert ct == (2, 2)
        assert 4 - len(ct) == 2

    def test_four_cycle(self):
        ct = cycle_type((1, 2, 3, 0))
        assert ct == (4,)
        assert 4 - len(ct) == 3


def _brute_force_wg(q, n):
    """Independent oracle: invert the full q! x q! Gram matrix with Fractions."""
    perms = list(itertools.permutations(range(q)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)

    def compose_inverse(sigma, tau):
        inv = [0] * q
        for pos, img in enumerate(tau):
            inv[img] = pos
        return tuple(sigma[inv[i]] for i in range(q))

    def cycles(p):
        seen = [False] * q
        count = 0
        for s in range(q):
            if not seen[s]:
                count += 1
                j = s
                while not seen[j]:
                    seen[j] = True
                    j = p[j]
        return count

    gram = [[Fraction(n ** cycles(compose_inverse(a, b))) for b in perms] for a in perms]
    rhs = [Fraction(int(p == tuple(range(q)))) for p in perms]
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


def _gram_class_table(q, n):
    """Oracle for weingarten.wg_class_table: exact Gaussian elimination of the
    class-resolved Gram system sum_tau n^{#(sigma tau^-1)} Wg(tau) = [sigma == id]."""
    by_type = {}
    for p in itertools.permutations(range(q)):
        by_type.setdefault(cycle_type(p), []).append(p)
    classes = sorted(by_type)
    m = len(classes)
    rows = []
    for c in classes:
        rep = by_type[c][0]
        row = []
        for c2 in classes:
            total = 0
            for tau in by_type[c2]:
                inv = [0] * q
                for a, b in enumerate(tau):
                    inv[b] = a
                total += n ** len(cycle_type([rep[inv[i]] for i in range(q)]))
            row.append(Fraction(total))
        rows.append(row)
    identity_class = classes.index(tuple([1] * q))
    aug = [row + [Fraction(int(i == identity_class))] for i, row in enumerate(rows)]
    for col in range(m):
        piv = next(r for r in range(col, m) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return {c: aug[i][m] for i, c in enumerate(classes)}


class TestWgExact:
    def test_single_element(self):
        assert wg_exact((1,), 5) == Fraction(1, 5)

    def test_s2_values_against_direct_inversion(self):
        # [[25, 5], [5, 25]] inverted by hand gives the first column
        assert wg_exact((1, 1), 5) == Fraction(1, 24)
        assert wg_exact((2,), 5) == Fraction(-1, 120)
        assert wg_exact((1, 1), 5) == Fraction(25, 25 * 25 - 5 * 5)
        assert wg_exact((2,), 5) == Fraction(-5, 25 * 25 - 5 * 5)

    def test_full_gram_oracle_s3(self):
        # every permutation's oracle value is the value of its cycle type
        oracle = _brute_force_wg(3, 6)
        for images, value in oracle.items():
            assert wg_exact(cycle_type(images), 6) == value

    def test_class_invariance_s4(self):
        # the full 24 x 24 inversion is constant on each class
        oracle = _brute_force_wg(4, 7)
        for images, value in oracle.items():
            assert wg_exact(cycle_type(images), 7) == value
        assert wg_exact((1, 2, 1), 7) == wg_exact((2, 1, 1), 7)

    @pytest.mark.parametrize("q", range(1, 7))
    def test_character_table_matches_gram_elimination(self, q):
        for n in sorted({q, q + 1, 12, 50}):
            table = weingarten.wg_class_table(q, n)
            oracle = _gram_class_table(q, n)
            assert table == oracle
            assert list(table) == list(oracle)

    def test_requires_large_dimension(self):
        with pytest.raises(InputError):
            wg_exact((2, 1), 2)

    def test_capacity_limit(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("table built before the capacity check")

        monkeypatch.setattr(weingarten, "wg_class_table", no_table)
        with pytest.raises(CapacityError):
            wg_exact((1,) * 7, 30)

    @pytest.mark.parametrize("lengths", [(), (2, 0), (3, -1), (2.5,)],
                             ids=["empty", "zero", "negative", "fraction"])
    def test_invalid_cycle_lengths_rejected(self, lengths):
        with pytest.raises(InputError):
            wg_exact(lengths, 8)
        with pytest.raises(InputError):
            wg_asymptotic(lengths, 8)


class TestOrthogonality:
    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("n", [5, 9])
    def test_exact_orthogonality(self, q, n):
        assert wg_orthogonality(q, n)


class TestWgAsymptotic:
    def test_identity(self):
        assert wg_asymptotic((1, 1, 1), 10) == pytest.approx(1e-3, rel=1e-12)

    def test_transposition_relative_error(self):
        n = 50
        assert wg_asymptotic((2,), n) == pytest.approx(-1.0 / n**3, rel=1e-12)
        exact = wg_exact((2,), n)  # equals -1/(n^3 - n)
        assert exact == Fraction(-1, n**3 - n)
        assert abs(wg_asymptotic((2,), n) / float(exact) - 1.0) <= 5e-4

    def test_three_cycle(self):
        n = 40
        assert wg_asymptotic((3,), n) == pytest.approx(2.0 / n**5, rel=1e-12)
        ratio = wg_asymptotic((3,), n) / float(wg_exact((3,), n))
        assert abs(ratio - 1.0) < 5.0 / n**2


def _xi_brute_force(images, base):
    """Count index assignments satisfying the pairing deltas; xi = log_base."""
    q = len(images)
    half = q // 2
    edges = [(images[2 * a - 1], images[2 * a]) for a in range(1, half)]
    edges.append((images[q - 1], images[0]))
    edges = [(a // 2, b // 2) for a, b in edges]
    count = 0
    for js in itertools.product(range(base), repeat=half):
        if all(js[a] == js[b] for a, b in edges):
            count += 1
    power = round(math.log(count, base))
    assert base**power == count
    return power


def _condition_sum_brute_force(half, offset, base):
    """Oracle for kernels.xi_condition_sum with xi from index counting."""
    total = 0
    for p in itertools.permutations(range(2 * half)):
        lengths = cycle_type(p)
        if _xi_brute_force(p, base) == 2 * half - len(lengths) + offset:
            term = math.prod(catalan_number(ln - 1) for ln in lengths)
            total += (-1) ** len(lengths) * term
    return total


def _xi_condition_sum_streaming(half, offset):
    """Oracle for kernels.xi_condition_sum: stream S_{2 half}, with xi from a
    union-find over the pairing graph."""
    q = 2 * half
    total = 0
    for p in itertools.permutations(range(q)):
        parent = list(range(half))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a in range(half):
            parent[find(p[2 * a - 1] // 2)] = find(p[2 * a] // 2)
        xi = sum(1 for v in range(half) if parent[v] == v)
        lengths = cycle_type(p)
        if xi == q - len(lengths) + offset:
            term = math.prod(catalan_number(ln - 1) for ln in lengths)
            total += (-1) ** len(lengths) * term
    return total


class TestXiStatistic:
    """The pairing-graph statistic xi as the condition sums compute it."""

    @pytest.mark.parametrize("half", [1, 2, 3])
    def test_brute_force_oracle(self, half):
        for offset in (0, 1):
            expected = kernels.xi_condition_sum(half, offset)
            assert expected == _condition_sum_brute_force(half, offset, 2)
            assert expected == _condition_sum_brute_force(half, offset, 3)

    @pytest.mark.parametrize("offset", [0, 1])
    def test_streaming_oracle_half_four(self, offset):
        assert kernels.xi_condition_sum(4, offset) == _xi_condition_sum_streaming(4, offset)


class TestEnumerations:
    def test_a_ell_values(self):
        for l in range(1, 6):
            assert a_ell_enumeration(l) == Fraction((-1) ** l * 4 ** (l - 1))

    def test_alpha_top_values(self):
        assert alpha_top_enumeration(1) == 1
        assert alpha_top_enumeration(2) == -1
        assert alpha_top_enumeration(3) == 2
        assert alpha_top_enumeration(5) == 14

    def test_alpha_top_matches_polynomial_leading_coefficient(self):
        for l in range(1, 6):
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


def _structural_edges(powers):
    """Trace-product delta patterns: (row-index edges, column-index edges).

    Nodes 0..q-1 are the plain indices, q..2q-1 their conjugates.  Each power
    block of length 2l contributes the cyclic row chain and the adjacent
    column pairs of one trace factor.
    """
    q = 2 * sum(powers)
    i_edges = []
    j_edges = []
    o = 0
    for l in powers:
        m2 = 2 * l
        i_edges.append((q + o + m2 - 1, o))
        for t in range(1, m2):
            i_edges.append((q + o + t - 1, o + t))
        for t in range(0, m2, 2):
            j_edges.append((o + t, o + t + 1))
            j_edges.append((q + o + t, q + o + t + 1))
        o += m2
    return i_edges, j_edges


def _component_count(n_nodes, edges):
    parent = list(range(n_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return sum(1 for i in range(n_nodes) if find(i) == i)


def _brute_force_pair_counts(powers):
    """Oracle for the coset-reduced count: visit every pair of S_q x S_q."""
    q = 2 * sum(powers)
    i_edges, j_edges = _structural_edges(powers)
    perms = list(itertools.permutations(range(q)))
    comp_a, comp_b, invs = [], [], []
    for p in perms:
        sigma_edges = [(m, q + p[m]) for m in range(q)]
        comp_a.append(_component_count(2 * q, i_edges + sigma_edges))
        comp_b.append(_component_count(2 * q, j_edges + sigma_edges))
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


def _neville_at_zero(ladder, values):
    """Exact polynomial extrapolation in 1/n of values on the n ladder to 1/n = 0."""
    xs = [Fraction(1, n) for n in ladder]
    vals = list(values)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            vals[i] = vals[i] + (vals[i] - vals[i - 1]) * (0 - xs[i]) / (xs[i] - xs[i - j])
    return vals[-1]


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
        ladder = (8, 16, 32)
        values = [haar_moment_trace_product([2], n, n // 2) / n for n in ladder]
        assert abs(float(_neville_at_zero(ladder, values)) - target) < 1e-3

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


class TestOmegaThree:
    """The t^6 coefficient of Var S2 is Cov(Tr W, Tr W^2) / 4; divided by
    (r(1-r))^3 its n -> infinity limit is omega_3 = 2."""

    @pytest.mark.parametrize("r", [Fraction(1, 4), Fraction(1, 2)], ids=["quarter", "half"])
    def test_extrapolates_to_two(self, r):
        ladder = (8, 16, 24, 32, 48, 64)
        estimates = []
        for n in ladder:
            k = int(r * n)
            cov = (haar_moment_trace_product([1, 2], n, k)
                   - haar_moment_trace_product([1], n, k) * haar_moment_trace_product([2], n, k))
            estimates.append(cov / (4 * (r * (1 - r)) ** 3))
        assert abs(float(_neville_at_zero(ladder, estimates)) - 2) <= 1e-4
