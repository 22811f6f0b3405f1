"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Statistical criteria run at fixed seeds; bands are 3-sigma (or as stated)
with the documented 2/n allowance for order-one finite-size corrections where
the reference value is asymptotic.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import pagecurve as pc
from pagecurve.analytic import log_cosh
from pagecurve.gaussian import PassiveUnitary, equal_squeezing_coupling
from pagecurve.haar import SeededStream, _haar_frame
from pagecurve.verify import F_REFERENCE, wg_orthogonality

WORKERS = 2


def criterion(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:>2}] {status}: {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def variance_stderr(col):
    """Standard error of the unbiased sample variance from the fourth moment."""
    n = len(col)
    centered = col - col.mean()
    m4 = float(np.mean(centered**4))
    s2 = float(col.var(ddof=1))
    return math.sqrt(max(m4 - s2**2 * (n - 3) / (n - 1), 0.0) / n)


@pytest.fixture(scope="module")
def plateau_samples():
    """10^4 entropy samples at r=1/2, s=0.75 for n in {20, 40, 80} (criterion 6)."""
    out = {}
    for i, n in enumerate((20, 40, 80)):
        s2, _ = pc.sample_entropies(
            pc.RunConfig(
                n=n, squeezing=pc.SqueezingConfig.equal(n, 0.75), subsystem_sizes=(n // 2,),
                samples=10_000, master_seed=606, workers=WORKERS, stream_namespace=i,
            )
        )
        out[n] = s2[:, 0]
    return out


def test_criterion_1_coefficient_exactness():
    started = time.perf_counter()
    ok = True
    for l, ref in F_REFERENCE.items():
        poly = pc.f_polynomial(l)
        expected = {d: Fraction(c) for d, c in ref.items()}
        ok = ok and poly.coefficients == expected
    elapsed = time.perf_counter() - started
    criterion(1, ok and elapsed < 1.0, f"f_1..f_8 exact, {elapsed * 1e3:.0f} ms")


def test_criterion_2_enumeration_vs_closed_form():
    started = time.perf_counter()
    ok = all(
        pc.a_ell_enumeration(l) == Fraction((-1) ** l * 4 ** (l - 1)) for l in range(1, 5)
    )
    value5 = pc.a_ell_enumeration(5)
    ok = ok and value5 == -256
    elapsed = time.perf_counter() - started
    criterion(2, ok and elapsed < 120.0, f"a(1..4) exact, a(5) = {value5}, {elapsed:.1f} s")


def test_criterion_3_closed_forms_at_half():
    ok = True
    details = []
    for s in (0.25, 0.75, 1.5):
        density = pc.page_curve_density(s, Fraction(1, 2))
        gap = abs(density - log_cosh(s))
        ok = ok and gap <= 1e-10
        details.append(f"s={s}: |density-log cosh s|={gap:.1e}")
        density, correction = pc.page_half_values(s)
        consistency = abs(density + correction - 0.5 * log_cosh(2 * s))
        ok = ok and consistency <= 1e-12
    criterion(3, ok, "; ".join(details))


def test_criterion_4_curve_reproduction():
    started = time.perf_counter()
    n, s, samples = 50, 0.75, 2000
    est = pc.estimate_entropy_statistics(
        pc.RunConfig(
            n=n,
            squeezing=pc.SqueezingConfig.equal(n, s),
            subsystem_sizes=tuple(range(n + 1)),
            samples=samples,
            master_seed=42,
            workers=WORKERS,
        )
    )
    worst_k, worst_ratio = -1, 0.0
    ok = True
    for i, k in enumerate(est.subsystem_sizes):
        predicted = pc.page_curve_prediction(n, s, k)
        band = max(3 * est.stderr_s2[i], 2.0 / n)
        gap = abs(est.mean_s2[i] - predicted)
        if gap / band > worst_ratio:
            worst_k, worst_ratio = k, gap / band
        ok = ok and gap <= band
    elapsed = time.perf_counter() - started
    criterion(
        4,
        ok and elapsed < 300.0,
        f"all 51 subsystem sizes within max(3*stderr, 2/n); worst k={worst_k} "
        f"at {worst_ratio:.2f} of band; {elapsed:.0f} s",
    )


def test_criterion_5_omega2_exact_extrapolation():
    started = time.perf_counter()
    value = pc.omega2_extrapolation([8, 16, 32, 64], Fraction(1, 2))
    elapsed = time.perf_counter() - started
    criterion(
        5,
        abs(value - 0.5) <= 1e-3 and elapsed < 60.0,
        f"omega2 = {value:.6f} (|dev| = {abs(value - 0.5):.1e}), {elapsed:.1f} s",
    )


def test_criterion_6_variance_plateau(plateau_samples):
    variances = {n: float(col.var(ddof=1)) for n, col in plateau_samples.items()}
    errors = {n: variance_stderr(col) for n, col in plateau_samples.items()}
    ok = True
    pairs = []
    for a, b in itertools.combinations(sorted(variances), 2):
        gap = abs(variances[a] - variances[b])
        # 2-sigma statistical band plus the standing 2/n allowance (relative,
        # at the smaller n) for the unquantified order-1/n drift of the
        # variance towards its n-independent limit
        band = 2 * math.hypot(errors[a], errors[b]) + (2.0 / min(a, b)) * variances[b]
        pairs.append(f"n={a}/{b}: {gap:.2e} vs {band:.2e}")
        ok = ok and gap <= band

    s2_small, _ = pc.sample_entropies(
        pc.RunConfig(
            n=60, squeezing=pc.SqueezingConfig.equal(60, 0.1), subsystem_sizes=(30,),
            samples=10_000, master_seed=661, workers=WORKERS,
        )
    )
    observed = float(s2_small[:, 0].var(ddof=1))
    reference = pc.variance_series(0.1, 0.5)  # leading coefficient 1/2 only
    band3 = 3 * variance_stderr(s2_small[:, 0])
    small_ok = abs(observed - reference) <= band3
    criterion(
        6,
        ok and small_ok,
        "; ".join(pairs) + f"; small-s: |{observed:.3e} - {reference:.3e}| vs 3sigma={band3:.1e}",
    )


def test_criterion_7_lambda_extrapolation():
    est = pc.estimate_constant_term(
        [20, 40, 80], 0.75, Fraction(1, 2), 10_000, 707, workers=WORKERS
    )
    target = 0.2139
    ok = abs(est.value - target) <= 0.02
    criterion(
        7,
        ok,
        f"lambda_hat = {est.value:.4f} +/- {est.stderr:.4f} vs {target} (tol 0.02)",
    )


def test_criterion_8_entropy_bounds_suite():
    # constructed maximizer
    n, s = 8, 0.75
    max_ok = True
    for k in range(1, 5):
        u = pc.build_max_entangling_unitary(n, k)
        sigma = pc.evolve(pc.build_initial_covariance(pc.SqueezingConfig.equal(n, s)), u)
        s2 = pc.renyi2_entropy(pc.reduce_subsystem(sigma, k))
        target = pc.max_subsystem_entropy(n, k, s, 2)
        max_ok = max_ok and abs(s2 - target) <= 1e-9

    # ordering on 10^3 random states, mixed subsystem sizes
    order_ok = True
    n2 = 10
    sigma0 = pc.build_initial_covariance(pc.SqueezingConfig.equal(n2, 0.8))
    for j in range(1000):
        u = PassiveUnitary(_haar_frame(n2, n2, SeededStream(808, j).generator()))
        sigma = pc.evolve(sigma0, u)
        k = 1 + j % (n2 - 1)
        red = pc.reduce_subsystem(sigma, k)
        s2 = pc.renyi2_entropy(red)
        s1 = pc.von_neumann_entropy(pc.symplectic_eigenvalues(red))
        order_ok = order_ok and s2 <= s1 + 1e-12 and s1 < s2 + k * (1 - math.log(2))
    criterion(
        8,
        max_ok and order_ok,
        "maximizer within 1e-9 for k=1..4 (n=8); ordering held on 1000 states (n=10)",
    )


def test_criterion_9_weingarten_engine():
    # exact orthogonality sum_tau Wg(sigma tau^-1) n^{#tau} = [sigma = id]
    orth_ok = all(wg_orthogonality(q, n) for q in (2, 3, 4) for n in (5, 9))

    swap = pc.Permutation((2, 1))
    gap = abs(pc.wg_asymptotic(swap, 50) / float(pc.wg_exact(swap, 50)) - 1.0)
    asym_ok = gap <= 5e-4

    moment = pc.haar_moment_trace_product([1], 6, 3)
    exact_ok = moment == Fraction(12, 7)
    samples = 2000
    traces = np.empty(samples)
    for j in range(samples):
        u = _haar_frame(6, 6, SeededStream(909, j).generator())
        traces[j] = pc.trace_W_powers(PassiveUnitary(u), 3, 1)[0]
    stderr = traces.std(ddof=1) / math.sqrt(samples)
    mc_gap = abs(traces.mean() - float(moment))
    mc_ok = mc_gap <= 3 * stderr
    criterion(
        9,
        orth_ok and asym_ok and exact_ok and mc_ok,
        f"orthogonality exact (q<=4, n=5,9); asymptotic gap {gap:.1e} <= 5e-4; "
        f"E Tr W = 12/7 exactly, MC gap {mc_gap:.3f} <= {3 * stderr:.3f}",
    )


def test_criterion_10_property_suite():
    ok = True
    for seed in (0, 1, 42):
        # purity symmetry: subsystem vs complementary modes
        n, s = 9, 0.7
        sigma = pc.evolve(
            pc.build_initial_covariance(pc.SqueezingConfig.equal(n, s)),
            PassiveUnitary(_haar_frame(n, n, SeededStream(seed, 0).generator())),
        )
        for k in (2, 4):
            a = pc.renyi2_entropy(pc.reduce_subsystem(sigma, k))
            b = pc.renyi2_entropy(pc.reduce_modes(sigma, range(k, n)))
            ok = ok and abs(a - b) <= 1e-9

        # series vs direct entropy at |tanh 2s| <= 0.5
        n2, k2, s2v = 8, 3, 0.25
        t = math.tanh(2 * s2v)
        u = PassiveUnitary(_haar_frame(n2, n2, SeededStream(seed, 1).generator()))
        state = pc.evolve(pc.build_initial_covariance(pc.SqueezingConfig.equal(n2, s2v)), u)
        direct = pc.renyi2_entropy(pc.reduce_subsystem(state, k2))
        L = 40
        traces = pc.trace_W_powers(u, k2, L)
        series = k2 * math.log(math.cosh(2 * s2v)) - sum(
            t ** (2 * l) / (2 * l) * traces[l - 1] for l in range(1, L + 1)
        )
        tail = n2 * t ** (2 * L + 2) / ((2 * L + 2) * (1 - t * t))
        ok = ok and abs(direct - series) <= tail + 1e-12

        # odd traces of the equal-squeezing coupling matrix vanish
        m = equal_squeezing_coupling(u, k2)
        power = m.copy()
        for _ in range(3):
            ok = ok and abs(np.trace(power)) <= 1e-9
            power = power @ m @ m

        # Haar determinism and the phase-fix bias test
        a1 = pc.sample_haar_unitary(5, SeededStream(seed, 7))
        a2 = pc.sample_haar_unitary(5, SeededStream(seed, 7))
        ok = ok and np.array_equal(a1.matrix, a2.matrix)
        fixed = np.empty(4000, dtype=complex)
        unfixed = np.empty(4000, dtype=complex)
        for j in range(4000):
            fixed[j] = pc.sample_haar_unitary(2, SeededStream(seed + 100, j)).matrix[0, 0]
            # the same Ginibre draw and QR without the phase fix
            gen = SeededStream(seed + 100, j).generator()
            re = gen.standard_normal((2, 2))
            z = (re + 1j * gen.standard_normal((2, 2))) / np.sqrt(2.0)
            unfixed[j] = np.linalg.qr(z)[0][0, 0]
        se_f = fixed.real.std(ddof=1) / math.sqrt(len(fixed))
        se_u = unfixed.real.std(ddof=1) / math.sqrt(len(unfixed))
        ok = ok and abs(fixed.real.mean()) <= 3 * se_f
        ok = ok and abs(unfixed.real.mean()) > 3 * se_u
    criterion(
        10,
        ok,
        "purity symmetry, series equivalence, odd-trace vanishing, determinism "
        "and phase-fix checks passed on seeds 0, 1, 42",
    )


def test_typicality_trend_note():
    # asymptotic typicality statements are probed as monotone trends:
    # deviation frequency at k = ceil(sqrt(n)) decays with n and respects a
    # Chebyshev-style envelope c/(n eps^2)
    records = pc.typicality_probe([25, 100, 400], "sqrt", 0.75, 0.1, 1000, 111, workers=WORKERS)
    freqs = [r.strong_deviation_frequency for r in records]
    ok = freqs[0] >= freqs[1] >= freqs[2]
    t4 = math.tanh(1.5) ** 4
    for rec in records:
        r = rec.k / rec.n
        # Chebyshev with the leading asymptotic variance, doubled for slack;
        # at k ~ sqrt(n) this is the c/(n eps^2) envelope
        envelope = 2.0 * 0.5 * t4 * (r * (1 - r)) ** 2 / rec.epsilon**2
        ok = ok and rec.strong_deviation_frequency <= min(1.0, envelope)
    weak = pc.typicality_probe([100], "ratio:0.5", 0.75, 0.1, 1000, 112, workers=WORKERS)
    ok = ok and weak[0].weak_deviation_frequency <= 0.05
    criterion(
        "note",
        ok,
        f"strong-deviation frequencies {freqs} non-increasing within envelope; "
        f"weak-deviation frequency {weak[0].weak_deviation_frequency} <= 0.05",
    )
