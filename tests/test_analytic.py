import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pagecurve import (
    InputError,
    RationalPolynomial,
    TruncationError,
    VarianceCoefficients,
    alpha_coefficient,
    catalan_number,
    f_polynomial,
    g_function,
    page_constant_lambda,
    page_curve_density,
    page_curve_prediction,
    page_half_values,
    unequal_small_s_prediction,
    variance_series,
)
from pagecurve.analytic import (
    density_series_info,
    g_exact,
    g_half_closed_form,
    g_polynomial,
    hypergeometric_poly,
    log_cosh,
)

# frozen 30-digit evaluations
LOG_COSH_025 = 0.030929803620161371455765
LOG_COSH_075 = 0.258266097422807100082251
LOG_COSH_15 = 0.855440171013796749341694
HALF_CORR_075 = 0.169453988084091274588596
LAMBDA_075_HALF = 0.213860042753449187335423
PREDICTION_50 = 12.699444828386905816777111
VAR_LEADING_S01 = 4.74265367555712889629e-5


class TestCatalan:
    def test_small_values(self):
        assert catalan_number(0) == 1
        assert catalan_number(3) == 5

    def test_factorial_oracle(self):
        for m in range(12):
            expected = math.factorial(2 * m) // (math.factorial(m) * math.factorial(m + 1))
            assert catalan_number(m) == expected
        assert catalan_number(10) == 16796

    def test_negative(self):
        with pytest.raises(InputError):
            catalan_number(-1)


class TestRationalPolynomial:
    def test_drops_zero_coefficients(self):
        p = RationalPolynomial({0: 0, 2: Fraction(1, 3)})
        assert p.coefficients == {2: Fraction(1, 3)}

    def test_exact_evaluation(self):
        p = RationalPolynomial({1: 2, 3: Fraction(-1, 2)})
        assert p(Fraction(1, 3)) == Fraction(2, 3) - Fraction(1, 54)

    def test_evaluate_float_is_exact_then_rounded(self):
        p = RationalPolynomial({0: Fraction(1, 3)})
        assert p.evaluate_float(0.0) == float(Fraction(1, 3))

    def test_derivative(self):
        p = RationalPolynomial({3: 2, 1: 5})
        assert p.derivative() == RationalPolynomial({2: 6, 0: 5})

    def test_subtraction(self):
        x = RationalPolynomial({1: 1})
        assert (x - RationalPolynomial({1: 1})).coefficients == {}


class TestAlphaCoefficients:
    def test_examples(self):
        assert alpha_coefficient(2, 3) == 2
        assert alpha_coefficient(2, 4) == -1
        assert alpha_coefficient(8, 9) == 1430

    def test_range_validation(self):
        with pytest.raises(InputError):
            alpha_coefficient(2, 5)
        with pytest.raises(InputError):
            alpha_coefficient(2, 2)

    def test_matches_hypergeometric_route(self):
        # closed form vs terminating-series expansion, exactly
        for l in range(1, 11):
            poly = f_polynomial(l)
            for d in range(l + 1, 2 * l + 1):
                assert poly.coefficient(d) == alpha_coefficient(l, d)

    def test_condition_suite(self):
        # the four defining conditions of the coefficient family, exactly
        for l in range(1, 11):
            alphas = {d: alpha_coefficient(l, d) for d in range(l + 1, 2 * l + 1)}
            assert sum(alphas.values()) == 1
            assert sum(d * a for d, a in alphas.items()) == 2
            for d in range(2, l + 1):
                assert sum(math.comb(j, d) * alphas[j] for j in alphas) == 0
            for d in range(l + 1, 2 * l + 1):
                rhs = (-1) ** d * sum(
                    math.comb(j, d) * alphas[j] for j in range(d, 2 * l + 1)
                )
                assert alphas[d] == rhs


class TestFPolynomials:
    def test_first(self):
        assert f_polynomial(1) == RationalPolynomial({2: 1})

    def test_third(self):
        assert f_polynomial(3) == RationalPolynomial({6: 2, 5: -6, 4: 5})

    def test_reflection_identity_exact(self):
        for l in range(1, 11):
            f = f_polynomial(l)
            for r in (Fraction(1, 7), Fraction(3, 8), Fraction(9, 10)):
                assert f(r) - f(1 - r) == 2 * r - 1

    def test_hypergeometric_poly_validation(self):
        with pytest.raises(InputError):
            hypergeometric_poly(-1, 1, 1)


class TestGFunctions:
    def test_parabola_value(self):
        assert g_function(1, 0.3) == pytest.approx(0.21, abs=1e-15)

    def test_half_closed_form(self):
        assert g_half_closed_form(1) == Fraction(1, 4)
        for l in range(1, 11):
            assert g_exact(l, Fraction(1, 2)) == g_half_closed_form(l)

    def test_symmetry_exact(self):
        for l in range(1, 11):
            for r in (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7)):
                assert g_exact(l, r) == g_exact(l, 1 - r)

    @settings(max_examples=40, deadline=None)
    @given(
        l=st.integers(min_value=1, max_value=12),
        num=st.integers(min_value=0, max_value=63),
        den=st.sampled_from([64, 81, 125]),
    )
    def test_symmetry_property(self, l, num, den):
        r = Fraction(num, den)
        assert g_exact(l, r) == g_exact(l, 1 - r)

    def test_endpoint_derivative_matching(self):
        # first l derivatives of G_l match those of min(r, 1-r) at both ends:
        # value 0, slope +1 at 0 and -1 at 1, higher derivatives 0
        for l in range(1, 9):
            poly = g_polynomial(l)
            for d in range(l + 1):
                if d == 0:
                    expect_0, expect_1 = Fraction(0), Fraction(0)
                elif d == 1:
                    expect_0, expect_1 = Fraction(1), Fraction(-1)
                else:
                    expect_0, expect_1 = Fraction(0), Fraction(0)
                assert poly(Fraction(0)) == expect_0, (l, d)
                assert poly(Fraction(1)) == expect_1, (l, d)
                poly = poly.derivative()

    def test_approximates_minimum_from_below(self):
        for l in range(1, 9):
            for num in range(65):
                r = Fraction(num, 64)
                m = min(r, 1 - r)
                assert g_exact(l, r) <= m

    def test_range_validation(self):
        with pytest.raises(InputError):
            g_function(2, 1.5)


class TestDensitySeries:
    def test_zero_squeezing(self):
        for r in (0.0, 0.3, 0.5, 1.0):
            assert page_curve_density(0.0, r) == 0.0

    def test_half_value(self):
        assert page_curve_density(0.75, Fraction(1, 2)) == pytest.approx(
            LOG_COSH_075, abs=1e-10
        )

    def test_closed_form_at_half_all_squeezings(self):
        for s in (0.25, 0.75, 1.5):
            value = page_curve_density(s, Fraction(1, 2))
            assert abs(value - log_cosh(s)) <= 1e-10

    def test_small_squeezing_limit(self):
        s = 1e-3
        density = page_curve_density(s, 0.3)
        assert density / s**2 == pytest.approx(0.42, rel=1e-3)

    def test_large_squeezing_limit(self):
        # density/s -> 2 min(r, 1-r); the gap decays like 1/s and is still
        # ~3.5% at s=20 (r=1/2), dropping below 1% only near s ~ 70
        for r, target in ((Fraction(1, 2), 1.0), (Fraction(1, 5), 0.4)):
            at_20 = page_curve_density(20.0, r) / 20.0
            at_80 = page_curve_density(80.0, r) / 80.0
            assert abs(at_80 / target - 1.0) < 0.01
            assert abs(at_20 / target - 1.0) < 0.05
            assert abs(at_80 / target - 1.0) < abs(at_20 / target - 1.0)

    def test_series_truncation_error_carries_bound(self):
        # at the fixed budget (tail 1e-10 within 10 000 terms) s = 3, r = 1/2
        # is out of reach: the kink bound at 10 000 terms is still ~2e-3
        with pytest.raises(TruncationError) as err:
            density_series_info(3.0, 0.5)
        assert 1e-3 < err.value.achieved_bound < 1e-2
        assert err.value.terms == 10_000

    def test_info_reports_bound(self):
        info = density_series_info(0.5, Fraction(1, 4))
        assert 0 < info.tail_bound <= 1e-10
        assert info.terms >= 1


def scipy_density(s: float, r: float) -> float:
    """The density as a scipy quadrature of the Wachter-law integral.

    Wachter's law on [0, 4r(1-r)] has density sqrt(x (4r(1-r) - x)) /
    (2 pi r x (1 - x)); its square-root factors go into the quadrature
    weight.  At r = 1/2 the edge meets the 1/(1 - x) pole.
    """
    from scipy import integrate

    r = min(r, 1.0 - r)
    t2 = math.tanh(2.0 * s) ** 2
    edge = 4.0 * r * (1.0 - r)
    if r == 0.5:
        weight, f = (-0.5, -0.5), lambda x: math.log1p(-t2 * x)
    else:
        weight, f = (-0.5, 0.5), lambda x: math.log1p(-t2 * x) / (1.0 - x)
    value, _ = integrate.quad(
        f, 0.0, edge, weight="alg", wvar=weight, epsabs=1e-14, epsrel=1e-13, limit=200
    )
    return r * log_cosh(2.0 * s) + value / (4.0 * math.pi)


FIFTIETHS = [Fraction(k, 50) for k in range(1, 50)]


class TestDensityRule:
    def test_matches_exact_series(self):
        for s in (0.1, 0.25, 0.5, 0.75):
            for r in FIFTIETHS[:25]:  # both routes are symmetric in r -> 1-r
                gap = abs(page_curve_density(s, r) - density_series_info(s, r).value)
                assert gap <= 1e-10, (s, r, gap)

    def test_matches_scipy_quadrature(self):
        cases = [(1.5, r) for r in FIFTIETHS]
        cases += [(5.0, Fraction(k, 8)) for k in range(1, 8)]
        cases += [(5.0, Fraction(k, 24)) for k in range(1, 24)]
        for s, r in cases:
            gap = abs(page_curve_density(s, r) - scipy_density(s, float(r)))
            assert gap <= 1e-10, (s, r, gap)

    def test_matches_closed_form(self):
        # the series at r within 1/(2n) of 1/2, where B = |1 - 2r| is small
        for s in (0.1, 0.75):
            for n in (399, 2001, 10001):
                r = Fraction(n // 2, n)
                gap = abs(page_curve_density(s, r) - density_series_info(s, r).value)
                assert gap <= 1e-10, (s, n, gap)

    def test_closed_form_at_half(self):
        # B = 0: log cosh s from the formula itself, also where tanh^2 2s rounds to 1
        for s in (1e-3, 0.75, 5.0, 19.0, 25.0, 100.0, 400.0):
            assert abs(page_curve_density(s, Fraction(1, 2)) - log_cosh(s)) <= 1e-13, s

    @settings(max_examples=60, deadline=None)
    @given(num=st.integers(min_value=1, max_value=199), den=st.integers(min_value=2, max_value=200),
           s=st.floats(min_value=0.01, max_value=8.0))
    def test_symmetry_and_bounds(self, num, den, s):
        r = Fraction(num % den or 1, den)
        value = page_curve_density(s, r)
        assert value == page_curve_density(s, 1 - r)
        assert 0.0 <= value <= float(min(r, 1 - r)) * log_cosh(2.0 * s)

    @settings(max_examples=60, deadline=None)
    @given(num=st.integers(min_value=1, max_value=99), s=st.floats(min_value=0.01, max_value=6.0),
           step=st.floats(min_value=1e-3, max_value=2.0))
    def test_monotone_in_squeezing(self, num, s, step):
        r = Fraction(num, 100)
        assert page_curve_density(s + step, r) >= page_curve_density(s, r)

    @settings(max_examples=60, deadline=None)
    @given(num=st.integers(min_value=1, max_value=199), s=st.floats(min_value=1e-4, max_value=1e-2))
    def test_small_squeezing_limit(self, num, s):
        # density = 2 r (1-r) s^2 (1 + c s^2 + ...) with |c| < 2/3
        r = Fraction(num, 200)
        value = page_curve_density(s, r)
        ratio = value / (2.0 * float(r * (1 - r)) * s * s)
        assert abs(ratio - 1.0) <= s * s + 1e-9


class TestHalfClosedForms:
    def test_zero(self):
        assert page_half_values(0.0) == (0.0, 0.0)

    def test_values(self):
        density, correction = page_half_values(0.75)
        assert density == pytest.approx(LOG_COSH_075, abs=1e-14)
        assert correction == pytest.approx(HALF_CORR_075, abs=1e-14)

    def test_sum_is_max_density(self):
        for s in (0.25, 0.75, 1.5):
            density, correction = page_half_values(s)
            assert abs(density + correction - 0.5 * log_cosh(2 * s)) < 1e-12


class TestConstantLambda:
    def test_zero(self):
        assert page_constant_lambda(0.0, 0.3) == 0.0

    def test_half_value(self):
        assert page_constant_lambda(0.75, 0.5) == pytest.approx(LAMBDA_075_HALF, abs=1e-14)
        assert page_constant_lambda(0.75, 0.5) == pytest.approx(
            0.25 * log_cosh(1.5), abs=1e-14
        )

    def test_symmetry(self):
        # exact complements (rationals) give bitwise-equal values
        for r in (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)):
            assert page_constant_lambda(0.6, r) == page_constant_lambda(0.6, 1 - r)
        assert page_constant_lambda(0.6, 0.25) == page_constant_lambda(0.6, 0.75)

    def test_nonnegative(self):
        for s in (0.1, 1.0, 5.0):
            for r in (0.05, 0.5, 0.95):
                assert page_constant_lambda(s, r) >= 0.0


class TestPrediction:
    def test_trivial_zero(self):
        assert page_curve_prediction(10, 0.75, 0) == 0.0
        assert page_curve_prediction(10, 0.0, 5) == 0.0

    def test_value(self):
        assert page_curve_prediction(50, 0.75, 25) == pytest.approx(
            PREDICTION_50, abs=1e-9
        )

    def test_complement_symmetry(self):
        for k in range(0, 21):
            a = page_curve_prediction(20, 0.6, k)
            b = page_curve_prediction(20, 0.6, 20 - k)
            assert a == pytest.approx(b, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InputError):
            page_curve_prediction(10, 0.5, 11)


class TestVarianceSeries:
    def test_zero(self):
        assert variance_series(0.0, 0.5) == 0.0

    def test_leading_value(self):
        assert variance_series(0.1, 0.5) == pytest.approx(VAR_LEADING_S01, rel=1e-12)

    def test_symmetry(self):
        assert variance_series(0.4, Fraction(3, 10)) == variance_series(0.4, Fraction(7, 10))
        assert variance_series(0.4, 0.25) == variance_series(0.4, 0.75)

    def test_extra_coefficients(self):
        coeffs = VarianceCoefficients({2: Fraction(1, 2), 3: Fraction(2)})
        base = variance_series(0.3, 0.5)
        extended = variance_series(0.3, 0.5, coeffs)
        t2 = math.tanh(0.6) ** 2
        assert extended - base == pytest.approx(2 * t2**3 * 0.25**3, rel=1e-12)

    def test_coefficient_validation(self):
        with pytest.raises(InputError):
            VarianceCoefficients({1: Fraction(1)})


class TestUnequalSmallSqueezing:
    def test_zero(self):
        assert unequal_small_s_prediction([0.0, 0.0], 0.4) == 0.0

    def test_value(self):
        assert unequal_small_s_prediction([0.01, 0.02], 0.5) == pytest.approx(2.5e-4, rel=1e-12)

    def test_constant_boson_scaling(self):
        # s_i = c/sqrt(n): prediction approaches 2 r (1-r) N with
        # N = sum sinh^2(s_i), since sinh^2(x) = x^2 + O(x^4)
        c, r = 0.3, 0.25
        for n in (10, 100, 1000):
            values = [c / math.sqrt(n)] * n
            predicted = unequal_small_s_prediction(values, r)
            boson_number = sum(math.sinh(v) ** 2 for v in values)
            target = 2 * r * (1 - r) * boson_number
            assert abs(predicted - target) <= 2 * r * boson_number * (c**2 / n)


def test_log_cosh_stable():
    assert log_cosh(0.0) == 0.0
    assert log_cosh(700.0) == pytest.approx(700.0 - math.log(2.0), rel=1e-15)
    assert log_cosh(1.5) == pytest.approx(LOG_COSH_15, abs=1e-14)
