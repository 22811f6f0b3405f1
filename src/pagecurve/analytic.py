"""Closed forms, the Page-curve density and the exact series behind it.

Equal squeezing strength s on every mode, subsystem fraction r = k/n.  The
asymptotic mean Renyi-2 entropy per mode is

    density(s, r) = r log cosh 2s + (r/2) int log(1 - t^2 x) dmu_r(x),

where t = tanh 2s and mu_r is Wachter's law on [0, lambda_+], lambda_+ =
4r(1-r) (Wachter, Ann. Stat. 1980; Collins, PTRF 2005).  Expanding the log
gives the paper's series

    density(s, r) = sum_{l>=1} tanh(2s)^(2l) / (2l) * G_l(r),

where G_l(r) = r - f_l(r) and f_l is a polynomial with exact rational
coefficients of degrees l+1 .. 2l.  The G_l are the unique polynomials of that
shape symmetric under r -> 1-r; they approximate min(r, 1-r) from below.  The
constant (order-one) deficit of the mean entropy from n*density is

    lambda(s, r) = -1/8 * log(1 - 4 r (1-r) tanh^2(2s)).

Two routes compute the density:

* hot path: `page_curve_density` evaluates the Wachter-law integral in closed
  form, a handful of `math` calls for any r and s;
* oracle: `density_series_info` sums the series with G_l evaluated in exact
  rationals, with a rigorous tail bound.  Its budget is fixed: the tail
  bound must reach SERIES_ABS_TOL = 1e-10 within SERIES_MAX_TERMS = 10 000
  terms, or it raises TruncationError.  It costs O(L^2) big-rational
  operations for L terms and is kept to check the closed form, as are
  `f_polynomial` and `g_exact`.

All polynomial coefficients are held as exact rationals; conversion to float
happens only when a polynomial is finally evaluated.  The large coefficients
(f_8 already reaches 27300) cancel catastrophically in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, TruncationError

__all__ = [
    "DENSITY_RULE",
    "RationalPolynomial",
    "VarianceCoefficients",
    "catalan_number",
    "alpha_coefficient",
    "hypergeometric_poly",
    "f_polynomial",
    "g_polynomial",
    "g_function",
    "g_exact",
    "g_half_closed_form",
    "log_cosh",
    "page_curve_density",
    "density_series_info",
    "page_half_values",
    "page_constant_lambda",
    "page_curve_prediction",
    "variance_series",
    "unequal_small_s_prediction",
]


def catalan_number(m: int) -> int:
    """m-th Catalan number (2m)! / (m! (m+1)!), exactly."""
    if m < 0:
        raise InputError(f"Catalan number undefined for m={m}")
    return math.comb(2 * m, m) // (m + 1)


def log_cosh(x: float) -> float:
    """log(cosh(x)), stable for large |x| where cosh overflows."""
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


class RationalPolynomial:
    """Univariate polynomial with exact rational coefficients.

    Zero coefficients are never stored.  Evaluation at rational points is
    exact; `evaluate_float` does the exact Horner evaluation first and converts
    only the final value.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = {}
        for d, c in dict(coefficients).items():
            if d < 0 or d != int(d):
                raise InputError(f"invalid degree {d!r}")
            c = Fraction(c)
            if c != 0:
                coeffs[int(d)] = c
        self.coefficients = coeffs

    @property
    def degree(self) -> int:
        return max(self.coefficients, default=0)

    def coefficient(self, d: int) -> Fraction:
        return self.coefficients.get(d, Fraction(0))

    def __call__(self, r):
        """Exact Horner evaluation; `r` should be a Fraction or int."""
        acc = Fraction(0)
        for d in range(self.degree, -1, -1):
            acc = acc * r + self.coefficients.get(d, 0)
        return acc

    def evaluate_float(self, r) -> float:
        """Exact-rational Horner at `r` (floats are converted exactly), then float."""
        return float(self(_exact_fraction(r)))

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial({d - 1: d * c for d, c in self.coefficients.items() if d > 0})

    def __add__(self, other):
        out = dict(self.coefficients)
        for d, c in other.coefficients.items():
            out[d] = out.get(d, Fraction(0)) + c
        return RationalPolynomial(out)

    def __neg__(self):
        return RationalPolynomial({d: -c for d, c in self.coefficients.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(frozenset(self.coefficients.items()))

    def __repr__(self):
        terms = " + ".join(f"({c})*r^{d}" for d, c in sorted(self.coefficients.items()))
        return f"RationalPolynomial({terms or '0'})"


def _exact_fraction(r):
    """Exact rational form of `r` (float binary expansions convert losslessly)."""
    if isinstance(r, Fraction):
        return r
    if isinstance(r, int):
        return Fraction(r)
    if isinstance(r, float):
        if not math.isfinite(r):
            raise InputError(f"non-finite value {r!r}")
        return Fraction(r)
    raise InputError(f"expected a real number, got {type(r).__name__}")


def alpha_coefficient(l: int, d: int) -> Fraction:
    """Coefficient of r^d in f_l, for d in [l+1, 2l].

    Closed form: 2 (-1)^(d-l-1) C(2l-1, l-1) C(l, d-l-1) (2l-d+1) / ((d-1) d).
    """
    if l < 1:
        raise InputError(f"l must be >= 1, got {l}")
    if not (l + 1 <= d <= 2 * l):
        raise InputError(f"d={d} outside [{l + 1}, {2 * l}]")
    sign = -1 if (d - l - 1) % 2 else 1
    num = 2 * sign * math.comb(2 * l - 1, l - 1) * math.comb(l, d - l - 1) * (2 * l - d + 1)
    return Fraction(num, (d - 1) * d)


def hypergeometric_poly(m: int, b: int, c: int) -> RationalPolynomial:
    """Terminating 2F1(-m, b; c; r) expanded as an exact polynomial.

    Sum_{a=0}^{m} (-1)^a C(m, a) (c-1)! (a+b-1)! / ((b-1)! (a+c-1)!) r^a.
    Only this finite form is supported; every hypergeometric needed here
    terminates.
    """
    if m < 0 or b < 1 or c < 1:
        raise InputError("hypergeometric_poly expects m >= 0 and integer b, c >= 1")
    coeffs = {}
    for a in range(m + 1):
        sign = -1 if a % 2 else 1
        num = sign * math.comb(m, a) * math.factorial(c - 1) * math.factorial(a + b - 1)
        den = math.factorial(b - 1) * math.factorial(a + c - 1)
        coeffs[a] = Fraction(num, den)
    return RationalPolynomial(coeffs)


@lru_cache(maxsize=None)
def f_polynomial(l: int) -> RationalPolynomial:
    """Polynomial limit of the mean normalized trace of the l-th subsystem
    overlap power: degrees l+1 through 2l, built from the terminating
    hypergeometric expansion r^(l+1) C_l 2F1(1-l, l; l+2; r)."""
    if l < 1:
        raise InputError(f"l must be >= 1, got {l}")
    hyp = hypergeometric_poly(l - 1, l, l + 2)
    cl = catalan_number(l)
    return RationalPolynomial({a + l + 1: cl * coef for a, coef in hyp.coefficients.items()})


def g_polynomial(l: int) -> RationalPolynomial:
    """G_l(r) = r - f_l(r), the order-l symmetric approximation to min(r, 1-r)."""
    return RationalPolynomial({1: Fraction(1)}) - f_polynomial(l)


def g_exact(l: int, r) -> Fraction:
    """G_l at an exact rational point, exactly."""
    rq = _exact_fraction(r)
    return rq - _f_value_stream(l, rq)


def g_function(l: int, r) -> float:
    """G_l(r) evaluated by exact-rational arithmetic, converted to float last."""
    rq = _exact_fraction(r)
    if not (0 <= rq <= 1):
        raise InputError(f"r={r} outside [0, 1]")
    return float(g_exact(l, rq))


def g_half_closed_form(l: int) -> Fraction:
    """G_l(1/2) = (1 - 4^(-l) C(2l, l)) / 2, exactly."""
    return Fraction(1, 2) * (1 - Fraction(math.comb(2 * l, l), 4**l))


def _f_value_stream(l, rq):
    """f_l at exact rational rq without materializing the coefficient dict.

    Streams the terms T_i = alpha_{l+1+i} r^(l+1+i) via the exact ratio
    T_{i+1}/T_i = -(l-i-1)(l+i) / ((i+1)(l+i+2)) * r.
    """
    term = 2 * Fraction(math.comb(2 * l - 1, l - 1), l + 1) * rq ** (l + 1)
    total = term
    for i in range(l - 1):
        term *= Fraction(-(l - i - 1) * (l + i), (i + 1) * (l + i + 2)) * rq
        total += term
    return total


SERIES_ABS_TOL = 1e-10  # the tail bound `density_series_info` must reach
SERIES_MAX_TERMS = 10_000  # within this many terms


@dataclass(frozen=True)
class SeriesInfo:
    """Result of a truncated series evaluation: value plus the rigorous tail bound."""

    value: float
    tail_bound: float
    terms: int
    mode: str  # "direct" or "kink"


def _log_tail_direct(L: int, log_t2: float, t2: float) -> float:
    # tail <= t^(2L+2) / ((2L+2) (1-t^2)), from |G_l| <= 1/2
    if t2 >= 1.0:
        return math.inf
    return (L + 1) * log_t2 - math.log(2 * L + 2) - math.log1p(-t2)

def _log_tail_kink(L: int, log_t2: float) -> float:
    # tail <= t^(2L+2) / (2 sqrt(pi L)), from min(r,1-r) - G_l <= 1/(2 sqrt(pi l))
    return (L + 1) * log_t2 - math.log(2.0 * math.sqrt(math.pi * L))


def _choose_terms(log_t2: float, t2: float):
    """Smallest term count meeting SERIES_ABS_TOL under either tail bound, or None."""
    log_tol = math.log(SERIES_ABS_TOL)
    best = None
    for mode in ("direct", "kink"):

        def logb(L, mode=mode):
            if mode == "direct":
                return _log_tail_direct(L, log_t2, t2)
            return _log_tail_kink(L, log_t2)

        lo, hi = 1, SERIES_MAX_TERMS
        if logb(hi) > log_tol:
            continue
        while lo < hi:  # bounds are monotone in L; bisect for the minimum
            mid = (lo + hi) // 2
            if logb(mid) <= log_tol:
                hi = mid
            else:
                lo = mid + 1
        if best is None or lo < best[1]:
            best = (mode, lo, math.exp(logb(lo)))
    return best


def density_series_info(s: float, r) -> SeriesInfo:
    """Evaluate the mean-entropy density series with a rigorous tail bound.

    Two summation routes cover the whole squeezing range:

    * direct:  sum t^(2l) G_l(r) / (2l), tail bounded via |G_l| <= 1/2;
    * kink:    min(r,1-r) log cosh(2s) minus the deficit series in
      min(r,1-r) - G_l, whose terms decay like l^(-3/2) even as t -> 1.
      The deficit bound (1/2) 4^(-l) C(2l,l), attained at r = 1/2, makes this
      route usable at squeezing values where t^2 rounds to 1 in floats.

    The route with fewer terms wins.  If neither tail bound reaches
    SERIES_ABS_TOL within SERIES_MAX_TERMS terms, TruncationError is raised
    before any term is summed.
    """
    if not math.isfinite(s):
        raise InputError(f"squeezing must be finite, got {s}")
    rq = _exact_fraction(r)
    if not (0 <= rq <= 1):
        raise InputError(f"r={r} outside [0, 1]")
    if s == 0.0 or rq == 0 or rq == 1:
        return SeriesInfo(0.0, 0.0, 0, "direct")

    t = math.tanh(2.0 * s)
    t2 = t * t
    log_t2 = 2.0 * math.log(abs(t)) if t2 < 1.0 else 0.0
    choice = _choose_terms(log_t2, t2)
    if choice is None:
        achieved = math.exp(min(_log_tail_direct(SERIES_MAX_TERMS, log_t2, t2),
                                _log_tail_kink(SERIES_MAX_TERMS, log_t2)))
        raise TruncationError(
            f"series tail bound {achieved:.3e} > abs_tol {SERIES_ABS_TOL:.3e} "
            f"after {SERIES_MAX_TERMS} terms (s={s}, r={float(rq)})",
            achieved_bound=achieved,
            terms=SERIES_MAX_TERMS,
        )
    mode, terms, bound = choice

    rq = min(rq, 1 - rq)  # G_l is symmetric
    m = float(rq)
    tp = 1.0
    if mode == "direct":
        acc = 0.0
        for l in range(1, terms + 1):
            tp *= t2
            acc += tp * float(g_exact(l, rq)) / (2 * l)
        return SeriesInfo(acc, bound, terms, mode)
    deficit = 0.0
    for l in range(1, terms + 1):
        tp *= t2
        deficit += tp * (m - float(g_exact(l, rq))) / (2 * l)
    return SeriesInfo(m * log_cosh(2.0 * s) - deficit, bound, terms, mode)


DENSITY_RULE = "wachter-closed-form"


def page_curve_density(s: float, r) -> float:
    """Asymptotic mean Renyi-2 entropy per mode at squeezing s, fraction r.

    The Wachter-law integral in closed form.  With m = min(r, 1-r),
    lam = 4m(1-m), t = tanh 2s, A = sqrt(1 - t^2 lam) and B = |1 - 2m|,

        density = m log cosh 2s + log((1 + A)/2)/2 - B log((A + B)/(1 + B))/2.

    After x = lam sin^2 theta, dmu_m = lam cos^2 theta / (pi m (1 - x)) dtheta
    on [0, pi/2], and cos^2 theta/(1 - x) = (1 - B^2/(1 - x))/lam.  The two
    classical integrals int_0^{pi/2} log(1 - a sin^2) = pi log((1 + A)/2) and
    int_0^{pi/2} log(1 - a sin^2)/(1 - lam sin^2) = (pi/B) log((A + B)/(1 + B)),
    with a = t^2 lam, give the formula.  A^2 = sech^2 2s + t^2 B^2 and
    A - 1 = -a/(1 + A) keep every digit where t^2 lam is near 1.  At r = 1/2
    (B = 0) the value is log cosh s.
    """
    if not math.isfinite(s):
        raise InputError(f"squeezing must be finite, got {s}")
    rq = _exact_fraction(r)
    if not (0 <= rq <= 1):
        raise InputError(f"r={r} outside [0, 1]")
    m = min(rq, 1 - rq)
    lam = float(4 * m * (1 - m))
    b = float(1 - 2 * m)
    t2 = math.tanh(2.0 * s) ** 2
    e = math.exp(-4.0 * abs(s))
    a = math.sqrt(4.0 * e / (1.0 + e) ** 2 + t2 * b * b)
    a_minus_1 = -t2 * lam / (1.0 + a)
    value = float(m) * log_cosh(2.0 * s) + 0.5 * math.log1p(a_minus_1 / 2.0)
    if b > 0.0:  # the B term is 0 at B = 0, where log1p would see -1 once t^2 rounds to 1
        value -= 0.5 * b * math.log1p(a_minus_1 / (1.0 + b))
    return value


def page_half_values(s: float) -> tuple[float, float]:
    """Closed forms at r = 1/2: (density, information deficit from the maximum).

    density = log cosh s; deficit = log(1 + tanh^2 s) / 2.  Their sum is the
    maximal density log cosh(2s) / 2.
    """
    return log_cosh(s), 0.5 * math.log1p(math.tanh(s) ** 2)


def page_constant_lambda(s: float, r) -> float:
    """Order-one deficit of the mean entropy: -1/8 log(1 - 4 r(1-r) tanh^2 2s)."""
    rq = _exact_fraction(r)
    if not (0 <= rq <= 1):
        raise InputError(f"r={r} outside [0, 1]")
    rr = float(rq * (1 - rq))
    return -0.125 * math.log1p(-4.0 * rr * math.tanh(2.0 * s) ** 2)


def page_curve_prediction(n: int, s: float, k: int) -> float:
    """Asymptotic mean entropy of a k-of-n subsystem: n * density - lambda.

    Tested against Monte Carlo for s <= 1.5 only.  At larger squeezing the
    order-one term is off: at s = 5, n = 24, k = 12 the sampled mean sits
    1.47 above this prediction.
    """
    if not (0 <= k <= n) or n < 1:
        raise InputError(f"need 0 <= k <= n with n >= 1, got k={k}, n={n}")
    if k == 0 or k == n or s == 0.0:
        return 0.0
    r = Fraction(k, n)
    return n * page_curve_density(s, r) - page_constant_lambda(s, r)


@dataclass
class VarianceCoefficients:
    """Series coefficients for the asymptotic entropy variance.

    Only the d=2 coefficient 1/2 is known in closed form; higher orders can be
    supplied from the exact moment engine (see weingarten.omega2_extrapolation
    for d=2 and the trace-product moments for exploratory d >= 3).
    """

    omega: dict[int, Fraction] = field(default_factory=lambda: {2: Fraction(1, 2)})

    def __post_init__(self):
        for d in self.omega:
            if d < 2:
                raise InputError(f"variance coefficients start at d=2, got {d}")
        self.omega = {d: Fraction(c) for d, c in self.omega.items()}


def variance_series(s: float, r, coeffs: VarianceCoefficients | None = None) -> float:
    """Partial variance sum over supplied coefficients:
    sum_d omega_d tanh(2s)^(2d) (r(1-r))^d."""
    if coeffs is None:
        coeffs = VarianceCoefficients()
    rq = _exact_fraction(r)
    if not (0 <= rq <= 1):
        raise InputError(f"r={r} outside [0, 1]")
    t2 = math.tanh(2.0 * s) ** 2
    rr = float(rq * (1 - rq))
    return sum(float(c) * t2**d * rr**d for d, c in sorted(coeffs.omega.items()))


def unequal_small_s_prediction(squeezing_values, r) -> float:
    """Small-squeezing mean entropy for per-mode strengths: 2 r(1-r) sum s_i^2."""
    rq = _exact_fraction(r)
    if not (0 <= rq <= 1):
        raise InputError(f"r={r} outside [0, 1]")
    total = math.fsum(float(s) ** 2 for s in squeezing_values)
    return 2.0 * float(rq * (1 - rq)) * total
