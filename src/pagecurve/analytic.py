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
  operations for L terms and is kept to check the closed form.

f_l has one route: `f_polynomial(l)` collects the closed-form coefficients of
`alpha_coefficient`, and `g_exact(l, r)` is r - f_l(r).  Its independent
oracles are the transcribed table `verify.F_REFERENCE` (l <= 8), the
defining coefficient conditions and the reflection identity f_l(r) - f_l(1-r)
= 2r - 1 (tested for l <= 10), `g_half_closed_form` at r = 1/2, and the
closed form of the density, checked against the series built from G_l.

All polynomial coefficients are held as exact rationals; conversion to float
happens only when a polynomial is finally evaluated.  The large coefficients
(f_8 already reaches 27300) cancel catastrophically in floating point.

The module needs only `math`, `fractions` and `typing`, so it also holds
`SqueezingConfig`, the per-mode strengths that the CLI parses before it
knows whether a command samples; `gaussian` re-exports it.  `Record`, the
base of the value classes that check their input, lives here too, since
every module that defines one loads this one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import InputError, TruncationError

__all__ = [
    "DENSITY_RULE",
    "SqueezingConfig",
    "RationalPolynomial",
    "alpha_coefficient",
    "f_polynomial",
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


class Record:
    """Base of an immutable value class whose `__init__` checks its input.

    `__init__` stores the fields, in declared order, with
    `vars(self).update(...)`.  Equality and hashing go by the fields and the
    class, the repr names each field, and assigning or deleting an attribute
    raises AttributeError.  The plain records are `typing.NamedTuple`s.  Either
    kind takes microseconds to define.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(vars(self).values()) == tuple(vars(other).values())

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"


class SqueezingConfig(Record):
    """Per-mode squeezing strengths s_i (dimensionless): field `values`, a tuple of floats."""

    def __init__(self, values):
        values = tuple(float(v) for v in values)
        if len(values) < 1:
            raise InputError("need at least one mode")
        if not all(math.isfinite(v) for v in values):
            raise InputError(f"squeezing values must be finite, got {values}")
        vars(self).update(values=values)

    @classmethod
    def equal(cls, n: int, s: float) -> "SqueezingConfig":
        return cls((float(s),) * n)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean_boson_number(self) -> float:
        return math.fsum(math.sinh(v) ** 2 for v in self.values) / self.n


def log_cosh(x: float) -> float:
    """log(cosh(x)) within 2 ulp for every finite x (checked against mpmath).

    Below |x| = 1 it is (1/2) log1p(sinh^2 x), since |x| + log1p(e^{-2|x|})
    - log 2 cancels there (4 ulp off at 0.5, 63 at 0.1, all digits at
    1e-8); from 1 on it is the latter, where sinh^2 x would overflow.
    """
    ax = abs(x)
    if ax < 1.0:
        return 0.5 * math.log1p(math.sinh(ax) ** 2)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


class RationalPolynomial:
    """Univariate polynomial with exact rational coefficients.

    Zero coefficients are never stored.  Evaluation at rational points is
    exact.
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
        """Exact Horner evaluation; `r` should be a Fraction or int.

        Horner stops at the lowest stored degree d0 and multiplies by r^d0
        once, so f_l (degrees l+1 .. 2l) takes l steps rather than 2l.
        """
        low = min(self.coefficients, default=0)
        acc = Fraction(0)
        for d in range(self.degree, low - 1, -1):
            acc = acc * r + self.coefficients.get(d, 0)
        return acc * r**low

    def __eq__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

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


def _unit_ratio(r) -> tuple[int, int]:
    """(p, q) with r = p/q exactly and q > 0, checked to lie in [0, 1].

    The hot paths turn rationals of p and q into floats as int/int true
    divisions, which round correctly and so equal float() of the Fraction,
    without building intermediate Fractions.
    """
    rq = _exact_fraction(r)
    p, q = rq.numerator, rq.denominator
    if not 0 <= p <= q:
        raise InputError(f"r={r} outside [0, 1]")
    return p, q


def _share_product(r) -> float:
    """r (1 - r) as a correctly rounded float."""
    p, q = _unit_ratio(r)
    return p * (q - p) / (q * q)


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


@lru_cache(maxsize=None)
def f_polynomial(l: int) -> RationalPolynomial:
    """Polynomial limit of the mean normalized trace of the l-th subsystem
    overlap power: sum of alpha_coefficient(l, d) r^d over d = l+1 .. 2l."""
    if l < 1:
        raise InputError(f"l must be >= 1, got {l}")
    return RationalPolynomial({d: alpha_coefficient(l, d) for d in range(l + 1, 2 * l + 1)})


def g_exact(l: int, r) -> Fraction:
    """G_l(r) = r - f_l(r), the order-l symmetric approximation to
    min(r, 1-r), exactly at the exact rational form of r in [0, 1]."""
    rq = _exact_fraction(r)
    if not (0 <= rq <= 1):
        raise InputError(f"r={r} outside [0, 1]")
    return rq - f_polynomial(l)(rq)


def g_half_closed_form(l: int) -> Fraction:
    """G_l(1/2) = (1 - 4^(-l) C(2l, l)) / 2, exactly."""
    return Fraction(1, 2) * (1 - Fraction(math.comb(2 * l, l), 4**l))


SERIES_ABS_TOL = 1e-10  # the tail bound `density_series_info` must reach
SERIES_MAX_TERMS = 10_000  # within this many terms


class SeriesInfo(NamedTuple):
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
    p, q = _unit_ratio(r)
    mp = min(p, q - p)  # m = mp / q
    lam = 4 * mp * (q - mp) / (q * q)
    b = (q - 2 * mp) / q
    t2 = math.tanh(2.0 * s) ** 2
    e = math.exp(-4.0 * abs(s))
    a = math.sqrt(4.0 * e / (1.0 + e) ** 2 + t2 * b * b)
    a_minus_1 = -t2 * lam / (1.0 + a)
    value = mp / q * log_cosh(2.0 * s) + 0.5 * math.log1p(a_minus_1 / 2.0)
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
    """Order-one deficit of the mean entropy: -1/8 log(1 - 4 r(1-r) tanh^2 2s).

    The argument equals (1-2r)^2 + 4 r(1-r) e^{-2 log cosh 2s}.  Where
    x = 4 r(1-r) tanh^2 2s <= 1/2 the value is -1/8 log1p(-x), which keeps
    the digits of small s.  Above, the sum avoids the cancellation of 1 - x,
    which reaches 0 once tanh^2 2s rounds to 1 (s >~ 9.5 at r = 1/2); at
    r = 1/2 it is exactly 1/4 log cosh 2s.
    """
    p, q = _unit_ratio(r)
    rr = p * (q - p) / (q * q)
    x = 4.0 * rr * math.tanh(2.0 * s) ** 2
    if x <= 0.5:
        return -0.125 * math.log1p(-x)
    if 2 * p == q:
        return 0.25 * log_cosh(2.0 * s)
    gap = (q - 2 * p) ** 2 / (q * q)  # (1 - 2r)^2, correctly rounded
    return -0.125 * math.log(gap + 4.0 * rr * math.exp(-2.0 * log_cosh(2.0 * s)))


def page_curve_prediction(n: int, s: float, k: int) -> float:
    """Asymptotic mean entropy of a k-of-n subsystem: n * density - lambda.

    Tested against Monte Carlo for s <= 1.5 at r = 1/2, and at s = 5 for
    r = 1/4 (n = 24, 48, 96).  Away from r = 1/2 the transmission
    eigenvalues stay above the soft edge (1 - 2r)^2, so the order-one term
    holds at large s.  At r = 1/2 they reach the hard edge T = 0, and at
    large s the order-one term is off until n is of order e^{2s}: at s = 5,
    n = 24, k = 12 the sampled mean sits 1.47 above this prediction.
    """
    if not (0 <= k <= n) or n < 1:
        raise InputError(f"need 0 <= k <= n with n >= 1, got k={k}, n={n}")
    if k == 0 or k == n or s == 0.0:
        return 0.0
    r = Fraction(k, n)
    return n * page_curve_density(s, r) - page_constant_lambda(s, r)


def variance_series(s: float, r) -> float:
    """Partial sum omega_2 tanh(2s)^4 (r(1-r))^2 of the asymptotic variance
    sum_d omega_d (tanh^2(2s) r(1-r))^d.

    Only omega_2 = 1/2 is known in closed form; weingarten.omega2_extrapolation
    reproduces it from exact finite-n moments.
    """
    rr = _share_product(r)
    t2 = math.tanh(2.0 * s) ** 2
    return 0.5 * t2**2 * rr**2


def unequal_small_s_prediction(squeezing_values, r) -> float:
    """Small-squeezing mean entropy for per-mode strengths: 2 r(1-r) sum s_i^2."""
    rr = _share_product(r)
    total = math.fsum(float(s) ** 2 for s in squeezing_values)
    return 2.0 * rr * total
