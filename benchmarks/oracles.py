"""Reference values computed apart from pagecurve.

Nothing here imports the package under test.  The Page-curve density comes
from a scipy quadrature of the Wachter-law integral instead of the exact
rational series; the Haar unitaries come from this file's own QR sampler.

numpy and scipy are imported inside the functions that use them.  The
benchmark process must stay small while it starts CLI processes: Linux carries
a process's peak RSS across exec, so a large parent would set a floor under
every child's reported peak.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


def log_cosh(x: float) -> float:
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


@functools.lru_cache(maxsize=None)
def wachter_density(s: float, r: float) -> float:
    """Mean Renyi-2 entropy per mode as a spectral integral.

    density = r log cosh 2s + (r/2) int log(1 - t^2 x) dmu_r(x), t = tanh 2s,
    where mu_r is Wachter's law of pqp for two free projections of trace r,
    supported on [0, 4r(1-r)] with density
    sqrt(x (4r(1-r) - x)) / (2 pi r x (1 - x)).  The density is symmetric
    under r -> 1 - r, so the integral is taken at min(r, 1 - r).
    """
    from scipy import integrate

    r = min(r, 1.0 - r)
    if r <= 0.0 or s == 0.0:
        return 0.0
    t2 = math.tanh(2.0 * s) ** 2
    edge = 4.0 * r * (1.0 - r)
    # x^(-1/2) (edge - x)^(1/2) goes into the quadrature weight; at r = 1/2 the
    # edge meets the 1/(1 - x) pole and the weight becomes x^(-1/2) (1 - x)^(-1/2).
    if r == 0.5:
        weight, f = (-0.5, -0.5), lambda x: math.log1p(-t2 * x)
    else:
        weight, f = (-0.5, 0.5), lambda x: math.log1p(-t2 * x) / (1.0 - x)
    value, _ = integrate.quad(
        f, 0.0, edge, weight="alg", wvar=weight, epsabs=1e-14, epsrel=1e-13, limit=200
    )
    return r * log_cosh(2.0 * s) + 0.5 * r * value / (2.0 * math.pi * r)


def self_check() -> list[str]:
    """The quadrature against closed forms it must reproduce."""
    from scipy import integrate

    out = []
    for r in (0.1, 0.3, 0.48):
        edge = 4.0 * r * (1.0 - r)
        mass, _ = integrate.quad(lambda x: 1.0 / (1.0 - x), 0.0, edge, weight="alg",
                                 wvar=(-0.5, 0.5), epsabs=1e-14, epsrel=1e-13, limit=200)
        if abs(mass / (2.0 * math.pi * r) - 1.0) > 1e-10:
            out.append(f"Wachter law at r={r} has mass {mass / (2.0 * math.pi * r)}")
    for s in (0.25, 0.75, 1.0, 3.0):
        if abs(wachter_density(s, 0.5) - log_cosh(s)) > 1e-12:
            out.append(f"quadrature at r=1/2, s={s} is not log cosh s")
    s = 1e-3
    for r in (0.1, 0.3, 0.5):
        small = 2.0 * r * (1.0 - r) * s * s
        if abs(wachter_density(s, r) / small - 1.0) > 1e-5:
            out.append(f"quadrature at s={s}, r={r} is not 2 r (1-r) s^2")
    return out


def page_lambda(s: float, r: float) -> float:
    """Order-one deficit -1/8 log(1 - 4 r (1 - r) tanh^2 2s)."""
    return -0.125 * math.log1p(-4.0 * r * (1.0 - r) * math.tanh(2.0 * s) ** 2)


def page_total(n: int, s: float, k: int) -> float:
    """Asymptotic mean S2 of k of n equally squeezed modes: n density - lambda."""
    if k == 0 or k == n:
        return 0.0
    r = k / n
    return n * wachter_density(s, r) - page_lambda(s, r)


def max_entropy_bound(k: int, n: int, s_max: float) -> float:
    """min(k, n - k) log cosh 2 s_max bounds S2 of any k modes for every U.

    Williamson gives sum nu_i <= Tr sigma_A / 2 <= k cosh 2 s_max, and by
    AM-GM sum log nu_i <= k log cosh 2 s_max; purity gives the same with n - k.
    """
    return min(k, n - k) * log_cosh(2.0 * s_max)


def leading_variance(s: float, r: float) -> float:
    """Leading large-n variance of S2: omega_2 t^4 (r (1 - r))^2, omega_2 = 1/2."""
    return 0.5 * math.tanh(2.0 * s) ** 4 * (r * (1.0 - r)) ** 2


def a_ell(l: int) -> Fraction:
    """Constant-order coefficient in closed form: (-1)^l 4^(l-1)."""
    return Fraction((-1) ** l * 4 ** (l - 1))


def mean_trace_w(n: int, k: int) -> Fraction:
    """E Tr W = k (k + 1) / (n + 1) for W = Pi C Pi conj(C) Pi, C = U U^T."""
    return Fraction(k * (k + 1), n + 1)


def haar_unitaries(n: int, count: int, rng):
    """Stack of Haar unitaries: QR of complex Ginibre matrices, phases fixed."""
    import numpy as np

    z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))) / math.sqrt(2.0)
    q, rr = np.linalg.qr(z)
    d = np.diagonal(rr, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


@functools.lru_cache(maxsize=None)
def w_power_traces(n: int, k: int, max_power: int, count: int, seed: int):
    """Tr W^p for p = 1..max_power over `count` Haar U; W = Pi C Pi conj(C) Pi, C = U U^T."""
    import numpy as np

    u = haar_unitaries(n, count, np.random.default_rng(seed))
    ck = (u @ np.swapaxes(u, 1, 2))[:, :k, :k]
    w = ck @ ck.conj()
    out, power = [], w
    for _ in range(max_power):
        out.append(np.trace(power, axis1=1, axis2=2).real)
        power = power @ w
    return np.array(out)
