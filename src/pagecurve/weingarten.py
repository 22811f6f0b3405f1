"""Exact Weingarten calculus and the permutation combinatorics behind the
entropy coefficients.

Everything here is exact: Weingarten values come from the character expansion
of Collins and Sniady (the exact inversion of the class-resolved Gram system
n^{#(sigma tau^-1)} is its test oracle), moments of traces of the subsystem
overlap matrix W are assembled from integer pair counts, and signed sums over
S_{2l}, taken by coset type, verify the coefficient closed forms
independently of the series machinery in pagecurve.analytic, which this
module does not import.

The Weingarten function depends on a permutation only through its cycle
type, so values are keyed by cycle type: `wg_exact` and `wg_asymptotic` take
the cycle lengths in any order, and `wg_class_table` holds one value per
ascending length tuple, the form `kernels.cycle_type` returns for a
permutation of 0..q-1.

Capacity limits keep runtimes desk-scale and are checked before any work
starts.  They are fixed constants; no environment variable is read.
Weingarten values and moments allow q <= DEFAULT_MAX_Q = 6 (q = 2*sum(powers)
for a trace moment), and the enumerations over S_{2l} allow 1 <= l <= 5
(InputError below, CapacityError above).  The matching sums live in
pagecurve.kernels and are called through that module's attributes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import kernels
from .errors import CapacityError, InputError

__all__ = [
    "catalan_number",
    "wg_exact",
    "wg_asymptotic",
    "wg_class_table",
    "a_ell_enumeration",
    "alpha_top_enumeration",
    "haar_moment_trace_product",
    "omega2_estimates",
    "omega2_extrapolation",
    "DEFAULT_MAX_Q",
    "DEFAULT_MAX_ENUMERATION",
]

DEFAULT_MAX_Q = 6
DEFAULT_MAX_ENUMERATION = 5


def catalan_number(m: int) -> int:
    """m-th Catalan number (2m)! / (m! (m+1)!), exactly."""
    if m < 0:
        raise InputError(f"Catalan number undefined for m={m}")
    return math.comb(2 * m, m) // (m + 1)


def _check_q(q: int, what: str):
    """CapacityError for q beyond DEFAULT_MAX_Q, before any table is built."""
    if q > DEFAULT_MAX_Q:
        raise CapacityError(f"{what} needs q = {q} > capacity q <= {DEFAULT_MAX_Q}")


def _cycle_lengths(cycle_type) -> tuple[int, ...]:
    """Ascending cycle lengths, each an integer >= 1 (InputError otherwise)."""
    lengths = tuple(sorted(cycle_type))
    if not lengths:
        raise InputError("a cycle type needs at least one cycle length")
    for x in lengths:
        if x != int(x):
            raise InputError(f"cycle lengths must be integers, got {x}")
    if lengths[0] < 1:
        raise InputError(f"cycle lengths must be >= 1, got {lengths[0]}")
    return tuple(int(x) for x in lengths)


def _partitions(q: int, top: int):
    """Partitions of q into parts <= top, in descending order."""
    if q == 0:
        yield ()
    for first in range(min(q, top), 0, -1):
        for rest in _partitions(q - first, first):
            yield (first,) + rest


def _character(beta: frozenset, mu: tuple[int, ...]) -> int:
    """Irreducible character at cycle lengths mu of the partition whose beta
    set (first-column hook lengths) is `beta`, by Murnaghan-Nakayama: removing
    a border strip of length r moves one bead from b to b - r, with the sign
    of the number of beads it passes."""
    if not mu:
        return 1
    r, total = mu[0], 0
    for b in beta:
        if b >= r and b - r not in beta:
            sign = -1 if sum(b - r < c < b for c in beta) % 2 else 1
            total += sign * _character(beta - {b} | {b - r}, mu[1:])
    return total


@lru_cache(maxsize=None)
def wg_class_table(q: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """Exact Weingarten values for S_q at dimension n, one per cycle type.

    Uses the character expansion of Collins and Sniady (Comm. Math. Phys.
    264, 2006): Wg(mu, n) = (1/q!) sum_{lambda |- q} chi_lambda(1)
    chi_lambda(mu) / prod_{boxes of lambda} (n + content), with the
    characters from the Murnaghan-Nakayama rule.  It equals the inverse of
    the class-resolved Gram system sum_tau n^{#(sigma tau^-1)} Wg(tau) =
    [sigma == id], whose exact Gaussian elimination is the oracle of
    tests/test_weingarten.py.
    """
    if q < 1:
        raise InputError(f"q must be >= 1, got {q}")
    if n < q:
        raise InputError(f"need n >= q for an invertible Gram system, got n={n} < q={q}")
    classes = sorted(tuple(sorted(mu)) for mu in _partitions(q, q))
    table = dict.fromkeys(classes, Fraction(0))
    for lam in _partitions(q, q):
        beta = frozenset(part + len(lam) - 1 - i for i, part in enumerate(lam))
        dim = _character(beta, (1,) * q)
        contents = math.prod(n + j - i for i, part in enumerate(lam) for j in range(part))
        for mu in classes:
            table[mu] += Fraction(dim * _character(beta, mu), contents)
    return {mu: value / math.factorial(q) for mu, value in table.items()}


def wg_exact(cycle_type, n: int) -> Fraction:
    """Exact Weingarten value Wg(sigma, n) for sigma of the given cycle lengths."""
    lengths = _cycle_lengths(cycle_type)
    q = sum(lengths)
    _check_q(q, "Weingarten value")
    return wg_class_table(q, n)[lengths]


def wg_asymptotic(cycle_type, n: int) -> float:
    """Leading large-n term n^(-q-|sigma|) prod (-1)^(len-1) C_{len-1} over the
    cycles, where |sigma| = q - #cycles is the transposition distance."""
    lengths = _cycle_lengths(cycle_type)
    coeff = 1
    for ln in lengths:
        c = catalan_number(ln - 1)
        coeff *= -c if (ln - 1) % 2 else c
    return coeff / n ** (2 * sum(lengths) - len(lengths))


def _check_enumeration_limit(l: int, name: str):
    if l < 1:
        raise InputError(f"{name} needs l >= 1, got {l}")
    if l > DEFAULT_MAX_ENUMERATION:
        raise CapacityError(
            f"{name}(l={l}) sums over S_{2 * l}; capacity is l <= {DEFAULT_MAX_ENUMERATION}"
        )


def a_ell_enumeration(l: int) -> Fraction:
    """Constant-order coefficient by enumeration over S_{2l}.

    Sums (-1)^(#cycles) prod C_{len-1} over permutations whose pairing-graph
    component count equals the transposition distance (by coset type, in
    `kernels.xi_condition_sum`).  Matches the closed form (-1)^l 4^(l-1).
    """
    _check_enumeration_limit(l, "a_ell_enumeration")
    return Fraction(kernels.xi_condition_sum(l, 0))


def alpha_top_enumeration(l: int) -> Fraction:
    """Leading polynomial coefficient by enumeration: condition xi = |tau| + 1.

    Equals (-1)^(l+1) C(2l-1, l-1) / (2l-1), the top coefficient of the
    order-l polynomial from pagecurve.analytic.
    """
    _check_enumeration_limit(l, "alpha_top_enumeration")
    return Fraction(kernels.xi_condition_sum(l, 1))


@lru_cache(maxsize=None)
def _moment_counts_cached(powers: tuple[int, ...]):
    return kernels.moment_pair_counts(powers)


def haar_moment_trace_product(powers, n: int, k: int) -> Fraction:
    """Exact mean over the unitary group of prod_m Tr W^{powers[m]} at finite
    n modes and subsystem size k, where W is the projected mode-overlap matrix
    Pi U U^T Pi conj(U U^T) Pi.

    Each permutation pair contributes Wg(sigma tau^-1, n) k^a n^b with a and b
    the free row/column index components of the combined delta constraints.
    """
    powers = tuple(int(x) for x in powers)
    if not powers or any(x < 1 for x in powers):
        raise InputError(f"powers must be positive integers, got {powers}")
    q = 2 * sum(powers)
    _check_q(q, f"moment of powers {powers}")
    if not (1 <= k <= n):
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    table = wg_class_table(q, n)
    counts = _moment_counts_cached(powers)
    total = Fraction(0)
    kf, nf = Fraction(k), Fraction(n)
    for (ctype, a, b), cnt in counts.items():
        total += table[ctype] * cnt * kf**a * nf**b
    return total


def omega2_estimates(n_ladder, r) -> list[Fraction]:
    """Exact finite-n estimates (r(1-r))^(-2) Var(Tr W) / 4 of omega_2, one per
    ladder entry in the given order; their n -> infinity limit is 1/2."""
    ladder = [int(n) for n in n_ladder]
    if any(n < 4 for n in ladder):
        raise InputError("ladder entries must be >= 4")
    rq = Fraction(r)
    if not (0 < rq < 1):
        raise InputError(f"r must be in (0, 1), got {r}")
    for n in ladder:
        if (rq * n).denominator != 1:
            raise InputError(f"r*n must be integral, got r={r}, n={n}")
    out = []
    for n in ladder:
        k = int(rq * n)
        first = haar_moment_trace_product([1], n, k)
        second = haar_moment_trace_product([1, 1], n, k)
        out.append((rq * (1 - rq)) ** -2 * (second - first * first) / 4)
    return out


def omega2_extrapolation(n_ladder, r) -> float:
    """Leading variance coefficient from exact finite-n moments.

    Extrapolates the `omega2_estimates` of the distinct ladder points to
    n -> infinity by exact polynomial (Neville) extrapolation in 1/n.  The
    limit is 1/2.
    """
    ladder = sorted(set(int(n) for n in n_ladder))
    if len(ladder) < 2:
        raise InputError("need at least two distinct ladder points")
    xs = [Fraction(1, n) for n in ladder]
    # Neville tableau evaluated at x = 0, exactly
    vals = omega2_estimates(ladder, r)
    m = len(xs)
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            vals[i] = vals[i] + (vals[i] - vals[i - 1]) * (0 - xs[i]) / (xs[i] - xs[i - j])
    return float(vals[-1])
