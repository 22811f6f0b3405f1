"""Exact Weingarten calculus and the permutation combinatorics behind the
entropy coefficients.

Everything here is exact: Weingarten values come from rational inversion of
the class-resolved Gram system n^{#(sigma tau^-1)}, moments of traces of the
subsystem overlap matrix W are assembled from integer pair counts, and the
enumeration sums over S_{2l} verify the coefficient closed forms
independently of the series machinery in pagecurve.analytic.

Capacity limits keep runtimes desk-scale: moments allow q = 2*sum(powers) up
to 6 (override with the PAGECURVE_MAX_Q environment variable), enumerations
allow l up to 5 (l = 6 needs allow_extended=True and streams S_12).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import kernels
from ._enum_py import cycle_type as _cycle_type
from ._enum_py import xi_of as _xi_of
from .analytic import catalan_number
from .errors import CapacityError, InputError

__all__ = [
    "Permutation",
    "cycle_type",
    "wg_exact",
    "wg_asymptotic",
    "wg_class_table",
    "xi_statistic",
    "a_ell_enumeration",
    "alpha_top_enumeration",
    "haar_moment_trace_product",
    "haar_entry_moment",
    "omega2_estimates",
    "omega2_extrapolation",
    "DEFAULT_MAX_Q",
    "DEFAULT_MAX_ENUMERATION",
]

DEFAULT_MAX_Q = 6
DEFAULT_MAX_ENUMERATION = 5
_MAX_Q_ENV = "PAGECURVE_MAX_Q"


def _max_q() -> int:
    raw = os.environ.get(_MAX_Q_ENV)
    if raw is None:
        return DEFAULT_MAX_Q
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{_MAX_Q_ENV} must be an integer, got {raw!r}") from exc


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1..q} in one-line notation: position i maps to images[i-1]."""

    images: tuple[int, ...]

    def __post_init__(self):
        q = len(self.images)
        if q < 1 or sorted(self.images) != list(range(1, q + 1)):
            raise InputError(f"not a permutation of 1..{q}: {self.images}")
        object.__setattr__(self, "images", tuple(self.images))

    @classmethod
    def identity(cls, q: int) -> "Permutation":
        return cls(tuple(range(1, q + 1)))

    @classmethod
    def transposition(cls, q: int, a: int, b: int) -> "Permutation":
        if not (1 <= a <= q and 1 <= b <= q and a != b):
            raise InputError(f"invalid transposition ({a} {b}) in S_{q}")
        images = list(range(1, q + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(tuple(images))

    @classmethod
    def from_cycles(cls, q: int, cycles) -> "Permutation":
        images = list(range(1, q + 1))
        for cyc in cycles:
            for i, a in enumerate(cyc):
                images[a - 1] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(images))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    @property
    def cycle_count(self) -> int:
        return len(cycle_type(self))

    @property
    def transposition_distance(self) -> int:
        """Minimal number of transpositions generating the permutation."""
        return self.size - self.cycle_count


def cycle_type(p: Permutation) -> list[int]:
    """Sorted (ascending) cycle lengths; they sum to the permutation size."""
    return list(_cycle_type([i - 1 for i in p.images]))


@lru_cache(maxsize=None)
def wg_class_table(q: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """Exact Weingarten values for S_q at dimension n, one per cycle type.

    Solves the class-resolved linear system sum_tau n^{#(sigma tau^-1)}
    Wg(tau) = [sigma == id] by exact Gaussian elimination.  Conjugation
    invariance collapses the q! x q! Gram matrix to one row and column per
    cycle type (11 x 11 at q = 6).
    """
    if q < 1:
        raise InputError(f"q must be >= 1, got {q}")
    if n < q:
        raise InputError(f"need n >= q for an invertible Gram system, got n={n} < q={q}")

    by_type: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for p in itertools.permutations(range(q)):
        by_type.setdefault(_cycle_type(p), []).append(p)
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
                comp = tuple(rep[inv[i]] for i in range(q))
                total += n ** len(_cycle_type(comp))
            row.append(Fraction(total))
        rows.append(row)

    identity_class = classes.index(tuple([1] * q))
    aug = [row + [Fraction(int(i == identity_class))] for i, row in enumerate(rows)]
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if piv is None:
            raise InputError(f"singular Gram system at q={q}, n={n}")
        aug[col], aug[piv] = aug[piv], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return {c: aug[i][m] for i, c in enumerate(classes)}


def wg_exact(p: Permutation, n: int) -> Fraction:
    """Exact Weingarten function Wg(p, n); depends only on the cycle type."""
    q = p.size
    cap = _max_q()
    if q > cap:
        raise CapacityError(
            f"Weingarten capacity is q <= {cap} (set {_MAX_Q_ENV} to override), got q={q}"
        )
    return wg_class_table(q, n)[tuple(cycle_type(p))]


def wg_asymptotic(p: Permutation, n: int) -> float:
    """Leading large-n term: n^(-q-|p|) prod (-1)^(len-1) C_{len-1} over cycles."""
    q = p.size
    coeff = 1
    for ln in cycle_type(p):
        c = catalan_number(ln - 1)
        coeff *= -c if (ln - 1) % 2 else c
    return coeff / n ** (q + p.transposition_distance)


def xi_statistic(p: Permutation) -> int:
    """Connected components of the pairing graph on l = size/2 vertices.

    Edges join vertices ceil(p(2a)/2) and ceil(p(2a+1)/2) for a = 1..l-1 plus
    the wrap-around pair (p(2l), p(1)).  Equals log_b of the number of
    solutions of the corresponding index-matching constraints for any base
    b >= 2.
    """
    if p.size % 2:
        raise InputError(f"xi needs an even-size permutation, got size {p.size}")
    return _xi_of(tuple(i - 1 for i in p.images))


def _check_enumeration_limit(l: int, hi: int, allow_extended: bool, name: str):
    if l < 1 or l > hi:
        raise InputError(f"{name} supports 1 <= l <= {hi}, got {l}")
    if l > DEFAULT_MAX_ENUMERATION and not allow_extended:
        raise CapacityError(
            f"{name}(l={l}) streams S_{2 * l} "
            f"({math.factorial(2 * l):,} permutations); pass allow_extended=True"
        )


def a_ell_enumeration(l: int, allow_extended: bool = False) -> Fraction:
    """Constant-order coefficient by direct enumeration over S_{2l}.

    Sums (-1)^(#cycles) prod C_{len-1} over permutations whose pairing-graph
    component count equals the transposition distance.  Matches the closed
    form (-1)^l 4^(l-1).
    """
    _check_enumeration_limit(l, 6, allow_extended, "a_ell_enumeration")
    return Fraction(kernels.xi_condition_sum(l, 0))


def alpha_top_enumeration(l: int, allow_extended: bool = False) -> Fraction:
    """Leading polynomial coefficient by enumeration: condition xi = |tau| + 1.

    Equals (-1)^(l+1) C(2l-1, l-1) / (2l-1), the top coefficient of the
    order-l polynomial from pagecurve.analytic.
    """
    _check_enumeration_limit(l, 5, allow_extended, "alpha_top_enumeration")
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
    cap = _max_q()
    if q > cap:
        raise CapacityError(
            f"moment needs q = 2*sum(powers) = {q} > capacity {cap} "
            f"(set {_MAX_Q_ENV} to override)"
        )
    if not (1 <= k <= n):
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    table = wg_class_table(q, n)
    counts = _moment_counts_cached(powers)
    total = Fraction(0)
    kf, nf = Fraction(k), Fraction(n)
    for (ctype, a, b), cnt in counts.items():
        total += table[ctype] * cnt * kf**a * nf**b
    return total


def haar_entry_moment(rows, cols, conj_rows, conj_cols, n: int) -> Fraction:
    """Exact mean of prod U[rows, cols] * prod conj(U)[conj_rows, conj_cols].

    Direct evaluation of the Weingarten moment formula for explicit index
    tuples; the number of factors q = len(rows) is limited like the trace
    moments.
    """
    q = len(rows)
    if not (len(cols) == len(conj_rows) == len(conj_cols) == q):
        raise InputError("index tuples must have equal lengths")
    cap = _max_q()
    if q > cap:
        raise CapacityError(f"entry moment q={q} > capacity {cap}")
    if n < q:
        raise InputError(f"need n >= q, got n={n} < q={q}")
    table = wg_class_table(q, n)
    total = Fraction(0)
    for sigma in itertools.permutations(range(q)):
        if any(rows[m] != conj_rows[sigma[m]] for m in range(q)):
            continue
        for tau in itertools.permutations(range(q)):
            if any(cols[m] != conj_cols[tau[m]] for m in range(q)):
                continue
            inv = [0] * q
            for a, b in enumerate(tau):
                inv[b] = a
            comp = tuple(sigma[inv[i]] for i in range(q))
            total += table[_cycle_type(comp)]
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
