"""Permutation kernels of the exact Weingarten engine, in pure Python.

Permutations are tuples of the images of 0..q-1.  Everything the engine
looks up is keyed by cycle type, the ascending tuple of cycle lengths that
`cycle_type` returns: the Weingarten function and every trace moment built
from it depend on a permutation only through that class.

Both sums below run over perfect matchings instead of over S_q.  Let P be the
matching {0,1}, {2,3}, ... and H the hyperoctahedral group of the 2^(q/2)
(q/2)! permutations that fix P.  The coset type of y is the ascending tuple of
half-lengths of the cycles of P u yP.  The cycle types over a coset yH depend
on y only through its double coset HyH, that is through its coset type, since
type(h1 y h) = type(y h h1); `_coset_histogram` counts them once per coset
type, |H| permutations for each of the partitions of q/2.  With it
`xi_condition_sum` visits the (q-1)!! matchings (945 at q = 10, plus
7 * 3840 coset elements, against 3,628,800 permutations), and
`moment_pair_counts` visits the q! permutations once plus ((q-1)!!)^2
matching pairs (720 + 225 at q = 6, against 10,800 compositions).  The S_q
loops they replace are the oracles of tests/test_weingarten.py.

`pagecurve.weingarten` calls `xi_condition_sum` and `moment_pair_counts`
through this module's attributes, so they can be replaced by name (the
benchmark's per-layer tracer does so).
"""

import itertools
import math
from collections import Counter
from functools import lru_cache

__all__ = ["cycle_type", "xi_condition_sum", "moment_pair_counts"]

_CATALAN = [math.comb(2 * m, m) // (m + 1) for m in range(16)]


def cycle_type(p):
    """Sorted (ascending) cycle lengths of a permutation of 0..len(p)-1."""
    n = len(p)
    seen = [False] * n
    out = []
    for s in range(n):
        if not seen[s]:
            ln = 0
            j = s
            while not seen[j]:
                seen[j] = True
                j = p[j]
                ln += 1
            out.append(ln)
    return tuple(sorted(out))


def _matchings(points):
    """Every perfect matching of the tuple `points`, as a tuple of pairs."""
    if not points:
        yield ()
        return
    for i in range(1, len(points)):
        for rest in _matchings(points[1:i] + points[i + 1:]):
            yield ((points[0], points[i]),) + rest


def _partner(pairs):
    """The matching as an involution: the images of 0..q-1."""
    out = [0] * (2 * len(pairs))
    for a, b in pairs:
        out[a], out[b] = b, a
    return out


def _coset_type(m1, m2):
    """Ascending half-lengths of the cycles of m1 u m2 (two partner lists).

    Each cycle of length 2L of the union splits into two L-cycles of m2 m1.
    """
    return cycle_type([m2[x] for x in m1])[::2]


def _coset(pairs):
    """The coset yH of every y with y(P) = `pairs`: block {2i, 2i+1} goes to
    one of the pairs, each pair used once, in either orientation."""
    for order in itertools.permutations([((a, b), (b, a)) for a, b in pairs]):
        for choice in itertools.product(*order):
            yield [x for pair in choice for x in pair]


@lru_cache(maxsize=None)
def _coset_histogram(mu):
    """Counter of cycle types over a coset yH, for y of coset type `mu`."""
    pairs, o = [], 0
    for m in mu:
        pairs += [(o + t, o + (t + 1) % (2 * m)) for t in range(1, 2 * m, 2)]
        o += 2 * m
    return Counter(cycle_type(y) for y in _coset(pairs))


def xi_condition_sum(half: int, offset: int) -> int:
    """Signed Catalan-product sum over S_{2*half} restricted by the pairing graph.

    Accumulates (-1)^(#cycles) * prod C_{len-1} over permutations tau with
    xi(tau) == |tau| + offset, where |tau| = 2*half - #cycles.  xi(tau) is the
    component count of the pairing graph on the `half` blocks of P whose edges
    are the blocks of M = tau(P_pos), P_pos = {1,2}, ..., {2*half-1, 0}; that
    is the number of cycles of P u M, and log_b of the number of solutions of
    the matching index constraints for any base b >= 2.  The permutations with
    tau(P_pos) = M have the cycle types of a coset yH with y of the coset type
    of P_pos u M, so the sum runs over the matchings M.
    """
    q = 2 * half
    pos = _partner([(t, (t + 1) % q) for t in range(1, q, 2)])
    plain = _partner([(t, t + 1) for t in range(0, q, 2)])
    by_type = Counter()
    for pairs in _matchings(tuple(range(q))):
        m = _partner(pairs)
        by_type[_coset_type(pos, m), len(_coset_type(plain, m))] += 1
    total = 0
    for (mu, xi), n_m in by_type.items():
        for ctype, n_tau in _coset_histogram(mu).items():
            if xi == q - len(ctype) + offset:
                term = n_m * n_tau * math.prod(_CATALAN[ln - 1] for ln in ctype)
                total += -term if len(ctype) % 2 else term
    return total


def moment_pair_counts(powers):
    """Count (cycle type of sigma tau^-1, free row components, free column
    components) over all permutation pairs in S_q x S_q, q = 2 sum(powers).

    Returns dict {(cycle_type, a, b): count}; the exact moment is then
    sum Wg(type, n) * count * k^a * n^b.

    The row components a(sigma) are the cycles of next sigma, where `next`
    shifts cyclically inside each power block; the column components
    b(tau) = loops(P u tau P) are constant on tau H.  Over sigma in a coset
    sigma_0 H and tau in tau_0 H, sigma tau^-1 runs |H| times over the cycle
    types of the coset tau_0^-1 sigma_0 H, whose coset type is that of
    sigma_0 P u tau_0 P.  So the counts sum, over pairs of matchings
    (M1, M2), the a-histogram of M1 times b(M2) times the coset histogram.
    """
    powers = tuple(powers)
    q = 2 * sum(powers)
    nxt, o = [], 0
    for l in powers:
        nxt += [o + (t + 1) % (2 * l) for t in range(2 * l)]
        o += 2 * l
    plain = _partner([(t, t + 1) for t in range(0, q, 2)])
    matchings = []  # (partner list, Counter of a over the coset, b)
    for pairs in _matchings(tuple(range(q))):
        m = _partner(pairs)
        a_hist = Counter(len(cycle_type([nxt[x] for x in s])) for s in _coset(pairs))
        matchings.append((m, a_hist, len(_coset_type(plain, m))))

    by_type = Counter()
    for m1, a_hist, _ in matchings:
        for m2, _, b in matchings:
            mu = _coset_type(m1, m2)
            for a, n_sigma in a_hist.items():
                by_type[mu, a, b] += n_sigma
    counts = Counter()
    for (mu, a, b), n in by_type.items():
        for ctype, n_tau in _coset_histogram(mu).items():
            counts[ctype, a, b] += n * n_tau
    return dict(counts)
