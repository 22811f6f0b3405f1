"""Pure-Python enumeration kernels.

Reference implementations of the hot loops; `pagecurve._enumeration` is the
compiled drop-in replacement.  Both stream the symmetric group in lexicographic
order and never store it.
"""

import itertools
import math

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


def xi_of(p):
    """Component count of the pairing graph of a permutation of even size."""
    q = len(p)
    half = q // 2
    edges = [(p[2 * a - 1] // 2, p[2 * a] // 2) for a in range(1, half)]
    edges.append((p[q - 1] // 2, p[0] // 2))
    return _component_count(half, edges)


def xi_condition_sum(half: int, offset: int) -> int:
    """Signed Catalan-product sum over S_{2*half} restricted by the pairing graph.

    Accumulates (-1)^(#cycles) * prod C_{len-1} over permutations tau with
    xi(tau) == |tau| + offset, where |tau| = 2*half - #cycles.
    """
    q = 2 * half
    total = 0
    seen = [False] * q
    parent = list(range(half))
    for p in itertools.permutations(range(q)):
        # xi via union-find over half vertices
        for v in range(half):
            parent[v] = v
        for a in range(1, half):
            x, y = p[2 * a - 1] // 2, p[2 * a] // 2
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            while parent[y] != y:
                parent[y] = parent[parent[y]]
                y = parent[y]
            if x != y:
                parent[x] = y
        x, y = p[q - 1] // 2, p[0] // 2
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        if x != y:
            parent[x] = y
        xi = 0
        for v in range(half):
            if parent[v] == v:
                xi += 1

        # cycle structure
        for v in range(q):
            seen[v] = False
        ncyc = 0
        term = 1
        for s in range(q):
            if not seen[s]:
                ln = 0
                j = s
                while not seen[j]:
                    seen[j] = True
                    j = p[j]
                    ln += 1
                ncyc += 1
                term *= _CATALAN[ln - 1]
        if xi == (q - ncyc) + offset:
            total += -term if ncyc % 2 else term
    return total


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


def moment_pair_counts(powers):
    """Count (cycle type of sigma tau^-1, free row components, free column
    components) over all permutation pairs in S_q x S_q, q = 2 sum(powers).

    Returns dict {(cycle_type, a, b): count}; the exact moment is then
    sum Wg(type, n) * count * k^a * n^b.
    """
    powers = tuple(powers)
    q = 2 * sum(powers)
    i_edges, j_edges = _structural_edges(powers)
    perms = list(itertools.permutations(range(q)))
    fact = len(perms)

    comp_a = [0] * fact
    comp_b = [0] * fact
    invs = [None] * fact
    for idx, p in enumerate(perms):
        sigma_edges = [(m, q + p[m]) for m in range(q)]
        comp_a[idx] = _component_count(2 * q, i_edges + sigma_edges)
        comp_b[idx] = _component_count(2 * q, j_edges + sigma_edges)
        inv = [0] * q
        for a, b in enumerate(p):
            inv[b] = a
        invs[idx] = tuple(inv)

    type_of = {p: cycle_type(p) for p in perms}
    counts = {}
    for si in range(fact):
        sigma = perms[si]
        a = comp_a[si]
        for ti in range(fact):
            inv = invs[ti]
            comp = tuple(sigma[inv[m]] for m in range(q))
            key = (type_of[comp], a, comp_b[ti])
            counts[key] = counts.get(key, 0) + 1
    return counts
