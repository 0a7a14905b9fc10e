"""Population counts against an independent oracle.

The oracle counts unlabeled r-uniform hypergraphs with multiplicity at
most m by edge count, by Burnside's lemma over the cycle types of S_n
acting on the r-subsets, and takes the connected ones by the inverse
Euler transform in (vertices, edges) (Harary and Palmer, *Graphical
Enumeration*, 1973).  It uses no canonical form, so a canonicalizer that
merged or split classes, or a search that skipped a class, fails here.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from bergeturan.search import FamilySpec, enumerate_connected_free


def _partitions(n, largest=None):
    """Partitions of n into parts of at most ``largest``, parts descending."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _unlabeled_counts(n, r, m):
    """Coefficients by edge count of the unlabeled r-uniform hypergraphs
    on n vertices (isolated vertices allowed) with multiplicity <= m.

    A permutation fixes a multiset exactly when the multiplicity is
    constant on each of its cycles on r-subsets, so a cycle of length L
    contributes 1 + y^L + ... + y^(mL).
    """
    subsets = list(combinations(range(n), r))
    total = [0] * (m * len(subsets) + 1)
    for parts in _partitions(n):
        perm, start = [], 0
        for length in parts:
            perm += [start + (i + 1) % length for i in range(length)]
            start += length
        size = factorial(n)
        for length, times in Counter(parts).items():
            size //= length ** times * factorial(times)
        poly, seen = [1], set()
        for s in subsets:
            length = 0
            while s not in seen:
                seen.add(s)
                s = tuple(sorted(perm[v] for v in s))
                length += 1
            if length:
                factor = [0] * (m * length + 1)
                factor[::length] = [1] * (m + 1)
                poly = _mul(poly, factor)
        for e, c in enumerate(poly):
            total[e] += size * c
    assert all(c % factorial(n) == 0 for c in total)
    return [c // factorial(n) for c in total]


def _connected_counts(n, r, m):
    """{edge count: connected spanning classes on n vertices}, by the
    inverse Euler transform of the unlabeled counts on 0..n vertices."""
    width = m * comb(n, r) + 1

    def pad(poly):
        return [Fraction(c) for c in poly] + [Fraction(0)] * (width - len(poly))

    u = [pad([1])] + [pad(_unlabeled_counts(v, r, m)) for v in range(1, n + 1)]
    # log U by v L_v = v U_v - sum_{j<v} j L_j U_{v-j}, truncated in y.
    log = [pad([0])]
    for v in range(1, n + 1):
        acc = [v * c for c in u[v]]
        for j in range(1, v):
            prod = _mul(log[j], u[v - j])
            acc = [a - j * p for a, p in zip(acc, prod)]
        log.append([a / v for a in acc])
    # L_{v,e} = sum over k dividing both v and e of c_{v/k, e/k} / k.
    conn = {}
    for v in range(1, n + 1):
        for e in range(width):
            conn[v, e] = log[v][e] - sum(
                conn[v // k, e // k] / k
                for k in range(2, v + 1) if v % k == 0 and e % k == 0)
    got = {e: conn[n, e] for e in range(width) if conn[n, e]}
    assert all(c.denominator == 1 for c in got.values())
    return {e: int(c) for e, c in got.items()}


def test_oracle_gives_the_connected_graph_counts():
    # OEIS A001349: connected graphs on n = 1..7 vertices.
    assert [sum(_connected_counts(n, 2, 1).values()) for n in range(1, 8)] == [
        1, 1, 2, 6, 21, 112, 853]


@pytest.mark.parametrize("n, r, m, classes", [
    (6, 3, 1, 2101),
    (5, 3, 2, 777),
    (6, 4, 1, 150),
    pytest.param(6, 2, 2, 24576, marks=pytest.mark.slow),
])
def test_population_matches_burnside_counts(n, r, m, classes):
    # No Berge path of length n fits on n vertices, so nothing is forbidden.
    pop = enumerate_connected_free(n, r, FamilySpec("bp", n, m))
    by_edges = Counter(h.num_edges() for h in pop)
    assert dict(by_edges) == _connected_counts(n, r, m)
    assert len(pop) == classes
