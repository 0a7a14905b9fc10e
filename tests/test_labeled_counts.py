"""Labeled counts of connected free edge sets against the level search.

By the orbit-counting lemma, the labeled connected spanning edge sets
with k instances that avoid the forbidden family number the sum, over
the search's connected representatives at level k, of n!/|Aut(h)|
(Harary and Palmer, *Graphical Enumeration*, 1973).  The labeled side
below is a plain DFS over edge multisets that tests each set with
``FamilySpec.violates`` and uses no canonical form, orbit, twin class,
deletion test or prune.  The class side takes |Aut(h)| by brute force
over all n! vertex maps.  So a search that loses or merges a class where
something is forbidden, or a symmetry shortcut that skips a child it
needs, shows here as a level whose two sides differ.
"""

from collections import Counter
from itertools import combinations, permutations
from math import factorial

import pytest

from bergeturan.hypergraph import Hypergraph, is_connected
from bergeturan.search import (
    FamilySpec,
    SearchLimitError,
    _levels,
    _load_checkpoint,
    exact_ex_conn,
)


def _labeled_counts(n, r, spec):
    """{instance count: labeled connected spanning free edge multisets}.

    Candidates are added in non-decreasing index order, so each multiset
    is built once, and a set is grown only while it is free: every
    subset of a free set is free.
    """
    candidates = list(combinations(range(n), r))
    cap = spec.multiplicity_cap
    counts = Counter()

    def grow(edges, last, run):
        # ``run``: the multiplicity of candidates[last] in ``edges``.
        for i in range(last, len(candidates)):
            if i == last and run >= cap:
                continue
            h = Hypergraph(n, r, edges + (candidates[i],))
            if spec.violates(h):
                continue
            if is_connected(h):
                counts[len(h.edges)] += 1
            grow(h.edges, i, run + 1 if i == last else 1)

    grow((), 0, 0)
    return dict(counts)


def _automorphism_count(h):
    edges = list(h.edges)
    return sum(sorted(tuple(sorted(p[v] for v in e)) for e in edges) == edges
               for p in permutations(range(h.n)))


def _class_counts(n, r, spec, start=None):
    """{level: sum of n!/|Aut(h)| over its connected representatives}."""
    counts = {}
    for level, reps, _, _ in _levels(n, r, spec, start=start):
        total = sum(factorial(n) // _automorphism_count(h)
                    for h in reps if is_connected(h))
        if total:
            counts[level] = total
    return counts


# Every spec but (6,3,BC>=3) and (5,2,BC4, m = 2) has parents that the
# reachability prune cuts, which switches the deletion test off.
@pytest.mark.parametrize("n, r, spec, labeled", [
    (6, 3, FamilySpec("bp", 4), {3: 480, 4: 15}),
    (7, 3, FamilySpec("bp", 4), {3: 735, 4: 420, 5: 21}),
    (6, 3, FamilySpec("bp", 5), {3: 480, 4: 3600, 5: 60}),
    (6, 3, FamilySpec("bp", 4, 2), {3: 480, 4: 15}),
    (5, 3, FamilySpec("bp", 4, 2), {2: 15, 3: 130}),
    (6, 3, FamilySpec("bc_at_least", 3), {3: 360, 4: 15}),
    (5, 2, FamilySpec("bc_exact", 4, 2), {
        4: 125, 5: 662, 6: 1575, 7: 2210, 8: 1970, 9: 1110, 10: 387,
        11: 90, 12: 15}),
    pytest.param(7, 3, FamilySpec("bp", 4, 2), {3: 735, 4: 735, 5: 21},
                 marks=pytest.mark.slow),
])
def test_labeled_counts_match_the_search_at_every_level(n, r, spec, labeled):
    assert _labeled_counts(n, r, spec) == labeled
    assert _class_counts(n, r, spec) == labeled


def test_labeled_counts_match_a_resumed_search():
    """Resumed from its level-3 representatives, which switches the
    deletion test off, (7,3,BP4) still holds every class of levels 3-5."""
    n, r, spec = 7, 3, FamilySpec("bp", 4)
    for level, reps, _, tested in _levels(n, r, spec):
        if level == 3:
            break
    assert _class_counts(n, r, spec, start=(reps, tested)) == {
        3: 735, 4: 420, 5: 21}


def test_labeled_counts_match_a_search_resumed_from_its_checkpoint(tmp_path):
    """Stopped by its node budget while expanding level 3, (7,3,BP4)
    leaves its level-3 representatives in the checkpoint file; resumed
    from that file, it still holds every class of levels 3-5."""
    n, r, spec = 7, 3, FamilySpec("bp", 4)
    path = str(tmp_path / "ck.json")
    with pytest.raises(SearchLimitError, match="expanding level 3"):
        exact_ex_conn(n, r, spec, checkpoint_path=path, node_budget=200)
    start, _, _, _ = _load_checkpoint(path, n, r, spec)
    reps, tested = start
    assert {h.num_edges() for h in reps} == {3} and tested == 168
    assert _class_counts(n, r, spec, start=start) == {3: 735, 4: 420, 5: 21}
