"""Core hypergraph structure: validation, connectivity, neighborhoods,
induced substructures, canonical forms, serialization round-trips."""

import random

import pytest

from bergeturan.hypergraph import (
    CanonicalSizeError,
    Hypergraph,
    HypergraphError,
    build,
    canonical_form,
    canonical_key,
    from_canonical_string,
    from_json,
    from_text,
    hyperedge_neighborhood,
    induced_subhypergraph,
    is_connected,
    relabel,
    twin_classes,
)

STAR73 = [[0, 1, 2], [0, 3, 4], [0, 5, 6]]
LOOSE_PATH = [[0, 1, 2], [2, 3, 4], [4, 5, 6]]


def random_hypergraph(rng, n, r, max_edges):
    import itertools

    pool = list(itertools.combinations(range(n), r))
    q = rng.randrange(0, max_edges + 1)
    return build(n, r, [rng.choice(pool) for _ in range(q)])


# -- build ------------------------------------------------------------

def test_build_basic():
    h = build(4, 3, [[0, 1, 2], [0, 1, 3]])
    assert h.num_edges() == 2
    assert h.max_multiplicity() == 1
    assert h.edges == ((0, 1, 2), (0, 1, 3))


def test_build_duplicate_lists_become_multiplicity():
    h = build(3, 3, [[0, 1, 2], [0, 1, 2]])
    assert h.num_edges() == 2
    assert h.multiplicity([2, 1, 0]) == 2
    assert h.max_multiplicity() == 2


def test_build_rejects_wrong_edge_size():
    with pytest.raises(HypergraphError):
        build(4, 3, [[0, 1]])
    with pytest.raises(HypergraphError):
        build(4, 3, [[0, 1, 1]])


def test_build_rejects_bad_ids_and_uniformity():
    with pytest.raises(HypergraphError):
        build(4, 3, [[0, 1, 4]])
    with pytest.raises(HypergraphError):
        build(4, 1, [[0]])


def test_build_errors_show_an_edge_given_as_an_iterator():
    with pytest.raises(HypergraphError, match=r"edge 1 must have exactly 3 "
                       r"distinct vertices, got \[1, 0\]$"):
        build(4, 3, [[0, 1, 2], iter([1, 0])])
    with pytest.raises(HypergraphError, match=r"edge 0 has vertex id out of "
                       r"range 0\.\.3: \[4, 0, 1\]$"):
        build(4, 3, [iter([4, 0, 1])])


def test_build_orders_instances_canonically():
    a = build(5, 3, [[4, 3, 2], [2, 1, 0]])
    b = build(5, 3, [[0, 1, 2], [2, 3, 4]])
    assert a.edges == b.edges


def test_with_edge_equals_sorting_the_enlarged_instance_list():
    """Inserting at ``bisect_right`` gives the tuple of the old
    construction, ``tuple(sorted(edges + (e,)))``, for every edge on
    random multi-hypergraphs: edges already present, edges that go first
    or last, and the empty hypergraph."""
    import itertools

    rng = random.Random(71)
    corpus = [Hypergraph(n, r, ()) for r in (2, 3) for n in (r, r + 2)]
    corpus += [random_hypergraph(rng, rng.randrange(r, 8), r, 9)
               for r in (2, 3, 4) for _ in range(40)]
    seen = {"present": 0, "first": 0, "last": 0, "empty": 0}
    for h in corpus:
        for e in itertools.combinations(range(h.n), h.r):
            child = h.with_edge(e)
            assert child.edges == tuple(sorted(h.edges + (e,))), (h, e)
            assert (child.n, child.r) == (h.n, h.r)
            seen["present"] += e in h.edges
            seen["first"] += bool(h.edges) and e < h.edges[0]
            seen["last"] += bool(h.edges) and e >= h.edges[-1]
            seen["empty"] += not h.edges
    assert min(seen.values()) > 20, seen


# -- connectivity -----------------------------------------------------

def test_connectivity_star():
    assert is_connected(build(7, 3, STAR73))


def test_connectivity_disjoint_edges():
    assert not is_connected(build(6, 3, [[0, 1, 2], [3, 4, 5]]))


def test_connectivity_isolated_vertex():
    assert not is_connected(build(4, 3, [[0, 1, 2]]))


def test_connectivity_degenerate_single_vertex():
    assert is_connected(Hypergraph(1, 3, ()))
    assert not is_connected(Hypergraph(2, 3, ()))


def test_connectivity_invariant_under_relabeling():
    rng = random.Random(7)
    for _ in range(50):
        h = random_hypergraph(rng, 7, 3, 5)
        perm = list(range(7))
        rng.shuffle(perm)
        assert is_connected(h) == is_connected(relabel(h, tuple(perm)))


# -- neighborhoods ----------------------------------------------------

def test_neighborhood_star_example():
    h = build(7, 3, STAR73)
    # Direct set check: edges meeting {1,2,3,4} are exactly the first two.
    assert hyperedge_neighborhood(h, [1, 2, 3, 4]) == [0, 1]


def test_neighborhood_empty_and_full():
    h = build(7, 3, STAR73)
    assert hyperedge_neighborhood(h, []) == []
    assert hyperedge_neighborhood(h, range(7)) == [0, 1, 2]


def test_neighborhood_monotone():
    rng = random.Random(11)
    for _ in range(40):
        h = random_hypergraph(rng, 6, 3, 6)
        s = [v for v in range(6) if rng.random() < 0.4]
        t = sorted(set(s) | {rng.randrange(6)})
        assert set(hyperedge_neighborhood(h, s)) <= set(hyperedge_neighborhood(h, t))


# -- induced substructures --------------------------------------------

def test_induced_star_without_hub():
    h = build(7, 3, STAR73)
    sub, mapping = induced_subhypergraph(h, range(1, 7))
    assert sub.n == 6 and sub.num_edges() == 0
    assert mapping == {v: v - 1 for v in range(1, 7)}


def test_induced_identity():
    h = build(7, 3, STAR73)
    sub, _ = induced_subhypergraph(h, range(7))
    assert sub == h


def test_induced_containment():
    h = build(5, 3, [[0, 1, 2], [2, 3, 4]])
    sub, _ = induced_subhypergraph(h, [2, 3, 4])
    assert sub.edges == ((0, 1, 2),)


def test_induced_preserves_uniformity_and_multiplicity():
    h = build(5, 3, [[0, 1, 2], [0, 1, 2], [2, 3, 4]])
    sub, _ = induced_subhypergraph(h, [0, 1, 2])
    assert sub.edges == ((0, 1, 2), (0, 1, 2))


# -- canonical forms --------------------------------------------------

def test_canonical_invariant_under_relabeling():
    rng = random.Random(3)
    for _ in range(60):
        h = random_hypergraph(rng, 7, 3, 6)
        perm = list(range(7))
        rng.shuffle(perm)
        g = relabel(h, tuple(perm))
        assert canonical_key(h) == canonical_key(g)


def test_relabel_takes_a_tuple_or_the_equivalent_dict():
    rng = random.Random(17)
    for _ in range(300):
        r = rng.randrange(2, 5)
        n = rng.randrange(r, 9)
        h = build(n, r, _random_edges(rng, n, r, 8))
        perm = list(range(n))
        rng.shuffle(perm)
        assert relabel(h, tuple(perm)) == relabel(h, dict(enumerate(perm))), h


def test_canonical_separates_star_and_loose_path():
    assert canonical_key(build(7, 3, STAR73)) != canonical_key(build(7, 3, LOOSE_PATH))


def test_canonical_multiplicity_is_invariant():
    simple = build(4, 3, [[0, 1, 2], [0, 1, 3]])
    doubled = build(4, 3, [[0, 1, 2], [0, 1, 2]])
    assert canonical_key(simple) != canonical_key(doubled)


def test_canonical_relabeled_is_fixed_point():
    rng = random.Random(5)
    for _ in range(30):
        h = random_hypergraph(rng, 6, 3, 5)
        c = relabel(h, canonical_form(h)[1])
        assert relabel(c, canonical_form(c)[1]) == c
        assert canonical_key(h) == canonical_key(c)


def test_canonical_distinguishes_nonisomorphic_small():
    # Same degree sequence can still differ; sample exhaustively at n=5, q=2.
    import itertools

    pool = list(itertools.combinations(range(5), 3))
    keys = {}
    for pair in itertools.combinations(pool, 2):
        h = build(5, 3, pair)
        keys.setdefault(canonical_key(h), set()).add(
            len(set(pair[0]) & set(pair[1]))
        )
    # Overlap size classifies 2-edge hypergraphs; canonical classes must agree.
    for overlaps in keys.values():
        assert len(overlaps) == 1


def test_canonical_size_limit():
    h = Hypergraph(13, 3, ())
    with pytest.raises(CanonicalSizeError):
        canonical_key(h)


def _nx_isomorphic(a, b):
    """Independent oracle: isomorphism of the colored bipartite incidence
    graphs (vertex side vs instance side), via networkx VF2."""
    import networkx as nx

    def incidence(h, tag):
        g = nx.Graph()
        for v in range(h.n):
            g.add_node((tag, "v", v), side="vertex")
        for i, e in enumerate(h.edges):
            g.add_node((tag, "e", i), side="edge")
            for v in e:
                g.add_edge((tag, "e", i), (tag, "v", v))
        return g

    return nx.is_isomorphic(
        incidence(a, "a"),
        incidence(b, "b"),
        node_match=lambda x, y: x["side"] == y["side"],
    )


def test_canonical_agrees_with_networkx_oracle():
    rng = random.Random(97)
    pairs_checked = 0
    agree_positive = 0
    for _ in range(120):
        h1 = random_hypergraph(rng, 6, 3, 4)
        if rng.random() < 0.5:
            perm = list(range(6))
            rng.shuffle(perm)
            h2 = relabel(h1, tuple(perm))
        else:
            h2 = random_hypergraph(rng, 6, 3, 4)
        if len(h1.edges) != len(h2.edges):
            continue
        pairs_checked += 1
        ours = canonical_key(h1) == canonical_key(h2)
        theirs = _nx_isomorphic(h1, h2)
        assert ours == theirs, (h1, h2)
        agree_positive += ours
    assert pairs_checked > 60 and agree_positive > 20


# -- reference canonicalizer --------------------------------------------
#
# The canonicalizer before automorphism pruning: it explores every
# individualization branch and refines with sorted colour tuples.  Test
# only; the library keeps one path, which must agree with this one byte
# for byte on the canonical string and on the relabeling.

def _ref_refine(edges, colors):
    inc = {v: [] for v in colors}
    for i, e in enumerate(edges):
        for v in e:
            inc[v].append(i)
    while True:
        edge_sig = [tuple(sorted(colors[v] for v in e)) for e in edges]
        sigs = {
            v: (colors[v], tuple(sorted(edge_sig[i] for i in inc[v])))
            for v in colors
        }
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs.values())))}
        new_colors = {v: ranking[sigs[v]] for v in colors}
        if len(set(new_colors.values())) == len(set(colors.values())):
            return new_colors
        colors = new_colors


def _ref_color_classes(colors):
    by_color = {}
    for v, c in colors.items():
        by_color.setdefault(c, []).append(v)
    return [sorted(by_color[c]) for c in sorted(by_color)]


def _ref_interchangeable(cls, edges):
    cset = set(cls)
    for e in edges:
        hits = cset.intersection(e)
        if hits and len(hits) != len(cset):
            return False
    return True


def reference_canonical_form(h):
    support = h.support()
    isolated = [v for v in range(h.n) if v not in set(support)]
    edges = h.edges
    head = f"{h.n} {h.r}"
    if not support:
        return head.encode("ascii"), tuple(range(h.n))
    best = [None]

    def descend(colors):
        colors = _ref_refine(edges, colors)
        classes = _ref_color_classes(colors)
        target = None
        for cls in classes:
            if len(cls) > 1:
                if _ref_interchangeable(cls, edges):
                    continue
                target = cls
                break
        if target is None:
            label = {}
            pos = 0
            for cls in classes:
                for v in cls:
                    label[v] = pos
                    pos += 1
            relabeled = tuple(
                sorted(tuple(sorted(label[v] for v in e)) for e in edges)
            )
            if best[0] is None or relabeled < best[0][0]:
                best[0] = (relabeled, label)
            return
        for v in target:
            child = dict(colors)
            for u in child:
                child[u] = child[u] * 2 + 1
            child[v] -= 1
            descend(child)

    descend({v: 0 for v in support})
    relabeled_edges, label = best[0]
    pi = [0] * h.n
    for v, p in label.items():
        pi[v] = p
    for offset, v in enumerate(isolated):
        pi[v] = len(support) + offset
    code = ";".join([head] + [",".join(map(str, e)) for e in relabeled_edges])
    return code.encode("ascii"), tuple(pi)


def _shuffled(rng, h):
    perm = list(range(h.n))
    rng.shuffle(perm)
    return relabel(h, tuple(perm))


def _disjoint_union(*parts):
    edges, n = [], 0
    for h in parts:
        edges += [[v + n for v in e] for e in h.edges]
        n += h.n
    return build(n, parts[0].r, edges)


def _cycle(n):
    return build(n, 2, [[i, (i + 1) % n] for i in range(n)])


def _petersen():
    outer = [[i, (i + 1) % 5] for i in range(5)]
    inner = [[5 + i, 5 + (i + 2) % 5] for i in range(5)]
    spokes = [[i, i + 5] for i in range(5)]
    return build(10, 2, outer + inner + spokes)


def _prism10():
    """The pentagonal prism: 3-regular on 10 vertices, like Petersen."""
    outer = [[i, (i + 1) % 5] for i in range(5)]
    inner = [[5 + i, 5 + (i + 1) % 5] for i in range(5)]
    spokes = [[i, i + 5] for i in range(5)]
    return build(10, 2, outer + inner + spokes)


def _symmetric_corpus():
    import itertools

    from bergeturan.constructions import sunflower_family

    corpus = [build(m + 1, 2, [[0, i] for i in range(1, m + 1)]) for m in range(1, 8)]
    corpus += [sunflower_family(n, r) for r in (3, 4) for n in range(r + 1, 9)]
    corpus += [_cycle(n) for n in range(3, 9)]
    corpus += [build(6, 2, itertools.combinations(range(6), 2)), _petersen()]
    corpus += [
        build(4, 3, [[0, 1, 2], [0, 1, 2], [1, 2, 3], [1, 2, 3]]),
        build(5, 2, [[0, 1], [0, 1], [1, 2], [1, 2], [2, 3], [3, 4], [3, 4]]),
        build(7, 3, STAR73 + STAR73),
        build(4, 2, [[0, 1]] * 3 + [[2, 3]] * 3),
    ]
    corpus += [
        _disjoint_union(*[build(2, 2, [[0, 1]])] * 4),
        _disjoint_union(_cycle(3), _cycle(3)),
        _disjoint_union(_cycle(4), _cycle(4)),
        _disjoint_union(*[build(3, 3, [[0, 1, 2]])] * 3),
        _disjoint_union(*[build(4, 3, [[0, 1, 2], [1, 2, 3]])] * 2),
        _disjoint_union(*[build(4, 2, itertools.combinations(range(4), 2))] * 2),
    ]
    # Unequal parts that refinement cannot tell apart: one cell, two
    # orbits, at the root and, behind a path on three vertices, one level
    # down.
    path3 = build(3, 2, [[0, 1], [1, 2]])
    corpus += [
        _disjoint_union(_cycle(4), _cycle(3)),
        _disjoint_union(_cycle(5), _cycle(3)),
        _disjoint_union(path3, _cycle(4), _cycle(3)),
        _disjoint_union(path3, _cycle(3), _cycle(4)),
    ]
    return corpus


def _random_edges(rng, n, r, most):
    import itertools

    pool = list(itertools.combinations(range(n), r))
    edges = [rng.choice(pool) for _ in range(rng.randrange(0, most + 1))]
    if edges and rng.random() < 0.3:
        edges += rng.sample(edges, rng.randrange(1, len(edges) + 1))
    return edges


def _random_multi_corpus():
    """Random multi-hypergraphs, and disjoint unions of two random parts
    (equal or not), whose colour cells often hold several orbits."""
    rng = random.Random(2024)
    corpus = []
    for _ in range(1000):
        r = rng.randrange(2, 5)
        n = rng.randrange(r, 9)
        corpus.append(build(n, r, _random_edges(rng, n, r, 8)))
    for _ in range(500):
        r = rng.randrange(2, 4)
        m = rng.randrange(r, 5)
        first = build(m, r, _random_edges(rng, m, r, 4))
        if rng.random() < 0.5:
            second = first
        else:
            k = rng.randrange(r, 5)
            second = build(k, r, _random_edges(rng, k, r, 4))
        corpus.append(_shuffled(rng, _disjoint_union(first, second)))
    return corpus


def _fresh(h):
    """A copy built with the bare constructor, not through ``build``."""
    return Hypergraph(h.n, h.r, h.edges)


def test_canonical_form_matches_reference_on_random_multi_hypergraphs():
    corpus = _random_multi_corpus()
    assert any(h.max_multiplicity() > 1 for h in corpus)
    assert any(len(h.support()) < h.n for h in corpus)
    for h in corpus:
        assert canonical_form(_fresh(h)) == reference_canonical_form(h), h


def test_canonical_form_matches_reference_on_symmetric_inputs():
    from bergeturan.hypergraph import canonical_form

    rng = random.Random(41)
    for h in _symmetric_corpus():
        for g in [h] + [_shuffled(rng, h) for _ in range(3)]:
            assert canonical_form(_fresh(g)) == reference_canonical_form(g), g


def _transpositions(n):
    """Every transposition of 0..n-1, as a vertex map."""
    import itertools

    swaps = []
    for u, w in itertools.combinations(range(n), 2):
        perm = list(range(n))
        perm[u], perm[w] = w, u
        swaps.append(perm)
    return swaps


def test_seeded_canonical_form_matches_reference():
    """Known automorphisms only prune: seeded with random subsets of the
    transpositions that fix h and of the automorphisms an unseeded call
    finds, canonical_form returns the reference string and
    relabeling, and every map it leaves in the list is an automorphism."""
    from bergeturan.hypergraph import canonical_form

    rng = random.Random(13)
    corpus = _random_multi_corpus()
    for h in _symmetric_corpus():
        corpus += [h] + [_shuffled(rng, h) for _ in range(2)]
    seeded = found = 0
    for h in corpus:
        want = reference_canonical_form(h)
        first = []
        assert canonical_form(_fresh(h), first) == want, h
        pool = [g for g in _transpositions(h.n)
                if relabel(h, tuple(g)) == h] + first
        seeds = [g for g in pool if rng.random() < 0.5]
        given = len(seeds)
        seeded += given > 0
        assert canonical_form(_fresh(h), seeds) == want, (h, seeds)
        found += len(seeds) > given
        for g in first + seeds:
            assert relabel(h, tuple(g)) == h, (h, g)
    assert seeded > 1000 and found > 0, (seeded, found)


def test_twin_classes_are_equal_incidence_lists():
    """u and w share a twin id iff they lie in the same instances, on
    random multi-hypergraphs with repeated instances and isolated
    vertices; ids are numbered in order of their first vertex, and
    swapping two twins fixes the edge multiset."""
    import itertools

    corpus = _random_multi_corpus() + _symmetric_corpus()
    pairs = 0
    for h in corpus:
        inc = h.vertex_instances()
        twin = twin_classes(inc)
        firsts = list(dict.fromkeys(twin))
        assert firsts == list(range(len(firsts))), h
        for u, w in itertools.combinations(range(h.n), 2):
            assert (twin[u] == twin[w]) == (inc[u] == inc[w]), (h, u, w)
            if twin[u] == twin[w]:
                perm = list(range(h.n))
                perm[u], perm[w] = w, u
                assert relabel(h, tuple(perm)) == h, (h, u, w)
                pairs += 1
    assert pairs > 1000, pairs


@pytest.mark.parametrize("name", ["star K_{1,11}", "sunflower(12, 3)"])
def test_canonical_key_of_large_symmetric_inputs(name, monkeypatch):
    from bergeturan import hypergraph as hg
    from bergeturan.constructions import sunflower_family

    h = {
        "star K_{1,11}": build(12, 2, [[0, i] for i in range(1, 12)]),
        "sunflower(12, 3)": sunflower_family(12, 3),
    }[name]
    # Without pruning these take 11! and 10! leaves; with it, a handful.
    monkeypatch.setattr(hg, "_CANONICAL_LEAF_BUDGET", 1000)
    key = canonical_key(_fresh(h))
    rng = random.Random(11)
    for _ in range(20):
        assert canonical_key(_shuffled(rng, h)) == key


def test_networkx_oracle_on_pairs_refinement_cannot_split():
    """Regular pairs: colour refinement leaves one cell, so only the
    individualization search (and its pruning) can tell them apart."""
    rng = random.Random(23)
    pairs = [
        (_cycle(6), _disjoint_union(_cycle(3), _cycle(3))),
        (_petersen(), _prism10()),
    ]
    for a, b in pairs:
        assert not _nx_isomorphic(a, b)
        assert canonical_key(_fresh(a)) != canonical_key(_fresh(b))
        for h in (a, b):
            g = _shuffled(rng, h)
            assert _nx_isomorphic(h, g)
            assert canonical_key(_fresh(g)) == canonical_key(_fresh(h))


# -- serialization ----------------------------------------------------

def test_text_round_trip():
    h = build(7, 3, STAR73)
    assert from_text(h.to_text()) == h


def test_text_comments_and_multiplicity():
    text = "# star\n4 3\n0 1 2\n\n0 1 2\n"
    h = from_text(text)
    assert h.multiplicity([0, 1, 2]) == 2


def test_text_errors_carry_line_numbers():
    with pytest.raises(HypergraphError, match="line 2"):
        from_text("7 3\n0 1\n")
    with pytest.raises(HypergraphError, match="line 3"):
        from_text("7 3\n0 1 2\n0 1 9\n")


@pytest.mark.parametrize("s, detail", [
    ("not a hypergraph", ""),
    ("7", ""),
    ("7 3;0,1", ": edge 0 must have exactly 3 distinct vertices"),
    ("7 3;a,b,c", ""),
    ("7 3;0,1,9", ": edge 0 has vertex id out of range"),
    (b"7 3;0,1,\xff", ""),
])
def test_canonical_string_errors_name_the_string_and_format(s, detail):
    # Python's own parse errors ("too many values to unpack", "invalid
    # literal for int()") say nothing of the input; build's name the edge.
    with pytest.raises(HypergraphError) as exc:
        from_canonical_string(s)
    assert str(exc.value).startswith(
        f'{s!r} is not a canonical string "n r;a,b,...;..."{detail}')


def test_json_round_trip():
    h = build(4, 3, [[0, 1, 2], [0, 1, 2], [1, 2, 3]])
    assert from_json(h.to_json()) == h
