"""Core representation of r-uniform multi-hypergraphs.

Vertices are dense integers 0..n-1 so that isolated vertices are
representable (the vertex count n is a parameter of the Turan function,
not derivable from the edge set).  Multiplicity is represented by
repeated edge instances, never by a counter, so that Berge witnesses can
reference distinct instances of an identical vertex set.

Canonical forms are exact: two hypergraphs receive the same byte string
iff they are isomorphic as multi-hypergraphs.  The canonicalizer is an
individualization-refinement search in the style of nauty (McKay and
Piperno, "Practical graph isomorphism II", 2014), intended for desk scale
(n <= 12 by default).  Each node refines an ordered vertex partition by
colour refinement and individualizes, in turn, each vertex of the first
cell that can still split; every leaf is a vertex order, and the
canonical form is the least relabeled edge list over all leaves, taken
at the first leaf in depth-first order that attains it.  Leaves are
compared by an integer certificate, the sorted codes of their relabeled
edges, that orders exactly as the edge lists; the edge list itself is
built once, for the winning leaf.  Two leaves with equal certificates
give an automorphism: the map sending each vertex of one order to the
vertex at the same position in the other.  The search keeps these as
generators, after any automorphisms the caller already knows.  At a
node with individualized vertices ``path`` it skips a candidate in the
orbit of an explored sibling under the generators that fix ``path``
pointwise, and after an automorphism is found it abandons the rest of
the subtree that the automorphism maps onto an explored one.  Either
way the skipped subtree is an automorphic image of an explored one, so
every leaf it holds has an earlier explored counterpart with equal
relabeled edges; the first least leaf is never skipped, and strings and
relabelings are those of the full search, whatever automorphisms the
caller gave.

Twins, vertices with equal incidence lists (``twin_classes``), are never
individualized: a cell of twins is left in input order, so the search
need not find the automorphisms that only permute twins.  Every
automorphism is, up to such a permutation, in the group that the given
and found generators generate: its image of the first leaf is either
explored, giving a generator, or pruned as the image of an explored
leaf.  The generators and the swaps of twins together thus generate the
whole automorphism group, which is all the symmetry the level search
uses.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Iterable, Iterator

CANONICAL_N_LIMIT = 12

# Guard against pathological symmetry blow-ups in the canonical search.
_CANONICAL_LEAF_BUDGET = 5_000_000


class HypergraphError(ValueError):
    """Raised on malformed hypergraph input."""


class Hypergraph:
    """An immutable n-vertex r-uniform multi-hypergraph.

    ``edges`` is a tuple of edge instances, each a sorted tuple of r
    distinct vertex ids, kept in lexicographic order.  Repeated tuples
    encode multiplicity.  Instance ids are positions in ``edges``.
    """

    __slots__ = ("n", "r", "edges")

    def __init__(self, n: int, r: int, edges: tuple[tuple[int, ...], ...]):
        self.n = n
        self.r = r
        self.edges = edges

    # -- construction -------------------------------------------------

    @staticmethod
    def build(n: int, r: int, edge_lists: Iterable[Iterable[int]]) -> "Hypergraph":
        """Validate and canonically order the instance list.

        Duplicate lists are preserved as multiplicity.  Raises
        HypergraphError on wrong edge size, out-of-range vertex ids, or
        r < 2.
        """
        if r < 2:
            raise HypergraphError(f"uniformity r must be >= 2, got {r}")
        if n < 0:
            raise HypergraphError(f"vertex count must be >= 0, got {n}")
        insts = []
        for i, raw in enumerate(edge_lists):
            # Materialized once: an iterator would be empty after sorting.
            given = list(raw)
            edge = tuple(sorted(given))
            if len(edge) != r or len(set(edge)) != r:
                raise HypergraphError(
                    f"edge {i} must have exactly {r} distinct vertices, got {given!r}"
                )
            if edge[0] < 0 or edge[-1] >= n:
                raise HypergraphError(
                    f"edge {i} has vertex id out of range 0..{n - 1}: {given!r}"
                )
            insts.append(edge)
        insts.sort()
        return Hypergraph(n, r, tuple(insts))

    def with_edge(self, edge: tuple[int, ...]) -> "Hypergraph":
        """Return a new hypergraph with one more instance (edge must be sorted).

        The edge goes in at ``bisect_right``, after its equal instances:
        the tuple that sorting the enlarged instance list would give.
        """
        edges = self.edges
        at = bisect_right(edges, edge)
        return Hypergraph(self.n, self.r, edges[:at] + (edge,) + edges[at:])

    # -- elementary queries -------------------------------------------

    def num_edges(self) -> int:
        """Instance count, i.e. edge count with multiplicity."""
        return len(self.edges)

    def multiplicity(self, edge: Iterable[int]) -> int:
        key = tuple(sorted(edge))
        return sum(1 for e in self.edges if e == key)

    def max_multiplicity(self) -> int:
        best = 0
        run = 0
        prev = None
        for e in self.edges:
            run = run + 1 if e == prev else 1
            prev = e
            best = max(best, run)
        return best

    def vertex_instances(self) -> list[list[int]]:
        """For each vertex, the list of incident instance ids."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for v in e:
                inc[v].append(i)
        return inc

    def support(self) -> list[int]:
        seen = [False] * self.n
        for e in self.edges:
            for v in e:
                seen[v] = True
        return [v for v in range(self.n) if seen[v]]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.r == other.r
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.r, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, r={self.r}, edges={list(map(list, self.edges))})"

    # -- serialization -------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.n} {self.r}"]
        lines.extend(" ".join(map(str, e)) for e in self.edges)
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {"n": self.n, "r": self.r, "edges": [list(e) for e in self.edges]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def build(n: int, r: int, edge_lists: Iterable[Iterable[int]]) -> Hypergraph:
    """Module-level alias for Hypergraph.build."""
    return Hypergraph.build(n, r, edge_lists)


# ----------------------------------------------------------------------
# Parsing (text format: first line "n r", one instance per line, '#'
# comments; repeated lines encode multiplicity)
# ----------------------------------------------------------------------

def from_text(text: str) -> Hypergraph:
    header: tuple[int, int] | None = None
    edges: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            raise HypergraphError(f"line {lineno}: malformed line {raw!r}")
        if header is None:
            if len(values) != 2:
                raise HypergraphError(f"line {lineno}: expected header 'n r'")
            header = (values[0], values[1])
            continue
        n, r = header
        if len(values) != r:
            raise HypergraphError(
                f"line {lineno}: wrong edge size, expected {r} vertex ids"
            )
        if any(v < 0 or v >= n for v in values):
            raise HypergraphError(f"line {lineno}: vertex id out of range 0..{n - 1}")
        edges.append(values)
    if header is None:
        raise HypergraphError("empty input: missing 'n r' header")
    return Hypergraph.build(header[0], header[1], edges)


def from_json_obj(obj: dict) -> Hypergraph:
    try:
        return Hypergraph.build(int(obj["n"]), int(obj["r"]), obj["edges"])
    except (KeyError, TypeError) as exc:
        raise HypergraphError(f"malformed hypergraph JSON object: {exc}")


def from_json(text: str) -> Hypergraph:
    return from_json_obj(json.loads(text))


# ----------------------------------------------------------------------
# Connectivity and neighborhoods
# ----------------------------------------------------------------------

def is_connected(h: Hypergraph) -> bool:
    """True iff every vertex is covered and the incidence structure is connected.

    The degenerate single-vertex hypergraph with zero edges counts as
    connected; any isolated vertex with n >= 2 makes the hypergraph
    disconnected.
    """
    if h.n <= 1:
        return True
    inc = h.vertex_instances()
    if any(not lst for lst in inc):
        return False
    seen_v = [False] * h.n
    seen_e = [False] * len(h.edges)
    stack = [0]
    seen_v[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for i in inc[v]:
            if seen_e[i]:
                continue
            seen_e[i] = True
            for u in h.edges[i]:
                if not seen_v[u]:
                    seen_v[u] = True
                    count += 1
                    stack.append(u)
    return count == h.n


def twin_classes(inc: list[list[int]]) -> list[int]:
    """For each vertex, the id of its twin class, given each vertex's
    incident instance ids (``Hypergraph.vertex_instances``).

    Twins have equal incidence lists: they lie in exactly the same
    instances, so swapping two twins maps the edge multiset onto itself.
    Isolated vertices are twins of one another.  Ids are numbered in
    order of their first vertex.
    """
    ids: dict[tuple[int, ...], int] = {}
    return [ids.setdefault(tuple(lst), len(ids)) for lst in inc]


def hyperedge_neighborhood(h: Hypergraph, s: Iterable[int]) -> list[int]:
    """Instance ids of all edges meeting the vertex set ``s``."""
    sset = set(s)
    return [i for i, e in enumerate(h.edges) if sset.intersection(e)]


def induced_subhypergraph(
    h: Hypergraph, w: Iterable[int]
) -> tuple[Hypergraph, dict[int, int]]:
    """Sub-hypergraph on vertex set ``w``, keeping only fully contained instances.

    Vertices are relabeled 0..|w|-1 order-preservingly; the mapping
    old -> new is returned alongside.  Multiplicities are preserved.
    """
    keep = sorted(set(w))
    if keep and (keep[0] < 0 or keep[-1] >= h.n):
        raise HypergraphError("induced vertex set out of range")
    relabel = {v: i for i, v in enumerate(keep)}
    wset = set(keep)
    edges = [
        tuple(sorted(relabel[v] for v in e))
        for e in h.edges
        if wset.issuperset(e)
    ]
    return Hypergraph.build(len(keep), h.r, edges), relabel


# ----------------------------------------------------------------------
# Exact canonical form (multi-hypergraph isomorphism)
# ----------------------------------------------------------------------

class CanonicalSizeError(HypergraphError):
    """Raised when a hypergraph exceeds the exact-canonicalization limit."""


def _refine(
    edges: tuple[tuple[int, ...], ...],
    inc: list[list[int]],
    twin: list[int],
    weight: list[int],
    cells: list[list[int]],
) -> list[list[int]]:
    """Iterated colour refinement of an ordered partition of the support.

    A vertex's colour is the index of its cell.  Each round splits every
    cell by the sorted list of its vertices' edge colours, in ascending
    order, where an edge's colour is the sorted tuple of its vertices'
    colours, all taken at the start of the round; rounds repeat until no
    cell splits.  An edge's colour tuple is compared through the sum of
    ``weight[colour]`` over its vertices, with ``weight[c] = -b**(n - c)``
    and base ``b > r``: every colour count in an edge is at most r, so
    the sums order equal-length tuples exactly as the tuples do.
    """
    while True:
        edge_key = [0] * len(edges)
        for cell, w in zip(cells, weight):
            for v in cell:
                for i in inc[v]:
                    edge_key[i] += w
        out: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple(sorted([edge_key[i] for i in inc[v]]))
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                out.append(cell)
            else:
                out.extend(groups[sig] for sig in sorted(groups))
        # Singleton cells and cells of twins (equal incidence lists) can
        # no longer split, so a partition of only those is stable.
        if len(out) == len(cells) or all(
            len(cell) == 1 or len({twin[v] for v in cell}) == 1 for cell in out
        ):
            return out
        cells = out


def canonical_form(
    h: Hypergraph, automorphisms: list[list[int]] | None = None
) -> tuple[bytes, tuple[int, ...]]:
    """Canonical byte string plus a relabeling (old -> new) achieving it.

    Two hypergraphs get identical strings iff they are isomorphic as
    multi-hypergraphs.  Deterministic.  Raises CanonicalSizeError above
    ``CANONICAL_N_LIMIT`` vertices.

    ``automorphisms``, if given, is a list of known automorphisms of h as
    vertex maps (old -> new).  The search starts from them, so they prune
    from the first node on, and it appends to the same list every
    automorphism it finds.  The result does not depend on them.
    """
    if h.n > CANONICAL_N_LIMIT:
        raise CanonicalSizeError(
            f"exact canonicalization limited to n <= {CANONICAL_N_LIMIT}, "
            f"got n = {h.n}"
        )

    edges = h.edges
    inc = h.vertex_instances()
    support = [v for v in range(h.n) if inc[v]]
    isolated = [v for v in range(h.n) if not inc[v]]

    # Twins lie in the same edges, so a cell of them can be ordered freely
    # and is never individualized.
    twin = twin_classes(inc)
    weight = [-(h.r + 1) ** (h.n - c) for c in range(h.n)]
    # A leaf's certificate: the sorted codes of its relabeled edges, an
    # edge's code being the sum of ``bit[label]`` over its vertices.  For
    # r-sets, lexicographic order is the reverse of bitmask order, so the
    # certificates order exactly as the relabeled edge lists.
    bit = [-(1 << (h.n - 1 - pos)) for pos in range(h.n)]
    # Certificate of every leaf seen -> the first such leaf's vertex order
    # and path; the least certificate is the canonical one.
    seen: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    # Automorphisms known or found at equal leaves, as vertex maps.
    gens: list[list[int]] = [] if automorphisms is None else automorphisms
    leaves = [0]

    def descend(cells: list[list[int]], path: list[int]) -> int | None:
        cells = _refine(edges, inc, twin, weight, cells)
        for at, target in enumerate(cells):
            if len(target) > 1 and any(twin[v] != twin[target[0]] for v in target):
                break
        else:
            leaves[0] += 1
            if leaves[0] > _CANONICAL_LEAF_BUDGET:
                raise CanonicalSizeError("canonical search budget exceeded")
            # Flatten: cells in order, input order inside twin cells.
            order = [v for cell in cells for v in cell]
            code = [0] * h.n
            for v, b in zip(order, bit):
                code[v] = b
            cert = tuple(sorted([sum(map(code.__getitem__, e)) for e in edges]))
            if cert not in seen:
                seen[cert] = (order, path)
                return None
            first, first_path = seen[cert]
            # Equal relabeled edges: the map sending each vertex of this
            # order to the vertex at its position in the first maps h
            # onto itself.
            gamma = list(range(h.n))
            for v, u in zip(order, first):
                gamma[v] = u
            gens.append(gamma)
            # gamma fixes the common prefix of the two paths and maps this
            # path's next vertex onto the first's, so the rest of this
            # subtree is an image of explored leaves: return to depth j.
            j = 0
            while path[j] == first_path[j]:
                j += 1
            return j
        # Individualize each candidate of the first genuinely split cell,
        # skipping those in the orbit of an explored one under the
        # automorphisms found so far that fix ``path`` pointwise.
        root = {v: v for v in target}

        def find(v: int) -> int:
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        used = 0
        explored: list[int] = []
        for v in target:
            for gamma in gens[used:]:
                if all(gamma[u] == u for u in path):
                    for u in target:
                        a, b = find(u), find(gamma[u])
                        if a != b:
                            root[a] = b
            used = len(gens)
            if any(find(u) == find(v) for u in explored):
                continue
            rest = [u for u in target if u != v]
            jump = descend(cells[:at] + [[v], rest] + cells[at + 1:], path + [v])
            if jump is not None and jump < len(path):
                return jump
            explored.append(v)
        return None

    # The first refinement round splits the support by degree, lowest first.
    by_degree: dict[int, list[int]] = {}
    for v in support:
        by_degree.setdefault(len(inc[v]), []).append(v)
    descend([by_degree[d] for d in sorted(by_degree)], [])
    order = seen[min(seen)][0]

    # ``order`` holds the support, so isolated vertices take the last labels.
    pi_list = [0] * h.n
    for p, v in enumerate(order + isolated):
        pi_list[v] = p
    relabeled_edges = sorted([tuple(sorted([pi_list[v] for v in e])) for e in edges])
    return _encode(h.n, h.r, relabeled_edges), tuple(pi_list)


def _encode(n: int, r: int, relabeled_edges: list[tuple[int, ...]]) -> bytes:
    parts = [f"{n} {r}"]
    parts.extend(",".join(map(str, e)) for e in relabeled_edges)
    return ";".join(parts).encode("ascii")


def canonical_key(h: Hypergraph) -> bytes:
    return canonical_form(h)[0]


def from_canonical_string(s: str | bytes) -> Hypergraph:
    """Decode the canonical encoding "n r;a,b,...;..." back into a
    hypergraph.  Raises HypergraphError naming ``s`` if it is not one."""
    try:
        text = s.decode("ascii") if isinstance(s, bytes) else s
        head, *parts = text.split(";")
        n_str, r_str = head.split()
        edges = [[int(v) for v in p.split(",")] for p in parts if p]
        return Hypergraph.build(int(n_str), int(r_str), edges)
    except (ValueError, AttributeError) as exc:
        why = f": {exc}" if isinstance(exc, HypergraphError) else ""
        raise HypergraphError(
            f"{s!r} is not a canonical string \"n r;a,b,...;...\"{why}") from None


def relabel(h: Hypergraph, pi: dict[int, int] | tuple[int, ...]) -> Hypergraph:
    """Apply a vertex permutation (old -> new) to all instances."""
    return Hypergraph.build(h.n, h.r, [[pi[v] for v in e] for e in h.edges])


# ----------------------------------------------------------------------
# Iteration helpers
# ----------------------------------------------------------------------

def all_vertex_subsets(n: int, min_size: int = 0) -> Iterator[tuple[int, ...]]:
    """All subsets of 0..n-1 with at least ``min_size`` elements (n <= ~20)."""
    for mask in range(1 << n):
        if mask.bit_count() >= min_size:
            yield tuple(v for v in range(n) if mask >> v & 1)
