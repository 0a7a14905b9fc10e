"""Exact Berge path and Berge cycle detection.

A Berge path of length k is k+1 distinct vertices v_1..v_{k+1} together
with k distinct edge instances e_1..e_k such that {v_i, v_{i+1}} is
contained in e_i for every i.  A Berge cycle of length k is k distinct
vertices and k distinct instances with the containments read cyclically.

Every query runs the same depth-first walk over vertex sequences.  Each
call builds one index over vertex pairs: for every vertex, its
neighbours in ascending order, each mapped to the ascending ids of the
instances that contain both.  The walk takes its steps from that index,
and instance assignment is an incremental bipartite matching between
consecutive vertex pairs ("slots") and the same instance lists.  A step
is allowed only when the matching can be augmented, i.e. only when
Hall's condition still holds for the slots chosen so far.  This never
branches over interchangeable instances, which keeps sunflower and
high-multiplicity inputs fast, and it is exact: a full-length sequence
with a complete matching is precisely a Berge witness.  Paths and
cycles differ only in where the walk stops and whether a sequence
closes back to its start.  The walk's recursive step is a closure that
reaches itself through its own cell, so the walk deletes that name
before it returns: reference counting then frees the walk's state at
once, and none of it is left to the cyclic garbage collector.

The unanchored queries also skip interchangeable vertices
(``hypergraph.interchangeable_classes``), which keeps cliques, hubs and
stars fast; ``_walk`` says where it skips and why its results are those
of the full walk.

The unanchored queries first compare k with a degree cap.  Let D2 be
the number of vertices in at least two instances and D1 the number in
exactly one.  Every vertex of a Berge cycle, and every interior vertex
of a Berge path, lies in the two distinct instances of its two pairs.
So a cycle has at most D2 instances, and a path with k instances, whose
k + 1 vertices are k - 1 interior ones and two ends, has k + 1 <=
D2 + min(2, D1).  A query for a longer k answers "no" with no index,
classes or walk, as the walk would.  A longest path walk stops once a
path reaches the path cap: up to then it takes the uncapped walk's
steps, and that walk records no longer path afterwards, so the witness
is the same.  The cycle walk's ``most`` in "at_least" mode is not
capped: a smaller ``most`` cuts growth, which changes the matcher's
history and so could change later witness instances.  The anchored
detector uses no degree cap.

``new_edge_detector`` serves a search that grows a hypergraph one
instance at a time.  It anchors the same walk at the added instance;
its docstring says why that is exact, why one walk answers a whole orbit
of vertex pairs, and which further pairs a witness proves.

All functions are pure and deterministic.  Because sequences are
visited in lexicographic order, a path witness has the lexicographically
least vertex sequence among the paths of its length, and a cycle
witness the least one that starts at its minimum vertex.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence

from .hypergraph import Hypergraph, interchangeable_classes


@dataclass(frozen=True)
class BergeWitness:
    kind: str  # "path" | "cycle"
    vertices: tuple[int, ...]
    edge_instances: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return asdict(self)


def verify_witness(h: Hypergraph, w: BergeWitness) -> bool:
    """Check a witness against all defining invariants.

    Raises ValueError on instance ids outside 0..len(edges)-1; any other
    defect simply yields False.
    """
    for i in w.edge_instances:
        if i < 0 or i >= len(h.edges):
            raise ValueError(f"edge instance id {i} out of range")
    k = len(w.edge_instances)
    if len(set(w.edge_instances)) != k:
        return False
    if len(set(w.vertices)) != len(w.vertices):
        return False
    if any(v < 0 or v >= h.n for v in w.vertices):
        return False
    if w.kind == "path":
        if k < 1 or len(w.vertices) != k + 1:
            return False
        pairs = [(w.vertices[i], w.vertices[i + 1]) for i in range(k)]
    elif w.kind == "cycle":
        if k < 2 or len(w.vertices) != k:
            return False
        pairs = [(w.vertices[i], w.vertices[(i + 1) % k]) for i in range(k)]
    else:
        return False
    for (u, v), inst in zip(pairs, w.edge_instances):
        e = h.edges[inst]
        if u not in e or v not in e:
            return False
    return True


# ----------------------------------------------------------------------
# The pair index, the slot-instance matching and the walk
# ----------------------------------------------------------------------

def _pair_index(h: Hypergraph) -> list[dict[int, list[int]]]:
    """``index[u]`` maps each neighbour v of u, in ascending order, to the
    ascending ids of the instances containing both u and v; the two
    directions of a pair share one list."""
    pairs: dict[tuple[int, int], list[int]] = {}
    for i, e in enumerate(h.edges):
        for a in range(len(e)):
            for b in range(a + 1, len(e)):
                pairs.setdefault((e[a], e[b]), []).append(i)
    index: list[dict[int, list[int]]] = [{} for _ in range(h.n)]
    for (u, v), insts in sorted(pairs.items()):
        index[u][v] = insts
        index[v][u] = insts
    return index


class _PairMatcher:
    """A matching from pair slots to distinct edge instances.  A slot is
    a list of candidate instances, normally a pair list of the index."""

    __slots__ = ("slots", "match", "owner")

    def __init__(self):
        self.slots: list[list[int]] = []  # slot -> candidate instances
        self.match: list[int] = []  # slot -> instance
        self.owner: dict[int, int] = {}  # instance -> slot

    def push(self, insts: list[int]) -> bool:
        """Add a slot over ``insts``; augment; undo and refuse if impossible.

        A free first instance is taken at once, with no search: it is the
        instance ``_augment`` would take first, so the matching is the
        same either way.
        """
        slot = len(self.slots)
        self.slots.append(insts)
        first = insts[0]
        if first not in self.owner:
            self.owner[first] = slot
            self.match.append(first)
            return True
        self.match.append(-1)
        if self._augment(slot, set()):
            return True
        self.slots.pop()
        self.match.pop()
        return False

    def pop(self) -> None:
        inst = self.match.pop()
        self.slots.pop()
        if inst >= 0:
            del self.owner[inst]

    def _augment(self, slot: int, visited: set[int]) -> bool:
        for inst in self.slots[slot]:
            if inst in visited:
                continue
            visited.add(inst)
            holder = self.owner.get(inst)
            if holder is None or self._augment(holder, visited):
                self.owner[inst] = slot
                self.match[slot] = inst
                return True
        return False


def _class_firsts(vertices: Iterable[int], classes: Sequence[int]) -> list[int]:
    """The first of ``vertices`` in each of their classes, in their order."""
    firsts: dict[int, int] = {}
    for v in vertices:
        firsts.setdefault(classes[v], v)
    return list(firsts.values())


def _walk(
    index: list[dict[int, list[int]]],
    most: int,
    close_from: int = 0,
    anchor: tuple[tuple[int, int], int] | None = None,
    classes: Sequence[int] | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The depth-first walk behind every query.

    Sequences step to neighbours in the ascending order of ``index``, as
    long as the matcher can give the new pair a distinct instance.
    ``most`` is the largest witness length (instance count) to reach.
    Unanchored, sequences start at each vertex in ascending order.  With
    ``anchor`` = ((u, v), inst), u < v, they start at u, v instead, and
    that first slot holds only ``inst``, an instance id outside the
    index, so every sequence walked uses ``inst`` there.

    Path mode (``close_from`` 0) returns the first deepest sequence,
    stopping early once it has ``most`` edges.  It grows the right end;
    an anchored path, at every length of its right end, also grows its
    left end from u (u < v covers both orientations of the anchor pair).
    Cycle mode tries to close a sequence back to its first vertex once
    it has at least ``close_from`` vertices, grows it to at most ``most``
    vertices, and returns the first cycle closed; unanchored, each
    sequence starts at its minimum vertex.  The result is (vertices,
    instances), or None when nothing qualifies.

    ``classes`` (unanchored only) gives each vertex the id of its class
    of interchangeable vertices.  The walk then starts at the first
    vertex of each class, and from a start steps to the first unused
    vertex of each class.  At both depths the matcher is empty before and
    after each branch.  Swapping a skipped vertex with the tried one of
    its class is an automorphism that fixes the rest of ``seq`` and
    ``used``, so it maps the skipped branch onto the tried branch; for a
    skipped cycle start, whose walk excludes the tried start, the image
    is the part of the tried branch that excludes the skipped vertex.
    The tried branch reached no greater length than ``found`` and closed
    no cycle, so the result is that of the walk without ``classes``,
    instances included.  A skipped cycle start is still marked used, as
    a walked one is; left unused, a later walk could pass through it and
    its augmentations could move an earlier slot's instance.  Deeper,
    the matcher holds the reassignments of earlier augmentations, which
    a pop does not undo, so it depends on the order of earlier branches;
    a skip there could change a witness's instances, and none is made.
    """
    if classes is None:  # every vertex its own class: nothing is skipped
        classes = range(len(index))
    matcher = _PairMatcher()
    used = [False] * len(index)
    seq: list[int] = []
    grow_left = anchor is not None and not close_from
    split = 0  # growing the left end: the slot count when it started
    found = None
    reach = 1  # path mode: vertex count of ``found``

    def extend() -> bool:
        nonlocal found, reach, split
        size = len(seq)
        last = seq[-1]
        if close_from:
            if size >= close_from:
                insts = index[last].get(seq[0])
                if insts and matcher.push(insts):
                    found = (tuple(seq), tuple(matcher.match))
                    return True
            if size == most:
                return False
        elif size > reach:
            reach = size
            # While the left end grows the sequence is reversed, and so
            # is the order of the first ``split`` slots in it.
            insts = matcher.match
            found = (tuple(seq), tuple(insts[:split][::-1] + insts[split:]))
            if size > most:
                return True
        if grow_left and not split:
            # Reversed, the sequence ends at u, so the steps below grow
            # the left end.
            seq.reverse()
            split = size - 1
            stop = extend()
            split = 0
            seq.reverse()
            if stop:
                return True
        steps = index[last].items()
        if size == 1:
            # No slot is matched yet: step to one vertex of each class.
            firsts = _class_firsts((v for v in index[last] if not used[v]), classes)
            steps = [(v, index[last][v]) for v in firsts]
        for nxt, insts in steps:
            if used[nxt] or not matcher.push(insts):
                continue
            seq.append(nxt)
            used[nxt] = True
            stop = extend()
            used[nxt] = False
            seq.pop()
            matcher.pop()
            if stop:
                return True
        return False

    if anchor is not None:
        (u, v), inst = anchor
        seq[:] = (u, v)
        used[u] = used[v] = True
        matcher.push([inst])
        extend()
    else:
        starts = set(_class_firsts((v for v in range(len(index)) if index[v]),
                                   classes))
        for start in range(len(index)):
            if start in starts:
                seq.append(start)
                used[start] = True
                if extend():
                    break
                seq.pop()
            # A cycle sequence starts at its minimum vertex, so each start,
            # walked or skipped, stays marked used.
            used[start] = bool(close_from)
    del extend  # the only link in the cycle extend -> its cell -> extend
    return found


def _bounds(
    k: int | None, mode: str | None, instances: int, n: int
) -> tuple[int, int, int]:
    """The walk's ``most`` and ``close_from`` for a query, and its cap:
    the longest path (``mode`` None) or cycle ("exact" or "at_least")
    that ``instances`` instances on n vertices can hold.  A path query
    with k None asks for a longest path, so ``most`` is the cap."""
    if mode is None:
        if k is not None and k < 1:
            raise ValueError(f"path length must be >= 1, got {k}")
        cap = min(instances, n - 1)
        return (cap if k is None else k), 0, cap
    if k < 2:
        raise ValueError(f"cycle length must be >= 2, got {k}")
    if mode not in ("exact", "at_least"):
        raise ValueError(f"unknown cycle mode {mode!r}")
    cap = min(instances, n)
    return (k if mode == "exact" else cap), k, cap


def _degree_cap(h: Hypergraph, cycle: bool) -> int:
    """The longest Berge cycle (``cycle``) or path the degrees of h allow:
    D2 or D2 + min(2, D1) - 1, for D2 vertices in at least two instances
    and D1 in exactly one (see the module docstring)."""
    degrees = Counter(itertools.chain.from_iterable(h.edges)).values()
    twice = sum(d > 1 for d in degrees)
    return twice if cycle else twice + min(2, len(degrees) - twice) - 1


def _counts(found: tuple | None, k: int, close_from: int) -> bool:
    """A walk result is a witness when a cycle closed or a path has k instances."""
    return found is not None and (close_from > 0 or len(found[1]) == k)


def _contains(
    h: Hypergraph, k: int, mode: str | None, want_witness: bool
) -> bool | tuple[bool, BergeWitness | None]:
    """The decision behind both public queries; ``mode`` as in ``_bounds``.

    A k above the degree cap of the module docstring gets "no" with no walk.
    """
    most, close_from, cap = _bounds(k, mode, len(h.edges), h.n)
    witness = None
    if k <= min(cap, _degree_cap(h, close_from > 0)):
        found = _walk(_pair_index(h), most, close_from,
                      classes=interchangeable_classes(h))
        if _counts(found, k, close_from):
            witness = BergeWitness("cycle" if close_from else "path", *found)
    if want_witness:
        return (witness is not None), witness
    return witness is not None


# ----------------------------------------------------------------------
# Public queries
# ----------------------------------------------------------------------

def contains_berge_path(
    h: Hypergraph, k: int, want_witness: bool = False
) -> bool | tuple[bool, BergeWitness | None]:
    """Exact decision for a Berge path of length k (k >= 1)."""
    return _contains(h, k, None, want_witness)


def longest_berge_path(h: Hypergraph) -> tuple[int, BergeWitness | None]:
    """Length of a longest Berge path together with one witness.

    The empty hypergraph yields (0, None).  The witness is the first one
    found in ascending vertex order at the maximal length.  The walk
    stops at the degree cap of the module docstring.
    """
    most = min(_bounds(None, None, len(h.edges), h.n)[0], _degree_cap(h, False))
    found = _walk(_pair_index(h), most, classes=interchangeable_classes(h))
    if found is None:
        return 0, None
    return len(found[1]), BergeWitness("path", *found)


def contains_berge_cycle(
    h: Hypergraph, k: int, mode: str = "exact", want_witness: bool = False
) -> bool | tuple[bool, BergeWitness | None]:
    """Exact decision for Berge cycles.

    mode "exact": a cycle of length exactly k; mode "at_least": any
    length >= k.  Requires k >= 2.
    """
    if mode is None:  # ``_bounds`` would read it as a path query
        raise ValueError("unknown cycle mode None")
    return _contains(h, k, mode, want_witness)


def new_edge_detector(
    h: Hypergraph,
    k: int,
    cycle_mode: str | None,
    pair_orbits: Callable[[], dict[tuple[int, int], int]],
) -> Callable[[tuple[int, ...]], bool] | None:
    """A test ``e -> bool``: does h plus one more instance of the sorted
    edge e contain a Berge path of length k (``cycle_mode`` None), or a
    Berge cycle of length exactly k ("exact") or at least k ("at_least")?
    None instead when k exceeds the cap of ``_bounds`` for h plus one
    instance: no such path or cycle fits, so every e is free, and a caller
    can skip the tests.

    Precondition: h contains none.  Then any witness in h + e uses the
    added instance, so the walk is anchored at it, on a pair u < v of e.
    That first slot holds only the added instance, and every other slot
    is matched to an instance of h over the pair index of h, so the
    answer for a pair does not depend on the rest of e, and a test is the
    OR of its pairs' answers.  An automorphism of h maps the walks
    anchored at a pair onto those anchored at its image, so the answer is
    also the same for every pair on one orbit of a group of automorphisms
    of h.  ``pair_orbits`` returns a map from every pair u < v to an id
    shared by the pairs of one such orbit (the trivial group's map sends
    each pair to itself); it is called once, and only if the detector can
    walk at all.  Each orbit is walked at most once per call, on its
    first lookup: one walk per pair orbit for all candidates of h.

    A witness also proves every pair it can be moved onto.  Let it hold
    the added instance at the slot of a, b, and let X (Y) be the vertices
    off the witness in the instance before a (after b), read cyclically
    in a cycle; at a path end, X (Y) is every vertex off the witness.
    Then for x in X + {a} and y in Y + {b} with x != y, replacing a by x
    and b by y gives a witness of the same length through the added
    instance: the instances on either side still hold the new
    neighbours, and no vertex repeats.  Each walk that finds a witness
    marks all those pairs' orbits "yes" (never overwriting a walked
    answer), so the map must cover every pair, not only those of
    candidates.  Before walking a candidate's first unknown pair, the
    detector answers "yes" if any of its pairs is already known to.  Only
    the walks made depend on the order candidates are asked in; the
    answers do not.  On an h that breaks the precondition the answers
    mean nothing.
    """
    inst = len(h.edges)
    most, close_from, cap = _bounds(k, cycle_mode, inst + 1, h.n)
    if k > cap:
        return None
    index = _pair_index(h)
    orbit = pair_orbits()
    answers: dict = {}  # pair orbit id -> its answer

    def prove(vertices: tuple[int, ...], insts: tuple[int, ...]) -> None:
        """Mark the orbit of every pair x, y the witness proves, as above."""
        size = len(insts)
        j = insts.index(inst)
        off = [v for v in range(h.n) if v not in vertices]
        ends = []
        for side in (j - 1, j + 1):
            if close_from or 0 <= side < size:  # an instance beside the slot
                edge = h.edges[insts[side % size]]
                ends.append([v for v in off if v in edge])
            else:  # a path end
                ends.append(off.copy())
        xs, ys = ends
        xs.append(vertices[j])
        ys.append(vertices[(j + 1) % len(vertices)])
        for x in xs:
            for y in ys:
                if x != y:
                    answers.setdefault(orbit[(x, y) if x < y else (y, x)], True)

    def violates_with(e: tuple[int, ...]) -> bool:
        looked = False
        for pair in itertools.combinations(e, 2):
            key = orbit[pair]
            hit = answers.get(key)
            if hit is None:
                # Before the first walk: another pair may be proved already.
                if not looked:
                    looked = True
                    if any(map(answers.get, map(orbit.__getitem__,
                                                itertools.combinations(e, 2)))):
                        return True
                found = _walk(index, most, close_from, (pair, inst))
                hit = answers[key] = _counts(found, k, close_from)
                if hit:
                    prove(*found)
            if hit:
                return True
        return False

    return violates_with
