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
closes back to its start.

``new_edge_detector`` serves a search that grows a hypergraph h one
instance at a time.  Its precondition is that h is free of the
configuration sought.  Then h plus one more instance of an edge e
contains one exactly when some witness uses the added instance, so the
same walk is anchored there: it starts at a pair of e whose slot holds
only that instance and runs over the index of h, which is built once
for all candidate edges.

All functions are pure and deterministic.  Because sequences are
visited in lexicographic order, a path witness has the lexicographically
least vertex sequence among the paths of its length, and a cycle
witness the least one that starts at its minimum vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .hypergraph import Hypergraph


@dataclass(frozen=True)
class BergeWitness:
    kind: str  # "path" | "cycle"
    vertices: tuple[int, ...]
    edge_instances: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "vertices": list(self.vertices),
            "edge_instances": list(self.edge_instances),
        }


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
        """Add a slot over ``insts``; augment; undo and refuse if impossible."""
        slot = len(self.slots)
        self.slots.append(insts)
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

    def assignment(self) -> tuple[int, ...]:
        return tuple(self.match)


def _walk(
    index: list[dict[int, list[int]]],
    most: int,
    close_from: int = 0,
    anchor: tuple[tuple[int, ...], int] | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The depth-first walk behind every query.

    Sequences step to neighbours in the ascending order of ``index``, as
    long as the matcher can give the new pair a distinct instance.
    ``most`` is the largest witness length (instance count) to reach.
    Unanchored, sequences start at each vertex in ascending order.  With
    ``anchor`` = (edge, inst) they start at each pair u < v of ``edge``
    instead, and that first slot holds only ``inst``, an instance id
    outside the index, so every sequence walked uses ``inst`` there.

    Path mode (``close_from`` 0) returns the first deepest sequence,
    stopping early once it has ``most`` edges.  It grows the right end;
    an anchored path, at every length of its right end, also grows its
    left end from u (u < v covers both orientations of the anchor pair).
    Cycle mode tries to close a sequence back to its first vertex once
    it has at least ``close_from`` vertices, grows it to at most ``most``
    vertices, and returns the first cycle closed; unanchored, each
    sequence starts at its minimum vertex.  The result is (vertices,
    instances), or None when nothing qualifies.
    """
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
                    found = (tuple(seq), matcher.assignment())
                    return True
            if size == most:
                return False
        elif size > reach:
            reach = size
            # While the left end grows the sequence is reversed, and so
            # is the order of the first ``split`` slots in it.
            insts = matcher.assignment()
            found = (tuple(seq), insts[:split][::-1] + insts[split:])
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
        for nxt, insts in index[last].items():
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
        edge, inst = anchor
        for u, v in itertools.combinations(edge, 2):
            seq[:] = (u, v)
            used[u] = used[v] = True
            matcher.push([inst])
            if extend():
                break
            matcher.pop()
            used[u] = used[v] = False
        return found
    for start in range(len(index)):
        if not index[start]:
            continue
        seq.append(start)
        used[start] = True
        if extend():
            break
        seq.pop()
        # A cycle sequence starts at its minimum vertex, so each finished
        # start stays marked used.
        used[start] = bool(close_from)
    return found


# ----------------------------------------------------------------------
# Public queries
# ----------------------------------------------------------------------

def contains_berge_path(
    h: Hypergraph, k: int, want_witness: bool = False
) -> bool | tuple[bool, BergeWitness | None]:
    """Exact decision for a Berge path of length k (k >= 1)."""
    if k < 1:
        raise ValueError(f"path length must be >= 1, got {k}")
    witness = None
    if k <= min(len(h.edges), h.n - 1):
        found = _walk(_pair_index(h), k)
        if found is not None and len(found[0]) == k + 1:
            witness = BergeWitness("path", *found)
    if want_witness:
        return (witness is not None), witness
    return witness is not None


def longest_berge_path(h: Hypergraph) -> tuple[int, BergeWitness | None]:
    """Length of a longest Berge path together with one witness.

    The empty hypergraph yields (0, None).  The witness is the first one
    found in ascending vertex order at the maximal length.
    """
    found = _walk(_pair_index(h), min(len(h.edges), h.n - 1))
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
    if k < 2:
        raise ValueError(f"cycle length must be >= 2, got {k}")
    if mode not in ("exact", "at_least"):
        raise ValueError(f"unknown cycle mode {mode!r}")
    witness = None
    cap = min(len(h.edges), h.n)
    if k <= cap:
        found = _walk(_pair_index(h), k if mode == "exact" else cap, close_from=k)
        if found is not None:
            witness = BergeWitness("cycle", *found)
    if want_witness:
        return (witness is not None), witness
    return witness is not None


def new_edge_detector(
    h: Hypergraph, k: int, cycle_mode: str | None = None
) -> Callable[[tuple[int, ...]], bool]:
    """A test ``e -> bool``: does h plus one more instance of the sorted
    edge e contain a Berge path of length k (``cycle_mode`` None), or a
    Berge cycle of length exactly k ("exact") or at least k ("at_least")?

    Precondition: h contains none.  Then any witness in h + e uses the
    added instance, so the walk is anchored at it, on each pair of e in
    turn.  Every other slot is matched to an instance of h, over the pair
    index of h, which is built once here and shared by every test.  On
    an h that breaks the precondition the answers mean nothing.
    """
    index = _pair_index(h)
    inst = len(h.edges)
    if cycle_mode is None:
        if k < 1:
            raise ValueError(f"path length must be >= 1, got {k}")
        most, close_from, cap = k, 0, min(inst + 1, h.n - 1)
    else:
        if k < 2:
            raise ValueError(f"cycle length must be >= 2, got {k}")
        if cycle_mode not in ("exact", "at_least"):
            raise ValueError(f"unknown cycle mode {cycle_mode!r}")
        cap = min(inst + 1, h.n)
        most, close_from = (k if cycle_mode == "exact" else cap), k

    def violates_with(e: tuple[int, ...]) -> bool:
        if k > cap:
            return False
        found = _walk(index, most, close_from, (e, inst))
        return found is not None and (close_from > 0 or len(found[1]) == k)

    return violates_with
