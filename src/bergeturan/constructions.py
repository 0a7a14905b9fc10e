"""Deterministic generators for the lower-bound / extremal families.

Every generator places the hub or core at vertex 0 and numbers fresh
blocks consecutively, so identical parameters always produce identical
hypergraphs (and identical canonical forms).

Generator postconditions (connectivity, edge count, forbidden-path
freeness) are deliberately NOT enforced here; ``verify_family_output``
checks them and the test suite exercises it over a parameter grid.  The
k = 4 families and the satellite-bearing cycle families are faithful to
their published recipes but contain the very path they are meant to
avoid; the checker exposes this rather than hiding it.  See the test
suite for the explicit witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .berge import contains_berge_path
from .formulas import _clique_pendant_count, _hub_count
from .hypergraph import Hypergraph, is_connected


class FamilyParamError(ValueError):
    """Raised when generator parameters fall outside the family's regime."""


def _blocks(start: int, size: int, count: int) -> list[list[int]]:
    """Consecutive disjoint vertex blocks [start, start+size), ..."""
    return [
        list(range(start + i * size, start + (i + 1) * size)) for i in range(count)
    ]


def _hub_block_edges(hub: int, fresh: list[int], s: int, r: int) -> list[list[int]]:
    """s r-edges through ``hub`` covering all of ``fresh``.

    Each edge is the hub plus a circular (r-1)-window of the fresh list;
    window starts are evenly spaced, which covers every fresh vertex as
    long as s*(r-1) >= len(fresh).  The edges are pairwise distinct when
    len(fresh) > r-1; with exactly r-1 fresh vertices every window is the
    whole block, so the s edges are one edge of multiplicity s.
    """
    q = len(fresh)
    if s > q:
        raise FamilyParamError(f"cannot host {s} distinct edges on {q} fresh vertices")
    if s * (r - 1) < q:
        raise FamilyParamError(
            f"{s} edges of {r - 1} fresh vertices each cannot cover {q} vertices"
        )
    edges = []
    for j in range(s):
        start = j * q // s
        window = [fresh[(start + i) % q] for i in range(r - 1)]
        edges.append([hub] + window)
    return edges


def _hub_of_blocks(n: int, r: int, k: int, size: int) -> Hypergraph:
    """Hub 0 plus blocks of fresh vertices, every edge through the hub.

    With n = 1 + a*size + b (0 <= b < size): a-1 blocks of ``size``
    fresh vertices carrying floor((k-1)/2) edges each, then one terminal
    block of size+b fresh vertices carrying ceil((k-1)/2) edges, all
    placed by ``_hub_block_edges``.
    """
    a = (n - 1) // size
    edges: list[list[int]] = []
    for fresh in _blocks(1, size, a - 1):
        edges.extend(_hub_block_edges(0, fresh, (k - 1) // 2, r))
    terminal = list(range(1 + (a - 1) * size, n))
    edges.extend(_hub_block_edges(0, terminal, k // 2, r))
    return Hypergraph.build(n, r, edges)


def _with_satellites(
    n: int, r: int, k: int, edges: list[list[int]], start: int
) -> Hypergraph:
    """``edges`` on vertices [0, start) plus satellites on the rest.

    Each satellite is the anchors 0, 2, ..., 2(d-1), d = floor((k-1)/2),
    together with r-d private fresh vertices, so the n-start residual
    vertices must split into blocks of r-d.
    """
    d = (k - 1) // 2
    step = r - d
    if (n - start) % step != 0:
        raise FamilyParamError(
            f"residual vertices {n - start} not divisible by r - floor((k-1)/2) = {step}"
        )
    anchors = [2 * j for j in range(d)]  # pairwise non-adjacent on the cycle
    sats = [anchors + blk for blk in _blocks(start, step, (n - start) // step)]
    return Hypergraph.build(n, r, edges + sats)


def _satellite_count(n: int, r: int, k: int, start: int) -> int:
    """Edges of a ``_with_satellites`` member whose ``edges`` are the k-1
    instances of a Berge cycle: those plus one satellite per block."""
    return (k - 1) + (n - start) // (r - (k - 1) // 2)


# ----------------------------------------------------------------------
# k = 3: stars and overlapping pairs
# ----------------------------------------------------------------------

def bp3_free_family(n: int, r: int, variant: str) -> Hypergraph:
    """Connected families with no Berge path of length 3.

    variant "star": (n-1)/(r-1) edges sharing exactly the hub vertex;
    requires n >= 2r-1 and (r-1) | (n-1) (outside the divisibility there
    is no such spanning hypergraph at all).  Built by ``_hub_of_blocks``
    with k = 3 and block size r-1: one edge per block.
    variant "double_edge": two r-edges overlapping in 2r-n >= 2 vertices;
    requires r+1 <= n <= 2r-2.
    """
    if r < 3:
        raise FamilyParamError("bp3 families need r >= 3")
    if variant == "star":
        if n < 2 * r - 1:
            raise FamilyParamError(f"star needs n >= 2r-1 = {2 * r - 1}, got n={n}")
        if (n - 1) % (r - 1) != 0:
            raise FamilyParamError(
                f"star needs (r-1) | (n-1); {r - 1} does not divide {n - 1}"
            )
        return _hub_of_blocks(n, r, 3, r - 1)
    if variant == "double_edge":
        if not (r + 1 <= n <= 2 * r - 2):
            raise FamilyParamError(
                f"double_edge needs r+1 <= n <= 2r-2, got n={n}, r={r}"
            )
        shared = list(range(2 * r - n))
        e1 = shared + list(range(2 * r - n, r))
        e2 = shared + list(range(r, n))
        return Hypergraph.build(n, r, [e1, e2])
    raise FamilyParamError(f"unknown bp3 variant {variant!r}")


# ----------------------------------------------------------------------
# k = 4: shared-core path gadget plus satellites
# ----------------------------------------------------------------------

def bp4_free_family(n: int, r: int, variant: str) -> Hypergraph:
    """The k = 4 families: a 3-edge shared-core path gadget plus extras.

    variant "compact" (r+2 <= n <= r+4): one extra edge through the two
    path endpoints, absorbing any leftover vertices first.
    variant "pair_hub" (n >= r+5, (r-2) | (n-4)): satellites through the
    two middle path vertices, fresh otherwise.
    variant "point_hub" (n >= r+5, (r-1) | (n-5)): one parallel edge on
    the core plus a pendant star through the third path vertex.
    """
    if r < 4:
        raise FamilyParamError("bp4 families need r >= 4")
    core = list(range(r - 2))  # the set shared by the three gadget edges
    v1, v2, v3, v4 = r - 2, r - 1, r, r + 1
    base = [core + [v1, v2], core + [v2, v3], core + [v3, v4]]
    if variant == "compact":
        if not (r + 2 <= n <= r + 4):
            raise FamilyParamError(
                f"compact needs r+2 <= n <= r+4, got n={n}, r={r}"
            )
        extras = list(range(r + 2, n))
        fourth = [v1, v4] + extras + core[: r - 2 - len(extras)]
        return Hypergraph.build(n, r, base + [fourth])
    if variant == "pair_hub":
        if n < r + 5 or (n - 4) % (r - 2) != 0:
            raise FamilyParamError(
                f"pair_hub needs n >= r+5 and (r-2) | (n-4), got n={n}, r={r}"
            )
        count = (n - (r + 2)) // (r - 2)
        sats = [[v2, v3] + blk for blk in _blocks(r + 2, r - 2, count)]
        return Hypergraph.build(n, r, base + sats)
    if variant == "point_hub":
        if n < r + 5 or (n - 5) % (r - 1) != 0:
            raise FamilyParamError(
                f"point_hub needs n >= r+5 and (r-1) | (n-5), got n={n}, r={r}"
            )
        parallel = core + [r + 2, r + 3]
        count = (n - (r + 4)) // (r - 1)
        sats = [[v3] + blk for blk in _blocks(r + 4, r - 1, count)]
        return Hypergraph.build(n, r, base + [parallel] + sats)
    raise FamilyParamError(f"unknown bp4 variant {variant!r}")


# ----------------------------------------------------------------------
# 5 <= k <= r: hub of blocks
# ----------------------------------------------------------------------

def hub_family(n: int, r: int, k: int) -> Hypergraph:
    """Blocks glued at a single hub vertex; no Berge path of length k.

    With n = 1 + a*r + b (0 <= b < r, a >= 1) and n not a multiple of r:
    a-1 blocks of r fresh vertices carrying floor((k-1)/2) edges each,
    and one block of r+b fresh vertices carrying ceil((k-1)/2) edges,
    built by ``_hub_of_blocks`` with block size r.  All edges contain
    the hub, so a Berge path meets at most two blocks and its length is
    at most (k-1)/2 rounded both ways, i.e. k-1.
    Edge count: floor((k-1)/2) * floor((n-1)/r) + (1 if k even else 0).

    The freeness argument only needs every edge to contain the hub, so
    the generator also admits k = r+1 (where the family is a valid
    lower bound but no longer extremal).
    """
    if not (5 <= k <= r + 1):
        raise FamilyParamError(f"hub family needs 5 <= k <= r+1, got k={k}, r={r}")
    if n % r == 0:
        raise FamilyParamError(f"hub family undefined when r | n (n={n}, r={r})")
    if n < r + 1:
        raise FamilyParamError(f"need n >= r+1, got n={n}")
    return _hub_of_blocks(n, r, k, r)


def cycle_satellite_family(n: int, r: int, k: int) -> Hypergraph:
    """A length-(k-1) Berge cycle with private fillers, plus satellites
    through a fixed set of floor((k-1)/2) pairwise non-adjacent cycle
    vertices, each satellite completed by private fresh vertices.

    Faithful to its published recipe.  NOTE: with at least one satellite
    the output provably CONTAINS a Berge path of length k (walk the full
    cycle from a filler, then hop into a satellite); only the
    satellite-free instances (n equal to the cycle gadget size) satisfy
    the intended freeness.  verify_family_output reports this honestly.
    """
    if not (5 <= k <= r):
        raise FamilyParamError(
            f"cycle satellite family needs 5 <= k <= r, got k={k}, r={r}"
        )
    m = k - 1  # cycle length
    gadget = m * (r - 1)  # m cycle vertices + m*(r-2) private fillers
    if n < gadget:
        raise FamilyParamError(f"need n >= {gadget} to host the cycle gadget")
    edges = [[i, (i + 1) % m] + fillers
             for i, fillers in enumerate(_blocks(m, r - 2, m))]
    return _with_satellites(n, r, k, edges, gadget)


# ----------------------------------------------------------------------
# k = r+1 and the conjectured range
# ----------------------------------------------------------------------

def sunflower_family(n: int, r: int) -> Hypergraph:
    """All edges share a common (r-1)-core: n-r+1 edges, no Berge path of
    length r+1 (interior path vertices must lie in the core).  This is
    ``clique_pendant_family`` at k = r+1, whose clique is empty."""
    if n < r + 1:
        raise FamilyParamError(f"sunflower needs n >= r+1, got n={n}, r={r}")
    return clique_pendant_family(n, r, r + 1)


def clique_pendant_family(n: int, r: int, k: int) -> Hypergraph:
    """A complete r-uniform hypergraph on k-2 vertices plus one pendant
    edge per outside vertex through a fixed (r-1)-subset of the clique.

    Defined for r+1 <= k <= 2r-1 and n >= k-1.  Edge count:
    n - (k-2) + C(k-2, r).  At k = r+1 this degenerates to the sunflower.
    """
    if not (r + 1 <= k <= 2 * r - 1):
        raise FamilyParamError(
            f"clique-pendant family needs r+1 <= k <= 2r-1, got k={k}, r={r}"
        )
    if n < k - 1:
        raise FamilyParamError(f"need n >= k-1, got n={n}, k={k}")
    s = k - 2
    edges = [list(c) for c in combinations(range(s), r)]
    core = list(range(r - 1))
    edges.extend(core + [v] for v in range(s, n))
    return Hypergraph.build(n, r, edges)


# ----------------------------------------------------------------------
# Multi-hypergraph families (bounded multiplicity)
# ----------------------------------------------------------------------

def multi_family(n: int, r: int, k: int, variant: str) -> Hypergraph:
    """Multi-hypergraph lower-bound families for k <= r.

    variant "star": with n = 1 + a*(r-1) + b (a >= 2, 0 <= b <= r-3):
    a-1 hub edges of multiplicity floor((k-1)/2) on r-1 private fresh
    vertices each, plus one block of r-1+b fresh vertices carrying
    ceil((k-1)/2) edge instances: distinct edges when b > 0, one edge of
    that multiplicity when b = 0.  Built by ``_hub_of_blocks`` with block
    size r-1, the same builder as ``hub_family``.  Instance count:
    floor((n-1)/(r-1)) * floor((k-1)/2) + (1 if k even else 0).

    variant "cycle": one vertex set of size r with multiplicity k-1
    (realizing a Berge cycle of length k-1), plus satellites through
    floor((k-1)/2) of its vertices when n > r, placed by
    ``_with_satellites`` as in cycle_satellite_family.  Any satellite
    creates a Berge path of length k; only n = r is genuinely free.
    """
    if not (3 <= k <= r):
        raise FamilyParamError(f"multi families need 3 <= k <= r, got k={k}, r={r}")
    if n < r:
        raise FamilyParamError(f"need n >= r, got n={n}")
    if variant == "star":
        a, b = divmod(n - 1, r - 1)
        if a < 2:
            raise FamilyParamError(f"multi star needs n >= 2r-1, got n={n}")
        if b == r - 2:
            raise FamilyParamError(
                f"multi star undefined when (r-1) | n (n={n}, r={r})"
            )
        hi = k // 2
        if hi * (r - 1) < r - 1 + b:
            raise FamilyParamError(
                f"terminal block of {r - 1 + b} fresh vertices not coverable by "
                f"{hi} edges (k={k} too small for b={b})"
            )
        return _hub_of_blocks(n, r, k, r - 1)
    if variant == "cycle":
        return _with_satellites(n, r, k, [list(range(r))] * (k - 1), r)
    raise FamilyParamError(f"unknown multi variant {variant!r}")


# ----------------------------------------------------------------------
# Registry, expected counts, and output verification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyInfo:
    """How to build a family member and what its contract promises."""

    forbidden: object  # (r, k) -> the path length members avoid; None: k is required
    builder: object
    expected_count: object  # (n, r, k) -> int


_FAMILIES: dict[str, FamilyInfo] = {
    "star": FamilyInfo(lambda r, k: 3,
                       lambda n, r, k: bp3_free_family(n, r, "star"),
                       lambda n, r, k: _hub_count(n, 3, r - 1)),
    "double-edge": FamilyInfo(lambda r, k: 3,
                              lambda n, r, k: bp3_free_family(n, r, "double_edge"),
                              lambda n, r, k: 2),
    "bp4-compact": FamilyInfo(lambda r, k: 4,
                              lambda n, r, k: bp4_free_family(n, r, "compact"),
                              lambda n, r, k: 4),
    "bp4-pair-hub": FamilyInfo(lambda r, k: 4,
                               lambda n, r, k: bp4_free_family(n, r, "pair_hub"),
                               lambda n, r, k: (n - 4) // (r - 2) + 2),
    "bp4-point-hub": FamilyInfo(lambda r, k: 4,
                                lambda n, r, k: bp4_free_family(n, r, "point_hub"),
                                lambda n, r, k: (n - 5) // (r - 1) + 3),
    "hub": FamilyInfo(lambda r, k: k,
                      lambda n, r, k: hub_family(n, r, k),
                      lambda n, r, k: _hub_count(n, k, r)),
    "cycle-hub": FamilyInfo(
        lambda r, k: k,
        lambda n, r, k: cycle_satellite_family(n, r, k),
        lambda n, r, k: _satellite_count(n, r, k, (k - 1) * (r - 1))),
    "sunflower": FamilyInfo(lambda r, k: r + 1,
                            lambda n, r, k: sunflower_family(n, r),
                            _clique_pendant_count),  # called with k = r+1
    "clique-pendants": FamilyInfo(lambda r, k: k,
                                  lambda n, r, k: clique_pendant_family(n, r, k),
                                  _clique_pendant_count),
    "multi-star": FamilyInfo(lambda r, k: k,
                             lambda n, r, k: multi_family(n, r, k, "star"),
                             lambda n, r, k: _hub_count(n, k, r - 1)),
    "multi-cycle": FamilyInfo(lambda r, k: k,
                              lambda n, r, k: multi_family(n, r, k, "cycle"),
                              lambda n, r, k: _satellite_count(n, r, k, r)),
}


def family_names() -> list[str]:
    return sorted(_FAMILIES)


def _forbidden_length(name: str, r: int, k: int | None) -> int:
    """The Berge path length that the family's members avoid at (r, k)."""
    info = _FAMILIES.get(name)
    if info is None:
        raise FamilyParamError(f"unknown family {name!r}; known: {family_names()}")
    length = info.forbidden(r, k)
    if length is None:
        raise FamilyParamError(f"family {name!r} requires a path length k")
    return length


def make_family(name: str, n: int, r: int, k: int | None = None) -> Hypergraph:
    """Build a registered family member by CLI name."""
    _forbidden_length(name, r, k)  # refuses an unknown name or a missing k
    return _FAMILIES[name].builder(n, r, k)


@dataclass
class FamilyCheck:
    """Result of verifying a generator output against its contract."""

    k: int  # the forbidden path length checked
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_family_output(
    name: str,
    h: Hypergraph,
    n: int,
    r: int,
    k: int | None = None,
    check_bp_free: bool = True,
) -> FamilyCheck:
    """Check uniformity, vertex count, connectivity, the closed-form edge
    count, and (optionally, via the exact detector) BP_k-freeness."""
    kk = _forbidden_length(name, r, k)
    expected = _FAMILIES[name].expected_count(n, r, kk)
    failures = []
    if any(len(e) != r for e in h.edges):
        failures.append("output is not r-uniform")
    if h.n != n:
        failures.append(f"vertex count {h.n} != {n}")
    if not is_connected(h):
        failures.append("output is not connected/spanning")
    if h.num_edges() != expected:
        failures.append(f"edge count {h.num_edges()} != closed form {expected}")
    if check_bp_free and contains_berge_path(h, kk):
        failures.append(f"output contains a Berge path of length {kk}")
    return FamilyCheck(kk, failures)
