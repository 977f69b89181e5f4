"""Structural classifiers.

Two characterizations drive this module.  A graph admits equalization
from *every* starting assignment exactly when it is connected, has an odd
number of vertices, and no nonempty vertex subset U isolates |U| or more
vertices when deleted.  A bipartite graph with a fixed bipartition admits
equalization from every *balanced* assignment (equal side totals) exactly
when it satisfies the strict Hall condition: |N(X)| > |X| for every
nonempty X properly contained in one side.  Both are checked by a
scalable method plus a definitional enumeration kept as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from . import matching
from .bmatch import ENUM_LIMIT, BMatchEngine, _neighbor_masks, _two_color
from .core import Graph, Weights, check_weights
from .errors import BudgetError, InstanceError


def is_connected(G: Graph) -> bool:
    """True iff G has exactly one connected component.  Needs n >= 1."""
    if G.n < 1:
        raise InstanceError("connectivity needs at least one vertex")
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in G.neighbors(v):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == G.n


def isolated_condition_enum(G: Graph) -> Optional[tuple[int, ...]]:
    """First nonempty U in canonical order (size, then lexicographic)
    whose deletion isolates at least |U| vertices, or None.  Raises
    BudgetError above ENUM_LIMIT vertices."""
    if G.n > ENUM_LIMIT:
        raise BudgetError("enumeration limit exceeded", n=G.n, limit=ENUM_LIMIT)
    nbr = _neighbor_masks(G)
    for size in range(1, G.n + 1):
        for combo in combinations(range(G.n), size):
            umask = 0
            for v in combo:
                umask |= 1 << v
            iso = sum(
                1
                for v in range(G.n)
                if not (umask >> v) & 1 and nbr[v] & ~umask == 0
            )
            if iso >= size:
                return combo
    return None


def independent_set_condition(G: Graph) -> Optional[tuple[int, ...]]:
    """Berge-style cross-check: a nonempty independent S with
    |N(S)| <= |S|, or None.  Requires a graph with no isolated vertices
    and n >= 2; under that restriction the outcome matches
    isolated_condition_enum.  Raises BudgetError above ENUM_LIMIT
    vertices."""
    if G.n < 2:
        raise InstanceError("independent-set check needs n >= 2")
    nbr = _neighbor_masks(G)
    if any(m == 0 for m in nbr):
        raise InstanceError("independent-set check requires no isolated vertices")
    if G.n > ENUM_LIMIT:
        raise BudgetError("enumeration limit exceeded", n=G.n, limit=ENUM_LIMIT)
    best: Optional[tuple[int, ...]] = None
    best_def = -1
    for size in range(1, G.n + 1):
        for combo in combinations(range(G.n), size):
            smask = 0
            for v in combo:
                smask |= 1 << v
            if any(nbr[v] & smask for v in combo):
                continue
            nmask = 0
            for v in combo:
                nmask |= nbr[v]
            d = size - bin(nmask).count("1")
            # keep the worst violation, mirroring the Tutte enumeration
            if d >= 0 and d > best_def:
                best, best_def = combo, d
    return best


@dataclass(frozen=True)
class UniversalVerdict:
    """Outcome of the every-assignment check.  On failure, reason is
    "disconnected", "even_order" or "isolated_condition"; in the last
    case witness is a nonempty U isolating at least |U| vertices."""

    verdict: bool
    reason: Optional[str] = None
    witness: Optional[tuple[int, ...]] = None

    def to_jsonable(self) -> dict:
        return {
            "universal": self.verdict,
            "reason": self.reason,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def universal_equatable(G: Graph) -> UniversalVerdict:
    """Can every assignment be equalized?

    Fast negatives: disconnected, or even vertex count.  Otherwise each
    vertex v is probed with the demand vector b(v) = 2n, b(u) = 2n+1
    elsewhere; all probes feasible proves the verdict (the probe demands
    are extreme enough that a failing subset must isolate |U| or more
    vertices).  Graphs with at most one vertex are trivially universal:
    every assignment is already uniform.
    """
    if G.n <= 1:
        return UniversalVerdict(True)
    if not is_connected(G):
        return UniversalVerdict(False, "disconnected")
    if G.n % 2 == 0:
        return UniversalVerdict(False, "even_order")
    eng = BMatchEngine(G)
    n = G.n
    for v in range(n):
        b = tuple(2 * n if u == v else 2 * n + 1 for u in range(n))
        ok, cert = eng.decide(b)
        if not ok:
            assert cert is not None
            witness: Optional[tuple[int, ...]] = None
            if cert.U and len(cert.isolated) >= len(cert.U):
                witness = cert.U
            else:
                witness = isolated_condition_enum(G)
            if witness is None:
                raise RuntimeError("infeasible probe but no isolating subset found")
            return UniversalVerdict(False, "isolated_condition", witness)
    return UniversalVerdict(True)


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint vertex sets; every edge of the host graph must cross."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        left = tuple(sorted(self.left))
        right = tuple(sorted(self.right))
        if set(left) & set(right):
            raise InstanceError("bipartition sides overlap")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def validate_for(self, G: Graph) -> None:
        if set(self.left) | set(self.right) != set(range(G.n)):
            raise InstanceError("bipartition does not cover the vertex set")
        lset = set(self.left)
        for u, v in G.edges:
            if (u in lset) == (v in lset):
                raise InstanceError(f"edge ({u},{v}) does not cross the bipartition")


def bipartition(G: Graph) -> Optional[Bipartition]:
    """Canonical 2-coloring: the lowest-id vertex of each component goes
    to the left side.  None when G has an odd cycle."""
    color = _two_color(G)
    if color is None:
        return None
    return Bipartition(
        tuple(v for v in range(G.n) if color[v] == 0),
        tuple(v for v in range(G.n) if color[v] == 1),
    )


def is_balanced(w: Sequence[int], part: Bipartition) -> bool:
    """True iff the two sides carry equal total weight."""
    tw = check_weights(w, len(part.left) + len(part.right))
    return sum(tw[v] for v in part.left) == sum(tw[v] for v in part.right)


@dataclass(frozen=True)
class HallVerdict:
    """verdict False comes with a witness: a nonempty X properly inside
    one side with |N(X)| <= |X|."""

    verdict: bool
    witness: Optional[tuple[int, ...]] = None


def _neighborhood(G: Graph, X: Iterable[int]) -> set[int]:
    out: set[int] = set()
    for v in X:
        out.update(G.neighbors(v))
    return out


def _unequal_sides_verdict(G: Graph, big: tuple[int, ...], small_len: int) -> HallVerdict:
    # any max(1, |small|) vertices of the bigger side have a neighborhood
    # inside the smaller side, hence no larger than themselves; such an X
    # is proper whenever the bigger side can spare a vertex
    size = max(1, small_len)
    if size >= len(big):
        return HallVerdict(True)
    X = big[:size]
    assert len(_neighborhood(G, X)) <= len(X)
    return HallVerdict(False, X)


def strict_hall(G: Graph, part: Bipartition) -> HallVerdict:
    """Strict Hall condition via pairwise deletion.

    For equal sides of size k >= 2, the condition holds iff for every
    pair (u in L, v in R) the graph minus {u, v} has a perfect matching;
    each pair is checked with an augmenting-path matching, and a failing
    pair yields a deficient set that maps back to a witness in G.  Sides
    of unequal size fail outright (with a canonical witness) unless too
    small to contain a proper nonempty subset, in which case the
    condition holds vacuously.
    """
    part.validate_for(G)
    L, R = part.left, part.right
    if len(L) != len(R):
        if len(L) > len(R):
            return _unequal_sides_verdict(G, L, len(R))
        return _unequal_sides_verdict(G, R, len(L))
    k = len(L)
    if k <= 1:
        return HallVerdict(True)
    for u in L:
        lefts = [x for x in L if x != u]
        for v in R:
            rights = [y for y in R if y != v]
            rpos = {y: i for i, y in enumerate(rights)}
            adj = [
                [rpos[y] for y in G.neighbors(x) if y != v] for x in lefts
            ]
            ml, mr = matching.bipartite_matching(adj, k - 1)
            if all(j != -1 for j in ml):
                continue
            deficient = matching.left_deficient_set(adj, ml, mr)
            X = tuple(lefts[i] for i in deficient)
            # deleting v can hide at most one neighbor, so X still has
            # |N(X)| <= |X| in the full graph
            if X and len(X) < k and len(_neighborhood(G, X)) <= len(X):
                return HallVerdict(False, X)
            return strict_hall_enum(G, part)
    return HallVerdict(True)


def strict_hall_enum(G: Graph, part: Bipartition) -> HallVerdict:
    """Reference method: enumerate every nonempty proper subset of each
    side (left side first, by size then lexicographically) and test
    |N(X)| > |X| directly."""
    part.validate_for(G)
    for side in (part.left, part.right):
        for size in range(1, len(side)):
            for X in combinations(side, size):
                if len(_neighborhood(G, X)) <= size:
                    return HallVerdict(False, X)
    return HallVerdict(True)


def hall_witness_assignment(
    G: Graph, part: Bipartition, X: Iterable[int]
) -> Weights:
    """Balanced assignment that cannot be equalized, built from a strict
    Hall violator X.

    With X inside one side: put weight 1 on the lowest vertex of that
    side outside X and weight 1 on the lowest vertex of N(X); when N(X)
    is empty, the second unit goes on the lowest vertex of the other
    side.  Every increment placed on X's side outside N(X)'s edges keeps
    the invariant w(X) + (units missing from N(X)) behind, so the two
    marked vertices can never be caught up by X, and the assignment stays
    balanced by construction (one unit per side).
    """
    part.validate_for(G)
    tx = tuple(sorted(set(X)))
    if not tx:
        raise InstanceError("witness X must be nonempty")
    lset, rset = set(part.left), set(part.right)
    if set(tx) < lset:
        side, other = part.left, part.right
    elif set(tx) < rset:
        side, other = part.right, part.left
    else:
        raise InstanceError("X must be properly contained in one side")
    nbh = sorted(_neighborhood(G, tx))
    if len(nbh) > len(tx):
        raise InstanceError("X does not violate the strict Hall condition")
    v = min(x for x in side if x not in set(tx))
    if nbh:
        u = nbh[0]
    else:
        if not other:
            raise InstanceError(
                "degenerate witness: no vertex available on the opposite side"
            )
        u = other[0]
    w = [0] * G.n
    w[v] = 1
    w[u] = 1
    return tuple(w)
