"""Structural classifiers.

Two characterizations drive this module.  A graph admits equalization
from *every* starting assignment exactly when it is connected, has an odd
number of vertices, and no nonempty vertex subset U isolates |U| or more
vertices when deleted.  For a connected graph that is the same as its
bipartite double cover (copies v_L, v_R of each vertex, u_L v_R and v_L u_R
for each edge uv) being elementary: no nonempty independent S has
|N(S)| <= |S|, and S = I(U) or U = N(S) turns either violation into the
other.  One maximum matching of the cover, matching.unit_matching on
G's own adjacency lists, and one strong-component pass over its
alternating digraph decide it and give a witness U.  That matching is
the one a unit-demand Dinic flow on the cover leaves, so the verdicts
and witnesses are those of the flow.

A bipartite graph with a fixed bipartition admits equalization from every
*balanced* assignment (equal side totals) exactly when it satisfies the
strict Hall condition: |N(X)| > |X| for every nonempty X properly
contained in one side.  With equal sides of two or more vertices, that
says the graph itself is elementary, so one Kuhn matching and one
strong-component pass over its alternating digraph prove a positive
answer.  A negative answer takes its witness from the first vertex pair,
one from each side, whose deletion leaves no perfect matching.  That one
matching serves the whole call: a copy of it, repaired by augmenting
paths in each pair's graph, checks the pair, and the first failing
pair's copy gives the witness.  Definitional enumerations of both
conditions are kept as references.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional, Sequence

from . import matching
from .bmatch import (
    ENUM_LIMIT,
    _check_subset,
    _cover_cut,
    _neighborhood,
    _tutte_terms,
    _two_color,
)
from .core import Graph, Weights, _as_int, _Value, check_graph, check_weights
from .errors import BudgetError, InstanceError, InternalError


def is_connected(G: Graph) -> bool:
    """True iff G has exactly one connected component.  Needs n >= 1."""
    check_graph(G, "is_connected")
    if G.n < 1:
        raise InstanceError("connectivity needs at least one vertex")
    adj = G._adj
    seen = [False] * G.n
    seen[0] = True
    reached = [0]
    for v in reached:  # a breadth-first scan: the loop reaches what it appends
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                reached.append(u)
    return len(reached) == G.n


def isolated_condition_enum(G: Graph) -> Optional[tuple[int, ...]]:
    """First nonempty U in canonical order (size, then lexicographic)
    whose deletion isolates at least |U| vertices, or None.  I(U) is read
    from bmatch._tutte_terms.  Raises BudgetError above ENUM_LIMIT
    vertices."""
    check_graph(G, "isolated_condition_enum")
    if G.n > ENUM_LIMIT:
        raise BudgetError("enumeration limit exceeded", n=G.n, limit=ENUM_LIMIT)
    zeros = (0,) * G.n
    for size in range(1, G.n + 1):
        for U in combinations(range(G.n), size):
            if len(_tutte_terms(G, U, zeros)[0]) >= size:
                return U
    return None


def independent_set_condition(G: Graph) -> Optional[tuple[int, ...]]:
    """Berge-style cross-check: the nonempty independent S with
    |N(S)| <= |S| of largest |S| - |N(S)|, ties broken by canonical order,
    or None; N(S) is read from bmatch._neighborhood.  Requires a graph
    with no isolated vertices and n >= 2; under that restriction the
    outcome matches isolated_condition_enum.  Raises BudgetError above
    ENUM_LIMIT vertices."""
    check_graph(G, "independent_set_condition")
    if G.n < 2:
        raise InstanceError("independent-set check needs n >= 2")
    if any(G.degree(v) == 0 for v in range(G.n)):
        raise InstanceError("independent-set check requires no isolated vertices")
    if G.n > ENUM_LIMIT:
        raise BudgetError("enumeration limit exceeded", n=G.n, limit=ENUM_LIMIT)
    best: Optional[tuple[int, ...]] = None
    best_def = -1
    for size in range(1, G.n + 1):
        for S in combinations(range(G.n), size):
            N = _neighborhood(G, S)
            d = size - len(N)
            if d > best_def and N.isdisjoint(S):
                best, best_def = S, d
    return best


class UniversalVerdict(_Value):
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

    Fast negatives: disconnected, or even vertex count.  Graphs with at
    most one vertex are trivially universal: every assignment is already
    uniform.  Otherwise one maximum matching of the bipartite double
    cover and one strong-component pass over its alternating digraph
    decide it: G is universal iff the cover is elementary, i.e. has a
    perfect matching whose alternating digraph is strongly connected,
    i.e. |N(X)| > |X| for every nonempty proper X (Lovasz and Plummer,
    Matching Theory, section 4.1).

    The cover matches left copies against right copies along G's
    adjacency lists, so matching.unit_matching(G._adj, n) computes it by
    Hopcroft and Karp's phases.  It leaves exactly the matching of
    Dinic's unit-demand flow on bmatch._double_cover, whose arcs a_L ->
    c_R it lists in the same ascending order: its greedy pass is
    Dinic's first phase, each BFS builds Dinic's layered graph in
    Dinic's queue order and stops where Dinic stops, each search runs
    from the exposed lefts in ascending order along the same current-arc
    pointers, and a node leaves the layered graph only once it cannot
    reach t.  unit_matching's docstring gives each step.  The residual
    arcs and the levels of a failing BFS below are therefore the flow's.

    Why that is the isolation condition, for connected G with n >= 2: a
    nonempty U isolating |U| or more vertices gives S = I(U), nonempty,
    proper and independent with N(S) inside U, so X = S breaks the cover's
    strict Hall condition.  Conversely take X nonempty and proper with
    |N(X)| <= |X|.  S = X \\ N(X) is independent, N(S) lies in N(X) \\ X
    (a neighbor of S inside X would put S in N(X)), and
    |N(X) \\ X| <= |X \\ N(X)|, so |N(S)| <= |S|.  S is nonempty, else
    N(X) would lie inside X and G would be disconnected.  Then U = N(S) is
    the witness: nonempty, and it isolates all of S.

    X comes from the matching and is already independent, so S = X and
    the witness is U = N(X) (bmatch._cover_cut).  A short matching leaves
    the reachable left copies X, those of the last BFS, with fewer than
    |X| right copies reachable; _cover_cut argues that X is independent,
    and X = V is ruled out because N(V) = V.  A perfect matching's
    residual arcs (u_L->v_R along every edge, v_R back to its matched
    left copy) form the alternating digraph.  The strong component found
    first has no residual arc leaving it, so its right copies are those
    of N(X), for X its left copies, each matched into X.  X is nonempty
    (a right copy brings its matched left copy) and proper (X = V would
    bring in every right copy, and then the whole digraph).  By the count
    above |N(S)| <= |S|, and the perfect matching makes it an equality,
    so the copies of S and N(S) are closed under residual arcs; S is
    nonempty, so they are the whole component and S = X.
    """
    check_graph(G, "universal_equatable")
    if G.n <= 1:
        return UniversalVerdict(True)
    if not is_connected(G):
        return UniversalVerdict(False, "disconnected")
    if G.n % 2 == 0:
        return UniversalVerdict(False, "even_order")
    n, adj = G.n, G._adj
    _, mr, reach = matching.unit_matching(adj, n)
    if reach is None:
        succ = [[n + c for c in row] for row in adj] + [[a] for a in mr]
        comp = _sink_component(succ, 0)
        if len(comp) == 2 * n:
            return UniversalVerdict(True)
        reach = [-1] * n
        for v in comp:
            if v < n:
                reach[v] = 0
    return UniversalVerdict(False, "isolated_condition", tuple(_cover_cut(G, reach)))


def _sink_component(succ: Sequence[Sequence[int]], root: int) -> list[int]:
    """The first strong component an iterative Tarjan search from root
    completes.  Components complete in reverse topological order, so no
    arc leaves this one.  Nothing is popped before it completes, so every
    visited vertex is still on the stack and a vertex's stack position is
    its index."""
    index = [-1] * len(succ)
    low = [0] * len(succ)
    it = [0] * len(succ)
    order = [root]
    index[root] = 0
    work = [root]
    while True:
        v = work[-1]
        if it[v] < len(succ[v]):
            u = succ[v][it[v]]
            it[v] += 1
            if index[u] == -1:
                index[u] = low[u] = len(order)
                order.append(u)
                work.append(u)
            elif index[u] < low[v]:
                low[v] = index[u]
            continue
        if low[v] == index[v]:
            return order[index[v]:]
        work.pop()
        parent = work[-1]
        if low[v] < low[parent]:
            low[parent] = low[v]


class Bipartition(_Value):
    """Two disjoint vertex sets; every edge of the host graph must cross."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __init__(self, left: Iterable[int], right: Iterable[int]) -> None:
        left = tuple(sorted(_as_int(v, "vertex id") for v in left))
        right = tuple(sorted(_as_int(v, "vertex id") for v in right))
        if set(left) & set(right):
            raise InstanceError("bipartition sides overlap")
        for side in (left, right):
            for a, b in zip(side, side[1:]):
                if a == b:
                    raise InstanceError(f"vertex {a} is listed twice in a bipartition side")
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
    check_graph(G, "bipartition")
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


class HallVerdict(_Value):
    """verdict False comes with a witness: a nonempty X properly inside
    one side with |N(X)| <= |X|."""

    verdict: bool
    witness: Optional[tuple[int, ...]] = None


def _unequal_sides_verdict(G: Graph, big: tuple[int, ...], small_len: int) -> HallVerdict:
    # any max(1, |small|) vertices of the bigger side have a neighborhood
    # inside the smaller side, hence no larger than themselves; such an X
    # is proper whenever the bigger side can spare a vertex
    size = max(1, small_len)
    if size >= len(big):
        return HallVerdict(True)
    X = big[:size]
    if len(_neighborhood(G, X)) > len(X):
        raise InternalError(f"side subset {list(X)} is not a Hall witness")
    return HallVerdict(False, X)


def strict_hall(G: Graph, part: Bipartition) -> HallVerdict:
    """Strict Hall condition: one strong-component pass for a positive
    answer, pairwise deletion for a negative one.

    Sides of unequal size fail outright (with a canonical witness) unless
    too small to contain a proper nonempty subset, in which case the
    condition holds vacuously.  For equal sides of size k >= 2 the
    condition holds iff G is elementary: it has a perfect matching M whose
    alternating digraph D(M) is strongly connected (Lovasz and Plummer,
    Matching Theory, section 4.1).  D(M) has an arc from left i to right
    j along each edge outside M and one from each right vertex to its
    mate.  Why, with M perfect: a nonempty node set C that no arc leaves,
    with left part X and right part Y, has Y inside M(X) and every
    neighbor of X inside Y or M(X), so N(X) = M(X) and
    |N(R \\ Y)| <= |L \\ X| + |M(X) \\ Y| = |R \\ Y|.  X is empty only if C
    is, so a proper C gives a witness: X if X != L, else R \\ Y if Y is
    nonempty, else any one right vertex, whose only neighbor is its mate.
    Conversely a violator X inside L has N(X) = M(X), and one Z inside R
    has N(Z) = M(Z); then X + M(X), or (L \\ M(Z)) + (R \\ Z), is such a
    proper C.  A strict Hall graph needs a perfect matching, since
    |N(L)| >= |N(L - u)| >= k.  So one Kuhn matching M of G and one
    _sink_component pass over D(M), which finds a component that no arc
    leaves, decide a positive answer in O(k + m) beyond the matching.
    That bound needs a matching that is not quadratic by construction:
    its searches share one seen array with a fresh mark each, so each
    costs what it explores, not k.

    A negative answer keeps the witness of pairwise deletion: the
    condition holds iff for every pair (u in L, v in R) the graph
    G - u - v has a perfect matching, and the first failing pair gives
    the witness.  A proper C would give a violator in linear time too,
    but a different one, and a graph as long as the benchmark's
    2,400-vertex ladder would then answer instead of exhausting the
    recursion of kuhn_augment.  The benchmark checks a witness assignment
    over all 2^k subsets of a side, so that move waits for a check that
    runs in polynomial time (the benchmark item of ROADMAP.md).  When the
    pass fails the pairs are scanned, and a scan in which every pair
    passes contradicts the pass and raises InternalError.

    M serves every pair, and the pair's check leaves its witness.  For a
    pair, a copy of M without the edges at u and v is a matching of
    G - u - v.  u is held off the exposed side (any value but -1 as its
    mate) and v is marked seen in every search, so no path enters either:
    no matched edge leads to u, and v stays exposed but is a dead end.
    Kuhn's augment then runs once from each exposed left vertex,
    ascending, and the pair fails iff one is still exposed after the pass.
    The whole scan shares one seen array: each augment takes a new mark
    and pre-marks v with it, so no array is built or reset per augment.
    Two textbook facts make this exact:
    - One pass of Kuhn's augments from any starting matching leaves a
      maximum matching (Kuhn 1955): a vertex with no augmenting path
      keeps none after augments elsewhere.  So the copy is a maximum
      matching of G - u - v, and it is perfect iff G - u - v has one.
    - The left vertices that alternating paths reach from the exposed
      ones are the same for every maximum matching (Lovasz and Plummer,
      Matching Theory, section 3.2; Gallai-Edmonds, Dulmage-Mendelsohn).
    Pairs are scanned u-major, both sides ascending, and whether a pair
    passes depends on G - u - v alone, so the first failing pair does not
    depend on how the pairs are decided.  Its witness is
    matching.left_deficient_set read off the repaired copy, which by the
    second fact is the set any maximum matching of G - u - v gives.  That
    set X is nonempty and inside L - u, so |X| < k, and |N(X)| < |X| in
    G - u - v; deleting v hid at most one neighbor, so |N(X)| <= |X| in G.
    """
    check_graph(G, "strict_hall")
    part.validate_for(G)
    L, R = part.left, part.right
    if len(L) != len(R):
        if len(L) > len(R):
            return _unequal_sides_verdict(G, L, len(R))
        return _unequal_sides_verdict(G, R, len(L))
    k = len(L)
    if k <= 1:
        return HallVerdict(True)
    rpos = {y: j for j, y in enumerate(R)}
    adj = [[rpos[y] for y in G.neighbors(x)] for x in L]
    ml, mr = matching.bipartite_matching(adj, k)
    if -1 not in ml:
        succ = [[k + j for j in row if j != ml[i]] for i, row in enumerate(adj)]
        succ += [[i] for i in mr]
        if len(_sink_component(succ, 0)) == 2 * k:
            return HallVerdict(True)
    augment = matching.kuhn_augment
    seen = [0] * k
    mark = 0
    for u in range(k):
        for v in range(k):
            pl, pr = ml[:], mr[:]
            j = pl[u]
            if j != -1:
                pr[j] = -1
            pl[u] = k
            i = pr[v]
            if i != -1:
                pl[i] = pr[v] = -1
            for i in range(k):
                if pl[i] == -1:
                    mark += 1
                    seen[v] = mark
                    augment(adj, pl, pr, i, seen, mark)
            if -1 in pl:
                deficient = matching.left_deficient_set(adj, pl, pr)
                return HallVerdict(False, tuple(L[i] for i in deficient))
    raise InternalError("every vertex pair passed, but the graph is not elementary")


def strict_hall_enum(G: Graph, part: Bipartition) -> HallVerdict:
    """Reference method: enumerate every nonempty proper subset of each
    side (left side first, by size then lexicographically) and test
    |N(X)| > |X| directly."""
    check_graph(G, "strict_hall_enum")
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
    check_graph(G, "hall_witness_assignment")
    part.validate_for(G)
    tx = _check_subset(X, G.n)
    if not tx:
        raise InstanceError("witness X must be nonempty")
    inside = set(tx)
    if inside < set(part.left):
        side, other = part.left, part.right
    elif inside < set(part.right):
        side, other = part.right, part.left
    else:
        raise InstanceError("X must be properly contained in one side")
    nbh = sorted(_neighborhood(G, tx))
    if len(nbh) > len(tx):
        raise InstanceError("X does not violate the strict Hall condition")
    v = min(x for x in side if x not in inside)
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
