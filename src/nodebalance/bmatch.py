"""Perfect b-matching: one solve decides existence and returns either a
solution or a certificate of infeasibility.

A perfect b-matching assigns a non-negative integer multiplicity x_e to
every edge so that the multiplicities around each vertex v sum to exactly
b(v).  Existence is characterized by a Tutte-style subset condition: a
perfect b-matching exists iff for every vertex subset U (including the
empty set)

    sum_{x in U} b(x)  >=  sum_{x in I(U)} b(x) + S(G-U)

where I(U) is the set of vertices isolated by deleting U and S(G-U)
counts the non-singleton components of G-U whose total b is odd.  A
subset violating the inequality is a self-contained infeasibility
certificate; its deficiency (right side minus left side) is at least 1.

One exact integer engine decides it, with one max flow on the
bipartite double cover per demand (Anstee 1987):

- a bipartite graph's cover is two copies of the graph, so the flow runs
  on one copy, the transportation network of Schrijver's Combinatorial
  Optimization, ch. 21; a full flow is the plan.  When the side totals
  differ, the side of smaller total is the certificate and no flow runs;
- on a graph with an odd cycle a full flow halves to a half-integral
  solution, rounded around Euler circuits and repaired for parity by
  blossom matching in a window of 2 around the rounding, whose
  expansion has at most 4m + n copies whatever b is, and whose
  Gallai-Edmonds decomposition gives the certificate;
- a short flow, on either, gives the certificate by its min cut.

BMatchEngine.decide answers each demand with one solve: the plan, which
every feasible solve builds and which is replayed against b, or the
witness, which is re-verified against the subset definition.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional, Sequence

from . import matching
from .core import Graph, IncrementPlan, _apply_plan, _as_int, _check_vector, _Value
from .errors import BudgetError, InstanceError, InternalError

# hard budgets for the expansion construction
MAX_SUM_B = 50_000
MAX_EDGE_COPIES = 5_000_000
# default cap for full subset enumeration (2^n subsets)
ENUM_LIMIT = 20


def check_bvector(b: Iterable[int], n: int) -> tuple[int, ...]:
    """Validate a demand vector: length n, non-negative integers."""
    return _check_vector(b, n, "demand")


def _check_subset(U: Iterable[int], n: int) -> tuple[int, ...]:
    tu = tuple(sorted({_as_int(v, "vertex id") for v in U}))
    if tu and (tu[0] < 0 or tu[-1] >= n):
        raise InstanceError(f"subset {tu} out of range for n={n}")
    return tu


def _tutte_terms(
    G: Graph, U: tuple[int, ...], b: Sequence[int]
) -> tuple[tuple[int, ...], int, int]:
    """(I(U), S(G-U), deficiency) from one component scan of G-U, for a
    sorted in-range U and a validated b.  I(U) is exactly the set of
    singleton components of G-U."""
    seen = [False] * G.n
    for v in U:
        seen[v] = True
    neighbors = G.neighbors
    iso = []
    s_cnt = 0
    d = -sum(b[v] for v in U)
    for s in range(G.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        tot = 0
        for v in comp:  # a breadth-first scan: the loop reaches what it appends
            tot += b[v]
            for u in neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
        if len(comp) == 1:
            iso.append(s)
            d += tot
        else:
            s_cnt += tot & 1
    return tuple(iso), s_cnt, d + s_cnt


def _neighborhood(G: Graph, X: Iterable[int]) -> set[int]:
    """N(X): the vertices with a neighbour in X."""
    out: set[int] = set()
    for v in X:
        out.update(G.neighbors(v))
    return out


def isolated_vertices(G: Graph, U: Iterable[int]) -> tuple[int, ...]:
    """I(U): vertices outside U whose neighbors all lie inside U.  With
    U empty this is the set of isolated vertices of G itself."""
    return _tutte_terms(G, _check_subset(U, G.n), (0,) * G.n)[0]


def s_count(G: Graph, U: Iterable[int], b: Iterable[int]) -> int:
    """S(G-U): number of components of G-U that have at least two vertices
    and odd total b."""
    return _tutte_terms(G, _check_subset(U, G.n), check_bvector(b, G.n))[1]


def tutte_deficiency(G: Graph, U: Iterable[int], b: Iterable[int]) -> int:
    """sum_{I(U)} b + S(G-U) - sum_U b.  Positive means U certifies that no
    perfect b-matching exists."""
    return _tutte_terms(G, _check_subset(U, G.n), check_bvector(b, G.n))[2]


class ViolatingSet(_Value):
    """A subset U with positive deficiency; all fields recomputable from
    (G, U, b) via isolated_vertices / s_count / tutte_deficiency."""

    U: tuple[int, ...]
    isolated: tuple[int, ...]
    s_count: int
    deficiency: int

    def to_jsonable(self) -> dict:
        return {
            "type": "tutte",
            "U": list(self.U),
            "isolated": list(self.isolated),
            "s_count": self.s_count,
            "deficiency": self.deficiency,
        }


def _certificate(
    G: Graph, U: tuple[int, ...], b: Sequence[int]
) -> Optional[ViolatingSet]:
    """The certificate at a sorted in-range U for a validated b, every
    field computed from the definition, or None if U does not violate."""
    iso, s, d = _tutte_terms(G, U, b)
    return ViolatingSet(U, iso, s, d) if d >= 1 else None


def violating_set(G: Graph, U: Iterable[int], b: Iterable[int]) -> ViolatingSet:
    """Build the certificate at U, recomputing every field from the
    definition.  Raises if U does not actually violate the condition."""
    tu = _check_subset(U, G.n)
    tb = check_bvector(b, G.n)
    iso, s, d = _tutte_terms(G, tu, tb)
    if d < 1:
        raise InstanceError(f"subset {tu} has deficiency {d}, not a violation")
    return ViolatingSet(tu, iso, s, d)


class BMatchOutcome(_Value):
    """Either a constructed plan (feasible) or a verified certificate."""

    plan: Optional[IncrementPlan]
    witness: Optional[ViolatingSet]

    def __init__(
        self, plan: Optional[IncrementPlan] = None, witness: Optional[ViolatingSet] = None
    ) -> None:
        if (plan is None) == (witness is None):
            raise InstanceError("exactly one of plan/witness must be set")
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "witness", witness)

    @property
    def feasible(self) -> bool:
        return self.plan is not None


def check_tutte_enumeration(G: Graph, b: Iterable[int]) -> Optional[ViolatingSet]:
    """Evaluate the subset condition by _tutte_terms at each of the 2^n
    subsets, in canonical order (by size, then lexicographically).
    Returns None when every subset satisfies the condition (a perfect
    b-matching exists), else the violating set of maximum deficiency,
    ties broken by canonical order.  Raises BudgetError above ENUM_LIMIT
    vertices.
    """
    tb = check_bvector(b, G.n)
    if G.n > ENUM_LIMIT:
        raise BudgetError("enumeration limit exceeded", n=G.n, limit=ENUM_LIMIT)
    best = None
    best_d = 0
    for size in range(G.n + 1):
        for U in combinations(range(G.n), size):
            iso, s, d = _tutte_terms(G, U, tb)
            if d > best_d:
                best, best_d = ViolatingSet(U, iso, s, d), d
    return best


def expand_graph(G: Graph, b: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Vertex-splitting expansion: b(v) copies of each vertex, and for each
    edge {u,v} an edge between every copy of u and every copy of v.  A
    perfect b-matching of G corresponds exactly to a perfect matching of
    the expansion.  Returns (expanded graph, copy_of) with copy_of[i] the
    original vertex of copy i.  Raises BudgetError when sum(b) exceeds
    MAX_SUM_B or the copied edges exceed MAX_EDGE_COPIES.
    """
    tb = check_bvector(b, G.n)
    _check_budget(G, tb)
    adj, copy_of = _expand(G, tb)
    edges = [(i, j) for i, nbrs in enumerate(adj) for j in nbrs if i < j]
    return Graph(len(adj), edges), copy_of


def _check_budget(G: Graph, b: Sequence[int]) -> None:
    """The budgets of the two expansion oracles.  The engine's parity
    repair expands only its window, whose size the graph bounds."""
    sum_b = sum(b)
    edge_copies = sum(b[u] * b[v] for u, v in G.edges)
    if sum_b > MAX_SUM_B or edge_copies > MAX_EDGE_COPIES:
        raise BudgetError(
            "expansion budget exceeded", sum_b=sum_b, edge_copies=edge_copies
        )


def _expand(G: Graph, b: Sequence[int]) -> tuple[list[list[int]], tuple[int, ...]]:
    """(adjacency lists, copy_of) of the expansion for a validated b.  The
    copies of a vertex are twins and share one ascending list."""
    first = [0] * (G.n + 1)
    for v in range(G.n):
        first[v + 1] = first[v] + b[v]
    copy_of = tuple(v for v in range(G.n) for _ in range(b[v]))
    nbrs = [
        [i for u in G.neighbors(v) for i in range(first[u], first[u + 1])]
        for v in range(G.n)
    ]
    return [nbrs[v] for v in copy_of], copy_of


def solve_bmatching_expansion(G: Graph, b: Iterable[int]) -> Optional[IncrementPlan]:
    """Construct a perfect b-matching by maximum matching on the expansion,
    or return None if the expansion has no perfect matching.  The
    expansion budgets of expand_graph apply."""
    tb = check_bvector(b, G.n)
    _check_budget(G, tb)
    adj, copy_of = _expand(G, tb)
    match = matching.maximum_matching(adj)
    if any(m == -1 for m in match):
        return None
    return _expansion_plan(copy_of, match, dict.fromkeys(G.edges, 0))


def _expansion_plan(
    copy_of: Sequence[int], match: Sequence[int], counts: dict[tuple[int, int], int]
) -> IncrementPlan:
    """The plan that adds one step per matched pair of copies to counts,
    which holds every edge of G, in edge order."""
    for i, j in enumerate(match):
        if i < j:
            u, v = copy_of[i], copy_of[j]
            counts[(u, v) if u < v else (v, u)] += 1
    return IncrementPlan._trusted(counts.items())


def verify_plan_perfect(G: Graph, b: Iterable[int], plan: IncrementPlan) -> bool:
    """True iff the plan's multiplicities sum to exactly b(v) at every
    vertex."""
    return _plan_is_perfect(G, check_bvector(b, G.n), plan)


def _plan_is_perfect(G: Graph, b: Sequence[int], plan: IncrementPlan) -> bool:
    return _apply_plan(G, (0,) * G.n, plan) == tuple(b)


def _two_color(G: Graph) -> Optional[list[int]]:
    """Color 0/1 per vertex, the lowest id of each component colored 0;
    None when G has an odd cycle."""
    color = [-1] * G.n
    for s in range(G.n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in G.neighbors(v):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return None
    return color


def _double_cover(G: Graph, colors: Optional[Sequence[int]] = None) -> matching.Dinic:
    """The flow network of the bipartite double cover, as a topology for
    matching.Dinic; a flow on it with capacities b is a b-matching.

    Node v is the left copy v_L and n + v the right copy v_R; the source
    feeds each v_L and each v_R drains into the sink, both with capacity
    b(v).  Edge j = uv gives the arcs 2j = u_L->v_R and 2j + 1 = v_L->u_R,
    without capacity (Dinic argues that none is needed).  A max flow of
    value sum(b) is a perfect b-matching of the cover, and halved, a
    half-integral perfect b-matching of G.  The cover of a bipartite G is
    two disjoint copies of G, so given its 2-coloring only one is built:
    v_L for side 0, v_R for side 1, and arc j from the side-0 end of edge
    j to the side-1 end.  Its max flow of value b(side 0) is a perfect
    b-matching of G itself.  The arcs of each copy are listed in edge
    order, which is the order the flow tries them in."""
    n = G.n
    adj: list[list[tuple[int, int]]] = [[] for _ in range(2 * n)]
    if colors is None:
        for j, (u, v) in enumerate(G.edges):
            adj[u].append((2 * j, n + v))
            adj[n + v].append((2 * j, u))
            adj[v].append((2 * j + 1, n + u))
            adj[n + u].append((2 * j + 1, v))
        return matching.Dinic(range(n), adj, 2 * G.m)
    for j, (u, v) in enumerate(G.edges):
        if colors[u]:
            u, v = v, u
        adj[u].append((j, n + v))
        adj[n + v].append((j, u))
    return matching.Dinic([v for v in range(n) if not colors[v]], adj, G.m)


def _cover_cut(G: Graph, level: Sequence[int]) -> list[int]:
    """U = N(A), sorted, for A the vertices v with level[v] >= 0.

    After a short flow on _double_cover, the levels of Dinic's last BFS
    mark the source side of the smallest min cut, of capacity
    b(L\\A) + b(B) for L the vertices with a left copy, A those whose
    left copy is reached and B the reached right copies.  A middle arc
    u_L->v_R is always residual and t is out of reach, so B is the set of
    right copies of N(A).  A\\N(A) spans a cut no larger (its neighbours
    lie in N(A)\\A), so A is stable, b(A) > b(N(A)), and U = N(A), which
    isolates A, violates.  On one copy of a bipartite graph A is the
    reached part of side 0."""
    return sorted(_neighborhood(G, (v for v in range(G.n) if level[v] >= 0)))


def _round_circuits(G: Graph, twice: Sequence[int], y: list[int]) -> int:
    """Round the half edges (odd twice[e]) of a half-integral solution.

    Each Euler circuit of the half edges, found by an iterative Hierholzer
    walk, gets one unit added to y on every other edge, from its second
    edge on.  A vertex the circuit passes through meets one rounded-down
    and one rounded-up edge per pass, so an even circuit rounds exactly and
    an odd one leaves its start vertex one unit short.  Returns the number
    of odd circuits."""
    inc: list[list[int]] = [[] for _ in range(G.n)]
    for j, (u, v) in enumerate(G.edges):
        if twice[j] & 1:
            inc[u].append(j)
            inc[v].append(j)
    used = [False] * G.m
    ptr = [0] * G.n
    odd = 0
    for root in range(G.n):
        stack = [(root, -1)]
        circuit = []
        while stack:
            v, arrived = stack[-1]
            arcs = inc[v]
            while ptr[v] < len(arcs) and used[arcs[ptr[v]]]:
                ptr[v] += 1
            if ptr[v] == len(arcs):
                stack.pop()
                if arrived >= 0:
                    circuit.append(arrived)
                continue
            j = arcs[ptr[v]]
            used[j] = True
            a, c = G.edges[j]
            stack.append((c if a == v else a, j))
        for j in circuit[1::2]:
            y[j] += 1
        odd += len(circuit) & 1
    return odd


class BMatchEngine:
    """Reusable per-graph solver.  Graph-only structure (the coloring, and
    for bipartite graphs the sides) is computed once; decide() can then be
    called for many demand vectors, which is what equate's jumps from
    below through the targets do.  Every demand goes through one max flow
    on _double_cover, of one copy for a bipartite graph, and on a graph
    with an odd cycle on to the rounding and parity repair of _solve; the
    network is built at the first flow and serves every later one.  The
    network is the only thing kept between calls: no demand, plan or
    certificate is.  The engine trusts its demand vectors: callers pass a
    tuple of n non-negative ints (the module's public functions validate
    before calling it)."""

    def __init__(self, G: Graph):
        self.G = G
        self.n = G.n
        self.colors = _two_color(G)
        if self.colors is not None:
            side0 = [v for v in range(G.n) if self.colors[v] == 0]
            side1 = [v for v in range(G.n) if self.colors[v] == 1]
            self.sides = (side0, side1)
        # the flow network, built at the first flow
        self._net: Optional[matching.Dinic] = None

    def decide(self, b: Sequence[int]) -> BMatchOutcome:
        """The plan of b or its Tutte-set certificate, from one solve.
        The plan is replayed against b here, and a certificate was
        re-verified against the subset definition when it was taken; a
        failure of either raises InternalError.  A zero demand gets the
        empty plan from _solve: its flow is zero and leaves no odd
        circuit."""
        out = self._solve(b)
        if out.plan is not None and not _plan_is_perfect(self.G, b, out.plan):
            raise InternalError("constructed plan failed verification")
        return out

    def construct(self, b: Sequence[int]) -> IncrementPlan:
        """The plan of decide(b), or InternalError when b is infeasible.
        Nothing in the package calls it; bench/tracing.py traces it by
        name."""
        plan = self.decide(b).plan
        if plan is None:
            raise InternalError("construction disagrees with decision")
        return plan

    def _cut(self, b: Sequence[int], U: Sequence[int]) -> ViolatingSet:
        # every cut the engine takes is re-verified here; U is sorted
        vs = _certificate(self.G, tuple(U), b)
        if vs is None:
            raise InternalError(f"cut {list(U)} is not a violating set")
        return vs

    def _solve(self, b: Sequence[int]) -> BMatchOutcome:
        """Plan or verified certificate, by integer steps only.

        On a bipartite graph with unequal side totals, the side of the
        smaller total is the certificate.  Otherwise one max flow runs on
        _double_cover, of one copy when G is bipartite; a short flow's cut
        is _cover_cut, and a full flow on one copy is the plan.  A full
        flow on the whole cover halves to a half-integral perfect
        b-matching x, which _round_circuits rounds to y with one unit
        missing at the start of each of its k odd circuits.  Only then,
        before the repair, does the empty set get its own scan."""
        G, colors = self.G, self.colors
        if colors is None:
            total = sum(b)
        else:
            side0, side1 = self.sides
            total = sum(b[v] for v in side0)
            other = sum(b[v] for v in side1)
            if total != other:
                # deleting the side of the smaller total isolates the
                # other; one copy's flow could still fill every source
                U = side0 if total < other else side1
                return BMatchOutcome(witness=self._cut(b, U))
        net = self._net
        if net is None:
            net = self._net = _double_cover(G, colors)
        if net.max_flow(b) < total:
            return BMatchOutcome(witness=self._cut(b, _cover_cut(G, net.level)))
        flow = net.flow
        if colors is not None:
            return BMatchOutcome(plan=IncrementPlan._trusted(zip(G.edges, flow)))
        twice = [x + y for x, y in zip(flow[0::2], flow[1::2])]
        y = [x // 2 for x in twice]
        if _round_circuits(G, twice, y) == 0:
            return BMatchOutcome(plan=IncrementPlan._trusted(zip(G.edges, y)))
        # a component of odd total b leaves an odd circuit, so only here
        # can the empty set violate
        vs = _certificate(G, (), b)
        if vs is not None:
            return BMatchOutcome(witness=vs)
        return self._repair(b, y)

    def _repair(self, b: Sequence[int], y: Sequence[int]) -> BMatchOutcome:
        """Parity repair of a rounding y that leaves k demand units exposed.

        Each round keeps L = max(0, y - 2) and grows the matching y - L on
        the expansion of b - L(delta), at most 4m + k copies whatever b
        is.  A shortest alternating path of the full expansion passes the
        copies of a vertex at most once in each direction (a second visit
        shortcuts through a twin), so it lowers no edge by more than 2 and
        lies in the window.  A perfect matching gives the plan L plus the
        matching; a larger one re-centres y, so there are at most k/2 + 1
        rounds.  A round that adds no pair leaves y maximum, and by the
        same shortcut its D, the vertices with a copy missed by some
        maximum matching, is that of the full expansion: U = N(D)\\D is
        the Gallai-Edmonds cut, which _cut still re-verifies against b."""
        G = self.G
        while True:
            low = [max(0, x - 2) for x in y]
            rest = list(b)
            for (u, v), x in zip(G.edges, low):
                rest[u] -= x
                rest[v] -= x
            adj, copy_of = _expand(G, rest)
            free = [0] * self.n  # next unmatched copy of each vertex
            for v in range(1, self.n):
                free[v] = free[v - 1] + rest[v - 1]
            match = [-1] * len(adj)
            for (u, v), x, lo in zip(G.edges, y, low):
                for _ in range(x - lo):
                    i, j = free[u], free[v]
                    match[i], match[j] = j, i
                    free[u] += 1
                    free[v] += 1
            match = matching.maximum_matching(adj, match)
            counts = dict(zip(G.edges, low))
            plan = _expansion_plan(copy_of, match, counts)
            if -1 not in match:
                return BMatchOutcome(plan=plan)
            if plan.total_steps == sum(y):
                D = {copy_of[i] for i in matching.even_reachable(adj, match)}
                U = sorted(_neighborhood(G, D) - D)
                return BMatchOutcome(witness=self._cut(b, U))
            y = [counts[e] for e in G.edges]


def decide_perfect_bmatching(G: Graph, b: Iterable[int]) -> bool:
    """Whether a perfect b-matching exists: the feasible flag of
    perfect_bmatching, whose solve builds and replays the plan anyway."""
    return perfect_bmatching(G, b).feasible


def perfect_bmatching(G: Graph, b: Iterable[int]) -> BMatchOutcome:
    """Full interface: a verified plan when feasible, else a verified
    violating set, from one max flow on the double cover of G (one copy
    of it when G is bipartite).  On a graph with an odd cycle the parity
    repair expands at most 4m + n copies whatever b is, and the budgets
    of expand_graph do not apply to it.  One BMatchEngine.decide call."""
    tb = check_bvector(b, G.n)
    return BMatchEngine(G).decide(tb)
