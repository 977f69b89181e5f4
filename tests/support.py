"""Shared helpers for the test suite: deterministic generators and the
exhaustive graph catalogs the equivalence suites sweep over."""

from __future__ import annotations

import importlib.util
import itertools
import pathlib
import random
import sys
from math import gcd

from nodebalance import (
    Bipartition,
    Graph,
    HallVerdict,
    Hypergraph,
    IncrementPlan,
    equate_backtracking,
    is_connected,
    is_uniform,
)
from nodebalance.bmatch import BMatchEngine, _double_cover
from nodebalance.classify import _unequal_sides_verdict
from nodebalance.equate import admissible_parities
from nodebalance.hyper import HyperEquateResult, _backtrack, default_beta_cap
from nodebalance.matching import bipartite_matching, left_deficient_set

# filled by the acceptance tests, printed by the conftest summary hook
ACCEPTANCE: list[tuple] = []

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_bench(name: str):
    """A module of the benchmark, bench/<name>.py: tracing, whose SPANS and
    COUNTS name the program functions it wraps, or workloads, which builds
    its seeded instances.  The module is registered under bench_<name>
    before it runs, as its dataclasses need."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


C6_PUZZLE_W = (1, 2, 3, 4, 5, 6)


def rand_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def rand_connected(rng: random.Random, n: int, p: float = 0.0) -> Graph:
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    for e in itertools.combinations(range(n), 2):
        if rng.random() < p:
            edges.add(e)
    return Graph(n, sorted(edges))


def cycle_with_chords(rng: random.Random, n: int, chords: int) -> Graph:
    """A Hamiltonian cycle through the vertices in random order plus
    `chords` distinct random chords."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[i], perm[(i + 1) % n]))) for i in range(n)}
    while len(edges) < n + chords:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def universal_by_probes(G: Graph) -> tuple[bool, str | None]:
    """(verdict, reason) of the every-assignment check by n engine probes:
    G is connected, n is odd, and for every v the demand 2n at v and
    2n + 1 elsewhere has a perfect b-matching (demands this extreme can
    only fail at a U isolating |U| or more vertices).  Reference for
    universal_equatable."""
    n = G.n
    if n <= 1:
        return True, None
    if not is_connected(G):
        return False, "disconnected"
    if n % 2 == 0:
        return False, "even_order"
    eng = BMatchEngine(G)
    for v in range(n):
        if not eng.decide(tuple(2 * n if u == v else 2 * n + 1 for u in range(n))).feasible:
            return False, "isolated_condition"
    return True, None


def rand_hypergraph(rng: random.Random, n: int, m: int, kmax: int = 4) -> Hypergraph:
    edges = []
    for _ in range(m):
        k = rng.randint(2, min(kmax, n))
        edges.append(tuple(sorted(rng.sample(range(n), k))))
    return Hypergraph(n, edges)


def hyper_equate_scan(H: Hypergraph, w, beta_cap: int | None = None) -> HyperEquateResult:
    """Reference for hyper_equate without elimination: _backtrack at every
    target in [max w, cap] that passes the frozen-vertex and divisibility
    tests, smallest first.  Materializes the candidate list, so keep the
    cap small."""
    tw = tuple(w)
    maxw = max(tw, default=0)
    cap = default_beta_cap(H, tw) if beta_cap is None else beta_cap
    uni = is_uniform(tw)
    if uni is not None:
        return HyperEquateResult(cap, beta=uni, plan=IncrementPlan.empty())
    frozen = [v for v in range(H.n) if not H.incident(v)]
    if frozen:
        f0 = frozen[0]
        for v in frozen[1:]:
            if tw[v] != tw[f0]:
                return HyperEquateResult(cap, reason="frozen_vertex", frozen=v)
        if tw[f0] < maxw:
            return HyperEquateResult(cap, reason="frozen_vertex", frozen=f0)
        candidates = [tw[f0]] if tw[f0] <= cap else []
    else:
        candidates = list(range(maxw, cap + 1))
    total = sum(tw)
    g = gcd(*(len(e) for e in H.edges)) if H.edges else 0
    viable = [b for b in candidates if (H.n * b - total) % g == 0] if g else []
    if not viable:
        if candidates and (frozen or total % gcd(H.n, g) != 0):
            return HyperEquateResult(cap, reason="divisibility")
        return HyperEquateResult(cap, reason="beta_cap")
    for beta in viable:
        plan = _backtrack(H, tw, beta)
        if plan is not None:
            return HyperEquateResult(cap, beta=beta, plan=plan)
    return HyperEquateResult(cap, reason="beta_cap")


def atlas_connected(max_n: int = 7) -> list[Graph]:
    """Every connected graph with 1..max_n vertices, one per isomorphism
    class (relabeled to 0..n-1)."""
    import networkx as nx

    out = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if 1 <= n <= max_n and nx.is_connected(g):
            relab = {v: i for i, v in enumerate(sorted(g.nodes()))}
            out.append(Graph(n, [(relab[u], relab[v]) for u, v in g.edges()]))
    return out


def canonical_rowsets(a: int, b: int, chunk: int = 40000) -> list[tuple[int, ...]]:
    """All a-row, b-column biadjacency matrices up to independent row and
    column permutations.  A matrix is a sorted tuple of row bitmasks; it is
    kept iff it is the minimum over every column permutation."""
    import numpy as np

    perms = list(itertools.permutations(range(b)))
    npat = 1 << b
    remap = np.zeros((len(perms), npat), dtype=np.int32)
    for s, perm in enumerate(perms):
        for p in range(npat):
            q = 0
            for j in range(b):
                if p >> j & 1:
                    q |= 1 << perm[j]
            remap[s, p] = q
    radix = np.int64(npat) ** np.arange(a, dtype=np.int64)
    out = []
    batch = list(itertools.combinations_with_replacement(range(npat), a))
    for i in range(0, len(batch), chunk):
        block = np.array(batch[i : i + chunk], dtype=np.int32)
        mapped = remap[:, block]
        mapped.sort(axis=2)
        keys = (mapped.astype(np.int64) @ radix).min(axis=0)
        own = block.astype(np.int64) @ radix
        for j in np.nonzero(keys == own)[0]:
            out.append(batch[i + j])
    return out


def rows_to_graph(rows: tuple[int, ...], b: int) -> tuple[Graph, Bipartition]:
    a = len(rows)
    edges = [(u, a + j) for u, p in enumerate(rows) for j in range(b) if p >> j & 1]
    part = Bipartition(tuple(range(a)), tuple(range(a, a + b)))
    return Graph(a + b, edges), part


def bipartite_catalog(max_side: int = 5) -> list[tuple[Graph, Bipartition]]:
    """All bipartite graphs with side sizes 1..max_side up to isomorphism
    (side roles are symmetric, so only shapes with a <= b are generated)."""
    out = []
    for a in range(1, max_side + 1):
        for b in range(a, max_side + 1):
            for rows in canonical_rowsets(a, b):
                out.append(rows_to_graph(rows, b))
    return out


def rand_bipartite(rng: random.Random, a: int, b: int, p: float) -> tuple[Graph, Bipartition]:
    edges = [(u, a + v) for u in range(a) for v in range(b) if rng.random() < p]
    return Graph(a + b, edges), Bipartition(tuple(range(a)), tuple(range(a, a + b)))


def strict_hall_from_scratch(G: Graph, part: Bipartition) -> tuple[HallVerdict, int | None]:
    """Reference for classify.strict_hall: the pairwise-deletion check with
    one Kuhn matching built from scratch for each pair (u in L, v in R),
    u-major, both sides ascending, and the witness read from the first
    failing pair's matching.  Returns the verdict and the position of that
    pair in the scan, or None when no pair fails or the sides differ."""
    L, R = part.left, part.right
    if len(L) != len(R):
        big, small = (L, R) if len(L) > len(R) else (R, L)
        return _unequal_sides_verdict(G, big, len(small)), None
    k = len(L)
    if k <= 1:
        return HallVerdict(True), None
    for pos, (u, v) in enumerate(itertools.product(L, R)):
        lefts = [x for x in L if x != u]
        rights = [y for y in R if y != v]
        rpos = {y: i for i, y in enumerate(rights)}
        adj = [[rpos[y] for y in G.neighbors(x) if y != v] for x in lefts]
        ml, mr = bipartite_matching(adj, k - 1)
        if -1 in ml:
            deficient = left_deficient_set(adj, ml, mr)
            return HallVerdict(False, tuple(lefts[i] for i in deficient)), pos
    return HallVerdict(True), None


def sparse_planned_instance(n: int) -> tuple[Graph, tuple[int, ...]]:
    """(G, w) drawn from random.Random(n) the way the benchmark's
    sparse_connected and planned_weights draw them: a random recursive
    tree plus random edges up to m = int(2.5 n), then the weights that a
    random plan of 3n edge steps equalizes, so the instance is feasible.
    From n = 16,000 on, equate's one parity-repair search contracts
    thousands of blossoms."""
    rng = random.Random(n)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < int(2.5 * n):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    inc = [0] * n
    for _ in range(3 * n):
        u, v = rng.choice(edges)
        inc[u] += 1
        inc[v] += 1
    top = max(inc)
    return Graph(n, edges), tuple(top - x for x in inc)


def balanced_assignment(rng: random.Random, G: Graph, part: Bipartition, wmax: int = 4):
    """Random weights in [0, wmax] nudged until both sides have equal sums."""
    w = [rng.randint(0, wmax) for _ in range(G.n)]
    L, R = part.left, part.right
    while True:
        d = sum(w[v] for v in L) - sum(w[v] for v in R)
        if d == 0:
            return tuple(w)
        light, heavy = (R, L) if d > 0 else (L, R)
        cand = [v for v in light if w[v] < wmax]
        if cand:
            w[rng.choice(cand)] += 1
        else:
            w[rng.choice([v for v in heavy if w[v] > 0])] -= 1


def backtrack_min_beta(G: Graph, w) -> int | None:
    """Smallest target the exhaustive searcher accepts, scanning the full
    admissible range.  The instance must fit the searcher's budgets across
    that whole range, else this propagates the budget error."""
    uni = is_uniform(w)
    if uni is not None:
        return uni
    bits = {0 if p == "even" else 1 for p in admissible_parities(G, w)}
    maxw = max(w)
    for beta in range(maxw, G.n * maxw + 1):
        if beta % 2 in bits and equate_backtracking(G, w, beta) is not None:
            return beta
    return None


def matching_size(match) -> int:
    """Edges in a mate array of a general graph (-1 for exposed)."""
    return sum(1 for v, u in enumerate(match) if u != -1 and u > v)


def nx_graph(G: Graph):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(G.n))
    g.add_edges_from(G.edges)
    return g


NEAR_OFFSET = 10**16  # past 2^53, where a float solver loses the units


def near_2p53_instance() -> tuple[Graph, tuple[int, ...], tuple[int, ...]]:
    """(G, w, w + 10^16): a sparse connected graph with n=41, m=100 and
    weights 0-10 of even total, drawn from random.Random("near-2p53:0") in
    the same order as the benchmark's near-2^53 instance."""
    n, m = 41, 100
    rng = random.Random("near-2p53:0")
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    w = [rng.randint(0, 10) for _ in range(n)]
    if sum(w) % 2:
        v = rng.randrange(n)
        w[v] += 1 if w[v] < 10 else -1
    return Graph(n, sorted(edges)), tuple(w), tuple(NEAR_OFFSET + x for x in w)


CHAIN_TOP = 2 * 10**6 + 1


def triangle_chain(
    t: int, pendant: bool = False, top: int = CHAIN_TOP
) -> tuple[Graph, tuple[int, ...]]:
    """(G, values) for a chain of t triangles on 3j, 3j+1, 3j+2 with each
    vertex 3j joined to 3(j+1).  Without the pendant the values are the
    demand `top` (odd) at every vertex: feasible for even t, with 1 and 0
    alternating on the links, and the flow rounds it to t odd circuits.
    With it, vertex 3t hangs off vertex 1 and the values are weights:
    `top` on the pendant and 0 elsewhere, so equate's answer is `top`."""
    edges = []
    for j in range(t):
        a = 3 * j
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
        if j + 1 < t:
            edges.append((a, a + 3))
    n = 3 * t
    if pendant:
        return Graph(n + 1, edges + [(1, n)]), (0,) * n + (top,)
    return Graph(n, edges), (top,) * n


def hub_triangles(rng: random.Random) -> tuple[Graph, tuple[int, ...]]:
    """(G, b): t = 3-4 triangles on 3j, 3j+1, 3j+2 and 1-2 hubs after them,
    each hub joined to 1-2 vertices of every triangle.  Hub demands are
    0..2t; triangle demands are 2c+1, or 2c+1 +- 1, for one c in 5..30.
    The odd triangles make the flow round to several odd circuits, so
    some of these instances start the parity repair at k >= 4."""
    t = rng.randint(3, 4)
    hubs = range(3 * t, 3 * t + rng.randint(1, 2))
    edges = []
    for j in range(t):
        a = 3 * j
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
    for x in hubs:
        for j in range(t):
            edges += [(v, x) for v in rng.sample(range(3 * j, 3 * j + 3), rng.randint(1, 2))]
    c = rng.randint(5, 30)
    b = [2 * c + 1 + rng.choice((0, 0, -1, 1)) for _ in range(3 * t)]
    b += [rng.randint(0, 2 * t) for _ in hubs]
    return Graph(3 * t + len(hubs), edges), tuple(b)


class ExplicitNetwork:
    """A flow network with every arc listed: arc e runs to[e] with
    residual capacity cap[e], its reverse is e ^ 1, and head[v] lists the
    arcs leaving v in the order they were added."""

    def __init__(self, nodes: int):
        self.head: list[list[int]] = [[] for _ in range(nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_arc(self, u: int, v: int, cap: int) -> int:
        e = len(self.to)
        self.head[u].append(e)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(e + 1)
        self.to.append(u)
        self.cap.append(0)
        return e


def explicit_cover(G: Graph, b, colors=None):
    """(network, arcs, ends): the bipartite double cover of G as an
    explicit network, with the arcs added in the order bmatch built them
    before its flow went implicit.  Node v is v_L, n + v is v_R, 2n the
    source and 2n + 1 the sink; a source arc s -> v_L and a sink arc
    v_R -> t of capacity b(v) per vertex, then per edge uv the arcs
    u_L -> v_R and v_L -> u_R of capacity sum(b) + 1.  Given a 2-coloring
    only one copy is built, as _double_cover does.  arcs[k] is the id of
    the flow kernel's middle arc k, ends[x] the id of the source arc
    (x < n) or sink arc (x = n + v) of the kernel's rest[x], or None."""
    n = G.n
    s, t = 2 * n, 2 * n + 1
    net = ExplicitNetwork(2 * n + 2)
    inf = sum(b) + 1
    ends = [None] * (2 * n)
    for v in range(n):
        if colors is None or not colors[v]:
            ends[v] = net.add_arc(s, v, b[v])
        if colors is None or colors[v]:
            ends[n + v] = net.add_arc(n + v, t, b[v])
    arcs = []
    for u, v in G.edges:
        if colors is None:
            arcs.append(net.add_arc(u, n + v, inf))
            arcs.append(net.add_arc(v, n + u, inf))
        else:
            arcs.append(net.add_arc(u, n + v, inf) if colors[v] else net.add_arc(v, n + u, inf))
    return net, arcs, ends


def recursive_max_flow(net: ExplicitNetwork, s: int, t: int):
    """(flow, residual caps) of the textbook Dinic method on a copy of the
    network's capacities: a full BFS per phase, then recursive searches
    from s, each pushing the bottleneck of one path through the
    current-arc pointers."""
    head, to, cap = net.head, net.to, list(net.cap)

    def dfs(v, limit):
        if v == t:
            return limit
        while it[v] < len(head[v]):
            eid = head[v][it[v]]
            u = to[eid]
            if cap[eid] > 0 and level[u] == level[v] + 1:
                got = dfs(u, cap[eid] if limit is None else min(limit, cap[eid]))
                if got:
                    cap[eid] -= got
                    cap[eid ^ 1] += got
                    return got
            it[v] += 1
        return 0

    flow = 0
    while True:
        level = [-1] * len(head)
        level[s] = 0
        q = [s]
        for v in q:
            for eid in head[v]:
                if cap[eid] > 0 and level[to[eid]] == -1:
                    level[to[eid]] = level[v] + 1
                    q.append(to[eid])
        if level[t] == -1:
            return flow, cap
        it = [0] * len(head)
        while True:
            got = dfs(s, None)
            if not got:
                break
            flow += got


def residual_reach(net: ExplicitNetwork, cap, s: int) -> list[bool]:
    """Nodes reachable from s along arcs of positive residual capacity."""
    seen = [False] * len(net.head)
    seen[s] = True
    q = [s]
    for v in q:
        for e in net.head[v]:
            if cap[e] > 0 and not seen[net.to[e]]:
                seen[net.to[e]] = True
                q.append(net.to[e])
    return seen


def assert_same_flow(G: Graph, b, colors=None):
    """Run the flow kernel on _double_cover(G, colors) and check it against
    the textbook method on the explicit cover: the flow value, every
    middle arc's flow, the residuals of the source and sink arcs, the
    min-cut reach and the residual graph.  Returns the kernel."""
    n = G.n
    s = 2 * n
    net, arcs, ends = explicit_cover(G, b, colors)
    flow, cap = recursive_max_flow(net, s, s + 1)
    kernel = _double_cover(G, colors)
    assert kernel.max_flow(b) == flow
    assert kernel.flow == [cap[e ^ 1] for e in arcs]
    assert [kernel.rest[x] for x, e in enumerate(ends) if e is not None] == [
        cap[e] for e in ends if e is not None
    ]
    reach = residual_reach(net, cap, s)
    if kernel.level is None:
        # every source arc saturated: the residual graph reaches s alone
        assert reach == [v == s for v in range(s + 2)]
    else:
        assert [x >= 0 for x in kernel.level] == reach
    assert kernel.residual_graph() == [
        [net.to[e] for e in net.head[v] if cap[e] > 0 and net.to[e] < s] for v in range(s)
    ]
    return kernel
