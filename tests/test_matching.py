"""Matching primitives against independent references."""

import random

import networkx as nx
import pytest

from nodebalance.bmatch import BMatchEngine, _double_cover
from nodebalance.matching import (
    Dinic,
    bipartite_matching,
    even_reachable,
    greedy_matching,
    left_deficient_set,
    matching_size,
    maximum_matching,
)
from support import complete_graph, cycle_graph, nx_graph, path_graph, rand_graph


def adj_of(G):
    return [list(G.neighbors(v)) for v in range(G.n)]


def nx_matching_size(G):
    return len(nx.max_weight_matching(nx_graph(G), maxcardinality=True))


def recursive_max_flow(net, s, t):
    """(flow, residual caps) of the textbook Dinic method on a copy of the
    network: a full BFS per phase, then recursive searches from s, each
    pushing the bottleneck of one path through the current-arc pointers."""
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


def full_array_matching(adj, start):
    """maximum_matching by the textbook Edmonds search: p, base and used
    rebuilt for every root, each blossom contracted by a scan of all n
    vertices in ascending order."""
    n = len(adj)
    match = list(start)

    def lca(a, b):
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = p[match[b]]

    def mark_path(v, b, child, blossom):
        while base[v] != b:
            blossom[base[v]] = blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_from(root):
        used[root] = True
        q = [root]
        for v in q:
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    q.append(match[to])
        return -1

    for root in range(n):
        if match[root] != -1:
            continue
        p, base, used = [-1] * n, list(range(n)), [False] * n
        u = find_from(root)
        while u != -1:
            pu = p[u]
            match[u], match[pu], u = pu, u, match[pu]
    return match


def check_valid(adj, match):
    for v, u in enumerate(match):
        if u != -1:
            assert match[u] == v
            assert u in adj[v]


class TestMaximumMatching:
    def test_small_frozen(self):
        # [DERIVED: sizes checked against a second implementation]
        assert matching_size(maximum_matching(adj_of(path_graph(4)))) == 2
        assert matching_size(maximum_matching(adj_of(cycle_graph(5)))) == 2
        assert matching_size(maximum_matching(adj_of(complete_graph(6)))) == 3
        # two triangles bridged: classic blossom case
        G = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
        from nodebalance import Graph

        assert matching_size(maximum_matching(adj_of(Graph(6, G)))) == 3

    def test_against_networkx_random(self):
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randint(0, 12)
            G = rand_graph(rng, n, rng.choice((0.1, 0.25, 0.5, 0.8)))
            match = maximum_matching(adj_of(G))
            check_valid(adj_of(G), match)
            assert matching_size(match) == nx_matching_size(G)

    def test_grows_a_start_matching(self):
        # the middle edge of P4 is maximal but not maximum
        adj = adj_of(path_graph(4))
        start = [-1, 2, 1, -1]
        assert maximum_matching(adj, start) == [1, 0, 3, 2]
        assert start == [-1, 2, 1, -1]
        rng = random.Random(5)
        grown = 0
        for _ in range(300):
            G = rand_graph(rng, rng.randint(2, 12), rng.choice((0.25, 0.5, 0.8)))
            adj = adj_of(G)
            # a random matching, usually short of maximum
            start = [-1] * G.n
            for u, v in rng.sample(G.edges, len(G.edges)):
                if start[u] == start[v] == -1 and rng.random() < 0.5:
                    start[u], start[v] = v, u
            match = maximum_matching(adj, start)
            check_valid(adj, match)
            assert matching_size(match) == nx_matching_size(G)
            grown += matching_size(start) < matching_size(match)
            even_reachable(adj, match)  # raises on a non-maximum matching
        assert grown >= 100

    def test_same_matching_as_full_array_search(self):
        # a search resets only the vertices the previous one touched and
        # contracts over the tree alone; it must grow the same matching as
        # the textbook search, which rebuilds its arrays every time
        rng = random.Random(7)
        for _ in range(300):
            G = rand_graph(rng, rng.randint(2, 40), rng.choice((0.05, 0.1, 0.2, 0.4)))
            adj = adj_of(G)
            start = greedy_matching(adj) if rng.random() < 0.5 else [-1] * G.n
            match = maximum_matching(adj, start)
            assert match == full_array_matching(adj, start)
            assert matching_size(match) == nx_matching_size(G)

    def test_greedy_is_valid_matching(self):
        rng = random.Random(2)
        for _ in range(100):
            G = rand_graph(rng, rng.randint(0, 10), 0.4)
            check_valid(adj_of(G), greedy_matching(adj_of(G)))


class TestEvenReachable:
    def brute_missable(self, G):
        """Vertices missed by at least one maximum matching."""
        adj = adj_of(G)
        best = matching_size(maximum_matching(adj))
        out = []
        for v in range(G.n):
            sub = [[u for u in adj[x] if u != v] if x != v else [] for x in range(G.n)]
            if matching_size(maximum_matching(sub)) == best:
                out.append(v)
        return out

    def test_matches_missable_brute(self):
        rng = random.Random(3)
        for _ in range(200):
            G = rand_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.4, 0.7)))
            adj = adj_of(G)
            match = maximum_matching(adj)
            assert even_reachable(adj, match) == self.brute_missable(G)

    def test_rejects_non_maximum(self):
        adj = adj_of(path_graph(2))
        with pytest.raises(ValueError):
            even_reachable(adj, [-1, -1])


class TestBipartite:
    def test_against_networkx(self):
        rng = random.Random(4)
        for _ in range(200):
            a, b = rng.randint(1, 7), rng.randint(1, 7)
            adj = [[j for j in range(b) if rng.random() < 0.4] for _ in range(a)]
            ml, mr = bipartite_matching(adj, b)
            size = sum(1 for x in ml if x != -1)
            g = nx.Graph()
            g.add_nodes_from(range(a), bipartite=0)
            g.add_nodes_from(range(a, a + b), bipartite=1)
            g.add_edges_from((i, a + j) for i in range(a) for j in adj[i])
            ref = len(nx.bipartite.maximum_matching(g, top_nodes=range(a))) // 2
            assert size == ref

    def test_left_deficient_set_is_hall_violator(self):
        rng = random.Random(5)
        found = 0
        for _ in range(300):
            a, b = rng.randint(2, 7), rng.randint(1, 7)
            adj = [[j for j in range(b) if rng.random() < 0.3] for _ in range(a)]
            ml, mr = bipartite_matching(adj, b)
            if all(x != -1 for x in ml):
                continue
            X = left_deficient_set(adj, ml, mr)
            found += 1
            nbh = {j for i in X for j in adj[i]}
            assert X and len(nbh) < len(X)
        assert found > 50

    def test_saturated_left_rejected(self):
        ml, mr = bipartite_matching([[0]], 1)
        with pytest.raises(ValueError):
            left_deficient_set([[0]], ml, mr)


class TestDinic:
    def test_unit_path(self):
        d = Dinic(3)
        d.add_edge(0, 1, 1)
        d.add_edge(1, 2, 1)
        assert d.max_flow(0, 2) == 1

    def test_classic_network(self):
        # two parallel routes with a cross edge; max flow 2000 limited by arcs
        d = Dinic(4)
        d.add_edge(0, 1, 1000)
        d.add_edge(0, 2, 1000)
        d.add_edge(1, 3, 1000)
        d.add_edge(2, 3, 1000)
        d.add_edge(1, 2, 1)
        assert d.max_flow(0, 3) == 2000

    def test_edge_flow_accounting(self):
        d = Dinic(4)
        e1 = d.add_edge(0, 1, 3)
        e2 = d.add_edge(1, 2, 2)
        d.add_edge(1, 3, 1)
        d.add_edge(2, 3, 5)
        total = d.max_flow(0, 3)
        assert total == 3
        assert d.edge_flow(e1) == 3
        assert d.edge_flow(e2) == 2

    def test_matches_bipartite_matching(self):
        rng = random.Random(6)
        for _ in range(100):
            a, b = rng.randint(1, 6), rng.randint(1, 6)
            adj = [[j for j in range(b) if rng.random() < 0.5] for _ in range(a)]
            ml, _ = bipartite_matching(adj, b)
            d = Dinic(a + b + 2)
            s, t = a + b, a + b + 1
            for i in range(a):
                d.add_edge(s, i, 1)
            for j in range(b):
                d.add_edge(a + j, t, 1)
            for i in range(a):
                for j in adj[i]:
                    d.add_edge(i, a + j, 1)
            assert d.max_flow(s, t) == sum(1 for x in ml if x != -1)

    def test_residual_reachable_gives_min_cut(self):
        d = Dinic(4)
        d.add_edge(0, 1, 2)
        d.add_edge(1, 2, 1)
        d.add_edge(2, 3, 2)
        assert d.max_flow(0, 3) == 1
        seen = d.residual_reachable(0)
        assert seen[0] and seen[1] and not seen[2] and not seen[3]

    def test_long_augmenting_path(self):
        # a 10^4-arc chain: the path is far deeper than Python's recursion limit
        n = 10_000
        d = Dinic(n)
        for v in range(n - 1):
            d.add_edge(v, v + 1, 2 + v % 3)
        assert d.max_flow(0, n - 1) == 2

    def test_same_flow_as_recursive_search(self):
        # the kernel must leave exactly the residual capacities of the
        # textbook method, whatever it skips on the way
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(2, 12)
            arcs = [
                (u, v, rng.randint(1, 5))
                for u in range(n)
                for v in range(n)
                if u != v and rng.random() < 0.3
            ]
            net = Dinic(n)
            for u, v, c in arcs:
                net.add_edge(u, v, c)
            flow, caps = recursive_max_flow(net, 0, n - 1)
            assert net.max_flow(0, n - 1) == flow
            assert net.cap == caps

    def test_two_layer_networks_match_recursive_search(self):
        # the greedy first phase plus max_flow leaves the textbook caps on
        # the engine's networks: double covers of any graph, one copy of
        # the cover of bipartite ones, demands from 0 up to 10^30
        rng = random.Random(17)
        covers = transports = 0
        for i in range(300):
            n = rng.randint(1, 10)
            G = rand_graph(rng, n, rng.choice((0.15, 0.3, 0.6)))
            top = rng.choice((0, 1, 3, 10**6, 10**30))
            b = tuple(rng.randint(0, top) if rng.random() < 0.8 else 0 for _ in range(n))
            if i % 2:
                net, _ = _double_cover(G, b)
                s, t = 2 * n, 2 * n + 1
                covers += 1
            else:
                engine = BMatchEngine(G)
                if engine.colors is None:
                    continue
                net, _ = _double_cover(G, b, engine.colors)
                s, t = 2 * n, 2 * n + 1
                transports += 1
            flow, caps = recursive_max_flow(net, s, t)
            assert net.two_layer_max_flow(s, t) == flow
            assert net.cap == caps
        assert covers == 150 and transports >= 60
