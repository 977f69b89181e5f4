"""Matching primitives against independent references."""

import random

import networkx as nx
import pytest

from nodebalance.bmatch import BMatchEngine, _cover_cut, _double_cover
from nodebalance.core import Graph
from nodebalance.matching import (
    bipartite_matching,
    even_reachable,
    greedy_matching,
    left_deficient_set,
    maximum_matching,
)
from support import (
    assert_same_flow,
    complete_graph,
    cycle_graph,
    matching_size,
    nx_graph,
    path_graph,
    rand_graph,
)


def adj_of(G):
    return [list(G.neighbors(v)) for v in range(G.n)]


def nx_matching_size(G):
    return len(nx.max_weight_matching(nx_graph(G), maxcardinality=True))


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
        # one copy of K2: s -> 0_L -> 1_R -> t, all of capacity 1
        net = _double_cover(path_graph(2), [0, 1])
        assert net.max_flow((1, 1)) == 1
        assert net.flow == [1] and net.rest == [0, 1, 1, 0]

    def test_classic_network(self):
        # two routes from 0_L; the greedy first phase fills 2_R from 0_L,
        # so 1_L is stuck until a second phase reroutes 0_L to 3_R
        G = Graph(4, [(0, 2), (0, 3), (1, 2)])
        net = _double_cover(G, [0, 0, 1, 1])
        assert net.max_flow((1000,) * 4) == 2000
        assert net.flow == [0, 1000, 1000]

    def test_edge_flow_accounting(self):
        # the full cover of the path 0-1-2: arcs 0_L->1_R, 1_L->0_R,
        # 1_L->2_R, 2_L->1_R, taken greedily in arc order
        net = _double_cover(path_graph(3))
        assert net.max_flow((3, 5, 2)) == 10
        assert net.flow == [3, 3, 2, 2]
        assert net.rest == [0] * 6 and net.level is None

    def test_matches_bipartite_matching(self):
        rng = random.Random(6)
        for _ in range(100):
            a, b = rng.randint(1, 6), rng.randint(1, 6)
            adj = [[j for j in range(b) if rng.random() < 0.5] for _ in range(a)]
            ml, _ = bipartite_matching(adj, b)
            G = Graph(a + b, [(i, a + j) for i in range(a) for j in adj[i]])
            net = _double_cover(G, [0] * a + [1] * b)
            assert net.max_flow((1,) * (a + b)) == sum(1 for x in ml if x != -1)

    def test_residual_reachable_gives_min_cut(self):
        # one copy of the path 0-1-2 with 1_R of capacity 1: the levels of
        # the failing BFS reach s, 0_L, 2_L and 1_R, and the cut is N({0, 2})
        G = path_graph(3)
        net = _double_cover(G, [0, 1, 0])
        assert net.max_flow((2, 1, 2)) == 1
        assert [v for v, x in enumerate(net.level) if x >= 0] == [0, 2, 4, 6]
        assert _cover_cut(G, net.level) == [1]

    def test_long_augmenting_path(self):
        # left vertices L_1..L_{k-1} (ids 0..k-2) each take R_{i-1} first,
        # so L_0 (id k-1) is stuck until a 2k-arc path shifts them all to
        # R_i: far deeper than Python's recursion limit
        k = 5000
        edges = [(k - 1, k)] + [(i - 1, k + j) for i in range(1, k) for j in (i - 1, i)]
        G = Graph(2 * k, edges)
        net = _double_cover(G, [0] * k + [1] * k)
        assert net.max_flow((1,) * (2 * k)) == k
        assert [e for e, x in zip(G.edges, net.flow) if x] == sorted(
            [(k - 1, k)] + [(i - 1, k + i) for i in range(1, k)]
        )

    def test_same_flow_as_recursive_search(self):
        # the kernel leaves exactly the textbook method's flow, cut and
        # residual graph at extreme demands: one b_v larger than all the
        # others together, all zero, around 10^30, and perfect b-matchings
        # that the greedy first phase misses, so that later phases run
        rng = random.Random(13)
        seen = {"skewed": 0, "zero": 0, "huge": 0, "planned": 0}
        for i in range(400):
            n = rng.randint(1, 12)
            G = rand_graph(rng, n, rng.choice((0.2, 0.4, 0.7)))
            kind = list(seen)[i % 4]
            if kind == "skewed":
                b = [rng.randint(0, 5) for _ in range(n)]
                v = rng.randrange(n)
                b[v] = sum(b) - b[v] + rng.randint(1, 10**6)
            elif kind == "zero":
                b = [0] * n
            elif kind == "huge":
                b = [10**30 + rng.randint(-3, 3) if rng.random() < 0.8 else 0 for _ in range(n)]
            else:
                b = [0] * n
                for u, v in G.edges:
                    x = rng.choice((0, 1, 2, 10**30))
                    b[u] += x
                    b[v] += x
            colors = BMatchEngine(G).colors if i % 8 < 4 else None
            net = assert_same_flow(G, b, colors)
            if kind == "zero":
                assert net.flow == [0] * net.arcs and net.level is None
            seen[kind] += 1
        assert min(seen.values()) == 100

    def test_two_layer_networks_match_recursive_search(self):
        # double covers of any graph, one copy of the cover of bipartite
        # ones, demands from 0 up to 10^30
        rng = random.Random(17)
        covers = transports = 0
        for i in range(300):
            n = rng.randint(1, 10)
            G = rand_graph(rng, n, rng.choice((0.15, 0.3, 0.6)))
            top = rng.choice((0, 1, 3, 10**6, 10**30))
            b = tuple(rng.randint(0, top) if rng.random() < 0.8 else 0 for _ in range(n))
            if i % 2:
                assert_same_flow(G, b)
                covers += 1
            else:
                colors = BMatchEngine(G).colors
                if colors is None:
                    continue
                assert_same_flow(G, b, colors)
                transports += 1
        assert covers == 150 and transports >= 60
