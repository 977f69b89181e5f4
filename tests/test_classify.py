"""Structural classifiers: universal equatability, bipartite analysis."""

import random
import time

import pytest

from nodebalance import (
    Bipartition,
    Graph,
    InstanceError,
    InternalError,
    bipartition,
    equate,
    hall_witness_assignment,
    independent_set_condition,
    is_balanced,
    is_connected,
    isolated_condition_enum,
    isolated_vertices,
    strict_hall,
    strict_hall_enum,
    universal_equatable,
)
from nodebalance import classify, matching
from nodebalance.classify import _sink_component
from support import (
    C6_PUZZLE_W,
    backtrack_min_beta,
    complete_graph,
    cycle_graph,
    cycle_with_chords,
    load_bench,
    path_graph,
    rand_bipartite,
    rand_connected,
    rand_graph,
    star_graph,
    strict_hall_from_scratch,
    universal_by_probes,
)

K3 = complete_graph(3)
P3 = path_graph(3)
P4 = path_graph(4)
C6 = cycle_graph(6)


def tree_plus_edges(n, m, seed=0):
    """A random spanning tree on n vertices plus random edges up to m in
    all, in time linear in m; at m = 2.5n its leaves share neighbours."""
    rng = random.Random(seed)
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


class TestConnected:
    def test_examples(self):
        # [TRIVIAL x3]
        assert is_connected(K3)
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
        assert is_connected(Graph(1, []))

    def test_empty_rejected(self):
        with pytest.raises(InstanceError):
            is_connected(Graph(0, []))


class TestUniversal:
    def test_k3_true(self):
        # [DERIVED: the double cover is C6, elementary]
        v = universal_equatable(K3)
        assert v.verdict and v.reason is None

    def test_c4_even_order(self):
        # [TRIVIAL: parity argument]
        v = universal_equatable(cycle_graph(4))
        assert not v.verdict and v.reason == "even_order"

    def test_p3_witness(self):
        # [KNOWN: two leaves around the middle vertex]
        v = universal_equatable(P3)
        assert not v.verdict and v.reason == "isolated_condition"
        assert v.witness == (1,)
        assert len(isolated_vertices(P3, v.witness)) >= len(v.witness)

    def test_disconnected(self):
        v = universal_equatable(Graph(5, [(0, 1), (2, 3)]))
        assert not v.verdict and v.reason == "disconnected"

    def test_single_vertex_true(self):
        assert universal_equatable(Graph(1, [])).verdict

    def test_odd_cycle_true_beyond_enumeration_probe(self):
        # an odd cycle's double cover is one even cycle, hence elementary
        assert universal_equatable(cycle_graph(11)).verdict

    def test_big_star_witness(self):
        v = universal_equatable(star_graph(4))  # n=5, center isolates 4
        assert not v.verdict and v.reason == "isolated_condition"
        assert len(isolated_vertices(star_graph(4), v.witness)) >= len(v.witness)

    def test_jsonable(self):
        assert universal_equatable(P3).to_jsonable() == {
            "universal": False,
            "reason": "isolated_condition",
            "witness": [1],
        }

    def test_large_graphs_one_flow(self):
        # n engine probes took minutes on these; one matching takes milliseconds
        for G in (cycle_graph(2001), cycle_with_chords(random.Random(801), 801, 1200)):
            start = time.perf_counter()
            v = universal_equatable(G)
            assert time.perf_counter() - start < 1.0
            assert v.verdict and v.reason is None

    def test_no_dinic_flow(self, monkeypatch):
        # the unit-capacity matching replaced the general flow kernel
        def max_flow(self, b):
            raise AssertionError("universal_equatable ran Dinic.max_flow")

        monkeypatch.setattr(matching.Dinic, "max_flow", max_flow)
        rng = random.Random(51)
        verdicts = set()
        for G in (P3, K3, cycle_graph(41), cycle_with_chords(rng, 81, 40), rand_connected(rng, 61, 0.04)):
            verdicts.add(universal_equatable(G).verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "build, universal",
        [(lambda: cycle_graph(100_001), True), (lambda: tree_plus_edges(20_001, 50_002), False)],
        ids=["cycle_100001", "sparse_20001"],
    )
    def test_scale_under_two_seconds(self, build, universal):
        G = build()
        start = time.perf_counter()
        v = universal_equatable(G)
        assert time.perf_counter() - start < 2
        assert v.verdict == universal
        if not universal:
            assert len(isolated_vertices(G, v.witness)) >= len(v.witness) >= 1

    def test_long_odd_path_witness(self):
        # a 4000-arc augmenting search and reachability scan, iteratively
        G = path_graph(4001)
        v = universal_equatable(G)
        assert not v.verdict and v.reason == "isolated_condition"
        assert len(isolated_vertices(G, v.witness)) >= len(v.witness) >= 1

    def test_agrees_with_enumeration(self):
        rng = random.Random(41)
        failing = 0
        for _ in range(400):
            n = rng.choice((3, 5, 7, 9, 11, 13))
            G = rand_connected(rng, n, rng.choice((0.0, 0.15, 0.3, 0.5)))
            v = universal_equatable(G)
            assert v.verdict == (isolated_condition_enum(G) is None)
            if not v.verdict:
                failing += 1
                assert v.reason == "isolated_condition"
                assert len(isolated_vertices(G, v.witness)) >= len(v.witness) >= 1
        assert 50 <= failing <= 350

    def test_agrees_with_probe_route(self):
        # above the enumeration's reach: odd cycles with chords (universal),
        # the same with two leaves on one vertex (not), random sparse graphs
        rng = random.Random(43)
        seen = set()
        for n in (25, 51, 101, 201):
            for family in range(3):
                if family == 0:
                    G = cycle_with_chords(rng, n, n // 2)
                elif family == 1:
                    H = cycle_with_chords(rng, n - 2, n // 2)
                    hub = rng.randrange(n - 2)
                    G = Graph(n, list(H.edges) + [(hub, n - 2), (hub, n - 1)])
                else:
                    G = rand_connected(rng, n, 2.5 / n)
                v = universal_equatable(G)
                assert (v.verdict, v.reason) == universal_by_probes(G)
                seen.add(v.verdict)
                if not v.verdict:
                    assert len(isolated_vertices(G, v.witness)) >= len(v.witness) >= 1
        assert seen == {True, False}


class TestSinkComponent:
    def test_against_networkx(self):
        import networkx as nx

        rng = random.Random(47)
        for _ in range(300):
            n = rng.randint(1, 12)
            p = rng.choice((0.1, 0.25, 0.5))
            succ = [[u for u in range(n) if u != v and rng.random() < p] for v in range(n)]
            comp = _sink_component(succ, 0)
            g = nx.DiGraph()
            g.add_nodes_from(range(n))
            g.add_edges_from((v, u) for v in range(n) for u in succ[v])
            assert set(comp) in [set(c) for c in nx.strongly_connected_components(g)]
            assert all(u in comp for v in comp for u in succ[v])
            assert 0 in comp or nx.has_path(g, 0, comp[0])


class TestIsolatedConditionEnum:
    def test_examples(self):
        # [DERIVED: enumeration x3]
        assert isolated_condition_enum(P3) == (1,)
        assert isolated_condition_enum(cycle_graph(5)) is None
        assert isolated_condition_enum(star_graph(3)) == (0,)


class TestIndependentSetCondition:
    def test_examples(self):
        # [DERIVED: enumeration x3]
        assert independent_set_condition(P3) == (0, 2)
        assert independent_set_condition(K3) is None
        assert independent_set_condition(cycle_graph(5)) is None

    def test_preconditions(self):
        with pytest.raises(InstanceError):
            independent_set_condition(Graph(3, [(0, 1)]))  # vertex 2 isolated
        with pytest.raises(InstanceError):
            independent_set_condition(Graph(1, []))

    def test_berge_agreement(self):
        rng = random.Random(14)
        done = 0
        while done < 150:
            n = rng.randint(2, 7)
            G = rand_graph(rng, n, rng.choice((0.3, 0.5, 0.8)))
            if any(G.degree(v) == 0 for v in range(n)):
                continue
            done += 1
            assert (independent_set_condition(G) is None) == (
                isolated_condition_enum(G) is None
            )


class TestBipartition:
    def test_c6(self):
        # [TRIVIAL: even cycle]
        part = bipartition(C6)
        assert part.left == (0, 2, 4) and part.right == (1, 3, 5)
        part.validate_for(C6)

    def test_k3_absent(self):
        assert bipartition(K3) is None

    def test_edgeless_pair(self):
        # [TRIVIAL: canonical rule puts each component's lowest id left]
        part = bipartition(Graph(2, []))
        assert part.left == (0, 1) and part.right == ()

    def test_type_invariants(self):
        with pytest.raises(InstanceError):
            Bipartition((0, 1), (1, 2))
        part = Bipartition((0,), (1,))
        with pytest.raises(InstanceError):
            part.validate_for(Graph(3, [(0, 1)]))  # vertex 2 uncovered
        with pytest.raises(InstanceError):
            Bipartition((0, 1), ()).validate_for(Graph(2, [(0, 1)]))  # no crossing


class TestBalanced:
    def test_examples(self):
        # [KNOWN: 9 vs 12] / [DERIVED] / [TRIVIAL]
        assert not is_balanced(C6_PUZZLE_W, bipartition(C6))
        C4 = cycle_graph(4)
        assert is_balanced((1, 0, 0, 1), bipartition(C4))
        assert is_balanced((0, 0, 0, 0, 0, 0), bipartition(C6))


class TestStrictHall:
    def test_c6_true(self):
        # [DERIVED: subset enumeration]
        assert strict_hall(C6, bipartition(C6)).verdict

    def test_p4_false(self):
        # [DERIVED: enumeration]
        v = strict_hall(P4, bipartition(P4))
        assert not v.verdict and v.witness == (0,)

    def test_k2_vacuous(self):
        # [TRIVIAL: no proper nonempty subset of a singleton side]
        assert strict_hall(path_graph(2), bipartition(path_graph(2))).verdict

    def test_unequal_sides(self):
        G = star_graph(2)
        part = bipartition(G)
        assert (len(part.left), len(part.right)) == (1, 2)
        v = strict_hall(G, part)
        assert not v.verdict and v.witness == (1,)

    def test_edgeless_two_left(self):
        G = Graph(2, [])
        v = strict_hall(G, bipartition(G))
        assert not v.verdict and v.witness == (0,)

    def test_agrees_with_enum(self):
        rng = random.Random(15)
        for _ in range(200):
            a, b = rng.randint(1, 5), rng.randint(1, 5)
            G, part = rand_bipartite(rng, a, b, rng.choice((0.2, 0.5, 0.8)))
            v1, v2 = strict_hall(G, part), strict_hall_enum(G, part)
            assert v1.verdict == v2.verdict
            if not v1.verdict:
                X = set(v1.witness)
                side = set(part.left) if X <= set(part.left) else set(part.right)
                assert X and X < side
                nbh = {u for x in X for u in G.neighbors(x)}
                assert len(nbh) <= len(X)


class TestStrictHallSharedMatching:
    """strict_hall answers yes from one strong-component pass and otherwise
    repairs a copy of one shared matching per pair, reading the witness off
    the failing pair's copy; it must give the verdict and witness of a
    matching built from scratch for each pair."""

    def test_same_answers_as_from_scratch_pairs(self):
        rng = random.Random(3)
        unequal = imperfect = late = 0
        for _ in range(3000):
            a = rng.randint(1, 7)
            b = a if rng.random() < 0.8 else rng.randint(1, 7)
            G, part = rand_bipartite(rng, a, b, rng.choice((0.2, 0.3, 0.5, 0.7, 0.9)))
            ref, pos = strict_hall_from_scratch(G, part)
            assert strict_hall(G, part) == ref, (a, b, G.edges)
            unequal += a != b
            if a == b:
                adj = [[v - a for v in G.neighbors(u)] for u in range(a)]
                imperfect += -1 in matching.bipartite_matching(adj, b)[0]
            late += bool(pos)
        # unequal sides, no perfect matching, a failing pair after passing ones
        assert min(unequal, imperfect, late) >= 200, (unequal, imperfect, late)

    def test_same_answers_on_bench_chorded_cycles(self):
        workloads = load_bench("workloads")
        checked = 0
        for seed in (1, 2):
            for op in workloads.classify_scale(seed):
                d = op.data
                if op.kind != "strict_hall" or op.fault or len(d["edges"]) == d["n"]:
                    continue
                G, part = Graph(d["n"], d["edges"]), Bipartition(d["left"], d["right"])
                assert strict_hall(G, part) == strict_hall_from_scratch(G, part)[0]
                checked += 1
        assert checked == 10

    def test_one_matching_per_call(self, monkeypatch):
        # the shared matching; a failing pair's witness is read off its
        # repaired copy, so a negative answer builds no second one
        calls = []
        real = matching.bipartite_matching

        def counting(adj, n_right):
            calls.append(n_right)
            return real(adj, n_right)

        monkeypatch.setattr(matching, "bipartite_matching", counting)
        rng = random.Random(4)
        negative = 0
        for _ in range(300):
            a = rng.randint(1, 6)
            b = a if rng.random() < 0.8 else rng.randint(1, 6)
            G, part = rand_bipartite(rng, a, b, rng.choice((0.3, 0.6, 0.9)))
            calls.clear()
            v = strict_hall(G, part)
            assert len(calls) == (a == b >= 2), (a, b, v)
            negative += a == b >= 2 and not v.verdict
        assert negative >= 50, negative

    def test_strong_component_pass_against_references(self):
        # relabelled chorded even cycles are elementary; dropping edges
        # from them, or drawing random graphs, leaves many graphs with a
        # perfect matching whose alternating digraph is not strongly
        # connected, which the pass hands on to the pair scan
        workloads = load_bench("workloads")
        rng = random.Random(21)
        positive = handed_on = 0
        for trial in range(1200):
            k = rng.randint(2, 6)
            if trial % 3 == 0:
                G, part = rand_bipartite(rng, k, k, rng.choice((0.3, 0.5, 0.7, 0.9)))
            else:
                d = workloads.chorded_cycle(rng, k, rng.randint(0, k * k - 2 * k))
                d = workloads.relabelled(rng, d)
                edges = d["edges"]
                if trial % 3 == 2:
                    edges = rng.sample(edges, len(edges) - rng.randint(1, 3))
                G, part = Graph(d["n"], edges), Bipartition(d["left"], d["right"])
            v = strict_hall(G, part)
            assert v == strict_hall_from_scratch(G, part)[0], (part, G.edges)
            assert v.verdict == strict_hall_enum(G, part).verdict
            rpos = {y: j for j, y in enumerate(part.right)}
            adj = [[rpos[y] for y in G.neighbors(x)] for x in part.left]
            perfect = -1 not in matching.bipartite_matching(adj, k)[0]
            positive += v.verdict
            handed_on += perfect and not v.verdict
        assert min(positive, handed_on) >= 200, (positive, handed_on)

    def test_pass_and_pair_scan_check_each_other(self, monkeypatch):
        # a pass that wrongly finds a closed proper component sends a
        # strict-Hall graph to the pair scan, where every pair passes
        monkeypatch.setattr(classify, "_sink_component", lambda succ, root: [root])
        with pytest.raises(InternalError, match="not elementary"):
            strict_hall(C6, bipartition(C6))

    def test_c400_in_seconds(self):
        G = cycle_graph(400)
        start = time.perf_counter()
        assert strict_hall(G, bipartition(G)).verdict
        assert time.perf_counter() - start < 5

    def test_c4000_and_chorded_k1000_under_a_second(self):
        workloads = load_bench("workloads")
        rng = random.Random(1000)
        d = workloads.relabelled(rng, workloads.chorded_cycle(rng, 1000, 500))
        C = cycle_graph(4000)
        for G, part in ((C, bipartition(C)),
                        (Graph(d["n"], d["edges"]), Bipartition(d["left"], d["right"]))):
            start = time.perf_counter()
            assert strict_hall(G, part).verdict
            assert time.perf_counter() - start < 1

    def test_c100000_under_a_second(self):
        # every search marks one shared seen array, so the matching costs
        # what its searches explore, not k^2
        G = cycle_graph(100_000)
        part = bipartition(G)
        start = time.perf_counter()
        assert strict_hall(G, part).verdict
        assert time.perf_counter() - start < 1

    def test_one_seen_array_per_call(self, monkeypatch):
        # each search records its seen array, and whether it ran inside
        # bipartite_matching or in strict_hall's pair scan; the list keeps
        # every array alive, so distinct arrays have distinct ids
        real_augment, real_matching = matching.kuhn_augment, matching.bipartite_matching
        searches = []
        inside = [False]

        def augment(adj, ml, mr, i, seen, *mark):
            searches.append((inside[0], seen))
            return real_augment(adj, ml, mr, i, seen, *mark)

        def bipartite_matching(adj, n_right):
            inside[0] = True
            try:
                return real_matching(adj, n_right)
            finally:
                inside[0] = False

        def arrays(in_matching):
            return len({id(seen) for where, seen in searches if where == in_matching})

        P = path_graph(400)
        ref = strict_hall_from_scratch(P, bipartition(P))[0]
        monkeypatch.setattr(matching, "kuhn_augment", augment)
        monkeypatch.setattr(matching, "bipartite_matching", bipartite_matching)
        C = cycle_graph(400)
        adj = [[(y - 1) // 2 for y in C.neighbors(x)] for x in range(0, 400, 2)]
        matching.bipartite_matching(adj, 200)
        assert len(searches) >= 200 and arrays(True) == 1
        # on P_400 the pairs (0, v) pass with one search each, then (2, 1)
        # fails: one array for the matching and one for the whole scan
        searches.clear()
        assert strict_hall(P, bipartition(P)) == ref
        scan = sum(not where for where, _ in searches)
        assert scan >= 200 and arrays(True) == 1 and arrays(False) == 1, scan


class TestHallWitnessAssignment:
    def test_p4(self):
        # [KNOWN: proof construction; infeasibility oracle-confirmed]
        part = bipartition(P4)
        w = hall_witness_assignment(P4, part, (0,))
        assert w == (0, 1, 1, 0)
        assert is_balanced(w, part)
        assert not equate(P4, w).feasible
        assert backtrack_min_beta(P4, w) is None

    def test_isolated_left_vertex_case(self):
        # [DERIVED: backtracking oracle]
        G = Graph(4, [(2, 3)])
        part = Bipartition((0, 2), (1, 3))
        w = hall_witness_assignment(G, part, (0,))
        assert w == (0, 1, 1, 0)
        assert not equate(G, w).feasible
        assert backtrack_min_beta(G, w) is None

    def test_right_side_witness(self):
        G = star_graph(2)
        part = bipartition(G)
        w = hall_witness_assignment(G, part, (1,))
        assert is_balanced(w, part)
        assert not equate(G, w).feasible

    def test_non_violating_rejected(self):
        # [TRIVIAL: precondition]
        part = bipartition(C6)
        with pytest.raises(InstanceError):
            hall_witness_assignment(C6, part, (0,))

    def test_empty_or_full_rejected(self):
        part = bipartition(P4)
        with pytest.raises(InstanceError):
            hall_witness_assignment(P4, part, ())
        with pytest.raises(InstanceError):
            hall_witness_assignment(P4, part, (0, 2))

    def test_side_of_20000_under_a_second(self):
        # P_40000 with X every left vertex but the last: N(X) is the whole
        # right side less 39999, |N(X)| = |X|, and the lowest left vertex
        # outside X is the last one scanned
        G = path_graph(40_000)
        part = bipartition(G)
        X = part.left[:-1]
        start = time.perf_counter()
        w = hall_witness_assignment(G, part, X)
        assert time.perf_counter() - start < 1
        assert [v for v in range(G.n) if w[v]] == [1, 39_998]

    def test_degenerate_empty_other_side(self):
        G = Graph(2, [])
        with pytest.raises(InstanceError):
            hall_witness_assignment(G, bipartition(G), (0,))
