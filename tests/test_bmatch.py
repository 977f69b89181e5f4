"""Perfect b-matching: definition helpers, both backends, certificates."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodebalance import (
    BMatchOutcome,
    BudgetError,
    Graph,
    IncrementPlan,
    InstanceError,
    InternalError,
    apply_plan,
    check_tutte_enumeration,
    decide_perfect_bmatching,
    equate,
    expand_graph,
    is_uniform,
    isolated_vertices,
    perfect_bmatching,
    s_count,
    solve_bmatching_expansion,
    tutte_deficiency,
    verify_plan_perfect,
    violating_set,
)
from nodebalance import bmatch
from nodebalance.bmatch import BMatchEngine, _cover_cut, _round_circuits
from nodebalance.classify import _sink_component
from support import (
    CHAIN_TOP,
    NEAR_OFFSET,
    ExplicitNetwork,
    assert_same_flow,
    complete_graph,
    cycle_graph,
    hub_triangles,
    load_bench,
    near_2p53_instance,
    path_graph,
    rand_connected,
    rand_bipartite,
    rand_graph,
    recursive_max_flow,
    residual_graph,
    residual_reach,
    sparse_planned_instance,
    triangle_chain,
)

P3 = path_graph(3)
K2 = path_graph(2)
K3 = complete_graph(3)


class TestDefinitionHelpers:
    def test_isolated_vertices(self):
        # [KNOWN: canonical failing instance] / [TRIVIAL x2]
        assert isolated_vertices(P3, {1}) == (0, 2)
        assert isolated_vertices(K3, {0}) == ()
        assert isolated_vertices(Graph(3, [(0, 1)]), set()) == (2,)

    def test_s_count(self):
        # [DERIVED: direct component scans]
        assert s_count(K3, set(), (1, 1, 1)) == 1
        assert s_count(K3, set(), (2, 1, 1)) == 0
        assert s_count(P3, {1}, (5, 0, 7)) == 0

    def test_tutte_deficiency(self):
        # [DERIVED: hand evaluation]
        assert tutte_deficiency(K2, set(), (1, 2)) == 1
        assert tutte_deficiency(K2, set(), (1, 1)) == 0
        for beta in (1, 3, 5):
            b = (beta, beta - 1, beta)
            assert tutte_deficiency(P3, {1}, b) == beta + 1

    def test_violating_set_recomputes(self):
        vs = violating_set(P3, {1}, (1, 0, 1))
        assert vs.U == (1,) and vs.isolated == (0, 2)
        assert vs.s_count == 0 and vs.deficiency == 2
        assert vs.to_jsonable() == {
            "type": "tutte",
            "U": [1],
            "isolated": [0, 2],
            "s_count": 0,
            "deficiency": 2,
        }

    def test_violating_set_rejects_non_violation(self):
        with pytest.raises(InstanceError):
            violating_set(K2, set(), (1, 1))


class TestEnumeration:
    def test_frozen_examples(self):
        # [TRIVIAL] / [DERIVED x2]
        assert check_tutte_enumeration(K2, (1, 1)) is None
        vs = check_tutte_enumeration(K2, (1, 2))
        assert vs.U == () and vs.deficiency == 1
        vs = check_tutte_enumeration(P3, (1, 0, 1))
        assert vs.U == (1,) and vs.deficiency == 2

    def test_worst_witness_and_canonical_ties(self):
        # two exposed leaves around a middle: U={1} beats everything
        G = path_graph(5)
        b = (1, 0, 1, 0, 1)
        vs = check_tutte_enumeration(G, b)
        assert vs.deficiency == max(
            tutte_deficiency(G, set(U), b)
            for r in range(G.n + 1)
            for U in itertools.combinations(range(G.n), r)
        )

    def test_budget(self):
        with pytest.raises(BudgetError):
            check_tutte_enumeration(Graph(21, []), (0,) * 21)


class TestIndependentReference:
    """The Tutte terms against bench/checks.py, which evaluates them on
    neighbour bitmasks and imports nothing from the program, so that the
    oracle and the helpers are not checked only against _tutte_terms."""

    def test_terms_and_enumeration_match_the_bitmask_reference(self):
        checks = load_bench("checks")
        rng = random.Random(1504)
        triples = 0
        for _ in range(100):
            n = rng.randint(1, 10)
            G = rand_graph(rng, n, rng.choice((0.15, 0.3, 0.5, 0.8)))
            b = tuple(rng.randint(0, 4) for _ in range(n))
            nbr = checks.adjacency(n, G.edges)

            def terms(U):
                umask = checks._mask(U)
                iso = tuple(checks._bits(checks.isolated(nbr, n, umask)))
                s = sum(
                    1
                    for comp in checks._components(nbr, ((1 << n) - 1) & ~umask)
                    if comp & (comp - 1) and checks._wsum(b, comp) % 2
                )
                return iso, s, sum(b[v] for v in iso) + s - sum(b[v] for v in U)

            subsets = [U for r in range(n + 1) for U in itertools.combinations(range(n), r)]
            best = None  # max deficiency, first in canonical order
            for U in subsets:
                iso, s, d = terms(U)
                if d >= 1 and (best is None or d > best[3]):
                    best = (U, iso, s, d)
            vs = check_tutte_enumeration(G, b)
            got = None if vs is None else (vs.U, vs.isolated, vs.s_count, vs.deficiency)
            assert got == best, (G, b)
            for _ in range(5):
                U = rng.choice(subsets)
                iso, s, d = terms(U)
                assert isolated_vertices(G, U) == iso, (G, U)
                assert s_count(G, U, b) == s, (G, U, b)
                assert tutte_deficiency(G, U, b) == d, (G, U, b)
                nmask = 0
                for v in U:
                    nmask |= nbr[v]
                assert bmatch._neighborhood(G, U) == set(checks._bits(nmask)), (G, U)
                triples += 1
        assert triples == 500


class TestExpandGraph:
    def test_k2_examples(self):
        # [TRIVIAL: definition of splitting]
        H, copy_of = expand_graph(K2, (2, 1))
        assert H.n == 3 and H.m == 2
        assert sorted(copy_of) == [0, 0, 1]
        H0, _ = expand_graph(K2, (0, 0))
        assert H0.n == 0 and H0.m == 0

    def test_k3_counts(self):
        # [DERIVED: edge count b(u)*b(v) per original edge]
        H, _ = expand_graph(K3, (1, 1, 2))
        assert H.n == 4 and H.m == 1 + 2 + 2

    def test_budget_sum_b(self):
        with pytest.raises(BudgetError) as exc:
            expand_graph(K2, (50_000, 1))
        assert "sum_b" in exc.value.detail

    def test_budget_edge_copies(self):
        with pytest.raises(BudgetError) as exc:
            expand_graph(K2, (3000, 3000))
        assert "edge_copies" in exc.value.detail


class TestExpansionBackend:
    def test_frozen(self):
        # [TRIVIAL] / [DERIVED: parity of expansion] / [DERIVED: replay]
        plan = solve_bmatching_expansion(K2, (1, 1))
        assert plan.entries == (((0, 1), 1),)
        assert solve_bmatching_expansion(K2, (2, 1)) is None
        plan = solve_bmatching_expansion(K3, (2, 2, 2))
        assert plan.total_steps == 3
        assert verify_plan_perfect(K3, (2, 2, 2), plan)


class TestVerify:
    def test_examples(self):
        assert verify_plan_perfect(K2, (1, 1), IncrementPlan([((0, 1), 1)]))
        assert not verify_plan_perfect(K2, (1, 1), IncrementPlan.empty())
        allones = IncrementPlan([((0, 1), 1), ((1, 2), 1), ((0, 2), 1)])
        assert verify_plan_perfect(K3, (2, 2, 2), allones)


class TestPerfectBMatching:
    def test_p3_infeasible_witness(self):
        out = perfect_bmatching(P3, (1, 0, 1))
        assert not out.feasible
        assert out.witness.U == (1,)

    def test_c5_unique_plan(self):
        # x(e)+x(f)=2 around an odd cycle forces every multiplicity to 1
        out = perfect_bmatching(cycle_graph(5), (2, 2, 2, 2, 2))
        assert out.feasible
        assert dict(out.plan.entries) == {
            (0, 1): 1,
            (1, 2): 1,
            (2, 3): 1,
            (3, 4): 1,
            (0, 4): 1,
        }

    def test_k3_single_edge(self):
        out = perfect_bmatching(K3, (0, 1, 1))
        assert out.feasible and out.plan.entries == (((1, 2), 1),)

    def test_all_zero(self):
        out = perfect_bmatching(K3, (0, 0, 0))
        assert out.feasible and not out.plan

    def test_outcome_exactly_one(self):
        with pytest.raises(InstanceError):
            BMatchOutcome()
        ok = perfect_bmatching(K2, (1, 1))
        with pytest.raises(InstanceError):
            BMatchOutcome(plan=ok.plan, witness=violating_set(P3, {1}, (1, 0, 1)))


class TestEngineContract:
    """decide is the one call per demand: a plan replayed against b or a
    verified certificate, with nothing kept from one demand to the next."""

    def test_plan_that_misses_b_raises(self, monkeypatch):
        short = BMatchOutcome(plan=IncrementPlan([((0, 1), 1)]))
        monkeypatch.setattr(BMatchEngine, "_solve", lambda self, b: short)
        with pytest.raises(InternalError):
            BMatchEngine(P3).decide((1, 2, 1))

    def test_construct_is_the_plan_of_decide(self):
        eng = BMatchEngine(cycle_graph(5))
        assert eng.construct((2,) * 5) == eng.decide((2,) * 5).plan
        assert not eng.decide((1, 0, 1, 0, 0)).feasible
        with pytest.raises(InternalError):
            eng.construct((1, 0, 1, 0, 0))

    @pytest.mark.parametrize("G", [Graph(0), P3, K3, cycle_graph(5)])
    def test_zero_demand_is_the_empty_plan(self, G):
        out = BMatchEngine(G).decide((0,) * G.n)
        assert out.feasible and out.plan == IncrementPlan.empty()

    def test_answers_do_not_depend_on_order(self):
        rng = random.Random(3)
        for _ in range(20):
            G = rand_graph(rng, 7, 0.4)
            demands = [tuple(rng.randint(0, 3) for _ in range(7)) for _ in range(6)]
            fresh = [BMatchEngine(G).decide(b) for b in demands]
            eng = BMatchEngine(G)
            assert [eng.decide(b) for b in demands] == fresh
            assert [eng.decide(b) for b in reversed(demands)] == fresh[::-1]


class TestEngineAgreement:
    def check_one(self, G, b):
        enum = check_tutte_enumeration(G, b)
        eng = BMatchEngine(G)
        out = eng.decide(b)
        assert out.feasible == (enum is None)
        if out.feasible:
            assert verify_plan_perfect(G, b, out.plan)
        else:
            cert = out.witness
            assert tutte_deficiency(G, cert.U, b) == cert.deficiency >= 1
        # the engine keeps nothing of a demand: a second call answers alike
        assert eng.decide(b) == out

    def test_small_random(self):
        rng = random.Random(7)
        for _ in range(250):
            n = rng.randint(1, 9)
            G = rand_graph(rng, n, rng.choice((0.2, 0.4, 0.7)))
            b = tuple(rng.randint(0, 4) for _ in range(n))
            self.check_one(G, b)

    def test_bipartite_subset_and_flow_routes(self):
        rng = random.Random(8)
        for _ in range(120):
            a, c = rng.randint(1, 6), rng.randint(1, 6)
            edges = [(u, a + v) for u in range(a) for v in range(c) if rng.random() < 0.5]
            G = Graph(a + c, edges)
            b = tuple(rng.randint(0, 5) for _ in range(a + c))
            self.check_one(G, b)

    def test_larger_vs_enumeration(self):
        # n in 10..14, past the small graphs of test_small_random
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(10, 14)
            G = rand_graph(rng, n, 0.3)
            b = tuple(rng.randint(0, 3) for _ in range(n))
            enum = check_tutte_enumeration(G, b)
            out = perfect_bmatching(G, b)
            assert out.feasible == (enum is None)
            if out.feasible:
                assert verify_plan_perfect(G, b, out.plan)
            else:
                assert tutte_deficiency(G, out.witness.U, b) >= 1

    def test_determinism(self):
        rng = random.Random(10)
        for _ in range(30):
            n = rng.randint(2, 9)
            G = rand_graph(rng, n, 0.4)
            b = tuple(rng.randint(0, 3) for _ in range(n))
            o1 = perfect_bmatching(G, b)
            o2 = perfect_bmatching(G, b)
            assert o1 == o2

    def test_long_relabelled_path(self):
        # augmenting paths on a randomly relabelled path run thousands of
        # arcs deep; the flow route must not depend on the recursion limit
        n = 5000
        order = list(range(n))
        random.Random(0).shuffle(order)
        G = Graph(n, [(order[i], order[i + 1]) for i in range(n - 1)])
        out = perfect_bmatching(G, (1,) * n)
        expected = {
            (min(order[i], order[i + 1]), max(order[i], order[i + 1])): 1
            for i in range(0, n, 2)
        }
        assert dict(out.plan.entries) == expected
        # both ends one unit up: every other vertex must be lifted once
        w = [0] * n
        w[order[0]] = w[order[-1]] = 1
        res = equate(G, w)
        assert res.beta == 1 and res.plan.total_steps == n // 2 - 1

    def test_empty_set_parity_invariant(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(2, 8)
            G = rand_graph(rng, n, 0.9)  # dense, very likely connected
            from nodebalance import is_connected

            if not is_connected(G):
                continue
            b = [rng.randint(0, 4) for _ in range(n)]
            if sum(b) % 2 == 0:
                b[0] += 1
            assert tutte_deficiency(G, set(), tuple(b)) >= 1


def tutte_structured(rng):
    """n = 10..14: a small U = {0..k-1} with k+1 components hanging off it,
    each built around a triangle.  Demands are 0..30, capped so that no
    vertex outweighs its neighbours in its component, each component total
    is made odd where it can be, and U gets at most k+2 units, so the
    odd-component term of the condition is what usually decides."""
    n = rng.randint(10, 14)
    k = rng.randint(1, (n - 3) // 4)
    rest = list(range(k, n))
    rng.shuffle(rest)
    comps = [rest[i :: k + 1] for i in range(k + 1)]
    edges = set()
    for comp in comps:
        for i in range(1, len(comp)):
            u, v = comp[rng.randrange(i)], comp[i]
            edges.add((min(u, v), max(u, v)))
        for u, v in itertools.combinations(comp, 2):
            if rng.random() < 0.5 or (u in comp[:3] and v in comp[:3]):
                edges.add((min(u, v), max(u, v)))
        for _ in range(rng.randint(1, 2)):
            edges.add((rng.randrange(k), rng.choice(comp)))
    G = Graph(n, sorted(edges))
    b = [0] * k + [rng.randint(0, 30) for _ in range(n - k)]
    for comp in comps:
        for v in comp:
            b[v] = min(b[v], sum(b[u] for u in G.neighbors(v) if u >= k))
        top = max(comp, key=lambda v: b[v])
        if sum(b[v] for v in comp) % 2 == 0 and b[top]:
            b[top] -= 1
    for _ in range(rng.randint(0, k + 1)):
        b[rng.randrange(k)] += 1
    if sum(b) % 2:
        b[0] += 1
    return G, tuple(b)


def fractionally_feasible(G, b):
    """A perfect b-matching with half-integral multiplicities exists: a
    flow of value sum(b) on the bipartite double cover (networkx)."""
    import networkx as nx

    net = nx.DiGraph()
    for v in range(G.n):
        net.add_edge("s", ("L", v), capacity=b[v])
        net.add_edge(("R", v), "t", capacity=b[v])
    for u, v in G.edges:  # no capacity attribute: unbounded
        net.add_edge(("L", u), ("R", v))
        net.add_edge(("L", v), ("R", u))
    return nx.maximum_flow_value(net, "s", "t") == sum(b)


def neighbourhood(G, X) -> set:
    return {u for v in X for u in G.neighbors(v)}


def transport_reach(G, colors, b):
    """(flow, residual reach of the source) of G's transportation network:
    node v per vertex, source n to side 0, side 1 to sink n + 1, one arc
    per edge, in the order the engine once built it before it flowed on
    one copy of the double cover."""
    n = G.n
    net = ExplicitNetwork(n + 2)
    for v in range(n):
        if colors[v] == 0:
            net.add_arc(n, v, b[v])
    for v in range(n):
        if colors[v] == 1:
            net.add_arc(v, n + 1, b[v])
    for u, v in G.edges:
        net.add_arc(*((v, u) if colors[u] else (u, v)), sum(b) + 1)
    flow, cap = recursive_max_flow(net, n, n + 1)
    return flow, residual_reach(net, cap, n)


class TestCoverCut:
    """_cover_cut against the rules it replaced, on short flows that
    assert_same_flow checks against the textbook method."""

    def test_bipartite_one_copy_matches_the_transport_cut(self):
        # old rule: U = N(reachable side-0 vertices) of the transport network
        rng = random.Random(31)
        short = 0
        for _ in range(400):
            a, c = rng.randint(1, 6), rng.randint(1, 6)
            G, _ = rand_bipartite(rng, a, c, rng.choice((0.2, 0.4, 0.7)))
            colors = bmatch._two_color(G)
            b = tuple(rng.randint(0, 4) for _ in range(G.n))
            flow, reach = transport_reach(G, colors, b)
            if flow == sum(b[v] for v in range(G.n) if colors[v] == 0):
                continue
            net = assert_same_flow(G, b, colors)
            assert sum(net.flow) == flow
            U = _cover_cut(G, net.level)
            assert U == sorted(neighbourhood(G, [v for v in range(G.n) if not colors[v] and reach[v]]))
            violating_set(G, U, b)
            short += 1
        assert short >= 150

    def test_full_cover_matches_x_minus_its_neighbourhood(self):
        # old rule: X = reachable left copies, U = N(X \ N(X)); unit
        # demands are universal_equatable's, the others the engine's
        rng = random.Random(37)
        short = {True: 0, False: 0}
        for _ in range(400):
            n = rng.randint(2, 10)
            G = rand_graph(rng, n, rng.choice((0.15, 0.3, 0.5)))
            unit = rng.random() < 0.5
            b = (1,) * n if unit else tuple(rng.randint(0, 4) for _ in range(n))
            net = assert_same_flow(G, b)
            if sum(net.flow) == sum(b):
                continue
            X = [v for v in range(n) if net.level[v] >= 0]
            U = _cover_cut(G, net.level)
            assert U == sorted(neighbourhood(G, set(X) - neighbourhood(G, X)))
            violating_set(G, U, b)
            short[unit] += 1
        assert min(short.values()) >= 100

    def test_sink_component_matches_x_minus_its_neighbourhood(self):
        # universal_equatable's full-flow rule: X = left copies of the
        # first strong component of the alternating digraph
        rng = random.Random(41)
        cut = 0
        for _ in range(300):
            G = rand_connected(rng, rng.choice((5, 7, 9)), rng.choice((0.1, 0.3)))
            n = G.n
            net = assert_same_flow(G, (1,) * n)
            if sum(net.flow) < n:
                continue
            comp = _sink_component(residual_graph(net), 0)
            if len(comp) == 2 * n:
                continue
            X = [v for v in comp if v < n]
            inside = [0 if v in comp else -1 for v in range(n)]
            assert _cover_cut(G, inside) == sorted(neighbourhood(G, set(X) - neighbourhood(G, X)))
            cut += 1
        assert cut >= 50


class TestGeneralEngine:
    def test_parity_repair_vs_enumeration(self):
        # the instances the double-cover flow passes and parity refutes
        # reach the repair's Gallai-Edmonds certificate
        rng = random.Random(12)
        parity_only = 0
        for _ in range(100):
            G, b = tutte_structured(rng)
            enum = check_tutte_enumeration(G, b)
            out = perfect_bmatching(G, b)
            assert out.feasible == (enum is None)
            if out.feasible:
                assert verify_plan_perfect(G, b, out.plan)
                continue
            assert tutte_deficiency(G, out.witness.U, b) == out.witness.deficiency >= 1
            parity_only += fractionally_feasible(G, b)
        assert parity_only >= 10

    def test_odd_circuit_leaves_start_short(self):
        # C5 on 0..4 and C4 on 5..8, every edge at one half: one circuit
        # each; only the odd one falls short, at its start vertex 0
        G = Graph(9, [(i, (i + 1) % 5) for i in range(5)]
                  + [(5 + i, 5 + (i + 1) % 4) for i in range(4)])
        y = [0] * G.m
        assert _round_circuits(G, [1] * G.m, y) == 1
        got = apply_plan(G, (0,) * G.n, dict(zip(G.edges, y)))
        assert got == (0, 1, 1, 1, 1, 1, 1, 1, 1)
        # two triangles through vertex 0 make one even circuit: exact
        bowtie = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
        y = [0] * bowtie.m
        assert _round_circuits(bowtie, [1] * bowtie.m, y) == 0
        assert apply_plan(bowtie, (0,) * 5, dict(zip(bowtie.edges, y))) == (2, 1, 1, 1, 1)

    def test_near_2p53(self):
        # weights past 2^53 solve exactly: the twin's answer moved by 10^16
        G, w, big = near_2p53_instance()
        twin = equate(G, w)
        res = equate(G, big)
        assert twin.feasible and res.beta == twin.beta + NEAR_OFFSET
        assert is_uniform(apply_plan(G, big, res.plan)) == res.beta

    def test_n320_leaf_certificate(self):
        import time

        rng = random.Random(0)
        G = rand_connected(rng, 320, 0.0094)
        w = tuple(rng.randint(0, 10) for _ in range(320))
        t = time.perf_counter()
        res = equate(G, w)
        assert time.perf_counter() - t < 1.0
        assert not res.feasible and res.reason == "certificate"
        for cert in res.certificates.values():
            # |U| = |I(U)|: the subset violates at every target
            for beta in (max(w), max(w) + 1, G.n * max(w)):
                b = tuple(beta - x for x in w)
                assert tutte_deficiency(G, cert.U, b) == cert.deficiency >= 1


@pytest.fixture
def repair_log(monkeypatch):
    """Per parity repair: its starting k and the copies of each round's
    expansion, recorded by wrapping _repair and _expand."""
    log = []
    repair, expand = BMatchEngine._repair, bmatch._expand

    def logged_repair(self, b, y):
        log.append((sum(b) - 2 * sum(y), []))
        return repair(self, b, y)

    def logged_expand(G, b):
        log[-1][1].append(sum(b))
        return expand(G, b)

    monkeypatch.setattr(BMatchEngine, "_repair", logged_repair)
    monkeypatch.setattr(bmatch, "_expand", logged_expand)
    return log


class TestRepairWindow:
    @pytest.mark.parametrize("t", [80, 200, 400])
    def test_triangle_chain(self, t):
        # k = t odd circuits at b = 2*10^6+1: the repair's expansion must
        # not grow with either
        G, b = triangle_chain(t)
        assert decide_perfect_bmatching(G, b)
        out = perfect_bmatching(G, b)
        assert apply_plan(G, (0,) * G.n, out.plan) == b

    def test_triangle_chain_fast(self):
        import time

        G, b = triangle_chain(40)
        t = time.perf_counter()
        assert perfect_bmatching(G, b).feasible
        assert time.perf_counter() - t < 0.1

    def test_pendant_chain_equate(self):
        G, w = triangle_chain(80, pendant=True)
        res = equate(G, w)
        assert res.beta == CHAIN_TOP
        assert is_uniform(apply_plan(G, w, res.plan)) == CHAIN_TOP

    @pytest.mark.parametrize("t", [4000, 8000])
    def test_chain_past_the_oracle_budgets(self, t):
        # 4m + n and sum(b) are past MAX_SUM_B, which bounds only the
        # expansion oracles: the repair's window is bounded by the graph
        import time

        G, b = triangle_chain(t)
        assert 4 * G.m + G.n > bmatch.MAX_SUM_B and sum(b) > bmatch.MAX_SUM_B
        start = time.perf_counter()
        assert decide_perfect_bmatching(G, b)
        assert time.perf_counter() - start < 2
        start = time.perf_counter()
        out = perfect_bmatching(G, b)
        assert apply_plan(G, (0,) * G.n, out.plan) == b
        assert time.perf_counter() - start < 2
        G, w = triangle_chain(t, pendant=True)
        start = time.perf_counter()
        res = equate(G, w)
        assert res.beta == CHAIN_TOP
        assert is_uniform(apply_plan(G, w, res.plan)) == CHAIN_TOP
        assert time.perf_counter() - start < 2

    def test_one_search_with_many_blossoms(self, monkeypatch):
        # the repair runs one blossom search that contracts about 20,000
        # blossoms; each contraction costs the blossom, not the tree
        import time

        from nodebalance import matching

        searches = []
        find_from = matching._BlossomSearch.find_from

        def counting(self, root):
            searches.append(root)
            return find_from(self, root)

        monkeypatch.setattr(matching._BlossomSearch, "find_from", counting)
        G, w = sparse_planned_instance(16_000)
        start = time.perf_counter()
        res = equate(G, w)
        assert time.perf_counter() - start < 5
        assert len(searches) == 1
        assert is_uniform(apply_plan(G, w, res.plan)) == res.beta

    def test_window_size_ignores_b(self, repair_log):
        # the same rounds and copies at b = 2*10^6+1 and 2*10^15+1,
        # at most 4m + k copies and k/2 + 1 rounds
        logs = []
        for top in (CHAIN_TOP, 2 * 10**15 + 1):
            G, b = triangle_chain(80, top=top)
            repair_log.clear()
            assert perfect_bmatching(G, b).feasible
            logs.append(list(repair_log))
        assert logs[0] == logs[1]
        for k, copies in logs[0]:
            assert k == 80
            assert 1 <= len(copies) <= k // 2 + 1
            assert max(copies) <= 4 * G.m + k

    def test_hub_triangles_vs_enumeration(self, repair_log):
        # only repairs that start at k >= 4 are enumerated; a wrong cut
        # would raise RuntimeError in _cut
        rng = random.Random(0)
        infeasible = multi_round = 0
        for _ in range(3000):
            G, b = hub_triangles(rng)
            repair_log.clear()
            out = perfect_bmatching(G, b)
            if not repair_log or repair_log[-1][0] < 4:
                continue
            k, copies = repair_log[-1]
            assert len(copies) <= k // 2 + 1
            multi_round += len(copies) >= 2
            assert out.feasible == (check_tutte_enumeration(G, b) is None)
            if out.feasible:
                assert verify_plan_perfect(G, b, out.plan)
            else:
                infeasible += 1
                assert tutte_deficiency(G, out.witness.U, b) == out.witness.deficiency >= 1
        assert infeasible >= 20
        assert multi_round >= 10


@st.composite
def graph_and_b(draw):
    n = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    b = tuple(draw(st.integers(0, 4)) for _ in range(n))
    return Graph(n, picked), b


@settings(max_examples=120, deadline=None)
@given(graph_and_b())
def test_outcome_soundness_property(gb):
    G, b = gb
    out = perfect_bmatching(G, b)
    assert (out.plan is None) != (out.witness is None)
    if out.feasible:
        assert verify_plan_perfect(G, b, out.plan)
        assert decide_perfect_bmatching(G, b)
    else:
        vs = out.witness
        assert tutte_deficiency(G, vs.U, b) == vs.deficiency >= 1
        assert isolated_vertices(G, vs.U) == vs.isolated
        assert s_count(G, vs.U, b) == vs.s_count
        assert not decide_perfect_bmatching(G, b)
