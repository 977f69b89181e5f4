"""Hypergraph equating, the perfect-matching reduction, and its oracle."""

import json
import random
import time

import pytest

from nodebalance import (
    BudgetError,
    Graph,
    Hypergraph,
    IncrementPlan,
    InstanceError,
    apply_plan,
    default_beta_cap,
    equate,
    hyper_equate,
    hyper_perfect_matching,
    is_uniform,
    reduce_pm_to_equate,
)
from nodebalance import hyper
from nodebalance.cli import main
from support import (
    C6_PUZZLE_W,
    cycle_graph,
    hyper_equate_scan,
    rand_graph,
    rand_hypergraph,
)

H0 = Hypergraph(3, [(0, 1, 2)])
H1 = Hypergraph(4, [(0, 1, 2)])  # vertex 3 in no edge


def as_hyper(G: Graph) -> Hypergraph:
    return Hypergraph(G.n, G.edges)


class TestCapAndBudget:
    def test_default_cap(self):
        # [TRIVIAL: n * max w * max size]
        assert default_beta_cap(H0, (1, 1, 1)) == 9
        assert default_beta_cap(Hypergraph(2, []), (5, 5)) == 5

    def test_cap_below_max_weight(self):
        with pytest.raises(InstanceError):
            hyper_equate(H0, (0, 0, 2), beta_cap=1)

    def test_weights_validated_once(self, monkeypatch):
        calls, real = [], hyper.check_weights

        def counted(w, n):
            calls.append(n)
            return real(w, n)

        monkeypatch.setattr(hyper, "check_weights", counted)
        for H, w in ((H0, (0, 1, 2)), (H1, (1, 1, 1, 0)), (H0, (2, 2, 2))):
            calls.clear()
            hyper_equate(H, w)
            assert calls == [H.n]
        calls.clear()
        hyper_equate(H0, (0, 1, 2), beta_cap=5)
        assert calls == [3]

    def test_edge_budget(self):
        H = Hypergraph(18, [(i, i + 1) for i in range(17)])
        with pytest.raises(BudgetError) as ei:
            hyper_equate(H, (1,) + (0,) * 17)
        assert ei.value.detail["edges"] == 17


class TestHyperEquate:
    def test_uniform_short_circuit(self):
        # [TRIVIAL x2: uniform input]
        r = hyper_equate(H0, (0, 0, 0))
        assert r.feasible and r.beta == 0 and r.plan.entries == ()
        r = hyper_equate(H0, (1, 1, 1))
        assert r.beta == 1 and r.plan.total_steps == 0

    def test_star_min_beta_above_max_weight(self):
        # [DERIVED: 2beta - 2 = beta at the center forces beta = 2]
        H = Hypergraph(3, [(0, 1), (0, 2)])
        r = hyper_equate(H, (0, 1, 1))
        assert r.beta == 2
        assert r.plan.entries == ((0, 1), (1, 1))

    def test_beta_cap_reason_then_feasible(self):
        H = Hypergraph(3, [(0, 1), (0, 2)])
        r = hyper_equate(H, (0, 1, 1), beta_cap=1)
        assert not r.feasible and r.reason == "beta_cap" and r.cap == 1
        assert r.to_jsonable(H)["certificate"] == {"type": "beta_cap", "cap": 1}

    def test_no_rational_target(self):
        # single edge covering everything keeps the gap forever, and
        # elimination proves it: no target of any size, whatever the cap
        H = Hypergraph(2, [(0, 1)])
        r = hyper_equate(H, (0, 4), beta_cap=30)
        assert not r.feasible and r.reason == "no_rational_target"
        assert r.to_jsonable(H)["certificate"] == {"type": "no_rational_target"}
        assert hyper._rational_targets(H, (0, 4)) == ()

    def test_divisibility(self):
        # [DERIVED: 6*beta - 1 is never a multiple of 3]
        H = Hypergraph(6, [(0, 1, 2), (3, 4, 5)])
        r = hyper_equate(H, (1, 0, 0, 0, 0, 0))
        assert not r.feasible and r.reason == "divisibility"
        assert r.to_jsonable(H)["certificate"] == {"type": "divisibility"}

    def test_frozen_vertex_conflict(self):
        # [TRIVIAL: two edgeless vertices with different weights]
        r = hyper_equate(Hypergraph(2, []), (0, 1))
        assert r.reason == "frozen_vertex" and r.frozen == 1

    def test_frozen_vertex_below_max(self):
        r = hyper_equate(Hypergraph(3, [(1, 2)]), (0, 2, 2))
        assert r.reason == "frozen_vertex" and r.frozen == 0
        assert r.to_jsonable(Hypergraph(3, [(1, 2)]))["certificate"] == {
            "type": "frozen_vertex",
            "vertex": 0,
        }

    def test_frozen_vertex_pins_feasible_target(self):
        # [DERIVED: hand check]
        r = hyper_equate(Hypergraph(3, [(1, 2)]), (2, 1, 1))
        assert r.beta == 2 and r.plan.entries == ((0, 1),)

    def test_c6_puzzle_agrees_with_graph_route(self):
        # [KNOWN: the box puzzle is not solvable]
        G = cycle_graph(6)
        r = hyper_equate(as_hyper(G), C6_PUZZLE_W)
        assert not r.feasible
        assert not equate(G, C6_PUZZLE_W).feasible

    def test_two_uniform_consistency(self):
        # [DERIVED: graph solver as oracle]
        rng = random.Random(16)
        feas = 0
        for _ in range(120):
            n = rng.randint(2, 6)
            G = rand_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
            if G.m == 0 or G.m > 16:
                continue
            w = tuple(rng.randint(0, 2) for _ in range(n))
            rg = equate(G, w)
            rh = hyper_equate(as_hyper(G), w)
            assert rg.feasible == rh.feasible
            if rg.feasible:
                feas += 1
                assert rg.beta == rh.beta
                got = apply_plan(as_hyper(G), w, rh.plan)
                assert is_uniform(got) == rh.beta
        assert feas >= 20


def seeded_instances(seed: int, count: int):
    """Random hypergraphs with weights 0-3, every third one replaced by
    its perfect-matching reduction; caps from max w to max w + 8, since
    the scan at the default cap takes seconds on infeasible ones."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(2, 7)
        H = rand_hypergraph(rng, n, rng.randint(1, 6), kmax=rng.choice((2, 3, 4)))
        w = tuple(rng.randint(0, 3) for _ in range(n))
        if t % 3 == 0:
            out = reduce_pm_to_equate(H)
            H, w = out.hypergraph, out.weights
        yield H, w, max(w) + rng.randint(0, 8)


# the reduction of the benchmark's cli-mixed hypergraph: no perfect
# matching, so the reduced instance is infeasible at every target
CLI_MIXED_REDUCED = Hypergraph(
    11,
    [(0, 2, 7), (3, 5), (2, 4), (0, 2, 3, 7), (5, 6), (3, 4, 5, 6), (1, 2, 5), (8, 9), (9, 10)],
)
CLI_MIXED_W = (0,) * 8 + (1, 1, 1)


def count_backtracks(monkeypatch) -> list:
    calls = []
    real = hyper._backtrack

    def wrapped(H, w, beta):
        calls.append(beta)
        return real(H, w, beta)

    monkeypatch.setattr(hyper, "_backtrack", wrapped)
    return calls


class TestElimination:
    def test_every_target(self):
        # [DERIVED: the triangle's incidence matrix is invertible]
        assert hyper._rational_targets(Hypergraph(3, [(0, 1), (1, 2), (0, 2)]), (0, 1, 2)) is None

    def test_pinned_target(self):
        # [DERIVED: star center gets x1 + x2 = beta, leaves x_i = beta - 1]
        H = Hypergraph(3, [(0, 1), (0, 2)])
        assert hyper._rational_targets(H, (0, 1, 1)) == (2,)

    def test_no_target(self):
        # [DERIVED: one edge over both vertices keeps their gap of 4]
        assert hyper._rational_targets(Hypergraph(2, [(0, 1)]), (0, 4)) == ()

    def test_fractional_target_is_none(self):
        # [DERIVED: the three leaves force 2*beta = 1]
        H = Hypergraph(4, [(0, 1), (0, 2), (0, 3)])
        assert hyper._rational_targets(H, (0, 1, 0, 0)) == ()

    def test_agrees_with_scan(self):
        # [DERIVED: skipped targets have no rational, hence no integer, plan]
        feasible = 0
        for H, w, cap in seeded_instances(20, 320):
            got = hyper_equate(H, w, cap).to_jsonable(H)
            want = hyper_equate_scan(H, w, cap).to_jsonable(H)
            if got["certificate"] == {"type": "no_rational_target"}:
                # the scan, which has no elimination, finds nothing either
                assert hyper._rational_targets(H, w) == ()
                assert not want["equatable"]
            else:
                assert got == want
            feasible += got["equatable"]
        assert feasible >= 40

    def test_every_plan_target_is_admitted(self):
        for H, w, cap in seeded_instances(21, 150):
            targets = hyper._rational_targets(H, w)
            for beta in range(max(w), cap + 1):
                if hyper._backtrack(H, w, beta) is not None:
                    assert targets is None or beta in targets

    def test_reduction_pins_one(self):
        # [KNOWN: the gadget forces beta = 1]
        rng = random.Random(22)
        for _ in range(100):
            n = rng.randint(0, 8)
            H = rand_hypergraph(rng, n, rng.randint(1, 6)) if n >= 2 else Hypergraph(n, [])
            out = reduce_pm_to_equate(H)
            targets = hyper._rational_targets(out.hypergraph, out.weights)
            assert targets is not None and set(targets) <= {1}


class TestEliminationRegressions:
    def test_cli_mixed_reduced_one_search(self, monkeypatch):
        calls = count_backtracks(monkeypatch)
        r = hyper_equate(CLI_MIXED_REDUCED, CLI_MIXED_W)
        assert calls == [1]
        assert r.reason == "beta_cap" and r.cap == 44

    def test_huge_cap_on_reduced_instance(self, monkeypatch):
        calls = count_backtracks(monkeypatch)
        r = hyper_equate(CLI_MIXED_REDUCED, CLI_MIXED_W, beta_cap=10**12)
        assert calls == [1]
        assert r.reason == "beta_cap" and r.cap == 10**12

    def test_huge_weight_needs_no_candidate_list(self):
        # [DERIVED: 3*beta - 10**16 is never a multiple of 3]
        r = hyper_equate(H0, (0, 0, 10**16))
        assert r.reason == "divisibility" and r.cap == 9 * 10**16

    def test_huge_weight_through_cli(self, tmp_path, capfd):
        path = tmp_path / "huge.txt"
        path.write_text(f"graph 3\nh 0 1 2\nw 2 {10**16}\n")
        rc = main(["hyper-equate", str(path)])
        out, _ = capfd.readouterr()
        assert rc == 0
        doc, end = json.JSONDecoder().raw_decode(out)
        assert out[end:].strip() == ""
        assert doc["certificate"] == {"type": "divisibility"}


class TestParallelEdges:
    def test_copies_cost_no_search(self):
        # five copies of the triple once took over a second of backtracking
        w = (2, 1, 3)
        H = Hypergraph(3, [(0, 1, 2)] * 5 + [(0, 2), (1, 2)])
        once = hyper_equate(Hypergraph(3, [(0, 1, 2), (0, 2), (1, 2)]), w)
        start = time.perf_counter()
        r = hyper_equate(H, w)
        assert time.perf_counter() - start < 0.05
        assert r.reason == once.reason == "beta_cap"

    def test_plan_keys_the_lowest_copy(self):
        # [DERIVED: x02 = beta - 1 and x01 = beta at vertex 1 force beta = 1]
        H = Hypergraph(3, [(0, 2), (0, 1), (0, 1)])
        r = hyper_equate(H, (0, 0, 1))
        assert r.beta == 1 and r.plan.entries == ((1, 1),)
        assert apply_plan(H, (0, 0, 1), r.plan) == (1, 1, 1)

    def test_budget_counts_copies(self):
        with pytest.raises(BudgetError):
            hyper_equate(Hypergraph(2, [(0, 1)] * 17), (0, 1))


class TestReduction:
    def test_h0_shape(self):
        # [KNOWN: gadget adds p,q,r with weight 1 and edges {p,q},{q,r}]
        out = reduce_pm_to_equate(H0)
        assert out.hypergraph.n == 6 and out.hypergraph.m == 3
        assert out.hypergraph.edges == ((0, 1, 2), (3, 4), (4, 5))
        assert out.weights == (0, 0, 0, 1, 1, 1)
        assert out.new_vertex_ids == (3, 4, 5)

    def test_h0_equates_with_gadget_unused(self):
        # [DERIVED: exhaustive search]
        out = reduce_pm_to_equate(H0)
        r = hyper_equate(out.hypergraph, out.weights, beta_cap=3)
        assert r.beta == 1
        assert r.plan.entries == ((0, 1),)  # original edge once, gadget idle

    def test_h1_infeasible(self):
        # [DERIVED: weight of the uncovered vertex is frozen at 0]
        out = reduce_pm_to_equate(H1)
        r = hyper_equate(out.hypergraph, out.weights, beta_cap=3)
        assert not r.feasible and r.reason == "frozen_vertex" and r.frozen == 3

    def test_empty_hypergraph(self):
        # [DERIVED: vacuous perfect matching, already uniform at 1]
        out = reduce_pm_to_equate(Hypergraph(0, []))
        assert out.hypergraph.n == 3 and out.hypergraph.m == 2
        assert out.weights == (1, 1, 1)
        r = hyper_equate(out.hypergraph, out.weights, beta_cap=3)
        assert r.beta == 1 and r.plan.total_steps == 0

    def test_correctness_sample(self):
        # decision agreement plus plan/matching correspondence
        rng = random.Random(17)
        hits = 0
        for _ in range(80):
            n = rng.randint(2, 8)
            H = rand_hypergraph(rng, n, rng.randint(1, 6))
            out = reduce_pm_to_equate(H)
            r = hyper_equate(out.hypergraph, out.weights, beta_cap=3)
            pm = hyper_perfect_matching(H)
            assert r.feasible == (pm is not None)
            if pm is None:
                continue
            hits += 1
            assert r.beta == 1
            support = {i for i, _ in r.plan.items()}
            assert all(i < H.m for i in support)  # gadget multiplicities zero
            covered = sorted(v for i in support for v in H.edges[i])
            assert covered == list(range(H.n))
            assert all(c == 1 for _, c in r.plan.items())
        assert hits >= 10


class TestPerfectMatchingOracle:
    def test_examples(self):
        # [TRIVIAL x3]
        assert hyper_perfect_matching(H0) == (0,)
        assert hyper_perfect_matching(H1) is None
        assert hyper_perfect_matching(Hypergraph(3, [(0, 1, 2)])) == (0,)

    def test_tiny(self):
        assert hyper_perfect_matching(Hypergraph(0, [])) == ()
        assert hyper_perfect_matching(Hypergraph(1, [])) is None

    def test_c6(self):
        got = hyper_perfect_matching(as_hyper(cycle_graph(6)))
        assert got is not None
        covered = sorted(v for i in got for v in cycle_graph(6).edges[i])
        assert covered == [0, 1, 2, 3, 4, 5]

    def test_limit(self):
        with pytest.raises(BudgetError):
            hyper_perfect_matching(Hypergraph(25, []))

    def test_against_brute_force(self):
        from itertools import combinations

        def brute(H):
            for k in range(H.m + 1):
                for idx in combinations(range(H.m), k):
                    seen = [v for i in idx for v in H.edges[i]]
                    if len(seen) == H.n and len(set(seen)) == H.n:
                        return idx
            return None

        rng = random.Random(18)
        found = 0
        for _ in range(150):
            n = rng.randint(2, 8)
            H = rand_hypergraph(rng, n, rng.randint(1, 7))
            got = hyper_perfect_matching(H)
            ref = brute(H)
            assert (got is None) == (ref is None)
            if got is not None:
                found += 1
                covered = sorted(v for i in got for v in H.edges[i])
                assert covered == list(range(n))
        assert found >= 15


def test_plan_replay_property():
    # feasible results replay to the uniform target on the hypergraph
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(2, 6)
        H = rand_hypergraph(rng, n, rng.randint(1, 5), kmax=3)
        w = tuple(rng.randint(0, 2) for _ in range(n))
        r = hyper_equate(H, w, beta_cap=8)
        if r.feasible:
            assert is_uniform(apply_plan(H, w, r.plan)) == r.beta
            assert sum(len(H.edges[i]) * c for i, c in r.plan.items()) == (
                H.n * r.beta - sum(w)
            )
