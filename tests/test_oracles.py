"""Brute-force reference solvers and their agreement with the real path."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodebalance import (
    BudgetError,
    Graph,
    InstanceError,
    admissible_parities,
    apply_plan,
    equate,
    equate_backtracking,
    is_uniform,
    min_beta_scan,
)
from nodebalance.oracles import MAX_TARGETS
from support import complete_graph, cycle_graph, path_graph, rand_graph

K3 = complete_graph(3)


class TestMinBetaScan:
    def test_examples(self):
        # [DERIVED: scan] / [DERIVED: scan over odd beta] / [TRIVIAL: uniform]
        assert min_beta_scan(K3, (1, 0, 0)) == 1
        assert min_beta_scan(path_graph(3), (0, 1, 0)) is None
        assert min_beta_scan(cycle_graph(5), (2, 2, 2, 2, 2)) == 2

    def test_limit(self):
        G = Graph(21, [(i, i + 1) for i in range(20)])
        with pytest.raises(BudgetError):
            min_beta_scan(G, (1,) + (0,) * 20)
        # uniform input never needs the scan, so no budget applies
        assert min_beta_scan(G, (3,) * 21) == 3

    def test_target_budget(self):
        # P3 with 10^9 in the middle: only even targets are admissible, and
        # [10^9, 3 * 10^9] holds 2 * 10^9 + 1 targets
        with pytest.raises(BudgetError) as ei:
            min_beta_scan(path_graph(3), (0, 10**9, 0))
        assert ei.value.detail == {"targets": 2 * 10**9 + 1, "limit": MAX_TARGETS}
        # the largest range under the budget is still scanned
        top = (MAX_TARGETS - 1) // 2
        assert min_beta_scan(path_graph(3), (0, top, 0)) is None
        with pytest.raises(BudgetError):
            min_beta_scan(path_graph(3), (0, top + 1, 0))
        # no admissible parity, no scan: no budget applies
        assert min_beta_scan(path_graph(2), (0, 10**9 + 1)) is None


class TestBacktracking:
    def test_examples(self):
        # [DERIVED: search x3]
        plan = equate_backtracking(K3, (1, 0, 0), 1)
        assert plan.entries == (((1, 2), 1),)
        assert equate_backtracking(K3, (1, 0, 0), 2) is None  # sum b = 5, odd
        plan = equate_backtracking(cycle_graph(4), (1, 0, 0, 1), 1)
        assert plan.entries == (((1, 2), 1),)

    def test_beta_below_max_weight(self):
        with pytest.raises(InstanceError):
            equate_backtracking(K3, (1, 0, 0), 0)

    def test_edge_budget(self):
        G = complete_graph(6)  # 15 edges
        with pytest.raises(BudgetError) as ei:
            equate_backtracking(G, (0,) * 6, 2)
        assert ei.value.detail["edges"] == 15

    def test_range_budget(self):
        with pytest.raises(BudgetError) as ei:
            equate_backtracking(K3, (0, 0, 0), 14)
        assert ei.value.detail["range"] == 14

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_handshake_parity(self, data):
        n = data.draw(st.integers(2, 5))
        density = data.draw(st.sampled_from((0.3, 0.6, 1.0)))
        seed = data.draw(st.integers(0, 10**6))
        G = rand_graph(random.Random(seed), n, density)
        w = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        beta = data.draw(st.integers(max(w), max(w) + 6))
        if G.m > 12 or beta - min(w) > 12:
            return
        if sum(beta - x for x in w) % 2 == 1:
            assert equate_backtracking(G, tuple(w), beta) is None


def test_three_way_agreement():
    """equate, the scan, and smallest-successful-backtracking all match."""
    rng = random.Random(20)
    done = feas = 0
    while done < 200:
        n = rng.randint(2, 6)
        G = rand_graph(rng, n, rng.choice((0.3, 0.5, 0.8)))
        if G.m > 12:
            continue
        w = tuple(rng.randint(0, 2) for _ in range(n))
        if n * max(w) - min(w) > 12:
            continue
        done += 1
        r = equate(G, w)
        scan = min_beta_scan(G, w)
        assert (r.beta if r.feasible else None) == scan
        # third route: smallest beta where plain backtracking succeeds
        bt = None
        for beta in range(max(w), n * max(w) + 1):
            plan = equate_backtracking(G, w, beta)
            if plan is not None:
                bt = beta
                assert is_uniform(apply_plan(G, w, plan)) == beta
                break
        assert bt == scan
        if r.feasible:
            feas += 1
    assert feas >= 60
