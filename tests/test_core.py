"""Data model, instance format, and plan replay."""

import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodebalance import (
    Graph,
    Hypergraph,
    IncrementPlan,
    InstanceError,
    ParseError,
    apply_plan,
    is_uniform,
    parse_instance,
    serialize_instance,
)
from support import C6_PUZZLE_W, complete_graph, cycle_graph, path_graph

K3_TEXT = "graph 3\ne 0 1\ne 1 2\ne 0 2\nw 0 1\n"
C6_TEXT = "graph 6\n" + "".join(f"e {i} {(i + 1) % 6}\n" for i in range(6)) + "".join(
    f"w {i} {i + 1}\n" for i in range(6)
)


class TestGraphType:
    def test_normalizes_and_sorts_edges(self):
        G = Graph(3, [(2, 1), (1, 0)])
        assert G.edges == ((0, 1), (1, 2))
        assert G.m == 2
        assert G.neighbors(1) == (0, 2)
        assert G.degree(1) == 2
        assert G.incident(0) == ((0, 1),)
        assert G.has_edge(1, 0) and not G.has_edge(0, 2)

    def test_rejects_self_loop(self):
        with pytest.raises(InstanceError):
            Graph(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InstanceError):
            Graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InstanceError):
            Graph(2, [(0, 2)])

    def test_empty_graph_ok(self):
        assert Graph(0, []).m == 0
        assert Graph(1, []).n == 1


class TestHypergraphType:
    def test_members_sorted_file_order_kept(self):
        H = Hypergraph(4, [(3, 1), (0, 2, 1)])
        assert H.edges == ((1, 3), (0, 1, 2))
        assert H.incident(1) == (0, 1)

    def test_duplicate_hyperedges_allowed(self):
        H = Hypergraph(3, [(0, 1), (0, 1)])
        assert H.m == 2

    def test_singleton_edge_allowed(self):
        assert Hypergraph(2, [(1,)]).edges == ((1,),)

    def test_rejects_repeated_member(self):
        with pytest.raises(InstanceError):
            Hypergraph(3, [(0, 0, 1)])


class TestParse:
    def test_k3_example(self):
        # [TRIVIAL: direct transcription]
        G, w = parse_instance(K3_TEXT)
        assert isinstance(G, Graph)
        assert G.n == 3 and G.edges == ((0, 1), (0, 2), (1, 2))
        assert w == (1, 0, 0)

    def test_c6_puzzle_instance(self):
        # [KNOWN: six boxes in a cycle, weights 1..6]
        G, w = parse_instance(C6_TEXT)
        assert G == cycle_graph(6)
        assert w == C6_PUZZLE_W

    def test_self_loop_rejected_with_line(self):
        # [TRIVIAL: invariant violation]
        with pytest.raises(ParseError) as exc:
            parse_instance("graph 2\ne 0 0\n")
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)

    def test_comments_and_blanks_skipped(self):
        G, w = parse_instance("# hi\n\ngraph 2\n# mid\ne 0 1\n")
        assert G.edges == ((0, 1),)

    def test_weights_default_zero(self):
        _, w = parse_instance("graph 3\ne 0 1\nw 2 7\n")
        assert w == (0, 0, 7)

    def test_h_lines_give_hypergraph(self):
        H, w = parse_instance("graph 3\nh 0 1 2\n")
        assert isinstance(H, Hypergraph)
        assert H.edges == ((0, 1, 2),)

    def test_mixed_e_and_h_keeps_file_order(self):
        H, _ = parse_instance("graph 4\ne 2 3\nh 0 1 2\ne 0 1\n")
        assert isinstance(H, Hypergraph)
        assert H.edges == ((2, 3), (0, 1, 2), (0, 1))

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("e 0 1\n", 1),  # header missing
            ("graph 2\ngraph 2\n", 2),
            ("graph 2\ne 0\n", 2),
            ("graph 2\ne 0 5\n", 2),
            ("graph 2\ne 0 1\ne 1 0\n", 3),
            ("graph 2\nw 0 1\nw 0 2\n", 3),
            ("graph 2\nw 0 -1\n", 2),
            ("graph 2\nw 5 1\n", 2),
            ("graph 2\nh\n", 2),
            ("graph 3\nh 0 0 1\n", 2),
            ("graph 2\nz 0 1\n", 2),
            ("graph -1\n", 1),
            ("graph x\n", 1),
            ("graph 2\nw 0 1_0\n", 2),  # int() would read 10
            ("graph 2\nw 1 \u0663\n", 2),  # Arabic-Indic three
            ("graph 2\ne 0 \uff11\n", 2),  # fullwidth one
            ("graph \u0662\n", 1),
            ("graph 2\nw 0 +\n", 2),
            ("graph 2\nw 0 --1\n", 2),
            ("graph 3\nh 0 1 0x2\n", 2),
        ],
    )
    def test_malformed_lines(self, text, lineno):
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.line == lineno

    def test_empty_text_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("")

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-string digit limit"
    )
    def test_past_the_int_string_digit_limit(self):
        # under the default limit of 4300 digits a longer number is bad
        # input like any other: ParseError with its line, not ValueError
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            _, w = parse_instance("graph 1\nw 0 " + "9" * 4300)
            assert w == (10**4300 - 1,)
            with pytest.raises(ParseError) as exc:
                parse_instance("graph 1\nw 0 " + "9" * 4301)
        finally:
            sys.set_int_max_str_digits(saved)
        assert exc.value.line == 2 and "digit limit" in str(exc.value)


class TestPlan:
    def test_canonical_order_and_merge(self):
        p = IncrementPlan([((1, 2), 1), ((0, 1), 2), ((1, 2), 3)])
        assert p.entries == (((0, 1), 2), ((1, 2), 4))
        assert p.total_steps == 6
        assert bool(p)

    def test_zero_entries_dropped(self):
        assert IncrementPlan([((0, 1), 0)]).entries == ()
        assert not IncrementPlan.empty()

    def test_negative_rejected(self):
        with pytest.raises(InstanceError):
            IncrementPlan([((0, 1), -1)])

    def test_mixed_key_kinds_rejected(self):
        with pytest.raises(InstanceError):
            IncrementPlan([((0, 1), 1), (0, 1)])

    def test_merged(self):
        p = IncrementPlan([((0, 1), 1)])
        q = IncrementPlan([((0, 1), 2), ((1, 2), 1)])
        assert p.merged(q).entries == (((0, 1), 3), ((1, 2), 1))

    def test_hyper_index_keys_sorted(self):
        p = IncrementPlan([(2, 1), (0, 4)])
        assert p.entries == ((0, 4), (2, 1))

    def test_jsonable_sorted_by_vertex_list(self):
        G = Graph(3, [(0, 1), (1, 2), (0, 2)])
        p = IncrementPlan([((1, 2), 1), ((0, 2), 2)])
        assert p.to_jsonable(G) == [
            {"edge": [0, 2], "count": 2},
            {"edge": [1, 2], "count": 1},
        ]


class TestApplyPlan:
    def test_k3_single_step(self):
        # [TRIVIAL: single step by definition]
        G = complete_graph(3)
        assert apply_plan(G, (1, 0, 0), IncrementPlan([((1, 2), 1)])) == (1, 1, 1)

    def test_empty_plan_identity(self):
        # [TRIVIAL: identity case]
        G = complete_graph(3)
        assert apply_plan(G, (4, 5, 6), IncrementPlan.empty()) == (4, 5, 6)

    def test_c6_double_step(self):
        # [TRIVIAL: two steps on one edge]
        G = cycle_graph(6)
        got = apply_plan(G, C6_PUZZLE_W, IncrementPlan([((0, 1), 2)]))
        assert got == (3, 4, 3, 4, 5, 6)

    def test_hyperedge_replay_by_index(self):
        H = Hypergraph(4, [(0, 1, 2), (2, 3)])
        got = apply_plan(H, (0, 0, 0, 0), IncrementPlan([(0, 2), (1, 1)]))
        assert got == (2, 2, 3, 1)

    def test_unknown_edge_rejected(self):
        G = path_graph(3)
        with pytest.raises(InstanceError):
            apply_plan(G, (0, 0, 0), IncrementPlan([((0, 2), 1)]))

    def test_hyper_index_out_of_range(self):
        H = Hypergraph(2, [(0, 1)])
        with pytest.raises(InstanceError):
            apply_plan(H, (0, 0), IncrementPlan([(1, 1)]))


class TestIsUniform:
    def test_examples(self):
        # [TRIVIAL x3]
        assert is_uniform((5, 5, 5)) == 5
        assert is_uniform((1, 0, 0)) is None
        assert is_uniform(()) == 0


# ---------------------------------------------------------------- properties


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, picked)


@st.composite
def graph_plan_pairs(draw):
    G = draw(graphs())
    if G.m == 0:
        return G, IncrementPlan.empty(), IncrementPlan.empty()
    counts = draw(st.lists(st.integers(0, 3), min_size=G.m, max_size=G.m))
    counts2 = draw(st.lists(st.integers(0, 3), min_size=G.m, max_size=G.m))
    p = IncrementPlan(zip(G.edges, counts))
    q = IncrementPlan(zip(G.edges, counts2))
    return G, p, q


@settings(max_examples=150, deadline=None)
@given(graph_plan_pairs())
def test_replay_adds_two_per_step(gpq):
    G, p, _ = gpq
    w = tuple(range(G.n))
    out = apply_plan(G, w, p)
    assert sum(out) - sum(w) == 2 * p.total_steps


@settings(max_examples=150, deadline=None)
@given(graph_plan_pairs())
def test_replay_commutes_with_merge(gpq):
    G, p, q = gpq
    w = tuple(v % 3 for v in range(G.n))
    assert apply_plan(G, apply_plan(G, w, p), q) == apply_plan(G, w, p.merged(q))


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_parse_serialize_round_trip(G, data):
    w = tuple(data.draw(st.integers(0, 5)) for _ in range(G.n))
    host2, w2 = parse_instance(serialize_instance(G, w))
    assert host2 == G and w2 == w


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.data())
def test_hyper_round_trip(n, data):
    # m >= 1: an edgeless instance re-parses as a plain graph by design
    m = data.draw(st.integers(1, 4))
    edges = []
    for _ in range(m):
        k = data.draw(st.integers(1, n))
        edges.append(tuple(sorted(data.draw(st.permutations(range(n)))[:k])))
    H = Hypergraph(n, edges)
    w = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
    host2, w2 = parse_instance(serialize_instance(H, w))
    assert isinstance(host2, Hypergraph) and host2 == H and w2 == w
