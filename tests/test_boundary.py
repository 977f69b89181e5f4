"""Public functions validate their inputs at the API boundary, and the
trusted bodies behind them rely on what that boundary guarantees."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nodebalance import (
    Bipartition,
    Graph,
    Hypergraph,
    IncrementPlan,
    InstanceError,
    admissible_parities,
    bipartition,
    check_tutte_enumeration,
    constraint_bound,
    equate,
    equate_backtracking,
    hall_witness_assignment,
    hyper_equate,
    is_balanced,
    isolated_vertices,
    min_beta_for_parity,
    s_count,
    strict_hall,
    tutte_deficiency,
    verify_plan_perfect,
    violating_set,
)
from nodebalance.bmatch import BMatchEngine
from support import path_graph, rand_graph

P3 = path_graph(3)

# each is wrong for a 3-vertex host in exactly one way; 1.0 compares equal
# to an int, so only a type check rejects it
BAD_VECTORS = {
    "wrong_length": (1, 0),
    "negative": (1, -1, 1),
    "bool": (1, True, 1),
    "non_int": (1, 1.0, 1),
}

VECTOR_TAKERS = {
    "s_count": lambda x: s_count(P3, {1}, x),
    "tutte_deficiency": lambda x: tutte_deficiency(P3, {1}, x),
    "violating_set": lambda x: violating_set(P3, {1}, x),
    "check_tutte_enumeration": lambda x: check_tutte_enumeration(P3, x),
    "verify_plan_perfect": lambda x: verify_plan_perfect(P3, x, IncrementPlan.empty()),
    "admissible_parities": lambda x: admissible_parities(P3, x),
    "min_beta_for_parity": lambda x: min_beta_for_parity(P3, x, "even"),
    "equate": lambda x: equate(P3, x),
    "is_balanced": lambda x: is_balanced(x, bipartition(P3)),
}


@pytest.mark.parametrize("bad", sorted(BAD_VECTORS))
@pytest.mark.parametrize("fn", sorted(VECTOR_TAKERS))
def test_bad_vector_rejected(fn, bad):
    with pytest.raises(InstanceError):
        VECTOR_TAKERS[fn](BAD_VECTORS[bad])


# the vertex subset U is the vector isolated_vertices takes; a subset has
# no fixed length, so the other cases apply.  True and 1.0 equal vertex 1,
# so only a type check rejects them as a bipartition side
BAD_SUBSETS = {"negative": {-1}, "bool": {True}, "non_int": {1.0}, "str": {"1"}}

SUBSET_TAKERS = {
    "isolated_vertices": lambda U: isolated_vertices(P3, U),
    "s_count": lambda U: s_count(P3, U, (1, 0, 1)),
    "tutte_deficiency": lambda U: tutte_deficiency(P3, U, (1, 0, 1)),
    "violating_set": lambda U: violating_set(P3, U, (1, 0, 1)),
    "Bipartition": lambda U: strict_hall(P3, Bipartition([0, 2], U)),
    "hall_witness_assignment": lambda U: hall_witness_assignment(P3, bipartition(P3), U),
}


@pytest.mark.parametrize("bad", sorted(BAD_SUBSETS))
@pytest.mark.parametrize("fn", sorted(SUBSET_TAKERS))
def test_bad_subset_rejected(fn, bad):
    with pytest.raises(InstanceError):
        SUBSET_TAKERS[fn](BAD_SUBSETS[bad])


@pytest.mark.parametrize(
    "call",
    [
        lambda: Bipartition([0, "x"], [1]),
        lambda: hall_witness_assignment(P3, bipartition(P3), [0.0]),
    ],
    ids=["str_beside_int", "float_witness"],
)
def test_vertex_id_type_checked_before_use(call):
    # the table's subsets stand alone; mixed with ints, a str side used to
    # escape from sorting as TypeError, and a float witness X properly
    # inside a side from indexing the adjacency
    with pytest.raises(InstanceError, match="vertex id"):
        call()


@pytest.mark.parametrize(
    "left, right, v", [([0, 1, 1], [2, 3], 1), ([0, 1], [3, 2, 3], 3)], ids=["left", "right"]
)
def test_repeated_bipartition_vertex_rejected(left, right, v):
    # a repeated id used to pass: strict_hall on K_{2,2} then named the
    # whole left side as its witness, and is_balanced miscounted the
    # vertices instead of naming the repeat
    with pytest.raises(InstanceError, match=f"vertex {v} is listed twice"):
        Bipartition(left, right)


# a bool would pass for 1, and "9" and 2.5 would escape as TypeError
BAD_INTS = {"bool": True, "float": 2.5, "str": "9"}

INT_TAKERS = {
    "Graph": lambda x: Graph(x),
    "Hypergraph": lambda x: Hypergraph(x),
    "hyper_equate": lambda x: hyper_equate(Hypergraph(2, [(0, 1)]), (0, 1), beta_cap=x),
    "equate_backtracking": lambda x: equate_backtracking(P3, (0, 1, 0), x),
}


@pytest.mark.parametrize("bad", sorted(BAD_INTS))
@pytest.mark.parametrize("fn", sorted(INT_TAKERS))
def test_bad_int_rejected(fn, bad):
    with pytest.raises(InstanceError):
        INT_TAKERS[fn](BAD_INTS[bad])


# a graph edge, a graph plan key and a plan entry are pairs; a bare int
# is a hyperedge index as a plan key, so only Graph takes one as a key
NOT_PAIRS = {
    "edge_triple": lambda: Graph(3, [(0, 1, 2)]),
    "edge_single": lambda: Graph(3, [(0,)]),
    "edge_int": lambda: Graph(3, [5]),
    "plan_key_triple": lambda: IncrementPlan([((0, 1, 2), 1)]),
    "plan_key_single": lambda: IncrementPlan([((0,), 1)]),
    "plan_key_not_ints": lambda: IncrementPlan([((0, "1"), 1)]),
    "plan_entry_int": lambda: IncrementPlan([5]),
    "plan_entry_single": lambda: IncrementPlan([((0, 1),)]),
}


@pytest.mark.parametrize("case", sorted(NOT_PAIRS))
def test_not_a_pair_rejected(case):
    with pytest.raises(InstanceError):
        NOT_PAIRS[case]()


def _cuts_past(G, w, beta, parity):
    """True when decide at beta is feasible, or its certificate's
    constraint on beta excludes beta and everything on one side of it."""
    out = BMatchEngine(G).decide(tuple(beta - x for x in w))
    if out.feasible:
        return True
    cert = out.witness
    case = constraint_bound(
        len(cert.U),
        len(cert.isolated),
        sum(w[v] for v in cert.U),
        sum(w[v] for v in cert.isolated),
        cert.s_count,
        parity,
    )
    return (
        case.kind == "never"
        or (case.kind == "at_least" and case.beta > beta)
        or (case.kind == "at_most" and case.beta < beta)
    )


@st.composite
def probe_case(draw):
    # small general graphs (double-cover route when there is an odd
    # cycle) or bipartite graphs with up to 13 vertices a side (flow route)
    if draw(st.booleans()):
        n = draw(st.integers(2, 9))
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    else:
        a, c = draw(st.integers(1, 13)), draw(st.integers(1, 13))
        n = a + c
        pairs = [(u, a + v) for u in range(a) for v in range(c)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=60))
    w = tuple(draw(st.integers(0, 5)) for _ in range(n))
    return Graph(n, edges), w, draw(st.integers(0, 2 * n))


@settings(max_examples=150, deadline=None)
@given(probe_case())
def test_decide_certificate_cuts_past_probe(case):
    G, w, lift = case
    parities = admissible_parities(G, w)
    assume(parities)
    for parity in parities:
        beta = max(w) + lift
        if beta % 2 != (parity == "odd"):
            beta += 1
        assert _cuts_past(G, w, beta, parity)


def test_decide_certificate_cuts_past_probe_larger_odd_cycle():
    # graphs with an odd cycle, larger than the drawn cases, flow on the
    # whole double cover and go on to its rounding and parity repair
    rng = random.Random(12)
    checked = 0
    while checked < 12:
        n = rng.randint(10, 12)
        G = rand_graph(rng, n, 0.3)
        if bipartition(G) is not None:
            continue
        w = tuple(rng.randint(0, 4) for _ in range(n))
        for parity in admissible_parities(G, w):
            beta = max(w) + rng.randint(0, n)
            if beta % 2 != (parity == "odd"):
                beta += 1
            assert _cuts_past(G, w, beta, parity)
        checked += 1
