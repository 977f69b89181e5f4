"""Contract of the package's value types: equality, hashing, immutability,
repr, pickling and validation, the same for every one of them."""

import copy
import inspect
import pickle

import pytest

from nodebalance import (
    BMatchOutcome,
    Bipartition,
    EquateResult,
    Graph,
    HallVerdict,
    HyperEquateResult,
    Hypergraph,
    IncrementPlan,
    InstanceError,
    ReductionOutput,
    UniversalVerdict,
    ViolatingSet,
)
from nodebalance.equate import BoundCase, ParityOutcome


def _plan():
    return IncrementPlan({(1, 0): 2})


def _vs():
    return ViolatingSet((1,), (0, 2), 0, 1)


# (make an instance, make an unequal one of the same class, its repr); each
# call of make builds a fresh, equal value
CASES = {
    "Graph": (
        lambda: Graph(3, [(1, 0), (1, 2)]),
        lambda: Graph(3, [(0, 1)]),
        "Graph(n=3, edges=((0, 1), (1, 2)))",
    ),
    "Hypergraph": (
        lambda: Hypergraph(3, [(2, 0, 1), (1,)]),
        lambda: Hypergraph(3, [(1,), (2, 0, 1)]),
        "Hypergraph(n=3, edges=((0, 1, 2), (1,)))",
    ),
    "IncrementPlan": (
        _plan,
        lambda: IncrementPlan({(0, 1): 3}),
        "IncrementPlan(entries=(((0, 1), 2),))",
    ),
    "ViolatingSet": (
        _vs,
        lambda: ViolatingSet((1,), (0, 2), 0, 2),
        "ViolatingSet(U=(1,), isolated=(0, 2), s_count=0, deficiency=1)",
    ),
    "BMatchOutcome": (
        lambda: BMatchOutcome(witness=_vs()),
        lambda: BMatchOutcome(plan=_plan()),
        "BMatchOutcome(plan=None, witness=ViolatingSet(U=(1,), isolated=(0, 2),"
        " s_count=0, deficiency=1))",
    ),
    "UniversalVerdict": (
        lambda: UniversalVerdict(False, "isolated_condition", (1,)),
        lambda: UniversalVerdict(True),
        "UniversalVerdict(verdict=False, reason='isolated_condition', witness=(1,))",
    ),
    "Bipartition": (
        lambda: Bipartition((2, 0), (1,)),
        lambda: Bipartition((1,), (0, 2)),
        "Bipartition(left=(0, 2), right=(1,))",
    ),
    "HallVerdict": (
        lambda: HallVerdict(False, (0,)),
        lambda: HallVerdict(True),
        "HallVerdict(verdict=False, witness=(0,))",
    ),
    "BoundCase": (
        lambda: BoundCase("never"),
        lambda: BoundCase("at_least", 4),
        "BoundCase(kind='never', beta=None)",
    ),
    "ParityOutcome": (
        lambda: ParityOutcome(2, _plan(), None),
        lambda: ParityOutcome(certificate=_vs()),
        "ParityOutcome(beta=2, plan=IncrementPlan(entries=(((0, 1), 2),)), certificate=None)",
    ),
    "EquateResult": (
        lambda: EquateResult(reason="certificate", certificates={"even": _vs()}),
        lambda: EquateResult(beta=2, plan=_plan()),
        "EquateResult(beta=None, plan=None, reason='certificate', certificates={'even':"
        " ViolatingSet(U=(1,), isolated=(0, 2), s_count=0, deficiency=1)})",
    ),
    "HyperEquateResult": (
        lambda: HyperEquateResult(5, reason="frozen_vertex", frozen=2),
        lambda: HyperEquateResult(5, reason="beta_cap"),
        "HyperEquateResult(cap=5, beta=None, plan=None, reason='frozen_vertex', frozen=2)",
    ),
    "ReductionOutput": (
        lambda: ReductionOutput(Hypergraph(4, [(0, 1)]), (0, 1, 1, 1), (1, 2, 3)),
        lambda: ReductionOutput(Hypergraph(4, [(0, 1)]), (0, 1, 1, 1), (3, 2, 1)),
        "ReductionOutput(hypergraph=Hypergraph(n=4, edges=((0, 1),)),"
        " weights=(0, 1, 1, 1), new_vertex_ids=(1, 2, 3))",
    ),
}

cases = pytest.mark.parametrize("name", list(CASES))


@cases
def test_value_equality(name):
    make, make_other, _ = CASES[name]
    a = make()
    assert a == make() and not a != make()
    assert a != make_other() and not a == make_other()


@cases
def test_no_equality_across_classes(name):
    make, _, _ = CASES[name]
    a = make()
    sub = type("Sub", (type(a),), {})
    b = sub.__new__(sub)
    b.__dict__.update(vars(a))
    assert a.__eq__(b) is NotImplemented
    assert a != b and b != a
    assert all(a != other() for key, (other, _, _) in CASES.items() if key != name)


@cases
def test_hash(name):
    make, _, _ = CASES[name]
    if name == "EquateResult":
        # it holds a dict of certificates, so it is unhashable
        with pytest.raises(TypeError):
            hash(make())
        with pytest.raises(TypeError):
            hash(EquateResult(beta=1, plan=_plan()))
    else:
        assert hash(make()) == hash(make())


@cases
def test_immutable(name):
    make, _, _ = CASES[name]
    a = make()
    field = next(iter(vars(a)))
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == make()


@cases
def test_repr(name):
    make, _, text = CASES[name]
    assert repr(make()) == text


@cases
def test_pickle_and_deepcopy(name):
    make, _, _ = CASES[name]
    a = make()
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(b) is type(a) and b == a and repr(b) == repr(a)


def test_derived_index_survives_copies():
    G = Graph(3, [(1, 0), (1, 2)])
    H = Hypergraph(3, [(2, 0, 1), (1,)])
    for g in (pickle.loads(pickle.dumps(G)), copy.deepcopy(G)):
        assert g.neighbors(1) == (0, 2) and g.has_edge(2, 1)
    for h in (pickle.loads(pickle.dumps(H)), copy.deepcopy(H)):
        assert h.incident(1) == (0, 1)


def test_keyword_construction():
    r = HyperEquateResult(7, reason="frozen_vertex", frozen=1)
    assert (r.cap, r.beta, r.plan, r.reason, r.frozen) == (7, None, None, "frozen_vertex", 1)
    assert r == HyperEquateResult(cap=7, beta=None, plan=None, reason="frozen_vertex", frozen=1)
    assert not r.feasible
    e = EquateResult()
    assert (e.beta, e.plan, e.reason, e.certificates) == (None, None, None, {})
    # each result gets its own certificate map
    assert e.certificates is not EquateResult().certificates
    assert Graph(2) == Graph(n=2, edges=())
    assert IncrementPlan() == IncrementPlan.empty() == IncrementPlan(entries={})
    assert BoundCase(kind="at_most", beta=3) == BoundCase("at_most", 3)


# the constructors _Value compiles from the annotations: one parameter per
# field, in order, with the class attribute as its default
SIGNATURES = {
    ViolatingSet: "(U, isolated, s_count, deficiency)",
    UniversalVerdict: "(verdict, reason=None, witness=None)",
    HallVerdict: "(verdict, witness=None)",
    BoundCase: "(kind, beta=None)",
    ParityOutcome: "(beta=None, plan=None, certificate=None)",
    HyperEquateResult: "(cap, beta=None, plan=None, reason=None, frozen=None)",
    ReductionOutput: "(hypergraph, weights, new_vertex_ids)",
}


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_generated_constructor(cls):
    assert str(inspect.signature(cls)) == SIGNATURES[cls]
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    params = inspect.signature(cls).parameters.values()
    assert cls._fields == tuple(p.name for p in params)
    required = [p.name for p in params if p.default is p.empty]
    if required:
        with pytest.raises(TypeError, match=f"missing .*'{required[-1]}'"):
            cls(*(None,) * (len(required) - 1))
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'"):
        cls(*(None,) * len(required), colour=1)


def test_validation_errors():
    with pytest.raises(InstanceError, match="duplicate edge"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InstanceError, match="overlap"):
        Bipartition((0, 1), (1, 2))
    with pytest.raises(InstanceError, match="exactly one"):
        BMatchOutcome()
    with pytest.raises(InstanceError, match="exactly one"):
        BMatchOutcome(plan=_plan(), witness=_vs())
