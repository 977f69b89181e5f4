"""Minimum uniform target: parity analysis, bound classification, search."""

import importlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodebalance import (
    Graph,
    InstanceError,
    IncrementPlan,
    apply_plan,
    check_tutte_enumeration,
    equate,
    is_uniform,
    min_beta_scan,
    violating_set,
)
from nodebalance.bmatch import BMatchEngine, _tutte_terms
from nodebalance.equate import (
    PARITIES,
    BoundCase,
    admissible_parities,
    constraint_bound,
    min_beta_for_parity,
)
from nodebalance.matching import Dinic
from support import (
    C6_PUZZLE_W,
    NEAR_OFFSET,
    complete_graph,
    cycle_graph,
    near_2p53_instance,
    path_graph,
    rand_bipartite,
    rand_connected,
    rand_graph,
    sparse_planned_instance,
    star_graph,
)

# the module itself: on the package, the name equate is the function
EQ = importlib.import_module("nodebalance.equate")

K3 = complete_graph(3)
C4 = cycle_graph(4)
C6 = cycle_graph(6)
P3 = path_graph(3)


class TestAdmissibleParities:
    def test_spec_examples(self):
        # [KNOWN: puzzle] / [TRIVIAL x2]
        assert admissible_parities(C6, C6_PUZZLE_W) == ()
        assert admissible_parities(K3, (1, 0, 0)) == ("odd",)
        assert admissible_parities(C4, (1, 0, 0, 1)) == ("even", "odd")

    def test_odd_n_even_sum(self):
        assert admissible_parities(K3, (1, 1, 0)) == ("even",)

    def test_empty_graph_rejected(self):
        with pytest.raises(InstanceError):
            admissible_parities(Graph(0, []), ())


class TestConstraintBound:
    def test_case_iii_p3_pattern(self):
        # [DERIVED: substitute into the subset condition]
        assert constraint_bound(1, 2, 1, 0, 0, "odd") == BoundCase("at_most", -1)
        assert constraint_bound(1, 2, 1, 0, 0, "even") == BoundCase("at_most", -2)

    def test_case_ii(self):
        # [DERIVED: arithmetic]
        assert constraint_bound(2, 1, 0, 0, 1, "odd") == BoundCase("at_least", 1)
        assert constraint_bound(2, 1, 0, 0, 1, "even") == BoundCase("at_least", 2)

    def test_case_i(self):
        # [DERIVED: arithmetic]
        assert constraint_bound(1, 1, 3, 0, 0, "odd") == BoundCase("never")
        assert constraint_bound(1, 1, 0, 2, 0, "even") == BoundCase("always")

    def test_threshold_rounding_against_scan(self):
        # the parity-aligned threshold matches a brute scan of the
        # linear condition slope*beta >= const over a wide window
        for u_size, iso, uw, iw, s_odd in itertools.product(
            range(4), range(4), range(0, 7, 3), range(0, 7, 3), (0, 1)
        ):
            slope = u_size - iso
            const = uw - iw + s_odd
            for parity in ("even", "odd"):
                bit = 0 if parity == "even" else 1
                aligned = [b for b in range(-40, 41) if b % 2 == bit]
                sat = [b for b in aligned if slope * b >= const]
                bc = constraint_bound(u_size, iso, uw, iw, s_odd, parity)
                if bc.kind == "at_least":
                    assert sat and min(sat) == bc.beta
                elif bc.kind == "at_most":
                    assert sat and max(sat) == bc.beta
                elif bc.kind == "always":
                    assert sat == aligned
                else:
                    assert not sat


class TestMinBetaForParity:
    def test_k3(self):
        # [DERIVED: oracle scan]
        out = min_beta_for_parity(K3, (1, 0, 0), "odd")
        assert out.beta == 1
        assert out.plan.entries == (((1, 2), 1),)

    def test_p3_absent_with_certificate(self):
        # [DERIVED: oracle scan confirms no beta up to 3]
        out = min_beta_for_parity(P3, (0, 1, 0), "odd")
        assert out.beta is None
        assert out.certificate.U == (1,)

    def test_c5_zero_weights(self):
        # [KNOWN: uniformly zero weights allow beta=0]
        out = min_beta_for_parity(cycle_graph(5), (0, 0, 0, 0, 0), "even")
        assert out.beta == 0 and not out.plan

    def test_inadmissible_parity_rejected(self):
        with pytest.raises(InstanceError):
            min_beta_for_parity(K3, (1, 0, 0), "even")


class TestEquate:
    def test_c6_puzzle(self):
        # [KNOWN: the six-box instance has no uniform target]
        res = equate(C6, C6_PUZZLE_W)
        assert not res.feasible
        assert res.reason == "parity"
        assert res.to_jsonable(C6) == {
            "equatable": False,
            "beta": None,
            "plan": None,
            "certificate": {"type": "parity"},
        }

    def test_k3(self):
        # [DERIVED: backtracking oracle]
        res = equate(K3, (1, 0, 0))
        assert res.feasible and res.beta == 1
        assert res.plan.entries == (((1, 2), 1),)
        assert res.plan.total_steps == 1

    def test_c4(self):
        # [DERIVED: backtracking oracle]
        res = equate(C4, (1, 0, 0, 1))
        assert res.beta == 1
        assert res.plan.entries == (((1, 2), 1),)

    def test_uniform_short_circuit(self):
        res = equate(K3, (5, 5, 5))
        assert res.beta == 5 and not res.plan

    def test_single_vertex_and_empty(self):
        assert equate(Graph(1, []), (3,)).beta == 3
        assert equate(Graph(0, []), ()).beta == 0

    def test_tutte_certificate_single_parity(self):
        res = equate(P3, (0, 1, 0))
        assert not res.feasible and res.reason == "certificate"
        cert = res.certificate_jsonable()
        assert cert["type"] == "tutte" and cert["parity"] == "odd"
        assert cert["U"] == [1]

    def test_tutte_certificate_both_parities(self):
        # star center overloaded for every target: U={center} always violates
        G = star_graph(3)
        res = equate(G, (1, 1, 0, 0))
        assert not res.feasible and res.reason == "certificate"
        cert = res.certificate_jsonable()
        assert cert["type"] == "tutte_per_parity"
        assert cert["even"]["U"] == [0] and cert["odd"]["U"] == [0]

    def test_disconnected_feasible(self):
        G = Graph(4, [(0, 1), (2, 3)])
        res = equate(G, (0, 0, 1, 1))
        assert res.beta == 1
        assert apply_plan(G, (0, 0, 1, 1), res.plan) == (1, 1, 1, 1)


class TestSearchAgainstOracles:
    def test_random_vs_scan(self):
        rng = random.Random(12)
        for _ in range(250):
            n = rng.randint(1, 7)
            G = rand_graph(rng, n, rng.choice((0.25, 0.5, 0.75)))
            w = tuple(rng.randint(0, 5) for _ in range(n))
            res = equate(G, w)
            assert res.beta == min_beta_scan(G, w)
            if res.feasible:
                assert is_uniform(apply_plan(G, w, res.plan)) == res.beta
                assert 2 * res.plan.total_steps == G.n * res.beta - sum(w)
                assert res.beta <= G.n * max(w)
            else:
                assert res.reason in ("parity", "certificate")

    def test_interval_structure(self):
        # per parity, the feasible targets form one contiguous aligned run
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(2, 6)
            G = rand_graph(rng, n, 0.5)
            w = tuple(rng.randint(0, 4) for _ in range(n))
            if is_uniform(w) is not None:
                continue
            maxw = max(w)
            for parity in admissible_parities(G, w):
                bit = 0 if parity == "even" else 1
                feas = [
                    beta
                    for beta in range(maxw, n * maxw + 1)
                    if beta % 2 == bit
                    and check_tutte_enumeration(G, tuple(beta - x for x in w)) is None
                ]
                if feas:
                    lo, hi = min(feas), max(feas)
                    assert feas == list(range(lo, hi + 1, 2))


def count_calls(monkeypatch, cls, name):
    """A one-element list counting the calls of cls.name for the rest of
    the test."""
    calls = [0]
    orig = getattr(cls, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def planned_weights(rng, G, X):
    """Weights that a random plan of 0..X steps per edge equalizes: the
    plan's load at each vertex, subtracted from a constant at least the
    largest load.  The constant is a feasible target."""
    load = [0] * G.n
    for u, v in G.edges:
        x = rng.randint(0, X)
        load[u] += x
        load[v] += x
    top = max(load) + rng.randint(0, X)
    return tuple(top - x for x in load), top


def sparse_connected(rng, n):
    """Connected, about 2.5n edges; an odd cycle almost surely."""
    return rand_connected(rng, n, 3 / (n - 1))


def assert_certifies(G, w, parity, cert):
    """The certificate of an infeasible parity holds at the target the
    search probed last, recovered from its deficiency d = c - s*beta; a
    slope-zero set violates at every target, the aligned max w included."""
    s = len(cert.U) - len(cert.isolated)
    c = sum(w[v] for v in cert.U) - sum(w[v] for v in cert.isolated) + cert.s_count
    if s == 0:
        assert cert.deficiency == c
        beta = EQ._align_up(max(w), parity)
    else:
        assert (c - cert.deficiency) % s == 0
        beta = (c - cert.deficiency) // s
    assert beta % 2 == (0 if parity == "even" else 1) and beta >= max(w)
    assert violating_set(G, cert.U, tuple(beta - x for x in w)) == cert


class TestJumpFromBelow:
    @pytest.mark.parametrize("n", [41, 200])
    @pytest.mark.parametrize("X", [5, 10**6, 10**15])
    def test_probes_per_parity_at_most_n_plus_1(self, monkeypatch, n, X):
        # weight-independent probe count, on planned (feasible) and random
        # (mostly infeasible) weights
        decides = count_calls(monkeypatch, BMatchEngine, "decide")
        rng = random.Random(f"probes:{n}:{X}")
        for _ in range(3):
            G = sparse_connected(rng, n)
            w, top = planned_weights(rng, G, X)
            betas = []
            for weights in (w, tuple(rng.randint(0, X) for _ in range(n))):
                for parity in admissible_parities(G, weights):
                    decides[0] = 0
                    out = min_beta_for_parity(G, weights, parity)
                    assert 1 <= decides[0] <= n + 1
                    if out.beta is None:
                        assert_certifies(G, weights, parity, out.certificate)
                    elif weights is w:
                        betas.append(out.beta)
            assert min(betas) <= top

    def test_near_2p53_three_probes(self, monkeypatch):
        # the binary search over [max w, n*max w] took 58 probes here, the
        # jump from max w three; the star bound starts at the answer
        G, w, big = near_2p53_instance()
        twin = equate(G, w).beta
        decides = count_calls(monkeypatch, BMatchEngine, "decide")
        res = equate(G, big)
        assert res.beta == twin + NEAR_OFFSET
        assert decides[0] == 1

    def test_guard_exit(self, monkeypatch):
        # C5 with w=(0,0,0,2,2): the star bound is 2, beta=2 fails, and
        # its certificate jumps to beta=4, which is feasible.  Valid
        # certificates never point past n*max w (see below), so a bound
        # past it is forced here: the search stops at the first probe and
        # reports that probe's certificate
        C5 = cycle_graph(5)
        w = (0, 0, 0, 2, 2)
        decides = count_calls(monkeypatch, BMatchEngine, "decide")
        assert min_beta_for_parity(C5, w, "even").beta == 4 and decides[0] == 2
        past = BoundCase("at_least", C5.n * max(w) + 2)
        monkeypatch.setattr(EQ, "_classify", lambda cert, w, parity: past)
        decides[0] = 0
        out = min_beta_for_parity(C5, w, "even")
        assert out.beta is None and decides[0] == 1
        assert violating_set(C5, out.certificate.U, (2, 2, 2, 0, 0)) == out.certificate
        assert_certifies(C5, w, "even", out.certificate)

    def test_valid_bounds_within_guard(self):
        # every violating set of every small instance bounds beta from
        # below by at most n*max w, so the guard never cuts a search short
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(2, 7)
            G = rand_graph(rng, n, rng.choice((0.25, 0.5, 0.75)))
            w = tuple(rng.randint(0, 4) for _ in range(n))
            if max(w) == 0 or not admissible_parities(G, w):
                continue
            for parity in admissible_parities(G, w):
                b = tuple(EQ._align_up(max(w), parity) - x for x in w)
                for size in range(n + 1):
                    for U in itertools.combinations(range(n), size):
                        iso, s_odd, _ = _tutte_terms(G, U, b)
                        case = constraint_bound(
                            len(U), len(iso), sum(w[v] for v in U),
                            sum(w[v] for v in iso), s_odd, parity,
                        )
                        if case.kind == "at_least":
                            assert case.beta <= n * max(w)

    def test_infeasible_certificates_recertify(self):
        rng = random.Random(19)
        infeasible = 0
        for i in range(120):
            n = rng.randint(3, 40)
            if i % 3:
                G = sparse_connected(rng, n)
            else:
                a = rng.randint(1, n - 1)
                G, _ = rand_bipartite(rng, a, n - a, 0.3)
            w = tuple(rng.randint(0, rng.choice((3, 10, 10**12))) for _ in range(n))
            if is_uniform(w) is not None:
                continue
            res = equate(G, w)
            for parity, cert in res.certificates.items():
                infeasible += 1
                assert_certifies(G, w, parity, cert)
        assert infeasible >= 40


def star_bounds(G, w):
    """{v: ceil((w(N(v)) - w(v)) / (deg v - 1))} over the vertices of
    degree at least 2, from the definition."""
    out = {}
    for v in range(G.n):
        k = G.degree(v)
        if k >= 2:
            c = sum(w[u] for u in G.neighbors(v)) - w[v]
            out[v] = -(-c // (k - 1))
    return out


class TestStarBound:
    """The first probe is the aligned max(max w, s*), with s* the largest
    bound b(N(v)) >= b(v) gives: N(v) isolates v."""

    def instances(self, seed, count):
        rng = random.Random(seed)
        for i in range(count):
            n = rng.randint(3, 10)
            if i % 2:
                a = rng.randint(1, n - 1)
                G, _ = rand_bipartite(rng, a, n - a, rng.choice((0.4, 0.7)))
            else:
                G = rand_graph(rng, n, rng.choice((0.3, 0.5, 0.8)))
            w = tuple(rng.randint(0, rng.choice((3, 8))) for _ in range(n))
            if is_uniform(w) is None and admissible_parities(G, w):
                yield G, w

    def test_first_probe_never_passes_the_answer(self, monkeypatch):
        probes = []
        decide = BMatchEngine.decide

        def recording(self, b):
            probes.append(b)
            return decide(self, b)

        monkeypatch.setattr(BMatchEngine, "decide", recording)
        seen = {True: 0, False: 0}
        for G, w in self.instances(41, 400):
            answer = min_beta_scan(G, w)
            found = []
            for parity in admissible_parities(G, w):
                probes.clear()
                out = min_beta_for_parity(G, w, parity)
                first = probes[0][0] + w[0]
                assert first == EQ._align_up(max(w + tuple(star_bounds(G, w).values())), parity)
                if out.beta is not None:
                    assert first <= out.beta
                    found.append(out.beta)
            assert min(found, default=None) == answer
            probes.clear()
            assert equate(G, w).beta == answer
            if answer is not None:
                assert probes[0][0] + w[0] <= answer
            seen[BMatchEngine(G).colors is not None] += 1
        assert min(seen.values()) >= 80

    def test_skipped_targets_violate_at_the_star(self):
        skipped = 0
        for G, w in self.instances(43, 400):
            bounds = star_bounds(G, w)
            if not bounds:
                continue
            v = max(bounds, key=bounds.__getitem__)
            assert EQ._star_bound(G, w) == max(max(w), bounds[v])
            for parity in admissible_parities(G, w):
                for beta in range(EQ._align_up(max(w), parity), bounds[v], 2):
                    b = tuple(beta - x for x in w)
                    vs = violating_set(G, G.neighbors(v), b)
                    assert v in vs.isolated
                    skipped += 1
        assert skipped >= 50


class TestConstructOnce:
    def test_general_solves_once_per_probe(self, monkeypatch):
        rng = random.Random(23)
        G = sparse_connected(rng, 41)
        assert BMatchEngine(G).colors is None
        w, _ = planned_weights(rng, G, 10**6)
        decides = count_calls(monkeypatch, BMatchEngine, "decide")
        solves = count_calls(monkeypatch, BMatchEngine, "_solve")
        res = equate(G, w)
        assert res.feasible and apply_plan(G, w, res.plan) == (res.beta,) * G.n
        assert solves[0] == decides[0] >= 1

    def test_bipartite_flow_once_per_probe(self, monkeypatch):
        # equal sides, so every probe has equal side totals and runs the flow
        rng = random.Random(29)
        k = 8
        G, _ = rand_bipartite(rng, k, k, 0.4)
        assert BMatchEngine(G).colors is not None
        w, _ = planned_weights(rng, G, 50)
        decides = count_calls(monkeypatch, BMatchEngine, "decide")
        flows = count_calls(monkeypatch, Dinic, "max_flow")
        res = equate(G, w)
        assert res.feasible and apply_plan(G, w, res.plan) == (res.beta,) * G.n
        assert flows[0] == decides[0] >= 1


class TestParityInterleave:
    def test_no_probe_above_the_answer(self, monkeypatch):
        # with both parities admissible, the lower open probe goes first, so
        # the first feasible probe is the answer and nothing is probed past
        # it; the result is the one of two separate per-parity searches.
        # The probe that finds the answer also returns its plan, so no
        # other probe returns one and construct never runs
        probes = []
        decide = BMatchEngine.decide

        def recording(self, b):
            out = decide(self, b)
            probes.append((b, out.feasible))
            return out

        monkeypatch.setattr(BMatchEngine, "decide", recording)
        constructs = count_calls(monkeypatch, BMatchEngine, "construct")
        rng = random.Random(37)
        feasible = infeasible = 0
        for i in range(80):
            n = rng.choice((10, 20, 40, 60))
            if i % 2:
                G = sparse_connected(rng, n)
            else:
                G, _ = rand_bipartite(rng, n // 2, n // 2, 0.2)
            if i % 4 < 2:
                w = planned_weights(rng, G, rng.choice((3, 10**6)))[0]
            else:
                w = tuple(rng.randint(0, 10) for _ in range(n))
            if len(admissible_parities(G, w)) != 2 or is_uniform(w) is not None:
                continue
            probes.clear()
            res = equate(G, w)
            targets = [b[0] + w[0] for b, _ in probes]
            planned = sum(ok for _, ok in probes)
            assert constructs[0] == 0
            outs = {p: min_beta_for_parity(G, w, p) for p in PARITIES}
            found = [(o.beta, p) for p, o in outs.items() if o.beta is not None]
            if res.feasible:
                feasible += 1
                assert max(targets) == res.beta and planned == 1
                beta, parity = min(found)
                assert (res.beta, res.plan) == (beta, outs[parity].plan)
            else:
                infeasible += 1
                assert not found and planned == 0
                assert res.certificates == {p: o.certificate for p, o in outs.items()}
                assert list(res.certificates) == list(PARITIES)
        assert feasible >= 30 and infeasible >= 8


class TestMetamorphic:
    """Above the oracles' reach: relabelling keeps (feasible, beta), and
    adding c to every weight moves beta by exactly c."""

    @pytest.mark.parametrize("n", [50, 101, 200, 1000])
    def test_relabel_and_shift(self, n):
        rng = random.Random(f"metamorphic:{n}")
        for planned in (True, False):
            G = sparse_connected(rng, n)
            w = planned_weights(rng, G, 10)[0] if planned else tuple(
                rng.randint(0, 10) for _ in range(n)
            )
            base = equate(G, w)
            if planned:
                assert base.feasible
            moved = equate(*relabelled(rng, G, w))
            assert (moved.feasible, moved.beta) == (base.feasible, base.beta)
            for c in (1, 2, 10**6 + 1, 10**15):
                wc = tuple(x + c for x in w)
                res = equate(G, wc)
                assert res.feasible == base.feasible
                if res.feasible:
                    assert res.beta == base.beta + c
                    assert apply_plan(G, wc, res.plan) == (res.beta,) * n
                else:
                    assert res.reason == base.reason
                    for parity, cert in res.certificates.items():
                        assert_certifies(G, wc, parity, cert)

    def test_relabel_and_shift_at_8001_vertices(self):
        # feasible; the plain and the shifted solve each run one parity
        # repair (n = 8000 rounds to a plan without one)
        G, w = sparse_planned_instance(8001)
        base = equate(G, w)
        assert apply_plan(G, w, base.plan) == (base.beta,) * G.n
        for H, hw, shift in (
            (*relabelled(random.Random("metamorphic:8001"), G, w), 0),
            (G, tuple(x + HUGE for x in w), HUGE),
        ):
            res = equate(H, hw)
            assert res.beta == base.beta + shift
            assert apply_plan(H, hw, res.plan) == (res.beta,) * G.n


def relabelled(rng, G, w):
    """(G, w) with the vertices renamed by a random permutation."""
    perm = list(range(G.n))
    rng.shuffle(perm)
    hw = [0] * G.n
    for v in range(G.n):
        hw[perm[v]] = w[v]
    return Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges]), tuple(hw)


HUGE = 10**30


class TestExactAtAnySize:
    """Exact integer arithmetic whatever the weights: the flow's bottleneck
    is the minimum over its own path, so a demand far past 2^63 costs what
    a small one does, and a uniform shift moves nothing but beta."""

    def test_double_cover_route(self):
        G = complete_graph(4)
        w = (0, 0, HUGE, HUGE)
        start = time.perf_counter()
        res = equate(G, w)
        assert res.beta == HUGE
        assert res.plan == IncrementPlan({(0, 1): HUGE})
        assert apply_plan(G, w, res.plan) == (HUGE,) * 4
        assert time.perf_counter() - start < 1

    def test_bipartite_flow_route(self):
        k = 7
        G = Graph(2 * k, [(u, k + v) for u in range(k) for v in range(k)])
        engine = BMatchEngine(G)
        assert engine.colors is not None
        w = tuple(0 if v in (0, k) else HUGE for v in range(2 * k))
        start = time.perf_counter()
        res = equate(G, w)
        assert res.beta == HUGE
        assert res.plan == IncrementPlan({(0, k): HUGE})
        assert apply_plan(G, w, res.plan) == (HUGE,) * (2 * k)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("n", [50, 101, 200, 1000])
    @pytest.mark.parametrize("bipartite", [False, True], ids=["odd-cycle", "bipartite"])
    def test_huge_shift(self, n, bipartite):
        rng = random.Random(f"huge:{n}:{bipartite}")
        feasible = 0
        for planned in (True, False, True, False):
            if bipartite:
                G, _ = rand_bipartite(rng, n // 2, n - n // 2, 2.5 / (n // 2))
            else:
                G = sparse_connected(rng, n)
            w = planned_weights(rng, G, 10)[0] if planned else tuple(
                rng.randint(0, 10) for _ in range(n)
            )
            base = equate(G, w)
            wc = tuple(x + HUGE for x in w)
            res = equate(G, wc)
            assert res.feasible == base.feasible
            if planned:
                assert res.feasible
            if not res.feasible:
                assert res.reason == base.reason
                continue
            feasible += 1
            assert res.beta == base.beta + HUGE
            assert res.plan == base.plan
            assert apply_plan(G, wc, res.plan) == (res.beta,) * n
            for beta, weights in ((base.beta, w), (res.beta, wc)):
                assert 2 * res.plan.total_steps == n * beta - sum(weights)
        assert feasible >= 2
