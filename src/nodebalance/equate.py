"""Minimum uniform target: decide whether the weights can be equalized by
edge increments, and find the smallest achievable common value with its
plan.

With target beta, every vertex v needs exactly b(v) = beta - w(v)
increments, so feasibility at beta is exactly perfect b-matching
feasibility.  Each step raises the total weight by 2, which pins
n*beta = sum(w) (mod 2) and restricts beta to at most two parities; per
parity the feasible targets form an interval, because every vertex subset
contributes one constraint linear in beta.  The search jumps from below
through each admissible parity class, Newton steps on those constraints
(Radzik 1992).  It starts at the star bound: deleting the neighbourhood
N(v) of a vertex v of degree k >= 2 isolates v, so every feasible target
has b(N(v)) >= b(v), that is (k - 1)*beta >= w(N(v)) - w(v).  The first
probe is the aligned maximum of max w and these bounds, and the
maximising N(v) certifies every target below it.  Each infeasible
probe's violating set is a constraint that either lifts the next probe
to its aligned lower bound, certifying every target skipped, or rules
out every larger target, which ends the class.  A jump past n*max w also
ends it; that guard only keeps the loop finite, since no valid
certificate points past it, and the star bound is at most 2*max w.
With two admissible parities the two jumps advance together, always the
one with the lower probe, so the first feasible probe is the answer over
both classes, and its solve supplies the plan.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .bmatch import BMatchEngine, ViolatingSet
from .core import Graph, IncrementPlan, Weights, _Value, check_graph, check_weights, is_uniform
from .errors import InstanceError, InternalError

PARITIES = ("even", "odd")


def _parity_bit(parity: str) -> int:
    if parity not in PARITIES:
        raise InstanceError(f"parity must be 'even' or 'odd', got {parity!r}")
    return 0 if parity == "even" else 1


def _align_up(x: int, parity: str) -> int:
    return x if x % 2 == _parity_bit(parity) else x + 1


def _align_down(x: int, parity: str) -> int:
    return x if x % 2 == _parity_bit(parity) else x - 1


def admissible_parities(G: Graph, w: Sequence[int]) -> tuple[str, ...]:
    """Parities of beta compatible with n*beta = sum(w) (mod 2).

    Odd n: exactly one parity.  Even n: both if sum(w) is even, none
    otherwise (each step preserves total-weight parity, so no uniform
    target of any parity can be reached).
    """
    check_graph(G, "admissible_parities")
    tw = check_weights(w, G.n)
    if G.n < 1:
        raise InstanceError("parity analysis needs at least one vertex")
    return _parities(G.n, tw)


def _parities(n: int, w: Weights) -> tuple[str, ...]:
    total = sum(w)
    if n % 2 == 1:
        return ("even",) if total % 2 == 0 else ("odd",)
    return PARITIES if total % 2 == 0 else ()


class BoundCase(_Value):
    """How one subset constraint restricts beta within a parity class.

    kind "at_least"/"at_most" carry the parity-aligned threshold beta;
    "always"/"never" are the constant cases (slope zero).
    """

    kind: str
    beta: Optional[int] = None


def constraint_bound(
    u_size: int,
    isolated_size: int,
    u_weight: int,
    isolated_weight: int,
    s_odd: int,
    parity: str,
) -> BoundCase:
    """Classify the subset condition at U for b(v) = beta - w(v).

    Substituting gives s*beta >= c with slope s = |U| - |I(U)| and
    constant c = w(U) - w(I(U)) + S.  Positive slope lower-bounds beta,
    negative slope upper-bounds it, zero slope is satisfied always or
    never.  S must have been computed at a probe of the given parity (it
    is parity-invariant within the class).
    """
    return _bound(u_size - isolated_size, u_weight - isolated_weight + s_odd, parity)


def _bound(s: int, c: int, parity: str) -> BoundCase:
    """The BoundCase of s*beta >= c within a parity class."""
    if s == 0:
        return BoundCase("always") if c <= 0 else BoundCase("never")
    if s > 0:
        return BoundCase("at_least", _align_up(-(-c // s), parity))
    return BoundCase("at_most", _align_down(c // s, parity))


class ParityOutcome(_Value):
    """Result of one parity-class search: smallest feasible beta with its
    plan, or absent with the last certificate seen."""

    beta: Optional[int] = None
    plan: Optional[IncrementPlan] = None
    certificate: Optional[ViolatingSet] = None


def _classify(cert: ViolatingSet, beta: int, parity: str) -> BoundCase:
    """constraint_bound of a certificate verified at b = beta - w.  There
    its deficiency b(I(U)) + S - b(U) equals c - s*beta, so c is read off
    it without summing w over U and I(U)."""
    s = len(cert.U) - len(cert.isolated)
    return _bound(s, cert.deficiency + s * beta, parity)


def min_beta_for_parity(G: Graph, w: Sequence[int], parity: str) -> ParityOutcome:
    """Smallest feasible beta of one parity, by jumps from below.

    The first probe is the aligned star bound (see _star_bound), below
    which the maximising U = N(v) violates.  An infeasible probe's violating
    set, classified by constraint_bound, either gives an "at_least" bound
    strictly past the probe, where the next probe jumps (every target
    skipped violates that same set), or an "at_most"/"never" bound, which
    leaves no feasible target at or above the probe and ends the search
    with that certificate.  A jump past n*max w also ends it: the guard
    keeps the loop finite whatever the certificates, and valid ones never
    reach it.  The first feasible probe is the answer, and its plan comes
    from the engine's solve of that probe.
    """
    check_graph(G, "min_beta_for_parity")
    tw = check_weights(w, G.n)
    if G.n < 1 or parity not in _parities(G.n, tw):
        raise InstanceError(f"parity {parity!r} not admissible for this instance")
    beta, plan, certs = _search(BMatchEngine(G), tw, (parity,))
    return ParityOutcome(beta, plan, certs.get(parity))


def _star_bound(G: Graph, w: Weights) -> int:
    """max(max w, s*), with s* the largest ceil((w(N(v)) - w(v)) / (k - 1))
    over the vertices v of degree k >= 2.  U = N(v) isolates v, so
    b(N(v)) >= b(v) at every feasible target, and every target below
    the bound of v violates at U = N(v).  Since w(N(v)) <= k*max w, the
    bound is at most 2*max w."""
    c = [-x for x in w]  # w(N(v)) - w(v)
    for u, v in G.edges:
        c[u] += w[v]
        c[v] += w[u]
    lo = max(w)
    for v, cv in enumerate(c):
        # cv <= max w <= lo at degree 1 or 0, and cv > lo*k implies cv > lo
        if cv > lo:
            k = G.degree(v) - 1
            if cv > lo * k:
                lo = -(-cv // k)
    return lo


def _search(
    eng: BMatchEngine, w: Weights, parities: Sequence[str]
) -> tuple[Optional[int], Optional[IncrementPlan], dict[str, ViolatingSet]]:
    """Trusted body of min_beta_for_parity and equate: w validated, the
    parities admissible.  The jumps of all parities start at the aligned
    star bound and advance together, the lowest open probe first, so the
    first feasible probe is the smallest feasible target of them all.
    Each probe is one eng.decide, which returns the probe's replayed plan
    or its verified certificate: (beta, plan, {}) at the first feasible
    probe, and when every parity ends infeasible, (None, None, its last
    certificate per parity)."""
    guard = eng.n * max(w)
    start = _star_bound(eng.G, w)
    probe = {p: _align_up(start, p) for p in parities}
    certs: dict[str, ViolatingSet] = {}
    while probe:
        parity = min(probe, key=probe.__getitem__)
        beta = probe[parity]
        out = eng.decide(tuple(beta - x for x in w))
        if out.feasible:
            return beta, out.plan, {}
        cert = out.witness
        case = _classify(cert, beta, parity)
        if case.kind == "at_least" and case.beta <= guard:
            # a violation at beta means s*beta < c for its constraint s*beta >= c
            if case.beta <= beta:
                raise InternalError(f"certificate {cert.U} does not cut past {beta}")
            probe[parity] = case.beta
        else:
            certs[parity] = cert
            del probe[parity]
    return None, None, {p: certs[p] for p in parities}


class EquateResult(_Value):
    """Decision plus either (beta, plan) or the infeasibility evidence.

    reason is None when feasible, "parity" when no target parity exists,
    "certificate" when every admissible parity search failed; in the last
    case certificates maps each searched parity to its violating set.
    """

    beta: Optional[int]
    plan: Optional[IncrementPlan]
    reason: Optional[str]
    certificates: Mapping[str, ViolatingSet]

    def __init__(
        self,
        beta: Optional[int] = None,
        plan: Optional[IncrementPlan] = None,
        reason: Optional[str] = None,
        certificates: Optional[Mapping[str, ViolatingSet]] = None,
    ) -> None:
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "certificates", {} if certificates is None else certificates)

    @property
    def feasible(self) -> bool:
        return self.beta is not None

    def certificate_jsonable(self) -> Optional[dict]:
        if self.feasible:
            return None
        if self.reason == "parity":
            return {"type": "parity"}
        certs = {p: vs.to_jsonable() for p, vs in self.certificates.items()}
        if len(certs) == 1:
            ((p, d),) = certs.items()
            return {"type": "tutte", "parity": p, **{k: v for k, v in d.items() if k != "type"}}
        return {"type": "tutte_per_parity", **certs}

    def to_jsonable(self, host) -> dict:
        return {
            "equatable": self.feasible,
            "beta": self.beta,
            "plan": self.plan.to_jsonable(host) if self.plan is not None else None,
            "certificate": self.certificate_jsonable(),
        }


def equate(G: Graph, w: Sequence[int]) -> EquateResult:
    """Smallest uniform target over all admissible parities.

    Already-uniform weights short-circuit to their current value with an
    empty plan (no smaller target is possible, since beta >= max w).  The
    returned plan always has total multiplicity (n*beta - sum w) / 2, so
    minimizing beta also minimizes the number of steps.
    """
    check_graph(G, "equate")
    tw = check_weights(w, G.n)
    uni = is_uniform(tw)
    if uni is not None:
        return EquateResult(beta=uni, plan=IncrementPlan.empty())
    parities = _parities(G.n, tw)
    if not parities:
        return EquateResult(reason="parity")
    beta, plan, certs = _search(BMatchEngine(G), tw, parities)
    if plan is None:
        return EquateResult(reason="certificate", certificates=certs)
    if 2 * plan.total_steps != G.n * beta - sum(tw):
        raise InternalError("plan size does not match the target identity")
    return EquateResult(beta=beta, plan=plan)
