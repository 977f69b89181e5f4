"""Hypergraph equalization and the hardness reduction.

A step on a hyperedge increments every member vertex.  Deciding whether a
hypergraph assignment can be equalized is NP-complete (perfect matching
in hypergraphs reduces to it), so the solver here is a bounded exhaustive
search: it backtracks over edge multiplicities at candidate targets beta
up to a cap.  A plan at target beta is a non-negative integer solution x
of A x = beta*1 - w, with A the vertex-edge incidence matrix, so before
searching, fraction-free integer elimination of that system finds the
targets at which it has any rational solution at all: every beta, one
integer beta, or none.  Only those targets are searched.  Results are
"infeasible within cap" rather than unconditional, except in three cases
with a genuine proof: a vertex in no edge freezes its weight forever, a
divisibility obstruction can rule out every integer target at once, and
elimination can leave no target at all.

reduce_pm_to_equate realizes the hardness direction: three fresh
vertices p, q, r with weight 1, chained by edges {p,q} and {q,r}, force
any equalized target to be exactly 1, which turns the original edges
into an exact-cover problem.  Elimination sees this too: the gadget rows
pin beta = 1, so a reduced instance costs one search.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence

from .core import (
    Hypergraph,
    IncrementPlan,
    Weights,
    _apply_plan,
    _as_int,
    _Value,
    check_weights,
    is_uniform,
)
from .errors import BudgetError, InstanceError, InternalError

MAX_EDGES = 16
PM_LIMIT = 24


def default_beta_cap(H: Hypergraph, w: Sequence[int]) -> int:
    """n * max(w) * largest edge size, floored at max(w).  Purely a search
    bound; no finite cap is complete for every hypergraph."""
    tw = check_weights(w, H.n)
    maxw = max(tw, default=0)
    maxsize = max((len(e) for e in H.edges), default=0)
    return max(maxw, H.n * maxw * maxsize)


class HyperEquateResult(_Value):
    """Smallest target within the cap, or the reason none exists.

    reason is None (feasible), "beta_cap" (nothing in [max w, cap] works;
    larger targets remain possible), "divisibility" (no integer target at
    all can satisfy the step-size arithmetic), "no_rational_target"
    (A x = beta*1 - w has no rational solution x at any integer beta, so
    no target of any size has a plan), or "frozen_vertex" (an edgeless
    vertex pins the target to an impossible value; the vertex is
    reported)."""

    _fields = ("cap", "beta", "plan", "reason", "frozen")
    cap: int
    beta: Optional[int]
    plan: Optional[IncrementPlan]
    reason: Optional[str]
    frozen: Optional[int]

    def __init__(
        self,
        cap: int,
        beta: Optional[int] = None,
        plan: Optional[IncrementPlan] = None,
        reason: Optional[str] = None,
        frozen: Optional[int] = None,
    ) -> None:
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "frozen", frozen)

    @property
    def feasible(self) -> bool:
        return self.beta is not None

    def to_jsonable(self, host: Hypergraph) -> dict:
        cert: Optional[dict] = None
        if not self.feasible:
            if self.reason == "frozen_vertex":
                cert = {"type": "frozen_vertex", "vertex": self.frozen}
            elif self.reason in ("divisibility", "no_rational_target"):
                cert = {"type": self.reason}
            else:
                cert = {"type": "beta_cap", "cap": self.cap}
        return {
            "equatable": self.feasible,
            "beta": self.beta,
            "plan": self.plan.to_jsonable(host) if self.plan is not None else None,
            "certificate": cert,
        }


def _backtrack(H: Hypergraph, w: Weights, beta: int) -> Optional[IncrementPlan]:
    """Exhaustive multiplicity search at one target.  Edges are processed
    largest first; a vertex's residual demand must hit zero by the time
    its last edge is assigned, so that edge's multiplicity is forced."""
    order = sorted(range(H.m), key=lambda i: (-len(H.edges[i]), H.edges[i], i))
    residual = [beta - x for x in w]
    if any(r < 0 for r in residual):
        return None
    last_pos = [-1] * H.n
    for pos, i in enumerate(order):
        for v in H.edges[i]:
            last_pos[v] = pos
    if any(residual[v] > 0 and last_pos[v] == -1 for v in range(H.n)):
        return None
    # closing[pos]: the members whose last edge is the one at pos
    closing = [[v for v in H.edges[i] if last_pos[v] == pos] for pos, i in enumerate(order)]
    counts = [0] * H.m

    def rec(pos: int) -> bool:
        if pos == H.m:
            return all(r == 0 for r in residual)
        i = order[pos]
        members = H.edges[i]
        cap = min(residual[v] for v in members)
        closed = closing[pos]
        if closed:
            x = residual[closed[0]]
            xs = (x,) if x == cap and all(residual[v] == x for v in closed) else ()
        else:
            xs = range(cap + 1)
        for x in xs:
            for v in members:
                residual[v] -= x
            counts[i] = x
            if rec(pos + 1):
                return True
            counts[i] = 0
            for v in members:
                residual[v] += x
        return False

    if not rec(0):
        return None
    return IncrementPlan(tuple((i, c) for i, c in enumerate(counts) if c))


def _rational_targets(H: Hypergraph, w: Weights) -> Optional[tuple[int, ...]]:
    """Integer targets beta at which A x = beta*1 - w has a rational
    solution x: None for every beta, else a tuple of at most one target.

    Row v is the integer vector (A[v] | -1 | w[v]) over the columns
    x_1..x_m, beta, 1.  Fraction-free elimination (cross-multiply, then
    divide the row by its gcd) clears the edge columns, so every row left
    without a pivot reads c*beta + d = 0."""
    rows = [[0] * H.m + [-1, x] for x in w]
    for i, e in enumerate(H.edges):
        for v in e:
            rows[v][i] = 1
    for col in range(H.m):
        k = next((k for k, r in enumerate(rows) if r[col]), None)
        if k is None:
            continue
        piv = rows.pop(k)
        a = piv[col]
        for j, r in enumerate(rows):
            b = r[col]
            if b:
                r = [a * x - b * y for x, y in zip(r, piv)]
                g = gcd(*r)
                rows[j] = [x // g for x in r] if g > 1 else r
    beta = None
    for *_, c, d in rows:
        if c == 0:
            if d:
                return ()
        elif d % c or (beta is not None and beta != -d // c):
            return ()
        else:
            beta = -d // c
    return None if beta is None else (beta,)


def hyper_equate(
    H: Hypergraph, w: Sequence[int], beta_cap: Optional[int] = None
) -> HyperEquateResult:
    """Smallest equalizable target in [max w, cap] by exhaustive search.

    Already-uniform weights short-circuit.  Edgeless (frozen) vertices
    pin the target to their common weight or prove infeasibility.  Each
    candidate target must satisfy the divisibility constraint: the total
    added weight n*beta - sum(w) has to be a sum of edge sizes, so it
    must be a multiple of their gcd g.  These targets form one residue
    class modulo g / gcd(n, g); the search visits only those at which the
    incidence system has a rational solution (see _rational_targets).
    When there is no such target at all, the answer is
    "no_rational_target", before any search.  Raises BudgetError above
    MAX_EDGES hyperedges, parallel ones included.

    Hyperedges with equal member sets are merged before elimination and
    search: copies add nothing a plan needs, only search width.  The plan
    keys each set by its lowest index in H.
    """
    tw = check_weights(w, H.n)
    if H.m > MAX_EDGES:
        raise BudgetError("edge budget exceeded", edges=H.m, limit=MAX_EDGES)
    lowest: dict[tuple[int, ...], int] = {}
    for i, e in enumerate(H.edges):
        lowest.setdefault(e, i)
    merged = Hypergraph(H.n, list(lowest))
    index = list(lowest.values())
    maxw = max(tw, default=0)
    cap = default_beta_cap(H, tw) if beta_cap is None else _as_int(beta_cap, "beta cap")
    if cap < maxw:
        raise InstanceError(f"beta cap {cap} below max weight {maxw}")
    uni = is_uniform(tw)
    if uni is not None:
        return HyperEquateResult(cap, beta=uni, plan=IncrementPlan.empty())
    frozen = [v for v in range(H.n) if not H.incident(v)]
    hi = cap
    if frozen:
        f0 = frozen[0]
        for v in frozen[1:]:
            if tw[v] != tw[f0]:
                return HyperEquateResult(cap, reason="frozen_vertex", frozen=v)
        if tw[f0] < maxw:
            return HyperEquateResult(cap, reason="frozen_vertex", frozen=f0)
        hi = maxw  # the frozen weight, now known to be max w
    # some vertex lies in an edge, else w would be uniform or frozen apart
    total = sum(tw)
    g = gcd(*(len(e) for e in H.edges))
    d = gcd(H.n, g)
    if total % d:
        # no integer target solves n*beta = sum(w) (mod g)
        return HyperEquateResult(cap, reason="divisibility")
    pinned = _rational_targets(merged, tw)
    if pinned == ():
        return HyperEquateResult(cap, reason="no_rational_target")
    step = g // d
    first = maxw + ((total // d) * pow(H.n // d, -1, step) - maxw) % step
    if first > hi:
        # a frozen vertex pins the one possible target, which fails the
        # arithmetic; otherwise the cap cuts the progression off
        return HyperEquateResult(cap, reason="divisibility" if frozen else "beta_cap")
    targets = range(first, hi + 1, step)
    if pinned is not None:
        targets = [b for b in pinned if b in targets]
    for beta in targets:
        plan = _backtrack(merged, tw, beta)
        if plan is not None:
            plan = IncrementPlan(tuple((index[i], c) for i, c in plan.items()))
            if _apply_plan(H, tw, plan) != (beta,) * H.n:
                raise InternalError("backtracking plan failed replay check")
            return HyperEquateResult(cap, beta=beta, plan=plan)
    return HyperEquateResult(cap, reason="beta_cap")


class ReductionOutput(_Value):
    """Equalization instance encoding a hypergraph perfect-matching
    question; gadget vertex ids are (p, q, r) = (n, n+1, n+2)."""

    _fields = ("hypergraph", "weights", "new_vertex_ids")
    hypergraph: Hypergraph
    weights: Weights
    new_vertex_ids: tuple[int, int, int]

    def __init__(
        self, hypergraph: Hypergraph, weights: Weights, new_vertex_ids: tuple[int, int, int]
    ) -> None:
        object.__setattr__(self, "hypergraph", hypergraph)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "new_vertex_ids", new_vertex_ids)


def reduce_pm_to_equate(H: Hypergraph) -> ReductionOutput:
    """Append the three-vertex gadget: p, q, r with weight 1 and edges
    {p,q}, {q,r}; original vertices keep weight 0 and original edges are
    untouched.  The output is equalizable iff H has a perfect matching,
    and then only at target 1 with both gadget edges unused."""
    n = H.n
    p, q, r = n, n + 1, n + 2
    reduced = Hypergraph(n + 3, H.edges + ((p, q), (q, r)))
    weights = (0,) * n + (1, 1, 1)
    return ReductionOutput(reduced, weights, (p, q, r))


def hyper_perfect_matching(H: Hypergraph) -> Optional[tuple[int, ...]]:
    """Exact cover of the vertex set by pairwise-disjoint edges, found by
    backtracking that always branches on the lowest uncovered vertex.
    Returns sorted edge indices, or None.  Failed cover states are
    memoized, which keeps repeated structure from exploding.  Raises
    BudgetError above PM_LIMIT vertices."""
    if H.n > PM_LIMIT:
        raise BudgetError("vertex budget exceeded", n=H.n, limit=PM_LIMIT)
    if H.n == 0:
        return ()
    masks = []
    for e in H.edges:
        m = 0
        for v in e:
            m |= 1 << v
        masks.append(m)
    by_vertex: list[list[int]] = [[] for _ in range(H.n)]
    for i, m in enumerate(masks):
        for v in H.edges[i]:
            by_vertex[v].append(i)
    if any(not lst for lst in by_vertex):
        return None
    full = (1 << H.n) - 1
    dead: set[int] = set()
    chosen: list[int] = []

    def rec(covered: int) -> bool:
        if covered == full:
            return True
        if covered in dead:
            return False
        v = ((~covered) & -(~covered)).bit_length() - 1
        for i in by_vertex[v]:
            if masks[i] & covered:
                continue
            chosen.append(i)
            if rec(covered | masks[i]):
                return True
            chosen.pop()
        dead.add(covered)
        return False

    if rec(0):
        return tuple(sorted(chosen))
    return None
