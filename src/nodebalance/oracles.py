"""Brute-force reference solvers.

These are deliberately naive and independent: min_beta_scan walks every
candidate target and asks the subset-enumeration check, while
equate_backtracking searches edge multiplicities directly and never
consults any feasibility theory.  Agreement between the main solver and
these two is the repository's core correctness experiment, so both ship
in the library (and behind the CLI) rather than hiding in the tests.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .bmatch import ENUM_LIMIT, check_tutte_enumeration
from .core import Graph, IncrementPlan, _as_int, check_weights, is_uniform
from .equate import _parities
from .errors import BudgetError, InstanceError

MAX_EDGES = 12
MAX_RANGE = 12


def min_beta_scan(G: Graph, w: Sequence[int]) -> Optional[int]:
    """Smallest feasible target by linear scan over [max w, n*max w],
    skipping inadmissible parities; each candidate is tested with the
    subset enumeration.  Uniform weights return their value directly;
    otherwise raises BudgetError above ENUM_LIMIT vertices."""
    tw = check_weights(w, G.n)
    uni = is_uniform(tw)
    if uni is not None:
        return uni
    if G.n > ENUM_LIMIT:
        raise BudgetError("enumeration limit exceeded", n=G.n, limit=ENUM_LIMIT)
    parities = _parities(G.n, tw)
    if not parities:
        return None
    bits = {0 if p == "even" else 1 for p in parities}
    maxw = max(tw)
    for beta in range(maxw, G.n * maxw + 1):
        if beta % 2 not in bits:
            continue
        if check_tutte_enumeration(G, tuple(beta - x for x in tw)) is None:
            return beta
    return None


def equate_backtracking(G: Graph, w: Sequence[int], beta: int) -> Optional[IncrementPlan]:
    """Depth-first search for multiplicities reaching the given target.

    Edges are assigned in canonical order with residual-demand pruning; a
    vertex's demand must be exactly met once its last edge is fixed.  The
    only shortcut is the handshake parity check (an odd total demand can
    never be covered by steps of two).  Any valid plan is returned.
    Raises BudgetError above MAX_EDGES edges or when beta - min(w)
    exceeds MAX_RANGE.
    """
    tw = check_weights(w, G.n)
    beta = _as_int(beta, "target")
    if beta < max(tw, default=0):
        raise InstanceError(f"target {beta} below max weight")
    if G.m > MAX_EDGES:
        raise BudgetError("edge budget exceeded", edges=G.m, limit=MAX_EDGES)
    spread = beta - min(tw, default=0)
    if spread > MAX_RANGE:
        raise BudgetError("target range budget exceeded", range=spread, limit=MAX_RANGE)
    residual = [beta - x for x in tw]
    if sum(residual) % 2 == 1:
        return None
    last_pos = [-1] * G.n
    for pos, (u, v) in enumerate(G.edges):
        last_pos[u] = pos
        last_pos[v] = pos
    if any(residual[v] > 0 and last_pos[v] == -1 for v in range(G.n)):
        return None
    counts = [0] * G.m

    def rec(pos: int) -> bool:
        if pos == G.m:
            return all(r == 0 for r in residual)
        u, v = G.edges[pos]
        cap = min(residual[u], residual[v])
        for x in range(cap + 1):
            residual[u] -= x
            residual[v] -= x
            ok = (last_pos[u] != pos or residual[u] == 0) and (
                last_pos[v] != pos or residual[v] == 0
            )
            if ok:
                counts[pos] = x
                if rec(pos + 1):
                    return True
                counts[pos] = 0
            residual[u] += x
            residual[v] += x
        return False

    if not rec(0):
        return None
    return IncrementPlan(tuple((G.edges[i], c) for i, c in enumerate(counts) if c))
