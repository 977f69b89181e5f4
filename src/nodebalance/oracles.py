"""Brute-force reference solvers.

These are deliberately naive and independent: min_beta_scan walks every
candidate target and asks the subset-enumeration check, while
equate_backtracking runs the hypergraph multiplicity search on the graph
as a 2-uniform hypergraph and never consults any feasibility theory.
Agreement between the main solver and these two is the repository's core
correctness experiment, so both ship in the library (and behind the CLI)
rather than hiding in the tests.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .bmatch import ENUM_LIMIT, check_tutte_enumeration
from .core import Graph, Hypergraph, IncrementPlan, _as_int, check_graph, check_weights, is_uniform
from .equate import _parities, _parity_bit
from .errors import BudgetError, InstanceError
from .hyper import _backtrack

MAX_EDGES = 12
MAX_RANGE = 12
MAX_TARGETS = 1024


def min_beta_scan(G: Graph, w: Sequence[int]) -> Optional[int]:
    """Smallest feasible target by linear scan over [max w, n*max w],
    skipping inadmissible parities; each candidate is tested with the
    subset enumeration.  Uniform weights return their value directly;
    otherwise raises BudgetError above ENUM_LIMIT vertices, or when some
    parity is admissible and the range holds more than MAX_TARGETS
    targets."""
    check_graph(G, "min_beta_scan")
    tw = check_weights(w, G.n)
    uni = is_uniform(tw)
    if uni is not None:
        return uni
    if G.n > ENUM_LIMIT:
        raise BudgetError("enumeration limit exceeded", n=G.n, limit=ENUM_LIMIT)
    parities = _parities(G.n, tw)
    if not parities:
        return None
    bits = {_parity_bit(p) for p in parities}
    maxw = max(tw)
    targets = (G.n - 1) * maxw + 1
    if targets > MAX_TARGETS:
        raise BudgetError("target scan budget exceeded", targets=targets, limit=MAX_TARGETS)
    for beta in range(maxw, G.n * maxw + 1):
        if beta % 2 not in bits:
            continue
        if check_tutte_enumeration(G, tuple(beta - x for x in tw)) is None:
            return beta
    return None


def equate_backtracking(G: Graph, w: Sequence[int], beta: int) -> Optional[IncrementPlan]:
    """Depth-first search for multiplicities reaching the given target.

    The search is hyper._backtrack on G as a 2-uniform hypergraph: edges
    are assigned in canonical order with residual-demand pruning, and a
    vertex's demand must be exactly met once its last edge is fixed.  The
    only shortcut is the handshake parity check (an odd total demand can
    never be covered by steps of two).  The first plan found is returned.
    Raises BudgetError above MAX_EDGES edges or when beta - min(w)
    exceeds MAX_RANGE.
    """
    check_graph(G, "equate_backtracking")
    tw = check_weights(w, G.n)
    beta = _as_int(beta, "target")
    if beta < max(tw, default=0):
        raise InstanceError(f"target {beta} below max weight")
    if G.m > MAX_EDGES:
        raise BudgetError("edge budget exceeded", edges=G.m, limit=MAX_EDGES)
    spread = beta - min(tw, default=0)
    if spread > MAX_RANGE:
        raise BudgetError("target range budget exceeded", range=spread, limit=MAX_RANGE)
    if (G.n * beta - sum(tw)) % 2 == 1:
        return None
    plan = _backtrack(Hypergraph(G.n, G.edges), tw, beta)
    if plan is None:
        return None
    return IncrementPlan._trusted((G.edges[i], c) for i, c in plan.items())
