"""Checks on the program's answers, computed apart from the program.

Each check returns None when the answer is right, or the name of what is
wrong.  Nothing here imports the program: plans are replayed, certificates
recomputed from the subset definition, and verdicts and minimum targets
recomputed by enumeration (small inputs), by networkx max-flow and
matching, or by invariance between related instances.

check_equate also counts, in the Counter it is given, how many answers each
kind of evidence settled, so the report can say which answers were checked
for minimality and which only for validity.
"""

from __future__ import annotations

import itertools
from collections import Counter

import networkx as nx

ENUM_N = 12  # largest n for the 2^n subset enumerations


def adjacency(n, edges) -> list[int]:
    """Neighbour bitmask per vertex."""
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def _components(nbr, mask) -> list[int]:
    """Connected components (as bitmasks) of the subgraph induced by mask."""
    comps = []
    rest = mask
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            grow = 0
            f = frontier
            while f:
                low = f & -f
                grow |= nbr[low.bit_length() - 1]
                f ^= low
            frontier = grow & mask & ~comp
            comp |= frontier
        rest &= ~comp
        comps.append(comp)
    return comps


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _wsum(w, mask):
    return sum(w[i] for i in _bits(mask))


def _mask(vs) -> int:
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def is_connected(n, edges) -> bool:
    return n <= 1 or _components(adjacency(n, edges), (1 << n) - 1) == [(1 << n) - 1]


def admissible_parities(n, w) -> tuple[int, ...]:
    """Parities of beta with n*beta = sum(w) (mod 2)."""
    if n % 2:
        return (sum(w) % 2,)
    return (0, 1) if sum(w) % 2 == 0 else ()


def isolated(nbr, n, umask) -> int:
    """I(U): vertices outside U whose neighbours all lie in U."""
    return _mask(v for v in range(n) if not umask >> v & 1 and nbr[v] & ~umask == 0)


def s_count(nbr, n, w, umask, parity) -> int:
    """Components of G-U with two or more vertices and odd b-sum, for
    b = beta - w with beta of the given parity."""
    return sum(
        1
        for comp in _components(nbr, ((1 << n) - 1) & ~umask)
        if comp & (comp - 1) and (bin(comp).count("1") * parity - _wsum(w, comp)) % 2
    )


# ----------------------------------------------------- minimum targets


def _interval_min(lo, hi, parity=None):
    """Smallest integer in [lo, hi] (hi None = unbounded) of the parity."""
    if parity is not None and lo % 2 != parity:
        lo += 1
    return lo if hi is None or lo <= hi else None


def _bound(lo, hi, a, c):
    """Add the constraint a*beta <= c to the interval [lo, hi]; returns
    the new (lo, hi), or None when no beta satisfies it."""
    if a > 0:
        t = c // a
        hi = t if hi is None else min(hi, t)
    elif a < 0:
        lo = max(lo, -(c // -a))
    elif c < 0:
        return None
    return lo, hi


def bipartite_min_beta(n, edges, w, left, right):
    """Minimum uniform target of a bipartite instance, from the supply and
    demand theorem: equal side totals and b(X) <= b(N(X)) for every X in
    the smaller side, with b = beta - w.  Each X gives one linear bound."""
    side, other = (left, right) if len(left) <= len(right) else (right, left)
    nbr = adjacency(n, edges)
    lo, hi = max(w), None
    a = len(side) - len(other)
    c = sum(w[v] for v in side) - sum(w[v] for v in other)
    if a == 0:
        if c != 0:
            return None
    else:
        if c % a:
            return None
        lo, hi = max(lo, c // a), c // a
    k = len(side)
    for bits in range(1, 1 << k):
        X = [side[i] for i in range(k) if bits >> i & 1]
        nx_mask = 0
        for v in X:
            nx_mask |= nbr[v]
        N = _bits(nx_mask)
        r = _bound(lo, hi, len(X) - len(N), sum(w[v] for v in X) - sum(w[v] for v in N))
        if r is None:
            return None
        lo, hi = r
    return _interval_min(lo, hi)


def tutte_min_beta(n, edges, w):
    """Minimum uniform target of a small instance by enumerating every
    subset U: within one parity class of beta, the subset condition at U
    reads beta*(|U| - |I(U)|) >= w(U) - w(I(U)) + S(G-U)."""
    nbr = adjacency(n, edges)
    best = None
    for p in admissible_parities(n, w):
        lo, hi = max(w), None
        for umask in range(1 << n):
            iso = isolated(nbr, n, umask)
            s = s_count(nbr, n, w, umask, p)
            a = bin(umask).count("1") - bin(iso).count("1")
            r = _bound(lo, hi, -a, -(_wsum(w, umask) - _wsum(w, iso) + s))
            if r is None:
                lo = None
                break
            lo, hi = r
        if lo is not None:
            beta = _interval_min(lo, hi, p)
            if beta is not None and (best is None or beta < best):
                best = beta
    return best


def _flow_value(arcs, sources, sinks) -> int:
    g = nx.DiGraph()
    g.add_node("s")
    g.add_node("t")
    for v, cap in sources:
        g.add_edge("s", v, capacity=cap)
    for v, cap in sinks:
        g.add_edge(v, "t", capacity=cap)
    for u, v in arcs:
        g.add_edge(u, v)  # no capacity attribute: unbounded
    return nx.maximum_flow_value(g, "s", "t")


def bipartite_feasible_nx(edges, w, left, beta) -> bool:
    """Perfect b-matching on a bipartite graph by networkx max-flow."""
    b = [beta - x for x in w]
    lset = set(left)
    arcs = [(u, v) if u in lset else (v, u) for u, v in edges]
    sources = [(v, b[v]) for v in range(len(w)) if v in lset]
    sinks = [(v, b[v]) for v in range(len(w)) if v not in lset]
    total = sum(c for _, c in sources)
    return total == sum(c for _, c in sinks) and _flow_value(arcs, sources, sinks) == total


def fractional_feasible_nx(n, edges, w, beta) -> bool:
    """Fractional perfect b-matching (a necessary condition) by max-flow on
    the bipartite double cover: copies ('L', v) and ('R', v) with demand
    b(v), and arcs ('L', u) -> ('R', v) both ways for every edge uv."""
    b = [beta - x for x in w]
    arcs = [(("L", u), ("R", v)) for u, v in edges] + [(("L", v), ("R", u)) for u, v in edges]
    sources = [(("L", v), b[v]) for v in range(n)]
    sinks = [(("R", v), b[v]) for v in range(n)]
    return _flow_value(arcs, sources, sinks) == sum(b)


# ------------------------------------------------------------ equate


def check_plan(n, edges, w, doc) -> str | None:
    """Replay the plan: positive counts on graph edges, uniform result at
    beta, and 2*steps = n*beta - sum(w)."""
    beta, plan = doc["beta"], doc["plan"]
    if not isinstance(beta, int) or not isinstance(plan, list) or doc["certificate"] is not None:
        return "wrong_shape"
    eset = set(edges)
    out = list(w)
    steps = 0
    keys = []
    for entry in plan:
        u, v = entry["edge"]
        k = entry["count"]
        if (min(u, v), max(u, v)) not in eset or not isinstance(k, int) or k < 1:
            return "wrong_plan"
        keys.append((u, v))
        out[u] += k
        out[v] += k
        steps += k
    if keys != sorted(set(keys)) or any(x != beta for x in out):
        return "wrong_plan"
    if 2 * steps != n * beta - sum(w):
        return "wrong_plan"
    return None


def check_certificate(n, edges, w, cert) -> tuple[str | None, set]:
    """Recompute each Tutte certificate from the subset definition.
    Returns (problem, parities the certificates rule out entirely)."""
    ctype = cert.get("type")
    if ctype == "parity":
        ok = n % 2 == 0 and sum(w) % 2 == 1
        return (None if ok else "wrong_certificate"), {0, 1}
    if ctype == "tutte":
        per = {cert["parity"]: cert}
    elif ctype == "tutte_per_parity":
        per = {p: cert[p] for p in ("even", "odd") if p in cert}
    else:
        return "wrong_certificate", set()
    wanted = {("even", "odd")[p] for p in admissible_parities(n, w)}
    if set(per) != wanted:
        return "wrong_certificate", set()
    nbr = adjacency(n, edges)
    ruled_out = set()
    for pname, c in per.items():
        p = 0 if pname == "even" else 1
        U = c["U"]
        if U != sorted(set(U)) or any(not 0 <= v < n for v in U):
            return "wrong_certificate", set()
        umask = _mask(U)
        iso = isolated(nbr, n, umask)
        s = s_count(nbr, n, w, umask, p)
        if _bits(iso) != c["isolated"] or s != c["s_count"]:
            return "wrong_certificate", set()
        slope = len(U) - bin(iso).count("1")
        const = _wsum(w, umask) - _wsum(w, iso) + s
        d = c["deficiency"]
        if d < 1:
            return "wrong_certificate", set()
        if slope == 0:
            if d != const:
                return "wrong_certificate", set()
            ruled_out.add(p)
            continue
        # the deficiency at the probe is const - slope*beta: recover beta
        if (const - d) % slope:
            return "wrong_certificate", set()
        beta = (const - d) // slope
        if beta % 2 != p or beta < max(w):
            return "wrong_certificate", set()
    return None, ruled_out


def check_equate(data, doc, verified: Counter) -> str | None:
    """Validity of an equate answer, and its minimality or verdict wherever
    an independent computation is affordable."""
    n, edges, w = data["n"], data["edges"], data["w"]
    if doc["equatable"]:
        bad = check_plan(n, edges, w, doc)
        if bad:
            return bad
    else:
        if doc["beta"] is not None or doc["plan"] is not None or not doc["certificate"]:
            return "wrong_shape"
        bad, ruled_out = check_certificate(n, edges, w, doc["certificate"])
        if bad:
            return bad
    beta = doc["beta"]
    if "left" in data:
        truth = bipartite_min_beta(n, edges, w, data["left"], data["right"])
        if truth != beta:
            return "wrong_beta"
        # the same answer again, by networkx max-flow
        probe = beta if beta is not None else max(w)
        if bipartite_feasible_nx(edges, w, data["left"], probe) != (beta is not None):
            return "wrong_beta"
        if beta is not None and beta - 1 >= max(w) and bipartite_feasible_nx(
                edges, w, data["left"], beta - 1):
            return "wrong_beta"
        verified["minimality_by_flow"] += 1
        return None
    if n <= ENUM_N:
        if tutte_min_beta(n, edges, w) != beta:
            return "wrong_beta"
        verified["minimality_by_enumeration"] += 1
        return None
    if beta is None:
        if ruled_out >= set(admissible_parities(n, w)):
            verified["infeasible_by_certificate"] += 1
        else:
            verified["validity_only"] += 1
        return None
    # every lower target of an admissible parity must fail; the double
    # cover's flow proves it where the fractional relaxation already fails
    lower = [x for x in range(max(w), beta) if x % 2 in admissible_parities(n, w)]
    if all(not fractional_feasible_nx(n, edges, w, x) for x in lower):
        verified["minimality_by_fractional_flow"] += 1
    else:
        verified["validity_only"] += 1
    return None


def check_invariance(role, base_doc, doc, tag) -> str | None:
    """A relabelled copy has the same answer; w + c moves beta by c."""
    if base_doc is None or doc["equatable"] != base_doc["equatable"]:
        return f"invariance_{role}"
    if doc["beta"] is None:
        return None
    shift = tag.get("c", 0) if role == "shift" else 0
    return None if doc["beta"] == base_doc["beta"] + shift else f"invariance_{role}"


# ----------------------------------------------------------- classify


def hall_violated(nbr, X) -> bool:
    nb = 0
    for v in X:
        nb |= nbr[v]
    return bin(nb).count("1") <= len(X)


def strict_hall_truth(n, edges, left, right):
    """Strict Hall (|N(X)| > |X| for nonempty X properly inside a side): by
    enumeration on small sides; for equal sides of size k >= 2 through its
    equivalent, the graph being elementary (connected, and every edge in
    some perfect matching; Lovasz-Plummer, Matching Theory, 4.1.1)."""
    nbr = adjacency(n, edges)
    if max(len(left), len(right)) <= ENUM_N:
        for side in (left, right):
            for size in range(1, len(side)):
                for X in itertools.combinations(side, size):
                    if hall_violated(nbr, X):
                        return False
        return True
    if len(left) != len(right):
        return False
    return elementary_nx(n, edges, left)


def elementary_nx(n, edges, left) -> bool:
    """Connected bipartite graph whose alternating digraph for a perfect
    matching is strongly connected, i.e. every edge is in a perfect
    matching.  Uses networkx matching and strong connectivity."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    if not nx.is_connected(g):
        return False
    match = nx.bipartite.hopcroft_karp_matching(g, top_nodes=set(left))
    if len(match) != n:
        return False
    lset = set(left)
    d = nx.DiGraph()
    d.add_nodes_from(range(n))
    for u, v in edges:
        x, y = (u, v) if u in lset else (v, u)
        if match[x] == y:
            d.add_edge(y, x)
        else:
            d.add_edge(x, y)
    return nx.is_strongly_connected(d)


def check_strict_hall(data, doc) -> str | None:
    n, edges, left, right = data["n"], data["edges"], data["left"], data["right"]
    verdict, X = doc["strict_hall"], doc["hall_witness"]
    if verdict:
        if X is not None:
            return "wrong_shape"
    else:
        side = left if X and X[0] in set(left) else right
        if not X or not set(X) < set(side) or not hall_violated(adjacency(n, edges), X):
            return "wrong_witness"
    return None if strict_hall_truth(n, edges, left, right) == verdict else "wrong_verdict"


def check_universal(data, doc) -> str | None:
    """Universal iff connected, n odd and no nonempty U isolates |U| or more
    vertices.  A False answer is checked through its witness; a True one
    by the bipartite double cover being elementary, which rules out every
    such U (an independent S = I(U) with |N(S)| <= |S| would break strict
    Hall on the cover)."""
    n, edges = data["n"], data["edges"]
    verdict, reason, U = doc["universal"], doc["reason"], doc["witness"]
    if n <= 1:
        return None if verdict else "wrong_verdict"
    connected = is_connected(n, edges)
    if reason == "disconnected":
        return None if not verdict and not connected else "wrong_verdict"
    if reason == "even_order":
        return None if not verdict and connected and n % 2 == 0 else "wrong_verdict"
    if not connected or n % 2 == 0:
        return "wrong_verdict"
    nbr = adjacency(n, edges)
    if reason == "isolated_condition":
        if verdict or not U or U != sorted(set(U)):
            return "wrong_witness"
        iso = isolated(nbr, n, _mask(U))
        return None if bin(iso).count("1") >= len(U) else "wrong_witness"
    if not verdict or reason is not None or U is not None:
        return "wrong_shape"
    cover = [(u, n + v) for u, v in edges] + [(v, n + u) for u, v in edges]
    return None if elementary_nx(2 * n, cover, list(range(n))) else "wrong_verdict"


# --------------------------------------------------------- hypergraph


def exact_cover(n, hedges):
    """Sorted edge indices of a perfect matching of the hypergraph, or None."""
    by_vertex = [[i for i, e in enumerate(hedges) if v in e] for v in range(n)]
    masks = [_mask(e) for e in hedges]
    full = (1 << n) - 1

    def rec(covered, chosen):
        if covered == full:
            return chosen
        v = (~covered & (covered + 1)).bit_length() - 1
        for i in by_vertex[v]:
            if not masks[i] & covered:
                got = rec(covered | masks[i], chosen + [i])
                if got is not None:
                    return got
        return None

    got = rec(0, [])
    return sorted(got) if got is not None else None


def parse_instance_text(text):
    """(n, edges or hyperedges in file order, weights) of an instance file."""
    n, hedges, w = None, [], {}
    for line in text.splitlines():
        toks = line.split("#")[0].split()
        if not toks:
            continue
        if toks[0] == "graph":
            n = int(toks[1])
        elif toks[0] in ("e", "h"):
            hedges.append(tuple(sorted(int(t) for t in toks[1:])))
        elif toks[0] == "w":
            w[int(toks[1])] = int(toks[2])
    return n, hedges, tuple(w.get(v, 0) for v in range(n))
