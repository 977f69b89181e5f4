"""Matching and flow primitives.

Maximum matching on general graphs (Edmonds' blossom algorithm, array
based, breadth-first with deterministic scan order), bipartite matching
by Kuhn's augmenting paths and by Hopcroft and Karp's phases, and
Dinic's max flow (Dinic 1970).

The b-matching engine builds on blossom and Dinic, and Dinic serves the
engine alone: it runs on the bipartite double cover of
bmatch._double_cover, or one copy of it for a bipartite graph, for every
engine probe.  universal_equatable needs the unit demands only, and with
those a flow on the cover is a matching of V against V along G's
adjacency lists.  unit_matching computes it by Hopcroft and Karp's
phases (SIAM J. Comput. 2, 1973) without per-arc flows, residual
capacities or bottlenecks, and leaves exactly the matching that
Dinic.max_flow((1,) * n) leaves; its docstring argues it step by step.

strict_hall builds one matching per call with Kuhn's
bipartite_matching; a positive answer needs nothing more from this
module, and a negative one repairs a copy of it for each vertex pair
with the same augment, kuhn_augment, and reads the witness off the first
failing pair's copy with left_deficient_set.  The searches of one call
share one seen array, each with a fresh mark, so a search costs what it
explores, not k; a matching whose searches stay short, as on a cycle,
is no longer quadratic.

Dinic's network has two layers, s -> L -> R -> t, and Dinic keeps it
implicit: a fixed topology of per-copy arc lists, which BMatchEngine
builds once for all of its probes, and per flow only the flows on the
arcs between the copies and the residual capacities of the source and
sink arcs.  It leaves exactly the flow of the textbook method on the
explicit network, skipping only steps that cannot change it; its
docstring argues both.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

Adjacency = Sequence[Sequence[int]]


def greedy_matching(adj: Adjacency) -> list[int]:
    """Maximal matching by first-fit: scan vertices ascending, match each
    exposed vertex to its first exposed neighbor.  Seed for the blossom
    search; deterministic."""
    n = len(adj)
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    return match


class _BlossomSearch:
    """One alternating-tree search with blossom contraction.

    base[v] is the representative of the contracted blossom containing v,
    p[v] the tree parent of an odd vertex, used[v] marks even (outer)
    vertices.  find_from() grows a tree from one exposed root and returns
    the exposed far endpoint of an augmenting path, or -1.  The matching
    itself is not modified; callers augment via the p[] chain.

    The arrays live across searches: tree lists the vertices the last
    search touched, in the order it reached them, and only those are
    reset before the next one, so a search costs what it explores.
    """

    def __init__(self, adj: Adjacency, match: list[int]):
        self.adj = adj
        self.match = match
        n = len(adj)
        self.p = [-1] * n
        self.base = list(range(n))
        self.used = [False] * n
        self.tree: list[int] = []
        # _lca marks a vertex with the number of the call that saw it
        self.seen = [0] * n
        self.stamp = 0

    def _lca(self, a: int, b: int) -> int:
        base, match, p, seen = self.base, self.match, self.p, self.seen
        self.stamp += 1
        stamp = self.stamp
        while True:
            a = base[a]
            seen[a] = stamp
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if seen[b] == stamp:
                return b
            b = p[match[b]]

    def _mark_path(self, v: int, b: int, child: int, blossom: set[int]) -> None:
        while self.base[v] != b:
            blossom.add(self.base[v])
            blossom.add(self.base[self.match[v]])
            self.p[v] = child
            child = self.match[v]
            v = self.p[self.match[v]]

    def find_from(self, root: int) -> int:
        """Grow the tree from root; the far end of an augmenting path, or -1.

        A contraction through curbase relabels the members of the bases in
        blossom and enqueues the odd ones among them, in ascending order.
        The textbook search scans all n vertices for those whose base lies
        in blossom.  Bases are tree vertices, and only tree vertices have a
        base other than themselves, so that scan finds exactly the members
        of those bases.  Members of curbase keep their base and are even
        already, so the scan changes nothing at them.  Taking the members
        of the other bases, sorted, therefore relabels the same set and
        enqueues the same vertices in the same order, and the search and
        its matching stay those of the full scan, at a cost per contraction
        of the blossom's members rather than of the whole tree.
        """
        match, base, p, used = self.match, self.base, self.p, self.used
        for v in self.tree:
            p[v] = -1
            base[v] = v
            used[v] = False
        self.tree = tree = [root]
        # members[b] lists the tree vertices whose base is b, for each b
        # that has absorbed a blossom; any other tree vertex is its own base
        members: dict[int, list[int]] = {}
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in self.adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # even-even edge: contract the blossom through the lca,
                    # relabelling the members of its other bases
                    curbase = self._lca(v, to)
                    blossom: set[int] = set()
                    self._mark_path(v, curbase, to, blossom)
                    self._mark_path(to, curbase, v, blossom)
                    blossom.discard(curbase)
                    moved: list[int] = []
                    for b in blossom:
                        moved += members.pop(b, (b,))
                    members.setdefault(curbase, [curbase]).extend(moved)
                    moved.sort()
                    for i in moved:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            q.append(i)
                elif p[to] == -1:
                    # to is outside the tree: a tree vertex is the root,
                    # an odd vertex (p set) or the partner of one
                    p[to] = v
                    tree.append(to)
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    tree.append(match[to])
                    q.append(match[to])
        return -1


def maximum_matching(adj: Adjacency, start: Optional[Sequence[int]] = None) -> list[int]:
    """Maximum matching; returns match[v] = partner or -1.  Grows the
    matching `start` (left unchanged) when given, else a greedy maximal
    one; a search runs only from the vertices it leaves exposed.
    Deterministic for a fixed adjacency order and start."""
    n = len(adj)
    match = greedy_matching(adj) if start is None else list(start)
    search = _BlossomSearch(adj, match)
    for v in range(n):
        if match[v] != -1:
            continue
        u = search.find_from(v)
        while u != -1:
            pv = search.p[u]
            ppv = match[pv]
            match[u] = pv
            match[pv] = u
            u = ppv
    return match


def even_reachable(adj: Adjacency, match: list[int]) -> list[int]:
    """Vertices reachable from some exposed vertex by an even alternating
    path, blossoms contracted.  For a maximum matching this is exactly the
    set of vertices missed by at least one maximum matching.

    Raises ValueError if the given matching is not maximum (an augmenting
    path turns up during the scan).
    """
    n = len(adj)
    outer = [False] * n
    search = _BlossomSearch(adj, match)
    for v in range(n):
        if match[v] != -1:
            continue
        if search.find_from(v) != -1:
            raise ValueError("matching is not maximum")
        for i in search.tree:
            if search.used[i]:
                outer[i] = True
    return [v for v in range(n) if outer[v]]


def kuhn_augment(
    adj_lr: Adjacency, ml: list[int], mr: list[int], i: int, seen: list[int], mark: int
) -> bool:
    """Kuhn's augmenting-path search from the exposed left vertex i.

    Right vertex j counts as seen in this search iff seen[j] == mark.
    The search walks the right neighbors of i in adjacency order,
    skipping the seen ones and marking each one it enters; on finding an
    augmenting path it flips it into ml/mr and returns True.  One seen
    array serves many searches: a caller gives each search a mark that
    no entry holds yet, so no entry is ever reset and a search costs
    what it explores.  A caller can pre-mark right vertices with the
    search's mark to keep them off every path.  Recursive, one frame per
    left vertex on the path.
    """
    for j in adj_lr[i]:
        if seen[j] != mark:
            seen[j] = mark
            if mr[j] == -1 or kuhn_augment(adj_lr, ml, mr, mr[j], seen, mark):
                ml[i] = j
                mr[j] = i
                return True
    return False


def bipartite_matching(adj_lr: Adjacency, n_right: int) -> tuple[list[int], list[int]]:
    """Maximum matching in a bipartite graph by Kuhn's augmenting paths.

    adj_lr[i] lists the right-side indices adjacent to left vertex i.
    Returns (match_left, match_right) with -1 for exposed vertices.  One
    seen array serves the whole call, the search from i marking with
    i + 1, so the call costs what its searches explore.
    """
    nl = len(adj_lr)
    ml = [-1] * nl
    mr = [-1] * n_right
    seen = [0] * n_right
    for i in range(nl):
        kuhn_augment(adj_lr, ml, mr, i, seen, i + 1)
    return ml, mr


def left_deficient_set(adj_lr: Adjacency, ml: list[int], mr: list[int]) -> list[int]:
    """Hall violator from a maximum bipartite matching that leaves some
    left vertex exposed: the left vertices reachable from an exposed one
    by alternating paths.  Their joint neighborhood is fully matched into
    the set, so it is strictly smaller than the set."""
    exposed = [i for i, j in enumerate(ml) if j == -1]
    if not exposed:
        raise ValueError("matching saturates the left side")
    in_x = set(exposed)
    seen_r: set[int] = set()
    frontier = list(exposed)
    while frontier:
        nxt = []
        for i in frontier:
            for j in adj_lr[i]:
                if j not in seen_r:
                    seen_r.add(j)
                    i2 = mr[j]
                    if i2 != -1 and i2 not in in_x:
                        in_x.add(i2)
                        nxt.append(i2)
        frontier = nxt
    return sorted(in_x)


def unit_matching(
    adj_lr: Adjacency, n_right: int
) -> tuple[list[int], list[int], Optional[list[int]]]:
    """Maximum bipartite matching by Hopcroft and Karp's phases, leaving
    exactly the matching of Dinic.max_flow((1,) * n) on the network whose
    middle arcs a_L -> c_R follow adj_lr[a] in order.

    adj_lr[a] lists the right vertices adjacent to left vertex a.  Returns
    (match_left, match_right, reach) with -1 for exposed vertices.  reach
    is None when every left vertex is matched; otherwise reach[a] >= 0
    exactly for the left vertices that alternating paths reach from an
    exposed one, the left copies that Dinic's last, failing BFS levels.

    With unit capacities a flow is a matching: the residual arcs are
    a_L -> c_R along every edge (never saturated, see Dinic), s -> a_L
    and c_R -> t while a and c are exposed, and c_R -> a_L back along
    each matched edge; every push carries one unit.  Levels count as
    Dinic counts them, so each step of Dinic's method reads as a step
    here, and a node pruned here is one that cannot reach t.
    - The greedy phase gives each left vertex, ascending, its first
      exposed neighbour in adj_lr order, as Dinic's greedy phase does.
    - A BFS levels the exposed lefts at 1, in ascending order, then
      layer by layer the unlevelled neighbours of a left layer, in order
      of discovery, and the mates of those rights, in the same order.
      Dinic's queue holds the same layers in the same order and pops a
      right layer only after the whole left layer before it, and it stops
      at the first exposed right it pops.  So every right of that layer
      has its level, the sink is one level above it, and no exposed right
      lies lower.  Dinic also levels the mates of the rights popped
      before that one, at the sink's level, where no right lies above
      them: its search enters them only to find dead ends, and here the
      matched rights of the last layer are dead ends at once.
    - A search runs from each exposed left, ascending, and takes rights
      in adj_lr order past a current-arc pointer, one level up.  An
      exposed right ends the path, which flips, and Dinic, its source arc
      saturated, resumes at s with the next exposed left.  A matched right
      leads to its mate if the mate lies one level up; any other right
      is a dead end.  After a flip the only arc into a path's left comes
      from its new mate, and the only arc out of a path's right goes to
      its new mate; both run one level down, so no later search of the
      phase passes either node, here or in Dinic.
    - A left with no untried right one level up is a dead end.  It leaves
      the layered graph and takes the right that led to it along, as
      that right leads nowhere else; the pointer behind them moves on.
    - The phases end when no exposed left is left (reach None) or when a
      BFS pops no exposed right; its left levels are then reach.
    """
    nl = len(adj_lr)
    ml = [-1] * nl
    mr = [-1] * n_right
    for a in range(nl):
        for c in adj_lr[a]:
            if mr[c] == -1:
                ml[a] = c
                mr[c] = a
                break
    while True:
        free = [a for a in range(nl) if ml[a] == -1]
        if not free:
            return ml, mr, None
        level = [-1] * nl
        rlevel = [-1] * n_right
        for a in free:
            level[a] = 1
        layer = free
        d = 2
        while layer:
            found: list[int] = []
            for v in layer:
                for c in adj_lr[v]:
                    if rlevel[c] < 0:
                        rlevel[c] = d
                        found.append(c)
            layer = [mr[c] for c in found]
            if -1 in layer:
                break
            d += 1
            for a in layer:
                level[a] = d
            d += 1
        else:
            # no exposed right in reach: the matching is maximum
            return ml, mr, level
        it = [0] * nl
        for root in free:
            path = [root]
            v = root
            while True:
                row = adj_lr[v]
                d = level[v] + 1
                i = it[v]
                k = len(row)
                while i < k and rlevel[row[i]] != d:
                    i += 1
                if i == k:
                    # dead end: v and the right that led to it leave
                    level[v] = -1
                    path.pop()
                    if not path:
                        break
                    rlevel[ml[v]] = -1
                    v = path[-1]
                    it[v] += 1
                    continue
                it[v] = i
                c = row[i]
                m = mr[c]
                if m == -1:
                    for a in path:
                        c = adj_lr[a][it[a]]
                        ml[a] = c
                        mr[c] = a
                    break
                if level[m] == d + 1:
                    path.append(m)
                    v = m
                else:
                    rlevel[c] = -1
                    it[v] = i + 1


class Dinic:
    """Integer max flow by Dinic's method on the two-layer network of a
    b-matching, s -> L -> R -> t, whose arcs are implicit.  It serves
    BMatchEngine alone; unit demands on the full cover go to
    unit_matching, which leaves the same matching.

    Node a (0 <= a < n) is the left copy a_L, n + c the right copy c_R,
    2n the source s and 2n + 1 the sink t.  The topology is fixed: lefts
    lists, ascending, the vertices with a source arc s -> a_L; adj[a]
    holds the (arc, n + c) pairs of the middle arcs a_L -> c_R, and
    adj[n + c] the (arc, a) pairs of the same arcs at c_R, both in arc
    order; every right copy drains into t by c_R -> t.
    bmatch._double_cover builds it.

    max_flow(b) gives s -> a_L and c_R -> t the capacities b(a) and b(c).
    It leaves the flow on each middle arc in flow, the residual capacities
    of s -> a_L and c_R -> t in rest[a] and rest[n + c], and, when the
    flow is short of the source's capacity, the levels of its last,
    failing BFS in level: level[v] >= 0 exactly for the nodes that the
    residual graph reaches from s, the source side of the smallest min
    cut.  Capacities are Python ints of any size.

    A middle arc has no capacity.  The explicit network gave it
    sum(b) + 1, and that never bound a step.  All flow into a_L enters by
    s -> a_L and all flow out of c_R leaves by c_R -> t, so
    f(a_L -> c_R) <= min(b(a), b(c)) <= sum(b)/2 (a != c, as G has no
    loops), and the arc's residual capacity stays above sum(b)/2.  The
    bottleneck of an augmenting path s -> a_L -> ... -> c_R -> t is at
    most min(b(a), b(c)) <= sum(b)/2 when a != c; when a = c the path
    turns back from some R copy by a reverse middle arc, whose residual
    capacity is a flow, at most sum(b)/2.  So a middle arc is never the
    bottleneck of a push and never saturates: it is always residual, and
    every step below is a step on the explicit network.

    The flow is that of the textbook method: a BFS levelling per phase,
    then recursive searches from s that each push the bottleneck of one
    path along current-arc pointers, over each node's arcs in the order
    the explicit network listed them (at a_L its reverse source arc, never
    admissible, then adj[a]; at c_R its sink arc, then adj[n + c]).  The
    kernel skips only steps that cannot change it:
    - the first phase is one greedy pass.  Its level graph holds exactly
      the paths s -> a_L -> c_R -> t with residual capacity, and its
      search takes them in arc order, each push saturating s -> a_L (the
      search moves on to the next a) or c_R -> t (it moves on to the next
      arc of a);
    - a BFS stops once t has its level, since nothing levelled after t
      can lie on a path of the level graph;
    - after a push the search resumes at the tail of the first saturated
      arc instead of at s, since the recursion walks back down the same
      pointers to exactly there;
    - no phase runs once every source arc is saturated, as no augmenting
      path is left; level is then None.
    The double-cover rounding and the parity repair downstream therefore
    see the same flow whichever of these steps run."""

    def __init__(self, lefts: Sequence[int], adj: Sequence[Sequence[tuple[int, int]]], arcs: int):
        self.n = len(adj) // 2
        self.lefts = lefts
        self.adj = adj
        self.arcs = arcs

    def max_flow(self, b: Sequence[int]) -> int:
        """Value of a maximum flow for the capacities b."""
        adj = self.adj
        self.rest = rest = [*b, *b]
        self.flow = flow = [0] * self.arcs
        full = total = 0
        for a in self.lefts:
            left = rest[a]
            if not left:
                continue
            full += left
            for arc, c in adj[a]:
                d = rest[c]
                if not d:
                    continue
                if d < left:
                    flow[arc] = d
                    rest[c] = 0
                    left -= d
                else:
                    flow[arc] = left
                    rest[c] = d - left
                    left = 0
                    break
            total += rest[a] - left
            rest[a] = left
        while total < full:
            if not self._bfs():
                break
            total += self._blocking_flow()
        else:
            self.level: Optional[list[int]] = None
        return total

    def _bfs(self) -> bool:
        """Level the nodes by residual distance from s, stopping as soon as
        t gets its level."""
        n, adj, rest, flow = self.n, self.adj, self.rest, self.flow
        self.level = level = [-1] * (2 * n + 2)
        level[2 * n] = 0
        q = [a for a in self.lefts if rest[a]]
        for a in q:
            level[a] = 1
        for v in q:
            d = level[v] + 1
            if v < n:
                for _, c in adj[v]:
                    if level[c] < 0:
                        level[c] = d
                        q.append(c)
                continue
            if rest[v]:
                level[-1] = d
                return True
            for arc, a in adj[v]:
                if flow[arc] and level[a] < 0:
                    level[a] = d
                    q.append(a)
        return False

    def _blocking_flow(self) -> int:
        """Push a blocking flow of the level graph and return its value.

        Depth-first with an explicit stack and current-arc pointers it[v]:
        into lefts at s, into adj[v] at a_L, and at c_R, 0 for the sink
        arc and i > 0 for adj[v][i - 1].  path holds the nodes from s and
        mids the middle arcs between them, mids[i] from path[i + 1] to
        path[i + 2]: forward at even i, reverse at odd i.  A node that
        dead-ends leaves the level graph, so no later path enters it."""
        n, lefts, adj = self.n, self.lefts, self.adj
        rest, flow, level = self.rest, self.flow, self.level
        s = 2 * n
        sink_level = level[-1]
        it = [0] * (s + 1)
        path = [s]
        mids: list[int] = []
        pushed = 0
        v = s
        while True:
            if v < n:
                arcs = adj[v]
                d = level[v] + 1
                for i in range(it[v], len(arcs)):
                    arc, c = arcs[i]
                    if level[c] == d:
                        it[v] = i
                        mids.append(arc)
                        path.append(c)
                        v = c
                        break
                else:
                    # dead end: retreat one arc and skip it at its tail
                    level[v] = -1
                    path.pop()
                    v = path[-1]
                    if v != s:
                        mids.pop()
                    it[v] += 1
                continue
            if v == s:
                for i in range(it[s], len(lefts)):
                    a = lefts[i]
                    if rest[a] and level[a] == 1:
                        it[s] = i
                        path.append(a)
                        v = a
                        break
                else:
                    return pushed
                continue
            d = level[v] + 1
            i = it[v]
            if not i:
                if rest[v] and d == sink_level:
                    # push the bottleneck, then resume at the tail of the
                    # first saturated arc: s -> a_L, a reverse arc, c_R -> t
                    a = path[1]
                    p = min(rest[a], rest[v])
                    for arc in mids[1::2]:
                        if flow[arc] < p:
                            p = flow[arc]
                    pushed += p
                    rest[a] -= p
                    rest[v] -= p
                    keep = 0 if rest[a] else 1
                    for j, arc in enumerate(mids):
                        if j & 1:
                            flow[arc] -= p
                            if not (keep or flow[arc]):
                                keep = j + 2
                        else:
                            flow[arc] += p
                    if keep:
                        del path[keep:]
                        del mids[max(keep - 2, 0):]
                        v = path[-1]
                    continue
                i = 1
            arcs = adj[v]
            for i in range(i - 1, len(arcs)):
                arc, a = arcs[i]
                if flow[arc] and level[a] == d:
                    it[v] = i + 1
                    mids.append(arc)
                    path.append(a)
                    v = a
                    break
            else:
                level[v] = -1
                path.pop()
                v = path[-1]
                mids.pop()
                it[v] += 1
