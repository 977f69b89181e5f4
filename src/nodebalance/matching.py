"""Matching and flow primitives.

Maximum matching on general graphs (Edmonds' blossom algorithm, array
based, breadth-first with deterministic scan order), bipartite matching
by Kuhn's augmenting paths, and Dinic's max flow (Dinic 1970).  The
b-matching engine builds on blossom and Dinic, and Dinic runs on one
kind of network only: the bipartite double cover of bmatch._double_cover,
or one copy of it for a bipartite graph, which serves every engine probe
and universal_equatable.  strict_hall's pairwise-deletion checks use
Kuhn's bipartite_matching.

The flow leaves exactly the residual capacities of the textbook method:
a BFS levelling per phase, then recursive searches from s that each push
the bottleneck of one path along current-arc pointers.  It only skips
steps that cannot change them:
- the BFS stops once t has its level, since nothing levelled after t can
  lie on a path of the level graph;
- after a push the search resumes at the tail of the first saturated arc
  instead of at s, since the recursion walks back down the same
  pointers to exactly there; the bottleneck is the minimum over the path
  alone, so a push costs the same at any capacity size;
- on the double cover, a two-layer network (s -> L -> R -> t), a greedy
  pass over the paths in arc order pushes the first blocking flow, which
  is what the first phase's search does there (Dinic.two_layer_max_flow).
The double-cover rounding and the parity repair downstream therefore see
the same flow whichever of these steps run.
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
        match, base, p, used = self.match, self.base, self.p, self.used
        for v in self.tree:
            p[v] = -1
            base[v] = v
            used[v] = False
        self.tree = tree = [root]
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in self.adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # even-even edge: contract the blossom through the lca.
                    # Only tree vertices can lie in it, and they are taken
                    # in ascending order, as a scan over all n would.
                    curbase = self._lca(v, to)
                    blossom: set[int] = set()
                    self._mark_path(v, curbase, to, blossom)
                    self._mark_path(to, curbase, v, blossom)
                    for i in sorted(tree):
                        if base[i] in blossom:
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


def matching_size(match: Sequence[int]) -> int:
    return sum(1 for v, u in enumerate(match) if u != -1 and u > v)


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


def bipartite_matching(adj_lr: Adjacency, n_right: int) -> tuple[list[int], list[int]]:
    """Maximum matching in a bipartite graph by Kuhn's augmenting paths.

    adj_lr[i] lists the right-side indices adjacent to left vertex i.
    Returns (match_left, match_right) with -1 for exposed vertices.
    """
    nl = len(adj_lr)
    ml = [-1] * nl
    mr = [-1] * n_right

    def augment(i: int, seen: list[bool]) -> bool:
        for j in adj_lr[i]:
            if not seen[j]:
                seen[j] = True
                if mr[j] == -1 or augment(mr[j], seen):
                    ml[i] = j
                    mr[j] = i
                    return True
        return False

    for i in range(nl):
        augment(i, [False] * n_right)
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


class Dinic:
    """Integer max flow by Dinic's method.  Edges are paired (id, id^1)
    with the reverse edge holding the pushed flow as residual capacity.
    Capacities are Python ints of any size."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        eid = len(self.to)
        self.head[u].append(eid)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(0)
        return eid

    def edge_flow(self, eid: int) -> int:
        return self.cap[eid ^ 1]

    def _bfs(self, s: int, t: int) -> bool:
        """Level the nodes by residual distance from s, stopping as soon as
        t gets its level: every node levelled later lies at t's distance or
        beyond, so no path of the level graph passes it."""
        head, to, cap = self.head, self.to, self.cap
        self.level = level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            v = q.popleft()
            d = level[v] + 1
            for eid in head[v]:
                u = to[eid]
                if cap[eid] > 0 and level[u] == -1:
                    level[u] = d
                    if u == t:
                        return True
                    q.append(u)
        return False

    def _blocking_flow(self, s: int, t: int) -> int:
        """Push a blocking flow of the level graph and return its value.

        Depth-first with an explicit stack and current-arc pointers it[v],
        trying arcs in the order of the textbook recursion at any path
        length.  After a push the search resumes at the tail of the first
        saturated arc, where the recursion would return to; the path up to
        there still has residual capacity.  A node that dead-ends leaves
        the level graph, so no later path enters it."""
        head, to, cap, level = self.head, self.to, self.cap, self.level
        it = [0] * self.n
        path: list[int] = []
        flow = 0
        v = s
        while True:
            if v == t:
                pushed = min([cap[eid] for eid in path])
                flow += pushed
                cut = -1
                for i, eid in enumerate(path):
                    left = cap[eid] - pushed
                    cap[eid] = left
                    cap[eid ^ 1] += pushed
                    if not left and cut < 0:
                        cut = i
                v = to[path[cut] ^ 1]
                del path[cut:]
                continue
            arcs = head[v]
            i = it[v]
            d = level[v] + 1
            while i < len(arcs):
                eid = arcs[i]
                if cap[eid] > 0 and level[to[eid]] == d:
                    break
                i += 1
            else:
                # dead end: retreat one arc and skip it at its tail
                if not path:
                    return flow
                level[v] = -1
                v = to[path.pop() ^ 1]
                it[v] += 1
                continue
            it[v] = i
            path.append(eid)
            v = to[eid]

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while self._bfs(s, t):
            flow += self._blocking_flow(s, t)
        return flow

    def two_layer_max_flow(self, s: int, t: int) -> int:
        """max_flow on a network with no flow yet whose arcs all run
        s -> L, L -> R or R -> t, with at most one arc R -> t per R node:
        the double cover of bmatch._double_cover, whole or one copy.

        Dinic's first level graph there holds exactly the paths
        s -> a -> c -> t with residual capacity, and its depth-first
        search takes them in arc order: each push saturates s -> a (the
        search moves on to the next a) or a -> c or c -> t (it moves on to
        the next arc of a).  One greedy pass over the same paths in the
        same order therefore pushes the same first blocking flow, without
        the level graph, and max_flow finishes from there with the
        residual capacities Dinic's method leaves at that point."""
        head, to, cap = self.head, self.to, self.cap
        sink = [-1] * self.n
        for eid in head[t]:
            sink[to[eid]] = eid ^ 1
        flow = 0
        for e1 in head[s]:
            left = cap[e1]
            if left <= 0:
                continue
            for e2 in head[to[e1]]:
                e3 = sink[to[e2]]
                if e3 < 0 or cap[e2] <= 0 or cap[e3] <= 0:
                    continue
                pushed = min(left, cap[e2], cap[e3])
                cap[e2] -= pushed
                cap[e2 ^ 1] += pushed
                cap[e3] -= pushed
                cap[e3 ^ 1] += pushed
                left -= pushed
                if not left:
                    break
            pushed = cap[e1] - left
            cap[e1] = left
            cap[e1 ^ 1] += pushed
            flow += pushed
        return flow + self.max_flow(s, t)

    def residual_reachable(self, s: int) -> list[bool]:
        """Vertices reachable from s along positive residual edges; after
        max_flow this is the source side of a minimum cut."""
        seen = [False] * self.n
        seen[s] = True
        q = deque([s])
        while q:
            v = q.popleft()
            for eid in self.head[v]:
                u = self.to[eid]
                if self.cap[eid] > 0 and not seen[u]:
                    seen[u] = True
                    q.append(u)
        return seen

    def residual_graph(self, k: int) -> list[list[int]]:
        """Successor lists of nodes 0..k-1 along positive residual edges,
        leaving out the edges to nodes k and above."""
        to, cap = self.to, self.cap
        return [[to[e] for e in self.head[v] if cap[e] > 0 and to[e] < k] for v in range(k)]
