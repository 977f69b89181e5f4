"""Matching and flow primitives.

Maximum matching on general graphs (Edmonds' blossom algorithm, array
based, breadth-first with deterministic scan order), bipartite matching
by Kuhn's augmenting paths, and a small Dinic max-flow implementation.
The b-matching engine builds on blossom and Dinic.  The classification
module uses Kuhn's bipartite_matching for strict_hall's pairwise-deletion
checks and Dinic, on the bipartite double cover, for
universal_equatable.
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
    """

    def __init__(self, adj: Adjacency, match: list[int]):
        self.adj = adj
        self.match = match
        self.n = len(adj)
        self.p = [-1] * self.n
        self.base = list(range(self.n))
        self.used = [False] * self.n

    def _lca(self, a: int, b: int) -> int:
        seen = [False] * self.n
        while True:
            a = self.base[a]
            seen[a] = True
            if self.match[a] == -1:
                break
            a = self.p[self.match[a]]
        while True:
            b = self.base[b]
            if seen[b]:
                return b
            b = self.p[self.match[b]]

    def _mark_path(self, v: int, b: int, child: int, blossom: list[bool]) -> None:
        while self.base[v] != b:
            blossom[self.base[v]] = True
            blossom[self.base[self.match[v]]] = True
            self.p[v] = child
            child = self.match[v]
            v = self.p[self.match[v]]

    def find_from(self, root: int) -> int:
        match, base, p, used = self.match, self.base, self.p, self.used
        self.p = p = [-1] * self.n
        self.base = base = list(range(self.n))
        self.used = used = [False] * self.n
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in self.adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # even-even edge: contract the blossom through the lca
                    curbase = self._lca(v, to)
                    blossom = [False] * self.n
                    self._mark_path(v, curbase, to, blossom)
                    self._mark_path(to, curbase, v, blossom)
                    for i in range(self.n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
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
        for i in range(n):
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
    """Integer max flow.  Edges are paired (id, id^1) with the reverse edge
    holding the pushed flow as residual capacity."""

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
        self.level = [-1] * self.n
        self.level[s] = 0
        q = deque([s])
        while q:
            v = q.popleft()
            for eid in self.head[v]:
                u = self.to[eid]
                if self.cap[eid] > 0 and self.level[u] == -1:
                    self.level[u] = self.level[v] + 1
                    q.append(u)
        return self.level[t] != -1

    def _augment(self, s: int, t: int) -> int:
        """Push one blocking-flow path from s to t in the level graph and
        return its bottleneck (0 when none is left).  Depth-first with an
        explicit stack: the current-arc pointer it[v] advances past an arc
        only when the search below it dead-ends, so arcs are tried in the
        same order as the textbook recursion, at any path length."""
        head, to, cap, level, it = self.head, self.to, self.cap, self.level, self.it
        path: list[int] = []
        v = s
        while v != t:
            arcs = head[v]
            while it[v] < len(arcs):
                eid = arcs[it[v]]
                if cap[eid] > 0 and level[to[eid]] == level[v] + 1:
                    break
                it[v] += 1
            else:
                if not path:
                    return 0
                # dead end: retreat one arc and skip it at its tail
                v = to[path.pop() ^ 1]
                it[v] += 1
                continue
            path.append(eid)
            v = to[eid]
        pushed = min([1 << 62] + [cap[eid] for eid in path])
        for eid in path:
            cap[eid] -= pushed
            cap[eid ^ 1] += pushed
        return pushed

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                got = self._augment(s, t)
                if not got:
                    break
                flow += got
        return flow

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
