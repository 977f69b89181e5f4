"""Data model shared by every solver: graphs, hypergraphs, weight vectors,
increment plans, and the text instance format.

All types are immutable after construction and all functions are pure, so
values can be shared freely between threads and reused across calls.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Union

from .errors import BudgetError, InstanceError, ParseError

Edge = tuple[int, int]
Weights = tuple[int, ...]

# largest header parse_instance accepts: one million vertices cost 0.9 s and 100 MB
MAX_VERTICES = 1_000_000


def _as_int(x: object, what: str) -> int:
    # bool is an int subclass; reject it to keep instances unambiguous
    if isinstance(x, bool) or not isinstance(x, int):
        raise InstanceError(f"{what} must be an int, got {x!r}")
    return x


def _check_vector(values: Iterable[int], n: int, noun: str) -> tuple[int, ...]:
    tv = tuple(values)
    if len(tv) != n:
        raise InstanceError(f"expected {n} {noun}s, got {len(tv)}")
    for v, x in enumerate(tv):
        if isinstance(x, bool) or not isinstance(x, int):
            raise InstanceError(f"{noun} of vertex {v} is not an int: {x!r}")
        if x < 0:
            raise InstanceError(f"{noun} of vertex {v} is negative: {x}")
    return tv


def check_weights(w: Iterable[int], n: int) -> Weights:
    """Validate a weight vector for an n-vertex host and return it as a tuple.

    Entries must be non-negative integers and the length must equal n.
    """
    return _check_vector(w, n, "weight")


class _Value:
    """Base of the package's immutable value types.

    A subclass's annotated class attributes are its fields, in order, with
    the assigned value as the default; equality (same class only), hashing
    and ``repr`` use the fields alone.  A subclass that validates writes its
    own ``__init__`` storing with ``object.__setattr__``; for the others the
    base compiles the store-only one, as ``collections.namedtuple`` does, at
    about 0.1 ms of import each (dataclasses would cost every process 25 ms).
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)  # on 3.10+ the class's own names only
        cls._fields = fields = cls._fields + own
        if own and "__init__" not in cls.__dict__:
            params = ", ".join(f"{f}=cls.{f}" if hasattr(cls, f) else f for f in fields)
            body = "".join(f"\n    object.__setattr__(self, {f!r}, {f})" for f in fields)
            namespace = {"__name__": cls.__module__, "cls": cls}
            exec(f"def __init__(self, {params}):{body}", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__name__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Value):
    """Simple undirected graph on vertices 0..n-1.

    Edges are normalized to sorted (u, v) pairs with u < v and stored in
    sorted order, so two graphs compare equal exactly when they have the
    same vertex count and edge set.
    """

    n: int
    edges: tuple[Edge, ...]

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        n = _as_int(n, "vertex count")
        if n < 0:
            raise InstanceError(f"negative vertex count: {n}")
        seen: set[Edge] = set()
        norm: list[Edge] = []
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise InstanceError(f"edge {e!r} is not a pair of vertex ids") from None
            u = _as_int(u, "vertex id")
            v = _as_int(v, "vertex id")
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InstanceError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise InstanceError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            norm.append((u, v))
        norm.sort()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "_adj", tuple(tuple(a) for a in adj))

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted neighbors of v."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def incident(self, v: int) -> tuple[Edge, ...]:
        """Edges touching v, in canonical order."""
        return tuple((min(v, u), max(v, u)) for u in self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
            return False
        return max(u, v) in self._adj[min(u, v)]


class Hypergraph(_Value):
    """Hypergraph on vertices 0..n-1; edges is an ordered list of vertex sets.

    Each hyperedge is stored as a sorted tuple of distinct vertices (size at
    least 1).  Edge list order is preserved because plans key hyperedges by
    their index.  Duplicate hyperedges are permitted.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()) -> None:
        n = _as_int(n, "vertex count")
        if n < 0:
            raise InstanceError(f"negative vertex count: {n}")
        norm: list[tuple[int, ...]] = []
        for e in edges:
            members = tuple(sorted(_as_int(v, "vertex id") for v in e))
            if not members:
                raise InstanceError("empty hyperedge")
            if len(set(members)) != len(members):
                raise InstanceError(f"repeated vertex in hyperedge {members}")
            if members[0] < 0 or members[-1] >= n:
                raise InstanceError(f"hyperedge {members} out of range for n={n}")
            norm.append(members)
        incident: list[list[int]] = [[] for _ in range(n)]
        for i, members in enumerate(norm):
            for v in members:
                incident[v].append(i)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "_incident", tuple(tuple(a) for a in incident))

    @property
    def m(self) -> int:
        return len(self.edges)

    def incident(self, v: int) -> tuple[int, ...]:
        """Indices of hyperedges containing v, ascending."""
        return self._incident[v]


Host = Union[Graph, Hypergraph]


def check_graph(G: object, caller: str) -> None:
    """Reject a host that is not a Graph before any work.  The graph-only
    functions read a graph's adjacency, which a Hypergraph does not have;
    hyper_equate is the one that takes a hypergraph."""
    if not isinstance(G, Graph):
        raise InstanceError(
            f"{caller} needs a Graph, got {type(G).__name__}; "
            "hyper_equate takes a Hypergraph"
        )


# Plans key graph edges by the (u, v) pair and hyperedges by list index.
PlanKey = Union[Edge, int]


class IncrementPlan(_Value):
    """Multiset of edges with multiplicities; one entry means that many
    steps on that edge.  Steps commute, so only multiplicities matter.

    Entries are normalized: zero counts dropped, graph-edge keys sorted as
    (min, max), entries in canonical ascending key order.
    """

    entries: tuple[tuple[PlanKey, int], ...]

    def __init__(
        self,
        entries: Union[Iterable[tuple[PlanKey, int]], Mapping[PlanKey, int]] = (),
    ) -> None:
        merged: dict[PlanKey, int] = {}
        items: Iterable[tuple[PlanKey, int]]
        if isinstance(entries, Mapping):
            items = entries.items()
        else:
            items = entries
        for entry in items:
            try:
                key, count = entry
            except (TypeError, ValueError):
                raise InstanceError(f"plan entry {entry!r} is not a (key, count) pair") from None
            count = _as_int(count, "plan multiplicity")
            if count < 0:
                raise InstanceError(f"negative multiplicity for {key!r}")
            if count == 0:
                continue
            if isinstance(key, tuple):
                try:
                    u, v = key
                except ValueError:
                    raise InstanceError(f"plan key {key!r} is not an edge pair") from None
                u, v = _as_int(u, "vertex id"), _as_int(v, "vertex id")
                key = (min(u, v), max(u, v))
            else:
                key = _as_int(key, "hyperedge index")
            merged[key] = merged.get(key, 0) + count
        kinds = {isinstance(k, tuple) for k in merged}
        if len(kinds) > 1:
            raise InstanceError("plan mixes graph-edge and hyperedge keys")
        # one key kind, each key once: the pairs sort by key alone
        object.__setattr__(self, "entries", tuple(sorted(merged.items())))

    @classmethod
    def empty(cls) -> "IncrementPlan":
        return cls(())

    @classmethod
    def _trusted(cls, entries: Iterable[tuple[PlanKey, int]]) -> "IncrementPlan":
        """A plan from the engines' own (key, count) pairs, with nothing
        checked again: the keys must be distinct, normalized and in
        canonical order, and the counts non-negative ints.  Only the zero
        counts are dropped.  Plans from outside go through __init__."""
        plan = object.__new__(cls)
        object.__setattr__(plan, "entries", tuple(e for e in entries if e[1]))
        return plan

    def items(self) -> Iterator[tuple[PlanKey, int]]:
        return iter(self.entries)

    @property
    def total_steps(self) -> int:
        return sum(c for _, c in self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def merged(self, other: "IncrementPlan") -> "IncrementPlan":
        """Pointwise multiplicity sum; applying self then other equals
        applying the merged plan."""
        return IncrementPlan(self.entries + other.entries)

    def to_jsonable(self, host: Host) -> list[dict]:
        """Render as the JSON plan schema: a list of {"edge": [...],
        "count": k} objects sorted lexicographically by vertex list."""
        out = []
        for key, count in self.entries:
            members = list(key) if isinstance(key, tuple) else list(host.edges[key])
            out.append({"edge": members, "count": count})
        out.sort(key=lambda d: d["edge"])
        return out


def _plan_edge_members(host: Host, key: PlanKey) -> tuple[int, ...]:
    if isinstance(host, Graph):
        if not isinstance(key, tuple):
            raise InstanceError(f"graph plan keyed by index {key!r}")
        if not host.has_edge(*key):
            raise InstanceError(f"plan edge {key} not in graph")
        return key
    if isinstance(key, tuple):
        raise InstanceError(f"hypergraph plan keyed by pair {key!r}")
    if not 0 <= key < host.m:
        raise InstanceError(f"hyperedge index {key} out of range")
    return host.edges[key]


def apply_plan(host: Host, w: Iterable[int], plan: IncrementPlan) -> Weights:
    """Replay a plan: each entry (e, k) adds k to the weight of every vertex
    of e.  Returns the new weight vector; the input is not modified."""
    return _apply_plan(host, check_weights(w, host.n), plan)


def _apply_plan(host: Host, w: Weights, plan: IncrementPlan) -> Weights:
    # trusted body of apply_plan: w is already a validated weight tuple
    out = list(w)
    for key, count in plan.items():
        for v in _plan_edge_members(host, key):
            out[v] += count
    return tuple(out)


def is_uniform(w: Iterable[int]) -> int | None:
    """Common value of the vector if all entries are equal, else None.
    The empty vector is uniform with value 0 by convention."""
    tw = tuple(w)
    if not tw:
        return 0
    return tw[0] if all(x == tw[0] for x in tw) else None


def _ascii_int(tok: str) -> int | None:
    """int(tok) if tok is ASCII [+-]?[0-9]+, else None: int() alone would
    also take "1_0", non-ASCII digits and surrounding blanks.  Raises
    ValueError past the interpreter's int-string digit limit."""
    digits = tok[1:] if tok[:1] in ("+", "-") else tok
    if not (digits.isascii() and digits.isdigit()):
        return None
    return int(tok)


def _parse_int(tok: str, what: str, line: int) -> int:
    try:
        x = _ascii_int(tok)
    except ValueError:
        raise ParseError(
            f"{what} has {len(tok)} characters, past the interpreter's int-string "
            "digit limit (sys.set_int_max_str_digits)",
            line,
        ) from None
    if x is None:
        raise ParseError(f"{what} is not an integer: {tok!r}", line)
    return x


def parse_instance(text: str) -> tuple[Host, Weights]:
    """Parse the text instance format.

    One directive per line; lines whose first non-blank character is ``#``
    are comments.  The first directive must be ``graph <n>``.  Then:

    - ``e <u> <v>``: graph edge (0-based ids)
    - ``h <v1> ... <vk>``: hyperedge, k >= 1
    - ``w <v> <weight>``: vertex weight, at most once per vertex, default 0

    If any ``h`` line is present the instance is a hypergraph and ``e``
    lines become size-2 hyperedges, keeping file order.  Duplicate ``e``
    lines are rejected in both modes; duplicate ``h`` edges are allowed.
    Raises BudgetError at a header above MAX_VERTICES, before allocating.
    """
    n: int | None = None
    # members of each e and h line, in file order
    raw_edges: list[tuple[int, ...]] = []
    weights: dict[int, int] = {}
    seen_pairs: set[Edge] = set()
    any_h = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        tag = toks[0]
        if n is None:
            if tag != "graph":
                raise ParseError(f"expected 'graph <n>' header, got {tag!r}", lineno)
            if len(toks) != 2:
                raise ParseError("header must be 'graph <n>'", lineno)
            n = _parse_int(toks[1], "vertex count", lineno)
            if n < 0:
                raise ParseError(f"negative vertex count: {n}", lineno)
            if n > MAX_VERTICES:
                raise BudgetError("vertex budget exceeded", n=n, limit=MAX_VERTICES)
            continue
        if tag == "graph":
            raise ParseError("duplicate 'graph' header", lineno)
        if tag == "e":
            if len(toks) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", lineno)
            u = _parse_int(toks[1], "vertex id", lineno)
            v = _parse_int(toks[2], "vertex id", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge ({u},{v}) out of range for n={n}", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            pair = (min(u, v), max(u, v))
            if pair in seen_pairs:
                raise ParseError(f"duplicate edge ({pair[0]},{pair[1]})", lineno)
            seen_pairs.add(pair)
            raw_edges.append(pair)
        elif tag == "h":
            if len(toks) < 2:
                raise ParseError("hyperedge line needs at least one vertex", lineno)
            members = tuple(_parse_int(t, "vertex id", lineno) for t in toks[1:])
            for v in members:
                if not 0 <= v < n:
                    raise ParseError(f"vertex {v} out of range for n={n}", lineno)
            if len(set(members)) != len(members):
                raise ParseError("repeated vertex in hyperedge", lineno)
            raw_edges.append(tuple(sorted(members)))
            any_h = True
        elif tag == "w":
            if len(toks) != 3:
                raise ParseError("weight line must be 'w <v> <weight>'", lineno)
            v = _parse_int(toks[1], "vertex id", lineno)
            x = _parse_int(toks[2], "weight", lineno)
            if not 0 <= v < n:
                raise ParseError(f"vertex {v} out of range for n={n}", lineno)
            if x < 0:
                raise ParseError(f"negative weight for vertex {v}", lineno)
            if v in weights:
                raise ParseError(f"duplicate weight line for vertex {v}", lineno)
            weights[v] = x
        else:
            raise ParseError(f"unknown directive {tag!r}", lineno)

    if n is None:
        raise ParseError("missing 'graph <n>' header")
    w = tuple(weights.get(v, 0) for v in range(n))
    host: Host
    if any_h:
        host = Hypergraph(n, raw_edges)
    else:
        host = Graph(n, raw_edges)
    return host, w


def serialize_instance(host: Host, w: Iterable[int]) -> str:
    """Inverse of parse_instance: emits a text instance that parses back to
    an identical structure.  Zero weights are omitted (they are the default)."""
    tw = check_weights(w, host.n)
    lines = [f"graph {host.n}"]
    if isinstance(host, Graph):
        for u, v in host.edges:
            lines.append(f"e {u} {v}")
    else:
        for members in host.edges:
            lines.append("h " + " ".join(str(v) for v in members))
    for v, x in enumerate(tw):
        if x:
            lines.append(f"w {v} {x}")
    return "\n".join(lines) + "\n"
