"""Command-line front end.

Every subcommand reads an instance file, prints one JSON document to
stdout, and exits 0 when it reached a decision (feasible and infeasible
both count as decisions).  Exit 1 is a usage error, 2 a parse/input
error, 3 a budget or limit error, 4 an internal error (a self-check on
the package's own answer failed).  Output is deterministic: running the
same command twice yields byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .classify import (
    bipartition,
    hall_witness_assignment,
    is_balanced,
    strict_hall,
    universal_equatable,
)
from .core import (
    Graph,
    Host,
    Hypergraph,
    IncrementPlan,
    Weights,
    _ascii_int,
    apply_plan,
    is_uniform,
    parse_instance,
    serialize_instance,
)
from .equate import equate
from .errors import BudgetError, InstanceError, InternalError, ParseError
from .hyper import hyper_equate, reduce_pm_to_equate
from .oracles import equate_backtracking, min_beta_scan

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _load(path: str) -> tuple[Host, Weights]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _load_graph(path: str) -> tuple[Graph, Weights]:
    host, w = _load(path)
    if not isinstance(host, Graph):
        raise InstanceError(
            f"{path}: instance contains hyperedges; this command needs a plain graph"
        )
    return host, w


def _load_hyper(path: str) -> tuple[Hypergraph, Weights]:
    # graph instances are accepted and treated as 2-uniform hypergraphs
    host, w = _load(path)
    if isinstance(host, Graph):
        host = Hypergraph(host.n, host.edges)
    return host, w


def _cmd_equate(args) -> int:
    G, w = _load_graph(args.file)
    _emit(equate(G, w).to_jsonable(G))
    return EXIT_OK


def _cmd_classify(args) -> int:
    G, _ = _load_graph(args.file)
    _emit(universal_equatable(G).to_jsonable())
    return EXIT_OK


def _cmd_bipartite(args) -> int:
    G, w = _load_graph(args.file)
    part = bipartition(G)
    if part is None:
        _emit(
            {
                "bipartite": False,
                "L": None,
                "R": None,
                "balanced": None,
                "strict_hall": None,
                "hall_witness": None,
                "witness_assignment": None,
            }
        )
        return EXIT_OK
    verdict = strict_hall(G, part)
    assignment: Optional[list[int]] = None
    if not verdict.verdict:
        try:
            assignment = list(hall_witness_assignment(G, part, verdict.witness))
        except InstanceError:
            assignment = None  # degenerate shape: no opposite-side vertex to load
    _emit(
        {
            "bipartite": True,
            "L": list(part.left),
            "R": list(part.right),
            "balanced": is_balanced(w, part),
            "strict_hall": verdict.verdict,
            "hall_witness": list(verdict.witness) if verdict.witness is not None else None,
            "witness_assignment": assignment,
        }
    )
    return EXIT_OK


def _cmd_hyper_equate(args) -> int:
    H, w = _load_hyper(args.file)
    res = hyper_equate(H, w, args.beta_cap)
    _emit(res.to_jsonable(H))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    H, _ = _load_hyper(args.file)
    red = reduce_pm_to_equate(H)
    text = serialize_instance(red.hypergraph, red.weights)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    _emit(
        {
            "n": red.hypergraph.n,
            "edges": red.hypergraph.m,
            "new_vertices": list(red.new_vertex_ids),
        }
    )
    return EXIT_OK


def _cmd_oracle_min_beta(args) -> int:
    G, w = _load_graph(args.file)
    _emit({"beta": min_beta_scan(G, w)})
    return EXIT_OK


def _cmd_oracle_backtrack(args) -> int:
    G, w = _load_graph(args.file)
    plan = equate_backtracking(G, w, args.beta)
    _emit(
        {
            "beta": args.beta,
            "feasible": plan is not None,
            "plan": plan.to_jsonable(G) if plan is not None else None,
        }
    )
    return EXIT_OK


def _plan_from_json(host: Host, doc) -> tuple[IncrementPlan, Optional[int]]:
    """Accept either a full result document or a bare plan array; returns
    the plan plus the expected target when the document carries one."""
    expected: Optional[int] = None
    if isinstance(doc, dict):
        expected = doc.get("beta")
        if expected is not None and type(expected) is not int:
            raise InstanceError(f"malformed target in plan file: {expected!r}")
        doc = doc.get("plan")
        if doc is None:
            raise InstanceError("plan file carries no plan (result was infeasible?)")
    if not isinstance(doc, list):
        raise InstanceError("plan JSON must be a list of {edge, count} objects")
    if isinstance(host, Hypergraph):
        index_of = {}
        for i, members in enumerate(host.edges):
            index_of.setdefault(members, i)
    entries = []
    for entry in doc:
        if not isinstance(entry, dict) or "edge" not in entry or "count" not in entry:
            raise InstanceError(f"malformed plan entry: {entry!r}")
        # type() and not isinstance(): JSON true and false are bools, an int subclass
        members, count = entry["edge"], entry["count"]
        if not isinstance(members, list) or not all(type(v) is int for v in members):
            raise InstanceError(f"malformed edge in plan entry: {entry!r}")
        if type(count) is not int:
            raise InstanceError(f"malformed count in plan entry: {entry!r}")
        if isinstance(host, Graph):
            if len(members) != 2:
                raise InstanceError(f"graph plan edge must have 2 vertices: {members}")
            key = (min(members), max(members))
        else:
            key = index_of.get(tuple(sorted(set(members))))
            if key is None:
                raise InstanceError(f"plan edge {members} not in instance")
        entries.append((key, count))
    return IncrementPlan(entries), expected


def _cmd_verify(args) -> int:
    host, w = _load(args.file)
    with open(args.plan, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InstanceError(f"{args.plan}: invalid JSON: {exc}") from None
    plan, expected = _plan_from_json(host, doc)
    value = is_uniform(apply_plan(host, w, plan))
    ok = value is not None and (expected is None or value == expected)
    _emit({"ok": ok, "value": value, "steps": plan.total_steps, "beta": expected})
    return EXIT_OK


def _int_flag(tok: str) -> int:
    """argparse type of the integer flags: the instance format's ASCII
    [+-]?[0-9]+ rule, so "1_0" and non-ASCII digits are usage errors."""
    x = _ascii_int(tok)
    if x is None:
        raise argparse.ArgumentTypeError(f"not an integer: {tok!r}")
    return x


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed",
        type=_int_flag,
        default=None,
        help="reserved and ignored; all algorithms are deterministic",
    )
    parser = argparse.ArgumentParser(
        prog="nodebalance",
        parents=[common],
        description="Decide whether node weights can be equalized by edge increments.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("equate", parents=[common], help="minimum uniform target and plan")
    p.add_argument("file")
    p.set_defaults(func=_cmd_equate)

    p = sub.add_parser(
        "classify", parents=[common], help="is every assignment equatable on this graph"
    )
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "bipartite",
        parents=[common],
        help="bipartition, balance, and the strict neighborhood condition",
    )
    p.add_argument("file")
    p.set_defaults(func=_cmd_bipartite)

    p = sub.add_parser(
        "hyper-equate", parents=[common], help="bounded search for a hypergraph target"
    )
    p.add_argument("file")
    p.add_argument("--beta-cap", type=_int_flag, default=None, help="largest target to try")
    p.set_defaults(func=_cmd_hyper_equate)

    p = sub.add_parser(
        "reduce",
        parents=[common],
        help="append the three-vertex gadget tying equatability to perfect matching",
    )
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True, help="path for the reduced instance")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("oracle", parents=[common], help="brute-force reference solvers")
    osub = p.add_subparsers(dest="oracle_command", required=True, metavar="oracle-command")
    q = osub.add_parser("min-beta", parents=[common], help="linear-scan minimum target")
    q.add_argument("file")
    q.set_defaults(func=_cmd_oracle_min_beta)
    q = osub.add_parser("backtrack", parents=[common], help="exhaustive plan search at one target")
    q.add_argument("file")
    q.add_argument("--beta", type=_int_flag, required=True)
    q.set_defaults(func=_cmd_oracle_backtrack)

    p = sub.add_parser("verify", parents=[common], help="replay a plan and check uniformity")
    p.add_argument("file")
    p.add_argument("--plan", required=True, help="result JSON or bare plan array")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    # weights, targets and counts are exact at any size: lift the
    # interpreter's int-string digit limit while the command runs
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(saved)


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (ParseError, InstanceError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
