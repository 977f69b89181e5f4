"""Spans around the program's public functions, recorded from outside it.

Tracer.install() swaps each traced function for a wrapper in every module
of the package that binds it (``from .core import check_weights`` makes a
second binding, and ``nodebalance.equate`` is the function, which shadows
the submodule of the same name, so modules are reached through
``sys.modules``).  Methods are wrapped on their class.  uninstall() puts
every original back.

A span has a name, start, end, parent span and operation id.  Spans of the
first traced round are kept whole; every span adds its count and self time
(its duration minus the time covered by its child spans) to the totals.
"""

from __future__ import annotations

import sys
import time

# (metric name, module, attribute); an attribute "Class.method" is wrapped
# on the class.  Spans give calls and self time.
SPANS = [
    ("core.parse_instance", "nodebalance.core", "parse_instance"),
    ("core.serialize_instance", "nodebalance.core", "serialize_instance"),
    ("core.graph_build", "nodebalance.core", "Graph.__init__"),
    ("core.apply_plan", "nodebalance.core", "apply_plan"),
    ("bmatch.engine_build", "nodebalance.bmatch", "BMatchEngine.__init__"),
    ("bmatch.decide", "nodebalance.bmatch", "BMatchEngine.decide"),
    ("bmatch.construct", "nodebalance.bmatch", "BMatchEngine.construct"),
    ("bmatch.violating_set", "nodebalance.bmatch", "violating_set"),
    ("bmatch.verify_plan_perfect", "nodebalance.bmatch", "verify_plan_perfect"),
    ("bmatch.milp", "scipy.optimize", "milp"),
    ("matching.maximum_matching", "nodebalance.matching", "maximum_matching"),
    ("matching.max_flow", "nodebalance.matching", "Dinic.max_flow"),
    ("matching.bipartite_matching", "nodebalance.matching", "bipartite_matching"),
    ("equate.equate", "nodebalance.equate", "equate"),
    ("equate.min_beta_for_parity", "nodebalance.equate", "min_beta_for_parity"),
    ("classify.universal_equatable", "nodebalance.classify", "universal_equatable"),
    ("classify.strict_hall", "nodebalance.classify", "strict_hall"),
    ("classify.bipartition", "nodebalance.classify", "bipartition"),
    ("hyper.hyper_equate", "nodebalance.hyper", "hyper_equate"),
    ("hyper.reduce_pm_to_equate", "nodebalance.hyper", "reduce_pm_to_equate"),
    ("cli.main", "nodebalance.cli", "main"),
]
# counted only: no span, so their time stays in the caller's self time
COUNTS = [
    ("core.check_weights", "nodebalance.core", "check_weights"),
    ("bmatch.check_bvector", "nodebalance.bmatch", "check_bvector"),
    ("bmatch.check_tutte_enumeration", "nodebalance.bmatch", "check_tutte_enumeration"),
    ("classify.strict_hall_enum", "nodebalance.classify", "strict_hall_enum"),
    ("classify.isolated_condition_enum", "nodebalance.classify", "isolated_condition_enum"),
]
MILP_PARENTS = ("bmatch.decide", "bmatch.construct")


class Tracer:
    def __init__(self):
        self.op: object = None  # operation id of the spans being recorded
        self.stack: list[list] = []  # [name, start, child time, span index]
        self.setup: dict[str, list] = {}  # name -> [calls, self seconds]
        self.rounds_agg: dict[str, list] = {}
        self.first_round_spans: list[tuple] = []
        self.keep = False  # True while the first traced round runs
        self.rounds = 0
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------

    def _bucket(self) -> dict:
        return self.setup if self.op == "setup" else self.rounds_agg

    def _count(self, name: str) -> None:
        agg = self._bucket().setdefault(name, [0, 0.0])
        agg[0] += 1

    def _span(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if name == "bmatch.milp":
                for frame in reversed(tracer.stack):
                    if frame[0] in MILP_PARENTS:
                        tracer._count(f"bmatch.milp.calls_in_{frame[0].split('.')[1]}")
                        break
            idx = -1
            if tracer.keep:
                idx = len(tracer.first_round_spans)
                parent = tracer.stack[-1][3] if tracer.stack else -1
                tracer.first_round_spans.append([name, 0.0, 0.0, parent, tracer.op])
            frame = [name, time.perf_counter(), 0.0, idx]
            tracer.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                dur = end - frame[1]
                if tracer.stack:
                    tracer.stack[-1][2] += dur
                agg = tracer._bucket().setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += dur - frame[2]
                if idx >= 0:
                    tracer.first_round_spans[idx][1] = frame[1]
                    tracer.first_round_spans[idx][2] = end

        return wrapper

    def _counter(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ---------------------------------------------------

    def install(self) -> None:
        import nodebalance  # noqa: F401 - loads every submodule
        import nodebalance.cli  # noqa: F401

        mods = [m for k, m in list(sys.modules.items())
                if k == "nodebalance" or k.startswith("nodebalance.")]
        for kind, table in (("span", SPANS), ("count", COUNTS)):
            for name, modname, attr in table:
                home = sys.modules[modname]
                make = self._span if kind == "span" else self._counter
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._saved.append((cls, meth, orig))
                    setattr(cls, meth, make(name, orig))
                    continue
                orig = getattr(home, attr)
                wrapped = make(name, orig)
                for m in mods + [home]:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._saved.append((m, key, orig))
                            setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._saved):
            setattr(obj, key, orig)
        self._saved.clear()

    # -- results ------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Calls and self seconds of one set-up plus one round, and the
        calls of one round alone, per name."""
        names = [n for n, _, _ in SPANS + COUNTS]
        names += [f"bmatch.milp.calls_in_{p.split('.')[1]}" for p in MILP_PARENTS]
        out = {}
        for name in names:
            s_calls, s_self = self.setup.get(name, (0, 0.0))
            r_calls, r_self = self.rounds_agg.get(name, (0, 0.0))
            calls = s_calls + r_calls / self.rounds
            out[name] = {"calls": int(calls) if calls == int(calls) else calls,
                         "self_s": s_self + r_self / self.rounds,
                         "round_calls": r_calls / self.rounds}
        return out
