"""The nodebalance benchmark: one seeded workload, timed, checked, reported.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree (it imports the program from
./src).  Workloads: bipartite-bulk, general-sparse, classify-scale,
cli-mixed (see workloads.py and README.md).

With --trace 0 it times the program's set-up in fresh processes
(SETUP_SAMPLES of them, median), then runs whole rounds of the workload in
one closed loop, one call at a time, for S seconds, and prints the
end-to-end metrics.  With --trace 1 it replays the same inputs with spans
around the program's public functions and prints per-layer counts and
self times.  Every answer of the first round is checked by checks.py;
later rounds must repeat it.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Spans and the
program's inputs go to .bench_out/ under the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from worker import WARMUP_EDGES, WARMUP_W  # noqa: E402

SETUP_SAMPLES = 5
# latency_tail_ms is the mean of the samples above this percentile: per
# workload the highest one that leaves at least ten samples above it at the
# run length in BENCHMARK.json
TAIL_PERCENTILE = {
    "bipartite-bulk": 99.0,
    "general-sparse": 80.0,
    "classify-scale": 75.0,
    "cli-mixed": 84.0,
}
WORKER_TIMEOUT_S = 170
# Host-drift correction: the metrics, per workload, whose spread between
# runs it narrowed (README.md gives the measured spreads), and the duration
# of the reference chunk on an unloaded host, which corrected figures are
# scaled to.
CORRECTED = {
    "bipartite-bulk": ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms"),
    "general-sparse": ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms"),
    "classify-scale": ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms"),
    "cli-mixed": ("setup_s",),
}
REF_NOMINAL_S = 0.003
# setup_s is mostly imports, so its reference is a fresh interpreter that
# imports these standard-library modules, timed just before each set-up
# sample; corrected set-up samples are scaled to IMPORT_REF_NOMINAL_S.
IMPORT_REF_MODULES = ("decimal, email.mime.multipart, http.client, xml.dom.minidom, asyncio,"
                      " unittest, argparse, json, csv, sqlite3, logging.handlers, urllib.request")
IMPORT_REF_NOMINAL_S = 0.15


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


# ------------------------------------------------------------------ jobs


def write_instance(path, inst) -> None:
    from nodebalance import Graph, Hypergraph, serialize_instance

    if inst.get("hyper"):
        host = Hypergraph(inst["n"], inst["edges"])
    else:
        host = Graph(inst["n"], inst["edges"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(host, inst["w"]))


def cli_job(ops, outdir) -> dict:
    """Instance files and argv lists for the cli-mixed operations."""
    files, argvs, save_doc = {}, [], {}
    for i, op in enumerate(ops):
        d = op.data
        if "inst" in d:
            files[i] = os.path.join(outdir, f"op{i}.txt")
            write_instance(files[i], d["inst"])
        cmd = d["cmd"]
        if cmd == "reduce":
            argv = ["reduce", files[i], "-o", os.path.join(outdir, f"op{i}.reduced.txt")]
        elif cmd == "hyper-equate":
            argv = ["hyper-equate", os.path.join(outdir, f"op{d['reads']}.reduced.txt")]
        elif cmd == "verify":
            src = d["doc_of"]
            save_doc[src] = os.path.join(outdir, f"op{src}.doc.json")
            argv = ["verify", files[src], "--plan", save_doc[src]]
        else:
            argv = [cmd, files[i]]
        argvs.append(argv)
    # one warm-up invocation per subcommand; the equate one goes through
    # the integer-programming route and so pays the lazy scipy import
    warm = os.path.join(outdir, "warmup.txt")
    write_instance(warm, {"n": 10, "edges": WARMUP_EDGES, "w": WARMUP_W})
    warm_bip = os.path.join(outdir, "warmup_bip.txt")
    write_instance(warm_bip, {"n": 4, "edges": [(0, 2), (0, 3), (1, 2), (1, 3)], "w": (1, 0, 0, 1)})
    plan = os.path.join(outdir, "warmup_plan.json")
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump([{"edge": [0, 3], "count": 1}, {"edge": [1, 2], "count": 1}], fh)
    warmup = [["equate", warm], ["classify", warm], ["bipartite", warm_bip],
              ["reduce", warm_bip, "-o", os.path.join(outdir, "warmup.reduced.txt")],
              ["hyper-equate", os.path.join(outdir, "warmup.reduced.txt")],
              ["verify", warm_bip, "--plan", plan]]
    return {"argv": argvs, "files": files, "save_doc": save_doc, "warmup_argv": warmup}


def import_reference() -> float:
    """Wall-clock seconds of a fresh interpreter importing IMPORT_REF_MODULES."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {IMPORT_REF_MODULES}"], check=True,
                   timeout=WORKER_TIMEOUT_S)
    return time.perf_counter() - t


def run_worker(inp, out, mode, seconds) -> dict:
    """One worker process; its stdout goes to /dev/null (see worker.py)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), inp, out,
           "--mode", mode, "--seconds", str(seconds)]
    subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True, timeout=WORKER_TIMEOUT_S)
    with open(out, "rb") as fh:
        return pickle.load(fh)


# ---------------------------------------------------------------- checks


def one_json_document(text):
    """The single JSON document that makes up `text`, or None."""
    try:
        doc, end = json.JSONDecoder().raw_decode(text.strip())
    except json.JSONDecodeError:
        return None
    return doc if end == len(text.strip()) else None


def check_library(ops, docs, verified) -> list:
    """Problem (or None) per operation of a library workload."""
    problems = []
    for op, doc in zip(ops, docs):
        if "failure" in doc:  # the operation raised
            if op.fault and (op.fault, doc["failure"]) in (
                    (wl.FAULT_WITNESS, "WitnessUnavailableError"),
                    (wl.FAULT_RECURSION, "RecursionError")):
                problems.append(op.fault)
            else:
                problems.append(f"unexpected_{doc['failure']}")
            continue
        if op.kind == "equate":
            problems.append(checks.check_equate(op.data, doc, verified))
        elif op.kind == "strict_hall":
            problems.append(checks.check_strict_hall(op.data, doc))
        else:
            problems.append(checks.check_universal(op.data, doc))
    # relabelled and shifted copies against their base instance
    base = {}
    for op, doc, prob in zip(ops, docs, problems):
        if op.tag.get("role") == "base" and prob is None:
            base[op.group] = doc
    for i, (op, doc) in enumerate(zip(ops, docs)):
        role = op.tag.get("role")
        if role in ("relabel", "shift") and problems[i] is None:
            problems[i] = checks.check_invariance(role, base.get(op.group), doc, op.tag)
            verified[f"invariance_{role}"] += problems[i] is None
        if role == "near" and problems[i] is None:
            # the answer on weights 10^16 + w must be the twin's, moved by 10^16
            from nodebalance import Graph, equate

            G = Graph(op.data["n"], op.data["edges"])
            twin = equate(G, op.tag["twin_w"]).to_jsonable(G)
            problems[i] = checks.check_invariance("shift", twin, doc, {"c": wl.BIG})
    return problems


def library_answer(cmd, path):
    """The library's document for a CLI command, computed in this process."""
    from nodebalance import (bipartition, equate, parse_instance, strict_hall,
                             universal_equatable)

    with open(path, encoding="utf-8") as fh:
        G, w = parse_instance(fh.read())
    if cmd == "equate":
        return equate(G, w).to_jsonable(G)
    if cmd == "classify":
        return universal_equatable(G).to_jsonable()
    v = strict_hall(G, bipartition(G))
    return {"strict_hall": v.verdict,
            "hall_witness": list(v.witness) if v.witness is not None else None}


def check_cli(ops, job, results, verified) -> list:
    problems = []
    docs = {}
    for i, (op, (code, out, err)) in enumerate(zip(ops, results)):
        d = op.data
        doc = one_json_document(out)
        if op.fault == wl.FAULT_CLI_NEAR and code == 3:
            problems.append(op.fault)
            continue
        if op.fault == wl.FAULT_CLI_LADDER and code == 1 and "RecursionError" in err:
            problems.append(op.fault)
            continue
        if code != 0:
            problems.append(f"cli_exit_{code}")
            continue
        if doc is None:
            problems.append("cli_not_one_json_document")
            continue
        docs[i] = doc
        cmd = d["cmd"]
        inst = d.get("inst")
        if cmd in ("equate", "classify", "bipartite"):
            lib = library_answer(cmd, job["files"][i])
            mine = doc if cmd != "bipartite" else {
                k: doc.get(k) for k in ("strict_hall", "hall_witness")}
            if mine != lib:
                problems.append("cli_disagrees_with_library")
                continue
        if cmd == "equate":
            problems.append(checks.check_equate(inst, doc, verified))
        elif cmd == "classify":
            problems.append(checks.check_universal(inst, doc))
        elif cmd == "bipartite":
            problems.append(check_bipartite_doc(inst, doc))
        elif cmd == "reduce":
            problems.append(check_reduce(inst, doc, job["argv"][i][3]))
        elif cmd == "hyper-equate":
            problems.append(check_hyper(ops[d["reads"]].data["inst"], doc))
        elif cmd == "verify":
            src = docs.get(d["doc_of"])
            ok = src is not None and doc == {"ok": True, "value": src["beta"], "beta": src["beta"],
                                             "steps": sum(e["count"] for e in src["plan"])}
            problems.append(None if ok else "wrong_verify")
    return problems


def check_bipartite_doc(inst, doc) -> str | None:
    n, edges, w = inst["n"], inst["edges"], inst["w"]
    L, R = doc["L"], doc["R"]
    if not doc["bipartite"] or sorted(L + R) != list(range(n)):
        return "wrong_bipartition"
    if any((u in L) == (v in L) for u, v in edges):
        return "wrong_bipartition"
    if doc["balanced"] != (sum(w[v] for v in L) == sum(w[v] for v in R)):
        return "wrong_balanced"
    bad = checks.check_strict_hall({"n": n, "edges": edges, "left": L, "right": R}, doc)
    if bad:
        return bad
    wa = doc["witness_assignment"]
    if wa is not None:
        # balanced, yet no uniform target exists
        if sum(wa[v] for v in L) != sum(wa[v] for v in R) or \
                checks.bipartite_min_beta(n, edges, wa, L, R) is not None:
            return "wrong_witness_assignment"
    return None


def check_reduce(inst, doc, path) -> str | None:
    """The reduced instance written to `path`: the hypergraph plus the
    three-vertex gadget of weight 1."""
    n, m = inst["n"], len(inst["edges"])
    if doc != {"n": n + 3, "edges": m + 2, "new_vertices": [n, n + 1, n + 2]}:
        return "wrong_reduce"
    with open(path, encoding="utf-8") as fh:
        rn, redges, rw = checks.parse_instance_text(fh.read())
    want = [tuple(sorted(e)) for e in inst["edges"]] + [(n, n + 1), (n + 1, n + 2)]
    ok = rn == n + 3 and redges == want and rw == (0,) * n + (1, 1, 1)
    return None if ok else "wrong_reduce"


def check_hyper(inst, doc) -> str | None:
    """The reduced instance is equatable iff the hypergraph has a perfect
    matching, and then at target 1 by an exact cover of original edges."""
    n, hedges = inst["n"], [tuple(sorted(e)) for e in inst["edges"]]
    cover = checks.exact_cover(n, hedges)
    if doc["equatable"] != (cover is not None):
        return "wrong_hyper_verdict"
    if cover is None:
        return None
    if doc["beta"] != 1:
        return "wrong_hyper_plan"
    used = sorted(v for e in doc["plan"] for v in e["edge"])
    ok = all(e["count"] == 1 and tuple(e["edge"]) in hedges for e in doc["plan"])
    return None if ok and used == list(range(n)) else "wrong_hyper_plan"


# --------------------------------------------------------------- metrics


def tail_mean(sorted_xs, p):
    """Mean of the samples above the nearest-rank p-th percentile.

    A round repeats the same few dozen operations, so the latencies fall
    in clusters, one per kind of operation, and a single percentile sits on
    whichever cluster its rank reaches, or on the edge between two; the mean
    over the whole tail moves with all of them."""
    k = int(max(0, min(len(sorted_xs) - 1, -(-len(sorted_xs) * p // 100) - 1)))
    return statistics.fmean(sorted_xs[k + 1:] or sorted_xs[-1:])


def end_to_end(workload, res, setup_samples) -> tuple[dict, dict]:
    """(metrics as reported, {"raw": ..., "corrected": ...} figures).

    `setup_samples` holds (set-up seconds, import reference seconds) pairs.
    ops_per_s is the median over rounds of each round's operations per
    busy second.  The metrics of a workload named in CORRECTED are scaled
    to the host speed REF_NOMINAL_S, round by round, with the reference
    chunk interleaved in that round; setup_s sample by sample with the
    import reference taken just before it (README.md, host drift)."""
    rounds = res["rounds"]
    per_round = len(res["latencies"]) // rounds
    p = TAIL_PERCENTILE[workload]
    figures = {}
    for kind in ("raw", "corrected"):
        setup = statistics.median(
            s * IMPORT_REF_NOMINAL_S / ref if kind == "corrected" else s
            for s, ref in setup_samples)
        lat, rate = [], []
        for r in range(rounds):
            # slowness of the host in this round: above 1 when it ran slow
            slow = res["round_ref_s"][r] / REF_NOMINAL_S if kind == "corrected" else 1.0
            lat += [x / slow for x in res["latencies"][r * per_round:(r + 1) * per_round]]
            rate.append(per_round / res["round_busy_s"][r] * slow)
        lat.sort()
        figures[kind] = {
            "setup_s": {"value": setup, "unit": "s"},
            "ops_per_s": {"value": statistics.median(rate), "unit": "1/s"},
            "latency_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
            "latency_tail_ms": {"value": 1000 * tail_mean(lat, p), "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    chosen = CORRECTED.get(workload, ())
    out = {k: figures["corrected" if k in chosen else "raw"][k] for k in figures["raw"]}
    return out, figures


def per_layer(res) -> dict:
    layers = res["layers"]
    m = {}
    for name, agg in layers.items():
        if name.startswith("bmatch.milp.calls_in_"):
            m[name] = {"value": agg["calls"], "unit": "count"}
            continue
        m[f"{name}.calls"] = {"value": agg["calls"], "unit": "count"}
        if name not in [n for n, _, _ in tracing.COUNTS]:
            m[f"{name}.self_s"] = {"value": agg["self_s"], "unit": "s"}
    # ratios over the rounds alone: set-up holds a warm-up equate
    per_round = {name: agg["round_calls"] for name, agg in layers.items()}
    solves = per_round["equate.equate"]
    m["equate.probes_per_solve"] = {
        "value": per_round["bmatch.decide"] / solves if solves else 0.0, "unit": "count"}
    m["core.validations_per_solve"] = {
        "value": (per_round["core.check_weights"] + per_round["bmatch.check_bvector"]) / solves
        if solves else 0.0, "unit": "count"}
    m["cli.startup_s"] = {"value": res["startup_s"], "unit": "s"}
    m["cli.scipy_import_s"] = {"value": res["scipy_import_s"], "unit": "s"}
    # busy seconds per round, corrected for host drift as in end_to_end
    per_plain, per_traced = (
        statistics.median(b * REF_NOMINAL_S / ref for b, ref in
                          zip(loop["round_busy_s"], loop["round_ref_s"]))
        for loop in (res["plain"], res["traced"]))
    m["trace.overhead_s"] = {"value": per_traced - per_plain, "unit": "s"}
    m["trace.overhead_pct"] = {"value": 100 * (per_traced / per_plain - 1), "unit": "%"}
    return m


# ------------------------------------------------------------------ main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nodebalance", "__init__.py")):
        return fail(f"no program to measure: {src}/nodebalance is missing")
    sys.path.insert(0, src)
    import nodebalance

    if not os.path.abspath(nodebalance.__file__).startswith(src + os.sep):
        return fail(f"imported nodebalance from {nodebalance.__file__}, not {src}")

    outdir = os.path.join(root, ".bench_out", f"{args.workload}-{args.seed}")
    os.makedirs(outdir, exist_ok=True)
    ops = wl.WORKLOADS[args.workload](args.seed)
    job = {"workload": args.workload, "save_doc": {},
           "warmup": args.workload in ("general-sparse", "classify-scale")}
    if args.workload == "cli-mixed":
        extra = cli_job(ops, outdir)
        job.update(extra, ops=[(op.kind, argv) for op, argv in zip(ops, extra["argv"])])
    else:
        job["ops"] = [(op.kind, op.data) for op in ops]
    inp = os.path.join(outdir, "job.pkl")
    with open(inp, "wb") as fh:
        pickle.dump(job, fh)

    out = os.path.join(outdir, "result.pkl")
    setup_samples = []
    try:
        if args.trace:
            res = run_worker(inp, out, "trace", args.seconds)
            loop = res["plain"]
        else:
            for _ in range(SETUP_SAMPLES - 1):
                ref = import_reference()
                setup_samples.append((run_worker(inp, out, "setup", 0)["setup_s"], ref))
            ref = import_reference()
            res = loop = run_worker(inp, out, "run", args.seconds)
            setup_samples.append((res["setup_s"], ref))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        return fail(f"worker failed: {exc}")

    verified: Counter = Counter()
    if args.workload == "cli-mixed":
        problems = check_cli(ops, job, loop["docs"], verified)
    else:
        problems = check_library(ops, loop["docs"], verified)
    # every round repeats round 1's answer, so a wrong one fails in every
    # round; a later round that answered differently fails there
    rounds = loop["rounds"]
    failed: Counter = Counter()
    for problem, drift in zip(problems, loop["drift"]):
        if problem:
            failed[problem] += rounds
        elif drift:
            failed["nondeterministic"] += drift
    attempted = rounds * len(ops)
    unexpected = {k: v for k, v in failed.items() if k not in wl.KNOWN_FAULTS}

    if args.trace:
        metrics = per_layer(res)
        spans_path = os.path.join(root, ".bench_out", f"spans-{args.workload}-{args.seed}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in res["spans"]:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
    else:
        metrics, figures = end_to_end(args.workload, res, setup_samples)

    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} operations")
    print(f"attempted {attempted}, failed {sum(failed.values())}"
          + "".join(f"\n  failed {k}: {v}" for k, v in sorted(failed.items())))
    if verified:
        print("checked (first round): " + ", ".join(f"{k} {v}" for k, v in sorted(verified.items())))
    if not args.trace:
        print(f"setup samples (s): {', '.join(f'{x:.4f}' for x, _ in setup_samples)}")
        print(f"import reference (s): {', '.join(f'{r:.4f}' for _, r in setup_samples)}"
              f" (nominal {IMPORT_REF_NOMINAL_S:g} s)")
        print(f"latency_tail_ms is the mean above p{TAIL_PERCENTILE[args.workload]:g}"
              f" of {attempted} samples")
    if not args.trace:
        ref = statistics.fmean(loop["round_ref_s"])
        print(f"host reference chunk {1000 * ref:.4f} ms (nominal {1000 * REF_NOMINAL_S:g} ms)")
    for name, m in metrics.items():
        line = f"  {name} = {m['value']:.6g} {m['unit']}"
        if not args.trace and name != "peak_rss_mb":
            line += (f"  (raw {figures['raw'][name]['value']:.6g},"
                     f" corrected {figures['corrected'][name]['value']:.6g})")
        print(line)
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": sum(failed.values()), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
