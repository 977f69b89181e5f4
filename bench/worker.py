"""Runs one workload's operations against the program, in a process of its
own, and writes what it saw to a pickle for run.py to check and report.

    python3 bench/worker.py IN.pkl OUT.pkl --mode {setup,run,trace} --seconds S

``setup`` times the program's one-time work (import, building every graph,
warm-up) and stops.  ``run`` does the same and then repeats whole rounds of
the workload until S seconds of rounds have passed, timing every operation.
``trace`` replays the same inputs with spans recorded around the program's
public functions (see tracing.py).

run.py starts this process with its standard output sent to /dev/null: the
program's integer-programming backend writes solver logs to file
descriptor 1 on some inputs, and nothing the program prints must reach the
benchmark's report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLI_BOOT = "import sys; from nodebalance.cli import main; sys.exit(main())"

# A small non-bipartite graph (the Petersen graph, n=10) whose equate goes
# through the integer-programming route, so warming up with it pays the
# lazy scipy import once, before the first timed operation.
WARMUP_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6), (2, 7),
                (3, 8), (4, 9), (5, 7), (7, 9), (6, 9), (6, 8), (5, 8)]
WARMUP_W = (1, 0, 0, 0, 0, 0, 0, 0, 0, 1)


class Failure:
    """An exception raised by an operation, kept by type and message."""

    def __init__(self, exc: BaseException):
        self.type = type(exc).__name__
        self.message = str(exc)[:300]

    def __eq__(self, other):
        return isinstance(other, Failure) and (self.type, self.message) == (
            other.type, other.message)


def env_with_src() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_call(argv, env) -> tuple:
    """One CLI invocation in a fresh interpreter: (exit code, stdout, stderr)."""
    p = subprocess.run([sys.executable, "-c", CLI_BOOT, *argv], env=env,
                       capture_output=True, text=True, cwd=ROOT)
    return (p.returncode, p.stdout, p.stderr[-2000:])


def cli_call_inprocess(argv) -> tuple:
    from nodebalance import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a traceback is an outcome here
            code = 1
            err.write(f"Traceback: {type(exc).__name__}: {exc}")
    return (code, out.getvalue(), err.getvalue()[-2000:])


# ---------------------------------------------------------------- setup


def library_setup(job: dict) -> tuple[list, float]:
    """Import the program, build every graph, warm up; returns the bound
    calls (one per operation) and the seconds it took."""
    t0 = time.perf_counter()
    import nodebalance
    from nodebalance import Bipartition, Graph

    calls = []
    for kind, data in job["ops"]:
        G = Graph(data["n"], data["edges"])
        if kind == "equate":
            calls.append((nodebalance.equate, (G, data["w"]), "equate", G))
        elif kind == "strict_hall":
            part = Bipartition(tuple(data["left"]), tuple(data["right"]))
            calls.append((nodebalance.strict_hall, (G, part), "strict_hall", G))
        elif kind == "universal":
            calls.append((nodebalance.universal_equatable, (G,), "universal", G))
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
    if job["warmup"]:
        nodebalance.equate(Graph(10, WARMUP_EDGES), WARMUP_W)
    return calls, time.perf_counter() - t0


def cli_setup(job: dict, inprocess: bool) -> tuple[list, float]:
    """One warm-up invocation per subcommand; returns the operations' argv
    lists and the seconds the warm-ups took."""
    env = env_with_src()
    t0 = time.perf_counter()
    for argv in job["warmup_argv"]:
        code, _, err = cli_call_inprocess(argv) if inprocess else cli_call(argv, env)
        if code != 0:
            raise RuntimeError(f"warm-up {argv} exited {code}: {err}")
    return [argv for _, argv in job["ops"]], time.perf_counter() - t0


def to_doc(kind: str, res, G) -> object:
    """A library result in the same JSON shape the CLI prints."""
    if isinstance(res, Failure):
        return {"failure": res.type, "message": res.message}
    if kind == "equate":
        return res.to_jsonable(G)
    if kind == "strict_hall":
        return {"strict_hall": res.verdict,
                "hall_witness": list(res.witness) if res.witness is not None else None}
    return res.to_jsonable()


# ---------------------------------------------------------------- rounds

REF_EVERY_S = 0.05  # run the reference chunk after each 50 ms of operations


def reference_chunk() -> float:
    """Seconds taken by a fixed piece of pure-Python work.  Interleaved with
    the operations, its mean over a run measures how fast the host ran
    this process during the run (see README.md, host drift)."""
    t = time.perf_counter()
    acc = 0
    table = {}
    for i in range(20000):
        acc = (acc * 31 + i) & 0xFFFFFF
        table[i & 1023] = acc
    return time.perf_counter() - t


def run_rounds(job, calls, seconds: float, inprocess_cli: bool = False, tracer=None) -> dict:
    """Whole rounds until `seconds` have passed.  Round 1's results are kept
    as documents for checking; later rounds must repeat them exactly.  With
    a tracer, each operation's spans carry its index and round 1's spans
    are kept whole."""
    cli = job["workload"] == "cli-mixed"
    env = env_with_src()
    lat: list[float] = []
    first: list = []
    docs: list = []
    drift = [0] * len(calls)
    rounds = 0
    busy = 0.0
    round_busy: list[float] = []
    round_ref: list[float] = []  # mean reference chunk time per round
    since_ref = 0.0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        gc.collect()
        ref: list[float] = []
        if tracer is not None:
            tracer.keep = rounds == 0
        for i, call in enumerate(calls):
            if tracer is not None:
                tracer.op = i
            if cli:
                t = time.perf_counter()
                res = cli_call_inprocess(call) if inprocess_cli else cli_call(call, env)
                dt = time.perf_counter() - t
                if i in job["save_doc"]:
                    with open(job["save_doc"][i], "w", encoding="utf-8") as fh:
                        fh.write(res[1])
            else:
                fn, args, kind, G = call
                t = time.perf_counter()
                try:
                    res = fn(*args)
                except Exception as exc:  # noqa: BLE001 - failures are counted
                    res = Failure(exc)
                dt = time.perf_counter() - t
            lat.append(dt)
            busy += dt
            since_ref += dt
            if since_ref >= REF_EVERY_S:
                ref.append(reference_chunk())
                since_ref = 0.0
            if cli:
                # a failed invocation is compared by exit code alone: solver
                # logs on its stdout carry timings
                key = res[:2] if res[0] == 0 else res[0]
            else:
                key = res
            if rounds == 0:
                first.append(key)
                docs.append(res if cli else to_doc(call[2], res, call[3]))
            elif key != first[i]:
                drift[i] += 1
        round_ref.append(statistics.fmean(ref or [reference_chunk()]))
        rounds += 1
        round_busy.append(busy - sum(round_busy))
    if tracer is not None:
        tracer.keep = False
        tracer.rounds = rounds
    return {"latencies": lat, "rounds": rounds, "busy_s": busy, "docs": docs,
            "drift": drift, "round_busy_s": round_busy, "round_ref_s": round_ref}


def peak_rss_mb(cli: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_import_s(module: str) -> float:
    """Seconds a fresh interpreter spends importing `module`."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=env_with_src(),
                         capture_output=True, text=True, check=True, cwd=ROOT).stdout
    return float(out.split()[-1])


def startup_s(module: str) -> float:
    """Wall-clock seconds of a fresh interpreter that imports `module`."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env_with_src(),
                   check=True, cwd=ROOT)
    return time.perf_counter() - t


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("inp")
    ap.add_argument("out")
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()
    with open(args.inp, "rb") as fh:
        job = pickle.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    cli = job["workload"] == "cli-mixed"
    result: dict = {}

    if args.mode == "trace":
        import tracing

        result["startup_s"] = statistics.median(startup_s("nodebalance.cli") for _ in range(3))
        result["scipy_import_s"] = statistics.median(
            timed_import_s("scipy.optimize") for _ in range(3))
        # imported before wrapping, so the lazy import inside the program
        # does not land in a span's self time
        import scipy.optimize  # noqa: F401

        tracer = tracing.Tracer()
        tracer.install()
        tracer.op = "setup"
        traced_calls, _ = cli_setup(job, True) if cli else library_setup(job)
        tracer.uninstall()
        calls, _ = cli_setup(job, True) if cli else library_setup(job)
        # half the time untraced, half traced: the difference per round is
        # the tracing overhead
        plain = run_rounds(job, calls, args.seconds / 2, inprocess_cli=True)
        tracer.install()
        traced = run_rounds(job, traced_calls, args.seconds / 2, inprocess_cli=True,
                            tracer=tracer)
        tracer.uninstall()
        result.update(plain=plain, traced=traced, layers=tracer.summary(),
                      spans=tracer.first_round_spans)
    else:
        calls, setup_s = cli_setup(job, False) if cli else library_setup(job)
        result["setup_s"] = setup_s
        if args.mode == "run":
            result.update(run_rounds(job, calls, args.seconds))
            result["peak_rss_mb"] = peak_rss_mb(cli)

    with open(args.out, "wb") as fh:
        pickle.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
