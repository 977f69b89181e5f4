"""End-to-end command tests: golden output, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys
import time

import pytest

from nodebalance import Graph, equate, parse_instance, serialize_instance
from nodebalance import bmatch, cli, core
from nodebalance.cli import main
from support import (
    CHAIN_TOP,
    NEAR_OFFSET,
    ROOT,
    load_bench,
    near_2p53_instance,
    triangle_chain,
)

K3_100 = "instances/k3_100.txt"
PUZZLE = "instances/puzzle_c6.txt"
P4 = "instances/p4.txt"
TRIPLE = "instances/triple_cover.txt"


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def golden(capsys, expected: dict, *argv):
    """Exit 0 and byte-exact canonical JSON on stdout."""
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert out == json.dumps(expected, indent=2) + "\n"


class TestGolden:
    def test_equate_k3(self, capsys):
        # [DERIVED: oracle-confirmed]
        golden(
            capsys,
            {
                "equatable": True,
                "beta": 1,
                "plan": [{"edge": [1, 2], "count": 1}],
                "certificate": None,
            },
            "equate",
            K3_100,
        )

    def test_equate_puzzle(self, capsys):
        # [KNOWN: the puzzle answer is no]
        golden(
            capsys,
            {
                "equatable": False,
                "beta": None,
                "plan": None,
                "certificate": {"type": "parity"},
            },
            "equate",
            PUZZLE,
        )

    def test_bipartite_p4(self, capsys):
        golden(
            capsys,
            {
                "bipartite": True,
                "L": [0, 2],
                "R": [1, 3],
                "balanced": True,
                "strict_hall": False,
                "hall_witness": [0],
                "witness_assignment": [0, 1, 1, 0],
            },
            "bipartite",
            P4,
        )

    def test_bipartite_non_bipartite(self, capsys):
        golden(
            capsys,
            {
                "bipartite": False,
                "L": None,
                "R": None,
                "balanced": None,
                "strict_hall": None,
                "hall_witness": None,
                "witness_assignment": None,
            },
            "bipartite",
            K3_100,
        )

    def test_classify_k3(self, capsys):
        golden(
            capsys,
            {"universal": True, "reason": None, "witness": None},
            "classify",
            K3_100,
        )

    def test_hyper_equate_divisibility(self, capsys):
        golden(
            capsys,
            {
                "equatable": False,
                "beta": None,
                "plan": None,
                "certificate": {"type": "divisibility"},
            },
            "hyper-equate",
            TRIPLE,
        )

    def test_hyper_equate_on_plain_graph(self, capsys):
        # graph instances are read as 2-uniform hypergraphs
        rc, out, _ = run(capsys, "hyper-equate", K3_100)
        assert rc == 0
        doc = json.loads(out)
        assert doc["equatable"] and doc["beta"] == 1

    def test_oracle_min_beta(self, capsys):
        golden(capsys, {"beta": 1}, "oracle", "min-beta", K3_100)
        golden(capsys, {"beta": 0}, "oracle", "min-beta", P4)  # all weights zero
        golden(capsys, {"beta": None}, "oracle", "min-beta", PUZZLE)

    def test_oracle_backtrack(self, capsys):
        golden(
            capsys,
            {"beta": 1, "feasible": True, "plan": [{"edge": [1, 2], "count": 1}]},
            "oracle",
            "backtrack",
            K3_100,
            "--beta",
            "1",
        )
        golden(
            capsys,
            {"beta": 2, "feasible": False, "plan": None},
            "oracle",
            "backtrack",
            K3_100,
            "--beta",
            "2",
        )


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys):
        rc1, out1, _ = run(capsys, "equate", PUZZLE)
        rc2, out2, _ = run(capsys, "equate", PUZZLE)
        assert (rc1, out1) == (rc2, out2)

    def test_seed_flag_accepted_and_ignored(self, capsys):
        _, plain, _ = run(capsys, "equate", K3_100)
        rc, before, _ = run(capsys, "--seed", "7", "equate", K3_100)
        assert rc == 0 and before == plain
        rc, after, _ = run(capsys, "equate", K3_100, "--seed", "99")
        assert rc == 0 and after == plain


class TestExitCodes:
    def test_missing_file(self, capsys):
        # [TRIVIAL: error path, nothing on stdout]
        rc, out, err = run(capsys, "equate", "nosuchfile.txt")
        assert rc == 2 and out == "" and "error" in err

    def test_graph_command_on_hypergraph(self, capsys):
        rc, out, err = run(capsys, "equate", TRIPLE)
        assert rc == 2 and out == "" and "hyperedge" in err

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate", K3_100)[0] == 1

    def test_missing_required_option(self, capsys):
        assert run(capsys, "oracle", "backtrack", K3_100)[0] == 1
        assert run(capsys, "reduce", TRIPLE)[0] == 1

    def test_no_subcommand(self, capsys):
        assert run(capsys)[0] == 1

    @pytest.mark.parametrize("value", ["1_0", "\u0663", " 3", "0x3", ""])
    def test_integer_flags_take_ascii_digits_only(self, capsys, value):
        # the instance format's [+-]?[0-9]+ rule, on every integer flag
        for argv in (
            ("hyper-equate", K3_100, "--beta-cap", value),
            ("oracle", "backtrack", K3_100, "--beta", value),
            ("--seed", value, "equate", K3_100),
        ):
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (1, "") and "not an integer" in err

    def test_integer_flags_take_signs(self, capsys):
        assert run(capsys, "hyper-equate", K3_100, "--beta-cap", "+3")[0] == 0
        assert run(capsys, "equate", K3_100, "--seed", "-7")[0] == 0

    def test_budget_exit(self, capsys, tmp_path):
        lines = ["graph 21"]
        lines += [f"e {i} {i + 1}" for i in range(20)]
        lines += ["w 0 1"]
        big = tmp_path / "path21.txt"
        big.write_text("\n".join(lines) + "\n")
        rc, out, err = run(capsys, "oracle", "min-beta", str(big))
        assert rc == 3 and out == "" and "limit" in err

    def test_min_beta_target_budget_exits_at_once(self, capsys, tmp_path):
        # 2 * 10^9 + 1 targets in the scan range: over the budget before
        # any target is tried
        big = tmp_path / "p3_big.txt"
        big.write_text("graph 3\ne 0 1\ne 1 2\nw 1 1000000000\n")
        start = time.perf_counter()
        rc, out, err = run(capsys, "oracle", "min-beta", str(big))
        assert time.perf_counter() - start < 1
        assert rc == 3 and out == "" and "target scan budget exceeded" in err

    def test_vertex_budget_exits_at_once(self, capsys, tmp_path):
        # one vertex past the header limit; nothing of size n is allocated.
        # Larger headers are not tried: without the limit they exhaust memory
        big = tmp_path / "huge_header.txt"
        big.write_text(f"graph {core.MAX_VERTICES + 1}\n")
        assert big.stat().st_size == 14
        start = time.perf_counter()
        rc, out, err = run(capsys, "equate", str(big))
        assert time.perf_counter() - start < 1
        assert rc == 3 and out == "" and "vertex budget exceeded" in err

    def test_malformed_instance(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("graph 2\ne 0 5\n")
        rc, out, err = run(capsys, "equate", str(bad))
        assert rc == 2 and out == "" and "line 2" in err

    def test_undecodable_files(self, capsys, tmp_path):
        # bytes that are not UTF-8, in an instance or a plan file
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"graph 2\ne 0 1\nw 0 \xff\n")
        rc, out, err = run(capsys, "equate", str(bad))
        assert rc == 2 and out == "" and "utf-8" in err
        rc, out, err = run(capsys, "verify", K3_100, "--plan", str(bad))
        assert rc == 2 and out == "" and "utf-8" in err

    def test_internal_error_exit(self, capsys, tmp_path, monkeypatch):
        # the path 0-1-2 with w = (0, 1, 0) is infeasible at its first
        # probe, so the engine takes a cut, which no longer re-verifies
        path = tmp_path / "p3.txt"
        path.write_text("graph 3\ne 0 1\ne 1 2\nw 1 1\n")
        monkeypatch.setattr(bmatch, "_certificate", lambda G, U, b: None)
        rc, out, err = run(capsys, "equate", str(path))
        assert rc == 4 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not a violating set" in err

    def test_recursion_error_propagates(self, capsys, monkeypatch):
        def deep(G, w):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "equate", deep)
        with pytest.raises(RecursionError):
            main(["equate", K3_100])


class TestNonBipartite:
    def test_equate_near_2p53(self, capfd, tmp_path):
        # capfd also sees writes to file descriptor 1 from native code
        G, w, big = near_2p53_instance()
        path = tmp_path / "near.txt"
        path.write_text(serialize_instance(G, big))
        rc = main(["equate", str(path)])
        out = capfd.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        assert doc["beta"] == equate(G, w).beta + NEAR_OFFSET

    def test_equate_pendant_chain(self, capfd, tmp_path):
        # 80 odd circuits at weight 2*10^6+1: the repair's expansion
        # must not grow with either
        G, w = triangle_chain(80, pendant=True)
        path = tmp_path / "chain.txt"
        path.write_text(serialize_instance(G, w))
        rc = main(["equate", str(path)])
        out = capfd.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        assert doc["beta"] == CHAIN_TOP

    def test_equate_huge_demands(self, capfd, tmp_path):
        # 10^30 is far past 2^63; the flow pushes it in one step
        huge = 10**30
        G = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        path = tmp_path / "k4.txt"
        path.write_text(serialize_instance(G, (0, 0, huge, huge)))
        start = time.perf_counter()
        rc = main(["equate", str(path)])
        assert time.perf_counter() - start < 1
        out = capfd.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["beta"] == huge
        assert doc["plan"] == [{"edge": [0, 1], "count": huge}]

    @pytest.mark.parametrize("k", [4300, 4301])
    def test_equate_past_the_int_string_limit(self, capsys, tmp_path, k):
        # K3 with weights (X, X, 0), X = 10^k - 1: beta = 2X, which has
        # k + 1 digits.  Python's default limit of 4300 digits per int
        # string would stop the JSON output at k = 4300 and the parse at
        # k = 4301; the digits are built as text so this test needs no limit
        nines = "9" * k
        path = tmp_path / "k3.txt"
        path.write_text(f"graph 3\ne 0 1\ne 1 2\ne 0 2\nw 0 {nines}\nw 1 {nines}\n")
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        rc, out, err = run(capsys, "equate", str(path))
        assert (rc, err) == (0, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        expected = json.dumps(
            {
                "equatable": True,
                "beta": "BETA",
                "plan": [{"edge": [0, 2], "count": "X"}, {"edge": [1, 2], "count": "X"}],
                "certificate": None,
            },
            indent=2,
        )
        two_x = "1" + "9" * (k - 1) + "8"
        assert out == expected.replace('"BETA"', two_x).replace('"X"', nines) + "\n"

    def test_equate_imports_no_scipy(self, tmp_path):
        # the Petersen graph: odd cycles and ten vertices
        petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                         + [(i, i + 5) for i in range(5)]
                         + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
        path = tmp_path / "petersen.txt"
        path.write_text(serialize_instance(petersen, (1,) + (0,) * 8 + (1,)))
        code = (
            "import contextlib, io, sys\n"
            "from nodebalance.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = main(['equate', {str(path)!r}])\n"
            "mods = ('scipy', 'numpy', 'dataclasses', 'inspect')\n"
            "print(rc, *(m in sys.modules for m in mods))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        # and the value types' constructors need neither dataclasses nor inspect
        assert done.stdout.split() == ["0", "False", "False", "False", "False"]


def _fresh_modules(statement: str) -> set[str]:
    """Names in sys.modules after a fresh interpreter runs one statement."""
    code = f"import sys\n{statement}\nprint(' '.join(sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


class TestStartup:
    """Module sets, not timings: what a process pays for at start-up."""

    def test_cli_import_skips_heavy_stdlib(self):
        # dataclasses pulls in inspect, ast, dis and tokenize: about 12 ms
        # of every CLI call
        loaded = _fresh_modules("import nodebalance.cli")
        assert "nodebalance.cli" in loaded
        assert not {"dataclasses", "inspect"} & loaded

    def test_package_import_loads_traced_modules(self):
        # the benchmark's tracer wraps each function in every module that
        # binds it, so those modules must all exist once the package is
        # imported; it imports nodebalance.cli itself
        tracing = load_bench("tracing")
        traced = {mod for _, mod, _ in tracing.SPANS + tracing.COUNTS
                  if mod.startswith("nodebalance.")} - {"nodebalance.cli"}
        assert traced
        assert traced <= _fresh_modules("import nodebalance")


class TestVerify:
    def test_roundtrip_result_document(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "equate", K3_100)
        assert rc == 0
        res = tmp_path / "res.json"
        res.write_text(out)
        golden(
            capsys,
            {"ok": True, "value": 1, "steps": 1, "beta": 1},
            "verify",
            K3_100,
            "--plan",
            str(res),
        )

    def test_bare_plan_array(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('[{"edge": [1, 2], "count": 1}]')
        rc, out, _ = run(capsys, "verify", K3_100, "--plan", str(plan))
        assert rc == 0
        doc = json.loads(out)
        assert doc["ok"] and doc["value"] == 1 and doc["beta"] is None

    def test_infeasible_result_rejected(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "equate", PUZZLE)
        res = tmp_path / "res.json"
        res.write_text(out)
        rc, out, err = run(capsys, "verify", PUZZLE, "--plan", str(res))
        assert rc == 2 and out == "" and "no plan" in err

    @pytest.mark.parametrize(
        "doc",
        [
            '[{"edge": [true, 2], "count": 1}]',  # would replay as edge (1, 2)
            '[{"edge": [1, 2], "count": true}]',
            '{"beta": true, "plan": [{"edge": [1, 2], "count": 1}]}',
        ],
    )
    def test_json_booleans_rejected(self, capsys, tmp_path, doc):
        plan = tmp_path / "plan.json"
        plan.write_text(doc)
        rc, out, err = run(capsys, "verify", K3_100, "--plan", str(plan))
        assert rc == 2 and out == "" and "malformed" in err

    def test_hyperedge_with_repeated_vertex_rejected(self, capsys, tmp_path):
        inst = tmp_path / "h.txt"
        inst.write_text("graph 3\nh 0 1 2\n")
        plan = tmp_path / "plan.json"
        plan.write_text('[{"edge": [2, 0, 1, 1], "count": 1}]')
        rc, out, err = run(capsys, "verify", str(inst), "--plan", str(plan))
        assert rc == 2 and out == "" and "not in instance" in err
        plan.write_text('[{"edge": [2, 0, 1], "count": 1}]')
        rc, out, _ = run(capsys, "verify", str(inst), "--plan", str(plan))
        assert rc == 0 and json.loads(out)["ok"]

    def test_deeply_nested_plan(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text("[" * 100_000 + "]" * 100_000)
        rc, out, err = run(capsys, "verify", K3_100, "--plan", str(plan))
        assert rc == 2 and out == "" and "invalid JSON" in err

    def test_wrong_plan_not_ok(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('[{"edge": [0, 1], "count": 3}]')
        rc, out, _ = run(capsys, "verify", K3_100, "--plan", str(plan))
        assert rc == 0
        assert not json.loads(out)["ok"]


class TestReduce:
    def test_writes_reduced_instance(self, capsys, tmp_path):
        out_path = tmp_path / "reduced.txt"
        rc, out, _ = run(capsys, "reduce", TRIPLE, "-o", str(out_path))
        assert rc == 0
        doc = json.loads(out)
        assert doc == {"n": 9, "edges": 4, "new_vertices": [6, 7, 8]}
        host, w = parse_instance(out_path.read_text())
        assert host.n == 9 and host.m == 4
        assert host.edges[2:] == ((6, 7), (7, 8))  # gadget edges last
        assert w == (0, 0, 0, 0, 0, 0, 1, 1, 1)

    def test_reduce_accepts_plain_graph(self, capsys, tmp_path):
        out_path = tmp_path / "reduced.txt"
        rc, out, _ = run(capsys, "reduce", K3_100, "-o", str(out_path))
        assert rc == 0
        assert json.loads(out)["n"] == 6


# tokens for the numbers of a fuzzed file: plain, signed, padded, past
# 2^63, and the ones the ASCII rule rejects
FUZZ_NUMBERS = ["0", "1", "2", "3", "+2", "007", "-1", "1_0", "٣", "３", "0x3", "1.5",
                "²", str(2**63), str(2**63 + 1), str(2**64 + 7), str(10**30)]
FUZZ_LINES = ["graph 3", "e 1", "w 0", "x 1 2", "# comment", "", "  e 0 1  ", "e 0 1 2",
              "h", "w 0 1 2", "graph", "e a b", "h 0 0", "w -1 2"]
FUZZ_PLANS = [
    b"[]", b'{"plan": null}', b'{"beta": 1}', b"not json", b'"plan"', b"[[0, 1]]",
    b'[{"edge": [0, 1]}]', b'[{"edge": [0, 1, 2], "count": 1}]', b'[{"edge": [], "count": 1}]',
    b'[{"edge": [0, 1], "count": -1}]', b'[{"edge": [0, 1], "count": 1.5}]',
    b'[{"edge": [0, 1], "count": 1e400}]', b'[{"edge": [0, 0], "count": 1}]',
    b'[{"edge": [5, 9], "count": 2}]', b'{"beta": "3", "plan": []}',
    b'[{"edge": [0, 1], "count": 18446744073709551617}]', b'{"plan": {"edge": [0, 1]}}',
    b"[" * 100_000 + b"]" * 100_000, b"\xff\xfe[]",
]


def fuzz_argv(rng, tmp_path):
    """One seeded CLI call on a small, often malformed instance file: at
    most 6 vertices and 8 edges or hyperedges, small headers (the vertex
    budget has its own test), and weights up to 10^30, which the min-beta
    oracle's target budget refuses."""
    n = rng.randint(0, 6)
    hyper = rng.random() < 0.25
    small = rng.random() < 0.6

    def number():
        if rng.random() < 0.04:
            return rng.choice(FUZZ_NUMBERS)
        return str(rng.randint(0, 3) if small else rng.choice((0, 5, 2**63 + 1, 10**30)))

    members = []
    for _ in range(rng.randint(0, 8) if n >= 2 else 0):
        e = sorted(rng.sample(range(n), rng.randint(1, min(3, n)) if hyper else 2))
        if rng.random() < 0.05:
            e[0] = rng.choice((-1, n, n + 5, e[-1]))  # out of range or repeated
        if e not in members or rng.random() < 0.03:
            members.append(e)
    body = [("h " if hyper else "e ") + " ".join(map(str, e)) for e in members]
    body += [f"w {v} {number()}" for v in range(n) if rng.random() < 0.6]
    for _ in range(rng.choice((0,) * 6 + (1, 2))):
        bad = rng.choice(FUZZ_LINES) if rng.random() < 0.7 else f"w 0 {rng.choice(FUZZ_NUMBERS)}"
        body.insert(rng.randint(0, len(body)), bad)
    header = f"graph {n}" if rng.random() < 0.95 else rng.choice(
        ("graph -1", "graph two", "graph 3 4", "grph 3", "graph 1_0", "graph ٣", ""))
    data = "\n".join([header] + body).encode()
    if rng.random() < 0.03:
        data += b"\nw 0 \xff\n"
    path = tmp_path / "instance.txt"
    path.write_bytes(data)
    cmd = rng.choice(["equate", "classify", "bipartite", "hyper-equate", "reduce", "verify",
                      "backtrack", "min-beta"])
    if cmd == "hyper-equate":
        return [cmd, str(path), "--beta-cap", str(rng.randint(0, 20))]
    if cmd == "reduce":
        return [cmd, str(path), "-o", str(tmp_path / "reduced.txt")]
    if cmd == "verify":
        plan = rng.choice(FUZZ_PLANS)
        if members and rng.random() < 0.7:
            steps = [{"edge": e, "count": rng.randint(0, 3)} for e in members]
            plan = json.dumps(rng.choice((steps, {"beta": rng.randint(0, 9), "plan": steps})))
            plan = plan.encode()
        (tmp_path / "plan.json").write_bytes(plan)
        return [cmd, str(path), "--plan", str(tmp_path / "plan.json")]
    if cmd == "backtrack":
        return ["oracle", cmd, str(path), "--beta", str(rng.randint(0, 15))]
    if cmd == "min-beta":
        return ["oracle", cmd, str(path)]
    return [cmd, str(path)]


class TestFuzz:
    def test_seeded_files_keep_the_cli_contract(self, capfd, tmp_path):
        # every call ends in exit 0 and one JSON document on stdout, or in
        # exit 2 or 3, one error line and nothing on stdout; no exception
        # escapes
        codes = {0: 0, 2: 0, 3: 0}
        for seed in range(200):
            argv = fuzz_argv(random.Random(f"cli-fuzz:{seed}"), tmp_path)
            rc = main(argv)
            out, err = capfd.readouterr()
            assert rc in codes, (seed, argv, rc, err)
            codes[rc] += 1
            if rc:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            else:
                assert out == json.dumps(json.loads(out), indent=2) + "\n", (seed, argv)
        assert min(codes.values()) >= 1 and min(codes[0], codes[2]) >= 50, codes
