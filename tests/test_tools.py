"""The byte-identity tool prints one digest entry per benchmark operation and command."""

import hashlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OPS_PER_RUN = {"paper-suite": 10, "anneal-m40": 16, "program-m200": 16}
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_byte_identity_maps_every_op_of_every_workload_and_seed():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "byte_identity.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    table = json.loads(done.stdout)
    assert sorted(table) == sorted([*OPS_PER_RUN, "commands", "reduction"])
    reduction = table.pop("reduction")
    assert sorted(reduction) == sorted(OPS_PER_RUN)
    for name, seeds in reduction.items():
        assert sorted(seeds) == ["1", "7"]
        assert all(len(sha) == 64 and int(sha, 16) >= 0 for sha in seeds.values())
        # paper-suite solves the same four instances at every seed.
        assert (seeds["1"] == seeds["7"]) == (name == "paper-suite")
    commands = table.pop("commands")
    assert sorted(commands) == sorted(
        ["gen", "solve", "solve-config-seed", "solve-noisy-k3", "solve-sat", "bench", "kernels",
         *DEMOS]
    )
    assert len(DEMOS) == 4
    for key, entry in commands.items():
        assert len(entry["sha256"]) == 64 and int(entry["sha256"], 16) >= 0
        # The m=40 solves exit 1 on an Unknown verdict.
        assert entry["exit"] in (
            (0, 1) if key in ("solve", "solve-config-seed", "solve-noisy-k3") else (0,)
        )
    assert len({entry["sha256"] for entry in commands.values()}) == len(commands)
    for name, n_ops in OPS_PER_RUN.items():
        assert sorted(table[name]) == ["1", "7"]
        for ops in table[name].values():
            assert sorted(ops, key=int) == [str(i) for i in range(n_ops)]
            for entry in ops.values():
                assert len(entry["sha256"]) == 64 and int(entry["sha256"], 16) >= 0
                assert math.isfinite(float(entry["exec_nj"])) and float(entry["infer_nj"]) > 0
            assert len({entry["sha256"] for entry in ops.values()}) == n_ops


def _byte_identity_module():
    spec = importlib.util.spec_from_file_location("byte_identity", ROOT / "tools" / "byte_identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_against_prints_each_differing_key_with_both_values(capsys):
    tool = _byte_identity_module()
    mine = {"a": {"1": {"0": {"sha256": "x", "exec_nj": "1.5"}}}, "commands": {"gen": {"exit": 0}}}
    theirs = {"a": {"1": {"0": {"sha256": "y", "exec_nj": "1.5"}}, "7": {}},
              "commands": {"gen": {"exit": 2}, "demo.py": {"exit": 0}}}
    assert tool.diff_maps(mine, theirs) == [
        ("a/1/0/sha256", "x", "y"),
        ("commands/demo.py/exit", tool.ABSENT, 0),
        ("commands/gen/exit", 0, 2),
    ]
    assert tool.report_diff(mine, theirs, Path("parent")) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "a/1/0/sha256: 'x' here, 'y' in parent",
        "commands/demo.py/exit: '(absent)' here, 0 in parent",
        "commands/gen/exit: 0 here, 2 in parent",
        "3 of 4 keys differ",
    ]
    assert tool.diff_maps(mine, json.loads(json.dumps(mine))) == []
    assert tool.report_diff(mine, mine, Path("parent")) == 0
    assert capsys.readouterr().out == "0 of 3 keys differ\n"


def test_reduction_digest_covers_the_round_trip_and_every_edge():
    tool = _byte_identity_module()
    from ising_reram import build_graph, emit_dimacs, random_3sat

    class Op:
        def __init__(self, text):
            self.text = text

    class Workload:
        def __init__(self, texts):
            self.ops = [Op(text) for text in texts]

    texts = [emit_dimacs(random_3sat(8, 12, seed)) for seed in range(3)]
    digest = tool.reduction_digest(Workload(texts))
    expected = hashlib.sha256()
    for text in texts:
        u, v = build_graph(random_3sat(8, 12, texts.index(text))).edge_ends
        expected.update((text + "".join(f"{a} {b}\n" for a, b in zip(u, v))).encode())
    assert digest == expected.hexdigest()
    # Spelling the same clauses differently leaves the round trip, and the digest, as they were.
    respelled = [text.replace("p cnf", "c comment\np  cnf").replace(" 0\n", "\n0\n")
                 for text in texts]
    assert tool.reduction_digest(Workload(respelled)) == digest
    assert tool.reduction_digest(Workload(texts[:2])) != digest
