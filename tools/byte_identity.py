"""Output digests of every benchmark operation, for byte-identity checks.

Runs each operation of the benchmark workloads (``perfbench/workloads.py``)
once and prints a JSON map from workload, seed and operation index to the
sha256 of what the operation wrote and the ``repr`` of its execute and
inference energies.  On the random workloads the digest is that of the
report JSON; on paper-suite it covers the suite CSV and then every solve's
report.  Under ``reduction`` it holds, per workload and seed, the sha256 of
every instance's DIMACS round trip, ``emit_dimacs(parse_dimacs(text))``, each
followed by the instance's edges as sorted "u v" lines (paper-suite's
instances are the suite's four, as ``emit_dimacs`` writes them), so that a
change to the parser or the reduction shows even where no report moves.  Under
``commands`` the map also holds the sha256 and exit code of
fixed command-line runs (``gen``, an m=40 ``solve --report`` on a 120x240
array, the same solve with its seed taken only from the config's
``solver.seed``, the same solve at ``p_cell_success`` 0.6 with ``k`` 3, so
that write misses fall on several flipped nodes of one iteration, a ``solve
--report`` of the 3-X instance that ends SAT, ``bench --csv`` and ``kernels
--csv``) and of each demo's stdout, run in subprocesses on the checkout's
``src/``.  Under ``configs`` it holds the sha256 of the ``to_dict()`` JSON of
``DeviceConfig()``, ``SolverConfig()`` and the configs the three m=40 solves
load, so that a new config field shows even where its default changes no
output.  A change is byte-identical when two checkouts give the same map;
with the parent commit checked out beside this one (for example by ``git
worktree add ../parent HEAD~1``):

    python3 tools/byte_identity.py --against ../parent

``--root`` names the checkout whose ``src/``, ``perfbench/`` and ``demos/``
are run (by default the one holding this script).  ``--against PATH``
computes the map of the checkout at PATH too (this script run with ``--root
PATH`` in a subprocess) and, in place of the map, prints each key whose
values differ with both values, this checkout's first.  Exit code 1 when an
operation's output fails the benchmark's own checks, a command exits with an
unexpected code, or, with ``--against``, any key differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("paper-suite", "anneal-m40", "program-m200")
SEEDS = (1, 7)
SOLVE_CONFIG = {
    "device": {"rows": 120, "cols": 240},
    "solver": {"k": 2, "a_pen": 3.0, "b_pen": 1.5, "restarts": 2, "max_iters": 50},
}
SEEDED_CONFIG = {**SOLVE_CONFIG, "solver": {**SOLVE_CONFIG["solver"], "seed": 4}}
NOISY_K3_CONFIG = {
    "device": {**SOLVE_CONFIG["device"], "p_cell_success": 0.6},
    "solver": {**SOLVE_CONFIG["solver"], "k": 3},
}
# Ends SAT under the default config, so its report carries an assignment,
# sat_restart and sat_iteration.
THREE_X = "p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n"
# (key, ising_reram.cli arguments, the file digested; None: the stdout, kept as <key>.out)
CLI_RUNS = (
    ("gen", ["gen", "--vars", "13", "--clauses", "40", "--seed", "5"], None),
    ("solve", ["solve", "gen.out", "--seed", "3", "--config", "cfg.json", "--report", "m40.json"],
     "m40.json"),
    ("solve-config-seed", ["solve", "gen.out", "--config", "cfg-seed.json", "--report", "m40-seed.json"],
     "m40-seed.json"),
    ("solve-noisy-k3", ["solve", "gen.out", "--seed", "3", "--config", "cfg-noisy-k3.json",
                        "--report", "m40-noisy-k3.json"], "m40-noisy-k3.json"),
    ("solve-sat", ["solve", "3x.cnf", "--seed", "1", "--report", "sat.json"], "sat.json"),
    ("bench", ["bench", "--runs", "3", "--iters", "5", "--seed", "9", "--csv", "bench.csv"],
     "bench.csv"),
    ("kernels", ["kernels", "--trials", "4", "--seed", "2", "--csv", "kernels.csv"], "kernels.csv"),
)
# The m=40 solves: exit 1 is an Unknown verdict.
MAY_END_UNKNOWN = ("solve", "solve-config-seed", "solve-noisy-k3")


def load_workloads(root: Path):
    """Import ``ising_reram`` from ``root/src`` and the benchmark's workloads module."""
    src = (root / "src").resolve()
    sys.path[:0] = [str(src), str((root / "perfbench").resolve())]
    import ising_reram
    import workloads

    if not Path(ising_reram.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ising_reram imported from {ising_reram.__file__}, not {src}")
    return workloads


def reduction_digest(wl) -> str:
    """sha256 of each instance's DIMACS round trip and sorted edge list, in op order."""
    from ising_reram import build_graph, emit_dimacs, parse_dimacs

    suite = getattr(wl, "suite", None)  # paper-suite: every op solves the suite's instances
    if suite is None:
        texts = [op.text for op in wl.ops]
    else:
        texts = [emit_dimacs(cnf) for _, cnf in suite.instances]
    digest = hashlib.sha256()
    for text in texts:
        cnf = parse_dimacs(text)
        edges = sorted(zip(*(ends.tolist() for ends in build_graph(cnf).edge_ends)))
        digest.update(emit_dimacs(cnf).encode())
        digest.update("".join(f"{u} {v}\n" for u, v in edges).encode())
    return digest.hexdigest()


def digests(workloads) -> tuple[dict, int]:
    """The digest map and the number of operations whose output was wrong."""
    from ising_reram import bench

    out, errors = {"reduction": {}}, 0
    for name in WORKLOADS:
        for seed in SEEDS:
            solve = bench.run   # paper-suite wraps it to record every report
            try:
                wl = workloads.build(name, seed)
                out["reduction"].setdefault(name, {})[str(seed)] = reduction_digest(wl)
                ops = {}
                for i, op in enumerate(wl.ops):
                    s = wl.check(op, wl.execute(op), first_cycle=True)
                    errors += bool(s.errors)
                    ops[str(i)] = {
                        "sha256": s.digest,
                        "exec_nj": repr(s.exec_nj),
                        "infer_nj": repr(s.infer_nj),
                    }
            finally:
                bench.run = solve
            out.setdefault(name, {})[str(seed)] = ops
    return out, errors


def config_digests() -> dict:
    """sha256 of the default configs' and the m=40 solves' configs' ``to_dict()`` JSON."""
    from ising_reram import DeviceConfig, SolverConfig, load_config_document

    docs = {"solve": SOLVE_CONFIG, "solve-config-seed": SEEDED_CONFIG,
            "solve-noisy-k3": NOISY_K3_CONFIG}
    dicts = {"DeviceConfig": DeviceConfig().to_dict(), "SolverConfig": SolverConfig().to_dict()}
    for key, doc in docs.items():
        device, solver = load_config_document(doc)
        dicts[key] = {"device": device.to_dict(), "solver": solver.to_dict()}
    return {key: hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
            for key, d in dicts.items()}


def command_digests(root: Path) -> tuple[dict, int]:
    """Digests of the CLI runs and the demos' stdout, and the count of bad exits.

    Each runs in a subprocess with ``sys.executable`` and ``root/src`` on its
    path, in a scratch directory holding the m=40 solves' configs and the 3-X
    instance.  The m=40 solves exit 1 on an Unknown verdict; everything else,
    ``solve-sat`` included, must exit 0.
    """
    env = {**os.environ, "PYTHONPATH": str((root / "src").resolve())}
    runs = [(key, ["-m", "ising_reram.cli", *args], written) for key, args, written in CLI_RUNS]
    runs += [(demo.name, [str(demo.resolve())], None) for demo in sorted((root / "demos").glob("*.py"))]
    out, errors = {}, 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "cfg.json").write_text(json.dumps(SOLVE_CONFIG))
        (work / "cfg-seed.json").write_text(json.dumps(SEEDED_CONFIG))
        (work / "cfg-noisy-k3.json").write_text(json.dumps(NOISY_K3_CONFIG))
        (work / "3x.cnf").write_text(THREE_X)
        for key, args, written in runs:
            done = subprocess.run([sys.executable, *args], cwd=work, env=env, capture_output=True)
            (work / f"{key}.out").write_bytes(done.stdout)
            target = work / (written or f"{key}.out")
            data = target.read_bytes() if target.exists() else b""  # a failed run wrote nothing
            errors += done.returncode not in ((0, 1) if key in MAY_END_UNKNOWN else (0,))
            out[key] = {"sha256": hashlib.sha256(data).hexdigest(), "exit": done.returncode}
    return out, errors


ABSENT = "(absent)"  # the value of a key one map lacks


def flatten(table: dict, prefix: str = "") -> dict:
    """The leaves of a nested map, keyed by their path joined with "/"."""
    out = {}
    for key, value in table.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten(value, path + "/"))
        else:
            out[path] = value
    return out


def diff_maps(mine: dict, theirs: dict) -> list[tuple[str, object, object]]:
    """(key, mine, theirs) for every leaf that differs or that one map lacks, in key order."""
    a, b = flatten(mine), flatten(theirs)
    return [
        (key, a.get(key, ABSENT), b.get(key, ABSENT))
        for key in sorted(a.keys() | b.keys())
        if a.get(key, ABSENT) != b.get(key, ABSENT)
    ]


def report_diff(mine: dict, theirs: dict, against: Path) -> int:
    """Print each differing key with both values and a summary; 1 if any differ."""
    diffs = diff_maps(mine, theirs)
    for key, a, b in diffs:
        print(f"{key}: {a!r} here, {b!r} in {against}")
    print(f"{len(diffs)} of {len(flatten(mine).keys() | flatten(theirs).keys())} keys differ")
    return 1 if diffs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--against", type=Path, help="checkout whose map to compare with")
    args = parser.parse_args(argv)
    if args.against is not None:
        other = subprocess.run(
            [sys.executable, __file__, "--root", str(args.against)], capture_output=True, text=True
        )
        sys.stderr.write(other.stderr)
        if not other.stdout:  # it failed before printing its map
            return 1
    table, errors = digests(load_workloads(args.root))
    table["configs"] = config_digests()
    table["commands"], bad_exits = command_digests(args.root)
    errors += bad_exits
    if args.against is None:
        print(json.dumps(table, indent=1, sort_keys=True))
        return 1 if errors else 0
    differ = report_diff(table, json.loads(other.stdout), args.against)
    return 1 if errors or other.returncode or differ else 0


if __name__ == "__main__":
    sys.exit(main())
