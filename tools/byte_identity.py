"""Output digests of every benchmark operation, for byte-identity checks.

Runs each operation of the benchmark workloads (``perfbench/workloads.py``)
once and prints a JSON map from workload, seed and operation index to the
sha256 of what the operation wrote and the ``repr`` of its execute and
inference energies.  On the random workloads the digest is that of the
report JSON; on paper-suite it covers the suite CSV and then every solve's
report.  A change is byte-identical when two checkouts print the same map:

    python3 tools/byte_identity.py > change.json
    python3 tools/byte_identity.py --root ../parent > parent.json
    cmp parent.json change.json

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are run (by
default the one holding this script).  Exit code 1 when an operation's
output fails the benchmark's own checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("paper-suite", "anneal-m40", "program-m200")
SEEDS = (1, 7)


def load_workloads(root: Path):
    """Import ``ising_reram`` from ``root/src`` and the benchmark's workloads module."""
    src = (root / "src").resolve()
    sys.path[:0] = [str(src), str((root / "perfbench").resolve())]
    import ising_reram
    import workloads

    if not Path(ising_reram.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ising_reram imported from {ising_reram.__file__}, not {src}")
    return workloads


def digests(workloads) -> tuple[dict, int]:
    """The digest map and the number of operations whose output was wrong."""
    from ising_reram import bench

    out, errors = {}, 0
    for name in WORKLOADS:
        for seed in SEEDS:
            solve = bench.run   # paper-suite wraps it to record every report
            try:
                wl = workloads.build(name, seed)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    table, errors = digests(load_workloads(args.root))
    print(json.dumps(table, indent=1, sort_keys=True))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
