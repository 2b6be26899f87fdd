"""Command line entry points: solve, bench, kernels, gen."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from typing import Optional, Sequence

from .bench import (
    kernel_energy_report,
    kernel_report_csv,
    paper_suite,
    run_suite,
    suite_report_csv,
)
from .cnf import CnfError, emit_dimacs, parse_dimacs, random_3sat
from .device import DeviceConfig, DeviceConfigError
from .solver import SolverConfig, load_config_document, report_to_json, run


# Solver keys a command never reads: bench runs the paper protocol, which sets
# these itself, and kernels reads only the seed.
_UNUSED_SOLVER_KEYS = {
    "solve": (),
    "bench": ("restarts", "max_iters", "profile_iterations"),
    "kernels": tuple(f.name for f in fields(SolverConfig) if f.name != "seed"),
}


def _load_configs(
    command: str, path: Optional[str], seed: Optional[int]
) -> tuple[DeviceConfig, SolverConfig]:
    """A command's settings: the ``--config`` document, or the defaults without
    one, with ``--seed``, when given, over its ``solver.seed``.  A document
    that sets a solver key the command does not read raises ValueError."""
    if path is None:
        device, solver = DeviceConfig(), SolverConfig()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        device, solver = load_config_document(doc)
        unused = sorted(set(doc.get("solver", {})) & set(_UNUSED_SOLVER_KEYS[command]))
        if unused:
            raise ValueError(
                f"{command} does not read solver keys {unused}; remove them from the config"
            )
    if seed is not None:
        solver = replace(solver, seed=seed)
    return device, solver


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ising-reram",
        description="3-SAT solving on an emulated ReRAM crossbar Ising machine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a DIMACS CNF file")
    solve.add_argument("cnf_file")
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--config", default=None, help="JSON with device./solver. sections")
    solve.add_argument("--report", default=None, help="write the JSON run report here")

    bench = sub.add_parser("bench", help="run the built-in benchmark suite")
    bench.add_argument("--runs", type=int, default=10)
    bench.add_argument("--iters", type=int, default=10)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--config", default=None)
    bench.add_argument("--csv", default=None, help="write the CSV report here")

    kernels = sub.add_parser("kernels", help="profile kernel write energies")
    kernels.add_argument("--trials", type=int, default=10)
    kernels.add_argument("--seed", type=int, default=None)
    kernels.add_argument("--config", default=None)
    kernels.add_argument("--csv", default=None)

    gen = sub.add_parser("gen", help="emit a random 3-SAT instance as DIMACS")
    gen.add_argument("--vars", type=int, required=True, dest="num_vars")
    gen.add_argument("--clauses", type=int, required=True, dest="num_clauses")
    gen.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            with open(args.cnf_file, "r", encoding="utf-8") as handle:
                cnf = parse_dimacs(handle.read())
            device_cfg, solver_cfg = _load_configs(args.command, args.config, args.seed)
            report = run(cnf, device_cfg, solver_cfg)
            _write_text(args.report, report_to_json(report))
            return 0 if report.verdict == "SAT" else 1
        if args.command == "bench":
            device_cfg, solver_cfg = _load_configs(args.command, args.config, args.seed)
            suite = paper_suite(runs=args.runs, iters=args.iters)
            rows = run_suite(suite, device_cfg, solver_cfg, seed=solver_cfg.seed)
            _write_text(args.csv, suite_report_csv(rows))
            return 0
        if args.command == "kernels":
            device_cfg, solver_cfg = _load_configs(args.command, args.config, args.seed)
            rows = kernel_energy_report(device_cfg, trials=args.trials, seed=solver_cfg.seed)
            _write_text(args.csv, kernel_report_csv(rows))
            return 0
        if args.command == "gen":
            cnf = random_3sat(args.num_vars, args.num_clauses, args.seed)
            sys.stdout.write(emit_dimacs(cnf))
            return 0
    except (
        CnfError, DeviceConfigError, ValueError, OverflowError, OSError, json.JSONDecodeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
