"""Workloads of the solve benchmark.

A workload is a fixed list of operations made from the benchmark seed.  One
operation is what one user command does: `ising-reram bench` (one
`run_suite` call and its CSV) on paper-suite, `ising-reram solve` (parse,
run, serialize) on the random workloads.  `execute` is the timed part;
`check` verifies its outputs and summarises them outside the timing.

The benchmark generates its own DIMACS text, so the program receives only
that text and the configs.  Operations repeat in a cycle: a deterministic
simulator must give the same output for the same input, and the benchmark
checks that it does.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

from ising_reram import bench, cnf, device, ising, solver

PAPER_ITER_ACC = 0.910
PAPER_SAT_RATE = 0.925
SUITES_PER_CYCLE = 10
INSTANCES_PER_CYCLE = 16


@dataclass
class OpSummary:
    """What one operation produced, reduced to the numbers the benchmark reports."""

    solves: int
    sat: int
    errors: int          # SAT assignments refused by verify_assignment, or other wrong output
    iterations: int
    accurate: int
    flips: int
    cells_targeted: int
    exec_nj: float
    infer_nj: float
    report_bytes: int
    digest: str


def _edges(problem: cnf.Cnf) -> int:
    return ising.build_graph(problem).num_edges


def _solve_stats(report: solver.RunReport) -> tuple[int, int, int, int]:
    traces = [tr for restart in report.traces for tr in restart]
    return (
        len(traces),
        sum(tr.iteration_accurate for tr in traces),
        sum(len(tr.flipped) for tr in traces),
        sum(tr.cells_targeted for tr in traces),
    )


def _assignment_ok(problem: cnf.Cnf, report: solver.RunReport) -> bool:
    """A SAT verdict must carry an assignment that satisfies every clause."""
    if report.verdict == "Unknown":
        return report.assignment is None
    if report.verdict != "SAT" or report.assignment is None:
        return False
    return cnf.verify_assignment(problem, cnf.Assignment(tuple(report.assignment)))


class PaperSuite:
    """The paper's protocol: 4 two-clause instances x 10 runs x 10 iterations."""

    def __init__(self, seed: int) -> None:
        self.device = device.DeviceConfig()
        self.solver = solver.SolverConfig()
        self.suite = bench.paper_suite(runs=10, iters=10)
        self.solves_per_op = self.suite.runs * len(self.suite.instances)
        self.ops = [seed * 1000 + i for i in range(SUITES_PER_CYCLE)]
        self.oracle_s = 0.0
        self._captured: list[tuple[cnf.Cnf, solver.RunReport]] = []
        # run_suite returns only aggregate rows; record every report it makes
        # so each SAT assignment can be verified against its instance.
        solve = bench.run

        def recording_run(problem, device_config, solver_config):
            report = solve(problem, device_config, solver_config)
            self._captured.append((problem, report))
            return report

        bench.run = recording_run

    def size(self) -> dict:
        return {
            "instances": {label: {"nodes": 3 * p.num_clauses,
                                  "edges": _edges(p)} for label, p in self.suite.instances},
            "device": [self.device.rows, self.device.cols],
            "iteration_budget_per_solve": self.suite.iters,
            "solves_per_op": self.solves_per_op,
            "ops_per_cycle": len(self.ops),
        }

    def reference(self, solve_rate: float, iter_acc: float) -> dict:
        return {
            "iter_acc": {"paper": PAPER_ITER_ACC, "measured": iter_acc,
                         "diff": iter_acc - PAPER_ITER_ACC},
            "solve_rate": {"paper": PAPER_SAT_RATE, "measured": solve_rate,
                           "diff": solve_rate - PAPER_SAT_RATE},
        }

    def execute(self, suite_seed: int):
        self._captured = []
        rows = bench.run_suite(self.suite, self.device, self.solver, seed=suite_seed)
        return rows, bench.suite_report_csv(rows)

    def check(self, op: int, output, first_cycle: bool) -> OpSummary:
        rows, csv = output
        captured, self._captured = self._captured, []
        digest = hashlib.sha256(csv.encode())
        s = OpSummary(len(captured), 0, 0, 0, 0, 0, 0, 0.0, 0.0, len(csv.encode()), "")
        execs = []
        for problem, report in captured:
            digest.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
            s.sat += report.verdict == "SAT"
            s.errors += not _assignment_ok(problem, report)
            iters, accurate, flips, cells = _solve_stats(report)
            s.iterations += iters
            s.accurate += accurate
            s.flips += flips
            s.cells_targeted += cells
            execs.append(report.totals["execute_energy_nj"])
            s.exec_nj += report.totals["execute_energy_nj"]
            s.infer_nj += report.totals["inference_energy_nj"]
        overall = rows[-1]
        # The Overall row must be the aggregate of the solves it came from.
        consistent = (
            s.solves == self.solves_per_op
            and overall.sat_rate == s.sat / s.solves
            and overall.iter_acc == s.accurate / s.iterations
            and np.isclose(overall.exec_energy_nj, np.mean(execs), rtol=1e-9, atol=0.0)
        )
        s.errors += not consistent
        s.digest = digest.hexdigest()
        return s


@dataclass(frozen=True)
class Instance:
    text: str
    clauses: tuple[tuple[int, int, int], ...]
    config: solver.SolverConfig


def random_clauses(n: int, m: int, rng: np.random.Generator) -> tuple[tuple[int, int, int], ...]:
    """Uniform random 3-SAT: 3 distinct variables per clause, random signs."""
    out = []
    for _ in range(m):
        variables = rng.choice(n, size=3, replace=False) + 1
        signs = np.where(rng.random(3) < 0.5, -1, 1)
        out.append(tuple(int(v * s) for v, s in zip(variables, signs)))
    return tuple(out)


def dimacs(n: int, clauses) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [f"{a} {b} {c} 0" for a, b, c in clauses]
    return "\n".join(lines) + "\n"


class RandomSat:
    """Random 3-SAT solved through the `ising-reram solve` path."""

    def __init__(self, seed: int, *, m: int, n: int, rows: int, cols: int,
                 restarts: int, max_iters: int, confirm_sat: bool) -> None:
        self.num_vars = n
        self.solves_per_op = 1
        self.device = device.DeviceConfig(rows=rows, cols=cols)
        self.oracle_s = 0.0
        self.unsat_skipped = 0
        self.ops: list[Instance] = []
        draw = 0
        while len(self.ops) < INSTANCES_PER_CYCLE:
            clauses = random_clauses(n, m, np.random.default_rng([seed, draw]))
            draw += 1
            text = dimacs(n, clauses)
            if confirm_sat:
                start = time.perf_counter()
                satisfiable = cnf.brute_force_sat(cnf.parse_dimacs(text)) is not None
                self.oracle_s += time.perf_counter() - start
                if not satisfiable:
                    self.unsat_skipped += 1
                    continue
            config = solver.SolverConfig(restarts=restarts, max_iters=max_iters,
                                         profile_iterations=True, seed=seed * 1000 + draw)
            self.ops.append(Instance(text, clauses, config))

    def size(self) -> dict:
        edges = [_edges(cnf.parse_dimacs(op.text)) for op in self.ops]
        cfg = self.ops[0].config
        return {
            "nodes": 3 * len(self.ops[0].clauses),
            "variables": self.num_vars,
            "edges": edges,
            "device": [self.device.rows, self.device.cols],
            "iteration_budget_per_solve": cfg.restarts * cfg.max_iters,
            "solves_per_op": self.solves_per_op,
            "ops_per_cycle": len(self.ops),
            "unsat_draws_skipped": self.unsat_skipped,
        }

    def reference(self, solve_rate: float, iter_acc: float) -> dict:
        return {"note": "no reference exists at this size; the model is unvalidated here"}

    def execute(self, op: Instance):
        problem = cnf.parse_dimacs(op.text)
        report = solver.run(problem, self.device, op.config)
        return problem, report, solver.report_to_json(report)

    def check(self, op: Instance, output, first_cycle: bool) -> OpSummary:
        problem, report, text = output
        iters, accurate, flips, cells = _solve_stats(report)
        data = text.encode()
        errors = not _assignment_ok(problem, report)
        errors += problem.num_vars != self.num_vars or (
            tuple(c.to_ints() for c in problem.clauses) != op.clauses
        )
        if first_cycle:
            # Later cycles are compared to this one by digest.
            parsed = json.loads(text)
            errors += (
                parsed["verdict"] != report.verdict
                or parsed["assignment"] != (None if report.assignment is None
                                            else list(report.assignment))
                or sum(len(r) for r in parsed["traces"]) != iters
            )
        return OpSummary(
            1, int(report.verdict == "SAT"), int(errors), iters, accurate, flips, cells,
            report.totals["execute_energy_nj"], report.totals["inference_energy_nj"],
            len(data), hashlib.sha256(data).hexdigest(),
        )


def build(name: str, seed: int):
    if name == "paper-suite":
        return PaperSuite(seed)
    if name == "anneal-m40":
        return RandomSat(seed, m=40, n=13, rows=120, cols=240,
                         restarts=2, max_iters=300, confirm_sat=True)
    if name == "program-m200":
        return RandomSat(seed, m=200, n=50, rows=600, cols=1200,
                         restarts=1, max_iters=10, confirm_sat=False)
    raise ValueError(f"unknown workload {name!r}")
