"""Benchmark harness: built-in suite, kernel energy profiling, CSV reports.

The suite holds the four two-clause instances named by their inter-clause
connection count (0-X through 3-X).  Kernel profiling measures the energy to
initialize each fundamental sub-matrix from a fresh array and to flip one of
its columns; the suite runner executes the fixed-iteration protocol and
reports per-instance iteration accuracy, execute energy (initialization plus
iterative reprogramming), inference energy, and SAT verdict rate.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields, replace

import numpy as np

from .cnf import Cnf
from .device import DeviceConfig, new_crossbar
from .ising import build_graph, kernel_decompose
from .solver import RunReport, SolverConfig, check_fits, run
from .util import derive_seed, field_dict

OVERALL_LABEL = "Overall"


def paper_instances() -> dict[str, Cnf]:
    """The four built-in two-clause instances, keyed by connection count."""
    return {
        "0-X": Cnf(6, [(1, 2, 3), (4, 5, -6)]),
        "1-X": Cnf(4, [(1, -2, 3), (2, 3, 4)]),
        "2-X": Cnf(4, [(1, 2, -3), (-2, 3, -4)]),
        "3-X": Cnf(3, [(1, 2, 3), (-1, -2, -3)]),
    }


@dataclass(frozen=True)
class BenchSuite:
    instances: tuple[tuple[str, Cnf], ...]
    runs: int = 10
    iters: int = 10

    def __post_init__(self) -> None:
        if not self.instances:
            raise ValueError("a suite needs at least one instance")
        if self.runs < 1 or self.iters < 1:
            raise ValueError(f"runs and iters must be >= 1, got {self.runs} and {self.iters}")


def paper_suite(runs: int = 10, iters: int = 10) -> BenchSuite:
    return BenchSuite(tuple(paper_instances().items()), runs=runs, iters=iters)


@dataclass(frozen=True)
class KernelEnergyRow:
    kernel: str      # core | 1-inconn | 2-inconn | 3-inconn
    phase: str       # initialize | program-iteration
    mean_nj: float
    std_nj: float
    samples: int


@dataclass(frozen=True)
class AccuracyRow:
    instance: str
    iter_acc: float
    exec_energy_nj: float
    infer_energy_nj: float
    sat_rate: float


# Each kernel is the set of signed-weight positions in its canonical
# sub-matrix: the clause triangle for the core, and the off-diagonal
# inter-clause block for the inconn structures (at most one coupling per
# block column, since two couplings to one node would collapse the clause).
KERNEL_PATTERNS: dict[str, tuple[tuple[int, int], ...]] = {
    "core": ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)),
    "1-inconn": ((0, 0),),
    "2-inconn": ((0, 0), (1, 1)),
    "3-inconn": ((0, 0), (1, 1), (2, 2)),
}


def kernel_energy_report(
    device_config: DeviceConfig, trials: int = 10, seed: int = 0
) -> list[KernelEnergyRow]:
    """Initialize/flip energy statistics for every fundamental sub-matrix.

    Per trial and kernel: a fresh array is programmed with the kernel pattern,
    a +1 weight per position, by one ``Crossbar.program_high`` call on the
    positive cells (r, 2c+1) (phase "initialize"), then the first column's
    weights are inverted in one ``Crossbar.program`` batch (phase
    "program-iteration", two cell writes per pair, positive cell first).  Means
    and standard deviations are taken over the trials.  A device too small for
    the patterns raises MappingError.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # Position (r, c) sits on row r and column pair c, as node indices do in map_problem.
    check_fits(1 + max(max(cell) for p in KERNEL_PATTERNS.values() for cell in p), device_config)
    rows: list[KernelEnergyRow] = []
    for k_idx, (kernel, pattern) in enumerate(KERNEL_PATTERNS.items()):
        init_samples = []
        flip_samples = []
        for trial in range(trials):
            xb = new_crossbar(device_config, derive_seed(seed, k_idx, trial))
            # A fresh array holds every low cell already: init pulses the high ones.
            xb.program_high([r for r, _ in pattern], [2 * c + 1 for _, c in pattern])
            init_samples.append(xb.ledger.init_energy_nj)
            xb.program([cell for r, c in pattern if c == 0 for cell in ((r, 1, 0), (r, 0, 1))])
            flip_samples.append(xb.ledger.program_energy_nj)
        for phase, samples in (("initialize", init_samples), ("program-iteration", flip_samples)):
            rows.append(
                KernelEnergyRow(
                    kernel=kernel,
                    phase=phase,
                    mean_nj=float(np.mean(samples)),
                    std_nj=float(np.std(samples)),
                    samples=trials,
                )
            )
    return rows


def _suite_run(
    cnf: Cnf,
    device_config: DeviceConfig,
    solver_config: SolverConfig,
    iters: int,
    seed: int,
) -> RunReport:
    cfg = replace(
        solver_config,
        restarts=1,
        max_iters=iters,
        profile_iterations=True,
        seed=seed,
    )
    return run(cnf, device_config, cfg)


def _accuracy_row(label: str, reports: list[RunReport]) -> AccuracyRow:
    """Pooled iteration accuracy and mean energies/SAT rate over some solves."""
    traces = [tr for report in reports for restart in report.traces for tr in restart]
    return AccuracyRow(
        instance=label,
        iter_acc=sum(tr.iteration_accurate for tr in traces) / len(traces),
        exec_energy_nj=float(np.mean([r.totals["execute_energy_nj"] for r in reports])),
        infer_energy_nj=float(np.mean([r.totals["inference_energy_nj"] for r in reports])),
        sat_rate=float(np.mean([r.verdict == "SAT" for r in reports])),
    )


def run_suite(
    suite: BenchSuite,
    device_config: DeviceConfig,
    solver_config: SolverConfig,
    seed: int = 0,
) -> list[AccuracyRow]:
    """Fixed-iteration protocol over the suite; last row aggregates everything.

    Every (instance, run) pair executes the full iteration budget on a fresh
    array with fresh random spins, mirroring independent hardware tests.
    """
    rows: list[AccuracyRow] = []
    every: list[RunReport] = []
    for idx, (label, cnf) in enumerate(suite.instances):
        reports = [
            _suite_run(
                cnf, device_config, solver_config, suite.iters,
                derive_seed(seed, idx, run_idx),
            )
            for run_idx in range(suite.runs)
        ]
        rows.append(_accuracy_row(label, reports))
        every.extend(reports)
    rows.append(_accuracy_row(OVERALL_LABEL, every))
    return rows


def sublinearity_check(
    instance: Cnf,
    device_config: DeviceConfig,
    seed: int = 0,
    iters: int = 10,
    kernel_trials: int = 20,
) -> tuple[float, float]:
    """Measured execute energy vs. the additive full-swing kernel prediction.

    The prediction composes the instance from kernel energies measured with
    shortcut writes disabled (every write is a full nominal swing): one core
    initialization per clause, two inconn initializations per coupled clause
    pair (the symmetric adjacency matrix holds both off-diagonal blocks), and
    per executed node flip one core column flip plus one inconn column flip
    per conflict edge of that node.  The measured value is the execute energy
    of an actual run under the given device config and the default
    ``SolverConfig``, so with the default shortcut model the measurement comes
    in below the prediction, and with shortcut writes disabled the two agree
    up to write noise.

    ``iters=0`` counts only the initialization of the same run (same seed, same
    array) that ``iters > 0`` measures; its one iteration is not counted.
    """
    graph = build_graph(instance)
    report = _suite_run(instance, device_config, SolverConfig(), iters or 1,
                        derive_seed(seed, 0xF11))
    measured = report.totals["execute_energy_nj" if iters else "init_energy_nj"]
    counted = report.traces if iters else []  # the init-only run's iteration is not counted
    flip_events = [node for traces in counted for tr in traces for node in tr.flipped]

    profile = kernel_decompose(graph)
    full_swing = replace(device_config, shortcut_writes=False)
    rows = kernel_energy_report(full_swing, kernel_trials, derive_seed(seed, 0xF12))
    means = {(row.kernel, row.phase): row.mean_nj for row in rows}
    prediction = profile.core_count * means[("core", "initialize")]
    for count, pairs in profile.inconn_histogram.items():
        prediction += 2 * pairs * means[(f"{count}-inconn", "initialize")]
    inconn_flip = float(
        np.mean([means[(f"{k}-inconn", "program-iteration")] for k in (1, 2, 3)])
    )
    core_flip = means[("core", "program-iteration")]
    for node in flip_events:
        conflict_degree = len(graph.neighbor_lists[node]) - 2  # 2 triangle neighbors
        prediction += core_flip + conflict_degree * inconn_flip
    return measured, float(prediction)


def rows_to_csv(cls: type, rows: list) -> str:
    """CSV of dataclass rows, quoted by ``csv.writer``: a field-name header, one line per row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows([[f.name for f in fields(cls)], *(field_dict(row).values() for row in rows)])
    return out.getvalue()


def kernel_report_csv(rows: list[KernelEnergyRow]) -> str:
    return rows_to_csv(KernelEnergyRow, rows)


def suite_report_csv(rows: list[AccuracyRow]) -> str:
    return rows_to_csv(AccuracyRow, rows)
