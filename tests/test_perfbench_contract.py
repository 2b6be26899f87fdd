"""The names the benchmark harness wraps must exist where it looks them up.

`perfbench/spans.py` patches public callables in the namespace of their
caller; a renamed or deleted one, or a write path that no longer goes
through `Crossbar.program_cell`, would only show up as a malformed benchmark
result, so these tests resolve every target and compute the per-layer
metrics here instead, and count the write pulses the spans divide by.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

import ising_reram.bench
import ising_reram.cnf
import ising_reram.solver
from ising_reram import (
    CellState,
    Crossbar,
    DeviceConfig,
    EnergyLedger,
    SolverConfig,
    adjacency_matrix,
    apply_flips,
    build_graph,
    emit_dimacs,
    map_problem,
    new_crossbar,
    paper_suite,
    random_3sat,
    run_suite,
)

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    for _prefix, module, path in _load_spans().TARGETS:
        owner = importlib.import_module(module)
        for name in path.split("."):
            owner = getattr(owner, name)
        assert callable(owner), f"{module}.{path}"


def test_run_suite_calls_run_through_the_bench_namespace(monkeypatch):
    # The benchmark replaces ising_reram.bench.run to verify every suite solve.
    calls = []
    solve = ising_reram.bench.run

    def counting_run(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(ising_reram.bench, "run", counting_run)
    suite = paper_suite(runs=2, iters=2)
    run_suite(suite, DeviceConfig(), SolverConfig(), seed=1)
    assert calls == [cnf for _label, cnf in suite.instances for _ in range(suite.runs)]


def test_traced_solves_give_every_per_layer_metric():
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        # Looked up after install, as the benchmark calls them.
        report = ising_reram.solver.run(
            ising_reram.cnf.parse_dimacs(emit_dimacs(random_3sat(5, 6, 1))),
            DeviceConfig(rows=18, cols=36),
            SolverConfig(restarts=2, max_iters=5, profile_iterations=True),
        )
        ising_reram.solver.report_to_json(report)
        suite = paper_suite(runs=2, iters=2)
        ising_reram.bench.run_suite(suite, DeviceConfig(), SolverConfig(), seed=1)
    finally:
        tracer.uninstall()
    traces = [tr for restart in report.traces for tr in restart]
    metrics = tracer.metrics(
        solves=1 + suite.runs * len(suite.instances),
        iterations=len(traces),
        flips=sum(len(tr.flipped) for tr in traces),
        cells_targeted=sum(tr.cells_targeted for tr in traces),
    )
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert tracer.missing == []
    assert sorted(metrics) == sorted(entry["name"] for entry in per_layer)
    # A layer that the program reaches around its wrapped name would read 0.
    # Nothing in the program calls classify_grid.
    idle = {prefix for prefix, span in tracer.spans.items() if not span.calls}
    assert idle <= {"device.classify_grid"}


def _count_pulses(monkeypatch):
    """Wrap Crossbar.program_cell and EnergyLedger.record on the class, as
    perfbench does, and return the lists the wrappers append to."""
    cells, records = [], []
    program_cell, record = Crossbar.program_cell, EnergyLedger.record

    def counting_program_cell(self, row, col, target, kind="program"):
        cells.append((row, col, target))
        return program_cell(self, row, col, target, kind)

    def counting_record(self, kind, energy_nj):
        records.append(kind)
        return record(self, kind, energy_nj)

    monkeypatch.setattr(Crossbar, "program_cell", counting_program_cell)
    monkeypatch.setattr(EnergyLedger, "record", counting_record)
    return cells, records


def test_program_pulses_every_cell_not_held_through_program_cell(monkeypatch):
    # The crossbar exists before the wrappers, so it must not have bound the methods.
    xb = new_crossbar(DeviceConfig(), seed=3)
    xb.program([(0, 0, CellState.STATE1), (0, 2, CellState.STATE1)], "init")
    xb.inject_fault(1, 1, 45.0)  # dead zone: it holds neither target
    assert xb.state.tolist()[0][:3] == [1, 0, 1]
    pulses, records = _count_pulses(monkeypatch)
    high, low = CellState.STATE1, CellState.STATE0
    cells = [(0, 0, high), (2, 3, high), (0, 1, low), (1, 1, low), (0, 2, low), (3, 3, low)]
    assert xb.program(cells, "program")[0] == len(cells)
    assert pulses == [(2, 3, high), (1, 1, low), (0, 2, low)]
    assert records == ["program"] * len(pulses)


def test_map_problem_and_apply_flips_pulse_each_cell_once(monkeypatch, three_x):
    adj = adjacency_matrix(build_graph(three_x))
    spins = np.array([1, -1, -1, 1, 1, -1])
    xb = new_crossbar(DeviceConfig(rows=6, cols=12), seed=0)
    pulses, records = _count_pulses(monkeypatch)
    map_problem(adj, spins, xb)
    # A fresh array holds STATE0 everywhere, so each edge pulses only its high cell.
    rows, cols = np.nonzero(adj)
    high = {(i, 2 * j + 1 if spins[j] > 0 else 2 * j) for i, j in zip(rows.tolist(), cols.tolist())}
    assert len(pulses) == len(high) == 18
    assert {(row, col) for row, col, target in pulses} == high
    assert all(target for _row, _col, target in pulses)
    assert records == ["init"] * len(pulses)
    before = xb.state.copy()
    pulses.clear()
    records.clear()
    apply_flips(xb, spins, [5, 2], adj)
    targets = [
        (i, col, target)
        for j in (2, 5)
        for i in np.flatnonzero(adj[:, j]).tolist()
        for col, target in ((2 * j + 1, spins[j] > 0), (2 * j, spins[j] < 0))
    ]
    assert pulses == [(i, col, t) for i, col, t in targets if before[i, col] != t]
    assert len(pulses) == len(targets) == 12  # every written cell changes state
    assert records == ["program"] * len(pulses)
