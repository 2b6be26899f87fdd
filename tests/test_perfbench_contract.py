"""The names the benchmark harness wraps must exist where it looks them up.

`perfbench/spans.py` patches public callables in the namespace of their
caller; a renamed or deleted one, or a write path that no longer goes
through `Crossbar.program_cell`, would only show up as a malformed benchmark
result, so these tests resolve every target and compute the per-layer
metrics here instead.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import ising_reram.bench
import ising_reram.cnf
import ising_reram.solver
from ising_reram import (
    DeviceConfig,
    SolverConfig,
    emit_dimacs,
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
