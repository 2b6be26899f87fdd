"""The names the benchmark harness wraps must exist where it looks them up.

`perfbench/spans.py` patches public callables in the namespace of their
caller; a renamed or deleted one would only show up as a malformed benchmark
result, so this test resolves every target here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import ising_reram.bench
from ising_reram import DeviceConfig, SolverConfig, paper_suite, run_suite

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
