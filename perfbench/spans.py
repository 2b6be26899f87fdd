"""Per-layer spans for the traced run, recorded from outside the program.

Each public callable is wrapped where the program looks it up: module
functions in the namespace of their caller (`solver.run` calls
`build_graph` through `ising_reram.solver`), `Crossbar` and `EnergyLedger`
methods on the class.  No file of the program changes.  A span is the
summed inclusive time of the calls with their count; self time is a span
minus the wrapped calls made inside it.  Spans stay in memory as totals.
"""

from __future__ import annotations

import functools
import importlib
import time

# (metric prefix, module whose namespace the caller reads, attribute path)
TARGETS = (
    ("cnf.parse_dimacs", "ising_reram.cnf", "parse_dimacs"),
    ("ising.build_graph", "ising_reram.solver", "build_graph"),
    ("ising.adjacency_matrix", "ising_reram.solver", "adjacency_matrix"),
    ("ising.decode_solution", "ising_reram.solver", "decode_solution"),
    ("device.new_crossbar", "ising_reram.solver", "new_crossbar"),
    ("device.program_cell", "ising_reram.device", "Crossbar.program_cell"),
    ("device.read_columns", "ising_reram.device", "Crossbar.read_columns"),
    ("device.classify_grid", "ising_reram.device", "Crossbar.classify_grid"),
    ("device.ledger_record", "ising_reram.device", "EnergyLedger.record"),
    ("solver.map_problem", "ising_reram.solver", "map_problem"),
    ("solver.compute_delta", "ising_reram.solver", "compute_delta"),
    ("solver.q_unit", "ising_reram.solver", "q_unit"),
    ("solver.select_flips", "ising_reram.solver", "select_flips"),
    ("solver.apply_flips", "ising_reram.solver", "apply_flips"),
    ("solver.run", "ising_reram.solver", "run"),
    ("solver.run", "ising_reram.bench", "run"),
    ("solver.report_to_json", "ising_reram.solver", "report_to_json"),
    ("bench.run_suite", "ising_reram.bench", "run_suite"),
)


class Span:
    __slots__ = ("calls", "ns", "self_ns")

    def __init__(self) -> None:
        self.calls = self.ns = self.self_ns = 0


class Tracer:
    """Installs the wrappers, accumulates spans, and restores the originals."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.missing: list[str] = []
        self.pulses = self.skipped = self.landed = 0
        self._stack = [0]   # time spent in wrapped children, per open span
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for prefix, module, path in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module}.{path}")
                continue
            observe = self._observe_write if prefix == "device.program_cell" else None
            setattr(owner, attr, self._wrap(prefix, original, observe))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _observe_write(self, outcome) -> None:
        # A skipped write issues no pulse and costs no energy.
        if outcome.energy_nj == 0.0:
            self.skipped += 1
        else:
            self.pulses += 1
            self.landed += outcome.landed_in_window

    def _wrap(self, prefix, fn, observe):
        span = self.spans.setdefault(prefix, Span())
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span.calls += 1
                span.ns += elapsed
                span.self_ns += elapsed - stack.pop()
                stack[-1] += elapsed
            if observe is not None:
                observe(result)
            return result

        return traced

    def metrics(self, solves: int, iterations: int, flips: int, cells_targeted: int) -> dict:
        """Per-layer metrics, per solve where they are totals."""
        out = {}
        for prefix, span in self.spans.items():
            if prefix == "device.ledger_record":
                out["device.ledger_events"] = (span.calls / solves, "1/solve")
                continue
            out[f"{prefix}.s"] = (span.ns / 1e9 / solves, "s/solve")
            out[f"{prefix}.calls"] = (span.calls / solves, "1/solve")
            if prefix in ("solver.run", "bench.run_suite"):
                out[f"{prefix}.self_s"] = (span.self_ns / 1e9 / solves, "s/solve")
        writes = self.spans.get("device.program_cell")
        if writes is not None:
            out["device.write_skipped"] = (self.skipped / solves, "1/solve")
            out["device.write_landed_ratio"] = (self.landed / self.pulses, "ratio")
            out["device.us_per_write"] = (writes.ns / 1e3 / writes.calls, "us")
        run = self.spans.get("solver.run")
        if run is not None:
            out["solver.us_per_iter"] = (run.ns / 1e3 / iterations, "us")
        out["solver.iterations"] = (iterations / solves, "1/solve")
        out["solver.flips"] = (flips / solves, "1/solve")
        out["solver.cells_targeted"] = (cells_targeted / solves, "1/solve")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
