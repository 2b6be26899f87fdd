"""Solve benchmark for ising-reram.

Run from the repository root:

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json):
  paper-suite   the paper's 2-clause protocol through `bench.run_suite`
  anneal-m40    random satisfiable 3-SAT, m=40, 2 x 300 iterations, 120x240 array
  program-m200  random 3-SAT, m=200, 1 x 10 iterations, 600x1200 array

With `--trace 0` the run measures the end-to-end metrics with tracing off;
host times are scaled by a calibration kernel (see `calibrate`).  With
`--trace 1` it runs the same operations untraced and then traced, requires
both to give identical simulated results and report digests, and reports
the per-layer metrics.  Every output is checked; the
last line of standard output is the JSON result, the line before it a JSON
context (environment, sizes, references, informational metrics).  The exit
code is 1 when any output is wrong and 2 when the program cannot be found.
"""

import os

# Pinned before numpy loads: Crossbar.read_columns does a BLAS mat-vec, and
# a multi-threaded BLAS made host times vary between processes.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("paper-suite", "anneal-m40", "program-m200")
SETUP_SAMPLES = 5
CAL_REF_S = 0.020       # calibrate() on the host these figures are scaled to
P90_MIN_SAMPLES = 100   # at least 10 samples beyond the 90th percentile


@dataclass(frozen=True)
class _Record:
    index: int
    weight: float
    pair: tuple[int, int]


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work.

    On a shared host the speed of a core drifts, by up to 1.5x between and
    within runs, and the drift moves this kernel and the program alike.  Host
    times are therefore reported scaled by CAL_REF_S / calibrate(), measured
    around each operation: as they would read on a host where this kernel
    takes CAL_REF_S.  The raw figures are printed beside them.  The mix, of
    loop and dict bytecode, small frozen dataclasses and numpy calls on small
    arrays, was chosen because its time tracked the program's most closely
    on all three workloads.
    """
    import numpy as np

    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(40_000):
        table[i & 255] = acc
        acc += i * i % 7
    records = [_Record(i, i * 0.5, (i, i + 1)) for i in range(6000)]
    totals = sorted((r.index + r.weight + sum(r.pair) for r in records), key=lambda v: -v)
    len([v for v in totals if v > 10.0])
    small = np.arange(512.0)
    for _ in range(400):
        small = np.sqrt(small * small + 1.0)
    grid = np.full((64, 64), 20.0)
    for _ in range(100):
        states = np.full(grid.shape, 2, dtype=np.int8)
        states[(grid >= 10.0) & (grid <= 30.0)] = 0
        np.ones(64) @ grid
    return time.perf_counter() - start


def setup_scale() -> float:
    return CAL_REF_S / statistics.median(calibrate() for _ in range(3))


def set_up(name: str, seed: int):
    """Import the program, build configs and inputs, do one warm-up operation.

    Returns the workload, the set-up time without the benchmark's own oracle
    checks, and the time of the warm-up operation.
    """
    start = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import ising_reram

    if not Path(ising_reram.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ising_reram imported from {ising_reram.__file__}, not {SRC}")
    import workloads

    wl = workloads.build(name, seed)
    warm = time.perf_counter()
    wl.check(wl.ops[0], wl.execute(wl.ops[0]), first_cycle=True)
    end = time.perf_counter()
    return wl, end - start - wl.oracle_s, end - warm


def setup_probe(name: str, seed: int) -> float:
    """Scaled set-up time of a fresh process, which pays the imports again."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


class Pass:
    """Operations run in cycles over the workload's list, with their summaries."""

    def __init__(self) -> None:
        self.latency_ns: list[int] = []
        self.scale: list[float] = []  # CAL_REF_S / calibrate() around each op in latency_ns
        self.iterations = 0           # over the ops in latency_ns
        self.first_cycle: list = []   # OpSummary per op of the first cycle, None if it raised
        self.digests: list[str] = []
        self.attempted = self.failed = 0
        self.cycles = 0


def run_pass(wl, seconds: float = float("inf"), cycles: int | None = None) -> Pass:
    """Run `cycles` whole cycles, or ops until `seconds` have passed.

    The first cycle always completes.  Only `execute` is timed.
    """
    p = Pass()
    start = time.perf_counter()
    cal = calibrate()
    while cycles is None or p.cycles < cycles:
        for i, op in enumerate(wl.ops):
            if p.cycles and time.perf_counter() - start >= seconds:
                return p
            p.attempted += wl.solves_per_op
            gc.collect()
            t0 = time.perf_counter_ns()
            try:
                output = wl.execute(op)
                elapsed = time.perf_counter_ns() - t0
                cal_before, cal = cal, calibrate()
                s = wl.check(op, output, first_cycle=p.cycles == 0)
            except Exception:
                traceback.print_exc()
                p.failed += wl.solves_per_op
                p.digests.append("")
                if not p.cycles:
                    p.first_cycle.append(None)
                continue
            if not p.cycles:
                p.first_cycle.append(s)
            ref = p.first_cycle[i]
            # Same input, same seed: the output must repeat exactly.
            if s.errors or ref is None or s.digest != ref.digest:
                p.failed += wl.solves_per_op
            p.scale.append(2 * CAL_REF_S / (cal_before + cal))
            p.latency_ns.append(elapsed)
            p.iterations += s.iterations
            p.digests.append(s.digest)
        p.cycles += 1
    return p


def simulated(p: Pass) -> dict:
    """Simulated results over the first cycle; they repeat exactly per seed."""
    ops = [s for s in p.first_cycle if s is not None]
    solves = sum(s.solves for s in ops)
    iterations = sum(s.iterations for s in ops)
    return {
        "solve_rate": sum(s.sat for s in ops) / solves,
        "iter_acc": sum(s.accurate for s in ops) / iterations,
        "exec_energy_nj": sum(s.exec_nj for s in ops) / solves,
        "infer_energy_nj": sum(s.infer_nj for s in ops) / solves,
        "report_kb": sum(s.report_bytes for s in ops) / len(ops) / 1024,
    }


def latency_ms(p: Pass, scaled: bool = True) -> list[float]:
    return [ns / 1e6 * (k if scaled else 1.0) for ns, k in zip(p.latency_ns, p.scale)]


def iters_per_s(p: Pass, scaled: bool = True) -> float:
    return p.iterations / (sum(latency_ms(p, scaled)) / 1e3)


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "seed": seed,
        # Informational, not gated: the size of the program beside its timings.
        "src_lines": sum(
            len(f.read_text().splitlines()) for f in sorted((SRC / "ising_reram").glob("*.py"))
        ),
    }


def timed_run(wl, args, setup_s: float) -> tuple[dict, dict, list[Pass]]:
    p = run_pass(wl, seconds=args.seconds)
    sim = simulated(p)
    # After the timed pass, so the probe processes cannot disturb it.
    setups = [setup_s] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    ms = latency_ms(p)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "iters_per_s": (iters_per_s(p), "1/s"),
        "run_ms_p50": (statistics.median(ms), "ms"),
        "exec_energy_nj": (sim["exec_energy_nj"], "nJ"),
        "infer_energy_nj": (sim["infer_energy_nj"], "nJ"),
        "report_kb": (sim["report_kb"], "KB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) >= P90_MIN_SAMPLES else None
    context = {
        "informational": {
            "solve_rate": {"value": sim["solve_rate"], "unit": "ratio"},
            "iter_acc": {"value": sim["iter_acc"], "unit": "ratio"},
            "error_rate": {"value": p.failed / p.attempted, "unit": "ratio"},
            # null below P90_MIN_SAMPLES samples
            "run_ms_p90": {"value": p90, "unit": "ms"},
            "run_ms_samples": len(ms),
            "setup_s_samples": setups,
            "unscaled": {
                "run_ms_p50": statistics.median(latency_ms(p, scaled=False)),
                "iters_per_s": iters_per_s(p, scaled=False),
                "scale_median": statistics.median(p.scale),
            },
        },
        "reference": wl.reference(sim["solve_rate"], sim["iter_acc"]),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, context, [p]


def traced_run(wl, args, warm_s: float) -> tuple[dict, dict, list[Pass]]:
    from spans import Tracer

    # Untraced for about a third of the time, then the same cycles traced,
    # which take longer by the tracing overhead.
    cycles = max(1, int(args.seconds / 3 / (warm_s * len(wl.ops))))
    plain = run_pass(wl, cycles=cycles)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(wl, cycles=cycles)
    finally:
        tracer.uninstall()
    same = simulated(plain) == simulated(traced) and plain.digests == traced.digests
    if not same:
        traced.failed = traced.attempted
    ops = [s for s in traced.first_cycle if s is not None]
    totals = [cycles * sum(getattr(s, f) for s in ops)
              for f in ("solves", "iterations", "flips", "cells_targeted")]
    context = {
        "missing": tracer.missing,
        "traced_equals_untraced": same,
        "cycles": cycles,
        "tracing_overhead": {
            "iters_per_s_traced": iters_per_s(traced),
            "iters_per_s_untraced": iters_per_s(plain),
            "ratio_traced_over_untraced": iters_per_s(traced) / iters_per_s(plain),
        },
    }
    return tracer.metrics(*totals), context, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "ising_reram" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'ising_reram'}", file=sys.stderr)
        return 2
    try:
        wl, setup_s, warm_s = set_up(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s * setup_scale()}))
        return 0
    if args.trace:
        metrics, context, passes = traced_run(wl, args, warm_s)
    else:
        metrics, context, passes = timed_run(wl, args, setup_s * setup_scale())
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"workload": args.workload, "environment": environment(args.seed),
                      "size": wl.size(), **context}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
