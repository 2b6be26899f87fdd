import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from ising_reram import (
    CellState,
    DeviceConfig,
    SolverConfig,
    emit_dimacs,
    kernel_energy_report,
    new_crossbar,
    paper_instances,
    paper_suite,
    random_3sat,
    run_suite,
    sublinearity_check,
)
from ising_reram.bench import (
    KERNEL_PATTERNS,
    AccuracyRow,
    BenchSuite,
    KernelEnergyRow,
    kernel_report_csv,
    suite_report_csv,
)
from ising_reram.cli import main
from ising_reram.util import derive_seed

ROOT = Path(__file__).resolve().parent.parent


def test_suite_matches_hardcoded_clause_lists():
    expected = {
        "0-X": [(1, 2, 3), (4, 5, -6)],
        "1-X": [(1, -2, 3), (2, 3, 4)],
        "2-X": [(1, 2, -3), (-2, 3, -4)],
        "3-X": [(1, 2, 3), (-1, -2, -3)],
    }
    instances = paper_instances()
    assert list(instances) == list(expected)
    for label, clause_ints in expected.items():
        assert [c.to_ints() for c in instances[label].clauses] == clause_ints


def test_kernel_report_shape_and_determinism():
    rows1 = kernel_energy_report(DeviceConfig(), trials=5, seed=7)
    rows2 = kernel_energy_report(DeviceConfig(), trials=5, seed=7)
    assert rows1 == rows2
    assert len(rows1) == 8
    assert {(r.kernel, r.phase) for r in rows1} == {
        (k, p)
        for k in ("core", "1-inconn", "2-inconn", "3-inconn")
        for p in ("initialize", "program-iteration")
    }
    assert all(r.samples == 5 and r.std_nj >= 0 for r in rows1)


def _kernel_rows_cell_by_cell(device_config, trials, seed):
    """kernel_energy_report's rows from one program_cell call per cell, positive cell first."""
    rows = []
    for k_idx, (kernel, pattern) in enumerate(KERNEL_PATTERNS.items()):
        init, flip = [], []
        for trial in range(trials):
            xb = new_crossbar(device_config, derive_seed(seed, k_idx, trial))
            for r, c in pattern:
                xb.program_cell(r, 2 * c + 1, CellState.STATE1, "init")
                xb.program_cell(r, 2 * c, CellState.STATE0, "init")
            init.append(xb.ledger.init_energy_nj)
            for r, c in pattern:
                if c == 0:
                    xb.program_cell(r, 1, CellState.STATE0, "program")
                    xb.program_cell(r, 0, CellState.STATE1, "program")
            flip.append(xb.ledger.program_energy_nj)
        for phase, samples in (("initialize", init), ("program-iteration", flip)):
            rows.append(KernelEnergyRow(kernel, phase, float(np.mean(samples)),
                                        float(np.std(samples)), trials))
    return rows


@pytest.mark.parametrize("shortcut_writes", [True, False])
def test_kernel_report_equals_cell_by_cell_writes(shortcut_writes):
    device = DeviceConfig(shortcut_writes=shortcut_writes)
    for trials, seed in ((6, 3), (3, 11)):
        rows = kernel_energy_report(device, trials, seed)
        assert rows == _kernel_rows_cell_by_cell(device, trials, seed)


def test_kernel_flip_ratio_structural():
    rows = kernel_energy_report(DeviceConfig(), trials=30, seed=1)
    means = {(r.kernel, r.phase): r.mean_nj for r in rows}
    core = means[("core", "program-iteration")]
    inconn = np.mean(
        [means[(f"{k}-inconn", "program-iteration")] for k in (1, 2, 3)]
    )
    assert 1.5 <= core / inconn <= 2.5


def _rows_from_csv(cls, text):
    """Rows back from a CSV report, each value parsed by its field type."""
    header, *lines = text.strip().splitlines()
    types = get_type_hints(cls)
    assert header == ",".join(types)
    return [cls(*(t(v) for t, v in zip(types.values(), line.split(",")))) for line in lines]


def test_kernel_report_needs_a_trial():
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            kernel_energy_report(DeviceConfig(), trials=trials)


def test_kernel_csv_round_trip():
    rows = kernel_energy_report(DeviceConfig(), trials=3, seed=2)
    assert _rows_from_csv(KernelEnergyRow, kernel_report_csv(rows)) == rows


def test_run_suite_rows_and_determinism():
    suite = paper_suite(runs=2, iters=4)
    rows1 = run_suite(suite, DeviceConfig(), SolverConfig(), seed=5)
    rows2 = run_suite(suite, DeviceConfig(), SolverConfig(), seed=5)
    assert rows1 == rows2
    assert [r.instance for r in rows1] == ["0-X", "1-X", "2-X", "3-X", "Overall"]
    for row in rows1:
        assert 0.0 <= row.iter_acc <= 1.0
        assert 0.0 <= row.sat_rate <= 1.0
    assert _rows_from_csv(AccuracyRow, suite_report_csv(rows1)) == rows1


def test_run_suite_ideal_accuracy_is_one():
    from conftest import exact_device

    suite = paper_suite(runs=2, iters=4)
    rows = run_suite(suite, exact_device(), SolverConfig(), seed=1)
    assert rows[-1].iter_acc == 1.0
    assert rows[-1].sat_rate == 1.0


def test_a_suite_needs_an_instance():
    with pytest.raises(ValueError, match="at least one instance"):
        BenchSuite(())


def test_suite_csv_quotes_a_label_with_a_comma(three_x):
    suite = BenchSuite((("a,b", three_x),), runs=1, iters=2)
    rows = run_suite(suite, DeviceConfig(), SolverConfig(), seed=1)
    header, *lines = csv.reader(io.StringIO(suite_report_csv(rows)))
    assert header == list(get_type_hints(AccuracyRow))
    assert [line[0] for line in lines] == ["a,b", "Overall"]
    assert [line[1:] for line in lines] == [[str(v) for v in row][1:] for row in rows]


def test_sublinearity_zero_x():
    measured, predicted = sublinearity_check(
        paper_instances()["0-X"], DeviceConfig(), seed=3
    )
    assert measured < predicted


def test_sublinearity_gap_closes_without_shortcut():
    from dataclasses import replace

    ratios = []
    for seed in range(5):
        measured, predicted = sublinearity_check(
            paper_instances()["0-X"],
            replace(DeviceConfig(), shortcut_writes=False),
            seed=seed,
        )
        ratios.append(measured / predicted)
    assert abs(np.mean(ratios) - 1.0) < 0.15


def test_sublinearity_zero_iterations_is_init_only():
    # Init-only counts the run's initialization alone: two core writes.
    rows = kernel_energy_report(DeviceConfig(), trials=40, seed=8)
    core_init = next(
        r.mean_nj for r in rows if (r.kernel, r.phase) == ("core", "initialize")
    )
    measured = np.mean(
        [
            sublinearity_check(paper_instances()["0-X"], DeviceConfig(), seed=s, iters=0)[0]
            for s in range(10)
        ]
    )
    assert measured == pytest.approx(2 * core_init, rel=0.2)


def test_sublinearity_modes_measure_one_initialization():
    # Both modes program the same array at one seed, so init-only is part of the full run.
    for cnf in paper_instances().values():
        for seed in range(5):
            init_only, full = (
                sublinearity_check(cnf, DeviceConfig(), seed=seed, iters=iters, kernel_trials=1)[0]
                for iters in (0, 10)
            )
            assert init_only <= full
    with pytest.raises(ValueError):
        sublinearity_check(paper_instances()["0-X"], DeviceConfig(), iters=-1)


@pytest.mark.parametrize("m", [8, 40])
def test_sublinearity_init_prediction_beyond_two_clauses(m):
    # Both off-diagonal blocks of every coupled clause pair are written, so a
    # full-swing initialization must match the additive prediction at any size.
    device = DeviceConfig(rows=3 * m, cols=6 * m, shortcut_writes=False)
    ratios = []
    for seed in range(3):
        measured, predicted = sublinearity_check(
            random_3sat(max(3, m // 3), m, seed), device, seed=seed, iters=0
        )
        ratios.append(measured / predicted)
    assert abs(np.mean(ratios) - 1.0) < 0.15


def test_cli_gen_deterministic(capsys):
    assert main(["gen", "--vars", "6", "--clauses", "2", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--vars", "6", "--clauses", "2", "--seed", "1"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("p cnf 6 2\n")


def test_cli_solve_sat_and_report(tmp_path, three_x, capsys):
    cnf_path = tmp_path / "three_x.cnf"
    cnf_path.write_text(emit_dimacs(three_x))
    report_path = tmp_path / "report.json"
    code = main(["solve", str(cnf_path), "--seed", "7", "--report", str(report_path)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["verdict"] == "SAT"
    assert report["assignment"] is not None


def test_cli_solve_unknown_exit_code(tmp_path, capsys):
    from conftest import unsat_eight_clause

    cnf_path = tmp_path / "unsat.cnf"
    cnf_path.write_text(emit_dimacs(unsat_eight_clause()))
    config_path = tmp_path / "cfg.json"
    config_path.write_text(
        json.dumps(
            {
                "device": {"rows": 24, "cols": 48},
                "solver": {"restarts": 2, "max_iters": 10},
            }
        )
    )
    code = main(
        ["solve", str(cnf_path), "--seed", "3", "--config", str(config_path)]
    )
    capsys.readouterr()
    assert code == 1


def test_cli_input_errors(tmp_path, capsys):
    missing = tmp_path / "nope.cnf"
    assert main(["solve", str(missing)]) == 2
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 3 1\n1 2 0\n")
    assert main(["solve", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    for count in ("--runs", "--iters"):
        assert main(["bench", count, "0"]) == 2
        assert "error:" in capsys.readouterr().err
    # Three clauses need 9 rows and 18 columns, more than the default array.
    assert main(["gen", "--vars", "3", "--clauses", "3", "--seed", "1"]) == 0
    three = tmp_path / "three.cnf"
    three.write_text(capsys.readouterr().out)
    assert main(["solve", str(three)]) == 2
    assert 'set {"device": {"rows": 9, "cols": 18}}' in capsys.readouterr().err
    # The core kernel needs 3 rows and the 3-inconn kernel 6 columns.
    for device in ({"rows": 2, "cols": 16}, {"rows": 4, "cols": 4}):
        small = tmp_path / "small.json"
        small.write_text(json.dumps({"device": device}))
        assert main(["kernels", "--trials", "2", "--config", str(small)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert 'set {"device": {"rows": 3, "cols": 6}}' in err


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"device": {"rows": 40.5, "cols": 80}}, "rows"),
        ({"device": {"energy_curve": 5}}, "energy_curve"),
        ({"device": {"shortcut_writes": 1}}, "shortcut_writes"),
        ({"device": [1, 2]}, "DeviceConfig"),
        ({"solver": {"k": "2"}}, "SolverConfig.k"),
        ({"solver": {"kk": 2}}, "kk"),
        ({"solver": {"control_f": "min"}}, "control_f"),
        ({"solver": {"a_pen": 1.0, "b_pen": 2.0}}, "a_pen"),
        ([1, 2], "document"),
        ({"device": {"energy_curve": [[1]]}}, "energy_curve point [1]"),
        ({"device": {"energy_curve": [[0, 0], [10, 1, 2], [100, 5]]}}, "energy_curve point [10, 1, 2]"),
        ({"device": {"v_read": math.nan}}, "DeviceConfig.v_read"),
        ({"device": {"miss_spread": math.inf}}, "DeviceConfig.miss_spread"),
        ({"device": {"energy_curve": [[0, 0], [math.nan, 1], [100, 5]]}}, "DeviceConfig.energy_curve"),
        ({"solver": {"t0": math.nan}}, "SolverConfig.t0"),
        ({"solver": {"t0": -1.0}}, "t0"),
        ({"device": {"v_read": 10**400}}, "DeviceConfig.v_read"),
        ({"solver": {"a_pen": math.inf}}, "SolverConfig.a_pen"),
        ({"device": {"energy_curve": [[0, 0], [50, 10**400], [100, 5]]}}, "DeviceConfig.energy_curve"),
        ({"rows": 4, "cols": 4}, "['cols', 'rows']"),
        ({"solvr": {"k": 2}}, "['solvr']"),
        ({"device": {"energy_curve": [[-10, 0], [0, 0.1], [100, 5]]}}, "start at 0 uS"),
        ({"device": {"v_read": 1e100, "t_read": 1e200}}, "v_read ** 2 * t_read overflows"),
        ({"device": {"v_read": 1e160}}, "v_read ** 2 * t_read overflows"),
    ],
    ids=[
        "float-rows", "scalar-curve", "int-for-bool", "list-section",
        "string-k", "unknown-solver-key", "removed-control-f", "bad-penalties", "list-document",
        "one-number-curve-point", "three-number-curve-point",
        "nan-v-read", "inf-miss-spread", "nan-curve-point", "nan-t0", "negative-t0",
        "huge-int-v-read", "inf-a-pen", "huge-int-curve-point",
        "top-level-device-keys", "misspelled-solver-section",
        "curve-below-zero", "infinite-read-energy", "overflowing-v-read",
    ],
)
def test_cli_rejects_malformed_config(tmp_path, capsys, three_x, doc, named):
    cnf_path = tmp_path / "three_x.cnf"
    cnf_path.write_text(emit_dimacs(three_x))
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(doc))
    assert main(["solve", str(cnf_path), "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert named in err


@pytest.mark.parametrize(
    "command, solver, named",
    [
        (["kernels", "--trials", "3"], {"k": 3, "restarts": 7}, "['k', 'restarts']"),
        (["bench", "--runs", "2", "--iters", "3"], {"max_iters": 2, "restarts": 7},
         "['max_iters', 'restarts']"),
        (["bench", "--runs", "2", "--iters", "3"], {"k": 2, "profile_iterations": False},
         "['profile_iterations']"),
    ],
    ids=["kernels-k-restarts", "bench-max-iters-restarts", "bench-profile-iterations"],
)
def test_cli_rejects_solver_keys_the_command_does_not_read(tmp_path, capsys, command, solver, named):
    """bench sets restarts, max_iters and profile_iterations itself and kernels
    reads only the seed, so a config setting any other key would change nothing."""
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"solver": solver}))
    out = tmp_path / "out.csv"
    assert main(command + ["--config", str(config_path), "--csv", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command[0]} ") and named in err
    assert not out.exists()


def test_cli_bench_and_kernels_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["bench", "--runs", "2", "--iters", "3", "--seed", "9"]
    assert main(args + ["--csv", str(out1)]) == 0
    assert main(args + ["--csv", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "instance,iter_acc,exec_energy_nj,infer_energy_nj,sat_rate"
    assert len(lines) == 6  # header + 4 instances + overall

    k1 = tmp_path / "k1.csv"
    k2 = tmp_path / "k2.csv"
    kargs = ["kernels", "--trials", "4", "--seed", "2"]
    assert main(kargs + ["--csv", str(k1)]) == 0
    assert main(kargs + ["--csv", str(k2)]) == 0
    capsys.readouterr()
    assert k1.read_bytes() == k2.read_bytes()


@pytest.mark.parametrize(
    "command",
    [
        ["solve", "{cnf}", "--report", "{out}"],
        ["bench", "--runs", "2", "--iters", "3", "--csv", "{out}"],
        ["kernels", "--trials", "3", "--csv", "{out}"],
    ],
    ids=["solve", "bench", "kernels"],
)
def test_cli_seed_is_the_flag_else_the_config_else_zero(tmp_path, capsys, three_x, command):
    cnf_path = tmp_path / "three_x.cnf"
    cnf_path.write_text(emit_dimacs(three_x))
    out = tmp_path / "out"

    def output(seed_args, config_seed=None):
        args = [arg.format(cnf=cnf_path, out=out) for arg in command] + seed_args
        if config_seed is not None:
            config_path = tmp_path / "cfg.json"
            config_path.write_text(json.dumps({"solver": {"seed": config_seed}}))
            args += ["--config", str(config_path)]
        assert main(args) in ((0, 1) if command[0] == "solve" else (0,))
        capsys.readouterr()
        return out.read_bytes()

    assert output(["--seed", "5"]) != output(["--seed", "3"])  # the seed reaches the output
    assert output([], config_seed=5) == output(["--seed", "5"])
    assert output(["--seed", "3"], config_seed=5) == output(["--seed", "3"])
    assert output([]) == output(["--seed", "0"])


def test_console_entry_point_runs():
    # A subprocess does not inherit pytest's pythonpath, so the uninstalled
    # package is put on its path explicitly.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "ising_reram.cli", "gen", "--vars", "4", "--clauses", "1", "--seed", "0"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("p cnf 4 1")
