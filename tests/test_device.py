import json
import math

import numpy as np
import pytest

from ising_reram import (
    CellState,
    DeviceConfig,
    DeviceConfigError,
    EnergyLedger,
    WriteOutcome,
    new_crossbar,
)
from conftest import exact_device


def test_new_crossbar_defaults():
    xb = new_crossbar(DeviceConfig(), seed=1)
    assert xb.conductance.shape == (32, 16)
    assert (xb.classify_grid() == int(CellState.STATE0)).all()
    assert xb.ledger.total_nj() == 0.0


def test_overlapping_windows_rejected():
    with pytest.raises(DeviceConfigError):
        DeviceConfig(tolerance=30.0)  # 20+30 > 70-30


NON_FINITE = (math.nan, math.inf, -math.inf, 10**400)  # 10**400 is beyond float range


def test_config_rejects_non_finite_fields():
    fields = ("g_state0", "g_state1", "tolerance", "p_cell_success", "miss_spread",
              "energy_noise_sigma", "v_read", "t_read")
    for field in fields:
        for value in NON_FINITE:
            with pytest.raises(DeviceConfigError, match=rf"^DeviceConfig\.{field} must be finite"):
                DeviceConfig(**{field: value})


def test_config_rejects_non_finite_curve_points():
    for value in NON_FINITE:
        for point in ((value, 5.0), (50.0, value)):
            curve = ((0.0, 0.0), point, (100.0, 11.0))
            with pytest.raises(DeviceConfigError, match=r"^DeviceConfig\.energy_curve point .* must be finite"):
                DeviceConfig(energy_curve=curve)


def test_bad_dims_rejected():
    with pytest.raises(DeviceConfigError):
        DeviceConfig(rows=0)


def test_classify_windows():
    cfg = DeviceConfig()
    assert cfg.classify_value(25.0) == CellState.STATE0
    assert cfg.classify_value(45.0) == CellState.INDETERMINATE
    assert cfg.classify_value(61.0) == CellState.STATE1


def test_energy_curve_anchors():
    cfg = DeviceConfig()
    nominal = cfg.stored_energy_nj(70.0) - cfg.stored_energy_nj(20.0)
    assert nominal == pytest.approx(2.8, abs=1e-9)
    worst = cfg.stored_energy_nj(80.0) - cfg.stored_energy_nj(10.0)
    assert worst == pytest.approx(9.5, abs=1e-9)


def test_energy_curve_strictly_increasing():
    cfg = DeviceConfig()
    grid = np.linspace(0.0, 100.0, 401)
    values = [cfg.stored_energy_nj(g) for g in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_curve_validation():
    with pytest.raises(DeviceConfigError):
        DeviceConfig(energy_curve=((0.0, 0.0), (50.0, 1.0), (40.0, 2.0)))
    with pytest.raises(DeviceConfigError):
        DeviceConfig(energy_curve=((0.0, 0.0), (100.0, 0.0)))


def test_program_cell_skip_is_free():
    xb = new_crossbar(DeviceConfig(), seed=1)
    out = xb.program_cell(0, 0, CellState.STATE0, "init")
    assert out.energy_nj == 0.0
    assert out.landed_in_window
    assert xb.conductance[0, 0] == 20.0
    assert xb.ledger.total_nj() == 0.0


def test_program_cell_success_lands_in_window():
    xb = new_crossbar(exact_device(), seed=1)
    out = xb.program_cell(0, 0, CellState.STATE1, "init")
    assert out.landed_in_window
    assert xb.state[0, 0] == CellState.STATE1
    assert out.energy_nj == pytest.approx(2.8, abs=1e-9)  # nominal full swing


def test_shortcut_landing_stays_inside_near_half_window():
    cfg = DeviceConfig(p_cell_success=1.0, energy_noise_sigma=0.0)
    xb = new_crossbar(cfg, seed=3)
    for col in range(16):
        out = xb.program_cell(0, col, CellState.STATE1)
        assert 60.0 <= out.final_g <= 70.0


def test_program_cell_monte_carlo_landing_fraction():
    cfg = DeviceConfig(p_cell_success=0.985)
    xb = new_crossbar(cfg, seed=9)
    rows, cols = cfg.rows, cfg.cols
    landed = 0
    total = 10_000
    for i in range(total):
        r, c = i % rows, (i // rows) % cols
        xb.inject_fault(r, c, cfg.g_state0)  # reset without energy accounting
        landed += xb.program_cell(r, c, CellState.STATE1).landed_in_window
    assert abs(landed / total - 0.985) <= 0.01


def test_write_then_reprogram_same_state_costs_nothing():
    xb = new_crossbar(DeviceConfig(), seed=2)
    first = xb.program_cell(1, 1, CellState.STATE1, "init")
    assert first.landed_in_window
    before = xb.ledger.total_nj()
    again = xb.program_cell(1, 1, CellState.STATE1, "init")
    assert again.energy_nj == 0.0
    assert xb.ledger.total_nj() == before
    assert again.final_g == first.final_g


def _pair_cells(row, col_pos, col_neg, logical):
    """A signed weight in a differential pair as two cells, positive cell first."""
    return [(row, col_pos, int(logical == 1)), (row, col_neg, int(logical == -1))]


def test_program_pair_conventions():
    xb = new_crossbar(exact_device(), seed=1)
    # logical -1: high cell goes to the negative column (2j), per the
    # pairwise-opposite write convention.
    xb.program(_pair_cells(0, col_pos=1, col_neg=0, logical=-1), "init")
    assert xb.state[0, 0] == CellState.STATE1
    assert xb.state[0, 1] == CellState.STATE0
    # logical 0 from fresh cells is free.
    before = xb.ledger.total_nj()
    xb.program(_pair_cells(1, col_pos=3, col_neg=2, logical=0), "init")
    assert xb.ledger.total_nj() == before


def test_program_pair_flip_costs_two_transitions():
    xb = new_crossbar(exact_device(), seed=1)
    xb.program(_pair_cells(0, 1, 0, -1), "init")
    before = xb.ledger.program_energy_nj
    xb.program(_pair_cells(0, 1, 0, 1), "program")
    flip_cost = xb.ledger.program_energy_nj - before
    assert flip_cost == pytest.approx(2 * 2.8, abs=1e-9)


def test_write_validation():
    xb = new_crossbar(DeviceConfig(), seed=1)
    with pytest.raises(IndexError):
        xb.program_cell(99, 0, CellState.STATE1)
    with pytest.raises(ValueError):
        xb.program_cell(0, 0, CellState.STATE1, "flip")


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


# Device settings that each take their own branch of the per-pulse kernel.
DEVICE_VARIANTS = pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"p_cell_success": 0.5},
        {"shortcut_writes": False},
        {"energy_noise_sigma": 0.0},
        {"energy_noise_sigma": 0.7},
        {"g_state0": 15, "g_state1": 80, "tolerance": 7.5},
    ],
    ids=["default", "p0.5", "no-shortcut", "no-noise", "noise-0.7", "window-15-80"],
)


@DEVICE_VARIANTS
def test_program_batch_equals_cell_by_cell_writes(overrides):
    cfg = DeviceConfig(**overrides)  # every variant has failed writes
    rng = np.random.default_rng(4)
    batch, single = new_crossbar(cfg, seed=7), new_crossbar(cfg, seed=7)
    for xb in (batch, single):  # some cells already high, one in the dead zone
        for col in range(0, cfg.cols, 3):
            xb.program_cell(col % cfg.rows, col, CellState.STATE1, "init")
        xb.inject_fault(5, 5, 45.0)
    for kind in ("init", "program"):
        order = rng.permutation(cfg.rows * cfg.cols)
        targets = rng.integers(0, 2, size=order.size)
        cells = [
            (int(k) // cfg.cols, int(k) % cfg.cols, CellState(int(v)))
            for k, v in zip(order, targets)
        ]
        held = sum(batch.state[row, col] == target for row, col, target in cells)
        assert 0 < held < len(cells)
        counts = batch.program(cells, kind)
        outcomes = [single.program_cell(row, col, target, kind) for row, col, target in cells]
        assert counts == (len(cells), sum(out.landed_in_window for out in outcomes))
        assert counts[1] < counts[0]  # some writes missed their window
        assert np.array_equal(batch.conductance, single.conductance)
        assert np.array_equal(batch.state, single.state)
        assert batch.ledger._totals == single.ledger._totals
        assert batch.rng.bit_generator.state == single.rng.bit_generator.state
    assert batch.program([], "init") == (0, 0)


def test_program_batch_from_a_generator_equals_the_list():
    cfg = DeviceConfig()
    cells = [(r, c, CellState((r + c) % 2)) for r in range(cfg.rows) for c in range(cfg.cols)]
    listed, generated = new_crossbar(cfg, seed=9), new_crossbar(cfg, seed=9)
    counts = listed.program(cells, "init")
    assert generated.program((cell for cell in cells), "init") == counts
    assert counts[0] == len(cells)
    assert np.array_equal(listed.conductance, generated.conductance)
    assert np.array_equal(listed.state, generated.state)
    assert listed.ledger._totals == generated.ledger._totals
    assert listed.rng.bit_generator.state == generated.rng.bit_generator.state


@pytest.mark.parametrize(
    "cell, kind",
    [
        ((0, 0, CellState.STATE0), "flip"),
        ((99, 0, CellState.STATE0), "program"),
        ((0, 16, CellState.STATE1), "program"),
        ((-1, 0, CellState.STATE0), "program"),
        ((0, 0, CellState.INDETERMINATE), "program"),
        ((5, 5, CellState.INDETERMINATE), "init"),  # a cell that holds INDETERMINATE
        ((0, 0, 7), "program"),
    ],
)
def test_program_batch_raises_what_program_cell_raises(cell, kind):
    xb = new_crossbar(DeviceConfig(), seed=1)
    xb.inject_fault(5, 5, 45.0)
    expected = _raised(lambda: xb.program_cell(*cell, kind))
    assert _raised(lambda: xb.program([(1, 1, CellState.STATE0), cell], kind)) == expected


@pytest.mark.parametrize(
    "curve",
    [
        None,  # the default curve
        ((0.0, 0.0), (3.3, 0.7), (17.1, 1.9), (55.5, 2.2), (81.0, 9.1), (95.0, 13.3)),
    ],
)
def test_stored_energy_matches_np_interp_bit_for_bit(curve):
    cfg = DeviceConfig() if curve is None else DeviceConfig(energy_curve=curve)
    gs = np.array([g for g, _ in cfg.energy_curve])
    es = np.array([e for _, e in cfg.energy_curve])
    xs = np.concatenate([
        gs,
        np.nextafter(gs, -np.inf),
        np.nextafter(gs, np.inf),
        [-1e300, -50.0, -0.0, 5e-324, 151.0, 1e300, np.inf, -np.inf, np.nan],
        np.linspace(-20.0, gs[-1] + 20.0, 100_001),
    ])
    got = np.array([cfg.stored_energy_nj(float(x)) for x in xs])
    want = np.interp(xs, gs, es)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_read_columns_currents_and_energy():
    cfg = DeviceConfig()
    xb = new_crossbar(cfg, seed=1)
    xb.inject_fault(0, 0, 70.0)
    drive = np.zeros(cfg.rows, dtype=int)
    drive[0] = 1
    currents = xb.read_columns(drive)
    assert currents[0] == pytest.approx(0.3 * 70.0)  # 21 uA
    # Read energy: single driven row, all 16 cells; the 70 uS cell alone
    # dissipates V^2*G*t = 0.3^2 * 70e-6 * 1e-6 J = 6.3e-3 nJ.
    expected = 0.3 ** 2 * (70.0 + 15 * 20.0) * 1e-6 * 1e-6 * 1e9
    assert xb.ledger.inference_energy_nj == pytest.approx(expected)
    single_cell = 0.3 ** 2 * 70.0 * 1e-6 * 1e-6 * 1e9
    assert single_cell == pytest.approx(6.3e-3)


def test_read_columns_zero_drive():
    xb = new_crossbar(DeviceConfig(), seed=1)
    currents = xb.read_columns(np.zeros(32, dtype=int))
    assert (currents == 0).all()
    assert xb.ledger.inference_energy_nj == 0.0


@pytest.mark.parametrize("bad", [2, -2, 0.5, np.nan])
def test_read_columns_rejects_drives_outside_unit_set(bad):
    xb = new_crossbar(DeviceConfig(), seed=1)
    drive = np.zeros(32)
    drive[3] = bad
    with pytest.raises(ValueError, match="drive entries"):
        xb.read_columns(drive)
    assert xb.ledger.inference_energy_nj == 0.0


def test_read_columns_accepts_float_unit_drive():
    xb = new_crossbar(DeviceConfig(), seed=1)
    xb.inject_fault(1, 4, 70.0)
    drive = np.zeros(32, dtype=int)
    drive[:3] = (1, -1, 1)
    by_int = xb.read_columns(drive)
    by_float = xb.read_columns(drive.astype(float))
    assert np.array_equal(by_int, by_float)


@pytest.mark.parametrize("driven", ["prefix", "non-prefix", "zero"])
def test_read_energy_equals_driven_row_sum(driven):
    cfg = DeviceConfig(rows=120, cols=240)
    xb = new_crossbar(cfg, seed=1)
    rng = np.random.default_rng(5)
    # Read energy depends only on conductance; spread values make summation order show.
    xb.conductance[:] = rng.uniform(5.0, 95.0, xb.conductance.shape)
    drive = np.zeros(cfg.rows, dtype=np.int64)
    if driven == "prefix":
        drive[:90] = rng.choice((-1, 1), 90)
    elif driven == "non-prefix":
        drive[3:6] = (1, -1, 1)
    xb.read_columns(drive)
    expected = cfg.v_read ** 2 * xb.conductance[drive != 0, :].sum() * cfg.t_read * 1e3
    assert xb.ledger.inference_energy_nj == expected


def test_differential_nullification():
    cfg = DeviceConfig()
    xb = new_crossbar(cfg, seed=1)
    xb.inject_fault(0, 0, 70.0)
    xb.inject_fault(0, 1, 70.0)
    drive = np.zeros(cfg.rows, dtype=int)
    drive[0] = 1
    currents = xb.read_columns(drive)
    assert currents[1] - currents[0] == 0.0


def test_inject_fault_and_classify():
    xb = new_crossbar(DeviceConfig(), seed=1)
    xb.inject_fault(2, 3, 45.0)
    assert xb.state[2, 3] == CellState.INDETERMINATE
    xb.inject_fault(2, 3, 70.0)
    assert xb.state[2, 3] == CellState.STATE1
    assert xb.ledger.total_nj() == 0.0
    with pytest.raises(IndexError):
        xb.inject_fault(99, 0, 20.0)


@pytest.mark.parametrize("g", [float("nan"), float("inf"), -float("inf")])
def test_inject_fault_rejects_non_finite_conductance(g):
    xb = new_crossbar(DeviceConfig(), seed=1)
    with pytest.raises(ValueError, match="finite"):
        xb.inject_fault(0, 0, g)
    assert xb.conductance[0, 0] == 20.0
    assert xb.state[0, 0] == CellState.STATE0
    xb.program_cell(0, 0, CellState.STATE1)
    assert math.isfinite(xb.ledger.total_nj())


def test_ledger_rejects_nan_and_unknown_kinds():
    ledger = EnergyLedger()
    ledger.record("program", 1.5)
    with pytest.raises(ValueError, match="non-negative"):
        ledger.record("program", float("nan"))
    with pytest.raises(ValueError, match="non-negative"):
        ledger.record("init", -1.0)
    with pytest.raises(ValueError, match="unknown ledger kind"):
        ledger.record("erase", 1.0)
    assert ledger.program_energy_nj == 1.5
    assert ledger.total_nj() == 1.5


def _reference_program_cell(xb, row, col, target, kind):
    """A write made with numpy's own triangular, normal and lognormal calls.

    This is the write model as first written, kept as the oracle for the
    per-pulse kernel in ``Crossbar.program_cell``: it must make the same
    draws from the same generator and give the same bits.
    """
    cfg = xb.config
    g = cfg.g_state1 if target == CellState.STATE1 else cfg.g_state0
    lo, hi, nominal = float(g - cfg.tolerance), float(g + cfg.tolerance), float(g)
    start = xb.conductance.item(row, col)
    if xb.state.item(row, col) == target:
        return WriteOutcome(start, True, 0.0)
    if xb.rng.random() < cfg.p_cell_success:
        if not cfg.shortcut_writes:
            final = nominal
        elif start < lo:
            final = float(xb.rng.triangular(lo, lo, nominal))
        else:
            final = float(xb.rng.triangular(nominal, hi, hi))
    else:
        final = float(xb.rng.normal(nominal, cfg.miss_spread))
    curve = cfg.energy_curve
    final = min(max(final, curve[0][0]), curve[-1][0])
    swing = abs(cfg.stored_energy_nj(final) - cfg.stored_energy_nj(start))
    sigma = cfg.energy_noise_sigma
    noise = 1.0 if sigma == 0 else float(xb.rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))
    energy = swing * noise
    xb.ledger.record(kind, energy)
    xb.conductance[row, col] = final
    xb.state[row, col] = cfg.classify_value(final)
    return WriteOutcome(final, lo <= final <= hi, energy)


@DEVICE_VARIANTS
def test_program_cell_equals_numpy_distribution_calls_bit_for_bit(overrides):
    cfg = DeviceConfig(rows=6, cols=6, **overrides)
    xb, ref = new_crossbar(cfg, seed=11), new_crossbar(cfg, seed=11)
    lo0, hi0 = cfg.g_state0 - cfg.tolerance, cfg.g_state0 + cfg.tolerance
    lo1, hi1 = cfg.g_state1 - cfg.tolerance, cfg.g_state1 + cfg.tolerance
    # Below, on the edges of, inside and above each window, and in the dead zone.
    starts = (0.0, lo0 - 3.0, lo0, cfg.g_state0 + 1.5, hi0, (hi0 + lo1) / 2,
              lo1 - 0.5, lo1, cfg.g_state1 - 2.0, hi1, hi1 + 4.0, 140.0, 160.0)
    picks = np.random.default_rng(3)
    writes = 6_000
    for i in range(writes):
        row, col = int(picks.integers(cfg.rows)), int(picks.integers(cfg.cols))
        if picks.random() < 0.7:
            start = starts[int(picks.integers(len(starts)))]
            xb.inject_fault(row, col, start)
            ref.inject_fault(row, col, start)
        target = (CellState.STATE0, CellState.STATE1)[int(picks.integers(2))]
        kind = "init" if i % 3 == 0 else "program"
        got = xb.program_cell(row, col, target, kind)
        assert got == _reference_program_cell(ref, row, col, target, kind), i
    assert np.array_equal(xb.conductance, ref.conductance)
    assert np.array_equal(xb.state, ref.state)
    for total in ("init_energy_nj", "program_energy_nj", "inference_energy_nj"):
        assert getattr(xb.ledger, total) == getattr(ref.ledger, total)
    assert xb.ledger.total_nj() == ref.ledger.total_nj()
    assert xb.rng.bit_generator.state == ref.rng.bit_generator.state


def test_ledger_completeness_and_determinism():
    cells = [cell for col in range(8) for cell in _pair_cells(col % 4, 2 * col + 1, 2 * col, 1)]

    def exercise(seed):
        xb = new_crossbar(DeviceConfig(), seed=seed)
        counts = xb.program(cells, "init")
        xb.read_columns(np.ones(32, dtype=int))
        twin = new_crossbar(DeviceConfig(), seed=seed)  # the same writes, one call each
        outcomes = [twin.program_cell(*cell, "init") for cell in cells]
        return xb, counts, outcomes

    (xb1, counts1, out1), (xb2, counts2, out2) = exercise(5), exercise(5)
    assert counts1 == counts2 == (len(cells), sum(out.landed_in_window for out in out1))
    assert out1 == out2
    assert (xb1.conductance == xb2.conductance).all()
    writes = sum(out.energy_nj for out in out1)
    assert writes == pytest.approx(xb1.ledger.init_energy_nj)
    assert xb1.ledger.init_energy_nj + xb1.ledger.inference_energy_nj == pytest.approx(
        xb1.ledger.total_nj()
    )
    xb3, _, out3 = exercise(6)
    assert out3 != out1
    assert not (xb3.conductance == xb1.conductance).all()


def test_inject_fault_sets_one_cell_at_no_energy():
    xb = new_crossbar(DeviceConfig(rows=2, cols=3), seed=1)
    xb.inject_fault(0, 1, 61.25)
    assert xb.conductance.tolist() == [[20.0, 61.25, 20.0], [20.0, 20.0, 20.0]]
    assert xb.state[0, 1] == CellState.STATE1
    assert xb.ledger.total_nj() == 0.0


def test_config_json_round_trip():
    cfg = DeviceConfig(rows=8, cols=12, p_cell_success=0.97)
    restored = DeviceConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert restored == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(DeviceConfigError):
        DeviceConfig.from_dict({"rows": 4, "colz": 2})
