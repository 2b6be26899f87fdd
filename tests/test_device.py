import dataclasses
import json
import math
import re

import numpy as np
import pytest

import ising_reram.device as device_module
from ising_reram import (
    CellState,
    DeviceConfig,
    DeviceConfigError,
    EnergyLedger,
    WriteOutcome,
    new_crossbar,
)
from ising_reram.util import from_mapping
from conftest import DEVICE_VARIANTS, exact_device


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


@pytest.mark.parametrize(
    "overrides",
    [
        {"v_read": 1e160},  # v_read ** 2 alone is beyond float range
        {"v_read": 1e100, "t_read": 1e200},
        {"v_read": 1e152, "t_read": 1e-200},  # read_columns multiplies by t_read last
        {"v_read": 1e150, "rows": 10**6, "cols": 10**6},
    ],
    ids=["v-read-squared", "v-read-and-t-read", "read-order", "array-size"],
)
def test_config_rejects_read_energy_beyond_float_range(overrides):
    with pytest.raises(DeviceConfigError, match=r"^v_read \*\* 2 \* t_read overflows .*v_read"):
        DeviceConfig(**overrides)


def test_config_read_energy_bound_admits_a_finite_full_read():
    cfg = DeviceConfig(v_read=1e100, t_read=1e-100)
    xb = new_crossbar(cfg, seed=1)
    for row in range(cfg.rows):
        for col in range(cfg.cols):
            xb.inject_fault(row, col, cfg.energy_curve[-1][0])  # every cell at the curve's end
    xb.read_columns(np.ones(cfg.rows, dtype=int))
    assert 0 < xb.ledger.inference_energy_nj < math.inf


def test_bad_dims_rejected():
    with pytest.raises(DeviceConfigError):
        DeviceConfig(rows=0)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"g_state0": 0.0}, "physical quantities must be positive"),
        ({"tolerance": -1.0}, "physical quantities must be positive"),
        ({"t_read": 0.0}, "physical quantities must be positive"),
        ({"p_cell_success": 1.5}, r"p_cell_success 1.5 not in \[0,1\]"),
        ({"p_cell_success": -0.1}, r"p_cell_success -0.1 not in \[0,1\]"),
        ({"energy_noise_sigma": -0.3}, "energy_noise_sigma must be >= 0"),
    ],
)
def test_config_rejects_out_of_range_fields(overrides, message):
    with pytest.raises(DeviceConfigError, match=f"^{message}"):
        DeviceConfig(**overrides)


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
    with pytest.raises(DeviceConfigError, match="start at 0 uS"):
        DeviceConfig(energy_curve=((-10.0, 0.0), (0.0, 0.1), (100.0, 5.0)))
    with pytest.raises(DeviceConfigError, match="at least two points"):
        DeviceConfig(energy_curve=((0.0, 0.0),))


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


def _same_generators(a, b) -> bool:
    """Have two crossbars drawn the same blocks from both of their generators?"""
    return (a.rng.bit_generator.state == b.rng.bit_generator.state
            and a.normal_rng.bit_generator.state == b.normal_rng.bit_generator.state)


def _assert_same_crossbars(a, b):
    """Equal conductance, sensed grid, row totals and ledger totals, the same
    blocks drawn, and the same next pulse's draws (which each takes)."""
    assert np.array_equal(a.conductance, b.conductance)
    assert np.array_equal(a.state, b.state)
    assert a.row_g == b.row_g  # bit for bit
    assert a.ledger._totals == b.ledger._totals
    assert _same_generators(a, b)
    assert next(a._draws) == next(b._draws)


def _lead():
    """``_BATCH_MIN`` distinct valid cells on rows 10 and up, alternately low and high."""
    cols = DeviceConfig().cols
    return [(10 + i // cols, i % cols, CellState(i % 2)) for i in range(device_module._BATCH_MIN)]


def _result(call):
    """What a call returned, or the type and message of what it raised."""
    try:
        return "returned", call()
    except Exception as error:  # compared, not handled
        return type(error), str(error)


@DEVICE_VARIANTS
def test_program_batch_equals_cell_by_cell_writes(overrides):
    _assert_batches_equal_cell_by_cell_writes(DeviceConfig(**overrides))


@DEVICE_VARIANTS
def test_program_batch_across_draw_blocks_equals_cell_by_cell_writes(monkeypatch, overrides):
    monkeypatch.setattr(device_module, "_DRAW_BLOCK", 5)  # each batch crosses many blocks
    _assert_batches_equal_cell_by_cell_writes(DeviceConfig(**overrides))


def _assert_batches_equal_cell_by_cell_writes(cfg):
    """``program_high`` batches long enough for the numpy pass leave what one
    ``program_cell(row, col, STATE1, "init")`` per cell leaves, on blank arrays
    with starts across the STATE0 window; every variant of ``DEVICE_VARIANTS``
    has failed writes."""
    rng = np.random.default_rng(4)
    lo0, hi0 = cfg.g_state0 - cfg.tolerance, cfg.g_state0 + cfg.tolerance
    missed = False
    for trial in range(30):
        if missed and trial >= 2:
            break
        size = cfg.rows * cfg.cols
        cells = rng.permutation(size)[: int(rng.integers(device_module._BATCH_MIN, size))]
        rows, cols = cells // cfg.cols, cells % cfg.cols
        # Starts on both edges, at the nominal and inside the STATE0 window.
        starts = np.where(rng.random(cells.size) < 0.5, rng.uniform(lo0, hi0, cells.size),
                          rng.choice([lo0, cfg.g_state0, hi0], cells.size))
        batch, single = new_crossbar(cfg, seed=7 + trial), new_crossbar(cfg, seed=7 + trial)
        for xb in (batch, single):
            for row, col, start in zip(rows.tolist(), cols.tolist(), starts.tolist()):
                xb.inject_fault(row, col, start)
        assert not batch.state.any()  # still blank
        batch.program_cell = None  # so the batch must take the numpy pass
        flags = batch.program_high(rows, cols)
        outcomes = [single.program_cell(row, col, CellState.STATE1, "init")
                    for row, col in zip(rows.tolist(), cols.tolist())]
        assert flags.dtype == bool
        assert flags.tolist() == [out.landed_in_window for out in outcomes]
        missed = missed or not flags.all()
        _assert_same_crossbars(batch, single)
    assert missed  # some writes missed their window
    fresh = new_crossbar(cfg, seed=7)
    flags = fresh.program_high(np.array([], int), np.array([], int))
    assert flags.dtype == bool and flags.shape == (0,)
    assert _same_generators(fresh, new_crossbar(cfg, seed=7))


# Per block size, three batch sizes k: 2k one below, equal to and one above a
# multiple of the block (for an even block, one pulse below and above).
_WHOLE_BLOCK_SIZES = {1: (64, 65, 66), 5: (67, 65, 68), device_module._DRAW_BLOCK: (127, 128, 129)}


@DEVICE_VARIANTS
@pytest.mark.parametrize("block", sorted(_WHOLE_BLOCK_SIZES))
def test_whole_block_init_equals_cell_by_cell_writes(monkeypatch, overrides, block):
    monkeypatch.setattr(device_module, "_DRAW_BLOCK", block)
    cfg = DeviceConfig(**overrides)
    for k in _WHOLE_BLOCK_SIZES[block]:
        cells = np.random.default_rng(k).permutation(cfg.rows * cfg.cols)[:k]
        rows, cols = np.divmod(cells, cfg.cols)
        batch, single = new_crossbar(cfg, seed=k), new_crossbar(cfg, seed=k)
        batch.program_cell = None  # so the batch must take the numpy pass
        flags = batch.program_high(rows, cols)
        outcomes = [single.program_cell(row, col, CellState.STATE1, "init")
                    for row, col in zip(rows.tolist(), cols.tolist())]
        assert flags.dtype == bool
        assert flags.tolist() == [out.landed_in_window for out in outcomes]
        # Both streams drew ceil(2k / block) blocks, the pulses' blocks.
        twin = new_crossbar(cfg, seed=k)
        twin.rng.random(-(-2 * k // block) * block)
        twin.normal_rng.standard_normal(-(-2 * k // block) * block)
        assert _same_generators(batch, twin)
        _assert_same_crossbars(batch, single)
        # The values left over lead the streams, for the pulses after them too.
        for _ in range(block + 1):
            assert next(batch._draws) == next(single._draws)


def test_a_crossbar_that_has_pulsed_inits_cell_by_cell():
    cfg = DeviceConfig()
    xb, twin = new_crossbar(cfg, seed=3), new_crossbar(cfg, seed=3)
    for each in (xb, twin):  # one pulse from the dead zone back into STATE0
        each.inject_fault(0, 0, 45.0)
        each.program_cell(0, 0, CellState.STATE0)
    assert not xb.state.any()  # still blank
    pulses = []
    program_cell = xb.program_cell

    def recording_program_cell(*args):
        pulses.append(args)
        return program_cell(*args)

    xb.program_cell = recording_program_cell
    rows, cols = np.divmod(np.arange(2 * device_module._BATCH_MIN) + 5 * cfg.cols, cfg.cols)
    flags = xb.program_high(rows, cols)
    cells = list(zip(rows.tolist(), cols.tolist()))
    assert pulses == [(row, col, CellState.STATE1, "init") for row, col in cells]
    outcomes = [twin.program_cell(row, col, CellState.STATE1, "init") for row, col in cells]
    assert flags.dtype == bool
    assert flags.tolist() == [out.landed_in_window for out in outcomes]
    _assert_same_crossbars(xb, twin)


def test_program_batch_from_a_generator_equals_the_list():
    cfg = DeviceConfig()
    cells = [(r, c, CellState((r + c) % 2)) for r in range(cfg.rows) for c in range(cfg.cols)]
    listed, generated, single = (new_crossbar(cfg, seed=9) for _ in range(3))
    flags = listed.program(cells, "init")
    assert generated.program((cell for cell in cells), "init") == flags
    # One program_cell per cell, held or not, gives the same flags.
    assert flags == [single.program_cell(*cell, "init").landed_in_window for cell in cells]
    assert not all(flags)  # the default device misses some writes
    for other in (generated, single):
        assert np.array_equal(listed.conductance, other.conductance)
        assert np.array_equal(listed.state, other.state)
        assert listed.ledger._totals == other.ledger._totals
        assert _same_generators(listed, other)


# Cells (with a kind) that program_cell refuses.
_REFUSED = [
    ((0, 0, CellState.STATE0), "flip"),
    ((99, 0, CellState.STATE0), "program"),
    ((0, 16, CellState.STATE1), "program"),
    ((-1, 0, CellState.STATE0), "program"),
    ((0, 0, CellState.INDETERMINATE), "program"),
    ((5, 5, CellState.INDETERMINATE), "init"),  # a cell that holds INDETERMINATE
    ((0, 0, 7), "program"),
    ((1.0, 0, CellState.STATE1), "program"),  # a float coordinate
    ((0, 0, "1"), "program"),  # a string target
]


@pytest.mark.parametrize("cell, kind", _REFUSED)
def test_program_batch_raises_what_program_cell_raises(cell, kind):
    xb = new_crossbar(DeviceConfig(), seed=1)
    xb.inject_fault(5, 5, 45.0)
    expected = _raised(lambda: xb.program_cell(*cell, kind))
    assert _raised(lambda: xb.program([(1, 1, CellState.STATE0), cell], kind)) == expected
    # And at the end of a longer batch, after its writes.
    assert _raised(lambda: xb.program(_lead() + [cell], kind)) == expected


@pytest.mark.parametrize(
    "cell, kind", _REFUSED + [((10, 0, CellState.STATE1), "init")],  # (10, 0) is in the lead too
)
def test_a_long_batch_the_loop_refuses_leaves_what_the_loop_leaves(cell, kind):
    # The loop here is one program_cell call per cell.
    batch, loop = new_crossbar(DeviceConfig(), seed=2), new_crossbar(DeviceConfig(), seed=2)
    for xb in (batch, loop):
        xb.inject_fault(5, 5, 45.0)
    cells = _lead() + [cell]

    def cell_by_cell():
        return [loop.program_cell(*each, kind).landed_in_window for each in cells]

    assert _result(lambda: batch.program(cells, kind)) == _result(cell_by_cell)
    _assert_same_crossbars(batch, loop)


@pytest.mark.parametrize(
    "curve",
    [
        None,  # the default curve
        ((0.0, 0.0), (3.3, 0.7), (17.1, 1.9), (55.5, 2.2), (81.0, 9.1), (95.0, 13.3)),
    ],
)
def test_stored_energy_is_the_clamped_piecewise_linear_curve(curve):
    cfg = DeviceConfig() if curve is None else DeviceConfig(energy_curve=curve)
    energy = cfg.stored_energy_nj
    gs = [g for g, _ in cfg.energy_curve]
    es = [e for _, e in cfg.energy_curve]
    last = len(gs) - 1
    for k, (g, e) in enumerate(cfg.energy_curve):
        assert energy(g) == e  # each anchor exactly
        # One ulp off an anchor lies on its own segments, next to its energy.
        below, above = energy(np.nextafter(g, -np.inf)), energy(np.nextafter(g, np.inf))
        assert es[max(k - 1, 0)] <= below <= e <= above <= es[min(k + 1, last)]
        assert below == pytest.approx(e, rel=1e-12) and above == pytest.approx(e, rel=1e-12)
        if k < last:  # linear between anchors
            assert energy((g + gs[k + 1]) / 2) == pytest.approx((e + es[k + 1]) / 2, rel=1e-12)
    # Below and above the curve, the end energies hold.
    for x in (-np.inf, -1e300, -50.0, np.nextafter(0.0, -np.inf), -0.0):
        assert energy(x) == es[0]
    for x in (np.nextafter(gs[-1], np.inf), 151.0, 1e300, np.inf):
        assert energy(x) == es[-1]
    assert es[0] <= energy(5e-324) <= es[1]
    assert math.isnan(energy(np.nan))


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


@pytest.mark.parametrize("shape", [(31,), (33,), (32, 1), ()])
def test_read_columns_rejects_a_drive_of_the_wrong_shape(shape):
    xb = new_crossbar(DeviceConfig(), seed=1)
    with pytest.raises(ValueError, match=rf"drive has shape {re.escape(str(shape))}, expected \(32,\)"):
        xb.read_columns(np.ones(shape, dtype=int))
    assert xb.ledger.inference_energy_nj == 0.0


def test_read_columns_accepts_float_unit_drive():
    xb = new_crossbar(DeviceConfig(), seed=1)
    xb.inject_fault(1, 4, 70.0)
    drive = np.zeros(32, dtype=int)
    drive[:3] = (1, -1, 1)
    by_int = xb.read_columns(drive)
    by_float = xb.read_columns(drive.astype(float))
    assert np.array_equal(by_int, by_float)


_INT64_MIN = int(np.iinfo(np.int64).min)


@pytest.mark.parametrize("dtype, entries, accepted", [
    (np.int8, (1, -1, 0, 1), True),
    (np.int8, (0, -1, 1), True),  # not a prefix drive
    (np.int8, (1, 2), False),
    (np.int8, (-128,), False),
    (np.uint8, (1, 0, 1), True),
    (np.uint8, (255,), False),
    (np.int64, (-1, 1, 1), True),
    (np.int64, (1, 2), False),
    (np.int64, (_INT64_MIN,), False),
    (np.int64, (1, _INT64_MIN, -1), False),
    (bool, (True, False, True), True),
    (float, (1.0, -0.0, -1.0), True),
    (float, (-0.0, 1.0), True),
    (float, (0.5,), False),
    (float, (1.0, np.nan), False),
])
def test_read_columns_accepts_or_refuses_each_drive_dtype(dtype, entries, accepted):
    xb = new_crossbar(DeviceConfig(), seed=1)
    xb.inject_fault(1, 4, 70.0)
    xb.inject_fault(2, 7, 45.0)
    drive = np.zeros(32, dtype=dtype)
    drive[: len(entries)] = entries
    if not accepted:
        with pytest.raises(ValueError, match=r"^drive entries must be in \{-1, 0, \+1\}$"):
            xb.read_columns(drive)
        assert xb.ledger.inference_energy_nj == 0.0
        return
    currents = xb.read_columns(drive)
    as_float = drive.astype(float)
    assert np.array_equal(currents, xb.config.v_read * (as_float @ xb.conductance))
    driven_sum = sum(xb.row_g[row] for row in np.flatnonzero(as_float).tolist())
    assert xb.ledger.inference_energy_nj == xb.config._read_energy_nj(driven_sum)


@pytest.mark.parametrize("driven", ["prefix", "non-prefix", "zero"])
def test_read_energy_equals_driven_row_sum(driven):
    cfg = DeviceConfig(rows=120, cols=240)
    xb = new_crossbar(cfg, seed=1)
    rng = np.random.default_rng(5)
    # Read energy depends only on conductance; spread values make summation order show.
    spread = rng.uniform(5.0, 95.0, xb.conductance.shape)
    for (row, col), g in np.ndenumerate(spread):
        xb.inject_fault(row, col, g)
    drive = np.zeros(cfg.rows, dtype=np.int64)
    if driven == "prefix":
        drive[:90] = rng.choice((-1, 1), 90)
    elif driven == "non-prefix":
        drive[3:6] = (1, -1, 1)
    xb.read_columns(drive)
    # The driven rows' totals (a fault sums its row again), added in row order.
    totals = sum(float(xb.conductance[row].sum()) for row in np.flatnonzero(drive).tolist())
    assert xb.ledger.inference_energy_nj == cfg.v_read ** 2 * totals * cfg.t_read * 1e3
    full_sum = cfg.v_read ** 2 * xb.conductance[drive != 0, :].sum() * cfg.t_read * 1e3
    assert xb.ledger.inference_energy_nj == pytest.approx(full_sum, rel=1e-12, abs=0)


def _read_nj(xb, drive) -> float:
    """The ledger entry of one read of ``drive`` (the crossbar's ledger is replaced)."""
    xb.ledger = EnergyLedger()
    xb.read_columns(drive)
    return xb.ledger.inference_energy_nj


def _full_sum_read_nj(xb, drive) -> float:
    """A read's energy as one sum over every driven cell."""
    return xb.config._read_energy_nj(float(xb.conductance[np.asarray(drive) != 0].sum()))


def _assert_row_totals_hold(xb, picks, exact: bool) -> None:
    """``row_g`` is each row's conductance sum, and reads under a full, a
    prefix, a scattered and a zero drive book the energy of the full sum: to
    1e-12 relative, or bit for bit if ``exact``."""
    rows = xb.config.rows
    prefix = np.zeros(rows, dtype=int)
    prefix[: rows // 2] = picks.choice((-1, 1), rows // 2)
    scattered = picks.choice((-1, 0, 1), rows)
    drives = (np.ones(rows, dtype=int), prefix, scattered, np.zeros(rows, dtype=int))

    def agree(got, want) -> bool:
        return got == want if exact else got == pytest.approx(want, rel=1e-12, abs=0)

    assert agree(xb.row_g, xb.conductance.sum(axis=1).tolist())
    for drive in drives:
        assert agree(_read_nj(xb, drive), _full_sum_read_nj(xb, drive))


def _row_total_mix(cfg, seed, exact: bool) -> None:
    """Init a blank array by ``program_high``'s numpy pass and, on a twin that
    has pulsed, by its per-cell path; then rounds of ``program_cell``,
    ``program`` batches, ``inject_fault`` and rewrites of the faulted cells
    on both, checking the row totals after every step.  Faults on an exact
    device hold its two nominal conductances, else starts across and beyond
    the windows, up to far beyond the curve."""
    picks = np.random.default_rng(seed)
    faults = (cfg.g_state0, cfg.g_state1) if exact else (
        0.0, cfg.g_state0 - cfg.tolerance - 3.0, cfg.g_state0 + 1.5,
        (cfg.g_state0 + cfg.g_state1) / 2, cfg.g_state1 + cfg.tolerance + 4.0, 160.0, 1e20)
    batch, pulsed = new_crossbar(cfg, seed), new_crossbar(cfg, seed)
    pulsed.program_cell(0, 0, CellState.STATE1)
    pulsed.inject_fault(0, 0, cfg.g_state0)  # blank again, with blocks drawn
    cells = picks.permutation(cfg.rows * cfg.cols)[: 3 * device_module._BATCH_MIN]
    rows, cols = np.divmod(cells, cfg.cols)
    pulsed.program_high(rows, cols)
    batch.program_cell = None  # so the batch must take the numpy pass
    batch.program_high(rows, cols)
    del batch.program_cell
    for xb in (batch, pulsed):
        _assert_row_totals_hold(xb, picks, exact)
        for _ in range(4):
            for _ in range(40):
                row, col = int(picks.integers(cfg.rows)), int(picks.integers(cfg.cols))
                xb.program_cell(row, col, CellState(int(picks.integers(2))))
            _assert_row_totals_hold(xb, picks, exact)
            xb.program([(int(picks.integers(cfg.rows)), int(picks.integers(cfg.cols)),
                         CellState(int(picks.integers(2)))) for _ in range(40)])
            _assert_row_totals_hold(xb, picks, exact)
            faulted = [(int(picks.integers(cfg.rows)), int(picks.integers(cfg.cols)))
                       for _ in range(10)]
            for row, col in faulted:
                xb.inject_fault(row, col, faults[int(picks.integers(len(faults)))])
            _assert_row_totals_hold(xb, picks, exact)
            xb.program([(row, col, CellState(int(picks.integers(2)))) for row, col in faulted])
            _assert_row_totals_hold(xb, picks, exact)


@DEVICE_VARIANTS
def test_row_totals_follow_every_write(overrides):
    _row_total_mix(DeviceConfig(rows=12, cols=24, **overrides), seed=3, exact=False)


def test_reads_on_an_ideal_device_book_the_full_sum_bit_for_bit():
    # Every conductance is 20 or 70 uS, so every partial sum is an exact integer.
    _row_total_mix(exact_device(rows=12, cols=24), seed=4, exact=True)


def test_a_rewritten_fault_far_beyond_the_curve_sums_its_row_again():
    cfg = DeviceConfig()
    xb = new_crossbar(cfg, seed=1)
    xb.program_cell(0, 1, CellState.STATE1)
    xb.inject_fault(0, 0, 1e20)  # the row's total rounds the other cells away
    xb.program_cell(0, 0, CellState.STATE0)
    xb.program_cell(0, 1, CellState.STATE0)
    assert xb.row_g[0] == pytest.approx(float(xb.conductance[0].sum()), rel=1e-12, abs=0)
    drive = np.zeros(cfg.rows, dtype=int)
    drive[0] = 1
    assert _read_nj(xb, drive) == pytest.approx(_full_sum_read_nj(xb, drive), rel=1e-12, abs=0)


@pytest.mark.parametrize("cols", [1, 2, 3])
def test_rows_emptied_by_failed_writes_keep_exact_non_negative_totals(cols):
    # Every write misses, often to 0 uS: rows fall to a few small cells or to
    # nothing, where an add can cancel all of a total's value (with the adds
    # alone, seed 1 at 2 columns left a row of two 0 uS cells at -1.4e-14).
    cfg = DeviceConfig(rows=2, cols=cols, p_cell_success=0.0, miss_spread=60.0)
    for seed in range(4):
        xb, picks = new_crossbar(cfg, seed), np.random.default_rng(seed)
        for _ in range(300):
            row, col = int(picks.integers(cfg.rows)), int(picks.integers(cfg.cols))
            xb.program_cell(row, col, CellState(int(picks.integers(2))))
            # abs=0: a row whose cells are all 0 uS has a total of exactly 0.
            assert xb.row_g == pytest.approx(xb.conductance.sum(axis=1).tolist(), rel=1e-12, abs=0)
            drive = np.zeros(cfg.rows, dtype=int)
            drive[row] = 1
            assert _read_nj(xb, drive) == pytest.approx(_full_sum_read_nj(xb, drive),
                                                        rel=1e-12, abs=0)


def test_an_init_whose_falls_could_empty_a_row_writes_cell_by_cell():
    # Two columns and writes that all miss: falls can take a row's total below
    # a start, where a pulse sums its row again, so the numpy pass stands down.
    # (Its adds would leave other bits in two of these 64 rows.)
    cfg = DeviceConfig(rows=device_module._BATCH_MIN, cols=2, p_cell_success=0.0,
                       miss_spread=60.0)
    rows, cols = np.divmod(np.arange(cfg.rows * cfg.cols), cfg.cols)
    starts = np.random.default_rng(1).uniform(cfg.g_state0 - cfg.tolerance,
                                              cfg.g_state0 + cfg.tolerance, rows.size)
    xb, single = new_crossbar(cfg, seed=1), new_crossbar(cfg, seed=1)
    for each in (xb, single):
        for row, col, start in zip(rows.tolist(), cols.tolist(), starts.tolist()):
            each.inject_fault(row, col, start)
    pulses = []
    program_cell = xb.program_cell

    def recording_program_cell(*args):
        pulses.append(args)
        return program_cell(*args)

    xb.program_cell = recording_program_cell
    flags = xb.program_high(rows, cols)
    assert len(pulses) == rows.size
    outcomes = [single.program_cell(row, col, CellState.STATE1, "init")
                for row, col in zip(rows.tolist(), cols.tolist())]
    assert flags.tolist() == [out.landed_in_window for out in outcomes]
    del xb.program_cell
    _assert_same_crossbars(xb, single)
    assert min(xb.row_g) < 2 * (cfg.g_state0 + cfg.tolerance)  # a row did fall that far


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


@pytest.mark.parametrize("g", [float("nan"), float("inf"), -float("inf"), -1e4])
def test_inject_fault_rejects_non_finite_conductance(g):
    xb = new_crossbar(DeviceConfig(), seed=1)
    with pytest.raises(ValueError, match="finite"):
        xb.inject_fault(0, 0, g)
    assert xb.conductance[0, 0] == 20.0
    assert xb.state[0, 0] == CellState.STATE0
    xb.program_cell(0, 0, CellState.STATE1)
    assert math.isfinite(xb.ledger.total_nj())


def test_inject_fault_rejects_a_conductance_whose_full_read_overflows():
    xb = new_crossbar(DeviceConfig(), seed=1)
    xb.inject_fault(0, 0, 160.0)  # beyond the curve end, and legal
    with pytest.raises(ValueError, match=r"1e\+308 at cell \(0, 1\) overflows"):
        xb.inject_fault(0, 1, 1e308)
    assert xb.conductance[0, 1] == 20.0
    assert xb.state[0, 1] == CellState.STATE0


def _largest_accepted_fault(xb) -> float:
    """The largest conductance ``inject_fault`` accepts, by bisection on the
    bit patterns of non-negative doubles (which order as their values)."""
    as_float = lambda bits: float(np.int64(bits).view(np.float64))
    lo, hi = 0, int(np.float64(math.inf).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            xb.inject_fault(0, 0, as_float(mid))
            lo = mid
        except ValueError:
            hi = mid
    return as_float(lo)


@pytest.mark.parametrize("overrides", [{}, {"rows": 60, "cols": 120, "v_read": 40.0}])
def test_a_full_array_at_the_largest_accepted_fault_reads_finite(overrides):
    cfg = DeviceConfig(**overrides)
    xb = new_crossbar(cfg, seed=1)
    g = _largest_accepted_fault(xb)
    with pytest.raises(ValueError, match="overflows"):
        xb.inject_fault(0, 0, float(np.nextafter(g, math.inf)))
    for row in range(cfg.rows):
        for col in range(cfg.cols):
            xb.inject_fault(row, col, g)
    with np.errstate(over="raise"):
        currents = xb.read_columns(np.ones(cfg.rows, dtype=int))
    assert np.isfinite(currents).all()
    assert 0 < xb.ledger.inference_energy_nj < math.inf


def test_ledger_rejects_nan_and_unknown_kinds():
    ledger = EnergyLedger()
    ledger.record("program", 1.5)
    with pytest.raises(ValueError, match="non-negative"):
        ledger.record("program", float("nan"))
    with pytest.raises(ValueError, match="non-negative"):
        ledger.record("init", -1.0)
    with pytest.raises(ValueError, match="non-negative"):
        ledger.record("inference", float("inf"))
    with pytest.raises(ValueError, match="unknown ledger kind"):
        ledger.record("erase", 1.0)
    with pytest.raises(ValueError, match="unknown ledger kind 'erase'"):
        ledger.record_all("erase", np.array([1.0, 2.0]))
    assert ledger.program_energy_nj == 1.5
    assert ledger.total_nj() == 1.5


def test_ledger_refuses_an_entry_that_overflows_its_total():
    ledger = EnergyLedger()
    ledger.record("init", 1e308)
    with pytest.raises(ValueError, match="overflows"):
        ledger.record("init", 1e308)
    with pytest.raises(ValueError, match="overflows"):
        ledger.record_all("init", np.array([1.0, 1e308]))
    assert ledger.init_energy_nj == 1e308
    ledger.record_all("program", np.array([0.1, 0.2, 0.3]))
    assert ledger.program_energy_nj == (0.1 + 0.2) + 0.3  # added left to right
    with pytest.raises(ValueError, match="non-negative"):
        ledger.record_all("program", np.array([1.0, math.nan]))
    assert ledger.program_energy_nj == (0.1 + 0.2) + 0.3


def test_reads_of_a_full_array_of_large_faults_stop_before_the_total_overflows():
    cfg = DeviceConfig()
    xb = new_crossbar(cfg, seed=1)
    g = 3.51e305  # near the largest fault conductance inject_fault accepts
    for row in range(cfg.rows):
        for col in range(cfg.cols):
            xb.inject_fault(row, col, g)
    drive = np.ones(cfg.rows, dtype=int)
    for reads in range(1, 20_000):
        before = xb.ledger.inference_energy_nj
        try:
            xb.read_columns(drive)
        except ValueError as error:
            assert "overflows" in str(error)
            break
    assert reads > 10_000  # every read's own entry is finite
    assert xb.ledger.inference_energy_nj == before < math.inf


def _reference_program_cell(xb, row, col, target, kind):
    """A write made with numpy's own triangular, normal and lognormal calls,
    and its energy with ``np.interp`` (``stored_energy_nj``).

    This is the write model as first written, kept as the oracle for the
    per-pulse kernel in ``Crossbar.program_cell``, in its draw layout: a
    pulse takes two uniforms from ``xb.rng`` (success, then landing) and two
    normals from ``xb.normal_rng`` (miss, then energy noise), and a draw its
    branch does not use is skipped with a plain ``random()`` or
    ``standard_normal()``.  Called on a twin crossbar that is never written
    otherwise, it makes the scalar draws the kernel takes from its blocks.
    """
    cfg = xb.config
    uniform, normal = xb.rng, xb.normal_rng
    g = cfg.g_state1 if target == CellState.STATE1 else cfg.g_state0
    lo, hi, nominal = float(g - cfg.tolerance), float(g + cfg.tolerance), float(g)
    start = xb.conductance.item(row, col)
    if xb.state.item(row, col) == target:
        return WriteOutcome(start, True, 0.0)
    success = uniform.random() < cfg.p_cell_success
    if success and cfg.shortcut_writes and start < lo:
        final = float(uniform.triangular(lo, lo, nominal))
    elif success and cfg.shortcut_writes:
        final = float(uniform.triangular(nominal, hi, hi))
    else:
        uniform.random()
        final = nominal
    if success:
        normal.standard_normal()
    else:
        final = float(normal.normal(nominal, cfg.miss_spread))
    curve = cfg.energy_curve
    final = min(max(final, curve[0][0]), curve[-1][0])
    swing = abs(cfg.stored_energy_nj(final) - cfg.stored_energy_nj(start))
    sigma = cfg.energy_noise_sigma
    if sigma == 0:
        normal.standard_normal()
        noise = 1.0
    else:
        noise = float(normal.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))
    energy = swing * noise
    xb.ledger.record(kind, energy)
    xb.conductance[row, col] = final
    xb.state[row, col] = cfg.classify_value(final)
    return WriteOutcome(final, lo <= final <= hi, energy)


def _next_scalar_draws(xb):
    """The next pulse's four draws, made one scalar call at a time."""
    return xb.rng.random(), xb.rng.random(), xb.normal_rng.standard_normal(), \
        xb.normal_rng.standard_normal()


def _random_writes(cfg, xb, ref, writes, picks):
    """``writes`` writes on ``xb`` and, by the reference, on its twin ``ref``,
    each from a start below, on the edges of, inside or above a window, in
    the dead zone or beyond the curve; returns the number of pulses."""
    lo0, hi0 = cfg.g_state0 - cfg.tolerance, cfg.g_state0 + cfg.tolerance
    lo1, hi1 = cfg.g_state1 - cfg.tolerance, cfg.g_state1 + cfg.tolerance
    starts = (0.0, lo0 - 3.0, lo0, cfg.g_state0 + 1.5, hi0, (hi0 + lo1) / 2,
              lo1 - 0.5, lo1, cfg.g_state1 - 2.0, hi1, hi1 + 4.0, 140.0, 160.0)
    pulses = 0
    for i in range(writes):
        row, col = int(picks.integers(cfg.rows)), int(picks.integers(cfg.cols))
        if picks.random() < 0.7:
            start = starts[int(picks.integers(len(starts)))]
            xb.inject_fault(row, col, start)
            ref.inject_fault(row, col, start)
        target = (CellState.STATE0, CellState.STATE1)[int(picks.integers(2))]
        kind = "init" if i % 3 == 0 else "program"
        pulses += xb.state.item(row, col) != target
        got = xb.program_cell(row, col, target, kind)
        assert got == _reference_program_cell(ref, row, col, target, kind), i
    return pulses


@DEVICE_VARIANTS
def test_program_cell_equals_numpy_distribution_calls_bit_for_bit(overrides):
    cfg = DeviceConfig(rows=6, cols=6, **overrides)
    xb, ref = new_crossbar(cfg, seed=11), new_crossbar(cfg, seed=11)
    pulses = _random_writes(cfg, xb, ref, 6_000, np.random.default_rng(3))
    assert pulses > device_module._DRAW_BLOCK  # each stream crosses two block boundaries
    assert np.array_equal(xb.conductance, ref.conductance)
    assert np.array_equal(xb.state, ref.state)
    for total in ("init_energy_nj", "program_energy_nj", "inference_energy_nj"):
        assert getattr(xb.ledger, total) == getattr(ref.ledger, total)
    assert xb.ledger.total_nj() == ref.ledger.total_nj()
    assert next(xb._draws) == _next_scalar_draws(ref)


@pytest.mark.parametrize("block", [1, 5, 8])
def test_pulses_take_two_uniforms_and_two_normals_across_block_boundaries(monkeypatch, block):
    # An odd block splits a pulse's two uniforms (and its two normals) across blocks.
    monkeypatch.setattr(device_module, "_DRAW_BLOCK", block)
    cfg = DeviceConfig(rows=4, cols=4, p_cell_success=0.5)
    xb, ref = new_crossbar(cfg, seed=2), new_crossbar(cfg, seed=2)
    pulses = _random_writes(cfg, xb, ref, 60, np.random.default_rng(8))
    assert pulses > 2 * block
    assert next(xb._draws) == _next_scalar_draws(ref)
    # Blocks are drawn on demand: each stream has drawn up to the block holding its last value.
    blocks = -(-2 * (pulses + 1) // block)
    twin = new_crossbar(cfg, seed=2)
    twin.rng.random(blocks * block)
    twin.normal_rng.standard_normal(blocks * block)
    assert _same_generators(xb, twin)


def test_a_crossbar_that_is_never_written_draws_nothing():
    fresh, xb = new_crossbar(DeviceConfig(), seed=3), new_crossbar(DeviceConfig(), seed=3)
    xb.program_cell(0, 0, CellState.STATE0)  # held: no pulse
    xb.program([(1, 1, CellState.STATE0)] * 3, "init")
    xb.read_columns(np.ones(32, dtype=int))
    xb.inject_fault(2, 2, 45.0)
    assert _same_generators(xb, fresh)


@pytest.mark.parametrize(
    "args, error",
    [
        ((99, 0, CellState.STATE1), IndexError),
        ((0, -1, CellState.STATE1), IndexError),
        ((0, 0, CellState.STATE1, "flip"), ValueError),
        ((0, 0, CellState.INDETERMINATE), ValueError),
        ((0, 0, 7), ValueError),
        ((1.0, 0, CellState.STATE1), TypeError),
        ((0, 0, "1"), ValueError),
    ],
)
def test_a_refused_write_draws_nothing(args, error):
    xb, twin = new_crossbar(DeviceConfig(), seed=4), new_crossbar(DeviceConfig(), seed=4)
    with pytest.raises(error):
        xb.program_cell(*args)
    with pytest.raises(error):
        xb.program([args[:3]], *args[3:])
    assert _same_generators(xb, twin)  # no block drawn
    assert xb.ledger._totals == twin.ledger._totals
    # At the end of a longer batch, it draws nothing beyond the pulses made
    # before it (none for a refused kind).
    with pytest.raises(error):
        xb.program(_lead() + [args[:3]], *args[3:])
    if args[3:] != ("flip",):
        for cell in _lead():
            twin.program_cell(*cell)
    # After a pulse on each, the next draws agree: the refusals took no value either.
    assert xb.program_cell(1, 1, CellState.STATE1) == twin.program_cell(1, 1, CellState.STATE1)
    _assert_same_crossbars(xb, twin)


@pytest.mark.parametrize(
    "curve_scale, nan_start, message",
    [(1.0, True, "non-negative"), (1e307, False, "overflows")],
)
def test_a_batch_whose_energies_the_ledger_refuses_writes_what_the_loop_writes(
    monkeypatch, curve_scale, nan_start, message
):
    # A NaN start's energy is refused; scaled up, the default curve's swings
    # add past the largest float within a few writes.
    curve = tuple((g, e * curve_scale) for g, e in device_module.DEFAULT_ENERGY_CURVE)
    cfg = DeviceConfig(energy_curve=curve)
    batch, loop = new_crossbar(cfg, seed=5), new_crossbar(cfg, seed=5)
    if nan_start:  # (10, 4) is the fifth cell written
        for xb in (batch, loop):
            xb.conductance[10, 4] = math.nan  # bypasses the sensed grid: it stays STATE0
    rows, cols = np.divmod(np.arange(device_module._BATCH_MIN) + 10 * cfg.cols, cfg.cols)
    got = _result(lambda: batch.program_high(rows, cols))
    assert got[0] is ValueError and message in got[1]
    monkeypatch.setattr(device_module, "_BATCH_MIN", len(rows) + 1)
    assert _result(lambda: loop.program_high(rows, cols)) == got
    assert math.isfinite(batch.ledger.init_energy_nj)
    assert np.array_equal(batch.conductance, loop.conductance, equal_nan=True)
    assert np.array_equal(batch.state, loop.state)
    assert batch.ledger._totals == loop.ledger._totals
    assert next(batch._draws) == next(loop._draws)


@pytest.mark.parametrize("length", [3, device_module._BATCH_MIN], ids=["short", "long"])
@pytest.mark.parametrize(
    "extra, fault, error, message",
    [
        ((32, 0), None, IndexError, r"cell \(32, 0\) outside 32x16"),
        ((11, -1), None, IndexError, r"cell \(11, -1\) outside 32x16"),
        ((10, 1), None, ValueError, "repeated"),
        (None, 70.0, ValueError, "blank array"),
        (None, 45.0, ValueError, "blank array"),  # the dead zone
        ((12,), None, ValueError, "could not be broadcast"),  # a row with no column
    ],
    ids=["row-out-of-range", "col-out-of-range", "repeated", "state1-cell", "dead-zone",
         "unequal-lengths"],
)
def test_program_high_refuses_before_any_draw(extra, fault, error, message, length):
    cfg = DeviceConfig()
    xb, twin = new_crossbar(cfg, seed=6), new_crossbar(cfg, seed=6)
    if fault is not None:
        for each in (xb, twin):
            each.inject_fault(0, 0, fault)
    rows, cols = np.divmod(np.arange(length) + 10 * cfg.cols, cfg.cols)
    if extra is not None:  # last, after cells that would pulse
        rows, cols = np.append(rows, extra[0]), np.append(cols, extra[1:]).astype(int)
    with pytest.raises(error, match=message):
        xb.program_high(rows, cols)
    assert _same_generators(xb, twin)  # no block drawn
    _assert_same_crossbars(xb, twin)


def test_ledger_completeness_and_determinism():
    cells = [cell for col in range(8) for cell in _pair_cells(col % 4, 2 * col + 1, 2 * col, 1)]

    def exercise(seed):
        xb = new_crossbar(DeviceConfig(), seed=seed)
        flags = xb.program(cells, "init")
        xb.read_columns(np.ones(32, dtype=int))
        twin = new_crossbar(DeviceConfig(), seed=seed)  # the same writes, one call each
        outcomes = [twin.program_cell(*cell, "init") for cell in cells]
        return xb, flags, outcomes

    (xb1, flags1, out1), (xb2, flags2, out2) = exercise(5), exercise(5)
    assert flags1 == flags2 == [out.landed_in_window for out in out1]
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


@dataclasses.dataclass(frozen=True)
class _Named:
    name: str = "sensed"
    size: int = 1


def test_from_mapping_checks_a_str_field_by_its_type():
    assert from_mapping(_Named, {"name": "analog", "size": 2}, DeviceConfigError) == _Named("analog", 2)
    for value in (1, None, ["sensed"]):
        with pytest.raises(DeviceConfigError, match=r"^_Named\.name has the wrong type"):
            from_mapping(_Named, {"name": value}, DeviceConfigError)
