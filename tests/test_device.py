import itertools
import json
import math

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


@DEVICE_VARIANTS
def test_program_batch_equals_cell_by_cell_writes(overrides):
    cfg = DeviceConfig(**overrides)  # every variant has failed writes
    rng = np.random.default_rng(4)
    batch, single = new_crossbar(cfg, seed=7), new_crossbar(cfg, seed=7)
    for xb in (batch, single):  # some cells already high, one in the dead zone
        for col in range(0, cfg.cols, 3):
            xb.program_cell(col % cfg.rows, col, CellState.STATE1, "init")
        xb.inject_fault(5, 5, 45.0)
    # One batch of each kind, then more "program" batches until one has a
    # write that missed its window: at p = 0.99 a batch may have none.
    missed = False
    kinds = itertools.chain(("init", "program"), itertools.repeat("program", 30))
    for batches, kind in enumerate(kinds, 1):
        if missed and batches > 2:
            break
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
        missed = missed or counts[1] < counts[0]
        assert np.array_equal(batch.conductance, single.conductance)
        assert np.array_equal(batch.state, single.state)
        assert batch.ledger._totals == single.ledger._totals
        assert _same_generators(batch, single)
    assert missed  # some writes missed their window
    assert next(batch._draws) == next(single._draws)
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
    assert _same_generators(listed, generated)


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
    assert ledger.program_energy_nj == 1.5
    assert ledger.total_nj() == 1.5


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
    # After a pulse on each, the next draws agree: the refusals took no value either.
    assert xb.program_cell(1, 1, CellState.STATE1) == twin.program_cell(1, 1, CellState.STATE1)
    assert next(xb._draws) == next(twin._draws)


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
