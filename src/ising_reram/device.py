"""Behavioral model of a 1-bit differential ReRAM crossbar with energy totals per kind.

Cells hold a conductance in microsiemens and are classified against two
tolerance windows, low state 20 uS and high state 70 uS with a +/-10 uS
acceptance band by default.  Writes are stochastic: with probability
``p_cell_success`` the cell stops just inside the window edge nearest its
starting conductance (a verify loop halts on window entry, so overshoot decays
toward the nominal target with triangular density, drawn by numpy's own
``random_triangular`` formula on one uniform), otherwise the cell
scatters normally around the nominal target and may land anywhere, including
the wrong window or the dead zone between windows.

Write energy is the absolute difference in stored energy between the initial
and final conductance, evaluated on a piecewise-linear curve and scaled by
mean-one lognormal noise.  The default curve is a calibration artifact, not
physics: its anchors put a nominal 20->70 uS swing at 2.8 nJ and a worst-case
10->80 uS boundary swing at 9.5 nJ, and are configurable.

Reads drive rows at +/-v_read and sum per-column currents; read energy
(V^2 * G * t over driven cells) accrues to the ledger separately from writes.
The 2T-1R cell is modeled as an ideal selector: no sneak paths, no read
noise, no retention drift.

``Crossbar.state`` is the sensed grid, the window classification of every
cell, and ``Crossbar.row_g`` lists each row's conductance total, summed over
the driven rows for a read's energy; ``program_cell`` and ``inject_fault``
keep both, so neither costs a pass over ``conductance``.  A pulse adds its
change to its row's total (``program_high``'s numpy pass makes the same adds
in cell order) unless that leaves the total below the pulse's start, as when
it rewrites a fault far above the rest of its row: the add may then have
cancelled the total's rounding, so the row is summed again, as
``inject_fault`` sums it.  Assigning to ``conductance`` directly bypasses both.

``Crossbar`` has two write entries, each returning every cell's verify flag
``landed_in_window``.  ``program`` writes an ordered batch of (row, col,
target) cells, one ``program_cell`` call each.  ``program_high`` initializes
a blank array, writing STATE1 to distinct cells as ``program_cell`` would; at
``_BATCH_MIN`` cells or more on a fresh crossbar it makes one numpy pass that
gives the same draws, bits, ledger totals and flags.

Every pulse takes exactly four random numbers, whether its branch uses them
or not: two uniforms from ``Crossbar.rng`` (success, then landing) and two
normals from ``Crossbar.normal_rng`` (miss spread, then energy noise).  A cell
that already holds its target takes none.  Each generator is drawn in blocks
of ``_DRAW_BLOCK`` values on the first pulse that needs them, so a crossbar
that is never written draws nothing; numpy fills an array draw element by
element with its scalar routine, so the block size changes no number, and a
pulse's four values are the next four scalar draws of the two generators.
The numpy pass over k cells draws the ceil(2k / ``_DRAW_BLOCK``) blocks k
pulses would, one array per stream, and leaves the values past the first 2k
at the head of the stream, where k pulses would leave them.

``program_cell`` is the per-pulse kernel and the numpy pass's reference.
Every constant it reads that derives from the config comes from one tuple
cached on the frozen ``DeviceConfig`` (``DeviceConfig._pulse``); the draws,
conductance, sensed grid and ledger are read from the crossbar on every call.
Each of its pulses is one ledger entry; the numpy pass is one
``EnergyLedger.record_all`` call, which spans on ``program_cell`` and
``EnergyLedger.record`` do not see.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property, partial
from itertools import chain, compress, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .util import check_finite, field_dict, from_mapping, is_finite, substream

# Anchors (uS, nJ); steep tails between the nominal points and the window
# boundaries carry the worst-case swing, the shallow mid-section keeps
# in-window shortcut hops cheap.
DEFAULT_ENERGY_CURVE: tuple[tuple[float, float], ...] = (
    (0.0, 0.0),
    (10.0, 0.5),
    (20.0, 3.85),
    (30.0, 3.93),
    (60.0, 4.01),
    (70.0, 6.65),
    (80.0, 10.0),
    (100.0, 11.0),
    (150.0, 13.5),
)


class CellState(IntEnum):
    STATE0 = 0
    STATE1 = 1
    INDETERMINATE = 2


# The states as plain ints, for the per-cell paths (an IntEnum compares equal to its int).
_STATE0, _STATE1, _INDETERMINATE = map(int, CellState)

# Values a crossbar's generators draw per call; the size changes no number
# (see the module docstring).
_DRAW_BLOCK = 256

# ``program_high`` writes this many cells or more in one numpy pass; it changes no number.
_BATCH_MIN = 64


def _blocks(draw, head: list) -> Iterator[float]:
    """The floats of ``head``, then of ``draw(_DRAW_BLOCK)``, ``draw(_DRAW_BLOCK)``,
    ..., one at a time; no block is drawn before its first value is asked for."""
    blocks = map(np.ndarray.tolist, map(draw, repeat(_DRAW_BLOCK)))
    return chain.from_iterable(chain((head,), blocks))


def _check_kind(kind: str) -> None:
    if kind not in ("init", "program"):
        raise ValueError(f"write kind must be 'init' or 'program', got {kind!r}")


class DeviceConfigError(ValueError):
    """Rejected device configuration."""


@dataclass(frozen=True)
class DeviceConfig:
    """Crossbar geometry, state windows, write statistics, and energy model."""

    rows: int = 32
    cols: int = 16
    g_state0: float = 20.0          # uS, low-conductance state (HRS)
    g_state1: float = 70.0          # uS, high-conductance state (LRS)
    tolerance: float = 10.0         # uS half-window
    p_cell_success: float = 0.99    # calibrated against iteration accuracy
    miss_spread: float = 15.0       # uS sigma of failed writes
    energy_curve: tuple[tuple[float, float], ...] = DEFAULT_ENERGY_CURVE
    energy_noise_sigma: float = 0.3  # relative lognormal sigma on write energy
    v_read: float = 0.3             # V
    t_read: float = 1e-6            # s
    shortcut_writes: bool = True    # False lands successful writes at nominal

    def __post_init__(self) -> None:
        check_finite(self, DeviceConfigError)
        if self.rows < 1 or self.cols < 1:
            raise DeviceConfigError(f"bad array dims {self.rows}x{self.cols}")
        if min(self.g_state0, self.g_state1, self.tolerance, self.miss_spread,
               self.v_read, self.t_read) <= 0:
            raise DeviceConfigError("physical quantities must be positive")
        if not 0.0 <= self.p_cell_success <= 1.0:
            raise DeviceConfigError(f"p_cell_success {self.p_cell_success} not in [0,1]")
        if self.energy_noise_sigma < 0:
            raise DeviceConfigError("energy_noise_sigma must be >= 0")
        if self.g_state1 - self.tolerance <= self.g_state0 + self.tolerance:
            raise DeviceConfigError(
                "state windows overlap: need g_state1 - tolerance > g_state0 + tolerance"
            )
        curve = []
        for point in self.energy_curve:
            try:
                g, e = point
                finite = is_finite(g) and is_finite(e)
            except (TypeError, ValueError):
                raise DeviceConfigError(
                    f"energy_curve point {point!r} is not a pair of numbers"
                ) from None
            if not finite:
                raise DeviceConfigError(f"DeviceConfig.energy_curve point {point!r} must be finite")
            curve.append((float(g), float(e)))
        if len(curve) < 2:
            raise DeviceConfigError("energy_curve needs at least two points")
        gs = [g for g, _ in curve]
        es = [e for _, e in curve]
        if any(b <= a for a, b in zip(gs, gs[1:])) or any(b <= a for a, b in zip(es, es[1:])):
            raise DeviceConfigError("energy_curve must be strictly increasing")
        if gs[0] != 0.0 or gs[-1] < self.g_state1 + self.tolerance:
            raise DeviceConfigError("energy_curve must start at 0 uS and span the operating range")
        try:  # a read of every cell at the curve's end
            read_nj = self._full_read_nj(gs[-1])
        except OverflowError:
            read_nj = math.inf
        if not read_nj < math.inf:
            raise DeviceConfigError(f"v_read ** 2 * t_read overflows the read energy "
                                    f"(v_read {self.v_read!r}, t_read {self.t_read!r})")
        object.__setattr__(self, "energy_curve", tuple(curve))

    def _read_energy_nj(self, conductance_us: float) -> float:
        """Energy (nJ) of one read of cells whose conductances sum to
        ``conductance_us``: V^2 * G * t_read, with uS * V^2 * s = 1e-6 J."""
        return self.v_read ** 2 * conductance_us * self.t_read * 1e3

    def _full_read_nj(self, conductance_us: float) -> float:
        """A bound on the energy (nJ) of one read of every cell at ``conductance_us``:
        a sum of row sums, in any order, rounds up by less than the margin."""
        margin = 1.0 + (self.rows + self.cols) * 2.0 ** -52
        return self._read_energy_nj(conductance_us * self.rows * self.cols * margin)

    @cached_property
    def _curve_segments(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """Curve anchors and per-segment slopes as plain floats."""
        gs = tuple(g for g, _ in self.energy_curve)
        es = tuple(e for _, e in self.energy_curve)
        slopes = tuple((e1 - e0) / (g1 - g0) for g0, g1, e0, e1 in zip(gs, gs[1:], es, es[1:]))
        return gs, es, slopes

    def stored_energy_nj(self, conductance: float) -> float:
        """Piecewise-linear stored energy at a conductance (uS -> nJ), held at
        the end values outside the curve."""
        gs, es, _ = self._curve_segments
        return float(np.interp(conductance, gs, es))

    @cached_property
    def _pulse(self) -> tuple:
        """Every config-derived constant a write pulse reads, in one tuple:

        (rows, cols, windows, p_cell_success, shortcut_writes, miss_spread,
        sigma, shift, gs, es, slopes, lo0, hi0, lo1, hi1)

        ``windows`` maps each writable state to (low, high, nominal, p_lo,
        p_hi); p_lo and p_hi are the products numpy's triangular sampler forms
        for (low, low, nominal) and (nominal, high, high): (nominal - low)**2
        and (high - nominal)**2, each as one multiplication.  ``shift`` is the
        lognormal mean -sigma**2 / 2, gs, es, slopes are ``_curve_segments``,
        and lo0..hi1 are the STATE0 and STATE1 window bounds.
        """
        windows = {}
        for state, g in ((_STATE0, self.g_state0), (_STATE1, self.g_state1)):
            lo, hi, nominal = float(g - self.tolerance), float(g + self.tolerance), float(g)
            windows[state] = (
                lo, hi, nominal, (nominal - lo) * (nominal - lo), (hi - nominal) * (hi - nominal)
            )
        sigma = float(self.energy_noise_sigma)
        return (
            self.rows, self.cols, windows, self.p_cell_success, self.shortcut_writes,
            float(self.miss_spread), sigma, -0.5 * sigma * sigma,
            *self._curve_segments, *windows[_STATE0][:2], *windows[_STATE1][:2],
        )

    def classify_value(self, conductance: float) -> int:
        """The window a conductance falls in, as the plain int of its
        CellState (which compares equal to the enum member)."""
        *_, lo0, hi0, lo1, hi1 = self._pulse
        if lo0 <= conductance <= hi0:
            return _STATE0
        if lo1 <= conductance <= hi1:
            return _STATE1
        return _INDETERMINATE

    def to_dict(self) -> dict:
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DeviceConfig":
        return from_mapping(cls, data, DeviceConfigError)


class WriteOutcome(NamedTuple):
    final_g: float
    landed_in_window: bool
    energy_nj: float


# WriteOutcome without the Python-level __new__ that NamedTuple generates.
_outcome = partial(tuple.__new__, WriteOutcome)


class EnergyLedger:
    """Energy totals per kind: init, program and inference."""

    def __init__(self) -> None:
        self._totals = {"init": 0.0, "program": 0.0, "inference": 0.0}

    def record(self, kind: str, energy_nj: float) -> None:
        if not 0 <= energy_nj < math.inf:  # also rejects NaN
            raise ValueError(f"ledger entries must be finite and non-negative, got {energy_nj!r}")
        try:
            total = self._totals[kind] + energy_nj
        except KeyError:
            raise ValueError(f"unknown ledger kind {kind!r}") from None
        if not total < math.inf:
            raise ValueError(f"the {kind} total {self._totals[kind]!r} overflows "
                             f"with the entry {energy_nj!r}")
        self._totals[kind] = total

    def record_all(self, kind: str, energies: np.ndarray) -> None:
        """Record a float array of entries as one ``record`` call each would,
        adding them to the total left to right, or raise ValueError and
        leave the total unchanged."""
        if kind not in self._totals:
            raise ValueError(f"unknown ledger kind {kind!r}")
        if not ((0 <= energies) & (energies < math.inf)).all():
            raise ValueError("ledger entries must be finite and non-negative")
        # cumsum adds in order, as repeated += does; with no negative entry a
        # total that overflows stays inf.
        with np.errstate(over="ignore"):
            total = float(np.cumsum(np.concatenate(([self._totals[kind]], energies)))[-1])
        if not total < math.inf:
            raise ValueError(f"the {kind} total {self._totals[kind]!r} overflows")
        self._totals[kind] = total

    @property
    def init_energy_nj(self) -> float:
        return self._totals["init"]

    @property
    def program_energy_nj(self) -> float:
        return self._totals["program"]

    @property
    def inference_energy_nj(self) -> float:
        return self._totals["inference"]

    def total_nj(self) -> float:
        return sum(self._totals.values())


class Crossbar:
    """Single-owner mutable crossbar; all state changes flow through methods.

    The RNG streams belong to the instance, so two crossbars with the same
    config and seed replay identical stochastic behavior write for write.
    ``rng`` supplies the pulses' uniforms and ``normal_rng`` their normals,
    each in blocks drawn on demand.
    """

    def __init__(self, config: DeviceConfig, seed: int) -> None:
        self.config = config
        self.conductance = np.full((config.rows, config.cols), config.g_state0, dtype=float)
        self.state = np.full(self.conductance.shape, int(CellState.STATE0), dtype=np.int8)
        # Every row starts alike, so one row's sum is every row's total.
        self.row_g = [float(self.conductance[0].sum())] * config.rows
        self.rng = substream(seed, 0xC3)
        self.normal_rng = substream(seed, 0xC3, 1)
        # While rng is in this state no block is drawn: both streams draw on the same pulses.
        self._undrawn = self.rng.bit_generator.state
        self._stream([], [])
        self.ledger = EnergyLedger()

    def _stream(self, uniforms: list, normals: list) -> None:
        """Point ``_draws`` at the two block streams, each led by the values given."""
        u = _blocks(self.rng.random, uniforms)
        n = _blocks(self.normal_rng.standard_normal, normals)
        # A pulse's draws: (success, landing) uniforms, (miss, energy noise) normals.
        self._draws = zip(u, u, n, n)

    def _check_coords(self, row: int, col: int) -> None:
        if not (0 <= row < self.config.rows and 0 <= col < self.config.cols):
            raise IndexError(
                f"cell ({row}, {col}) outside {self.config.rows}x{self.config.cols} array"
            )

    def classify_grid(self) -> np.ndarray:
        """Window classification of every cell as an int array of CellState."""
        return self.state.copy()

    def program_cell(
        self, row: int, col: int, target: CellState, kind: str = "program"
    ) -> WriteOutcome:
        """Issue one write pulse train toward a target state.

        Cells already inside the target window are skipped: no pulse, no
        energy, no conductance change.  Successful writes stop inside the
        window edge nearest the starting conductance (between that edge and
        the nominal target); failed writes scatter around the nominal.  The
        energy goes to the ledger total ``kind``, "init" or "program".

        A pulse that is not skipped takes its four draws (see the module
        docstring) with one ``next()``.  The success uniform decides the write:
        below ``p_cell_success`` it succeeds.  The landing uniform places a
        successful shortcut write by numpy's ``random_triangular`` formula, the
        arithmetic of ``rng.triangular(lo, lo, nominal)`` or
        ``rng.triangular(nominal, hi, hi)``.  The miss normal scatters a failed
        write, ``nominal + miss_spread * z`` as ``rng.normal`` computes it.  The
        noise normal scales the energy by ``math.exp(shift + sigma * z)`` as
        ``rng.lognormal(mean=shift, sigma=sigma)`` computes it, with shift =
        -sigma**2 / 2 (``math.exp`` is the libm call numpy's lognormal makes; a
        ufunc such as ``np.exp`` may take a SIMD path).  A draw whose branch is
        not taken goes unused.  ``stored_energy_nj`` and ``classify_value`` are
        inlined with the same arithmetic, so a write gives the bits they would.
        """
        (rows, cols, windows, p_success, shortcut, spread, sigma, shift,
         gs, es, slopes, lo0, hi0, lo1, hi1) = self.config._pulse
        # Plain comparisons on the hot path; the checkers raise on failure.
        if not (0 <= row < rows and 0 <= col < cols):
            self._check_coords(row, col)
        if kind != "program" and kind != "init":
            _check_kind(kind)
        window = windows.get(target)
        if window is None:
            CellState(target)  # raises for anything that is not a state
            raise ValueError("cannot target the indeterminate state")
        lo, hi, nominal, p_lo, p_hi = window
        start = self.conductance.item(row, col)
        if self.state.item(row, col) == target:
            return _outcome((start, True, 0.0))
        success, landing, miss, noise = next(self._draws)
        if success < p_success:
            if not shortcut:
                final = nominal
            elif start < lo:
                # triangular(lo, lo, nominal): its ratio is 0, so only u == 0 lands on lo.
                final = nominal - math.sqrt((1.0 - landing) * p_lo) if landing > 0.0 else lo
            else:
                # triangular(nominal, hi, hi): its ratio is exactly 1.
                final = nominal + math.sqrt(landing * p_hi)
        else:
            final = nominal + spread * miss
        # Clamped to the curve, as min(max(final, gs[0]), gs[-1]) would.
        if final < gs[0]:
            final = gs[0]
        elif final > gs[-1]:
            final = gs[-1]
        # stored_energy_nj inlined for points on the curve; a start a fault
        # set beyond it (or a NaN assigned to conductance) goes to the method.
        j = bisect_right(gs, final) - 1
        energy = es[j] if gs[j] == final else slopes[j] * (final - gs[j]) + es[j]
        if gs[0] <= start < gs[-1]:
            j = bisect_right(gs, start) - 1
            energy = abs(energy - (es[j] if gs[j] == start else slopes[j] * (start - gs[j]) + es[j]))
        else:
            energy = abs(energy - self.config.stored_energy_nj(start))
        if sigma != 0:
            # Mean-one lognormal so that configured noise leaves averages in place.
            energy *= math.exp(shift + sigma * noise)
        self.ledger.record(kind, energy)
        self.conductance[row, col] = final
        row_g = self.row_g
        total = row_g[row] + (final - start)
        # A total below the start may have cancelled the rounding it carried.
        row_g[row] = total if total >= start else float(self.conductance[row].sum())
        # classify_value inlined.
        self.state[row, col] = (
            _STATE0 if lo0 <= final <= hi0 else _STATE1 if lo1 <= final <= hi1 else _INDETERMINATE
        )
        return _outcome((final, lo <= final <= hi, energy))

    def program(self, cells: Iterable[tuple[int, int, int]], kind: str = "program") -> list[bool]:
        """Write an ordered batch of (row, col, target) cells from any iterable,
        one :meth:`program_cell` call each in order, and return their verify
        flags (``landed_in_window``).  A target is a writable ``CellState`` (or
        0/1, False/True)."""
        _check_kind(kind)
        write = self.program_cell
        return [write(row, col, target, kind).landed_in_window for row, col, target in cells]

    def program_high(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Initialize a blank array: write STATE1 (kind "init") to the cells
        (rows[i], cols[i]) in order, as :meth:`program_cell` would one by one.

        ``rows`` and ``cols`` are integer arrays of one length, such as those of
        ``np.nonzero``.  Returns the cells' verify flags as a bool array.
        Before any draw, raises IndexError for a cell out of range and
        ValueError for a repeated cell or unless every cell senses STATE0.

        On a crossbar that has drawn no block yet, as every fresh one,
        ``_BATCH_MIN`` cells or more take one numpy pass of whole blocks (see
        the module docstring) with the kernel's draws, bits, ledger and row
        totals and flags: a cell that senses STATE0 lies below the STATE1
        window, so every cell pulses and a shortcut write lands by
        triangular(lo, lo, nominal).  Curve energies come from ``np.interp``
        (``stored_energy_nj``), the noise factor from ``math.exp`` per pulse.
        If ``math.exp`` overflows, the ledger refuses the energies or a row's
        falls could bring a pulse to sum its row again, every value drawn goes
        back to the head of the streams and, as for fewer cells or a crossbar
        that has drawn before, :meth:`program_cell` writes cell by cell and
        raises as it would have (only the generators' block positions stand
        further on).
        """
        (_, _, windows, p_success, shortcut, spread, sigma, shift,
         gs, es, _, lo0, hi0, lo1, hi1) = self.config._pulse
        rows, cols = np.asarray(rows), np.asarray(cols)
        try:
            flat = np.sort(np.ravel_multi_index((rows, cols), self.state.shape))
        except ValueError:  # name the first cell out of range
            for row, col in zip(rows.tolist(), cols.tolist()):
                self._check_coords(row, col)
            raise
        if (flat[1:] == flat[:-1]).any():
            raise ValueError("program_high writes each cell once: a cell is repeated")
        if self.state.any():  # STATE0 is 0
            raise ValueError("program_high programs a blank array: every cell must sense STATE0")
        k = flat.size
        if k >= _BATCH_MIN and self.rng.bit_generator.state == self._undrawn:
            lo, hi, nominal, p_lo, _ = windows[_STATE1]
            start = self.conductance[rows, cols]
            size = -(-2 * k // _DRAW_BLOCK) * _DRAW_BLOCK
            uniforms, normals = self.rng.random(size), self.normal_rng.standard_normal(size)
            success, landing = uniforms[0 : 2 * k : 2], uniforms[1 : 2 * k : 2]
            miss, noise = normals[0 : 2 * k : 2], normals[1 : 2 * k : 2]
            if shortcut:  # triangular(lo, lo, nominal): only u == 0 lands on lo.
                final = np.where(landing > 0.0, nominal - np.sqrt((1.0 - landing) * p_lo), lo)
            else:
                final = nominal
            final = np.where(success < p_success, final, nominal + spread * miss)
            final = np.where(final < gs[0], gs[0], np.where(final > gs[-1], gs[-1], final))
            energy = np.abs(np.interp(final, gs, es) - np.interp(start, gs, es))
            row_g = np.array(self.row_g)
            falls = np.bincount(rows, np.maximum(start - final, 0.0), row_g.size)
            try:
                if sigma != 0:
                    energy *= np.array(list(map(math.exp, (shift + sigma * noise).tolist())))
                # Less its falls, each total keeps twice any start: no row is summed again.
                if not (row_g - falls >= 2 * hi0).all():
                    raise ValueError("a row's total could fall below a start")
                self.ledger.record_all("init", energy)
            except (OverflowError, ValueError):
                self._stream(uniforms.tolist(), normals.tolist())
            else:
                self._stream(uniforms[2 * k :].tolist(), normals[2 * k :].tolist())
                self.conductance[rows, cols] = final
                np.add.at(row_g, rows, final - start)  # in cell order, as the pulses add
                self.row_g = row_g.tolist()
                self.state[rows, cols] = np.where(
                    (lo0 <= final) & (final <= hi0), _STATE0,
                    np.where((lo1 <= final) & (final <= hi1), _STATE1, _INDETERMINATE),
                )
                return (lo <= final) & (final <= hi)
        write = self.program_cell
        return np.array([write(row, col, _STATE1, "init").landed_in_window
                         for row, col in zip(rows.tolist(), cols.tolist())], dtype=bool)

    def read_columns(self, drive: Sequence[int]) -> np.ndarray:
        """Column currents (uA) under a signed row drive, logging read energy.

        The signed drive is a functional idealization of the inference step;
        every cell in a driven row dissipates V^2 * G * t_read, so the energy
        is that of the driven rows' ``row_g`` totals, added in row order.
        """
        d = np.asarray(drive)
        if d.shape != (self.config.rows,):
            raise ValueError(f"drive has shape {d.shape}, expected ({self.config.rows},)")
        # An integer or bool drive is in range when its extremes are; a float one may hold NaN.
        if not (d.min() >= -1 and d.max() <= 1 if d.dtype.kind in "biu"
                else ((d == 0) | (d == 1) | (d == -1)).all()):
            raise ValueError("drive entries must be in {-1, 0, +1}")
        currents = self.config.v_read * (d.astype(float) @ self.conductance)
        k = int(np.count_nonzero(d))
        # A prefix drive (rows 0..k-1) is how the solver drives.
        prefix = np.count_nonzero(d[:k]) == k
        totals = self.row_g[:k] if prefix else compress(self.row_g, (d != 0).tolist())
        self.ledger.record("inference", self.config._read_energy_nj(sum(totals)))
        return currents

    def inject_fault(self, row: int, col: int, conductance: float) -> None:
        """Force a cell's conductance directly, at no energy and with no ledger entry.

        A conductance beyond the energy curve is legal, up to the largest
        whose full-array read energy, ``DeviceConfig``'s read bound with it in
        place of the curve end, stays finite.  The row's total is summed again.
        """
        self._check_coords(row, col)
        g = float(conductance)
        if not 0 <= g < math.inf:
            raise ValueError(f"fault conductance at cell ({row}, {col}) must be finite "
                             f"and non-negative, got {g!r}")
        cfg = self.config
        if not cfg._full_read_nj(g) < math.inf:
            raise ValueError(f"fault conductance {g!r} at cell ({row}, {col}) overflows "
                             f"the read energy of a full {cfg.rows}x{cfg.cols} array")
        self.conductance[row, col] = g
        self.row_g[row] = float(self.conductance[row].sum())
        self.state[row, col] = self.config.classify_value(g)


def new_crossbar(config: DeviceConfig, seed: int) -> Crossbar:
    """Fresh crossbar with every cell in the low-conductance state."""
    return Crossbar(config, seed)


def ideal_config(**overrides) -> DeviceConfig:
    """Noise-free variant of the default config (handy for exact tests).

    Writes always succeed and land at nominal values, energy noise is off, and
    v_read defaults to 0.25 V so current ratios are exactly representable in
    binary floating point.
    """
    base = dict(
        p_cell_success=1.0,
        energy_noise_sigma=0.0,
        shortcut_writes=False,
        v_read=0.25,
    )
    base.update(overrides)
    return DeviceConfig(**base)
