#!/usr/bin/env python3
"""The behavioral crossbar: windows, shortcut writes, energy accounting.

Shows where successful writes land, what a write costs on the stored-energy
curve, how the differential pair encodes a signed weight, and how injected
faults read back.
"""

import numpy as np

from ising_reram import CellState, DeviceConfig, new_crossbar

cfg = DeviceConfig()
print("=== Device defaults ===")
print(f"array {cfg.rows}x{cfg.cols}, states {cfg.g_state0}/{cfg.g_state1} uS, "
      f"window +-{cfg.tolerance} uS, p(write lands in window) = {cfg.p_cell_success}")
swing = cfg.stored_energy_nj(cfg.g_state1) - cfg.stored_energy_nj(cfg.g_state0)
worst = cfg.stored_energy_nj(80.0) - cfg.stored_energy_nj(10.0)
print(f"nominal 20->70 uS swing: {swing:.2f} nJ; worst-case 10->80 uS: {worst:.2f} nJ")

print("\n=== Where successful high writes stop (shortcut toward the near edge) ===")
xb = new_crossbar(DeviceConfig(p_cell_success=1.0), seed=42)
landings = []
energies = []
for i in range(200):
    r, c = i % 32, (i // 32) % 16
    xb.inject_fault(r, c, cfg.g_state0)
    out = xb.program_cell(r, c, CellState.STATE1)
    landings.append(out.final_g)
    energies.append(out.energy_nj)
print(f"landing conductance: mean {np.mean(landings):.1f} uS, "
      f"range [{min(landings):.1f}, {max(landings):.1f}] (window is [60, 80])")
print(f"write energy: mean {np.mean(energies):.2f} nJ vs {swing:.2f} nJ at full swing "
      f"-> the shortcut discount")

print("\n=== Differential pair conventions ===")
xb = new_crossbar(cfg, seed=7)
# Weight -1 into pair (neg col 0, pos col 1), positive cell first: the high cell goes to neg.
xb.program([(0, 1, CellState.STATE0), (0, 0, CellState.STATE1)], "init")
print(f"logical -1: neg column cell -> {CellState(xb.state[0, 0]).name}, "
      f"pos column cell -> {CellState(xb.state[0, 1]).name}")
drive = np.zeros(cfg.rows, dtype=int)
drive[0] = 1
currents = xb.read_columns(drive)
print(f"column currents for +1 row drive: neg {currents[0]:.2f} uA, pos {currents[1]:.2f} uA "
      f"(difference encodes the sign)")

print("\n=== Fault injection nullifies a pair differentially ===")
xb.inject_fault(0, 0, 70.0)
xb.inject_fault(0, 1, 70.0)
currents = xb.read_columns(drive)
print(f"after forcing both cells high: pos - neg = {currents[1] - currents[0]:.3f} uA")

print("\n=== Ledger ===")
led = xb.ledger
print(f"init {led.init_energy_nj:.3f} nJ, program {led.program_energy_nj:.3f} nJ, "
      f"inference {led.inference_energy_nj:.6f} nJ")
print("\nsnapshot of the first rows (uS):")
for row in xb.conductance[:2]:
    print(",".join(f"{g:.3f}" for g in row))
