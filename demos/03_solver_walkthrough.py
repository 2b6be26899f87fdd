#!/usr/bin/env python3
"""One solve, step by step: map, read deltas, threshold, flip, decode.

First walks the loop manually on the fully-conflicting instance so every
intermediate value is visible, then runs the packaged solver end to end.
"""

import json

import numpy as np

from ising_reram import (
    HamiltonianParams,
    SolverConfig,
    adjacency_matrix,
    apply_flips,
    build_graph,
    compute_delta,
    decode_solution,
    hamiltonian_energy,
    ideal_config,
    map_problem,
    new_crossbar,
    paper_instances,
    q_unit,
    report_to_json,
    run,
    select_flips,
)

cnf = paper_instances()["3-X"]
graph = build_graph(cnf)
adj = adjacency_matrix(graph)
degrees = adj.sum(1)
params = HamiltonianParams()
config = SolverConfig(seed=3)

device = ideal_config(rows=graph.num_nodes, cols=2 * graph.num_nodes)
xb = new_crossbar(device, seed=3)
rng = np.random.default_rng(3)
spins = 2 * rng.integers(0, 2, graph.num_nodes) - 1
map_problem(graph, spins, xb)

print("=== Manual loop on 3-X (ideal device) ===")
print(f"initial spins {spins}, energy {hamiltonian_energy(graph, spins, params):+.1f}")
prior = None
for t in range(6):
    delta = compute_delta(xb, spins, degrees, params)
    low = delta.min()
    q = q_unit(low, np.std(prior) if prior is not None else None, t, config, rng)
    flips = select_flips(delta, q, config, adj, low)
    apply_flips(xb, spins, flips, adj)
    energy = hamiltonian_energy(graph, spins, params)
    mode = "greedy" if q == 0.0 and (delta < 0).any() else "annealing"
    print(f"t={t}: delta={np.array2string(delta, precision=1)} q={q:.2f} ({mode}) "
          f"flips={flips} -> energy {energy:+.1f}")
    assignment = decode_solution(graph, spins, cnf)
    if assignment is not None:
        print(f"decoded verified assignment: {assignment.values}")
        break
    if not flips:
        print("no candidate below threshold: terminated")
        break
    prior = delta

print("\n=== Packaged run on the default noisy device ===")
from ising_reram import DeviceConfig

report = run(cnf, DeviceConfig(), SolverConfig(seed=11))
print(f"verdict: {report.verdict} after {report.restarts_executed} restart(s)")
print(f"iteration accuracy {report.iteration_accuracy:.3f}, "
      f"cell write accuracy {report.cell_write_accuracy:.3f}")
print(f"energy: execute {report.totals['execute_energy_nj']:.1f} nJ "
      f"(init {report.totals['init_energy_nj']:.1f} + "
      f"program {report.totals['program_energy_nj']:.1f}), "
      f"inference {report.totals['inference_energy_nj']:.2f} nJ")
print("\ntop-level scalar fields of the one-line JSON report:")
parsed = json.loads(report_to_json(report))
for key, value in parsed.items():
    if not isinstance(value, (dict, list)):
        print(f"  {key}: {json.dumps(value)}")
print("\ntrace field names, written once per report:")
print(f"  {json.dumps(parsed['trace_fields'])}")
print("each trace entry is one array of those values; the first, as written:")
row = parsed["traces"][0][0]
print(f"  {json.dumps(row)}")
print("and decoded with dict(zip(trace_fields, row)):")
first = dict(zip(parsed["trace_fields"], row))
for key, value in first.items():
    print(f"  {key}: {json.dumps(value)}")
