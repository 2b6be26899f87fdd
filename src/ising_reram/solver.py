"""Adaptive greedy/annealing spin-flip loop over the crossbar emulation.

The crossbar stores the spin-signed adjacency matrix in differential column
pairs: entry (i, j) is written as sign s_j when nodes i and j are adjacent.
Node j sits on row j and on column pair (2j, 2j+1), negative cell first.
``map_problem`` programs a blank array (every cell STATE0), so its init
pulses one high cell per adjacency entry, two per edge.
Each iteration reads the column currents under a row drive equal to the
current spins, recovers the quadratic part of the per-node flip costs, applies
the linear degree/reward bias digitally (the summer, threshold, q, and spin
units all live off-array), compares the costs against a dynamic threshold,
flips up to k mutually non-adjacent nodes, and reprograms only the flipped
columns.  The array is read only after a change: an iteration that flipped
nothing left the spins and the array as they were, and the device models no
read noise, so the next iteration keeps the last costs in the summer's
register instead of reading again.

The flip cost is the true energy change delta_j of flipping node j, so the
candidate rule "delta_j below the threshold" is literal: the loop is greedy
whenever an improving move exists and otherwise behaves as Metropolis
annealing, with the acceptance probability exp(-delta/T) expressed as the
random threshold q = -T * ln(u).

Pattern verdicts come from the writes' verify flags, on the model assumption
that a write changes only its own cell: node j's pair is written only on j's
neighbour rows (init pulses the high cells of a blank array, each flip of j
rewrites both), so it holds its pattern when its latest writes all landed.

Two digital units take shortcuts that give their full rules' answers: at
k = 1 the flip selector picks the first index of the least cost, the stable
sort's first candidate, and the decoder of a reduction graph (3m nodes)
refuses any count of up nodes but m before it looks at the clauses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .cnf import Cnf
from .device import Crossbar, DeviceConfig, new_crossbar
from .ising import (
    HamiltonianParams,
    IsingGraph,
    _check_spins,
    adjacency_matrix,
    build_graph,
    decode_solution,
)
from .util import check_finite, check_object, derive_seed, field_dict, from_mapping, substream


class MappingError(ValueError):
    """Problem does not fit the crossbar (multi-tile operation unsupported)."""


@dataclass(frozen=True)
class SolverConfig:
    k: int = 1                      # max flips per iteration
    t0: float = 1.0                 # temperature scale (multiple of delta spread)
    alpha: float = 0.95             # geometric cooling factor
    max_iters: int = 100
    restarts: int = 10
    a_pen: float = 2.0              # penalty weights, see HamiltonianParams
    b_pen: float = 1.0
    seed: int = 0
    profile_iterations: bool = False  # run every iteration, no early exit

    def __post_init__(self) -> None:
        check_finite(self, ValueError)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not self.t0 >= 0.0:
            raise ValueError(f"t0 must be >= 0, got {self.t0}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be >= 1")
        HamiltonianParams(self.a_pen, self.b_pen)  # raises unless a_pen > b_pen > 0

    @property
    def hamiltonian(self) -> HamiltonianParams:
        return HamiltonianParams(self.a_pen, self.b_pen)

    def to_dict(self) -> dict:
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SolverConfig":
        return from_mapping(cls, data, ValueError)


def load_config_document(doc: dict) -> tuple[DeviceConfig, SolverConfig]:
    """Split one JSON document into its optional device.* and solver.* sections
    (defaults when absent); any other top-level key raises."""
    check_object(doc, ("device", "solver"), "config document", ValueError)
    device = DeviceConfig.from_dict(doc.get("device", {}))
    solver = SolverConfig.from_dict(doc.get("solver", {}))
    return device, solver


class IterationTrace(NamedTuple):
    t: int
    q: float
    flipped: tuple[int, ...]
    cells_targeted: int
    cells_correct: int
    iteration_accurate: bool
    program_energy_nj: float
    inference_energy_nj: float


@dataclass
class RunReport:
    verdict: str                            # "SAT" or "Unknown"
    assignment: Optional[tuple[bool, ...]]
    final_spins: tuple[int, ...]
    traces: list[list[IterationTrace]]      # one list per restart
    totals: dict
    iteration_accuracy: float
    cell_write_accuracy: float
    restarts_executed: int
    sat_restart: Optional[int] = None
    sat_iteration: Optional[int] = None

    def to_json_dict(self) -> dict:
        """The report's content as JSON values: every field, with the trace
        field names once under ``trace_fields``.  A trace entry is a named
        tuple, so JSON writes it as the array of its values in field order; a
        reader gets entry ``row`` back as ``dict(zip(trace_fields, row))``."""
        return {**field_dict(self), "trace_fields": IterationTrace._fields}


def report_to_json(report: RunReport) -> str:
    """The report as one line of JSON with sorted keys, plus a newline, so identical
    runs match byte-wise.  ``RunReport.to_json_dict`` decides what it holds."""
    return json.dumps(report.to_json_dict(), sort_keys=True) + "\n"


def random_spins(num_nodes: int, rng: np.random.Generator) -> np.ndarray:
    return (2 * rng.integers(0, 2, size=num_nodes) - 1).astype(np.int64)


def map_problem(graph: IsingGraph, spins: Sequence[int], xb: Crossbar) -> list[int]:
    """Program the spin-signed adjacency matrix into a blank array (kind "init")
    and return the ascending, distinct nodes whose column pair missed its pattern.

    Column j carries adj(i, j) * s_j in its differential pair.  A blank array
    already holds every STATE0 target, so each nonzero adj(i, j) pulses only
    its high cell, (i, 2j + 1) when s_j > 0 and (i, 2j) otherwise, pairs in
    node order with rows ascending: the pulses, draws and ledger entries of
    writing both cells of each pair, taken from the edge list.  A pair misses
    its pattern when ``program_high`` flags one of its written cells as out of
    its window: the shape of ``apply_flips``' missed nodes.  Before any
    write, raises MappingError when the problem needs more rows or columns
    than the device offers, and ValueError unless ``spins`` holds one +1 or
    -1 per node and every cell of ``xb`` senses STATE0.
    """
    n = graph.num_nodes
    check_fits(n, xb.config)
    up = _check_spins(graph, spins) > 0
    u, v = graph.edge_ends
    # Entry adj(i, j) as the key j * n + i, both ends of every edge: sorted,
    # they give np.nonzero(adj)'s order, node by node with rows ascending.
    nodes, rows = np.divmod(np.sort(np.concatenate((v, u)) * n + np.concatenate((u, v))), n)
    cols = 2 * nodes + up[nodes]
    landed = xb.program_high(rows, cols)
    return sorted(set(nodes[~landed].tolist()))


def check_fits(n: int, config: DeviceConfig) -> None:
    """Raise MappingError, naming the setting needed, unless n nodes (n rows, 2n columns) fit."""
    if n > config.rows or 2 * n > config.cols:
        raise MappingError(
            f"{n} nodes need {n} rows and {2 * n} columns; device is "
            f"{config.rows}x{config.cols} (multi-tile operation unsupported); "
            f'set {{"device": {{"rows": {n}, "cols": {2 * n}}}}} in the --config file'
        )


def compute_delta(
    xb: Crossbar,
    spins: Sequence[int],
    degrees: Sequence[int],
    params: HamiltonianParams,
) -> np.ndarray:
    """Per-node flip costs from one differential crossbar inference.

    The raw column readout recovers s_j * sum_i adj(i, j) * s_i; the exact
    energy change is then assembled digitally as
    delta_j = -(a_pen / 2) * (raw_j + s_j * deg_j) + b_pen * s_j.
    Before the read, raises ValueError unless the spins fit the rows, none is
    zero and ``degrees`` holds one entry per spin; the spins drive the rows
    in their own dtype, and the read's range check refuses any other entry
    but -1 and +1.
    """
    spins = np.asarray(spins)
    degrees = np.asarray(degrees, dtype=np.int64)
    n, rows, nonzero = len(spins), xb.config.rows, np.count_nonzero(spins)
    if n > rows or nonzero != n:
        raise ValueError(f"need at most {rows} spins, each -1 or +1; "
                         f"got {n}, {n - nonzero} of them 0")
    if degrees.shape != (n,):
        raise ValueError(f"need {n} degrees, one per spin; got shape {degrees.shape}")
    drive = spins
    if n < rows:  # the unused rows are not driven
        drive = np.zeros(rows, dtype=spins.dtype)
        drive[:n] = spins
    currents = xb.read_columns(drive)
    pos = currents[1 : 2 * n : 2]
    neg = currents[0 : 2 * n : 2]
    span = xb.config.v_read * (xb.config.g_state1 - xb.config.g_state0)
    raw = (pos - neg) / span
    return -(params.a_pen / 2.0) * (raw + spins * degrees) + params.b_pen * spins


def q_unit(
    low: float, sigma: Optional[float], t: int, config: SolverConfig, rng: np.random.Generator
) -> float:
    """Dynamic flip threshold from the least flip cost ``low``, ``min(delta)``.

    Greedy mode (q = 0, no draw) whenever an improving move exists, that is
    ``low < 0``; otherwise a Metropolis threshold q = -T_t * ln(u) with
    T_t = t0 * alpha**t * sigma.  ``sigma`` is the spread of the previous
    iteration's flip costs, ``np.std(prior_delta)``; None (no prior) or 0
    falls back to b_pen.
    """
    if low < 0.0:
        return 0.0
    if sigma is None or sigma <= 0.0:
        sigma = config.b_pen
    temperature = config.t0 * (config.alpha ** t) * sigma
    u = 1.0 - rng.random()  # uniform on (0, 1]
    # np.log, not math.log: on some hosts they differ in the last bit, and q is reported.
    return float(-temperature * np.log(u))


def select_flips(
    delta: np.ndarray, q: float, config: SolverConfig, adj: np.ndarray, low: float
) -> list[int]:
    """Up to k candidates with delta below q, forming an independent set.

    Candidates are ordered by ascending delta with node id as the tie-break;
    a candidate adjacent in ``adj`` to an earlier pick is skipped because
    simultaneous neighbor flips would invalidate each other's predicted cost.
    ``low`` is ``min(delta)``: no cost is below q exactly when ``low`` is not,
    and then the answer is [] after one comparison, with no pass over ``delta``.  At k = 1 the pick is
    ``delta.argmin()``: the first index of the least cost is the stable sort's
    first candidate, and one node is an independent set.
    """
    if not low < q:
        return []
    if config.k == 1:
        return [int(delta.argmin())]
    candidates = np.flatnonzero(delta < q)
    chosen: list[int] = []
    # A stable sort of ascending node ids breaks ties by node id.
    for i in candidates[np.argsort(delta[candidates], kind="stable")].tolist():
        if len(chosen) >= config.k:
            break
        if any(adj[i, j] for j in chosen):
            continue
        chosen.append(i)
    return chosen


def apply_flips(
    xb: Crossbar, spins: np.ndarray, flips: Sequence[int], adj: np.ndarray
) -> tuple[int, int, list[int]]:
    """Flip spins in place and reprogram the flipped nodes' column pairs.

    Only rows adjacent to a flipped node are rewritten (kind "program"), two
    cells per pair, positive cell first, pairs in node order with rows
    ascending: that order fixes which device draws each cell gets.  Returns
    (cells targeted, cells that landed in their window, ascending flipped
    nodes with a cell that missed).  Before any write or spin change, raises
    ValueError unless the flips are distinct nodes in range.
    """
    if not flips:
        return 0, 0, []
    nodes = sorted(flips)
    if not 0 <= nodes[0] <= nodes[-1] < len(spins) or len(set(nodes)) < len(nodes):
        raise ValueError(f"flips {list(flips)} must be distinct nodes in 0..{len(spins) - 1}")
    cells = []
    for j in nodes:
        spins[j] = -spins[j]
        up = bool(spins[j] > 0)
        # adj is symmetric, so row j of adj is column j.  STATE1 is 1 and
        # STATE0 is 0, so "holds a high cell" is the target.
        for i in np.flatnonzero(adj[j]).tolist():
            cells += (i, 2 * j + 1, up), (i, 2 * j, not up)
    landed = xb.program(cells, "program")
    missed = sorted({col // 2 for (_, col, _), ok in zip(cells, landed) if not ok})
    return len(cells), sum(landed), missed


def run(cnf: Cnf, device_config: DeviceConfig, solver_config: SolverConfig) -> RunReport:
    """Full solve: restarts of map -> {read, threshold, flip, reprogram} loops.

    Each restart draws fresh random spins and a fresh array from seeds derived
    from (seed, restart index), so restarts are independent and the whole run
    is reproducible.  The array is read, and the spin state decoded, at the
    start of a restart and after every change; an iteration that follows one
    with no flip keeps the last delta (the model has no read noise) and
    records an inference energy of 0.  The least cost is taken once per read
    and handed to q_unit's greedy test and select_flips' candidate test, so an
    iteration that flips nothing costs the q draw (one uniform) and one
    comparison, with no pass over delta.  No report field holds delta, and the
    loop keeps only the last two reads' costs.  The spread of the previous
    iteration's costs, which scales q_unit's annealing temperature, is taken
    only on a non-greedy iteration and at most once per read.  The nodes whose
    pair misses its pattern start as ``map_problem``'s; a flip drops the
    flipped nodes and adds ``apply_flips``' missed ones, and an iteration is
    accurate when none is left.  A verified assignment ends the run with verdict
    SAT (unless ``profile_iterations`` is set, in which case every restart
    runs its full iteration budget and the first verified decode is reported
    at the end; only such runs have iterations after one with no flip).
    """
    graph = build_graph(cnf)
    adj = adjacency_matrix(graph)
    degrees = graph.degrees
    params = solver_config.hamiltonian
    profile = solver_config.profile_iterations

    all_traces: list[list[IterationTrace]] = []
    totals = {"init_energy_nj": 0.0, "program_energy_nj": 0.0, "inference_energy_nj": 0.0}
    sat_assignment = None
    sat_restart = sat_iteration = None

    for restart in range(solver_config.restarts):
        srng = substream(solver_config.seed, restart, 0)
        spins = random_spins(graph.num_nodes, srng)
        xb = new_crossbar(device_config, derive_seed(solver_config.seed, restart, 1))
        unheld = set(map_problem(graph, spins, xb))
        traces: list[IterationTrace] = []
        prior_delta: Optional[np.ndarray] = None  # the previous iteration's delta
        sigma: Optional[float] = None  # np.std(spread_of), taken once per read
        spread_of: Optional[np.ndarray] = None

        for t in range(solver_config.max_iters):
            prog_before = xb.ledger.program_energy_nj
            infer_before = xb.ledger.inference_energy_nj
            if t == 0 or flips:  # otherwise the array is unchanged: keep the last delta
                delta = compute_delta(xb, spins, degrees, params)
                low = float(delta.min())
            if not low < 0.0 and prior_delta is not spread_of:  # only annealing uses sigma
                sigma, spread_of = float(np.std(prior_delta)), prior_delta
            q = q_unit(low, sigma, t, solver_config, srng)
            flips = select_flips(delta, q, solver_config, adj, low)
            targeted, correct, missed = apply_flips(xb, spins, flips, adj)
            unheld.difference_update(flips)  # missed is a subset of flips
            unheld.update(missed)
            traces.append(IterationTrace(
                t, q, tuple(flips), targeted, correct, not unheld,
                xb.ledger.program_energy_nj - prog_before,
                xb.ledger.inference_energy_nj - infer_before,
            ))

            if t == 0 or flips:  # otherwise the spins are unchanged: keep the last decode
                assignment = decode_solution(graph, spins, cnf)
            if assignment is not None and sat_assignment is None:
                sat_assignment = assignment
                sat_restart, sat_iteration = restart, t
            if not profile and (assignment is not None or not flips):
                break
            prior_delta = delta

        all_traces.append(traces)
        totals["init_energy_nj"] += xb.ledger.init_energy_nj
        totals["program_energy_nj"] += xb.ledger.program_energy_nj
        totals["inference_energy_nj"] += xb.ledger.inference_energy_nj
        if sat_assignment is not None and not profile:
            break

    totals["execute_energy_nj"] = totals["init_energy_nj"] + totals["program_energy_nj"]
    every = [tr for traces in all_traces for tr in traces]
    targeted = sum(tr.cells_targeted for tr in every)
    return RunReport(
        verdict="SAT" if sat_assignment is not None else "Unknown",
        assignment=sat_assignment.values if sat_assignment is not None else None,
        final_spins=tuple(spins.tolist()),
        traces=all_traces,
        totals=totals,
        iteration_accuracy=sum(tr.iteration_accurate for tr in every) / len(every),
        cell_write_accuracy=sum(tr.cells_correct for tr in every) / targeted if targeted else 1.0,
        restarts_executed=len(all_traces),
        sat_restart=sat_restart,
        sat_iteration=sat_iteration,
    )

