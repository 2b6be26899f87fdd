import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest

from ising_reram import (
    CellState,
    Crossbar,
    DeviceConfig,
    HamiltonianParams,
    IterationTrace,
    MappingError,
    RunReport,
    SolverConfig,
    adjacency_matrix,
    apply_flips,
    build_graph,
    compute_delta,
    decode_solution,
    delta_oracle,
    hamiltonian_energy,
    load_config_document,
    map_problem,
    new_crossbar,
    paper_instances,
    q_unit,
    random_3sat,
    report_to_json,
    run,
    select_flips,
    verify_assignment,
)
import ising_reram.device as device_module
import ising_reram.solver as solver_module
from ising_reram.solver import random_spins
from ising_reram.util import derive_seed, substream
from conftest import DEVICE_VARIANTS, exact_device, graph_from_edges, unsat_eight_clause

PARAMS = HamiltonianParams()


def build_problem(cnf, seed=0, device=None):
    g = build_graph(cnf)
    adj = adjacency_matrix(g)
    n = g.num_nodes
    device = device or exact_device(rows=max(4, n), cols=2 * n)
    rng = np.random.default_rng(seed)
    spins = 2 * rng.integers(0, 2, n) - 1
    xb = new_crossbar(device, seed)
    map_problem(g, spins, xb)
    return g, adj, spins, xb


def count_high_cells(xb):
    return int((xb.classify_grid() == int(CellState.STATE1)).sum())


def test_map_problem_single_clause_high_cell_count():
    cnf = random_3sat(3, 1, 0)
    for seed in range(5):
        _, _, _, xb = build_problem(cnf, seed=seed, device=exact_device())
        assert count_high_cells(xb) == 6


def test_map_problem_three_x_high_cells(three_x):
    g, _, _, xb = build_problem(three_x, seed=1)
    assert count_high_cells(xb) == 18
    assert g.num_nodes == 6


def test_map_problem_dimension_error():
    cnf = random_3sat(6, 4, 0)  # 12 nodes need 24 columns
    g = build_graph(cnf)
    xb = new_crossbar(DeviceConfig(), seed=0)
    with pytest.raises(MappingError):
        map_problem(g, np.ones(12, dtype=int), xb)


def _two_cell_init(adj, spins, xb):
    """Both cells of every weighted pair in one batch, column-major with rows ascending."""
    cols, rows = np.nonzero(adj.T)
    xb.program(
        [cell for j, i in zip(cols.tolist(), rows.tolist())
         for cell in ((i, 2 * j + 1, spins[j] > 0), (i, 2 * j, spins[j] < 0))],
        "init",
    )


@DEVICE_VARIANTS
@pytest.mark.parametrize("instance", ["three_x", "m40"])
def test_map_problem_equals_two_cell_batch_on_blank_array(overrides, instance, three_x):
    cnf = three_x if instance == "three_x" else random_3sat(13, 40, 8)
    graph = build_graph(cnf)
    adj = adjacency_matrix(graph)
    n = adj.shape[0]
    cfg = DeviceConfig(**{"rows": n, "cols": 2 * n, **overrides})
    spins = random_spins(n, np.random.default_rng(6))
    mapped, twin = new_crossbar(cfg, seed=5), new_crossbar(cfg, seed=5)
    map_problem(graph, spins, mapped)
    _two_cell_init(adj, spins, twin)
    assert mapped.ledger.init_energy_nj > 0
    assert np.array_equal(mapped.conductance, twin.conductance)
    assert np.array_equal(mapped.state, twin.state)
    assert mapped.ledger._totals == twin.ledger._totals
    assert mapped.rng.bit_generator.state == twin.rng.bit_generator.state
    assert mapped.normal_rng.bit_generator.state == twin.normal_rng.bit_generator.state
    assert next(mapped._draws) == next(twin._draws)


@pytest.mark.parametrize("fault", [70.0, 45.0], ids=["state1-cell", "dead-zone"])
def test_map_problem_refuses_an_array_that_is_not_blank(three_x, fault):
    graph = build_graph(three_x)
    xb = new_crossbar(DeviceConfig(rows=6, cols=12), seed=0)
    xb.inject_fault(3, 7, fault)
    twin = new_crossbar(DeviceConfig(rows=6, cols=12), seed=0)
    totals = dict(xb.ledger._totals)
    conductance = xb.conductance.copy()
    with pytest.raises(ValueError, match="blank array"):
        map_problem(graph, np.ones(6, dtype=int), xb)
    # Neither generator has drawn a block, and the next pulse's draws are the first.
    assert xb.rng.bit_generator.state == twin.rng.bit_generator.state
    assert xb.normal_rng.bit_generator.state == twin.normal_rng.bit_generator.state
    assert next(xb._draws) == next(twin._draws)
    assert xb.ledger._totals == totals
    assert np.array_equal(xb.conductance, conductance)


@pytest.mark.parametrize(
    "spins, message",
    [
        (np.ones(12, dtype=int), r"shape \(12,\)"),
        (np.ones(3, dtype=int), r"shape \(3,\)"),
        ([1, -1, 0, 1, 1, -1], "-1 or \\+1"),
        ([1, -1, 7, 1, 1, -1], "-1 or \\+1"),
    ],
    ids=["twelve-entries", "three-entries", "zero-entry", "seven-entry"],
)
def test_map_problem_refuses_a_malformed_spin_vector(three_x, spins, message):
    cfg = DeviceConfig(rows=6, cols=12)
    xb, twin = new_crossbar(cfg, seed=0), new_crossbar(cfg, seed=0)
    with pytest.raises(ValueError, match=message):
        map_problem(build_graph(three_x), spins, xb)
    assert xb.rng.bit_generator.state == twin.rng.bit_generator.state
    assert xb.normal_rng.bit_generator.state == twin.normal_rng.bit_generator.state
    assert xb.ledger._totals == twin.ledger._totals
    assert np.array_equal(xb.conductance, twin.conductance)
    assert np.array_equal(xb.state, twin.state)
    assert next(xb._draws) == next(twin._draws)


def test_compute_delta_matches_oracle_exactly_ideal():
    cases = 0
    for seed in range(200):
        cnf = random_3sat(3 + seed % 4, 1 + seed % 4, seed)
        g, adj, spins, xb = build_problem(cnf, seed=seed)
        delta = compute_delta(xb, spins, adj.sum(1), PARAMS)
        for j in range(g.num_nodes):
            assert delta[j] == delta_oracle(g, spins, PARAMS, j)
            cases += 1
    assert cases >= 200


def test_compute_delta_two_adjacent_nodes():
    g = graph_from_edges(2, [(0, 1)])
    adj = adjacency_matrix(g)
    xb = new_crossbar(exact_device(rows=4, cols=4), seed=0)
    spins = np.array([1, 1])
    map_problem(g, spins, xb)
    delta = compute_delta(xb, spins, adj.sum(1), PARAMS)
    assert list(delta) == [-1.0, -1.0]


def test_compute_delta_isolated_node():
    g = graph_from_edges(1, [])
    adj = adjacency_matrix(g)
    xb = new_crossbar(exact_device(rows=4, cols=4), seed=0)
    spins = np.array([-1])
    map_problem(g, spins, xb)
    delta = compute_delta(xb, spins, adj.sum(1), PARAMS)
    assert delta[0] == -PARAMS.b_pen


def test_compute_delta_noisy_in_window_bound():
    # Shortcut landings stay inside the windows, so the readout error per node
    # is bounded by a_pen * deg * tolerance / (g1 - g0).
    for seed in range(60):
        cnf = random_3sat(4, 3, seed)
        device = DeviceConfig(
            rows=16, cols=32, p_cell_success=1.0, energy_noise_sigma=0.0
        )
        g, adj, spins, xb = build_problem(cnf, seed=seed, device=device)
        degrees = adj.sum(1)
        delta = compute_delta(xb, spins, degrees, PARAMS)
        bound = PARAMS.a_pen * degrees * device.tolerance / (
            device.g_state1 - device.g_state0
        )
        oracle = np.array([delta_oracle(g, spins, PARAMS, j) for j in range(g.num_nodes)])
        assert (np.abs(delta - oracle) <= bound + 1e-12).all()


def _whole_array_pattern(xb, adj, spins):
    """Per node, in one pass over the whole array: does its column pair
    classify as the expected spin-signed pattern?  The oracle of the verdicts
    that map_problem and apply_flips take from the write flags."""
    n = adj.shape[0]
    pos = xb.state[:n, 1 : 2 * n : 2]
    neg = xb.state[:n, 0 : 2 * n : 2]
    weights = adj * np.asarray(spins).astype(np.int8)  # int8: entries are -1, 0 or 1
    # STATE1 is 1 and STATE0 is 0, so a boolean "holds a high cell" compares as the state.
    return ((pos == (weights > 0)) & (neg == (weights < 0))).all(axis=0)


def _pattern_ok(xb, adj, spins):
    """Do all mapped cells classify as the expected spin-signed pattern?"""
    return bool(_whole_array_pattern(xb, adj, spins).all())


def test_q_unit_greedy_when_improving():
    cfg = SolverConfig()
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert q_unit(-1.0, None, 0, cfg, rng) == 0.0
    assert q_unit(-1.0, 2.0, 5, cfg, rng) == 0.0
    assert rng.bit_generator.state == before  # greedy mode draws nothing


def test_q_unit_acceptance_law():
    # P(delta < q) for positive delta must follow exp(-delta/T).
    cfg = SolverConfig(t0=1.0, alpha=0.95)
    rng = np.random.default_rng(123)
    prior = np.array([0.0, 2.0])  # sigma = 1.0
    t = 0  # T = t0 * alpha^0 * sigma = 1.0
    delta = np.array([1.0, 5.0])
    draws = 20_000
    low, sigma = min(delta.tolist()), float(np.std(prior))
    hits = sum(q_unit(low, sigma, t, cfg, rng) > 1.0 for _ in range(draws))
    assert abs(hits / draws - np.exp(-1.0)) < 0.02


def test_q_unit_u_equal_one_gives_zero_threshold():
    class StubRng:
        def random(self):
            return 0.0  # u = 1 - random() = 1

    cfg = SolverConfig()
    adj = adjacency_matrix(graph_from_edges(2, []))
    delta = np.array([2.0, 3.0])  # no improving move
    q = q_unit(2.0, None, 0, cfg, StubRng())
    assert q == 0.0
    assert select_flips(delta, q, cfg, adj, 2.0) == []


def test_q_unit_constant_prior_falls_back_to_b_pen():
    cfg = SolverConfig(t0=2.0)
    rng = np.random.default_rng(5)
    prior = np.full(4, 3.0)  # zero spread
    values = [q_unit(0.5, float(np.std(prior)), 0, cfg, rng) for _ in range(2000)]
    # q = -2*b_pen*ln(u): mean 2.0 for b_pen=1.
    assert np.mean(values) == pytest.approx(2.0, rel=0.1)
    # No prior (sigma None) falls back the same way, draw for draw.
    a, b = np.random.default_rng(6), np.random.default_rng(6)
    assert [q_unit(0.5, None, 3, cfg, a) for _ in range(50)] == [
        q_unit(0.5, 0.0, 3, cfg, b) for _ in range(50)
    ]


def test_select_flips_independence_filter():
    adj = adjacency_matrix(graph_from_edges(2, [(0, 1)]))
    cfg = SolverConfig(k=2)
    flips = select_flips(np.array([-1.0, -1.0]), 0.0, cfg, adj, -1.0)
    assert flips == [0]


def test_select_flips_ordering_and_k():
    adj = adjacency_matrix(graph_from_edges(3, []))
    cfg = SolverConfig(k=2)
    flips = select_flips(np.array([-3.0, -1.0, -2.0]), 0.0, cfg, adj, -3.0)
    assert flips == [0, 2]
    assert select_flips(np.array([1.0, 2.0]), 0.0, cfg, adj, 1.0) == []


def test_apply_flips_write_counts(three_x):
    g, adj, spins, xb = build_problem(three_x, seed=2)
    # Every 3-X node has degree 3: 3 pairs, 6 cell writes.
    targeted, correct, missed = apply_flips(xb, spins, [0], adj)
    assert targeted == 6
    assert correct == 6
    assert missed == []


def test_apply_flips_empty_set():
    cnf = random_3sat(3, 1, 0)
    g, adj, spins, xb = build_problem(cnf, seed=0)
    before = xb.ledger.total_nj()
    assert apply_flips(xb, spins, [], adj) == (0, 0, [])
    assert xb.ledger.total_nj() == before


def test_apply_flips_degree_counts():
    cnf = paper_instances()["1-X"]  # node 1 (lit -2) has degree 3, node 0 degree 2
    g, adj, spins, xb = build_problem(cnf, seed=3)
    targeted, _, _ = apply_flips(xb, spins, [0], adj)
    assert targeted == 4  # degree-2 node: 2 pairs


def test_apply_flips_degree_one_node():
    g = graph_from_edges(2, [(0, 1)])
    adj = adjacency_matrix(g)
    xb = new_crossbar(exact_device(rows=4, cols=4), seed=0)
    spins = np.array([1, 1])
    map_problem(g, spins, xb)
    targeted, _, _ = apply_flips(xb, spins, [1], adj)
    assert targeted == 2  # one adjacency pair


def _totals(xb):
    return xb.ledger.init_energy_nj, xb.ledger.program_energy_nj, xb.ledger.inference_energy_nj


@pytest.mark.parametrize("flips", [[0, 6], [2, 2], [-1], [6], [4, -2, 1], [1, 3, 1]])
def test_apply_flips_refuses_repeated_negative_or_out_of_range_nodes(three_x, flips):
    device = DeviceConfig(rows=6, cols=12, p_cell_success=0.5)
    g, adj, spins, xb = build_problem(three_x, seed=2, device=device)
    _, _, twin_spins, twin = build_problem(three_x, seed=2, device=device)
    conductance, ledger = xb.conductance.copy(), _totals(xb)
    with pytest.raises(ValueError, match="must be distinct nodes in 0..5"):
        apply_flips(xb, spins, flips, adj)
    assert spins.tolist() == twin_spins.tolist()
    assert np.array_equal(xb.conductance, conductance) and _totals(xb) == ledger
    # No draw was taken: the next flip writes what it writes on the twin.
    assert apply_flips(xb, spins, [3], adj) == apply_flips(twin, twin_spins, [3], adj)
    assert np.array_equal(xb.conductance, twin.conductance)
    assert _totals(xb) == _totals(twin)


@pytest.mark.parametrize("spins, message", [
    (np.full(6, 0.5), "drive entries must be in"),
    (np.array([1.0, -1.0, 1.0, np.nan, 1.0, 1.0]), "drive entries must be in"),
    (np.array([1, -1, 2, 1, 1, -1]), "drive entries must be in"),
    (np.array([1, -1, 0, 1, 1, -1]), "at most 32 spins, each -1 or +1; got 6, 1 of them 0"),
    (np.array([1.0, -0.0, 1.0, 1.0, -1.0, 1.0]), "got 6, 1 of them 0"),
    (np.ones(40, dtype=np.int64), "at most 32 spins, each -1 or +1; got 40"),
], ids=["half", "nan", "two", "zero", "negative-zero", "too-long"])
def test_compute_delta_refuses_spins_not_unit_or_longer_than_rows(three_x, spins, message):
    g, adj, _, xb = build_problem(three_x, seed=2, device=exact_device())
    ledger = _totals(xb)
    with pytest.raises(ValueError, match=re.escape(message)):
        compute_delta(xb, spins, adj.sum(1), PARAMS)
    assert _totals(xb) == ledger


@pytest.mark.parametrize("shape", [(5,), (7,), (1, 6), ()], ids=["short", "long", "2-D", "scalar"])
def test_compute_delta_refuses_degrees_not_one_per_spin_before_the_read(three_x, shape):
    device = DeviceConfig(rows=6, cols=12, p_cell_success=0.5)
    g, adj, spins, xb = build_problem(three_x, seed=2, device=device)
    _, _, _, twin = build_problem(three_x, seed=2, device=device)
    message = f"need 6 degrees, one per spin; got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        compute_delta(xb, spins, np.full(shape, 3), PARAMS)
    assert _totals(xb) == _totals(twin) and np.array_equal(xb.conductance, twin.conductance)
    # No read was booked: the next one reads what the twin's reads.
    assert compute_delta(xb, spins, g.degrees, PARAMS).tolist() == \
        compute_delta(twin, spins, g.degrees, PARAMS).tolist()
    assert _totals(xb) == _totals(twin)


def test_compute_delta_gives_the_same_costs_for_every_unit_spin_dtype(three_x):
    for device in (exact_device(), exact_device(rows=6, cols=12)):  # padded and pass-through
        g, adj, spins, xb = build_problem(three_x, seed=2, device=device)
        expected = [delta_oracle(g, spins, PARAMS, j) for j in range(6)]
        for dtype in (np.int8, np.int64, float):
            delta = compute_delta(xb, spins.astype(dtype), adj.sum(1), PARAMS)
            assert delta.tolist() == expected
        assert compute_delta(xb, spins.tolist(), adj.sum(1), PARAMS).tolist() == expected


def test_column_writes_go_column_major_rows_ascending(monkeypatch, three_x):
    # The write order fixes which device draws each cell gets.
    calls = []
    program, program_high = Crossbar.program, Crossbar.program_high

    def recording_program(self, cells, kind="program"):
        cells = list(cells)
        calls.append((cells, kind))
        return program(self, cells, kind)

    def recording_program_high(self, rows, cols):
        calls.append((rows.tolist(), cols.tolist()))
        return program_high(self, rows, cols)

    monkeypatch.setattr(Crossbar, "program", recording_program)
    monkeypatch.setattr(Crossbar, "program_high", recording_program_high)
    graph = build_graph(three_x)
    adj = adjacency_matrix(graph)
    spins = np.array([1, -1, -1, 1, 1, -1])
    xb = new_crossbar(exact_device(rows=6, cols=12), seed=0)

    def pair_cells(j, i):
        return [(i, 2 * j + 1, spins[j] > 0), (i, 2 * j, spins[j] < 0)]

    map_problem(graph, spins, xb)
    # A blank array holds every low target already: init writes each pair's high cell.
    cols, rows = np.nonzero(adj.T)
    assert calls == [
        (rows.tolist(), [2 * j + 1 if spins[j] > 0 else 2 * j for j in cols.tolist()])
    ]
    calls.clear()
    apply_flips(xb, spins, [5, 2], adj)
    assert calls == [
        (
            [cell for j in (2, 5) for i in np.flatnonzero(adj[:, j]).tolist()
             for cell in pair_cells(j, i)],
            "program",
        )
    ]
    # From the edge list, init pulses exactly the cells np.nonzero(adj) names, in its order.
    sizes = [(3, 2), (6, 13), (13, 40), (50, 200)]  # (variables, clauses)
    instances = [*paper_instances().values()] + [
        random_3sat(n, m, seed) for seed, (n, m) in enumerate(sizes)
    ]
    for seed, cnf in enumerate(instances):
        graph = build_graph(cnf)
        n = graph.num_nodes
        nodes, rows = np.nonzero(adjacency_matrix(graph))
        spins = random_spins(n, np.random.default_rng(seed))
        calls.clear()
        map_problem(graph, spins, new_crossbar(exact_device(rows=n, cols=2 * n), seed))
        assert calls == [(rows.tolist(), (2 * nodes + (spins[nodes] > 0)).tolist())]
        assert len(rows) == 2 * graph.num_edges


@pytest.mark.parametrize("instance", ["three_x", "m40"])
def test_every_program_batch_of_a_solve_is_shorter_than_the_numpy_threshold(
    monkeypatch, instance, three_x
):
    # Only the init of a blank array is long enough for program_high's numpy pass.
    if instance == "three_x":
        cnf, device = three_x, DeviceConfig(rows=6, cols=12)
    else:
        cnf, device = random_3sat(13, 40, 1), DeviceConfig(rows=120, cols=240)
    programs, inits = [], []
    program, program_high = Crossbar.program, Crossbar.program_high

    def recording_program(self, cells, kind="program"):
        cells = list(cells)
        programs.append(len(cells))
        return program(self, cells, kind)

    def recording_program_high(self, rows, cols):
        inits.append(len(rows))
        return program_high(self, rows, cols)

    monkeypatch.setattr(Crossbar, "program", recording_program)
    monkeypatch.setattr(Crossbar, "program_high", recording_program_high)
    config = SolverConfig(restarts=2, max_iters=100, seed=1)
    report = run(cnf, device, config)
    assert len(inits) == len(report.traces) > 0  # one init per restart run
    assert sum(len(tr.flipped) for restart in report.traces for tr in restart) > 0
    assert 0 < max(programs) < device_module._BATCH_MIN
    if instance == "m40":
        assert min(inits) >= device_module._BATCH_MIN


def test_no_false_sat_under_extreme_noise():
    cnf = unsat_eight_clause()
    device = DeviceConfig(
        rows=24, cols=48, p_cell_success=0.3, miss_spread=40.0, energy_noise_sigma=1.0
    )
    for seed in range(10):
        report = run(cnf, device, SolverConfig(restarts=2, max_iters=15, seed=seed))
        assert report.verdict == "Unknown"


def test_energy_descent_greedy_exact(three_x):
    g, adj, spins, xb = build_problem(three_x, seed=4)
    degrees = adj.sum(1)
    cfg = SolverConfig()
    for _ in range(10):
        energy_before = hamiltonian_energy(g, spins, PARAMS)
        delta = compute_delta(xb, spins, degrees, PARAMS)
        flips = select_flips(delta, 0.0, cfg, adj, delta.min())
        if not flips:
            break
        apply_flips(xb, spins, flips, adj)
        energy_after = hamiltonian_energy(g, spins, PARAMS)
        assert energy_after == energy_before + sum(delta[j] for j in flips)
        assert energy_after < energy_before


def test_column_spin_coherence_after_flips(three_x):
    g, adj, spins, xb = build_problem(three_x, seed=5)
    assert _pattern_ok(xb, adj, spins)
    for flip in ([0], [3], [2]):
        apply_flips(xb, spins, flip, adj)
        assert _pattern_ok(xb, adj, spins)


def test_pairwise_fault_tolerance_exact(three_x):
    g, adj, spins, xb = build_problem(three_x, seed=6)
    degrees = adj.sum(1)
    base = compute_delta(xb, spins, degrees, PARAMS)
    i, j = (int(ends[0]) for ends in g.edge_ends)
    term = PARAMS.a_pen / 2 * spins[i] * spins[j]
    # Dead pair (both low): the adjacency term drops out of column j only.
    xb.inject_fault(i, 2 * j + 1, 20.0)
    xb.inject_fault(i, 2 * j, 20.0)
    faulted = compute_delta(xb, spins, degrees, PARAMS)
    assert faulted[j] == base[j] + term
    others = [k for k in range(g.num_nodes) if k != j]
    assert (faulted[others] == base[others]).all()


def test_run_paper_instances_ideal(zero_x, three_x):
    from ising_reram import Assignment

    for cnf in (zero_x, three_x):
        n = 3 * cnf.num_clauses
        device = exact_device(rows=max(8, n), cols=2 * n)
        report = run(cnf, device, SolverConfig(seed=11))
        assert report.verdict == "SAT"
        assert verify_assignment(cnf, Assignment(report.assignment))


def test_run_unsat_never_sat():
    cnf = unsat_eight_clause()
    device = exact_device(rows=24, cols=48)
    for seed in range(10):
        report = run(cnf, device, SolverConfig(restarts=3, max_iters=20, seed=seed))
        assert report.verdict == "Unknown"
        assert report.assignment is None


def test_run_determinism(three_x):
    device = DeviceConfig()
    cfg = SolverConfig(seed=21)
    rep1 = run(three_x, device, cfg)
    rep2 = run(three_x, device, cfg)
    assert report_to_json(rep1) == report_to_json(rep2)
    assert rep1.traces == rep2.traces
    rep3 = run(three_x, device, SolverConfig(seed=22))
    assert report_to_json(rep3) != report_to_json(rep1)


def test_draw_block_size_changes_no_output(monkeypatch):
    cnf = random_3sat(13, 40, 3)
    device = DeviceConfig(rows=120, cols=240, p_cell_success=0.9)
    config = SolverConfig(restarts=2, max_iters=40, seed=3, profile_iterations=True)
    new_crossbar_ = solver_module.new_crossbar
    outputs = []
    for block in (1, 3, device_module._DRAW_BLOCK):
        crossbars = []

        def recording_crossbar(*args):
            crossbars.append(new_crossbar_(*args))
            return crossbars[-1]

        monkeypatch.setattr(device_module, "_DRAW_BLOCK", block)
        monkeypatch.setattr(solver_module, "new_crossbar", recording_crossbar)
        text = report_to_json(run(cnf, device, config))
        outputs.append((text, [(xb.conductance.tobytes(), xb.state.tobytes(), xb.ledger._totals)
                               for xb in crossbars]))
    assert len(outputs[0][1]) == config.restarts
    assert outputs[0] == outputs[1] == outputs[2]


def test_batch_threshold_changes_no_output(monkeypatch):
    # Threshold 1 and the default send every init through the numpy pass,
    # and one above every batch none.
    cnf = random_3sat(13, 40, 5)
    device = DeviceConfig(rows=120, cols=240, p_cell_success=0.9)
    config = SolverConfig(restarts=2, max_iters=40, seed=5, profile_iterations=True)
    new_crossbar_ = solver_module.new_crossbar
    outputs = []
    for threshold in (1, device_module._BATCH_MIN, 120 * 240 + 1):
        crossbars = []

        def recording_crossbar(*args):
            crossbars.append(new_crossbar_(*args))
            return crossbars[-1]

        monkeypatch.setattr(device_module, "_BATCH_MIN", threshold)
        monkeypatch.setattr(solver_module, "new_crossbar", recording_crossbar)
        text = report_to_json(run(cnf, device, config))
        outputs.append((text, [(xb.conductance.tobytes(), xb.state.tobytes(), xb.ledger._totals,
                                next(xb._draws)) for xb in crossbars]))
    assert len(outputs[0][1]) == config.restarts
    assert outputs[0] == outputs[1] == outputs[2]


def _stdlib_report_json(report):
    return json.dumps(report.to_json_dict(), sort_keys=True) + "\n"


def _canonical(text):
    """``text`` parsed and encoded again: the same bytes for any well-formed report."""
    return json.dumps(json.loads(text), sort_keys=True) + "\n"


def _assert_traces_round_trip(report, text):
    """The parsed report names the ``IterationTrace`` fields once, in
    declaration order, and each parsed trace row holds exactly that
    many values, equal to its ``IterationTrace`` field by field (``repr`` tells
    -0.0 from 0.0, matches NaN with NaN, and 1 from 1.0 and True)."""
    parsed = json.loads(text)
    names = list(IterationTrace._fields)
    assert parsed["trace_fields"] == names
    rows = parsed["traces"]
    assert [len(r) for r in rows] == [len(r) for r in report.traces]
    for row, tr in zip(itertools.chain(*rows), itertools.chain(*report.traces)):
        assert isinstance(row, list) and len(row) == len(names)
        for name, got in zip(names, row):
            value = getattr(tr, name)
            got = tuple(got) if isinstance(value, tuple) else got
            assert repr(got) == repr(value), name


def _synthetic_reports():
    """Floats the stdlib spells specially (signed zeros, extremes, NaN,
    infinities), ints beyond a float's exact range, a long ``flipped``, an
    empty restart and a report with no restarts."""
    traces = [
        IterationTrace(0, -0.0, (), 0, 0, True, 5e-324, 1e-300),
        IterationTrace(1, math.nan, (2, 0), 4, 3, False, -0.0, 1e22),
        IterationTrace(2**53 + 1, 1e308, (7, 2**60, 0, 3), 2**64, 3, True, math.inf, -math.inf),
    ]
    report = RunReport(
        verdict="Unknown",
        assignment=None,
        final_spins=(1, -1, 1),
        traces=[traces, []],
        totals={"init_energy_nj": 0.0, "program_energy_nj": -0.0, "inference_energy_nj": math.inf},
        iteration_accuracy=0.5,
        cell_write_accuracy=0.75,
        restarts_executed=2,
    )
    return [report, dataclasses.replace(report, traces=[])]


def test_each_trace_writes_as_its_report_row():
    noisy = run(random_3sat(5, 6, 11), DeviceConfig(rows=18, cols=36),
                SolverConfig(k=3, restarts=3, max_iters=25, seed=3, profile_iterations=True))
    checked = 0
    for report in (noisy, *_synthetic_reports()):
        rows = json.loads(report_to_json(report))["traces"]
        for restart, parsed in zip(report.traces, rows, strict=True):
            for tr, row in zip(restart, parsed, strict=True):
                # repr tells -0.0 from 0.0 and matches NaN with NaN.
                assert repr(json.loads(json.dumps(tr))) == repr(row)
                checked += 1
    assert checked == 75 + 3


def test_report_json_matches_stdlib_encoder(three_x):
    sat = run(three_x, exact_device(rows=8, cols=12), SolverConfig(seed=3))
    unknown = run(unsat_eight_clause(), exact_device(rows=24, cols=48),
                  SolverConfig(restarts=2, max_iters=10, seed=1))
    noisy = run(random_3sat(5, 6, 11), DeviceConfig(rows=18, cols=36),
                SolverConfig(restarts=3, max_iters=25, seed=3, profile_iterations=True))
    assert sat.verdict == "SAT" and sat.assignment is not None
    assert unknown.assignment is None and unknown.sat_restart is None
    assert len(noisy.traces) == 3
    for report in (sat, unknown, noisy, *_synthetic_reports()):
        text = report_to_json(report)
        assert text == _stdlib_report_json(report)
        assert text == _canonical(text)
        _assert_traces_round_trip(report, text)


def test_report_json_is_slim_and_strict():
    report = run(random_3sat(13, 40, 5), DeviceConfig(rows=120, cols=240),
                 SolverConfig(restarts=2, max_iters=300, seed=5, profile_iterations=True))
    text = report_to_json(report)

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    parsed = json.loads(text, parse_constant=reject)
    names = list(IterationTrace._fields)
    assert [len(r) for r in parsed["traces"]] == [300, 300]
    assert parsed["trace_fields"] == names
    assert all(len(row) == len(names) for r in parsed["traces"] for row in r)
    # One line with the field names once: 37,444 bytes; with the names in every entry, 110,504.
    assert len(text.encode()) < 45_000
    assert text == _stdlib_report_json(report)
    _assert_traces_round_trip(report, text)


def test_run_report_energy_traceability(three_x):
    report = run(three_x, DeviceConfig(), SolverConfig(seed=2))
    traced_program = sum(tr.program_energy_nj for trs in report.traces for tr in trs)
    assert traced_program == pytest.approx(report.totals["program_energy_nj"])
    assert report.totals["execute_energy_nj"] == pytest.approx(
        report.totals["init_energy_nj"] + report.totals["program_energy_nj"]
    )


def test_iteration_accuracy_ideal_is_one(three_x):
    device = exact_device(rows=8, cols=12)
    report = run(three_x, device, SolverConfig(seed=3))
    assert report.iteration_accuracy == 1.0
    assert report.cell_write_accuracy == 1.0


def test_iteration_accuracy_zero_success():
    cnf = random_3sat(3, 1, 0)
    device = DeviceConfig(p_cell_success=0.0, rows=8, cols=8)
    report = run(cnf, device, SolverConfig(restarts=1, max_iters=5, seed=1))
    flipped_any = [tr for trs in report.traces for tr in trs if tr.cells_targeted]
    assert flipped_any, "expected at least one iteration with targeted cells"
    assert all(not tr.iteration_accurate for tr in flipped_any)


def test_profile_mode_runs_full_budget(three_x):
    cfg = SolverConfig(restarts=2, max_iters=7, profile_iterations=True, seed=5)
    report = run(three_x, DeviceConfig(), cfg)
    assert [len(traces) for traces in report.traces] == [7, 7]


def _hand_loop(cnf, device, config):
    """The solver loop from the public functions, reading and decoding every iteration.

    Returns one list of iteration rows per restart and the first verified
    assignment (or None).
    """
    graph = build_graph(cnf)
    adj = adjacency_matrix(graph)
    degrees = adj.sum(axis=1)
    restarts, found = [], None
    for restart in range(config.restarts):
        rng = substream(config.seed, restart, 0)
        spins = random_spins(graph.num_nodes, rng)
        xb = new_crossbar(device, derive_seed(config.seed, restart, 1))
        map_problem(graph, spins, xb)
        prior, rows = None, []
        for t in range(config.max_iters):
            before = xb.ledger.inference_energy_nj
            delta = compute_delta(xb, spins, degrees, config.hamiltonian)
            read_nj = xb.ledger.inference_energy_nj - before
            low = min(delta.tolist())
            q = q_unit(low, float(np.std(prior)) if prior is not None else None, t, config, rng)
            flips = select_flips(delta, q, config, adj, low)
            targeted, correct, _ = apply_flips(xb, spins, flips, adj)
            accurate = correct == targeted and _pattern_ok(xb, adj, spins)
            rows.append(
                (t, tuple(delta.tolist()), q, tuple(flips), targeted, correct, accurate, read_nj)
            )
            assignment = decode_solution(graph, spins, cnf)
            if found is None and assignment is not None:
                found = assignment
            prior = delta
        restarts.append(rows)
    return restarts, found


@pytest.mark.parametrize("p_cell_success", [0.6, 0.99])  # 0.99 mixes accurate iterations in
def test_run_reads_and_decodes_only_after_a_change(monkeypatch, p_cell_success):
    cnf = random_3sat(5, 8, 4)
    device = DeviceConfig(rows=24, cols=48, p_cell_success=p_cell_success)
    config = SolverConfig(restarts=3, max_iters=60, seed=2, profile_iterations=True)
    expected, found = _hand_loop(cnf, device, config)

    calls = {"read": 0, "decode": 0}
    reads = []
    read_, decode_ = Crossbar.read_columns, solver_module.decode_solution
    compute_delta_ = solver_module.compute_delta

    def recording_delta(*args):
        reads.append(compute_delta_(*args))
        return reads[-1]

    def counting_read(self, drive):
        calls["read"] += 1
        return read_(self, drive)

    def counting_decode(*args):
        calls["decode"] += 1
        return decode_(*args)

    monkeypatch.setattr(Crossbar, "read_columns", counting_read)
    monkeypatch.setattr(solver_module, "decode_solution", counting_decode)
    monkeypatch.setattr(solver_module, "compute_delta", recording_delta)
    report = run(cnf, device, config)

    assert [len(r) for r in report.traces] == [config.max_iters] * config.restarts
    skipped = flipping = 0
    read = -1
    for traces, rows in zip(report.traces, expected):
        for tr, row in zip(traces, rows):
            # The costs in effect: the run's latest read, taken at t = 0 and after a flip.
            read += tr.t == 0 or bool(traces[tr.t - 1].flipped)
            assert (
                tr.t, tuple(reads[read].tolist()), tr.q, tr.flipped, tr.cells_targeted,
                tr.cells_correct, tr.iteration_accurate,
            ) == row[:7]
            if tr.t > 0 and not traces[tr.t - 1].flipped:
                skipped += 1
                assert tr.inference_energy_nj == 0.0
            else:
                # Both sides take the read's energy as a difference of running
                # totals that were summed over different reads.
                assert tr.inference_energy_nj == pytest.approx(row[7], rel=1e-12)
            flipping += tr.t > 0 and bool(tr.flipped)
    assert skipped > 0 and flipping > 0
    assert report.verdict == ("SAT" if found is not None else "Unknown")
    assert report.assignment == (found.values if found is not None else None)

    flips_not_last = sum(bool(tr.flipped) for r in report.traces for tr in r[:-1])
    assert calls["read"] == config.restarts + flips_not_last
    assert calls["decode"] == config.restarts + flipping


def test_run_sat_bookkeeping(monkeypatch):
    # Without profiling, the first SAT ends the run, here after three failed restarts.
    cnf = random_3sat(6, 10, 2)
    graph = build_graph(cnf)
    device = DeviceConfig(rows=30, cols=60)
    report = run(cnf, device, SolverConfig(restarts=6, max_iters=20, seed=3))
    assert report.verdict == "SAT" and report.sat_restart >= 1
    assert report.restarts_executed == report.sat_restart + 1
    assert report.traces[report.sat_restart][-1].t == report.sat_iteration
    assert decode_solution(graph, report.final_spins, cnf).values == report.assignment

    # With profiling every restart runs, and the spins reported are the last
    # restart's: the vector random_spins drew, which run flips in place.
    drawn = []

    def recording_spins(num_nodes, rng):
        drawn.append(random_spins(num_nodes, rng))
        return drawn[-1]

    monkeypatch.setattr(solver_module, "random_spins", recording_spins)
    config = SolverConfig(restarts=3, max_iters=10, seed=3, profile_iterations=True)
    report = run(cnf, device, config)
    assert len(drawn) == report.restarts_executed == 3
    assert report.final_spins == tuple(drawn[-1].tolist())


def test_solver_config_json_round_trip():
    doc = {
        "device": {"rows": 16, "cols": 16},
        "solver": {"k": 2, "alpha": 0.9, "a_pen": 3.0, "b_pen": 1.5, "seed": 4},
    }
    device, solver = load_config_document(doc)
    assert device.rows == 16
    assert solver.k == 2
    assert solver.hamiltonian == HamiltonianParams(3.0, 1.5)
    assert SolverConfig.from_dict(solver.to_dict()) == solver


def test_solver_config_rejects_non_finite_fields():
    for field in ("t0", "alpha", "a_pen", "b_pen"):
        for value in (math.nan, math.inf, -math.inf, 10**400):
            with pytest.raises(ValueError, match=rf"^SolverConfig\.{field} must be finite"):
                SolverConfig(**{field: value})


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(k=0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=1.0)


def _noisy_run_checking_verify(monkeypatch, p_cell_success, k=1):
    """Solve on a noisy 18x36 device with up to ``k`` flips per iteration,
    checking every iteration's verify.

    At each trace (built once per iteration, after the flips are written and
    the missed nodes are refreshed) the trace's verdict must agree with the
    whole-array oracle; the nodes map_problem returns must be the ones the
    oracle fails after the init.  Returns the run's crossbars, the oracle's
    verdict per iteration and the number of nodes each iteration flipped.
    """
    live, crossbars, verdicts, widths = {}, [], [], []
    map_problem_, trace_ = solver_module.map_problem, solver_module.IterationTrace

    def recording_map(graph, spins, xb):
        unheld = map_problem_(graph, spins, xb)
        adj = adjacency_matrix(graph)
        assert unheld == np.flatnonzero(~_whole_array_pattern(xb, adj, spins)).tolist()
        live.update(adj=adj, spins=spins, xb=xb)
        crossbars.append(xb)
        return unheld

    def checking_trace(*values):
        tr = trace_(*values)
        oracle = _pattern_ok(live["xb"], live["adj"], live["spins"])
        assert tr.iteration_accurate == (oracle and tr.cells_correct == tr.cells_targeted)
        assert tr.iteration_accurate == oracle
        verdicts.append(oracle)
        widths.append(len(tr.flipped))
        return tr

    monkeypatch.setattr(solver_module, "map_problem", recording_map)
    monkeypatch.setattr(solver_module, "IterationTrace", checking_trace)
    device = DeviceConfig(rows=18, cols=36, p_cell_success=p_cell_success)
    solver = SolverConfig(k=k, restarts=4, max_iters=25, seed=3, profile_iterations=True)
    report = run(random_3sat(5, 6, 11), device, solver)
    assert len(verdicts) == sum(len(restart) for restart in report.traces) == 100
    return crossbars, verdicts, widths


def test_incremental_verify_matches_whole_array_oracle(monkeypatch):
    verdicts = []
    for p_cell_success in (0.6, 0.99):
        for k in (1, 3):
            _, seen, widths = _noisy_run_checking_verify(monkeypatch, p_cell_success, k)
            assert max(widths) == k  # with k = 3, some iterations flip several nodes
            verdicts += seen
    assert set(verdicts) == {True, False}


def test_sensed_grid_matches_window_classification(monkeypatch):
    crossbars, _, _ = _noisy_run_checking_verify(monkeypatch, 0.6)
    faults = ((0, 1, 45.0), (2, 3, 70.0), (4, 5, 10.0), (5, 0, 30.0), (1, 7, 95.0), (3, 2, 0.0))
    for row, col, g in faults:
        crossbars[-1].inject_fault(row, col, g)
    for xb in crossbars:
        cfg, g = xb.config, xb.conductance
        expected = np.full(g.shape, int(CellState.INDETERMINATE))
        for state, nominal in ((CellState.STATE0, cfg.g_state0), (CellState.STATE1, cfg.g_state1)):
            expected[(g >= nominal - cfg.tolerance) & (g <= nominal + cfg.tolerance)] = int(state)
        assert np.array_equal(xb.classify_grid(), expected)
        assert xb.state[4, 5] == expected[4, 5]
    assert set(np.unique(crossbars[-1].classify_grid()).tolist()) == {0, 1, 2}


@DEVICE_VARIANTS
def test_apply_flips_missed_nodes_are_the_flipped_nodes_the_whole_array_pass_fails(overrides):
    # Runs reach only map_problem's init followed by flips of independent
    # node sets; after each, a flipped node's verdict is the oracle's.
    graph = build_graph(random_3sat(5, 8, 4))
    adj = adjacency_matrix(graph)
    n = graph.num_nodes
    cfg = DeviceConfig(**{"rows": n, "cols": 2 * n, **overrides, "p_cell_success": 0.6})
    rng = np.random.default_rng(5)
    seen = set()
    for seed in range(4):
        spins = random_spins(n, rng)
        xb = new_crossbar(cfg, seed)
        map_problem(graph, spins, xb)
        for _ in range(6):
            flips = []
            for j in rng.permutation(n).tolist()[: int(rng.integers(1, 4))]:
                if not any(adj[j, i] for i in flips):
                    flips.append(j)
            targeted, correct, missed = apply_flips(xb, spins, flips, adj)
            whole = _whole_array_pattern(xb, adj, spins)
            assert missed == sorted(j for j in flips if not whole[j])
            assert targeted == 2 * int(adj[flips].sum())
            assert (correct == targeted) == (missed == [])
            seen.update(whole[flips].tolist())
    assert seen == {True, False}


@DEVICE_VARIANTS
def test_map_problem_verdict_equals_the_whole_array_pass(overrides):
    graph = build_graph(random_3sat(13, 40, 6))
    adj = adjacency_matrix(graph)
    n = graph.num_nodes
    for p_cell_success in (None, 0.6):
        extra = {} if p_cell_success is None else {"p_cell_success": p_cell_success}
        cfg = DeviceConfig(**{"rows": n, "cols": 2 * n, **overrides, **extra})
        seen = set()
        for seed in range(3):
            spins = random_spins(n, np.random.default_rng(seed))
            xb = new_crossbar(cfg, seed)
            got = map_problem(graph, spins, xb)
            whole = _whole_array_pattern(xb, adj, spins)
            assert got == np.flatnonzero(~whole).tolist()
            seen.update(whole.tolist())
        assert seen == {True, False}  # some column failed its init


@DEVICE_VARIANTS
def test_map_problem_returns_the_missed_nodes_sorted_and_distinct(overrides):
    graph = build_graph(random_3sat(5, 8, 4))
    adj = adjacency_matrix(graph)
    n = graph.num_nodes
    empty = set()
    for p_cell_success in (1.0, None, 0.6):
        extra = {} if p_cell_success is None else {"p_cell_success": p_cell_success}
        cfg = DeviceConfig(**{"rows": n, "cols": 2 * n, **overrides, **extra})
        for seed in range(6):
            spins = random_spins(n, np.random.default_rng(seed))
            xb = new_crossbar(cfg, seed)
            got = map_problem(graph, spins, xb)
            whole = _whole_array_pattern(xb, adj, spins)
            assert type(got) is list and all(type(j) is int for j in got)
            assert got == sorted(set(got))
            assert got == [j for j in range(n) if not whole[j]]
            assert (got == []) == bool(whole.all())
            empty.add(got == [])
    assert empty == {True, False}


def _select_by_sort(delta, q, config, adj):
    """select_flips' rule with a Python sort on (cost, node id)."""
    costs = delta.tolist()
    chosen = []
    for i in sorted((i for i, c in enumerate(costs) if c < q), key=lambda i: (costs[i], i)):
        if len(chosen) < config.k and not any(adj[i][j] for j in chosen):
            chosen.append(i)
    return chosen


def test_least_cost_shortcuts_match_the_full_tests():
    g = build_graph(random_3sat(5, 8, 4))
    adj = adjacency_matrix(g)
    rng = np.random.default_rng(9)
    taken = 0
    for t in range(400):
        config = SolverConfig(k=int(rng.integers(1, 4)))
        delta = rng.normal(0.5, 1.0, g.num_nodes).round(1)
        if t % 3:  # no improving move, and with +2 mostly no cost below q either
            delta = np.abs(delta) + 2.0 * (t % 3 - 1)
        prior = rng.normal(0.0, 1.0, g.num_nodes)
        low, sigma = min(delta.tolist()), float(np.std(prior))
        a, b = np.random.default_rng(t), np.random.default_rng(t)
        q = q_unit(low, sigma, t % 50, config, a)
        if (delta < 0).any():
            assert q == 0.0  # greedy, with no draw
        else:
            u = b.random()
            assert q == float(-config.t0 * config.alpha ** (t % 50) * sigma * np.log(1.0 - u))
        assert a.bit_generator.state == b.bit_generator.state
        flips = select_flips(delta, q, config, adj, low)
        assert flips == _select_by_sort(delta, q, config, adj)
        for cut in (low, low + 0.1, low - 0.1, 1.5, 2.5):  # q on and beside the least cost
            assert select_flips(delta, cut, config, adj, low) == _select_by_sort(delta, cut, config, adj)
        taken += bool(flips)
    assert 0 < taken < 400


@pytest.mark.parametrize("k", [2, 3])
def test_select_flips_on_the_adjacency_matrix_matches_the_sort(k):
    # Integer costs tie often, so node ids break ties and neighbours crowd the front.
    graph = build_graph(random_3sat(5, 8, 4))
    adj = adjacency_matrix(graph)
    config, rng = SolverConfig(k=k), np.random.default_rng(k)
    widths, skipped = set(), 0
    for _ in range(300):
        delta = rng.integers(-3, 3, graph.num_nodes).astype(float)
        low = float(delta.min())
        for q in (low, low + 1.0, 0.0, 1.0, 3.0):
            flips = select_flips(delta, q, config, adj, low)
            assert flips == _select_by_sort(delta, q, config, adj)
            assert not adj[np.ix_(flips, flips)].any()  # an independent set
            widths.add(len(flips))
            skipped += len(flips) < min(k, int((delta < q).sum()))
    assert widths == set(range(k + 1)) and skipped > 0


@pytest.mark.parametrize("costs", [
    [0.5] * 6,
    [-1.0] * 6,
    [0.0, -0.0, 1.0, -0.0, 0.0, 2.0],
    [-0.0, 0.0, 0.0, -0.0, 1.0, 1.0],
    [1.0, -np.inf, 0.0, -np.inf, 2.0, 3.0],
    [np.inf, 2.0, -np.inf, 1.0, -np.inf, 0.0],
    [np.inf] * 6,
])
def test_one_flip_pick_is_the_sorts_first_candidate(three_x, costs):
    adj, delta, config = adjacency_matrix(build_graph(three_x)), np.array(costs), SolverConfig(k=1)
    low = float(delta.min())
    picks = []
    for q in (low, low + 1.0, -1.0, 0.0, 0.5, 1.0, np.inf):
        picks.append(select_flips(delta, q, config, adj, low))
        assert picks[-1] == _select_by_sort(delta, q, config, adj), q
    assert any(picks) or low == np.inf


def test_profiled_run_takes_each_spread_at_most_once_per_read(monkeypatch):
    reads, spreads = [], []
    compute_delta_, std_ = solver_module.compute_delta, np.std

    def recording_delta(*args):
        reads.append(compute_delta_(*args))
        return reads[-1]

    def recording_std(a, *args, **kwargs):
        spreads.append(a)
        return std_(a, *args, **kwargs)

    monkeypatch.setattr(solver_module, "compute_delta", recording_delta)
    monkeypatch.setattr(solver_module.np, "std", recording_std)
    config = SolverConfig(restarts=3, max_iters=60, seed=2, profile_iterations=True)
    report = run(random_3sat(5, 8, 4), DeviceConfig(rows=24, cols=48), config)
    monkeypatch.undo()
    assert len(reads) > config.restarts  # some iterations read again after a flip
    assert 0 < len(spreads) <= len(reads)
    # Every spread is that of a read, and no read's spread is taken twice.
    assert all(any(s is r for r in reads) for s in spreads)
    assert len({id(s) for s in spreads}) == len(spreads)
    # Spreads are taken only where wanted: of the read before each non-greedy iteration.
    wanted = first = 0
    for traces in report.traces:
        # read_of[t]: the index in ``reads`` of the costs iteration t acted on.
        read_of = [first + k - 1 for k in itertools.accumulate(
            tr.t == 0 or bool(traces[tr.t - 1].flipped) for tr in traces)]
        wanted += len({read_of[tr.t - 1] for tr in traces
                       if tr.t > 0 and reads[read_of[tr.t]].min() >= 0.0})
        first = read_of[-1] + 1
    assert first == len(reads)
    assert len(spreads) == wanted


def _full_sum_read(self, drive):
    """``Crossbar.read_columns`` with its energy a sum over every driven cell."""
    d = np.asarray(drive)
    currents = self.config.v_read * (d.astype(float) @ self.conductance)
    self.ledger.record("inference", self.config._read_energy_nj(float(self.conductance[d != 0].sum())))
    return currents


def _read_energies(report) -> list[float]:
    """Every iteration's read energy, then the run's total."""
    return [tr.inference_energy_nj for restart in report.traces for tr in restart] + [
        report.totals["inference_energy_nj"]]


def _without_read_energies(report) -> RunReport:
    traces = [[tr._replace(inference_energy_nj=0.0) for tr in restart]
              for restart in report.traces]
    totals = {**report.totals, "inference_energy_nj": 0.0}
    return dataclasses.replace(report, traces=traces, totals=totals)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("ideal", [False, True], ids=["noisy", "ideal"])
def test_row_total_reads_give_the_full_sum_runs(monkeypatch, k, ideal):
    cnf = random_3sat(13, 40, 5)
    device = exact_device(rows=120, cols=240) if ideal else DeviceConfig(rows=120, cols=240)
    config = SolverConfig(restarts=2, max_iters=300, k=k, seed=1, profile_iterations=True)
    report = run(cnf, device, config)
    monkeypatch.setattr(Crossbar, "read_columns", _full_sum_read)
    reference = run(cnf, device, config)
    assert any(tr.flipped for restart in report.traces for tr in restart)
    if ideal:
        # Every conductance is 20 or 70 uS and every partial sum an exact
        # integer, so the energies agree bit for bit.
        assert report == reference
    else:
        # Same flips, q, cell counts, verdicts and assignment.
        assert _without_read_energies(report) == _without_read_energies(reference)
        assert _read_energies(report) == pytest.approx(_read_energies(reference), rel=1e-12, abs=0)
