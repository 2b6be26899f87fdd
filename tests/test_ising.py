from collections import Counter

import numpy as np
import pytest

from ising_reram import (
    Assignment,
    Cnf,
    CnfError,
    IsingGraph,
    HamiltonianParams,
    adjacency_matrix,
    brute_force_sat,
    build_graph,
    decode_solution,
    delta_oracle,
    exhaustive_ground_state,
    hamiltonian_energy,
    kernel_decompose,
    paper_instances,
    random_3sat,
    verify_assignment,
)
from conftest import graph_from_edges

PARAMS = HamiltonianParams()


def edge_set(graph):
    return set(zip(*map(np.ndarray.tolist, graph.edge_ends)))


def spins_with_up(n, up):
    s = -np.ones(n, dtype=np.int64)
    s[list(up)] = 1
    return s


def test_build_graph_counts():
    expected_edges = {"0-X": 6, "1-X": 7, "2-X": 8, "3-X": 9}
    for label, cnf in paper_instances().items():
        g = build_graph(cnf)
        assert g.num_nodes == 6
        assert g.num_edges == expected_edges[label], label


def test_build_graph_one_x_same_polarity_shared_var_has_no_edge():
    g = build_graph(paper_instances()["1-X"])
    # Variable 3 appears positively in both clauses: nodes 2 and 4.
    assert (2, 4) not in edge_set(g)
    # Variable 2 appears with opposite polarity: node 1 (neg) vs node 3 (pos).
    assert (1, 3) in edge_set(g)


def test_nodes_are_clause_major():
    cnf = paper_instances()["3-X"]
    g = build_graph(cnf)
    assert g.num_nodes == 3 * cnf.num_clauses
    for i in range(g.num_nodes):
        assert g.lits[i] == cnf.lits[i // 3, i % 3]


def test_edge_count_identity():
    # Edges = 3m + number of opposite-polarity occurrence pairs across clauses.
    for seed in range(40):
        cnf = random_3sat(5, 4, seed)
        conflicts = 0
        for ci in range(cnf.num_clauses):
            for cj in range(ci + 1, cnf.num_clauses):
                for a in cnf.clauses[ci]:
                    for b in cnf.clauses[cj]:
                        conflicts += a == -b
        g = build_graph(cnf)
        assert g.num_edges == 3 * cnf.num_clauses + conflicts


def test_adjacency_matrix_shape_and_symmetry():
    g = build_graph(paper_instances()["3-X"])
    adj = adjacency_matrix(g)
    assert adj.shape == (6, 6)
    assert adj.sum() == 18  # 9 edges, both triangles of the matrix
    assert (adj == adj.T).all()
    assert (np.diag(adj) == 0).all()


def test_adjacency_matrix_single_clause_triangle():
    g = build_graph(random_3sat(3, 1, 0))
    adj = adjacency_matrix(g)
    assert adj.shape == (3, 3)
    assert adj.sum() == 6


def test_adjacency_matrix_edgeless_direct_graph():
    g = graph_from_edges(4, [])
    assert (adjacency_matrix(g) == 0).all()


def test_kernel_decompose_paper_labels():
    hist = {
        "0-X": {1: 0, 2: 0, 3: 0},
        "1-X": {1: 1, 2: 0, 3: 0},
        "2-X": {1: 0, 2: 1, 3: 0},
        "3-X": {1: 0, 2: 0, 3: 1},
    }
    for label, cnf in paper_instances().items():
        profile = kernel_decompose(build_graph(cnf))
        assert profile.core_count == 2
        assert profile.inconn_histogram == hist[label], label


def test_kernel_decompose_histogram_matches_edge_count():
    for seed in range(30):
        cnf = random_3sat(5, 5, seed)
        g = build_graph(cnf)
        profile = kernel_decompose(g)
        total_conflicts = sum(k * v for k, v in profile.inconn_histogram.items())
        assert total_conflicts == g.num_edges - 3 * cnf.num_clauses


def test_hamiltonian_examples():
    pair = graph_from_edges(2, [(0, 1)])
    assert hamiltonian_energy(pair, [1, 1], PARAMS) == 0.0  # 2 - 2
    g = build_graph(paper_instances()["3-X"])
    assert hamiltonian_energy(g, -np.ones(6), PARAMS) == 0.0
    # Nodes (clause 0, pos 0) and (clause 1, pos 1) are non-adjacent.
    assert hamiltonian_energy(g, spins_with_up(6, [0, 4]), PARAMS) == -2.0


def test_hamiltonian_length_check():
    g = graph_from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        hamiltonian_energy(g, [1, 1], PARAMS)


@pytest.mark.parametrize("bad", [0, 2, 1.7])
@pytest.mark.parametrize(
    "call",
    [
        lambda g, s, cnf: hamiltonian_energy(g, s, PARAMS),
        lambda g, s, cnf: delta_oracle(g, s, PARAMS, 0),
        lambda g, s, cnf: decode_solution(g, s, cnf),
    ],
    ids=["hamiltonian_energy", "delta_oracle", "decode_solution"],
)
def test_spin_entries_must_be_plus_or_minus_one(three_x, call, bad):
    g = build_graph(three_x)
    spins = [bad, 1, -1, -1, -1, -1]
    with pytest.raises(ValueError, match="spin entries must be -1 or \\+1"):
        call(g, spins, three_x)


def test_delta_examples():
    pair = graph_from_edges(2, [(0, 1)])
    assert delta_oracle(pair, [1, 1], PARAMS, 1) == -1.0
    for node in (-1, 2):
        with pytest.raises(ValueError, match=f"node {node} out of range"):
            delta_oracle(pair, [1, 1], PARAMS, node)
    isolated = graph_from_edges(1, [])
    assert delta_oracle(isolated, [-1], PARAMS, 0) == -PARAMS.b_pen


def test_delta_matches_flip_reevaluation():
    rng = np.random.default_rng(42)
    for seed in range(200):
        cnf = random_3sat(3 + seed % 4, 1 + seed % 4, seed)
        g = build_graph(cnf)
        spins = 2 * rng.integers(0, 2, g.num_nodes) - 1
        j = int(rng.integers(g.num_nodes))
        flipped = spins.copy()
        flipped[j] = -flipped[j]
        brute = hamiltonian_energy(g, flipped, PARAMS) - hamiltonian_energy(g, spins, PARAMS)
        assert delta_oracle(g, spins, PARAMS, j) == brute


def test_ground_state_examples():
    g3 = build_graph(paper_instances()["3-X"])
    spins, energy = exhaustive_ground_state(g3, PARAMS)
    assert energy == -2.0
    triangle = build_graph(random_3sat(3, 1, 1))
    _, e_tri = exhaustive_ground_state(triangle, PARAMS)
    assert e_tri == -PARAMS.b_pen
    edgeless = graph_from_edges(5, [])
    spins, e_free = exhaustive_ground_state(edgeless, PARAMS)
    assert e_free == -5 * PARAMS.b_pen
    assert (spins == 1).all()


def test_ground_state_tie_break_lowest_code():
    # A triangle has three degenerate single-node minima; node 0 wins.
    triangle = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
    spins, _ = exhaustive_ground_state(triangle, PARAMS)
    assert list(spins) == [1, -1, -1]


def test_ground_state_guard():
    g = graph_from_edges(25, [])
    with pytest.raises(ValueError):
        exhaustive_ground_state(g, PARAMS)


def test_mis_sat_equivalence_small_sweep():
    b = PARAMS.b_pen
    for seed in range(60):
        cnf = random_3sat(3 + seed % 4, 1 + seed % 5, seed)
        g = build_graph(cnf)
        _, energy = exhaustive_ground_state(g, PARAMS)
        sat = brute_force_sat(cnf) is not None
        assert (energy == -b * cnf.num_clauses) == sat


def test_decode_solution(three_x):
    g = build_graph(three_x)
    assignment = decode_solution(g, spins_with_up(6, [0, 4]), three_x)
    assert assignment is not None
    assert assignment.values == (True, False, False)
    # Two adjacent selections: not an independent set.
    assert decode_solution(g, spins_with_up(6, [0, 1]), three_x) is None
    # Empty selection leaves clause 0 uncovered.
    assert decode_solution(g, -np.ones(6), three_x) is None


def test_decode_never_returns_failing_assignment():
    from ising_reram import verify_assignment

    rng = np.random.default_rng(7)
    for seed in range(100):
        cnf = random_3sat(4, 3, seed)
        g = build_graph(cnf)
        spins = 2 * rng.integers(0, 2, g.num_nodes) - 1
        assignment = decode_solution(g, spins, cnf)
        if assignment is not None:
            assert verify_assignment(cnf, assignment)


def _decode_by_walk(graph, spins, cnf):
    """decode_solution's rule as a walk over nodes and edges in Python.  A node
    past clause m - 1 counts for its own clause, which then needs one up node too."""
    selected = [i for i, s in enumerate(spins.tolist()) if s == 1]
    per_clause = [0] * max([cnf.num_clauses] + [i // 3 + 1 for i in selected])
    for i in selected:
        per_clause[i // 3] += 1
    if any(count != 1 for count in per_clause):
        return None
    chosen = set(selected)
    if any(u in chosen and v in chosen for u, v in edge_set(graph)):
        return None
    values = [False] * cnf.num_vars
    for i in selected:
        lit = int(graph.lits[i])
        values[abs(lit) - 1] = lit > 0
    assignment = Assignment(tuple(values))
    return assignment if verify_assignment(cnf, assignment) else None


def test_decode_matches_node_and_edge_walk():
    instances = [*paper_instances().values()] + [
        random_3sat(n, m, seed) for n, m, seed in ((5, 8, 1), (6, 12, 2), (8, 20, 3), (13, 40, 5))
    ]
    rng = np.random.default_rng(11)
    kinds = {"uniform": 0, "one per clause, conflict": 0, "satisfying": 0}
    for cnf in instances:
        g = build_graph(cnf)
        n, m = g.num_nodes, cnf.num_clauses
        picks = [rng.integers(0, 3, m) + 3 * np.arange(m) for _ in range(300)]
        model = brute_force_sat(cnf)
        if model is not None:  # one true literal per clause: an independent pick
            picks.append(np.array([
                3 * c + next(p for p, lit in enumerate(clause)
                             if model.values[abs(lit) - 1] == (lit > 0))
                for c, clause in enumerate(cnf.clauses)
            ]))
        states = [spins_with_up(n, up) for up in picks]
        states += [2 * rng.integers(0, 2, n) - 1 for _ in range(100)]
        for spins in states:
            expected = _decode_by_walk(g, spins, cnf)
            assert decode_solution(g, spins, cnf) == expected
            one_each = sorted(i // 3 for i in np.flatnonzero(spins == 1)) == [*range(m)]
            kinds["uniform"] += not one_each
            kinds["one per clause, conflict"] += one_each and expected is None
            kinds["satisfying"] += expected is not None
    assert sum(kinds.values()) >= 2000
    assert min(kinds.values()) > 20, kinds


def test_count_first_decode_matches_the_walk():
    rng = np.random.default_rng(29)
    for n, m, seed in ((5, 8, 1), (6, 12, 2), (13, 40, 5)):
        cnf = random_3sat(n, m, seed)
        g = build_graph(cnf)
        for _ in range(100):
            pick = rng.integers(0, 3, m) + 3 * np.arange(m)  # one up node per clause
            extra = rng.choice(np.setdiff1d(np.arange(3 * m), pick))
            drop = rng.integers(0, m)
            for up in (pick, np.delete(pick, drop), np.append(pick, extra),
                       *(rng.choice(3 * m, count, replace=False) for count in (m - 1, m, m + 1))):
                spins = spins_with_up(g.num_nodes, up)
                assert decode_solution(g, spins, cnf) == _decode_by_walk(g, spins, cnf)


def test_decode_of_a_graph_with_more_clauses_than_the_cnf_matches_the_walk():
    # build_graph gives 3m nodes; a 9-node graph against the first two of its
    # clauses has up nodes past clause 1, so the m-up-nodes test must not apply.
    three = random_3sat(4, 3, 8)
    g, cnf = build_graph(three), Cnf(4, three.lits[:2])
    decoded = Counter()
    for code in range(1 << 9):
        spins = np.array([1 if code >> i & 1 else -1 for i in range(9)])
        assignment = decode_solution(g, spins, cnf)
        assert assignment == _decode_by_walk(g, spins, cnf)
        decoded[int((spins == 1).sum())] += assignment is not None
    assert decoded[3] == 19 and decoded[2] == 7


def test_params_validation():
    with pytest.raises(ValueError):
        HamiltonianParams(a_pen=1.0, b_pen=1.0)
    with pytest.raises(ValueError):
        HamiltonianParams(a_pen=2.0, b_pen=0.0)


def test_kernel_decompose_rejects_non_reduction_graph():
    with pytest.raises(CnfError):
        kernel_decompose(graph_from_edges(4, [(0, 1)]))


def _clause_pair_edges(cnf):
    """Reference reduction edges: scan every clause pair for complementary literals."""
    edges = set()
    for c in range(cnf.num_clauses):
        base = 3 * c
        edges |= {(base, base + 1), (base, base + 2), (base + 1, base + 2)}
    for ci in range(cnf.num_clauses):
        for cj in range(ci + 1, cnf.num_clauses):
            for p, a in enumerate(cnf.clauses[ci]):
                for q, b in enumerate(cnf.clauses[cj]):
                    if a == -b:
                        edges.add((3 * ci + p, 3 * cj + q))
    return frozenset(edges)


@pytest.mark.parametrize("m", [5 + 75 * k // 19 for k in range(20)])
def test_build_graph_edges_match_clause_pair_scan(m):
    cnf = random_3sat(max(3, m // 4), m, seed=m)
    assert edge_set(build_graph(cnf)) == _clause_pair_edges(cnf)


def _reference_reduction(cnf):
    """The set-based reduction: node literals, and each occurrence's edge to
    every later occurrence of its negation plus the clause triangles."""
    literals = [lit for clause in cnf.lits.tolist() for lit in clause]
    edges = set()
    for base in range(0, len(literals), 3):
        edges.update({(base, base + 1), (base, base + 2), (base + 1, base + 2)})
    occurrences = {}
    for i, lit in enumerate(literals):
        occurrences.setdefault(lit, []).append(i)
    for lit, group in occurrences.items():
        for a in group:
            for b in occurrences.get(-lit, ()):
                if a < b:
                    edges.add((a, b))
    return literals, frozenset(edges)


def _one_variable_in_most_clauses(n=40, m=60, seed=3):
    rng = np.random.default_rng(seed)
    rows = []
    for c in range(m):
        others = rng.choice(np.arange(2, n + 1), size=3, replace=False)
        if c % 5:  # four clauses in five hold variable 1
            others[0] = 1
        rows.append(np.where(rng.random(3) < 0.5, -others, others))
    return Cnf(n, rows)


def _reduction_instances():
    yield from paper_instances().values()
    for seed in range(3):
        for m in range(1, 301):
            yield random_3sat(max(3, m // 4) + seed, m, seed)
    yield _one_variable_in_most_clauses()


def test_build_graph_matches_set_based_reduction():
    rng = np.random.default_rng(5)
    count = 0
    for cnf in _reduction_instances():
        g = build_graph(cnf)
        literals, edges = _reference_reduction(cnf)
        n = len(literals)
        assert g.lits.tolist() == literals
        assert list(zip(*map(np.ndarray.tolist, g.edge_ends))) == sorted(edges)
        assert g.num_nodes == n and g.num_edges == len(edges)
        neighbours = [[] for _ in range(n)]
        for u, v in edges:
            neighbours[u].append(v)
            neighbours[v].append(u)
        assert g.degrees.tolist() == [len(nb) for nb in neighbours] and not g.degrees.flags.writeable
        pair_counts = Counter((u // 3, v // 3) for u, v in edges if u // 3 != v // 3)
        histogram = {k: sum(c == k for c in pair_counts.values()) for k in (1, 2, 3)}
        profile = kernel_decompose(g)
        assert (profile.core_count, profile.inconn_histogram) == (n // 3, histogram)
        spins = 2 * rng.integers(0, 2, n) - 1
        x = ((1 + spins) // 2).tolist()
        edge_sum = sum(x[u] * x[v] for u, v in edges)
        expected = PARAMS.a_pen * edge_sum - PARAMS.b_pen * sum(x)
        assert hamiltonian_energy(g, spins, PARAMS) == expected
        j = int(rng.integers(n))
        occupied = sum(x[i] for i in neighbours[j])
        expected = -spins[j] * (PARAMS.a_pen * occupied - PARAMS.b_pen)
        assert delta_oracle(g, spins, PARAMS, j) == expected
        count += 1
    assert count == 4 + 900 + 1


@pytest.mark.parametrize(
    "edges",
    [[(0, 0)], [(1, 0)], [(0, 4)], [(-1, 2)],
     [(0, 2), (0, 1)], [(0, 1), (0, 1)], [(1, 2), (0, 3)]],
)
def test_graph_rejects_bad_or_unsorted_edges(edges):
    with pytest.raises(CnfError, match="bad edge"):
        IsingGraph([1, 2, 3, 4], ([u for u, _ in edges], [v for _, v in edges]))


def test_graph_rejects_bad_edges_among_many_and_names_the_first():
    g = build_graph(random_3sat(20, 30, 1))  # 90 nodes: numpy tests the edges first
    n, (u, v) = g.num_nodes, g.edge_ends
    last = int(u[-1])
    for i, edge in [(0, (-1, 1)), (40, (3, 3)), (40, (3, n)), (40, (u[39], v[39])),
                    (40, (u[41], v[41])), (-1, (last, n)), (-1, (last + 1, last + 1))]:
        bad_u, bad_v = u.copy(), v.copy()
        bad_u[i], bad_v[i] = edge
        with pytest.raises(CnfError, match=rf"bad edge \({edge[0]}, {edge[1]}\) for {n} nodes"):
            IsingGraph(g.lits, (bad_u, bad_v))
    assert IsingGraph(g.lits, g.edge_ends).num_edges == g.num_edges


@pytest.mark.parametrize(
    "lits, ends, name, dtype",
    [
        ([1.5, 2, 3], ([0.7], [1.9]), "literals", "float64"),  # once read as (1, 2, 3), edge (0, 1)
        (["1", "2", "3"], (["0"], ["2"]), "literals", "<U1"),  # once parsed into a graph
        ([1, 2, 3], ([0.7], [1.9]), "edge ends", "float64"),
        ([1, 2, 3], ([0], ["2"]), "edge ends", "<U1"),
        ([1, 2, 3], ([0], np.array([2], dtype=np.uint64)), "edge ends", "uint64"),
        ([True, False, True], ([0], [1]), "literals", "bool"),
    ],
)
def test_graph_takes_integers_within_int64_only(lits, ends, name, dtype):
    with pytest.raises(CnfError, match=f"^{name} must be integers within int64, got dtype {dtype}$"):
        IsingGraph(lits, ends)


def test_graph_takes_any_integer_dtype_and_empty_edge_ends():
    g = IsingGraph(np.array([1, -2, 3], dtype=np.int8), ([], []))
    assert g.lits.dtype == np.int64 and g.lits.tolist() == [1, -2, 3]
    assert all(ends.dtype == np.int64 for ends in g.edge_ends) and g.num_edges == 0
    g = IsingGraph([1, 2, 3], (np.array([0], dtype=np.uint8), np.array([2], dtype=np.int32)))
    assert [ends.tolist() for ends in g.edge_ends] == [[0], [2]]


@pytest.mark.parametrize("ends", [([0, 1], [1]), ([], [1]), ([0, 1, 0], [1, 2])])
def test_graph_rejects_edge_ends_of_unequal_length(ends):
    with pytest.raises(ValueError):
        IsingGraph([1, 2, 3], ends)


def test_graph_arrays_are_read_only():
    g = build_graph(paper_instances()["3-X"])
    for arr in (g.lits, *g.edge_ends):
        with pytest.raises(ValueError):
            arr[0] = 5


def test_kernel_decompose_rejects_four_edges_between_two_clauses():
    triangles = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    g = graph_from_edges(6, triangles + [(0, 3), (0, 4), (1, 3), (2, 5)])
    with pytest.raises(CnfError, match=r"clause pair \(0, 1\) has 4 conflict edges"):
        kernel_decompose(g)
