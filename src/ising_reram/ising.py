"""Reduction of 3-SAT to an independent-set Ising graph, with exact oracles.

Every literal occurrence becomes one node, the three nodes of a clause are
mutually connected, and occurrences of the same variable with opposite
polarity in different clauses get a conflict edge.  An independent set that
picks exactly one node per clause is a consistent choice of one true literal
per clause, so the instance is satisfiable iff such a set of size m exists.

The energy function is the standard penalty form over binary occupations
x = (1 + s) / 2:

    H = a_pen * sum_{(u,v) in E} x_u x_v  -  b_pen * sum_v x_v

with a_pen > b_pen so that edge violations always cost more than node
rewards; the ground state energy is then -b_pen * m exactly when the instance
is satisfiable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .cnf import Assignment, Cnf, CnfError, Literal, verify_assignment

MAX_EXHAUSTIVE_NODES = 24


@dataclass(frozen=True)
class IsingGraph:
    """The literal of every node plus an undirected edge set (u < v pairs).

    Nodes are numbered clause-major: node i is literal i % 3 of clause i // 3.
    """

    literals: tuple[Literal, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = len(self.literals)
        for u, v in self.edges:
            if not (0 <= u < v < n):
                raise CnfError(f"bad edge ({u}, {v}) for {n} nodes")

    @property
    def num_nodes(self) -> int:
        return len(self.literals)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbor_lists(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(nb)) for nb in adj)

    @cached_property
    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints (u, v) of every edge, in the edge set's order, as two
        read-only index arrays."""
        flat = np.fromiter(
            chain.from_iterable(self.edges), dtype=np.int64, count=2 * self.num_edges
        )
        flat.flags.writeable = False
        return flat[0::2], flat[1::2]


@dataclass
class KernelProfile:
    """Count of clause triangles plus a histogram of inter-clause couplings."""

    core_count: int
    inconn_histogram: dict[int, int] = field(default_factory=lambda: {1: 0, 2: 0, 3: 0})


@dataclass(frozen=True)
class HamiltonianParams:
    """Penalty weights; a_pen > b_pen > 0 keeps violations above rewards."""

    a_pen: float = 2.0
    b_pen: float = 1.0

    def __post_init__(self) -> None:
        if not (self.a_pen > self.b_pen > 0):
            raise ValueError(
                f"require a_pen > b_pen > 0, got a_pen={self.a_pen}, b_pen={self.b_pen}"
            )


def build_graph(cnf: Cnf) -> IsingGraph:
    """Build the reduction graph: 3m nodes, clause triangles, conflict edges."""
    literals = tuple(chain.from_iterable(clause.literals for clause in cnf.clauses))
    edges: set[tuple[int, int]] = set()
    for base in range(0, len(literals), 3):
        edges.update({(base, base + 1), (base, base + 2), (base + 1, base + 2)})
    # Conflict edges: each occurrence of a literal with each later occurrence
    # of its negation (a clause never holds a variable twice, so a later node
    # is in a later clause).
    occurrences: dict[int, list[int]] = {}
    for i, lit in enumerate(literals):
        occurrences.setdefault(lit.to_int(), []).append(i)
    for lit, group in occurrences.items():
        for a in group:
            for b in occurrences.get(-lit, ()):
                if a < b:
                    edges.add((a, b))
    return IsingGraph(literals, frozenset(edges))


def adjacency_matrix(graph: IsingGraph) -> np.ndarray:
    """Symmetric 0/1 matrix with zero diagonal in clause-major node order."""
    n = graph.num_nodes
    adj = np.zeros((n, n), dtype=np.int8)
    u, v = graph.edge_ends
    adj[u, v] = adj[v, u] = 1
    return adj


def kernel_decompose(graph: IsingGraph) -> KernelProfile:
    """Split a reduction graph into clause-triangle cores and inconn couplings.

    Requires a graph produced by :func:`build_graph`.  A clause pair with more
    than 3 conflict edges is impossible for proper 3-SAT and raises.
    """
    if graph.num_nodes % 3 != 0:
        raise CnfError("kernel decomposition needs a clause-major reduction graph")
    m = graph.num_nodes // 3
    pair_counts = Counter((u // 3, v // 3) for u, v in graph.edges if u // 3 != v // 3)
    profile = KernelProfile(core_count=m)
    for pair, count in sorted(pair_counts.items()):
        if count > 3:
            raise CnfError(
                f"clause pair {pair} has {count} conflict edges; input is corrupted"
            )
        profile.inconn_histogram[count] += 1
    return profile


def _check_spins(graph: IsingGraph, spins: Sequence[int]) -> np.ndarray:
    arr = np.asarray(spins)
    if arr.shape != (graph.num_nodes,):
        raise ValueError(
            f"spin vector has shape {arr.shape}, expected ({graph.num_nodes},)"
        )
    if not ((arr == 1) | (arr == -1)).all():
        raise ValueError("spin entries must be -1 or +1")
    return arr.astype(np.int64)


def hamiltonian_energy(
    graph: IsingGraph, spins: Sequence[int], params: HamiltonianParams
) -> float:
    """Penalty energy of a +/-1 spin state (integer-exact accumulation)."""
    s = _check_spins(graph, spins)
    x = (1 + s) // 2
    edge_sum = sum(int(x[u]) * int(x[v]) for u, v in graph.edges)
    return float(params.a_pen * edge_sum - params.b_pen * int(x.sum()))


def delta_oracle(
    graph: IsingGraph, spins: Sequence[int], params: HamiltonianParams, node: int
) -> float:
    """Exact energy change from flipping one node's spin.

    Closed form: delta_j = -s_j * (a_pen * sum_{i in N(j)} x_i - b_pen).
    """
    s = _check_spins(graph, spins)
    if not (0 <= node < graph.num_nodes):
        raise ValueError(f"node {node} out of range")
    occupied = sum((1 + int(s[i])) // 2 for i in graph.neighbor_lists[node])
    return float(-int(s[node]) * (params.a_pen * occupied - params.b_pen))


def exhaustive_ground_state(
    graph: IsingGraph, params: HamiltonianParams
) -> tuple[np.ndarray, float]:
    """Minimum-energy spin state by enumeration (ties: lowest binary encoding).

    Spin states are encoded as integers with node 0 at the least significant
    bit and bit 1 meaning spin +1.  Guarded to 24 nodes; work is chunked so the
    intermediate arrays stay small.
    """
    n = graph.num_nodes
    if n > MAX_EXHAUSTIVE_NODES:
        raise ValueError(
            f"exhaustive search is limited to {MAX_EXHAUSTIVE_NODES} nodes, got {n}"
        )
    edge_u, edge_v = graph.edge_ends
    shifts = np.arange(n, dtype=np.int64)
    best_energy = np.inf
    best_code = 0
    total = 1 << n
    chunk = 1 << 18
    for start in range(0, total, chunk):
        ks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        x = ((ks[:, None] >> shifts) & 1).astype(np.int64)
        edge_sum = (x[:, edge_u] * x[:, edge_v]).sum(axis=1)
        energy = params.a_pen * edge_sum - params.b_pen * x.sum(axis=1)
        i = int(np.argmin(energy))
        if energy[i] < best_energy:
            best_energy = float(energy[i])
            best_code = int(ks[i])
    spins = (2 * ((best_code >> shifts) & 1) - 1).astype(np.int8)
    return spins, best_energy


def decode_solution(
    graph: IsingGraph, spins: Sequence[int], cnf: Cnf
) -> Optional[Assignment]:
    """Turn a spin state into a verified assignment, or None.

    The spin-up set must be independent and contain exactly one node per
    clause; each selected node's literal is made true and unconstrained
    variables default to false.  The result is returned only if it passes
    verification, so a false SAT can never escape this function.
    """
    up = _check_spins(graph, spins) == 1
    chosen = np.flatnonzero(up)
    per_clause = np.bincount(chosen // 3, minlength=cnf.num_clauses)
    if (per_clause != 1).any():
        return None
    u, v = graph.edge_ends
    if (up[u] & up[v]).any():
        return None
    values = [False] * cnf.num_vars
    for i in chosen.tolist():
        lit = graph.literals[i]
        values[lit.variable - 1] = not lit.negated
    assignment = Assignment(tuple(values))
    return assignment if verify_assignment(cnf, assignment) else None
