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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .cnf import Assignment, Cnf, CnfError, int64_array, verify_assignment

MAX_EXHAUSTIVE_NODES = 24


class IsingGraph:
    """Node literals and an undirected edge list.  Nodes are clause-major: node i
    holds the signed literal ``lits[i]``, literal i % 3 of clause i // 3.
    ``edge_ends`` is the edge list as two read-only int64 arrays (u, v), u < v,
    sorted by (u, v)."""

    def __init__(self, lits, edge_ends) -> None:
        self.lits = int64_array(lits, "literals")
        u, v = (int64_array(ends, "edge ends") for ends in edge_ends)
        n = len(self.lits)
        if len(u) != len(v):
            raise ValueError(f"edge ends of unequal length {len(u)} and {len(v)}")
        # From 32 edges a numpy test accepts good edges faster; the Python pass names a bad one.
        if len(u) < 32 or not (u.min() >= 0 and v.max() < n and (u < v).all()
                               and ((keys := u * n + v)[1:] > keys[:-1]).all()):
            ends = list(zip(u.tolist(), v.tolist()))
            bad = [(a, b) <= p or not 0 <= a < b < n for p, (a, b) in zip([(-1, -1)] + ends, ends)]
            if any(bad):
                raise CnfError(f"bad edge {ends[bad.index(True)]} for {n} nodes, or unsorted")
        for arr in (self.lits, u, v):
            arr.flags.writeable = False
        self.edge_ends = (u, v)

    @property
    def num_nodes(self) -> int:
        return len(self.lits)

    @property
    def num_edges(self) -> int:
        return len(self.edge_ends[0])

    @cached_property
    def degrees(self) -> np.ndarray:
        """Each node's edge count, as a read-only int64 array."""
        degrees = np.bincount(np.concatenate(self.edge_ends), minlength=self.num_nodes)
        degrees.flags.writeable = False
        return degrees


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
    """Build the reduction graph: 3m nodes, clause triangles, conflict edges.

    Every positive occurrence is paired with each negative occurrence of its
    variable, which lies in another clause.  Edge (u, v) is the key u * n + v,
    so the sorted keys give the edge list in (u, v) order.
    """
    lits = cnf.lits.ravel()
    n = len(lits)
    if n < 24:  # timed: Python lists win through 6 clauses, numpy from 7 to 10 by density
        occurrences: dict[int, list[int]] = {}
        for i, lit in enumerate(lits.tolist()):
            occurrences.setdefault(lit, []).append(i)
        keys = [b * (n + 1) + d for b in range(0, n, 3) for d in (1, 2, n + 2)]
        keys += [min(a, b) * n + max(a, b) for lit, group in occurrences.items() if lit > 0
                 for a in group for b in occurrences.get(-lit, ())]
    else:
        tri = np.arange(0, n * (n + 1), 3 * (n + 1))  # the key of (3c, 3c), per clause c
        neg = (lits < 0).nonzero()[0]
        neg = neg[(-lits[neg]).argsort(kind="stable")]  # grouped by variable
        counts = np.bincount(-lits[neg], minlength=cnf.num_vars + 1)
        pos = (lits > 0).nonzero()[0]
        k = counts[lits[pos]]
        a = pos.repeat(k)
        # Place j of a's repeat run takes its variable's j-th negative occurrence.
        b = neg[np.arange(len(a)) + (counts.cumsum()[lits[pos]] - k.cumsum()).repeat(k)]
        keys = np.concatenate((tri + 1, tri + 2, tri + n + 2, np.minimum(a, b) * (n - 1) + a + b))
    keys.sort()
    return IsingGraph(lits, np.divmod(keys, n))


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
    cu, cv = (ends // 3 for ends in graph.edge_ends)
    between = cu != cv
    pairs, counts = np.unique(cu[between] * m + cv[between], return_counts=True)
    if (counts > 3).any():
        i = int(np.argmax(counts > 3))
        pair = divmod(int(pairs[i]), m)
        raise CnfError(f"clause pair {pair} has {counts[i]} conflict edges; input is corrupted")
    histogram = np.bincount(counts, minlength=4).tolist()
    return KernelProfile(m, {count: histogram[count] for count in (1, 2, 3)})


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
    u, v = graph.edge_ends
    edge_sum = int(x[u] @ x[v])
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
    u, v = graph.edge_ends
    occupied = int((s[v[u == node]] > 0).sum() + (s[u[v == node]] > 0).sum())
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
    verification, so a false SAT can never escape this function.  When every
    node lies in a clause (n <= 3m, as from ``build_graph``), one node per
    clause means m up nodes, so any other count returns None at once; with
    nodes past clause m - 1, their own bins could also count 1.
    """
    up = _check_spins(graph, spins) == 1
    if graph.num_nodes <= 3 * cnf.num_clauses and np.count_nonzero(up) != cnf.num_clauses:
        return None
    chosen = np.flatnonzero(up)
    per_clause = np.bincount(chosen // 3, minlength=cnf.num_clauses)
    if (per_clause != 1).any():
        return None
    u, v = graph.edge_ends
    if (up[u] & up[v]).any():
        return None
    values = [False] * cnf.num_vars
    for lit in graph.lits[chosen].tolist():
        values[abs(lit) - 1] = lit > 0
    assignment = Assignment(tuple(values))
    return assignment if verify_assignment(cnf, assignment) else None
