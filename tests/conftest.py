"""Shared helpers for the test suite."""

from itertools import product

import pytest

from ising_reram import Clause, Cnf, IsingGraph, Literal, ideal_config


@pytest.fixture
def three_x() -> Cnf:
    return Cnf(3, (Clause.of(1, 2, 3), Clause.of(-1, -2, -3)))


@pytest.fixture
def zero_x() -> Cnf:
    return Cnf(6, (Clause.of(1, 2, 3), Clause.of(4, 5, -6)))


def unsat_eight_clause() -> Cnf:
    """All eight polarity combinations over {1,2,3}: minimally unsatisfiable."""
    clauses = tuple(
        Clause.of(*[v if sign else -v for v, sign in zip((1, 2, 3), signs)])
        for signs in product([True, False], repeat=3)
    )
    return Cnf(3, clauses)


def exact_device(rows: int = 32, cols: int = 16, **overrides):
    """Noise-free device sized for exact-arithmetic assertions."""
    return ideal_config(rows=rows, cols=cols, **overrides)


def graph_from_edges(num_nodes: int, edges) -> IsingGraph:
    """Ad-hoc graph with synthetic literals, for direct energy experiments.

    Not a Cnf reduction; kernel decomposition and decoding are undefined on it.
    """
    literals = tuple(Literal(i + 1) for i in range(num_nodes))
    normalized = frozenset((min(u, v), max(u, v)) for u, v in edges)
    return IsingGraph(literals, normalized)
