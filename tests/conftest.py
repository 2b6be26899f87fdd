"""Shared helpers for the test suite."""

from itertools import product

import pytest

from ising_reram import Cnf, IsingGraph, ideal_config


# Device settings that each take their own branch of the per-pulse kernel.
DEVICE_VARIANTS = pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"p_cell_success": 0.5},
        {"shortcut_writes": False},
        {"energy_noise_sigma": 0.0},
        {"energy_noise_sigma": 0.7},
        {"g_state0": 15, "g_state1": 80, "tolerance": 7.5},
    ],
    ids=["default", "p0.5", "no-shortcut", "no-noise", "noise-0.7", "window-15-80"],
)


@pytest.fixture
def three_x() -> Cnf:
    return Cnf(3, [(1, 2, 3), (-1, -2, -3)])


@pytest.fixture
def zero_x() -> Cnf:
    return Cnf(6, [(1, 2, 3), (4, 5, -6)])


def unsat_eight_clause() -> Cnf:
    """All eight polarity combinations over {1,2,3}: minimally unsatisfiable."""
    clauses = [
        [v if sign else -v for v, sign in zip((1, 2, 3), signs)]
        for signs in product([True, False], repeat=3)
    ]
    return Cnf(3, clauses)


def exact_device(rows: int = 32, cols: int = 16, **overrides):
    """Noise-free device sized for exact-arithmetic assertions."""
    return ideal_config(rows=rows, cols=cols, **overrides)


def graph_from_edges(num_nodes: int, edges) -> IsingGraph:
    """Ad-hoc graph with synthetic literals, for direct energy experiments.

    Not a Cnf reduction; kernel decomposition and decoding are undefined on it.
    """
    normalized = sorted({(min(u, v), max(u, v)) for u, v in edges})
    ends = ([u for u, _ in normalized], [v for _, v in normalized])
    return IsingGraph(range(1, num_nodes + 1), ends)
