"""3-SAT solving on an emulated 1-bit differential ReRAM crossbar Ising machine."""

from .cnf import (
    Assignment,
    Clause,
    Cnf,
    CnfError,
    DimacsError,
    brute_force_sat,
    density,
    emit_dimacs,
    parse_dimacs,
    random_3sat,
    verify_assignment,
)
from .ising import (
    HamiltonianParams,
    IsingGraph,
    KernelProfile,
    adjacency_matrix,
    build_graph,
    decode_solution,
    delta_oracle,
    exhaustive_ground_state,
    hamiltonian_energy,
    kernel_decompose,
)
from .device import (
    CellState,
    Crossbar,
    DeviceConfig,
    DeviceConfigError,
    EnergyLedger,
    WriteOutcome,
    ideal_config,
    new_crossbar,
)
from .solver import (
    IterationTrace,
    MappingError,
    RunReport,
    SolverConfig,
    apply_flips,
    compute_delta,
    load_config_document,
    map_problem,
    q_unit,
    report_to_json,
    run,
    select_flips,
)
from .bench import (
    AccuracyRow,
    BenchSuite,
    KernelEnergyRow,
    kernel_energy_report,
    paper_instances,
    paper_suite,
    run_suite,
    sublinearity_check,
)

__version__ = "0.1.0"
