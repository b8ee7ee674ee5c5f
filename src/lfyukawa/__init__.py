"""Light-front Yukawa model simulator on a qubit register.

Builds the truncated Fock space of the (1+1)-dimensional Yukawa model in
discretized light-cone quantization, maps states and second-quantized
operators onto qubits as Pauli-string sums, and computes exact and Trotterized
time evolution with conservation-law diagnostics.
"""

__version__ = "0.1.0"

from .fock import (
    FockState,
    ModeConfig,
    QubitLayout,
    charges,
    enumerate_sector,
    k_of,
    q_of,
    sector_dim,
    sector_indices,
)
from .pauli import (
    PauliString,
    PauliSum,
    adjoint,
    boson_ladder,
    canonicalize,
    fermion_ladder,
    product,
    subspace_matrix,
)
from .hamiltonian import (
    PARTS,
    ModelParams,
    bracket,
    build_h,
    build_part,
    self_inertia,
)
from .evolve import (
    PlanCost,
    TrotterPlan,
    exact_evolve,
    make_plan,
    plan_cost,
    sample_counts,
    trotter_evolve,
)
from .diagnostics import (
    EvolutionRecord,
    leakage,
    records_to_csv,
    survival,
    transition_prob,
)
from .scenarios import (
    PRESETS,
    ConfigError,
    PhysicsError,
    ScenarioConfig,
    SchemaError,
    parse_config,
    run_scenario,
)

__all__ = [
    "__version__",
    "FockState",
    "ModeConfig",
    "QubitLayout",
    "charges",
    "enumerate_sector",
    "k_of",
    "q_of",
    "sector_dim",
    "sector_indices",
    "PauliString",
    "PauliSum",
    "adjoint",
    "boson_ladder",
    "canonicalize",
    "fermion_ladder",
    "product",
    "subspace_matrix",
    "PARTS",
    "ModelParams",
    "bracket",
    "build_h",
    "build_part",
    "self_inertia",
    "PlanCost",
    "TrotterPlan",
    "exact_evolve",
    "make_plan",
    "plan_cost",
    "sample_counts",
    "trotter_evolve",
    "EvolutionRecord",
    "leakage",
    "records_to_csv",
    "survival",
    "transition_prob",
    "PRESETS",
    "ConfigError",
    "PhysicsError",
    "ScenarioConfig",
    "SchemaError",
    "parse_config",
    "run_scenario",
]
