"""Circuit-level real- and imaginary-time evolution of 1D spin chains.

The package turns a plain-text description of a time-dependent
Heisenberg chain into quantum circuits, optimizes them, executes them
on a built-in statevector backend and post-processes the results into
observable series, CSV tables and SVG plots.
"""

# the one source of the version: pyproject.toml reads it from here
__version__ = "0.1.0"

from .backend import (
    Statevector,
    estimate_with_sigma,
    expectation,
    product_state,
    run_statevector,
    sample_counts,
)
from .config import (
    CoefficientSchedule,
    ConstantSchedule,
    GaussianPulseSchedule,
    LinearRampSchedule,
    RandomUniformSchedule,
    SimulationConfig,
    build_hamiltonian,
    parse_input,
    serialize,
)
from .hamiltonian import (
    HeisenbergHamiltonian,
    PauliTerm,
    dense_matrix,
    snapshot,
)
from .ir import (
    Gate,
    Program,
    export_text,
    import_text,
    lower_to_native,
    phase_aligned_distance,
    unitary_of,
)
from .observables import (
    ResultSeries,
    energy_observable,
    excitation_displacement_observable,
    site_magnetization_observable,
    write_csv,
    write_plot,
)
from .optimizer import optimize
from .oracle import evolve_exact, evolve_imaginary_exact, ground_state
from .qite import QiteParams, QiteStepReport, fit_step_unitary, run_qite
from .trotter import TrotterParams, build_evolution_program, evolve_series, trotter_step

__all__ = [
    "CoefficientSchedule",
    "ConstantSchedule",
    "Gate",
    "GaussianPulseSchedule",
    "HeisenbergHamiltonian",
    "LinearRampSchedule",
    "PauliTerm",
    "Program",
    "QiteParams",
    "QiteStepReport",
    "RandomUniformSchedule",
    "ResultSeries",
    "SimulationConfig",
    "Statevector",
    "TrotterParams",
    "build_evolution_program",
    "build_hamiltonian",
    "dense_matrix",
    "energy_observable",
    "estimate_with_sigma",
    "evolve_exact",
    "evolve_imaginary_exact",
    "evolve_series",
    "excitation_displacement_observable",
    "expectation",
    "export_text",
    "fit_step_unitary",
    "ground_state",
    "import_text",
    "lower_to_native",
    "optimize",
    "parse_input",
    "phase_aligned_distance",
    "product_state",
    "run_qite",
    "run_statevector",
    "sample_counts",
    "serialize",
    "site_magnetization_observable",
    "snapshot",
    "trotter_step",
    "unitary_of",
    "write_csv",
    "write_plot",
]
