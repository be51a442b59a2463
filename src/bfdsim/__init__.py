"""Pseudo-spectral toolkit for abcd-type full-dispersion internal wave
systems on periodic domains: coefficient-case classification, dispersion
symbols, symmetrizer energies, Hamiltonian diagnostics, integrating-factor
time stepping, and reproducible parameter studies.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    GridMismatchError,
    IllPosedParametersError,
    ParameterDomainError,
    SnapshotFormatError,
    UnsupportedCaseError,
)
from .params import (
    CASE_WEIGHTS,
    CaseClass,
    ModelParams,
    classify_case,
    params_from_alphas,
    symmetrizer_variant,
)
from .spectral import (
    GridSpec,
    SpectralField,
    dealias,
    divergence,
    gradient,
)
from .symbols import SymbolTable, sigma_of, symbol_table
from .system import (
    FieldState,
    FrozenSymbolMatrices,
    frozen_symbol_matrices,
    hermitian_defect,
    noncavitation_margin,
    rescale_to_unit,
    rhs_hat,
)
from .energy import (
    EnergyReport,
    calE_s,
    energy_Es,
    energy_report,
    equivalence_ratio,
    hamiltonian,
    variational_check,
    variational_gradients,
    x_norm,
    x_norm_state,
)
from .evolution import (
    BlowUpSignal,
    DiagState,
    EvolveSummary,
    SchemeConfig,
    default_dt,
    diagonalize,
    evolve,
    step_exponential,
    undiagonalize,
)
from .snapshots import load_state, read_snapshot, write_snapshot
from .initial_data import make_initial_state, make_zeta, right_mover_velocity
from .studies import (
    ConservationResult,
    EquivalenceRecord,
    LifespanRecord,
    SmallnessReport,
    conservation_study,
    equivalence_spread_monotone,
    equivalence_study,
    lifespan_study,
    smallness_check,
)
from .config import RunConfig, StudyConfig, config_help, parse_config

__all__ = [
    "__version__",
    # errors
    "ConfigError", "GridMismatchError", "IllPosedParametersError",
    "ParameterDomainError", "SnapshotFormatError", "UnsupportedCaseError",
    # parameters and cases
    "CASE_WEIGHTS", "CaseClass", "ModelParams", "classify_case",
    "params_from_alphas", "symmetrizer_variant",
    # grids and fields
    "GridSpec", "SpectralField", "dealias", "divergence", "gradient",
    # symbols
    "SymbolTable", "sigma_of", "symbol_table",
    # system
    "FieldState", "FrozenSymbolMatrices", "frozen_symbol_matrices",
    "hermitian_defect", "noncavitation_margin", "rescale_to_unit", "rhs_hat",
    # energies
    "EnergyReport", "calE_s", "energy_Es", "energy_report",
    "equivalence_ratio", "hamiltonian", "variational_check",
    "variational_gradients", "x_norm", "x_norm_state",
    # evolution
    "BlowUpSignal", "DiagState", "EvolveSummary", "SchemeConfig", "default_dt",
    "diagonalize", "evolve", "step_exponential", "undiagonalize",
    # I/O and data
    "load_state", "read_snapshot", "write_snapshot",
    "make_initial_state", "make_zeta", "right_mover_velocity",
    # studies
    "ConservationResult", "EquivalenceRecord", "LifespanRecord",
    "SmallnessReport", "StudyConfig", "conservation_study",
    "equivalence_spread_monotone", "equivalence_study", "lifespan_study",
    "smallness_check",
    # configuration
    "RunConfig", "config_help", "parse_config",
]
