"""Batch simulator for a singular phase-field system on a periodic strip,
with dynamic boundary conditions on the two boundary circles, conservative
implicit time stepping, and a steady-state solver for long-time checks."""

from .errors import (AdmissibilityError, ConfigError, DomainError, FatalSolverError, IoError,
                     SolverError)
from .functionals import (DiagnosticsRow, State, dissipation_increment, dm_mean,
                          dm_std, energy, energy_identity_residual, entropy, mass_mu)
from .grid_ops import (Grid, MassVectors, StiffnessOp, assemble_masses,
                       assemble_stiffness, build_grid, solve_spd)
from .io_cli import (Config, ValidationReport, build_initial_state, build_model,
                     build_source, build_stepper_config, cli_main, load_config,
                     parse_config, serialize_config, validate_config,
                     write_diagnostics, write_pgm, write_snapshot)
from .potentials import (CoercivityReport, CompatReport, LatentHeat, Potential,
                         check_coercivity, check_compatibility, evaluate,
                         latent_eval, latent_range, separating_slope_margin)
from .stationary import (HypothesisReport, StationaryResult, hypothesis_report, mass_gap,
                         solve_chi_given_u, solve_stationary, stationary_phase_residual)
from .timestepper import (HeatSource, Model, Stepper, StepperConfig,
                          integrate_homogeneous, make_source, measure_norm,
                          preset_field, run, step_chi, step_theta)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "ConfigError", "DomainError",
    "FatalSolverError", "IoError", "SolverError",
    "DiagnosticsRow", "State", "dissipation_increment", "dm_mean", "dm_std",
    "energy", "energy_identity_residual", "entropy", "mass_mu",
    "Grid", "MassVectors", "StiffnessOp", "assemble_masses",
    "assemble_stiffness", "build_grid", "solve_spd",
    "Config", "ValidationReport", "build_initial_state", "build_model",
    "build_source", "build_stepper_config", "cli_main", "load_config",
    "parse_config", "serialize_config", "validate_config",
    "write_diagnostics", "write_pgm", "write_snapshot",
    "CoercivityReport", "CompatReport", "LatentHeat", "Potential",
    "check_coercivity", "check_compatibility", "evaluate", "latent_eval",
    "latent_range", "separating_slope_margin",
    "HypothesisReport", "StationaryResult", "hypothesis_report", "mass_gap",
    "solve_chi_given_u", "solve_stationary", "stationary_phase_residual",
    "HeatSource", "Model", "Stepper", "StepperConfig", "integrate_homogeneous",
    "make_source", "measure_norm", "preset_field", "run", "step_chi", "step_theta",
]
