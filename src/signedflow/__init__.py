"""Signed interacting particles with annihilation and their continuum limits."""

from .errors import (ConvergenceError, DataError, DegenerateGradientError,
                     InvariantViolationError, NonIntegrableError,
                     SignedFlowError, SingularConfigurationError,
                     StiffnessError, UnsupportedOrderError)
from .potentials import (AUDIT_PROFILES, ComplianceItem, ComplianceReport,
                         ExternalField, Potential, ScalingRegime,
                         audit_assumptions, custom_potential, l1_norm,
                         lattice_series, log_potential, make_field,
                         make_potential, mobility, power_law_force_potential,
                         rescaled_derivative, riesz_potential, wall_potential,
                         zero_field)
from .staircase import (Staircase, cumulative_charge, staircase_identity,
                        sup_distance)
from .dynamics import (CollisionEvent, Diagnostics, EventLog,
                       IntegratorOptions, ParticleState, SimulationResult,
                       annihilate, detect_collision, energy, simulate,
                       stability_experiment, velocities)
from .hamiltonians import (ClampedProbe, HamiltonianParams, TestFunction,
                           compensated_nonlocal, kernel_second_moment,
                           limiting_rhs, quantized_nonlocal,
                           quartic_probe_sweep, quartic_probe_value,
                           rhs_convergence_table)
from .pde import (GridFunction, MobilityTable, density_from_primitive,
                  solve_local, solve_nonlocal)
from .harness import (ExperimentConfig, ExponentFit, SignedDensity,
                      WellEnvelope, fit_collision_exponent,
                      fit_exponent_from_series, quantile_particles,
                      quartic_envelope, run_convergence)

__version__ = "0.1.0"
