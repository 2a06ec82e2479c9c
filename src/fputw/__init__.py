"""Traveling-wave solvers, continuation and lattice simulation for the
diatomic FPUT chain with quadratic spring force F(r) = r + r^2."""

from .solution import Extension, Mesh, PiecewiseSolution
from .mfde import (BoundaryCondition, BoundaryProbe, EquationBlock,
                   FactorCache, FunctionBlockSpec, MfdeProblem, NewtonConfig,
                   SlotSpec, assemble_residual, solve_newton)
from .dispersion import (CriticalMode, DispersionPoint, b_pm, b_plus_prime,
                         critical_frequency, jost_frequency, lambda_pm,
                         sound_speed)
from .monatomic import (AmplitudeCoefficient, JostSolution, MonatomicConfig,
                        MonatomicWave, amplitude_coefficient, compute_psi,
                        kappa_scan, solve_jost, solve_joint, solve_profile)
from .diatomic import (DiatomicConfig, DiatomicWave, PeriodicRipple,
                       classify_ripple, reconstruct_displacement_profiles,
                       refresh_ripple_guess, seed_from_monatomic,
                       seed_from_small_mass, solve_periodic, solve_wave,
                       symmetry_transform, wave_residual_norm)
from .continuation import (Branch, BranchPoint, bisect_alpha_zero,
                           classify_branch_segments, continue_branch,
                           find_solitary, freeze_solitary)
from .lattice import (DiagnosticSeries, LatticeState, SimConfig, core_window,
                      energy, recenter_and_window, rhs, rk4_step,
                      run_simulation, sample_initial_condition, window_factor)

__version__ = "0.1.0"
