"""Vectorial Sturm-Liouville eigenvalue problems on [0, pi].

Solves -phi'' + P(x) phi = lambda phi with symmetric matrix potentials and
self-adjoint matrix boundary pairs, constructs provably isospectral problems
through finite-rank Gelfand-Levitan transformation kernels, and verifies
isospectrality and all structural identities numerically.
"""

from . import errors
from .model import (BoundaryPair, ConstantDiagonalPotential, Grid,
                    GridPotential, MatrixPotential, Problem, ValidationReport,
                    builtin_problem, load_potential_csv, load_problem,
                    problem_from_json_obj, problem_to_json_obj,
                    validate_problem)
from .ode import integrate_ivp
from .quadrature import integral, running_integral
from .spectrum import (Eigenpair, SpectrumReport, characteristic_matrix,
                       eigenbasis, fd_oracle_eigenvalues, scan_spectrum)
from .transform import (KernelField, Perturbation, PerturbationEntry,
                        boundary_matrices, build_perturbation, potential_q,
                        solve_kernel, transform_eigenfunction,
                        transform_problem)
from .verify import (IsospectralReport, ResidualReport, check_isospectral,
                     commutator_diagnostic, compare_spectra,
                     pipeline_residuals, residual_endpoint, residual_goursat,
                     residual_representation, residual_transformed_eigen,
                     residual_wave_equation)

__version__ = "0.1.0"

__all__ = [
    "BoundaryPair", "ConstantDiagonalPotential", "Eigenpair", "Grid",
    "GridPotential", "IsospectralReport", "KernelField", "MatrixPotential",
    "Perturbation", "PerturbationEntry", "Problem", "ResidualReport",
    "SpectrumReport", "ValidationReport", "boundary_matrices", "build_perturbation",
    "builtin_problem", "characteristic_matrix", "check_isospectral",
    "commutator_diagnostic", "compare_spectra", "eigenbasis", "errors",
    "fd_oracle_eigenvalues", "integral", "integrate_ivp", "load_potential_csv",
    "load_problem", "pipeline_residuals", "potential_q", "problem_from_json_obj",
    "problem_to_json_obj", "residual_endpoint", "residual_goursat",
    "residual_representation", "residual_transformed_eigen",
    "residual_wave_equation", "running_integral", "scan_spectrum",
    "solve_kernel", "transform_eigenfunction", "transform_problem",
    "validate_problem",
]
