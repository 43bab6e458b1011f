"""landaulab: numerical laboratory for generalized Landau magnetic Laplacians.

Discretizes H = A^2 + B^2 - (lap phi)/4 on truncated square grids, computes
eigenpairs, and measures the quantities behind the eigenvalue-independent
L^inf bound and the lambda^(-1/3)-improved L^6 bound for eigenfunctions, plus
the supporting energy, cutoff, gauge and rescaling identities.
"""

__version__ = "0.1.0"

from .config import ConfigError, RunConfig, load_config, parse_config
from .cutoffs import bump_profile, make_cutoff, smooth_step
from .eigensolve import (EigenCluster, SolverError, cluster, eigenpairs_near,
                         lowest_eigenpairs, principal_angles)
from .grid import (Grid, GridFunction, inner, l2_norm, rescale,
                   save_grid_function)
from .norms import NormTriple, extremal_l6, extremal_linf, norm_triple
from .operators import (OperatorHandle, assemble_sparse, build_operator,
                        gauge_multiplier)
from .oracle import analytic_null_norm, null_state
from .potentials import Potential, make_potential
from .verify import (BoundReport, LemmaRow, LevelRow, check_cutoff_lemma,
                     check_energy_lemma, check_gauge_lemma,
                     ladder_level_clusters, sweep_bounds)

__all__ = [
    "BoundReport", "ConfigError", "EigenCluster", "Grid", "GridFunction",
    "LemmaRow", "LevelRow", "NormTriple", "OperatorHandle", "Potential",
    "RunConfig", "SolverError", "analytic_null_norm", "assemble_sparse",
    "build_operator", "bump_profile", "check_cutoff_lemma",
    "check_energy_lemma", "check_gauge_lemma", "cluster", "eigenpairs_near",
    "extremal_l6", "extremal_linf", "gauge_multiplier", "inner",
    "l2_norm", "ladder_level_clusters", "load_config",
    "lowest_eigenpairs", "make_cutoff", "make_potential", "norm_triple",
    "null_state", "parse_config",
    "principal_angles", "rescale", "save_grid_function", "smooth_step",
    "sweep_bounds",
]
