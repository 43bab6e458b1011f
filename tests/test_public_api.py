"""The package's public names, pinned: a name that joins or leaves the API
shows up here."""

import landaulab

PUBLIC = [
    "BoundReport", "ConfigError", "EigenCluster", "Grid",
    "GridFunction", "LemmaRow", "LevelRow", "NormTriple",
    "OperatorHandle", "Potential", "RunConfig", "SolverError",
    "analytic_null_norm", "assemble_sparse", "build_operator",
    "bump_profile", "check_cutoff_lemma", "check_energy_lemma",
    "check_gauge_lemma", "cluster", "eigenpairs_near", "extremal_l6",
    "extremal_linf", "gauge_multiplier", "inner",
    "l2_norm", "ladder_level_clusters", "load_config",
    "lowest_eigenpairs", "make_cutoff",
    "make_potential", "norm_triple", "null_state",
    "parse_config", "principal_angles", "rescale",
    "save_grid_function", "smooth_step", "sweep_bounds",
]


def test_all_is_pinned():
    assert landaulab.__all__ == PUBLIC
    assert all(hasattr(landaulab, name) for name in PUBLIC)


def test_test_only_helpers_left_the_api():
    # moved to tests/helpers.py
    for name in ("from_callable", "custom_operator", "hermiticity_defect",
                 "check_derivative_bounds"):
        assert not hasattr(landaulab, name)


def test_wrappers_left_the_api():
    # make_cutoff and null_state return GridFunctions, and CSV files are
    # read back with np.loadtxt
    for name in ("Cutoff", "LadderState", "load_grid_function"):
        assert not hasattr(landaulab, name)
