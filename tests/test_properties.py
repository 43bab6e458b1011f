"""Property tests over random potentials, grids and semiclassical parameters."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from landaulab import (Grid, assemble_sparse, build_operator,
                       hermiticity_defect, make_potential)
from landaulab.eigensolve import sublattice_blocks

KINDS = ("model_quadratic", "quadratic_plus_trig", "quadratic_plus_gaussian_bump")


def _cross_sublattice_entries(mat, n):
    """Stored entries linking nodes of different (i mod 2, j mod 2) parity."""
    coo = mat.tocoo()
    (i, j), (a, b) = np.divmod(coo.row, n), np.divmod(coo.col, n)
    return int(np.count_nonzero(((i - a) % 2) | ((j - b) % 2)))


@settings(max_examples=25, deadline=None, database=None)
@given(kind=st.sampled_from(KINDS),
       eps=st.floats(0.0, 0.3),
       n=st.integers(4, 20).map(lambda m: 2 * m + 1),
       extent=st.floats(2.0, 8.0),
       label=st.sampled_from(("H", "P")),
       h=st.floats(0.05, 1.0))
def test_averaged_assembly_splits_over_sublattices(kind, eps, n, extent, label, h):
    potential = make_potential(kind, [] if kind == "model_quadratic" else [eps])
    grid = Grid(extent_L=extent, n_per_side=n)
    kwargs = {"h": h} if label == "P" else {}
    averaged = build_operator(label, potential, grid, **kwargs)
    pointwise = build_operator(label, potential, grid, averaged_coefficients=False, **kwargs)
    mat = assemble_sparse(averaged)
    assert _cross_sublattice_entries(mat, n) == 0
    assert len(sublattice_blocks(mat, n)) == 4
    mat_pw = assemble_sparse(pointwise)
    assert _cross_sublattice_entries(mat_pw, n) > 0
    assert len(sublattice_blocks(mat_pw, n)) == 1
    for op in (averaged, pointwise):
        assert hermiticity_defect(op, trials=3) <= 1e-12
