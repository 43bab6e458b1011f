import numpy as np
import pytest

from landaulab import (Grid, GridFunction, inner, l2_norm, norm_triple,
                       rescale, save_grid_function)
from landaulab.grid import GridError, SublatticeFunction
from helpers import from_callable, orthonormal_rows


def test_grid_invariants():
    g = Grid(extent_L=6.0, n_per_side=129)
    assert g.spacing == pytest.approx(12.0 / 128.0)
    assert g.axis()[64] == pytest.approx(0.0)  # odd n puts the origin on a node
    with pytest.raises(GridError):
        Grid(extent_L=6.0, n_per_side=128)
    with pytest.raises(GridError):
        Grid(extent_L=6.0, n_per_side=7)
    with pytest.raises(GridError):
        Grid(extent_L=-1.0, n_per_side=9)


def test_envelope_check(model):
    assert Grid(extent_L=5.0, n_per_side=65).check_envelope(model)
    assert not Grid(extent_L=4.0, n_per_side=65).check_envelope(model)


def test_gridfunction_length_guard():
    g = Grid(extent_L=1.0, n_per_side=9)
    with pytest.raises(GridError):
        GridFunction(np.zeros(10), g)


def test_rescale_identity(rng):
    g = Grid(extent_L=3.0, n_per_side=17)
    u = GridFunction(rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size), g)
    same = rescale(u, 1.0)
    assert same.grid == u.grid
    np.testing.assert_array_equal(same.values, u.values)


@pytest.mark.parametrize("h", [0.25, 1.0 / 16.0])
def test_rescale_norm_identities(h, rng):
    g = Grid(extent_L=3.0, n_per_side=33)
    u = GridFunction(rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size), g)
    uh = rescale(u, h)
    a, b = norm_triple(u), norm_triple(uh)
    assert b.l2 / a.l2 == pytest.approx(h**0.5, rel=1e-13)
    assert b.l6 / a.l6 == pytest.approx(h ** (1.0 / 6.0), rel=1e-13)
    assert b.linf == a.linf
    # h and 1/h undo each other up to round-off in the extent
    back = rescale(uh, 1.0 / h)
    assert back.grid.extent_L == pytest.approx(g.extent_L, rel=1e-15)


def test_rescale_rejects_bad_h(rng):
    g = Grid(extent_L=3.0, n_per_side=17)
    u = GridFunction(np.ones(g.size), g)
    with pytest.raises(GridError):
        rescale(u, 0.0)
    with pytest.raises(GridError):
        rescale(u, -1.0)


def _random_state(g, rng):
    v = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    v[::5] = 0.0
    v[1::7] = v[1::7].real
    v[2] = -0.0
    return GridFunction(v, g)


def _sublattice_state(g, rng):
    n = g.n_per_side
    shape = (len(range(1, n, 2)), len(range(0, n, 2)))
    return SublatticeFunction(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                              (1, 0), g)


def _special_state(g, rng):
    # signed zero, the smallest subnormal, a three-digit exponent, inf and nan
    special = np.array([-0.0, 5e-324, 1e100, np.inf, -np.inf, np.nan])
    v = np.empty(g.size, dtype=complex)
    v.real, v.imag = np.resize(special, g.size), np.resize(special[::-1], g.size)
    return GridFunction(v, g)


@pytest.mark.parametrize("extent_L, n, make", [
    (2.0, 11, _random_state),
    (6.0, 9, _random_state),
    (6.0, 11, _random_state),
    (6.0, 129, _random_state),   # the spectrum default grid
    (6.0, 11, _sublattice_state),
    (6.0, 9, _special_state),
], ids=["L2-n11", "L6-n9", "L6-n11", "L6-n129", "sublattice", "special-values"])
def test_csv_bytes_match_savetxt(tmp_path, rng, extent_L, n, make):
    g = Grid(extent_L=extent_L, n_per_side=n)
    u = make(g, rng)
    path = str(tmp_path / "state.csv")
    save_grid_function(u, path)
    ref = str(tmp_path / "ref.csv")
    X1, X2 = g.mesh()
    v = u.values
    np.savetxt(ref, np.column_stack([X1.ravel(), X2.ravel(), v.real, v.imag]),
               delimiter=",", header="x1,x2,re_u,im_u", comments="")
    assert open(path, "rb").read() == open(ref, "rb").read()


def test_inner_product_grid_guard(rng):
    a = GridFunction(np.ones(Grid(2.0, 9).size), Grid(2.0, 9))
    b = GridFunction(np.ones(Grid(2.0, 11).size), Grid(2.0, 11))
    with pytest.raises(GridError):
        inner(a, b)


def test_gram_cholesky_orthonormalizes(rng):
    g = Grid(extent_L=2.0, n_per_side=11)
    vecs = [rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
            for _ in range(5)]
    ortho = orthonormal_rows(vecs, g.weight)
    for i, a in enumerate(ortho):
        for j, b in enumerate(ortho):
            ip = np.vdot(a, b) * g.weight
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-12


def test_from_callable_layout():
    g = Grid(extent_L=1.0, n_per_side=9)
    u = from_callable(lambda x1, x2: x1 + 10 * x2, g)
    arr = u.as_2d()
    x = g.axis()
    assert arr[0, 3] == pytest.approx(x[0] + 10 * x[3])
    assert arr[5, 0] == pytest.approx(x[5] + 10 * x[0])
    assert l2_norm(u) > 0
