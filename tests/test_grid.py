import functools

import numpy as np
import pytest

from landaulab import (Grid, GridFunction, inner, l2_norm, norm_triple,
                       rescale, save_grid_function)
from landaulab.grid import GridError, SublatticeFunction, l2_sums
from helpers import from_callable, orthonormal_rows, savetxt_reference


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


def _sublattice_state(g, rng, parity=(1, 0)):
    n = g.n_per_side
    shape = (len(range(parity[0], n, 2)), len(range(parity[1], n, 2)))
    return SublatticeFunction(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                              parity, g)


def _one_class_is(fill, dense=True, parity=(0, 1)):
    """A state whose parity class `parity` holds only `fill`: the others are
    random (dense) or +0.0."""
    def make(g, rng):
        u = _random_state(g, rng) if dense else GridFunction(np.zeros(g.size), g)
        u.as_2d()[parity[0]::2, parity[1]::2] = fill
        return u
    return make


def _special_state(g, rng):
    # signed zero, the smallest subnormal, a three-digit exponent, inf and nan
    special = np.array([-0.0, 5e-324, 1e100, np.inf, -np.inf, np.nan])
    v = np.empty(g.size, dtype=complex)
    v.real, v.imag = np.resize(special, g.size), np.resize(special[::-1], g.size)
    return GridFunction(v, g)


@pytest.mark.parametrize("extent_L, n, make", [
    pytest.param(2.0, 11, _random_state, id="L2-n11"),
    pytest.param(6.0, 9, _random_state, id="L6-n9"),
    pytest.param(6.0, 11, _random_state, id="L6-n11"),
    pytest.param(6.0, 129, _random_state, id="L6-n129"),   # the spectrum default grid
    pytest.param(6.0, 11, _sublattice_state, id="sublattice"),
    pytest.param(6.0, 9, _special_state, id="special-values"),
    *[pytest.param(6.0, n, functools.partial(_sublattice_state, parity=(p, q)),
                   id=f"sublattice-{p}{q}-n{n}")
      for n in (11, 129) for p in (0, 1) for q in (0, 1) if (n, p, q) != (11, 1, 0)],
    pytest.param(6.0, 11, _one_class_is(0.0), id="zero-class"),
    pytest.param(6.0, 11, _one_class_is(complex(-0.0, -0.0)), id="negative-zero-class"),
    pytest.param(6.0, 11, _one_class_is(complex(0.0, -0.0)), id="negative-zero-imag-class"),
    pytest.param(6.0, 11, _one_class_is(complex(np.nan, np.nan), dense=False, parity=(1, 1)),
                 id="nan-class"),
])
def test_csv_bytes_match_savetxt(tmp_path, rng, extent_L, n, make):
    g = Grid(extent_L=extent_L, n_per_side=n)
    u = make(g, rng)
    path = str(tmp_path / "state.csv")
    save_grid_function(u, path)
    ref = str(tmp_path / "ref.csv")
    savetxt_reference(u, ref)
    assert open(path, "rb").read() == open(ref, "rb").read()


def test_inner_product_grid_guard(rng):
    a = GridFunction(np.ones(Grid(2.0, 9).size), Grid(2.0, 9))
    b = GridFunction(np.ones(Grid(2.0, 11).size), Grid(2.0, 11))
    with pytest.raises(GridError):
        inner(a, b)


def test_l2_sums_and_inner_match_blas_to_round_off(rng):
    # the package's one node sum against BLAS dot products: one vector, a
    # row stack and both parts of the inner product
    g = Grid(extent_L=2.0, n_per_side=129)
    F, G = (rng.standard_normal((3, g.size)) + 1j * rng.standard_normal((3, g.size))
            for _ in range(2))
    np.testing.assert_allclose(l2_sums(F), [np.vdot(f, f).real for f in F], rtol=1e-13)
    np.testing.assert_allclose(l2_sums(F, G), [np.vdot(f, h).real for f, h in zip(F, G)],
                               rtol=1e-13)
    np.testing.assert_allclose([l2_sums(f) for f in F], l2_sums(F), rtol=1e-13)
    f, h = GridFunction(F[0], g), GridFunction(G[0], g)
    ref = np.vdot(F[0], G[0]) * g.weight
    assert abs(inner(f, h) - ref) <= 1e-13 * abs(ref)
    assert l2_norm(f) == pytest.approx(np.linalg.norm(F[0]) * g.spacing, rel=1e-13)


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
