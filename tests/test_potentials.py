import numpy as np
import pytest

from landaulab import Grid, make_potential
from landaulab.potentials import Potential, PotentialError, ball_sup
from helpers import check_derivative_bounds


def test_model_values(model):
    assert model.value(1.0, 1.0) == pytest.approx(2.0)
    assert model.laplacian(0.0, 0.0) == pytest.approx(4.0)
    g1, g2 = model.grad(1.5, -2.0)
    assert (g1, g2) == (3.0, -4.0)


def test_trig_eps_zero_degenerates_to_model(model, rng):
    p = make_potential("quadratic_plus_trig", [0.0])
    x1 = rng.uniform(-5, 5, 100)
    x2 = rng.uniform(-5, 5, 100)
    np.testing.assert_array_equal(p.value(x1, x2), model.value(x1, x2))
    np.testing.assert_array_equal(p.laplacian(x1, x2), model.laplacian(x1, x2))


def test_bump_eps_zero_degenerates_to_model(model, rng):
    p = make_potential("quadratic_plus_gaussian_bump", [0.0])
    x1 = rng.uniform(-5, 5, 100)
    x2 = rng.uniform(-5, 5, 100)
    np.testing.assert_allclose(p.value(x1, x2), model.value(x1, x2), rtol=0, atol=0)


def test_trig_laplacian_at_origin(trig01):
    # lap phi = 4 - 2 eps sin(x1) cos(x2) equals 4 at the origin
    assert trig01.laplacian(0.0, 0.0) == pytest.approx(4.0)


def test_errors():
    with pytest.raises(PotentialError):
        make_potential("nope")
    # the model takes no amplitude, so a stray one cannot pass unnoticed
    with pytest.raises(PotentialError, match="model_quadratic takes 0 parameter"):
        make_potential("model_quadratic", [0.3])
    with pytest.raises(PotentialError, match="quadratic_plus_trig takes 1 parameter"):
        make_potential("quadratic_plus_trig", [])
    for eps in (-0.5, float("nan"), float("inf")):
        with pytest.raises(PotentialError, match="perturbation amplitude"):
            make_potential("quadratic_plus_trig", [eps])
    with pytest.raises(PotentialError):
        make_potential("custom")


def test_custom_roundtrip():
    # a phi outside make_potential's kinds is a Potential built directly
    p = Potential(
        kind="custom",
        value_fn=lambda x1, x2: x1**2 + x2**2,
        grad_fn=lambda x1, x2: (2 * x1, 2 * x2),
        laplacian_fn=lambda x1, x2: 4.0 + 0 * x1,
    )
    assert p.value(1.0, 1.0) == pytest.approx(2.0)


@pytest.mark.parametrize("kind,params", [
    ("model_quadratic", ()),
    ("quadratic_plus_trig", (0.1,)),
    ("quadratic_plus_gaussian_bump", (0.1,)),
])
def test_gradient_consistency(kind, params, rng):
    p = make_potential(kind, params)
    x1 = rng.uniform(-4, 4, 100)
    x2 = rng.uniform(-4, 4, 100)
    d = 1e-4
    fd1 = (p.value(x1 + d, x2) - p.value(x1 - d, x2)) / (2 * d)
    fd2 = (p.value(x1, x2 + d) - p.value(x1, x2 - d)) / (2 * d)
    g1, g2 = p.grad(x1, x2)
    for fd, g in ((fd1, g1), (fd2, g2)):
        err = np.abs(fd - g)
        assert np.all(err <= 1e-6 * np.maximum(np.abs(g), 1.0) + 1e-8)


@pytest.mark.parametrize("kind,params", [
    ("model_quadratic", ()),
    ("quadratic_plus_trig", (0.1,)),
    ("quadratic_plus_gaussian_bump", (0.1,)),
])
def test_laplacian_consistency(kind, params, rng):
    p = make_potential(kind, params)
    x1 = rng.uniform(-4, 4, 100)
    x2 = rng.uniform(-4, 4, 100)
    d = 1e-4
    fd = (p.value(x1 + d, x2) + p.value(x1 - d, x2)
          + p.value(x1, x2 + d) + p.value(x1, x2 - d)
          - 4 * p.value(x1, x2)) / d**2
    lap = p.laplacian(x1, x2)
    assert np.all(np.abs(fd - lap) <= 1e-5 * np.maximum(np.abs(lap), 1.0) + 1e-6)


def test_derivative_bounds_model(model, grid_small):
    reports = check_derivative_bounds(model, grid_small, max_order=4)
    by_order = {r.order: r for r in reports}
    assert by_order[2].observed_sup == pytest.approx(2.0, rel=1e-6)
    assert by_order[3].observed_sup < 1e-6  # exact zero up to round-off
    assert all(r.passed for r in reports)


def test_derivative_bounds_trig(trig01, grid_small):
    reports = check_derivative_bounds(trig01, grid_small, max_order=3)
    r3 = [r for r in reports if r.order == 3][0]
    # sup of eps * third derivatives of sin*cos is eps = 0.1
    assert r3.observed_sup == pytest.approx(0.1, abs=5e-3)
    assert r3.observed_sup <= 0.11
    assert all(r.passed for r in reports)


def test_derivative_bounds_bump(bump01, grid_small):
    reports = check_derivative_bounds(bump01, grid_small, max_order=4)
    assert all(r.passed for r in reports)


def test_derivative_bounds_grid_guard(model):
    grid = Grid(extent_L=1.0, n_per_side=9)
    with pytest.raises(PotentialError):
        check_derivative_bounds(model, grid, max_order=5)


def test_ball_sup_includes_the_boundary():
    # the polar mesh holds the angle 0 at the full radius
    assert ball_sup(lambda x1, x2: x1, 2.5, 101) == 2.5


def test_sampled_sups_model(model):
    assert model.laplacian_sup_norm() == 4.0
    assert model.grad_sup_norm(3.0) == pytest.approx(6.0, rel=1e-15)


def test_sampled_laplacian_sup_trig(trig01):
    # 4 - 2 eps sin(x1) cos(x2): sup 4 + 2 eps, read from below by sampling
    lap = trig01.laplacian_sup_norm()
    assert lap <= 4.2 and lap == pytest.approx(4.2, abs=1e-5)
