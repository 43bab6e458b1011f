import dataclasses
import inspect

import numpy as np
import pytest
import scipy.sparse as sp

from landaulab import (Grid, GridFunction, assemble_sparse, build_operator,
                       gauge_multiplier, inner, l2_norm)
import landaulab.operators as operators
from landaulab.operators import OperatorError
from helpers import custom_operator, from_callable, hermiticity_defect
from stencils import coeff_mul, d1_stencil, reference_apply

HERMITIAN_LABELS = ["A", "B", "H", "P", "A_tilde_q", "B_tilde_q", "P_tilde_q"]


def _kwargs(label):
    kwargs = {}
    if label in ("P", "A_tilde_q", "B_tilde_q", "P_tilde_q"):
        kwargs["h"] = 0.5
    if label.endswith("tilde_q"):
        kwargs["q"] = (0.7, -0.3)
    return kwargs


def _build(label, potential, grid):
    return build_operator(label, potential, grid, **_kwargs(label))


def test_A_on_constant_is_minus_x2(model):
    g = Grid(extent_L=3.0, n_per_side=33)
    A = build_operator("A", model, g)
    one = GridFunction(np.ones(g.size), g)
    out = A.apply(one).as_2d()
    X1, X2 = g.mesh()
    interior = (slice(1, -1), slice(1, -1))
    np.testing.assert_allclose(out[interior], -X2[interior], atol=1e-13)


def test_H_annihilates_gaussian_at_second_order(model):
    # residual of the sampled ground state decays like spacing^2
    res = {}
    for n in (65, 129, 257):
        g = Grid(extent_L=6.0, n_per_side=n)
        H = build_operator("H", model, g)
        u = from_callable(lambda x1, x2: np.exp(-(x1**2 + x2**2)), g)
        res[n] = l2_norm(H.apply(u)) / l2_norm(u)
    assert 3.6 <= res[65] / res[129] <= 4.4
    assert 3.6 <= res[129] / res[257] <= 4.4


def test_ladder_relation_dense(model):
    # H D* u0 = 2 (D* u0) + O(spacing^2), checked through the sparse path
    errs = {}
    for n in (33, 65, 129):
        g = Grid(extent_L=5.0, n_per_side=n)
        Hs = assemble_sparse(build_operator("H", model, g))
        Ds = assemble_sparse(build_operator("D_star", model, g))
        u0 = from_callable(lambda x1, x2: np.exp(-(x1**2 + x2**2)), g).values
        v = Ds @ u0
        errs[n] = np.linalg.norm(Hs @ v - 2.0 * v) / np.linalg.norm(v)
    assert errs[129] < 0.05
    assert 3.0 <= errs[33] / errs[65] <= 5.0
    assert 3.0 <= errs[65] / errs[129] <= 5.0


def test_assemble_identity_custom():
    g = Grid(extent_L=1.0, n_per_side=9)
    op = custom_operator(g, sp.identity(g.size, format="csr"), True)
    mat = assemble_sparse(op)
    np.testing.assert_array_equal(mat.toarray(), np.eye(g.size))
    assert mat is not op.matrix   # the caller owns the assembled copy


def test_assemble_A_is_hermitian_matrix(model):
    g = Grid(extent_L=1.0, n_per_side=9)
    mat = assemble_sparse(build_operator("A", model, g)).toarray()
    np.testing.assert_allclose(mat, mat.conj().T, atol=1e-15)


@pytest.mark.parametrize("label", HERMITIAN_LABELS + ["D", "D_star"])
def test_sparse_matches_matrix_free(label, model, trig01, rng):
    # each handle's matrix against the independent stencil reference of the
    # tests, and its assembled matrix against its apply
    g = Grid(extent_L=5.0, n_per_side=33)
    for potential in (model, trig01):
        op = build_operator(label, potential, g, **_kwargs(label))
        ref = reference_apply(label, potential, g, **_kwargs(label))
        mat = assemble_sparse(op)
        for _ in range(20):
            u = rng.standard_normal((33, 33)) + 1j * rng.standard_normal((33, 33))
            a = op.apply_array(u)
            assert np.linalg.norm(a - ref(u)) <= 1e-13 * np.linalg.norm(a)
            b = mat @ u.reshape(-1)
            assert np.linalg.norm(a.reshape(-1) - b) <= 1e-13 * np.linalg.norm(a)


def _count_compositions(monkeypatch):
    """Start from an empty shared record; the returned list gets the label of
    each matrix composed."""
    composed = []
    compose = operators._compose
    monkeypatch.setattr(operators, "_compose",
                        lambda label, *a: composed.append(label) or compose(label, *a))
    monkeypatch.setattr(operators, "_unscaled", None)
    return composed


@pytest.mark.parametrize("label", HERMITIAN_LABELS + ["D", "D_star"])
def test_build_operator_does_not_assemble(label, model, monkeypatch):
    # build_operator composes the handle's matrix once; apply and assembly
    # compose nothing further
    composed = _count_compositions(monkeypatch)
    g = Grid(extent_L=5.0, n_per_side=33)
    op = build_operator(label, model, g, **_kwargs(label))
    assert composed == [label]
    u = np.ones((33, 33), dtype=complex)
    op.apply_array(u)
    op.apply_array(u)
    assemble_sparse(op)
    assert composed == [label]


@pytest.mark.parametrize("labels", [("A", "B", "H", "D", "D_star"),
                                    ("A_tilde_q", "B_tilde_q", "P_tilde_q")])
def test_shared_factors_match_own_factors(labels, trig01, rng, monkeypatch):
    # each unscaled label over one potential and grid is composed once and
    # then shared, each tilde label on every build; either way each label
    # gives bit for bit what it gives built alone
    composed = _count_compositions(monkeypatch)
    g = Grid(extent_L=5.0, n_per_side=33)
    u = rng.standard_normal((33, 33)) + 1j * rng.standard_normal((33, 33))
    for _ in range(2):   # the second pass builds every label again
        outs = {label: _build(label, trig01, g).apply_array(u) for label in labels}
    shared = list(labels) if labels[0] == "A" else 2 * list(labels)
    assert composed == shared
    for label, out in outs.items():
        monkeypatch.setattr(operators, "_unscaled", None)
        assert np.array_equal(out, _build(label, trig01, g).apply_array(u))
    assert composed == shared + list(labels)


def test_shared_factors_reject_other_inputs(model, trig01, monkeypatch):
    # another potential, even an equal but distinct object, another grid and
    # every semiclassical label compose their own matrix
    g = Grid(extent_L=5.0, n_per_side=33)
    twin = dataclasses.replace(model)
    assert twin == model and twin is not model
    for label, potential, grid, kwargs in (
            ("A", trig01, g, {}), ("A", twin, g, {}),
            ("H", model, Grid(extent_L=5.0, n_per_side=35), {}),
            ("P", model, g, {"h": 0.5}), ("P_tilde_q", model, g, _kwargs("P_tilde_q"))):
        composed = _count_compositions(monkeypatch)
        first = build_operator(label, model, g, **kwargs)
        assert build_operator(label, potential, grid, **kwargs).matrix is not first.matrix
        assert composed == [label, label]
    # an unscaled label over the same inputs shares its matrix, a
    # semiclassical label never does, not even over its own inputs
    H = build_operator("H", model, g)
    assert build_operator("H", model, g).matrix is H.matrix
    P = build_operator("P", model, g, h=0.5)
    assert build_operator("P", model, g, h=0.5).matrix is not P.matrix
    assert composed == ["P_tilde_q"] * 2 + ["H", "P", "P"]


@pytest.mark.parametrize("label", ["A_tilde_q", "B_tilde_q", "P_tilde_q"])
def test_tilde_build_evaluates_one_full_mesh_gradient(label, trig01):
    # the tilde factors take their gradients from the translated mesh only;
    # the unshifted fields give them just the Laplacian
    g = Grid(extent_L=5.0, n_per_side=33)
    calls = []

    def grad_fn(x1, x2):
        if np.size(x1) == g.size:
            calls.append(1)
        return trig01.grad_fn(x1, x2)

    _build(label, dataclasses.replace(trig01, grad_fn=grad_fn), g)
    assert len(calls) == 1


def test_build_operator_has_one_discretization():
    # the pointwise stencil lives in demos/06_discretization_pathology.py only
    assert "averaged_coefficients" not in inspect.signature(build_operator).parameters


def test_assembly_guard(model):
    g = Grid(extent_L=5.0, n_per_side=33)
    op = build_operator("H", model, g)
    op.grid = Grid(extent_L=5.0, n_per_side=4097)
    with pytest.raises(OperatorError):
        assemble_sparse(op)


@pytest.mark.parametrize("label", HERMITIAN_LABELS)
def test_hermiticity(label, model, trig01):
    g = Grid(extent_L=5.0, n_per_side=33)
    for potential in (model, trig01):
        op = _build(label, potential, g)
        assert op.is_hermitian
        assert hermiticity_defect(op, trials=50) < 1e-12


def test_factorization_identities(model, rng):
    g = Grid(extent_L=5.0, n_per_side=65)
    A = build_operator("A", model, g)
    B = build_operator("B", model, g)
    H = build_operator("H", model, g)
    D = build_operator("D", model, g)
    Ds = build_operator("D_star", model, g)
    X1, X2 = g.mesh()
    lap4 = model.laplacian(X1, X2) / 4.0

    # the composed matrix identity is exact, entry for entry
    ref = (A.matrix @ A.matrix + B.matrix @ B.matrix - sp.diags(lap4.ravel())).tocsr()
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(H.matrix, attr), getattr(ref, attr))

    # D and D_star are exact adjoints of each other
    f = GridFunction((rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)), g)
    h = GridFunction((rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)), g)
    lhs_ip = inner(f, D.apply(h))
    rhs_ip = inner(Ds.apply(f), h)
    assert abs(lhs_ip - rhs_ip) <= 1e-12 * l2_norm(f) * l2_norm(h)


def test_factorization_h_equals_dstar_d_on_smooth():
    # H - D*D involves the smeared discrete commutator: second-order small on
    # smooth fields, with the usual factor-4 decay under refinement
    model = None
    from landaulab import make_potential
    model = make_potential("model_quadratic")
    errs = {}
    for n in (65, 129):
        g = Grid(extent_L=6.0, n_per_side=n)
        H = build_operator("H", model, g)
        D = build_operator("D", model, g)
        Ds = build_operator("D_star", model, g)
        u = from_callable(lambda x1, x2: (x1 + 1j * x2) * np.exp(-(x1**2 + x2**2)), g)
        diff = H.apply(u).values - Ds.apply(D.apply(u)).values
        errs[n] = np.linalg.norm(diff) / np.linalg.norm(u.values)
    assert errs[129] < errs[65] / 3.0


def test_positive_semidefinite_on_smooth_fields(model, rng):
    # Rayleigh quotients of random smooth fields supported away from the
    # boundary stay above -1e-6
    g = Grid(extent_L=6.0, n_per_side=65)
    H = build_operator("H", model, g)
    X1, X2 = g.mesh()
    worst = np.inf
    for _ in range(100):
        f = np.zeros((65, 65), dtype=complex)
        for _ in range(6):
            c = rng.uniform(-2.5, 2.5, size=2)
            width = rng.uniform(0.5, 1.5)
            amp = rng.standard_normal() + 1j * rng.standard_normal()
            f += amp * np.exp(-(((X1 - c[0]) ** 2 + (X2 - c[1]) ** 2) / width**2))
        ray = np.real(np.vdot(f, H.apply_array(f)) / np.vdot(f, f))
        worst = min(worst, ray)
    assert worst >= -1e-6


def test_build_operator_argument_guards(model):
    g = Grid(extent_L=2.0, n_per_side=9)
    with pytest.raises(OperatorError):
        build_operator("P", model, g)  # missing h
    with pytest.raises(OperatorError):
        build_operator("A_tilde_q", model, g, h=0.5)  # missing q
    with pytest.raises(OperatorError):
        build_operator("P", model, g, h=-0.5)
    with pytest.raises(OperatorError):
        build_operator("nonsense", model, g)


def test_gauge_multiplier_trivial_at_origin(model):
    g = Grid(extent_L=2.0, n_per_side=17)
    T = gauge_multiplier(model, g, h=1.0, q=(0.0, 0.0))
    u = np.ones((17, 17), dtype=complex)
    np.testing.assert_array_equal(T * u, u)


def test_gauge_multiplier_unitary(model, rng):
    g = Grid(extent_L=2.0, n_per_side=17)
    T = gauge_multiplier(model, g, h=0.5, q=(1.0, -0.5))
    f = rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17))
    tf = T * f
    np.testing.assert_allclose(np.abs(tf), np.abs(f), atol=1e-15)
    g2 = rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17))
    assert np.vdot(tf, T * g2) == pytest.approx(np.vdot(f, g2), rel=1e-13)
    back = np.conj(T) * tf
    np.testing.assert_allclose(back, f, atol=1e-14)


def _conjugation_discrepancy(model, n, h, q):
    g = Grid(extent_L=np.sqrt(h) * 4.0, n_per_side=n)
    At = build_operator("A_tilde_q", model, g, h=h, q=q)
    T = gauge_multiplier(model, g, h=h, q=q)
    X1, X2 = g.mesh()
    test = np.exp(-(X1**2 + X2**2))
    lhs = np.conj(T) * At.apply_array(T * test)
    # rhs operator: (h/2) D1 - (h/2)(d2 phi_h)(x + q), realized identically
    s = np.sqrt(h)
    g2s = model.grad((X1 + q[0]) / s, (X2 + q[1]) / s)[1] / s
    mul = coeff_mul(g2s, 1)
    rhs = (h / 2.0) * d1_stencil(test.astype(complex), g.spacing) - (h / 2.0) * mul(test)
    return float(np.max(np.abs(lhs - rhs)))


def test_gauge_conjugation_identity_second_order(model):
    # discrepancy on a Gaussian drops by ~4x per spacing halving
    d = {n: _conjugation_discrepancy(model, n, 0.5, (0.6, 0.8)) for n in (65, 129, 257)}
    assert 3.4 <= d[65] / d[129] <= 4.6
    assert 3.4 <= d[129] / d[257] <= 4.6


def test_tilde_equals_plain_for_quadratic_potential(model, rng):
    # for the model potential the translated operator coincides with the
    # untranslated one (A_tilde_q at q = 0, which is A_h) on the lattice
    g = Grid(extent_L=3.0, n_per_side=33)
    h = 0.5
    At = build_operator("A_tilde_q", model, g, h=h, q=(1.0, 0.5))
    Ah = build_operator("A_tilde_q", model, g, h=h, q=(0.0, 0.0))
    u = rng.standard_normal((33, 33)) + 1j * rng.standard_normal((33, 33))
    np.testing.assert_allclose(At.apply_array(u), Ah.apply_array(u), atol=1e-12)
