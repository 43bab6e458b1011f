"""Property tests over random potentials, grids and semiclassical parameters."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from landaulab import Grid, assemble_sparse, build_operator, make_potential
from landaulab.config import _SECTIONS, ConfigError, parse_config
from landaulab import eigensolve
from landaulab.eigensolve import sublattice_blocks
from landaulab.potentials import KINDS
from helpers import hermiticity_defect


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
    op = build_operator(label, potential, grid, **kwargs)
    mat = assemble_sparse(op)
    assert _cross_sublattice_entries(mat, n) == 0
    assert len(sublattice_blocks(mat, n)) == 4
    assert hermiticity_defect(op, trials=3) <= 1e-12


@st.composite
def signed_involutions(draw):
    """(d, s) of a random signed involution M e_c = s_c e_d(c) on up to 40
    coordinates: a random matching of some of them, one sign per pair (both
    ends share it, so M^2 = 1) and one per fixed point, each sign +-1."""
    n = draw(st.integers(1, 40))
    order = draw(st.permutations(range(n)))
    pairs = draw(st.integers(0, n // 2))
    s = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
    d = np.arange(n)
    for a, b in zip(order[:pairs], order[pairs:2 * pairs]):
        d[a], d[b], s[b] = b, a, s[a]
    return d, s


@settings(max_examples=200, deadline=None, database=None)
@given(involution=signed_involutions())
def test_halves_split_a_signed_involution(involution):
    # E+ and E- are real and orthonormal, together span the space (square
    # and orthonormal), and M E+- = +-E+-
    d, s = involution
    n = len(d)
    M = np.zeros((n, n))
    M[d, np.arange(n)] = s
    halves = eigensolve._halves(d, s)
    W = np.hstack([E.toarray() for E in halves])
    assert W.shape == (n, n)
    assert np.abs(W.T @ W - np.eye(n)).max() <= 1e-15
    for E, sign in zip(halves, (1, -1)):
        assert E.dtype == np.float64
        assert np.array_equal(M @ E.toarray(), sign * E.toarray())


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=6) | st.sampled_from(["auto", "json", "csv", "1e400"]))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=2),
    max_leaves=6)
FIELDS = sorted((section, key) for section, keys in _SECTIONS.items() for key in keys)


def _document(entries):
    doc = {}
    for (section, key), value in entries:
        doc.setdefault(section, {})[key] = value
    return doc


@settings(max_examples=300, deadline=None, database=None)
@given(entries=st.lists(st.tuples(st.sampled_from(FIELDS), JSON_VALUES), max_size=4))
def test_parse_config_raises_only_config_error(entries):
    try:
        cfg = parse_config(_document(entries))
    except ConfigError:
        return
    assert 1 <= cfg.k <= 200 and cfg.n_per_side % 2 == 1
