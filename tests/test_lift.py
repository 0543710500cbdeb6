"""Collapsing ground models onto orbit cells."""

import numpy as np
import pytest

from liftedmap import fixtures
from liftedmap.lift import (
    LiftError,
    build_lifted_model,
    lift_vector,
    unlift_vector,
)
from liftedmap.mln import RenamingSymmetries, ground_mln, parse_mln
from liftedmap.model import OvercompleteLayout
from liftedmap.oracle import exact_enumerate
from liftedmap.symmetry import (
    GeneratorSet,
    GeneratorSymmetries,
    PermutationPair,
    TrivialSymmetries,
)


def test_ex1_lifted_layout_frozen():
    m = fixtures.ex1()
    lm = build_lifted_model(m, GeneratorSymmetries(m))
    assert lm.num_cells == 11
    assert OvercompleteLayout(m).size == 28
    # cells are numbered by their first ground coordinate in layout order
    assert lm.index.labels == (
        ("node", 0, 0), ("node", 0, 1), ("node", 1, 0), ("node", 1, 1),
        ("edge", 0, "00"), ("arc", 0), ("arc", 1), ("edge", 0, "11"),
        ("edge", 1, "00"), ("arc", 2), ("edge", 1, "11"),
    )
    assert list(lm.theta_bar) == [0, 0, 0, 0, 0, 0, 4.0, 0, 0, 0, 1.0]


def test_triangle_lifted_layout():
    m = fixtures.triangle()
    lm = build_lifted_model(m, GeneratorSymmetries(m))
    # one node orbit, one edge orbit, one arc orbit
    assert lm.num_cells == 2 + 2 + 1
    assert len(lm.node_info) == 1 and len(lm.edge_info) == 1
    info = lm.edge_info[0]
    assert len(lm.bundle.edges.cells[0]) == 3
    assert info.cell_uv == info.cell_vu


def test_triple_parity_factor_cells():
    m = fixtures.triple_parity(4)
    lm = build_lifted_model(m, GeneratorSymmetries(m))
    assert lm.num_cells == 9
    assert [lab[0] for lab in lm.index.labels].count("factor") == 4
    # theta sums over the two odd-parity assignment cells: 12 * 0.5 and 4 * 0.5
    assert sorted(lm.theta_bar) == [0, 0, 0, 0, 0, 0, 0, 2.0, 6.0]


def test_theta_bar_sums_cells():
    m = fixtures.triangle(weight=-1.0)
    lm = build_lifted_model(m, GeneratorSymmetries(m))
    # the agreement table contributes -1 on both 00 and 11 of all three edges
    labels = lm.index.labels
    for c, lab in enumerate(labels):
        if lab[0] == "edge":
            assert lm.theta_bar[c] == pytest.approx(-3.0)
        else:
            assert lm.theta_bar[c] == pytest.approx(0.0)


def test_trivial_symmetries_lift_is_identity():
    m = fixtures.frucht()
    lm = build_lifted_model(m, TrivialSymmetries(m))
    layout = OvercompleteLayout(m)
    assert lm.num_cells == layout.size
    assert lm.index.rho.tolist() == list(range(layout.size))
    x = np.arange(layout.size, dtype=float)
    assert np.allclose(unlift_vector(lift_vector(x, lm.index), lm.index), x)


def test_search_on_frucht_equals_trivial_lift():
    m = fixtures.frucht()
    lm = build_lifted_model(m, GeneratorSymmetries(m))
    assert lm.num_cells == OvercompleteLayout(m).size
    assert len(lm.node_info) == 12


def test_rho_and_cells_are_inverse():
    m = fixtures.triple_parity(4)
    lm = build_lifted_model(m, GeneratorSymmetries(m))
    for c, members in enumerate(lm.index.cells):
        assert members
        for i in members:
            assert lm.index.rho[i] == c


def test_lift_unlift_roundtrips():
    m = fixtures.cycle_model(5)
    lm = build_lifted_model(m, GeneratorSymmetries(m))
    rng = np.random.default_rng(7)
    bar = rng.random(lm.num_cells)
    assert np.allclose(lift_vector(unlift_vector(bar, lm.index), lm.index), bar)
    # orbit-constant ground vectors survive the full cycle
    mu = exact_enumerate(m).mean_params
    assert np.allclose(unlift_vector(lift_vector(mu, lm.index), lm.index), mu)


def test_lift_vector_shape_checks():
    m = fixtures.triangle()
    lm = build_lifted_model(m, GeneratorSymmetries(m))
    with pytest.raises(LiftError):
        lift_vector(np.zeros(3), lm.index)
    with pytest.raises(LiftError):
        unlift_vector(np.zeros(99), lm.index)


def test_inconsistent_theta_across_cell_is_rejected():
    # fabricate a generator merging two features with different weights
    m = fixtures.triangle()
    m = type(m)(num_vars=3, features=m.features,
                tie_class_of=(0, 1, 2), theta=(-1.0, -1.0, 5.0))
    rotate = PermutationPair(var_perm=(1, 2, 0), feature_perm=(2, 0, 1))
    gens = GeneratorSet(generators=(rotate,), group_order=None)
    with pytest.raises(LiftError, match="not theta-constant"):
        build_lifted_model(m, GeneratorSymmetries(m, gens))


def test_lifted_model_symmetry_handle_retained():
    m = fixtures.ex1()
    sym = GeneratorSymmetries(m)
    lm = build_lifted_model(m, sym)
    assert lm.symmetries is sym
    with pytest.raises(LiftError):
        build_lifted_model(m, sym.bundle())


@pytest.mark.parametrize("name", ["ex1", "triple_parity", "frucht", "lovers_smokers"])
def test_theta_bar_is_the_per_cell_sum(name):
    # the per-cell loop is the reference for the grouped sums; they add in
    # another order, so lifted cells match to a relative 1e-12, and the
    # one-coordinate cells of the trivial lift match bit for bit
    if name == "lovers_smokers":
        m, gmap = ground_mln(parse_mln(fixtures.LOVERS_SMOKERS_MLN), domain_size=5)
        sources = [RenamingSymmetries(m, gmap), GeneratorSymmetries(m)]
    else:
        m = {"ex1": fixtures.ex1, "frucht": fixtures.frucht,
             "triple_parity": lambda: fixtures.triple_parity(4, weight=-0.7)}[name]()
        sources = [GeneratorSymmetries(m)]
    for sym in sources + [TrivialSymmetries(m)]:
        lm = build_lifted_model(m, sym)
        theta = lm.index.layout.theta_vector()
        reference = np.array([float(theta[list(c)].sum()) for c in lm.index.cells])
        assert np.allclose(lm.theta_bar, reference, rtol=1e-12, atol=0.0)
        if isinstance(sym, TrivialSymmetries):
            assert lm.theta_bar.tobytes() == reference.tobytes()
