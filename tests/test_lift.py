"""Collapsing ground models onto orbit cells of their moments."""

import numpy as np
import pytest

import fixtures
from conftest import MODELS_DIR, circulant_7_1_3
from liftedmap.lift import LiftError, build_lifted_model
from liftedmap.mln import RenamingSymmetries, ground_mln, lift_mln, parse_evidence, parse_mln
from liftedmap.model import score
from liftedmap.oracle import exact_enumerate
from liftedmap.symmetry import (
    GeneratorSet,
    GeneratorSymmetries,
    PermutationPair,
    TrivialSymmetries,
)

from overcomplete import OvercompleteLayout, ground_moments
from reference import lift_cells, lifted_cells
from test_mln import WIDE_EVIDENCE, WIDE_MLN


def test_ex1_lifted_layout_frozen():
    m = fixtures.ex1()
    lm = build_lifted_model(m, GeneratorSymmetries(m))
    # variable orbits {0, 3} and {1, 2}, edge orbits {12} and the other four
    assert lm.num_cells == 4
    assert lm.index.layout.size == 4 + 5
    assert OvercompleteLayout(m).size == 28
    # cells are numbered by their first ground moment in layout order
    assert lm.index.rho.tolist() == [0, 1, 1, 0, 2, 2, 3, 2, 2]
    assert lm.bundle.vars.reps == (0, 1)
    assert lm.edge_tables == ((-1, 1, 0, 2), (-1, 1, 1, 3))
    assert lm.theta_bar.tolist() == [4.0, 0.0, -4.0, 1.0]
    assert lm.constant == 0.0


def test_triangle_lifted_layout():
    m = fixtures.triangle()
    lm = build_lifted_model(m, GeneratorSymmetries(m))
    # one node orbit and one edge orbit
    assert lm.num_cells == 1 + 1
    assert lm.bundle.vars.num_cells == 1 and len(lm.edge_tables) == 1
    assert len(lm.bundle.edges.cells[0]) == 3
    # both ends of the representative edge are in the one node orbit
    assert lm.edge_tables[0] == (-1, 0, 0, 1)


def test_triple_parity_factor_cells():
    m = fixtures.triple_parity(4)
    lm = build_lifted_model(m, GeneratorSymmetries(m))
    # one orbit each of variables, edges and triples: an arity-3 feature
    # has one factor moment, its all-ones assignment
    assert lm.num_cells == 3
    assert lm.bundle.factor_moments.elements == tuple((j, (1, 1, 1)) for j in range(4))
    assert lm.factor_tables[0] == (-1, 0, 0, 1, 0, 1, 1, 2)
    # parity's Moebius coefficients times 0.5 are 1/2 per variable, -1 per
    # pair and 2 per triple; each variable is in 3 triples, each pair in 2
    assert lm.theta_bar.tolist() == [4 * 1.5, 6 * -2.0, 4 * 2.0]


def test_theta_bar_sums_cells():
    m = fixtures.triangle(weight=-1.0)
    lm = build_lifted_model(m, GeneratorSymmetries(m))
    # the agreement table is 1 - x_u - x_v + 2 x_u x_v, weighted -1 on all
    # three edges; each variable is on two of them
    assert lm.constant == -3.0
    assert lm.theta_bar.tolist() == [3 * 2.0, 3 * -2.0]


def test_trivial_symmetries_lift_is_identity():
    m = fixtures.frucht()
    lm = build_lifted_model(m, TrivialSymmetries(m))
    layout = lm.index.layout
    assert lm.num_cells == layout.size == 12 + 18
    assert lm.index.rho.tolist() == list(range(layout.size))


def test_search_on_frucht_equals_trivial_lift():
    m = fixtures.frucht()
    lm = build_lifted_model(m, GeneratorSymmetries(m))
    assert lm.num_cells == lm.index.layout.size == 12 + 18
    assert lm.bundle.vars.num_cells == 12


def test_cells_are_numbered_by_their_first_moment():
    m = fixtures.triple_parity(4)
    lm = build_lifted_model(m, GeneratorSymmetries(m))
    rho = lm.index.rho.tolist()
    assert sorted(set(rho), key=rho.index) == list(range(lm.num_cells))


def test_exact_moments_are_constant_on_cells():
    m = fixtures.cycle_model(5)
    lm = build_lifted_model(m, GeneratorSymmetries(m))
    mu = exact_enumerate(m).mean_params
    for c in range(lm.num_cells):
        assert np.ptp(mu[lm.index.rho == c]) <= 1e-12


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
    # the trivial lift's objective scores every configuration, and a lifted
    # cell's coefficient adds its moments' ground coefficients
    if name == "lovers_smokers":
        m, gmap = ground_mln(parse_mln(fixtures.LOVERS_SMOKERS_MLN), domain_size=5)
        sources = [RenamingSymmetries(m, gmap), GeneratorSymmetries(m)]
    else:
        m = {"ex1": fixtures.ex1, "frucht": fixtures.frucht,
             "triple_parity": lambda: fixtures.triple_parity(4, weight=-0.7)}[name]()
        sources = [GeneratorSymmetries(m)]
    ground = build_lifted_model(m, TrivialSymmetries(m))
    assert ground.index.rho.tolist() == list(range(ground.index.layout.size))
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.integers(0, 2, m.num_vars).tolist()
        mu = ground_moments(OvercompleteLayout(m).phi_vector(x), ground.index.layout)
        assert ground.constant + ground.theta_bar @ mu == pytest.approx(score(m, x), abs=1e-9)
    for sym in sources:
        lm = build_lifted_model(m, sym)
        reference = np.bincount(lm.index.rho, ground.theta_bar, minlength=lm.num_cells)
        assert np.allclose(lm.theta_bar, reference, rtol=1e-12, atol=1e-12)
        assert lm.constant == pytest.approx(ground.constant, abs=1e-12)


def _fixture_lifts():
    models = [fixtures.ex1(), fixtures.triangle(), fixtures.cycle_model(6), fixtures.frucht(),
              fixtures.fully_connected_symmetric(), fixtures.triple_parity(4, weight=-0.7),
              fixtures.unary_logistic()]
    models += [fixtures.random_tied_pairwise(seed) for seed in range(4)]
    for m in models:
        yield m, build_lifted_model(m, TrivialSymmetries(m))
        yield m, build_lifted_model(m, GeneratorSymmetries(m))
    for text, ev in ((fixtures.LOVERS_SMOKERS_MLN, ""), (fixtures.FRIENDS_MLN, ""),
                     (fixtures.Q2_MLN, fixtures.Q2_EVIDENCE)):
        mln, evidence = parse_mln(text), parse_evidence(ev)
        m, gmap = ground_mln(mln, 3, evidence)
        yield m, build_lifted_model(m, RenamingSymmetries(m, gmap))
        yield m, build_lifted_model(m, GeneratorSymmetries(m))
        yield m, lift_mln(mln, 3, evidence)


def test_cell_score_is_the_ground_score_of_orbit_uniform_configurations():
    rng = np.random.default_rng(5)
    for m, lm in _fixture_lifts():
        k = lm.bundle.vars.num_cells
        if k <= 8:
            value_sets = [[(i >> b) & 1 for b in range(k)] for i in range(2 ** k)]
        else:
            value_sets = rng.integers(0, 2, (32, k)).tolist()
        for values in value_sets:
            x = np.array(values)[lm.var_cells].tolist()
            assert lm.score(values) == pytest.approx(score(m, x), abs=1e-9)


def _wide_model(d):
    return ground_mln(parse_mln(WIDE_MLN), d, parse_evidence(WIDE_EVIDENCE))[0]


@pytest.mark.parametrize("source", [GeneratorSymmetries, TrivialSymmetries], ids=["search", "none"])
def test_label_array_cells_match_the_dict_walk_on_fixtures(source):
    # rho and the orbit tables read off label arrays by indexing, against a
    # dict from each element to its cell walked one scope subset at a time;
    # the wide MLN's groundings carry features of arity 3, 4 and 5
    models = [fixtures.ex1(), fixtures.triangle(), fixtures.cycle_model(6), fixtures.frucht(),
              fixtures.fully_connected_symmetric(), fixtures.triple_parity(4, weight=-0.7),
              fixtures.triple_parity(5), fixtures.unary_logistic(), circulant_7_1_3()]
    models += [fixtures.random_tied_pairwise(seed) for seed in range(20)]
    models += [_wide_model(d) for d in (2, 3)]
    for m in models:
        lm = build_lifted_model(m, source(m))
        assert lifted_cells(lm) == lift_cells(lm)


def _shipped(name):
    return (MODELS_DIR / name).read_text()


@pytest.mark.parametrize("text,evidence,d", [
    (_shipped("lovers_smokers.mln"), "", 3),
    (_shipped("lovers_smokers.mln"), "", 6),
    (_shipped("friends.mln"), "", 4),
    (_shipped("q2.mln"), _shipped("q2.evidence"), 4),
    (WIDE_MLN, WIDE_EVIDENCE, 4),
], ids=["lovers_smokers_d3", "lovers_smokers_d6", "friends", "q2", "wide"])
def test_label_array_cells_match_the_dict_walk_under_renaming(text, evidence, d):
    mln, ev = parse_mln(text), parse_evidence(evidence)
    m, gmap = ground_mln(mln, d, ev)
    for lm in (build_lifted_model(m, RenamingSymmetries(m, gmap)), lift_mln(mln, d, ev)):
        assert lifted_cells(lm) == lift_cells(lm)
