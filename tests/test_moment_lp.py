"""The local LP in moment coordinates against the overcomplete reference.

build_local_lp writes the local polytope over moment cells, with the
distinct "P(a) >= 0" rows of the edge-orbit and factor-orbit
representatives and no equality rows. The reference (overcomplete.py) is
the overcomplete-cell lift: its LP over the same moment cells, with one row
per overcomplete cell, and the normalization and marginalization equalities
over its cells, solved by HiGHS. A ground model's LP must be the
reference's row for row, a lifted LP's rows the reference's distinct rows,
and the optima must agree.
"""

import itertools
import random

import pytest

from conftest import circulant_7_1_3
from liftedmap import (
    GeneratorSymmetries,
    MapOptions,
    RenamingSymmetries,
    build_lifted_model,
    build_local_lp,
    cutting_plane_map,
    ground_mln,
    parse_mln,
)
from fixtures import (
    LOVERS_SMOKERS_MLN,
    cycle_model,
    ex1,
    frucht,
    fully_connected_symmetric,
    random_tied_pairwise,
    triangle,
    triple_parity,
    unary_logistic,
)
from liftedmap.model import Feature, Model, assignments
from liftedmap.oracle import exact_enumerate
from liftedmap.solve import CycleConstraint, constraint_row
from liftedmap.symmetry import TrivialSymmetries
from overcomplete import (
    assert_matches_the_overcomplete_reference,
    assert_trivial_lp_is_the_reference,
    highs_value,
    overcomplete_lift,
    overcomplete_optimum,
    reference_cut_row,
    reference_local_lp,
)
from reference import probability

PARITY4 = tuple(float(sum(a) % 2) for a in assignments(4))
AND4 = (0.0,) * 15 + (1.0,)
_rng = random.Random(4)
RANDOM4 = tuple(round(_rng.uniform(-1.0, 1.0), 3) for _ in range(16))


def four_ary(n, scopes, table, weight):
    """One tied 4-ary feature per scope over n variables."""
    feats = tuple(Feature(scope=tuple(sorted(s)), table=table) for s in scopes)
    return Model(num_vars=n, features=feats, tie_class_of=(0,) * len(feats), theta=(weight,))


def every_four_subset(n, table, weight):
    return four_ary(n, itertools.combinations(range(n), 4), table, weight)


def ring_of_windows(n, table, weight):
    # scopes {i, ..., i + 3} mod n: the long cycles around the ring are not
    # covered by any factor, so the cycle polytope can cut
    return four_ary(n, [[(i + k) % n for k in range(4)] for i in range(n)], table, weight)


FOUR_ARY = {
    "parity_5": lambda: every_four_subset(5, PARITY4, 1.0),
    "and_6": lambda: every_four_subset(6, AND4, 1.0),
    "random_6": lambda: every_four_subset(6, RANDOM4, -1.0),
    "random_ring_9": lambda: ring_of_windows(9, RANDOM4, -1.0),
}

FIXTURES = {
    "ex1": ex1,
    "triangle": triangle,
    "cycle5": lambda: cycle_model(5),
    "cycle6": lambda: cycle_model(6),
    "frucht": frucht,
    "fully_connected3": lambda: fully_connected_symmetric(3),
    "fully_connected5": lambda: fully_connected_symmetric(5, -1.0),
    "triple_parity": lambda: triple_parity(4),
    "unary_logistic": unary_logistic,
    "circulant_7_1_3": circulant_7_1_3,
    **FOUR_ARY,
    **{"random%d" % seed: (lambda seed=seed: random_tied_pairwise(seed)) for seed in range(20)},
}


@pytest.mark.parametrize("name", list(FIXTURES))
def test_fixture_matches_the_overcomplete_reference(name):
    model = FIXTURES[name]()
    assert_matches_the_overcomplete_reference(model)
    assert_matches_the_overcomplete_reference(
        build_lifted_model(model, GeneratorSymmetries(model))
    )


@pytest.mark.parametrize("name", list(FIXTURES))
def test_fixture_trivial_lp_is_the_reference_row_for_row(name):
    assert_trivial_lp_is_the_reference(FIXTURES[name]())


@pytest.mark.parametrize("d", [2, 3])
def test_lovers_smokers_trivial_lp_is_the_reference_row_for_row(d):
    model, _ = ground_mln(parse_mln(LOVERS_SMOKERS_MLN), domain_size=d)
    assert_trivial_lp_is_the_reference(model)
    # dyadic weights: every sum is exact, so the objective is the same floats
    lp = build_local_lp(model)
    ref_lp, _ = reference_local_lp(overcomplete_lift(model))
    assert lp.objective.tobytes() == ref_lp.objective.tobytes()


def assert_cycle_run_matches_the_reference(target):
    """A cycle run's objective is HiGHS on the reference LP plus the run's
    cuts, each mapped through the reference's cells, within 1e-9."""
    result = cutting_plane_map(target, MapOptions(polytope="cycle"))
    assert result.status == "optimal"
    ref = overcomplete_lift(target)
    ref_lp, moments = reference_local_lp(ref)
    ref_lp.rows += [reference_cut_row(cut, ref, moments) for cut in result.cuts_added]
    assert abs(result.objective - highs_value(ref_lp)) <= 1e-9
    return result


@pytest.mark.parametrize("name", list(FIXTURES))
def test_fixture_cycle_runs_match_the_reference(name):
    model = FIXTURES[name]()
    assert_cycle_run_matches_the_reference(model)
    assert_cycle_run_matches_the_reference(build_lifted_model(model, GeneratorSymmetries(model)))


# the cycle optima before the lift moved to moment cells
LOVERS_SMOKERS_CYCLE = {2: 205.25, 3: 309.75, 4: 415.5, 5: 522.5}


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_lovers_smokers_lifted_objectives_match_the_reference(d):
    # local: the overcomplete reference, with renaming and with search
    # orbits; cycle: HiGHS on the reference LP plus the run's cuts, each
    # mapped through the reference's cells
    model, gmap = ground_mln(parse_mln(LOVERS_SMOKERS_MLN), domain_size=d)
    for sym in (RenamingSymmetries(model, gmap), GeneratorSymmetries(model)):
        lm = build_lifted_model(model, sym)
        assert_matches_the_overcomplete_reference(lm)
        result = assert_cycle_run_matches_the_reference(lm)
        assert abs(result.objective - LOVERS_SMOKERS_CYCLE[d]) <= 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_lovers_smokers_matches_the_overcomplete_reference(d):
    model, gmap = ground_mln(parse_mln(LOVERS_SMOKERS_MLN), domain_size=d)
    assert_matches_the_overcomplete_reference(model)
    for sym in (RenamingSymmetries(model, gmap), GeneratorSymmetries(model)):
        assert_matches_the_overcomplete_reference(build_lifted_model(model, sym))


def test_four_ary_columns():
    # the constant, 5 node and 10 edge moments, and per 4-subset its four
    # triples and itself
    lp = build_local_lp(FOUR_ARY["parity_5"]())
    assert lp.num_vars == 1 + 5 + 10 + 5 * 5
    # 3 rows per edge; the 16 cells of a factor less the 1111 bound
    assert len(lp.rows) == 3 * 10 + 5 * 15


@pytest.mark.parametrize("polytope", ["local", "cycle"])
@pytest.mark.parametrize("name", list(FOUR_ARY))
def test_four_ary_ground_equals_lifted(name, polytope):
    model = FOUR_ARY[name]()
    opts = MapOptions(polytope=polytope)
    ground = cutting_plane_map(model, opts)
    lifted_run = cutting_plane_map(build_lifted_model(model, GeneratorSymmetries(model)), opts)
    assert ground.status == lifted_run.status == "optimal"
    assert lifted_run.objective == pytest.approx(ground.objective, abs=1e-9)
    local = overcomplete_optimum(overcomplete_lift(model))
    if polytope == "local":
        assert ground.objective == pytest.approx(local, abs=1e-9)
    else:
        assert ground.objective <= local + 1e-9
        assert ground.objective >= exact_enumerate(model).map_value - 1e-9


def test_four_ary_ring_is_cut():
    # the cycle polytope closes the ring's local gap with one cut
    model = FOUR_ARY["random_ring_9"]()
    result = cutting_plane_map(model, MapOptions(polytope="cycle"))
    assert result.cuts_added
    assert result.objective == pytest.approx(exact_enumerate(model).map_value, abs=1e-9)
    assert result.objective < overcomplete_optimum(overcomplete_lift(model)) - 0.1


def _reference_rows(lifted):
    """The LP rows and a cut row as built one assignment at a time."""
    rows = {}
    for info in lifted.edge_info + lifted.factor_info:
        for i in range(len(info.cells) - 1):
            terms = probability(info.cells, i)
            rows.setdefault(tuple(terms), terms)
    return [(terms, ">=", 0.0) for terms in rows.values()]


def _reference_constraint_row(constraint, lifted):
    acc = {}
    for k, in_f in constraint.steps:
        for i in (0, 3) if in_f else (1, 2):
            for j, c in probability(lifted.edge_info[k].cells, i):
                acc[j] = acc.get(j, 0.0) + c
    return (sorted(kv for kv in acc.items() if kv[1] != 0.0), ">=", 1.0)


@pytest.mark.parametrize("name", list(FIXTURES) + ["lovers_smokers3"])
def test_probability_rows_are_the_per_assignment_rows(name):
    # each orbit's P(a) rows are built once per lifted model; the LP's rows
    # and every cut row read them and stay bit-identical to the rows built
    # one assignment at a time
    if name == "lovers_smokers3":
        model = ground_mln(parse_mln(LOVERS_SMOKERS_MLN), domain_size=3)[0]
    else:
        model = FIXTURES[name]()
    rng = random.Random(name)
    for sym in (TrivialSymmetries(model), GeneratorSymmetries(model)):
        lifted = build_lifted_model(model, sym)
        infos = lifted.edge_info + lifted.factor_info
        assert lifted.probability_rows == tuple(
            tuple(probability(info.cells, i) for i in range(len(info.cells))) for info in infos
        )
        assert build_local_lp(lifted).rows == _reference_rows(lifted)
        assert lifted.probability_rows is lifted.probability_rows  # built once
        if not lifted.edge_info:
            continue
        for _ in range(10):
            steps = tuple(
                (rng.randrange(len(lifted.edge_info)), rng.random() < 0.5)
                for _ in range(rng.randint(1, 6))
            )
            cut = CycleConstraint(space="lifted", steps=steps, lhs=0.0, source=0)
            assert constraint_row(cut, lifted) == _reference_constraint_row(cut, lifted)
