"""Acceptance gate: one test per shipping criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines inline;
under plain `pytest -v` the per-test PASSED/FAILED column carries the same
information.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from liftedmap import (
    GeneratorSymmetries,
    MapOptions,
    RenamingSymmetries,
    build_colored_factor_graph,
    build_lifted_model,
    build_local_lp,
    cutting_plane_map,
    ground_mln,
    parse_evidence,
    parse_mln,
    verify_generator,
)
import fixtures
from liftedmap.oracle import exact_enumerate
from liftedmap.solve import (
    build_stabilized_graphs,
    separate_cycles_ground,
    separate_cycles_lifted,
    uniform_interior,
)
from liftedmap.symmetry import refine_colors

from conftest import refines
from reference import (
    configuration_orbits,
    enumerate_cycle_constraints,
    exhaustive_automorphisms,
    generated_group,
)
from signatures import atom_signature, orbit_sizes_analytic
from overcomplete import (
    lifted as trivial_lift,
    lp_point,
    overcomplete_lift,
    overcomplete_point,
)


@contextmanager
def verdict(number, description):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d: FAIL - %s" % (number, description))
        raise
    print("ACCEPTANCE %d: PASS - %s" % (number, description))


def ground(text, d, ev_text=None):
    ev = parse_evidence(ev_text) if ev_text else None
    return ground_mln(parse_mln(text), domain_size=d, evidence=ev)


def test_criterion_01_pairwise_example_end_to_end():
    with verdict(1, "four-variable example: orbits, lifting, and MAP agree end to end"):
        t0 = time.perf_counter()
        model = fixtures.ex1()
        sym = GeneratorSymmetries(model)
        assert sym.gens.group_order == 4
        bundle = sym.bundle()
        assert tuple(sorted(tuple(sorted(c)) for c in bundle.vars.cells)) == ((0, 3), (1, 2))
        assert sorted(len(c) for c in bundle.edges.cells) == [1, 4]
        lifted = build_lifted_model(model, sym)
        assert build_local_lp(lifted).num_vars == 5
        assert build_local_lp(model).num_vars == 10
        exact = exact_enumerate(model)
        for target in (model, lifted):
            result = cutting_plane_map(target)
            assert result.status == "optimal"
            assert abs(result.objective - 4.0) <= 1e-6
            assert abs(result.objective - exact.map_value) <= 1e-6
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_generators_are_valid_and_complete_on_small_models():
    with verdict(2, "every reported generator verifies; small groups match brute force"):
        models = [fixtures.ex1(), fixtures.triangle(), fixtures.frucht()]
        models += [fixtures.random_tied_pairwise(seed) for seed in range(20)]
        for model in models:
            sym = GeneratorSymmetries(model)
            for pair in sym.gens.generators:
                check = verify_generator(model, pair, num_samples=100, seed=0)
                assert check.ok, check.reason
            if model.num_vars <= 6:
                generated = set(generated_group(sym.gens, model))
                assert generated == set(exhaustive_automorphisms(model))


def test_criterion_03_lifted_objective_equals_ground_objective():
    with verdict(3, "lifted and ground relaxations agree on both polytopes"):
        t0 = time.perf_counter()
        models = [
            fixtures.ex1(),
            fixtures.triangle(),
            fixtures.cycle_model(5),
            fixtures.fully_connected_symmetric(3),
            fixtures.unary_logistic(),
            fixtures.triple_parity(4),
            fixtures.frucht(),
        ]
        models += [fixtures.random_tied_pairwise(seed) for seed in range(20)]
        cycle_opts = MapOptions(polytope="cycle", max_cuts=50)
        for model in models:
            lifted = build_lifted_model(model, GeneratorSymmetries(model))
            g_local = cutting_plane_map(model)
            l_local = cutting_plane_map(lifted)
            assert abs(g_local.objective - l_local.objective) <= 1e-6
            g_cycle = cutting_plane_map(model, cycle_opts)
            l_cycle = cutting_plane_map(lifted, cycle_opts)
            assert g_cycle.status == "optimal"
            assert l_cycle.status == "optimal"
            assert abs(g_cycle.objective - l_cycle.objective) <= 1e-6
        assert time.perf_counter() - t0 < 30.0


def test_criterion_04_cycle_cuts_tighten_the_frustrated_triangle():
    with verdict(4, "cycle cuts close the triangle's integrality gap"):
        model = fixtures.triangle()
        local = cutting_plane_map(model)
        assert abs(local.objective - 0.0) <= 1e-8
        tightened = cutting_plane_map(model, MapOptions(polytope="cycle"))
        assert abs(tightened.objective - (-1.0)) <= 1e-8
        exact = exact_enumerate(model)
        assert abs(tightened.objective - exact.map_value) <= 1e-8
        assert len(tightened.cuts_added) >= 1
        for earlier, later in zip(tightened.bounds, tightened.bounds[1:]):
            assert later <= earlier + 1e-8


def test_criterion_05_separation_finds_the_most_violated_short_cycle():
    with verdict(5, "shortest-path separation matches brute-force enumeration"):
        models = [
            fixtures.triangle(),
            fixtures.fully_connected_symmetric(3, weight=-0.8),
            fixtures.cycle_model(5),
            fixtures.cycle_model(6, table=fixtures.XOR),
            fixtures.fully_connected_symmetric(4, weight=-1.0),
            fixtures.cycle_model(7),
            fixtures.cycle_model(8),
            fixtures.random_tied_pairwise(12),
        ]
        for model in models:
            assert model.num_vars <= 8
            local = cutting_plane_map(model)
            one_cut = cutting_plane_map(model, MapOptions(polytope="cycle", max_cuts=1))
            # the runs' LP points, as overcomplete vectors
            xs = [uniform_interior(trivial_lift(model)), local.tau, one_cut.tau]
            points = [overcomplete_point(x, model) for x in xs]

            for tau in points:
                enumerated = enumerate_cycle_constraints(model, tau, max_len=6)
                min_lhs = min((lhs for _, _, lhs in enumerated), default=np.inf)
                cut = separate_cycles_ground(model, tau)
                if min_lhs < 1.0 - 1e-6:
                    assert cut is not None
                    assert abs(cut.lhs - min_lhs) <= 1e-9

            sym = GeneratorSymmetries(model)
            lifted = build_lifted_model(model, sym)
            stabilized = build_stabilized_graphs(lifted)
            # pairwise models: a ground point is the whole overcomplete vector,
            # symmetrized by averaging over each overcomplete orbit cell
            ref = overcomplete_lift(lifted)
            for tau in points:
                averages = np.array([np.mean(tau[list(members)]) for members in ref.cells])
                tau_sym = averages[ref.rho]
                x_bar = lp_point(tau_sym, lifted)
                g_cut = separate_cycles_ground(model, tau_sym)
                l_cut = separate_cycles_lifted(lifted, stabilized, x_bar)
                if g_cut is None:
                    assert l_cut is None
                else:
                    assert l_cut is not None
                    assert abs(l_cut.lhs - g_cut.lhs) <= 1e-9


def test_criterion_06_exact_marginals_are_constant_on_orbits():
    with verdict(6, "brute-force moments are constant on every orbit cell"):
        targets = [
            fixtures.ex1(),
            fixtures.triangle(),
            fixtures.cycle_model(5),
            fixtures.fully_connected_symmetric(3),
            fixtures.unary_logistic(),
            fixtures.triple_parity(4),
            fixtures.frucht(),
            ground(fixtures.FRIENDS_MLN, 3)[0],
            ground(fixtures.Q2_MLN, 3, fixtures.Q2_EVIDENCE)[0],
        ]
        for model in targets:
            assert model.num_vars <= 12
            exact = exact_enumerate(model, limit=12)
            lifted = build_lifted_model(model, GeneratorSymmetries(model))
            mu = exact.mean_params
            for c in range(lifted.num_cells):
                values = mu[lifted.index.rho == c]
                assert values.size and max(values) - min(values) <= 1e-9


def test_criterion_07_best_orbit_centroid_attains_the_exact_optimum():
    with verdict(7, "maximizing over configuration-orbit centroids recovers the MAP value"):
        cases = [
            (fixtures.ex1(), 9),
            (fixtures.triangle(), 4),
            (fixtures.cycle_model(5), 8),
            (fixtures.fully_connected_symmetric(3), 4),
            (fixtures.unary_logistic(), 2),
            (fixtures.triple_parity(4), 5),
            (fixtures.cycle_model(8), 30),
            (fixtures.random_tied_pairwise(0), 6),
            (ground(fixtures.FRIENDS_MLN, 2)[0], 9),
        ]
        for model, expected_orbits in cases:
            assert model.num_vars <= 10
            sym = GeneratorSymmetries(model)
            orbits = configuration_orbits(model, sym.gens)
            assert len(orbits) == expected_orbits
            best = max(orbit.score for orbit in orbits)
            exact = exact_enumerate(model)
            assert abs(best - exact.map_value) <= 1e-9

        # the fully interchangeable model collapses to one orbit per level count
        fc3 = fixtures.fully_connected_symmetric(3)
        orbits = configuration_orbits(fc3, GeneratorSymmetries(fc3).gens)
        assert len(orbits) == fc3.num_vars + 1
        assert sorted(len(o.configs) for o in orbits) == [1, 1, 3, 3]


def test_criterion_08_renaming_orbits_without_search():
    with verdict(8, "renaming orbits: analytic sizes, brute-force match, refinement"):
        # one observed constant in a binary-predicate model over five constants
        model, gmap = ground(fixtures.Q2_MLN, 5, fixtures.Q2_EVIDENCE)
        bundle = RenamingSymmetries(model, gmap).bundle()
        cells = bundle.vars.cells
        assert len(cells) == 5
        assert sorted(len(c) for c in cells) == [1, 4, 4, 4, 12]
        for cell in cells:
            signature = atom_signature(gmap.atoms[cell[0]], gmap.distinguished)
            assert orbit_sizes_analytic(signature, 5, 1) == len(cell)

        # brute-force enumeration over all renamings of the free constants
        free = sorted(set(gmap.domain) - set(gmap.distinguished))
        brute = {v: {v} for v in range(model.num_vars)}
        for perm in itertools.permutations(free):
            mapping = dict(zip(free, perm))
            mapping.update({c: c for c in gmap.distinguished})
            for v in range(model.num_vars):
                pred, args = gmap.atoms[v]
                image = gmap.atom_index[(pred, tuple(mapping[a] for a in args))]
                brute[v].add(image)
        # every group element was enumerated, so each image set is a full orbit
        brute_cells = sorted({tuple(sorted(brute[v])) for v in brute})
        assert brute_cells == sorted(tuple(sorted(c)) for c in cells)

        # renaming partitions refine search partitions on every small instance
        instances = [
            (fixtures.LOVERS_SMOKERS_MLN, None, 3),
            (fixtures.LOVERS_SMOKERS_MLN, None, 4),
            (fixtures.FRIENDS_MLN, None, 2),
            (fixtures.FRIENDS_MLN, None, 3),
            (fixtures.FRIENDS_MLN, None, 4),
            (fixtures.Q2_MLN, fixtures.Q2_EVIDENCE, 2),
            (fixtures.Q2_MLN, fixtures.Q2_EVIDENCE, 3),
            (fixtures.Q2_MLN, fixtures.Q2_EVIDENCE, 4),
        ]
        for text, ev, d in instances:
            m, g = ground(text, d, ev)
            fine = RenamingSymmetries(m, g).bundle()
            coarse = GeneratorSymmetries(m).bundle()
            assert refines(fine.vars.cells, coarse.vars.cells)
            assert refines(fine.features.cells, coarse.features.cells)
            assert refines(fine.edges.cells, coarse.edges.cells)
            assert refines(fine.factor_moments.cells, coarse.factor_moments.cells)

        # orbit counts depend on the evidence pattern, not the domain size
        for d in (5, 10, 20):
            m, g = ground(fixtures.Q2_MLN, d, fixtures.Q2_EVIDENCE)
            assert RenamingSymmetries(m, g).bundle().vars.num_cells == 5


def test_criterion_09_social_network_model_scales_by_lifting():
    with verdict(9, "social-network MLN: stable lifted size, ground agreement, time box"):
        t0 = time.perf_counter()
        mln_text = fixtures.LOVERS_SMOKERS_MLN
        model4, gmap4 = ground(mln_text, 4)
        assert model4.num_vars == 28

        shapes = set()
        lifted4 = None
        for d in (3, 4, 5, 6):
            model, gmap = ground(mln_text, d)
            sym = RenamingSymmetries(model, gmap)
            lifted = build_lifted_model(model, sym)
            b = lifted.bundle
            shapes.add(
                (
                    lifted.num_cells,
                    b.vars.num_cells,
                    b.features.num_cells,
                    b.edges.num_cells,
                    b.factor_moments.num_cells,
                )
            )
            if d == 4:
                lifted4 = lifted
        # cells: the variable, edge and factor-moment orbits
        assert shapes == {(20, 5, 6, 12, 3)}

        ground_result = cutting_plane_map(model4)
        lifted_result = cutting_plane_map(lifted4)
        assert abs(ground_result.objective - lifted_result.objective) <= 1e-6
        assert abs(ground_result.objective - 417.0) <= 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, "took %.1f s; ground d=4 map timings_ms %r" % (
            elapsed,
            ground_result.timings_ms,
        )


def test_criterion_10_an_asymmetric_model_stays_ground_sized():
    with verdict(10, "asymmetric cubic model: trivial group is proven, lift is a no-op"):
        model = fixtures.frucht()
        graph = build_colored_factor_graph(model)
        refined = refine_colors(graph).colors
        # refinement alone cannot split the variables; the search has to
        assert len({refined[v] for v in range(graph.num_vars)}) == 1
        sym = GeneratorSymmetries(model)
        assert sym.gens.group_order == 1
        assert sym.gens.generators == ()
        lifted = build_lifted_model(model, sym)
        assert len(lifted.node_info) == 12
        # one cell per moment: 12 variables and 18 edges
        assert lifted.num_cells == lifted.index.layout.size == 30
        g_result = cutting_plane_map(model)
        l_result = cutting_plane_map(lifted)
        assert abs(g_result.objective - l_result.objective) <= 1e-6
