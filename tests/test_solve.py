"""Solver layer: simplex core, local relaxation, cycle cuts, MAP driver."""

import hashlib
import json
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import circulant_7_1_3
from overcomplete import (
    OvercompleteLayout,
    cell_by_element,
    lifted as trivial_or_lifted,
    lp_point,
    overcomplete_lift,
    overcomplete_point,
    reference_local_lp,
)
from reference import DenseTableau, enumerate_cycle_constraints
from reference import mirror_graph as reference_mirror_graph
from reference import mirror_walk as reference_mirror_walk
from reference import most_violated as reference_most_violated
from signatures import atom_names, reference_edge_orbits, reference_stabilized_light
from liftedmap import (
    GeneratorSymmetries,
    MapOptions,
    RenamingSymmetries,
    TrivialSymmetries,
    build_lifted_model,
    build_local_lp,
    cutting_plane_map,
    ground_mln,
    parse_evidence,
    parse_mln,
    simplex_solve,
    symmetry,
)
from liftedmap import solve as solve_module
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
from liftedmap.lift import MomentLayout
from liftedmap.model import parse_model, score
from liftedmap.oracle import exact_enumerate
from liftedmap.solve import (
    CYCLE_TOL,
    CycleConstraint,
    LinearProgram,
    NumericalInstabilityError,
    SimplexTableau,
    SolveError,
    StabilizedGraph,
    build_stabilized_graphs,
    constraint_row,
    decode,
    mirror_walk,
    mirror_weights,
    separate_cycles_ground,
    separate_cycles_lifted,
    uniform_interior,
    _most_violated,
)


def rows_satisfied(tau, rows, tol=1e-9):
    for coeffs, sense, rhs in rows:
        val = sum(c * tau[j] for j, c in coeffs)
        if sense == "<=" and val > rhs + tol:
            return False
        if sense == ">=" and val < rhs - tol:
            return False
    return True


def stabilized_partitions(sym, rep):
    """Variable and edge orbits of the subgroup fixing rep that a source uses,
    the edge orbits computed directly rather than from the variable cells."""
    model = sym.model
    if isinstance(sym, RenamingSymmetries):
        atoms, dist = atom_names(sym.gmap), sym.gmap.distinguished
        return (
            reference_stabilized_light(model, atoms, dist, rep),
            reference_edge_orbits(model, atoms, dist | set(atoms[rep][1])),
        )
    sub = [g for g in sym.gens.generators if g.var_perm[rep] == rep]
    return symmetry.orbits_of(sub, "vars", model), symmetry.orbits_of(sub, "edges", model)


def stabilized_graphs_from_edge_orbits(lifted):
    """Reference stabilized graphs: one edge per stabilized edge orbit, taken
    at the orbit's smallest edge and deduplicated by (cell pair, full orbit).
    Node orbits with the same stabilized variable cells share a graph, and
    each of them must give that graph from its own edge orbits."""
    full = cell_by_element(lifted.bundle.edges)
    groups = {}  # stabilized variable cells -> (edges, sources)
    for k, rep in enumerate(lifted.bundle.vars.reps):
        vars_p, edges_p = stabilized_partitions(lifted.symmetries, rep)
        dedup = {}
        for members in edges_p.cells:
            u, v = members[0]
            a, b = vars_p.cell[[u, v]].tolist()
            dedup.setdefault((tuple(sorted((a, b))), full[(u, v)]), (full[(u, v)], a, b))
        edges, sources = groups.setdefault(vars_p.cells, (tuple(dedup.values()), []))
        assert tuple(dedup.values()) == edges
        sources.append((k, int(vars_p.cell[rep])))
    return tuple(StabilizedGraph(sources=tuple(sources), edges=edges)
                 for edges, sources in groups.values())


def uniform_moments(lm):
    """The LP point of the uniform distribution: each moment 2^-|S|."""
    x = np.ones(lm.num_cells + 1)
    node_tables = tuple((-1, k) for k in range(lm.bundle.vars.num_cells))
    for cells in node_tables + lm.edge_tables + lm.factor_tables:
        for s, cell in enumerate(cells):
            x[cell + 1] = 2.0 ** -bin(s).count("1")
    return x


FIXTURES = {
    "ex1": ex1,
    "triangle": triangle,
    "cycle6": lambda: cycle_model(6),
    "frucht": frucht,
    "fully_connected5": lambda: fully_connected_symmetric(5, -1.0),
    "triple_parity": lambda: triple_parity(4),
    "unary_logistic": unary_logistic,
    "circulant_7_1_3": circulant_7_1_3,
    **{"random%d" % seed: (lambda seed=seed: random_tied_pairwise(seed)) for seed in range(20)},
}


def frustrated_point(model):
    # pairwise pseudomarginal putting all edge mass on disagreement
    layout = OvercompleteLayout(model)
    tau = np.zeros(layout.size)
    for v in range(model.num_vars):
        tau[layout.node_index(v, 0)] = 0.5
        tau[layout.node_index(v, 1)] = 0.5
    for (u, v) in layout.edges:
        tau[layout.edge_index(u, v, 0, 1)] = 0.5
        tau[layout.edge_index(u, v, 1, 0)] = 0.5
    return tau


# ---------------------------------------------------------------------------
# simplex core


class TestLinearProgramValidation:
    def test_objective_length_mismatch(self):
        with pytest.raises(SolveError):
            LinearProgram(num_vars=2, objective=[1.0], rows=[], bounds=[(0, 1), (0, 1)])

    def test_bounds_length_mismatch(self):
        with pytest.raises(SolveError):
            LinearProgram(num_vars=2, objective=[1.0, 1.0], rows=[], bounds=[(0, 1)])

    @pytest.mark.parametrize("sense", ["<", "=="])
    def test_unknown_sense(self, sense):
        with pytest.raises(SolveError):
            LinearProgram(
                num_vars=1,
                objective=[1.0],
                rows=[([(0, 1.0)], sense, 1.0)],
                bounds=[(0, 1)],
            )

    def test_non_finite_rhs(self):
        with pytest.raises(SolveError):
            LinearProgram(
                num_vars=1,
                objective=[1.0],
                rows=[([(0, 1.0)], "<=", float("inf"))],
                bounds=[(0, 1)],
            )

    def test_unknown_variable_in_row(self):
        with pytest.raises(SolveError):
            LinearProgram(
                num_vars=1,
                objective=[1.0],
                rows=[([(5, 1.0)], "<=", 1.0)],
                bounds=[(0, 1)],
            )

    def test_non_finite_coefficient(self):
        with pytest.raises(SolveError):
            LinearProgram(
                num_vars=1,
                objective=[1.0],
                rows=[([(0, float("nan"))], "<=", 1.0)],
                bounds=[(0, 1)],
            )

    @pytest.mark.parametrize(
        "bounds",
        [
            (-np.inf, 2.0),  # the simplex starts every variable at a bound
            (None, 2.0),
            (np.nan, 2.0),
            (0.0, np.nan),
            (2.0, 1.0),
            (0.0, -np.inf),
            (-2.0, None),
            (0.0, np.inf),
        ],
        ids=["lower_-inf", "lower_None", "lower_nan", "upper_nan", "lower_above_upper",
             "upper_-inf", "upper_None", "upper_inf"],
    )
    def test_bounds_that_are_not_a_finite_range(self, bounds):
        # max x0 + x1 s.t. x0 + x1 <= 3 is bounded whatever x0's range
        with pytest.raises(SolveError, match="variable 0"):
            LinearProgram(
                num_vars=2,
                objective=[1.0, 1.0],
                rows=[([(0, 1.0), (1, 1.0)], "<=", 3.0)],
                bounds=[bounds, (0.0, 3.0)],
            )

    @pytest.mark.parametrize("bounds", [(-2.0, 5.0), (1.0, 1.0)])
    def test_finite_ranges_are_accepted(self, bounds):
        lp = LinearProgram(
            num_vars=2,
            objective=[1.0, 1.0],
            rows=[([(0, 1.0), (1, 1.0)], "<=", 3.0)],
            bounds=[bounds, (0.0, 3.0)],
        )
        assert simplex_solve(lp).value == pytest.approx(3.0, abs=1e-9)


class TestSimplex:
    def test_box_corner(self):
        lp = LinearProgram(
            num_vars=2,
            objective=[1.0, 1.0],
            rows=[([(0, 1.0), (1, 1.0)], "<=", 1.0)],
            bounds=[(0.0, 1.0), (0.0, 1.0)],
        )
        out = simplex_solve(lp)
        assert out.status == "optimal"
        assert out.value == pytest.approx(1.0, abs=1e-9)
        assert out.x[0] + out.x[1] == pytest.approx(1.0, abs=1e-9)

    def test_upper_bound_becomes_active(self):
        lp = LinearProgram(
            num_vars=2,
            objective=[2.0, 1.0],
            rows=[([(0, 1.0), (1, 1.0)], "<=", 1.5)],
            bounds=[(0.0, 1.0), (0.0, 1.0)],
        )
        out = simplex_solve(lp)
        assert out.status == "optimal"
        assert out.value == pytest.approx(2.5, abs=1e-9)
        assert tuple(np.round(out.x, 9)) == (1.0, 0.5)

    def test_negative_lower_bound(self):
        lp = LinearProgram(
            num_vars=1,
            objective=[-1.0],
            rows=[([(0, 1.0)], "<=", 5.0)],
            bounds=[(-2.0, 5.0)],
        )
        out = simplex_solve(lp)
        assert out.status == "optimal"
        assert out.value == pytest.approx(2.0, abs=1e-9)
        assert out.x[0] == pytest.approx(-2.0, abs=1e-9)

    def test_infeasible_after_an_added_row(self):
        lp = LinearProgram(num_vars=1, objective=[1.0], rows=[], bounds=[(0.0, 1.0)])
        tableau = SimplexTableau(lp)
        assert tableau.add_rows(lp.rows).status == "optimal"
        assert tableau.add_rows([([(0, 1.0)], ">=", 2.0)]).status == "infeasible"

    def test_no_rows_leave_the_cost_directed_start(self):
        # a fresh tableau holds none of the LP's rows: each variable sits at
        # the bound its cost points to, the optimum of the row-free LP
        lp = LinearProgram(
            num_vars=3,
            objective=[2.0, -1.0, 0.0],
            rows=[([(0, 1.0)], "<=", 0.5)],
            bounds=[(-1.0, 3.0), (-2.0, 4.0), (0.5, 2.0)],
        )
        tableau = SimplexTableau(lp)
        assert tableau.status == "optimal"
        out = tableau.add_rows([])
        assert out.status == "optimal"
        assert out.x.tolist() == [3.0, -2.0, 0.5]
        assert out.value == 8.0
        assert tableau.pivots == {"dual": 0, "degenerate": 0}
        assert tableau.add_rows(lp.rows).value == pytest.approx(3.0, abs=1e-9)

    def test_infeasible_cold(self):
        lp = LinearProgram(
            num_vars=2,
            objective=[1.0, -1.0],
            rows=[([(0, 1.0), (1, 1.0)], ">=", 3.0)],
            bounds=[(0.0, 1.0), (0.0, 1.0)],
        )
        assert simplex_solve(lp).status == "infeasible"

    def test_start_violating_a_row_is_repaired(self):
        # no phase 1: each variable starts at the bound its objective
        # coefficient points to, and the dual simplex drives out every row
        # that start violates
        lp = LinearProgram(
            num_vars=2,
            objective=[1.0, 1.0],
            rows=[([(0, 1.0)], ">=", 0.5)],
            bounds=[(0.0, 1.0), (0.0, 1.0)],
        )
        assert simplex_solve(lp).value == pytest.approx(2.0, abs=1e-9)
        lp.objective = -lp.objective  # now the start (0, 0) violates the row
        tableau = SimplexTableau(lp)
        out = tableau.add_rows(lp.rows)
        assert out.value == pytest.approx(-0.5, abs=1e-9)
        assert tuple(np.round(out.x, 9)) == (0.5, 0.0)
        assert tableau.pivots["dual"] == 1

    def test_survives_classic_degenerate_cycle(self):
        # a tableau known to cycle under naive largest-coefficient pivoting
        lp = LinearProgram(
            num_vars=4,
            objective=[0.75, -150.0, 0.02, -6.0],
            rows=[
                ([(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)], "<=", 0.0),
                ([(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)], "<=", 0.0),
                ([(2, 1.0)], "<=", 1.0),
            ],
            bounds=[(0.0, 1.0)] * 4,
        )
        out = simplex_solve(lp)
        assert out.status == "optimal"
        assert out.value == pytest.approx(0.05, abs=1e-9)
        assert tuple(np.round(out.x, 9)) == (0.04, 0.0, 1.0, 0.0)


def random_program(seed):
    """A seeded LP in a finite box. Each rhs lies within 3 of the row's
    value at the lower-bound vertex, on either side, so some rows cut that
    vertex off and some LPs are infeasible."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    m = rng.randint(1, 5)
    objective = [float(rng.randint(-3, 3)) for _ in range(n)]
    bounds = [(rng.choice((0.0, 0.0, -1.0)), rng.choice((1.0, 2.0, 3.0))) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [(j, float(rng.randint(-3, 3))) for j in range(n) if rng.random() < 0.7]
        if not coeffs:
            coeffs = [(rng.randrange(n), 1.0)]
        sense = rng.choice(("<=", "<=", ">="))
        at = sum(c * bounds[j][0] for j, c in coeffs)
        room = float(rng.randint(-3, 3))
        rows.append((coeffs, sense, at + room if sense == "<=" else at - room))
    return LinearProgram(num_vars=n, objective=objective, rows=rows, bounds=bounds)


def reference_solve(lp):
    A_ub, b_ub = [], []
    for coeffs, sense, rhs in lp.rows:
        dense = np.zeros(lp.num_vars)
        for j, c in coeffs:
            dense[j] += c
        sign = 1.0 if sense == "<=" else -1.0
        A_ub.append(sign * dense)
        b_ub.append(sign * rhs)
    res = linprog(
        c=-lp.objective,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        bounds=list(lp.bounds),
        method="highs",
    )
    status = {0: "optimal", 2: "infeasible"}.get(res.status)
    return status, (-res.fun if res.status == 0 else None)


def cutting_row(lp, x, rng):
    """A seeded row of either sense that the point x violates by 0.5 to 2."""
    coeffs = [(j, float(rng.randint(-3, 3))) for j in range(lp.num_vars) if rng.random() < 0.7]
    coeffs = [(j, c) for j, c in coeffs if c] or [(rng.randrange(lp.num_vars), 1.0)]
    at_x = sum(c * x[j] for j, c in coeffs)
    gap = rng.choice((0.5, 1.0, 2.0))
    sense = rng.choice(("<=", ">="))
    return (coeffs, sense, at_x - gap if sense == "<=" else at_x + gap)


SEEDS = range(40)
OPTIMAL_SEEDS = [s for s in SEEDS if simplex_solve(random_program(s)).status == "optimal"]


def grow_by_cutting_rows(seed, batch=1):
    """Solve random_program(seed), then append 1-3 seeded batches of `batch`
    rows in one add_rows each, every row cutting off the optimum before its
    batch. Returns the tableau and (grown LP, outcome) after each append, up
    to the first outcome that is not optimal."""
    lp = random_program(seed)
    rng = random.Random(2000 + seed)
    tableau = SimplexTableau(lp)
    out = tableau.add_rows(lp.rows)
    rows = list(lp.rows)
    steps = []
    for _ in range(rng.randint(1, 3)):
        added = [cutting_row(lp, out.x, rng) for _ in range(batch)]
        assert not any(rows_satisfied(out.x, [row], tol=0.25) for row in added)
        rows.extend(added)
        out = tableau.add_rows(added)
        steps.append((LinearProgram(lp.num_vars, lp.objective, list(rows), lp.bounds), out))
        if out.status != "optimal":
            break
    return tableau, steps


class TestResidualAudit:
    """_finish audits every row, cuts included, and every bound at the point
    the tableau reports, and raises when one is off by more than 1e-6."""

    @staticmethod
    def corrupted(value, cut=False):
        # max x0 + 2 x1, x0 + x1 <= 1.5 (x0 = 0.5 basic, x1 = 1), and with
        # cut the row x0 <= 0.25 (x0 = 0.25 basic); then x0 := value
        lp = LinearProgram(
            num_vars=2,
            objective=[1.0, 2.0],
            rows=[([(0, 1.0), (1, 1.0)], "<=", 1.5)],
            bounds=[(0.0, 1.0), (0.0, 1.0)],
        )
        tableau = SimplexTableau(lp)
        out = tableau.add_rows(lp.rows)
        if cut:
            out = tableau.add_rows([([(0, 1.0)], "<=", 0.25)])
        assert out.status == "optimal"
        assert out.x.tolist() == [0.25 if cut else 0.5, 1.0]
        tableau.xB[tableau.basis.tolist().index(0)] = value
        return tableau

    def test_clean_optimum_passes(self):
        for cut in (False, True):
            assert self.corrupted(0.25 if cut else 0.5, cut)._finish("optimal").status == "optimal"

    def test_base_row_violation_raises(self):
        # x0 + x1 = 1.9 > 1.5, x0 inside its bounds
        with pytest.raises(NumericalInstabilityError, match="violates a row by") as info:
            self.corrupted(0.9)._finish("optimal")
        assert float(str(info.value).split()[-1]) == pytest.approx(0.4, abs=1e-12)

    def test_cut_row_violation_raises(self):
        # x0 = 0.4 > 0.25 on the added row only
        with pytest.raises(NumericalInstabilityError, match="violates a row by") as info:
            self.corrupted(0.4, cut=True)._finish("optimal")
        assert float(str(info.value).split()[-1]) == pytest.approx(0.15, abs=1e-12)

    def test_bound_violation_raises(self):
        # x0 = -0.5 satisfies both rows but not x0 >= 0
        with pytest.raises(NumericalInstabilityError, match="violates a variable bound"):
            self.corrupted(-0.5, cut=True)._finish("optimal")

    def test_violations_within_the_tolerance_pass(self):
        assert self.corrupted(0.25 + 5e-7, cut=True)._finish("optimal").status == "optimal"
        assert self.corrupted(-5e-7, cut=True)._finish("optimal").status == "optimal"


class TestSimplexAgainstReferenceSolver:
    def assert_matches_reference(self, lp, ours):
        ref_status, ref_value = reference_solve(lp)
        assert ref_status is not None, "reference solver gave no verdict"
        assert ours.status == ref_status
        if ours.status == "optimal":
            tol = 1e-6 * max(1.0, abs(ref_value))
            assert abs(ours.value - ref_value) <= tol
            assert rows_satisfied(ours.x, lp.rows, tol=1e-6)
            for j, (lo, hi) in enumerate(lp.bounds):
                assert ours.x[j] >= lo - 1e-7
                assert ours.x[j] <= hi + 1e-7

    @pytest.mark.parametrize("seed", SEEDS)
    def test_status_and_value_match(self, seed):
        lp = random_program(seed)
        self.assert_matches_reference(lp, simplex_solve(lp))

    def test_seeds_cover_every_cold_status(self):
        # every variable is boxed, so no LP is unbounded
        statuses = {simplex_solve(random_program(seed)).status for seed in SEEDS}
        assert statuses == {"optimal", "infeasible"}

    @pytest.mark.parametrize("batch", [1, 2, 3])
    @pytest.mark.parametrize("seed", OPTIMAL_SEEDS)
    def test_appended_rows_match_a_cold_reference_solve(self, seed, batch):
        # the warm dual re-solve must agree with HiGHS on the grown LP after
        # every append of one row or of a batch
        tableau, steps = grow_by_cutting_rows(seed, batch)
        for grown, out in steps:
            self.assert_matches_reference(grown, out)
        if out.status != "optimal":
            with pytest.raises(SolveError):
                tableau.add_rows([grown.rows[-1]])

    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_appended_rows_cover_both_outcomes_and_the_dual(self, batch):
        runs = [grow_by_cutting_rows(seed, batch) for seed in OPTIMAL_SEEDS]
        assert len(runs) >= 10
        assert {out.status for _, steps in runs for _, out in steps} == {
            "optimal",
            "infeasible",
        }
        assert sum(tableau.pivots["dual"] for tableau, _ in runs) > 0
        # seeds whose first append has every row nonzero on a column basic
        # at the cold optimum, so each row is written in that basis
        touched = 0
        for seed, (_, steps) in zip(OPTIMAL_SEEDS, runs):
            lp = random_program(seed)
            tableau = SimplexTableau(lp)
            tableau.add_rows(lp.rows)
            basic = set(tableau.basis.tolist())
            added = steps[0][0].rows[len(lp.rows):]
            assert len(added) == batch
            touched += all(any(j in basic for j, _ in coeffs) for coeffs, _, _ in added)
        assert touched >= 5

    def test_blands_rule_from_the_first_pivot(self, monkeypatch):
        # Bland's rule, forced from the first pivot, keeps every cold and warm
        # answer and the converged cycle bound of a fixture
        model = random_tied_pairwise(1)
        default = cutting_plane_map(model, MapOptions(polytope="cycle"))
        monkeypatch.setattr(solve_module, "_BLAND_AFTER", -1)
        for seed in SEEDS:
            lp = random_program(seed)
            self.assert_matches_reference(lp, simplex_solve(lp))
        for seed in OPTIMAL_SEEDS:
            for grown, out in grow_by_cutting_rows(seed)[1]:
                self.assert_matches_reference(grown, out)
        bland = cutting_plane_map(model, MapOptions(polytope="cycle"))
        assert bland.status == default.status == "optimal"
        assert bland.cuts_added
        assert abs(bland.objective - default.objective) <= 1e-9
        assert bland.objective >= exact_enumerate(model).map_value - 1e-9


def row_batches(seed, batch):
    """random_program(seed) and the row batches grow_by_cutting_rows(seed,
    batch) hands its tableau: the LP's rows, then each appended batch."""
    lp = random_program(seed)
    batches = [lp.rows]
    for grown, _ in grow_by_cutting_rows(seed, batch)[1]:
        batches.append(grown.rows[sum(map(len, batches)):])
    return lp, batches


class TestTableauAgainstTheDenseTableau:
    """SimplexTableau keeps one column per nonbasic variable. The dense
    tableau it replaced (reference.DenseTableau) also keeps a unit column
    per basic variable; both take the same pivots to the same bits.

    The random LPs' ratio ties almost never leave the entering variable to
    the tie order, so the fixtures' local LPs, whose ties do, are replayed
    too."""

    @pytest.mark.parametrize("bland_after", [solve_module._BLAND_AFTER, -1])
    def test_same_pivots_and_bits_after_every_add_rows(self, monkeypatch, bland_after):
        monkeypatch.setattr(solve_module, "_BLAND_AFTER", bland_after)
        programs = [random_program(seed) for seed in SEEDS]
        programs += [build_local_lp(model) for model in (ex1(), triangle(), triple_parity(), cycle_model(6))]
        programs = [(lp, [lp.rows]) for lp in programs]
        programs += [row_batches(seed, batch) for batch in (1, 2, 3) for seed in OPTIMAL_SEEDS]
        for lp, batches in programs:
            ours, dense = SimplexTableau(lp), DenseTableau(lp)
            for rows in batches:
                out, ref = ours.add_rows(rows), dense.add_rows(rows)
                assert out.status == ref.status
                assert ours.pivots == dense.pivots
                if out.status == "optimal":
                    assert np.array_equal(out.x, ref.x) and out.value == ref.value

    @pytest.mark.parametrize("batch", [1, 2])
    def test_tableau_is_rows_by_variables_and_c_ordered(self, batch):
        # a pivot updates T through T.reshape(-1), which is a view only of a
        # C-ordered T: on any other it is a copy, and the update is lost
        for seed in OPTIMAL_SEEDS:
            lp, batches = row_batches(seed, batch)
            tableau = SimplexTableau(lp)
            added = 0
            for rows in batches:
                tableau.add_rows(rows)
                added += len(rows)
                assert tableau.T.shape == (added, lp.num_vars)
                assert tableau.T.flags.c_contiguous


# ---------------------------------------------------------------------------
# mirror-graph shortest paths


TRI_EDGES = ((0, 1), (1, 2), (0, 2))
DYADIC = (0.0, 0.25, 0.5, 1.0)  # sums of these tie often
# edges (edge orbit, cell a, cell b) of up to 7 cells: parallel edges and
# self-loops, which may share an edge orbit's weights
MIRROR_MULTIGRAPH = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 6), st.integers(0, 6)), max_size=14
)


def tri(cut_w, nocut_w):
    return [(u, v, cut_w, nocut_w) for u, v in TRI_EDGES]


def walk(edges, source, bound=np.inf):
    """mirror_walk over edges (a, b, cut_w, nocut_w), the k-th keyed k."""
    graph = StabilizedGraph(
        sources=((0, source),), edges=tuple((k, a, b) for k, (a, b, _, _) in enumerate(edges))
    )
    weights = mirror_weights([e[2] for e in edges], [e[3] for e in edges])
    return mirror_walk(graph.mirror, weights, source, bound)


class TestMirrorShortestPath:
    def test_free_crossings_take_every_edge(self):
        steps, total = walk(tri(cut_w=1.0, nocut_w=0.0), 0)
        assert total == pytest.approx(0.0, abs=1e-12)
        assert len(steps) == 3
        assert all(crossed for _, crossed in steps)

    def test_expensive_crossings_take_exactly_one(self):
        steps, total = walk(tri(cut_w=0.0, nocut_w=1.0), 0)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert sum(crossed for _, crossed in steps) == 1

    def test_self_loop_switches_copies(self):
        steps, total = walk([(0, 0, 0.7, 0.125)], 0)
        assert total == pytest.approx(0.125, abs=1e-12)
        assert steps == ((0, True),)

    def test_unreachable_mirror(self):
        steps, total = walk([(1, 2, 0.1, 0.2)], 0)
        assert steps is None
        assert total == np.inf

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(0, 5),
                st.sampled_from((0.0, 0.125, 0.25, 0.5, 0.75, 1.0)),
                st.sampled_from((0.0, 0.125, 0.25, 0.5, 0.75, 1.0)),
            ),
            max_size=12,
        ),
        st.integers(0, 5),
        st.sampled_from((0.0, 0.125, 0.25, 0.5, 0.75, 1.0 - 1e-6, 1.0, 1.5)),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounded_walk_is_the_unbounded_one_within_its_bound(self, edges, source, bound):
        # dyadic weights make ties at the bound common
        unbounded = walk(edges, source)
        bounded = walk(edges, source, bound)
        if unbounded[1] <= bound:
            assert bounded == unbounded
        else:
            assert bounded == (None, np.inf)

    @given(
        MIRROR_MULTIGRAPH,
        st.lists(
            st.tuples(st.sampled_from((-0.5, 0.0, 0.5, 1.0)), st.sampled_from((-1.0, 0.0, 0.5, 1.0))),
            min_size=4, max_size=4,
        ),
        st.integers(0, 7),
        st.sampled_from((np.inf, 0.0, 0.5, 1.0 - 1e-6, 1.0, 1.5)),
    )
    @settings(max_examples=400, deadline=None)
    def test_walk_is_the_tuple_keyed_reference_walk(self, edges, orbit_weights, source, bound):
        # multigraphs whose parallel edges and self-loops may share an edge
        # orbit's weights, ties from {0, 0.5, 1}, negative weights clamped,
        # source 7 on no edge: the same steps and total, to the bit
        graph = StabilizedGraph(sources=((0, source),), edges=tuple(edges))
        cut, nocut = zip(*orbit_weights)
        got = mirror_walk(graph.mirror, mirror_weights(cut, nocut), source, bound)
        adj = reference_mirror_graph((e, a, b, cut[e], nocut[e]) for e, a, b in edges)
        assert got == reference_mirror_walk(adj, source, bound)

    @given(
        MIRROR_MULTIGRAPH,
        st.lists(st.tuples(st.sampled_from(DYADIC), st.sampled_from(DYADIC)), min_size=4, max_size=4),
        st.integers(0, 7),
        st.lists(st.integers(0, 7), max_size=4, unique=True),
        st.sampled_from((np.inf, 0.0, 0.5, 1.0 - 1e-6, 1.0, 1.5)),
    )
    @settings(max_examples=300, deadline=None)
    def test_blocked_walk_is_the_reference_walk_without_the_blocked_cells(
        self, edges, orbit_weights, source, blocked, bound
    ):
        # -inf in the starting dist list keeps the walk out of a cell's two
        # mirror nodes, as if the cell and its edges were not there
        blocked = set(blocked) - {source}
        graph = StabilizedGraph(sources=((0, source),), edges=tuple(edges))
        cut, nocut = zip(*orbit_weights)
        dist = [-math.inf if node // 2 in blocked else math.inf for node in range(len(graph.mirror))]
        got = mirror_walk(graph.mirror, mirror_weights(cut, nocut), source, bound, dist)
        kept = [(e, a, b) for e, a, b in edges if a not in blocked and b not in blocked]
        adj = reference_mirror_graph((e, a, b, cut[e], nocut[e]) for e, a, b in kept)
        assert got == reference_mirror_walk(adj, source, bound)

    def test_negative_weights_clamp_to_zero(self):
        steps, total = walk(tri(cut_w=-1.0, nocut_w=-0.5), 0)
        assert total == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_random_graphs_odd_parity_and_cost(self, seed):
        rng = random.Random(seed)
        n = 5
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    cut_w = round(rng.uniform(0.0, 1.0), 3)
                    nocut_w = round(rng.uniform(0.0, 1.0), 3)
                    edges.append((i, j, cut_w, nocut_w))
        steps, total = walk(edges, 0)
        if steps is None:
            assert total == np.inf
            return
        assert sum(crossed for _, crossed in steps) % 2 == 1
        recomputed = sum(edges[k][3] if crossed else edges[k][2] for k, crossed in steps)
        assert total == pytest.approx(recomputed, abs=1e-12)

    def test_mirror_graph_is_built_once_and_not_compared(self):
        # the adjacency is cached on the graph and stays out of ==
        graph = StabilizedGraph(sources=((0, 0),), edges=((0, 0, 1), (1, 1, 2), (2, 0, 2)))
        assert graph.mirror is graph.mirror
        assert graph == StabilizedGraph(sources=graph.sources, edges=graph.edges)


# ---------------------------------------------------------------------------
# cycle separation


class TestGroundSeparation:
    def test_matches_enumeration_on_frustrated_triangle(self):
        model = triangle()
        tau = frustrated_point(model)
        cut = separate_cycles_ground(model, tau)
        assert cut is not None
        assert cut.lhs == pytest.approx(0.0, abs=1e-12)
        enumerated = enumerate_cycle_constraints(model, tau, max_len=6)
        assert min(lhs for _, _, lhs in enumerated) == pytest.approx(cut.lhs, abs=1e-12)

    def test_matches_enumeration_at_relaxation_optimum(self):
        model = cycle_model(5)
        tau = overcomplete_point(cutting_plane_map(model).tau, model)
        cut = separate_cycles_ground(model, tau)
        enumerated = enumerate_cycle_constraints(model, tau, max_len=6)
        violated = [lhs for _, _, lhs in enumerated if lhs < 1.0 - 1e-6]
        assert violated, "relaxation optimum should violate a cycle here"
        assert cut is not None
        assert cut.lhs == pytest.approx(min(violated), abs=1e-9)

    def test_silent_at_integral_points(self):
        model = triangle()
        layout = OvercompleteLayout(model)
        for x in np.ndindex(2, 2, 2):
            assert separate_cycles_ground(model, layout.phi_vector(tuple(x))) is None

    def test_silent_at_uniform_point(self):
        for model in (triangle(), cycle_model(5)):
            tau = overcomplete_point(uniform_interior(trivial_or_lifted(model)), model)
            assert separate_cycles_ground(model, tau) is None

    def test_constraint_row_holds_at_integral_points(self):
        # a ground model's rows are those of its trivial lift, whose edge
        # orbit k is the k-th skeleton edge
        model = triangle()
        layout = OvercompleteLayout(model)
        steps = tuple((k, True) for k in range(len(layout.edges)))
        row, sense, rhs = constraint_row(
            CycleConstraint(steps=steps, lhs=0.0, source=0),
            trivial_or_lifted(model),
        )
        assert (sense, rhs) == (">=", 1.0)
        values = []
        for x in np.ndindex(2, 2, 2):
            mu = lp_point(layout.phi_vector(tuple(x)), model)
            values.append(sum(c * mu[j] for j, c in row))
        # an odd cycle cannot disagree on every edge, so the row is tight at 1
        assert min(values) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 1.0 - 1e-12 for v in values)


class TestLiftedSeparation:
    @pytest.mark.parametrize("model", [triangle(), cycle_model(5), circulant_7_1_3()])
    def test_matches_ground_at_symmetric_points(self, model):
        sym = GeneratorSymmetries(model)
        lifted = build_lifted_model(model, sym)
        stabilized = build_stabilized_graphs(lifted)
        tau = frustrated_point(model)
        ground_cut = separate_cycles_ground(model, tau)
        lifted_cut = separate_cycles_lifted(lifted, stabilized, lp_point(tau, lifted))
        assert ground_cut is not None and lifted_cut is not None
        assert lifted_cut.lhs == pytest.approx(ground_cut.lhs, abs=1e-9)
        row, sense, rhs = constraint_row(lifted_cut, lifted)
        assert (sense, rhs) == (">=", 1.0)
        assert all(0 <= j <= lifted.num_cells for j, _ in row)

    def test_circulant_lifted_cycle_objective_matches_ground(self):
        model = circulant_7_1_3()
        lifted = build_lifted_model(model, GeneratorSymmetries(model))
        opts = MapOptions(polytope="cycle")
        ground = cutting_plane_map(model, opts)
        assert ground.objective == pytest.approx(-4.0, abs=1e-9)
        assert cutting_plane_map(lifted, opts).objective == pytest.approx(-4.0, abs=1e-9)

    @pytest.mark.parametrize("source", ["search", "none"])
    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_matches_ground_at_the_overcomplete_point_of_the_same_moments(self, name, source):
        # the uniform, local and one-cut points of a lifted run, read by
        # ground separation as the overcomplete vectors of their moments
        model = FIXTURES[name]()
        make = {"search": GeneratorSymmetries, "none": TrivialSymmetries}[source]
        lifted = build_lifted_model(model, make(model))
        stabilized = build_stabilized_graphs(lifted)
        local = cutting_plane_map(lifted)
        one_cut = cutting_plane_map(lifted, MapOptions(polytope="cycle", max_cuts=1))
        for x in (uniform_interior(lifted), local.tau, one_cut.tau):
            lifted_cut = separate_cycles_lifted(lifted, stabilized, x)
            ground_cut = separate_cycles_ground(model, overcomplete_point(x, lifted))
            assert (lifted_cut is None) == (ground_cut is None)
            if lifted_cut is not None:
                assert abs(lifted_cut.lhs - ground_cut.lhs) <= 1e-9

    def test_silent_at_lifted_uniform(self):
        model = triangle()
        lifted = build_lifted_model(model, GeneratorSymmetries(model))
        stabilized = build_stabilized_graphs(lifted)
        assert separate_cycles_lifted(lifted, stabilized, uniform_interior(lifted)) is None

    @pytest.mark.parametrize(
        "name,source",
        [(name, source) for name in
         ("ex1", "triangle", "cycle6", "frucht", "fully_connected5", "triple_parity",
          "unary_logistic", "circulant_7_1_3") for source in ("search", "none")]
        + [("random%d" % seed, "search") for seed in range(10)]
        + [(name, source) for name in ("lovers_smokers_3", "lovers_smokers_5", "q2")
           for source in ("renaming", "search")],
    )
    def test_stabilized_graphs_match_the_stabilized_edge_partition(self, name, source, models_dir):
        gmap = None
        if name.startswith("lovers_smokers"):
            model, gmap = ground_mln(parse_mln(LOVERS_SMOKERS_MLN), domain_size=int(name[-1]))
        elif name == "q2":
            evidence = parse_evidence((models_dir / "q2.evidence").read_text())
            model, gmap = ground_mln(parse_mln((models_dir / "q2.mln").read_text()), 3, evidence)
        elif name.startswith("random"):
            model = random_tied_pairwise(int(name[len("random"):]))
        else:
            model = {"ex1": ex1, "triangle": triangle, "cycle6": lambda: cycle_model(6),
                     "frucht": frucht, "fully_connected5": lambda: fully_connected_symmetric(5),
                     "triple_parity": lambda: triple_parity(4), "unary_logistic": unary_logistic,
                     "circulant_7_1_3": circulant_7_1_3}[name]()
        make = {"search": GeneratorSymmetries, "none": TrivialSymmetries,
                "renaming": lambda m: RenamingSymmetries(m, gmap)}
        lifted = build_lifted_model(model, make[source](model))
        assert build_stabilized_graphs(lifted) == stabilized_graphs_from_edge_orbits(lifted)


def shipped_lift(name, source, models_dir):
    """A shipped model, or a fixture if name is not a file of models_dir,
    lifted under source: "none" (the trivial group), "search" or, for an
    MLN grounded at domain size 3, "renaming"."""
    gmap = None
    if name.endswith(".mln"):
        evidence = models_dir / name.replace(".mln", ".evidence")
        evidence = parse_evidence(evidence.read_text() if evidence.exists() else "")
        model, gmap = ground_mln(parse_mln((models_dir / name).read_text()), 3, evidence)
    elif name.endswith(".fgm"):
        model = parse_model((models_dir / name).read_text())
    else:
        model = FIXTURES[name]()
    make = {"search": GeneratorSymmetries, "none": TrivialSymmetries,
            "renaming": lambda m: RenamingSymmetries(m, gmap)}
    return build_lifted_model(model, make[source](model))


SHIPPED = ("ex1.fgm", "frucht.fgm", "triangle.fgm", "triple_parity.fgm",
           "friends.mln", "lovers_smokers.mln", "q2.mln")


class TestSeparationSkipsEarlierSources:
    """Each source's walk stays out of the sources of its graph searched
    before it, and the most violated walk is the one of the loop that
    searches every source from scratch, to the bit."""

    @given(
        st.lists(
            st.tuples(MIRROR_MULTIGRAPH, st.lists(st.integers(0, 7), min_size=2, max_size=8, unique=True)),
            min_size=1, max_size=2,
        ),
        st.lists(st.tuples(st.sampled_from(DYADIC), st.sampled_from(DYADIC)), min_size=4, max_size=4),
        st.permutations(range(16)),
    )
    @settings(max_examples=400, deadline=None)
    def test_most_violated_is_the_reference_loop(self, graphs, orbit_weights, orbits):
        # 2-8 sources share each graph, their orbits increasing in search
        # order; a second graph's orbits interleave with the first's
        orbits = iter(orbits)
        built = []
        for edges, cells in graphs:
            ks = sorted(next(orbits) for _ in cells)
            built.append(StabilizedGraph(sources=tuple(zip(ks, cells)), edges=tuple(edges)))
        weights = mirror_weights(*zip(*orbit_weights))
        assert _most_violated(built, weights) == reference_most_violated(built, weights, CYCLE_TOL)

    @pytest.mark.parametrize(
        "name,source",
        [(name, source) for name in FIXTURES for source in ("search", "none")]
        + [(name, source) for name in SHIPPED for source in ("search", "none")]
        + [(name, "renaming") for name in SHIPPED if name.endswith(".mln")],
    )
    def test_separation_is_the_reference_loop_at_random_points(self, name, source, models_dir):
        lifted = shipped_lift(name, source, models_dir)
        graphs = build_stabilized_graphs(lifted)
        rng = random.Random("%s:%s" % (name, source))
        for trial in range(8):
            # dyadic moments make tied walks common, uniform ones rare
            draw = (lambda: rng.choice((0.0, 0.25, 0.5, 0.75, 1.0))) if trial % 2 else rng.random
            x = np.array([1.0] + [draw() for _ in range(lifted.num_cells)])
            cut = []
            for cells in lifted.edge_tables:
                _, v, u, uv = (c + 1 for c in cells)
                cut.append((x[v] - x[uv]) + (x[u] - x[uv]))
            cut = np.array(cut)
            want = reference_most_violated(graphs, mirror_weights(cut, 1.0 - cut), CYCLE_TOL)
            got = separate_cycles_lifted(lifted, graphs, x)
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.steps, got.lhs, got.source) == want


# ---------------------------------------------------------------------------
# local relaxation structure


class TestLocalRelaxation:
    def test_pairwise_shape(self):
        # the constant, 4 node and 5 edge moments; 3 rows per edge (00, 01, 10)
        model = ex1()
        lp = build_local_lp(model)
        assert (lp.num_vars, len(lp.rows)) == (10, 15)
        assert lp.bounds == [(1.0, 1.0)] + [(0.0, 1.0)] * 9
        reference, _ = reference_local_lp(overcomplete_lift(model))
        assert lp.objective == pytest.approx(reference.objective, abs=1e-12)

        lifted = build_lifted_model(model, GeneratorSymmetries(model))
        lp_bar = build_local_lp(lifted)
        assert (lp_bar.num_vars, len(lp_bar.rows)) == (5, 5)
        reference, _ = reference_local_lp(overcomplete_lift(lifted))
        assert lp_bar.objective == pytest.approx(reference.objective, abs=1e-12)

    def test_higher_order_shape(self):
        # plus one moment per triple; 7 rows per triple, its 111 cell being a bound
        model = triple_parity(4)
        lp = build_local_lp(model)
        assert (lp.num_vars, len(lp.rows)) == (15, 46)
        lifted = build_lifted_model(model, GeneratorSymmetries(model))
        lp_bar = build_local_lp(lifted)
        assert (lp_bar.num_vars, len(lp_bar.rows)) == (4, 5)

    @pytest.mark.parametrize("model", [ex1(), triangle(), triple_parity(4)])
    def test_uniform_point_is_feasible(self, model):
        # the uniform distribution's moments satisfy every row, and their
        # point is the uniform point
        for target in (model, build_lifted_model(model, GeneratorSymmetries(model))):
            lp = build_local_lp(target)
            lm = trivial_or_lifted(target)
            x = uniform_moments(lm)
            assert rows_satisfied(x, lp.rows, tol=0.0)
            assert uniform_interior(lm).tobytes() == x.tobytes()

    @pytest.mark.parametrize(
        "name, sources",
        [
            ("ex1", ("search", "none")),
            ("triangle", ("search", "none")),
            ("frucht", ("search", "none")),
            ("triple_parity", ("search", "none")),
            ("lovers_smokers_3", ("renaming", "search")),
            ("lovers_smokers_5", ("renaming", "search")),
            ("q2", ("renaming", "search")),
        ],
    )
    def test_lifted_uniform_is_bitwise_the_cell_average(self, name, sources, models_dir):
        # the ground uniform point's moments averaged over each cell are the
        # reference: the cells hold identical powers of two
        if name.startswith("lovers_smokers"):
            d = int(name[-1])
            model, gmap = ground_mln(parse_mln(LOVERS_SMOKERS_MLN), domain_size=d)
        elif name == "q2":
            evidence = parse_evidence((models_dir / "q2.evidence").read_text())
            q2 = parse_mln((models_dir / "q2.mln").read_text())
            model, gmap = ground_mln(q2, 3, evidence)
        else:
            model = {"ex1": ex1, "triangle": triangle, "frucht": frucht,
                     "triple_parity": lambda: triple_parity(4)}[name]()
        make = {"search": GeneratorSymmetries, "none": TrivialSymmetries,
                "renaming": lambda m: RenamingSymmetries(m, gmap)}
        ground = np.array([
            0.5 if key[0] == "node" else 0.25 if key[0] == "edge" else 2.0 ** -len(key[2])
            for key in OvercompleteLayout(model).keys
        ])
        for source in sources:
            lm = build_lifted_model(model, make[source](model))
            assert uniform_interior(lm).tobytes() == lp_point(ground, lm).tobytes()
            if name == "triple_parity":
                assert lm.factor_tables

    @pytest.mark.parametrize(
        "name", ["ex1", "triangle", "triple_parity", "frucht", "lovers_smokers"]
    )
    @pytest.mark.parametrize("space", ["ground", "lifted"])
    def test_lower_bound_vertex_is_the_all_zeros_configuration(self, name, space):
        if name == "lovers_smokers":
            model, gmap = ground_mln(parse_mln(LOVERS_SMOKERS_MLN), domain_size=3)
            sym = RenamingSymmetries(model, gmap)
        else:
            model = {
                "ex1": ex1,
                "triangle": triangle,
                "triple_parity": lambda: triple_parity(4),
                "frucht": frucht,
            }[name]()
            sym = GeneratorSymmetries(model)
        # every moment at 0 is the all-zeros configuration, a feasible point
        target = model if space == "ground" else build_lifted_model(model, sym)
        lp = build_local_lp(target)
        x0 = np.array([lo for lo, _ in lp.bounds])
        assert x0.tolist() == [1.0] + [0.0] * (lp.num_vars - 1)
        zeros_phi = OvercompleteLayout(model).phi_vector([0] * model.num_vars)
        assert np.array_equal(overcomplete_point(x0, target), zeros_phi)
        assert rows_satisfied(x0, lp.rows, tol=0.0)
        zeros_score = score(model, [0] * model.num_vars)
        assert float(lp.objective @ x0) == pytest.approx(zeros_score, abs=1e-9)

    def test_start_solves_ground_lovers_smokers_like_highs(self):
        model, _ = ground_mln(parse_mln(LOVERS_SMOKERS_MLN), domain_size=3)
        lp = build_local_lp(model)
        out = simplex_solve(lp)
        ref_status, ref_value = reference_solve(lp)
        assert out.status == ref_status == "optimal"
        assert out.value == pytest.approx(310.5, abs=1e-6)
        assert ref_value == pytest.approx(310.5, abs=1e-6)
        assert rows_satisfied(out.x, lp.rows, tol=1e-6)

    def test_ground_lovers_smokers_d5_matches_highs_within_20s(self):
        model, _ = ground_mln(parse_mln(LOVERS_SMOKERS_MLN), domain_size=5)
        t0 = time.perf_counter()
        result = cutting_plane_map(model)
        elapsed = time.perf_counter() - t0
        ref_status, ref_value = reference_solve(build_local_lp(model))
        assert ref_status == "optimal"
        assert ref_value == pytest.approx(525.0, abs=1e-6)
        assert result.objective == pytest.approx(525.0, abs=1e-6)
        assert elapsed < 20.0, "took %.1f s: %r" % (elapsed, result.timings_ms)

    def test_rejects_wrong_space(self):
        with pytest.raises(SolveError):
            build_local_lp("not a model")


# ---------------------------------------------------------------------------
# MAP driver


class TestCuttingPlaneMap:
    def test_triangle_local_relaxation_is_loose(self):
        result = cutting_plane_map(triangle())
        assert result.status == "optimal"
        assert result.space == "ground"
        assert result.objective == pytest.approx(0.0, abs=1e-8)
        assert result.cuts_added == ()
        assert result.bounds == (pytest.approx(0.0, abs=1e-8),)
        assert result.decode["fractional"] is True

    def test_triangle_cycle_cuts_close_the_gap(self):
        model = triangle()
        result = cutting_plane_map(model, MapOptions(polytope="cycle"))
        exact = exact_enumerate(model)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(exact.map_value, abs=1e-8)
        assert result.objective == pytest.approx(-1.0, abs=1e-8)
        assert len(result.cuts_added) >= 1
        assert result.decode["fractional"] is False
        assert result.decode["score"] == pytest.approx(-1.0, abs=1e-12)

    def test_five_cycle_cuts_close_the_gap(self):
        model = cycle_model(5)
        result = cutting_plane_map(model, MapOptions(polytope="cycle"))
        assert result.status == "optimal"
        assert result.objective == pytest.approx(-1.0, abs=1e-8)

    def test_cut_budget_reports_cap(self):
        result = cutting_plane_map(triangle(), MapOptions(polytope="cycle", max_cuts=0))
        assert result.status == "cap"
        assert result.cuts_added == ()
        assert result.objective == pytest.approx(0.0, abs=1e-8)

    def test_run_needing_exactly_the_budget_is_optimal(self):
        result = cutting_plane_map(triangle(), MapOptions(polytope="cycle", max_cuts=1))
        assert result.status == "optimal"
        assert len(result.cuts_added) == 1
        assert result.objective == pytest.approx(-1.0, abs=1e-8)

    def test_zero_budget_without_a_violated_cycle_is_optimal(self):
        result = cutting_plane_map(ex1(), MapOptions(polytope="cycle", max_cuts=0))
        assert result.status == "optimal"
        assert result.cuts_added == ()
        assert result.objective == pytest.approx(4.0, abs=1e-8)

    def test_lifted_run_matches_ground(self):
        model = ex1()
        ground = cutting_plane_map(model)
        lifted_model = build_lifted_model(model, GeneratorSymmetries(model))
        lifted = cutting_plane_map(lifted_model)
        assert ground.objective == pytest.approx(4.0, abs=1e-8)
        assert lifted.objective == pytest.approx(4.0, abs=1e-8)
        assert (ground.num_lp_vars, lifted.num_lp_vars) == (10, 5)
        assert lifted.space == "lifted"
        assert ground.decode["score"] == pytest.approx(4.0, abs=1e-12)
        assert lifted.decode["score"] == pytest.approx(4.0, abs=1e-12)
        assert set(lifted.decode) == {
            "space",
            "orbit_reps",
            "orbit_values",
            "orbit_marginals",
            "fractional",
            "configuration",
            "score",
        }

    @pytest.mark.parametrize("seed", range(6))
    def test_bounds_shrink_toward_exact_value(self, seed):
        model = random_tied_pairwise(seed)
        result = cutting_plane_map(model, MapOptions(polytope="cycle"))
        for earlier, later in zip(result.bounds, result.bounds[1:]):
            assert later <= earlier + 1e-9
        exact = exact_enumerate(model)
        assert result.bounds[-1] >= exact.map_value - 1e-9

    @pytest.mark.parametrize(
        "model",
        [
            triangle(),
            cycle_model(5),
            fully_connected_symmetric(5, -1.0),
            random_tied_pairwise(1),
            random_tied_pairwise(9),
        ],
    )
    def test_warm_bounds_match_cold_solves(self, model):
        # bound k of the warm cut loop equals a cold solve of the base rows
        # plus the first k cuts
        result = cutting_plane_map(model, MapOptions(polytope="cycle"))
        assert result.cuts_added
        lp = build_local_lp(model)
        rows = list(lp.rows)
        for k, bound in enumerate(result.bounds):
            if k:
                rows.append(constraint_row(result.cuts_added[k - 1], trivial_or_lifted(model)))
            cold = simplex_solve(LinearProgram(lp.num_vars, lp.objective, rows, lp.bounds))
            assert cold.status == "optimal"
            assert abs(cold.value - bound) <= 1e-6

    def test_pivot_counts_are_deterministic(self):
        model = fully_connected_symmetric(5, -1.0)
        first = cutting_plane_map(model, MapOptions(polytope="cycle")).pivots
        second = cutting_plane_map(model, MapOptions(polytope="cycle")).pivots
        assert first == second
        assert set(first) == {"dual", "degenerate"}
        assert first["dual"] > 0

    def test_ground_run_builds_one_layout(self, monkeypatch):
        builds = []
        init = MomentLayout.__init__

        def counting_init(self, model):
            builds.append(model)
            init(self, model)

        monkeypatch.setattr(MomentLayout, "__init__", counting_init)
        result = cutting_plane_map(fully_connected_symmetric(5, -1.0), MapOptions(polytope="cycle"))
        assert result.cuts_added
        assert len(builds) == 1

    def test_lifted_search_run_searches_once(self, monkeypatch):
        searches = []
        search = symmetry.search_automorphisms

        def counting_search(graph):
            searches.append(graph)
            return search(graph)

        monkeypatch.setattr(symmetry, "search_automorphisms", counting_search)
        model, _ = ground_mln(parse_mln(LOVERS_SMOKERS_MLN), domain_size=3)
        lifted = build_lifted_model(model, GeneratorSymmetries(model))
        cutting_plane_map(lifted, MapOptions(polytope="cycle"))
        assert len(searches) == 1

    def test_rejects_unknown_polytope(self):
        with pytest.raises(SolveError):
            cutting_plane_map(triangle(), MapOptions(polytope="marginal"))

    def test_options_defaults(self):
        opts = MapOptions()
        assert opts.polytope == "local"
        assert opts.max_cuts == 200

    def test_result_dict_schema(self):
        result = cutting_plane_map(triangle(), MapOptions(polytope="cycle"))
        payload = result.as_dict()
        assert set(payload) == {
            "status",
            "space",
            "objective",
            "bounds",
            "cuts",
            "iterations",
            "lp",
            "decode",
            "timings_ms",
            "pivots",
        }
        assert set(payload["lp"]) == {"variables", "rows"}
        assert payload["cuts"] == len(result.cuts_added)

    def test_decode_integral_point(self):
        model = triangle()
        x = lp_point(OvercompleteLayout(model).phi_vector((0, 1, 0)), model)
        info = decode(x, trivial_or_lifted(model), "ground")
        assert info == {
            "space": "ground",
            "configuration": [0, 1, 0],
            "fractional": False,
            "score": -1.0,
        }


class TestGroundIsTheTrivialLift:
    @pytest.mark.parametrize("polytope", ["local", "cycle"])
    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_ground_run_is_the_trivial_lift_run(self, name, polytope):
        model = FIXTURES[name]()
        opts = MapOptions(polytope=polytope)
        ground = cutting_plane_map(model, opts)
        lifted = cutting_plane_map(build_lifted_model(model, TrivialSymmetries(model)), opts)
        assert (ground.space, lifted.space) == ("ground", "lifted")
        assert ground.status == lifted.status
        assert ground.objective == lifted.objective
        assert ground.bounds == lifted.bounds
        assert len(ground.cuts_added) == len(lifted.cuts_added)
        assert ground.pivots == lifted.pivots
        for key in ("configuration", "score", "fractional"):
            assert ground.decode[key] == lifted.decode[key]
        assert set(ground.decode) == {"space", "configuration", "fractional", "score"}


# ---------------------------------------------------------------------------
# the cut loop, pinned

# (ground cycle, lifted search cycle) per fixture; lovers_smokers3 is ground
# (local, cycle). Digests of the pivot counts, the cuts, the bounds and the
# decode: a change to the pivot path or to the walks moves them.
CUT_LOOP_PINS = {
    "ex1": ("e80500a44f867ae8", "fdd5e1b4f61d3eed"),
    "triangle": ("0344a3b18afb9969", "323919832f944580"),
    "cycle6": ("84f08b9e08119767", "aa1cef6e24a6f721"),
    "frucht": ("899ccfbd64eced20", "11cf77dd95e6b6fe"),
    "fully_connected5": ("b1989c764c279a6a", "086422709d57ced6"),
    "triple_parity": ("ad1128ac9006870e", "01d81f7cca0cffbd"),
    "unary_logistic": ("6a663fd2afcd6702", "9f37aa82f3dc411c"),
    "circulant_7_1_3": ("81bc1d0a4c94599f", "590b2af97aa47395"),
    "random0": ("180fa1a8617bf932", "5c9e80c5b74296fe"),
    "random1": ("f1ff8bdd3f129235", "004178538767472c"),
    "random2": ("da43794a3e6f829d", "d6b20a20787777c3"),
    "random3": ("d31c489c2f34beab", "d51d9b71309fac65"),
    "random4": ("355687aa7eece2bc", "c408b8d577516e64"),
    "random5": ("e42d658da00004c7", "d51f5d473d7cb512"),
    "random6": ("6af2b04d22de46a9", "522979689dd0337a"),
    "random7": ("5e6465214f3ee60a", "75d9789749dec446"),
    "random8": ("5ab131e247abc7d7", "d9ddb68c8c9f136f"),
    "random9": ("2163989e0d263e22", "f3f3736a2e210f71"),
    "random10": ("b57064e7d2d4ea60", "ff3de8536717067b"),
    "random11": ("b319a8dbd7dcedeb", "fea7bb0748957b69"),
    "random12": ("18fc2983d3abd2a4", "e05bfed2978107f9"),
    "random13": ("e42d658da00004c7", "d51f5d473d7cb512"),
    "random14": ("129339aced1fb2ee", "4717dd918c30ca23"),
    "random15": ("2bc6ce3fe0519c8d", "d0cca946b89c4e38"),
    "random16": ("d2917bf190baab37", "efb414f8b0503502"),
    "random17": ("9fdd6de334d87320", "db2f097d8f8c4fea"),
    "random18": ("d8f312195b3bf492", "86652d1c13def092"),
    "random19": ("43179536eeb351d8", "92ea6ed8eda1a37a"),
    "lovers_smokers3": ("ff9d168914ac2bbd", "9bac691b67a2c54b"),
}


def cut_loop_digest(result):
    cuts = [(tuple((int(k), bool(c)) for k, c in cut.steps), float(cut.lhs), int(cut.source))
            for cut in result.cuts_added]
    text = repr((result.status, sorted(result.pivots.items()), cuts,
                 tuple(float(b) for b in result.bounds)))
    text += json.dumps(result.decode, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_cut_loop_pivots_cuts_bounds_and_decodes_are_pinned():
    found = {}
    cycle = MapOptions(polytope="cycle")
    for name, make in FIXTURES.items():
        model = make()
        lifted = build_lifted_model(model, GeneratorSymmetries(model))
        found[name] = (cut_loop_digest(cutting_plane_map(model, cycle)),
                       cut_loop_digest(cutting_plane_map(lifted, cycle)))
    model = ground_mln(parse_mln(LOVERS_SMOKERS_MLN), domain_size=3)[0]
    found["lovers_smokers3"] = (cut_loop_digest(cutting_plane_map(model)),
                                cut_loop_digest(cutting_plane_map(model, cycle)))
    assert found == CUT_LOOP_PINS
