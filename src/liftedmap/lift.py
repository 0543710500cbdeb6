"""Collapse a ground model onto orbit cells of its moments.

The local LP is written over moments (see solve.py): mu_v = P(x_v = 1) per
variable, mu_uv = P(x_u = x_v = 1) per skeleton edge and, per arity >= 3
feature j, mu_{j,S} for each subset S of its scope with |S| >= 3, named by
the factor assignment with ones exactly on S. MomentLayout numbers these
ground moments in that order. A cell is an orbit of moments: one per
variable orbit, edge orbit and factor-moment orbit, numbered in that order,
which is the order of their first ground moment in the layout. Under the
trivial group every cell is one moment and cell i is moment i, so the
lifted model is the ground model column for column: ground inference is the
lift under the trivial group.

A feature's mean is its table's Moebius coefficients times the moments of
its scope subsets. Each ground moment's objective coefficient adds those of
the features over it, and the lifted parameters add the ground coefficients
within each cell, which requires them to be constant on every cell.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import Model, assignments, group_codes, moment_rank
from .symmetry import OrbitBundle


class LiftError(ValueError):
    """Orbits inconsistent with the model or mismatched dimensions."""


class MomentLayout:
    """The ground moments of one model, in layout order, and the moment of
    each scope subset of each feature.

    mu_v at index v; mu_uv at num_vars plus the edge's position in
    Model.edges; then each arity >= 3 feature j's factor moments (j, a), in
    table order of a, from num_vars + len(edges) + Model.factor_base[j] on.
    subset_moments[k] has a row per feature of arity k, in the order of
    Model.scope_arrays, and a column per scope subset s (indexed like an
    assignment, first scope position most significant): the ground moment
    of s, or size for the empty subset, whose moment is the constant 1.
    Built once per arity; theta and the lift's orbit tables read it.
    """

    def __init__(self, model: Model):
        self.model = model
        self.edges = model.edges
        self.factor_moments = model.factor_moments
        n = model.num_vars
        first = n + len(self.edges)
        self.size = first + len(self.factor_moments)
        self.subset_moments = {}
        for k, (js, scopes) in model.scope_arrays.items():
            at = np.empty((len(js), 2 ** k), dtype=np.int64)
            for s, a in enumerate(assignments(k)):
                ones = scopes[:, [p for p in range(k) if a[p]]]
                if ones.shape[1] == 0:
                    at[:, s] = self.size
                elif ones.shape[1] == 1:
                    at[:, s] = ones[:, 0]
                elif ones.shape[1] == 2:
                    at[:, s] = n + model.edge_at(ones[:, 0], ones[:, 1])
                else:
                    at[:, s] = first + model.factor_base[js] + moment_rank(k)[s]
            self.subset_moments[k] = at

    def theta(self, scale=None):
        """Objective coefficient of every ground moment, and the constant.

        Features are taken by arity, and their tables turned into weighted
        Moebius coefficients c, so that table[a] sums c[s] over the subsets
        s of a's ones. Each scope subset's coefficient goes to its moment
        in subset_moments; the empty subset's to the constant, the all-zeros
        score, held in one more slot. scale, an array over the features,
        multiplies each feature's coefficients.
        """
        model = self.model
        theta = np.zeros(self.size + 1)
        # arities in the order of their first feature: a fixed order of the float sums
        by_first = sorted(model.scope_arrays.items(), key=lambda item: item[1][0][0])
        for k, (js, _) in by_first:
            js = js.tolist()
            coef = np.array([model.features[j].table for j in js]).reshape((-1,) + (2,) * k)
            for axis in range(1, k + 1):
                coef = np.diff(coef, axis=axis, prepend=0.0)  # (t0, t1) -> (t0, t1 - t0)
            coef = coef.reshape(len(js), -1) * [[model.weight_of(j)] for j in js]
            if scale is not None:
                coef *= scale[js][:, None]
            at = self.subset_moments[k]
            theta += np.bincount(at.ravel(), coef.ravel(), minlength=self.size + 1)
        return theta[:-1], float(theta[-1]) + 0.0  # -0.0 becomes 0.0


@dataclass(frozen=True, eq=False)
class CellIndex:
    """Map from ground moments to lifted cells: rho[i] is the cell of
    ground moment i (positions follow the model's MomentLayout)."""

    layout: MomentLayout
    rho: np.ndarray
    num_cells: int


@dataclass(frozen=True)
class OrbitInfo:
    """A node, edge or arity >= 3 feature orbit's representative and the
    cells of its scope's moments.

    rep is a variable, an edge (u, v) or a feature index. cells[s] is the
    cell of the moment of the scope subset s (indexed like an assignment,
    first scope position most significant); the empty subset's moment is
    the constant 1 and has cell -1.
    """

    rep: object
    cells: tuple


@dataclass(eq=False)
class LiftedModel:
    """A ground model with its moment cells, lifted parameters and symmetry source.

    theta_bar[c] is cell c's objective coefficient and constant the
    objective's constant term. Node orbit k's cell is cell k. The ground
    model it stands for has len(var_cells) variables, var_cells[v] being
    variable v's node orbit and node_reps[k] node orbit k's smallest
    variable, and num_features features: `model`'s own, or those at the
    full domain size when mln.lift_mln grounded `model` at a smaller one.
    """

    model: Model
    bundle: OrbitBundle
    index: CellIndex
    node_info: tuple
    edge_info: tuple
    factor_info: tuple
    theta_bar: np.ndarray
    constant: float
    symmetries: object
    var_cells: np.ndarray
    num_features: int

    @property
    def num_cells(self) -> int:
        return self.index.num_cells

    @property
    def num_vars(self) -> int:
        return len(self.var_cells)

    @property
    def node_reps(self) -> tuple:
        order, starts = group_codes(self.var_cells)
        return tuple(order[starts].tolist())

    @functools.cached_property
    def probability_rows(self) -> tuple:
        """P(a) of every assignment of each edge orbit, then of each factor
        orbit (edge_info + factor_info order), over the local LP's
        variables: rows[k][i] is the sorted (variable, coefficient) list of
        orbit k's assignment with table index i. Built once per lifted
        model, for the LP's rows and every cut's."""
        return tuple(
            tuple(_probability(info.cells, i) for i in range(len(info.cells)))
            for info in self.edge_info + self.factor_info
        )

    def score(self, values) -> float:
        """Score of the configuration that gives node orbit k the value
        values[k]: constant + theta_bar . m, where m_c is the product of the
        values over the scope of cell c's moments. A scope subset's product
        is its last position's value times that of the smaller rest."""
        m = list(values) + [0] * (self.num_cells - len(values))
        for info in self.edge_info + self.factor_info:
            cells = info.cells
            for s in range(3, len(cells)):
                if s & (s - 1):
                    m[cells[s]] = m[cells[s & -s]] * m[cells[s & (s - 1)]]
        return float(self.constant + self.theta_bar @ np.array(m, dtype=float))


def _probability(cells, i) -> list:
    """P(a) of the assignment a with table index i, over LP variables.

    cells holds the moment cell of each subset of a scope (see OrbitInfo);
    variable 0 is the constant and cell c is variable c + 1. P(a) sums
    (-1)^|T - ones(a)| mu_T over the supersets T of ones(a), so an all-ones
    assignment is a single moment and any other one takes at least two.
    """
    acc = {}
    for s, sign in _supersets(len(cells), i):
        var = cells[s] + 1
        acc[var] = acc.get(var, 0.0) + sign
    return sorted(acc.items())


@functools.cache
def _supersets(num_subsets, i) -> tuple:
    """(s, (-1)^|s - i|) for each subset s of a scope that contains the
    subset i, in increasing s: P(a)'s Moebius terms, the same for every
    scope of one arity."""
    return tuple(
        (s, (-1.0) ** bin(s ^ i).count("1")) for s in range(num_subsets) if s & i == i
    )


def build_lifted_model(model: Model, symmetries) -> LiftedModel:
    """Assemble cells, lifted parameters and orbit tables from a symmetry source.

    The source's bundle() gives the orbits, and the source is kept on the
    result for the stabilizer queries of lifted cycle separation.
    """
    if not hasattr(symmetries, "bundle"):
        raise LiftError("expected a symmetry source with a bundle() method")
    bundle = symmetries.bundle()
    layout = MomentLayout(model)
    if bundle.vars.elements != tuple(range(model.num_vars)):
        raise LiftError("variable orbits do not cover this model's variables")
    if bundle.edges.elements != layout.edges:
        raise LiftError("edge orbits do not cover this model's edges")
    if bundle.factor_moments.elements != layout.factor_moments:
        raise LiftError("factor-moment orbits do not cover this model's factor moments")

    # each domain's orbits are numbered by their smallest element, so cells
    # numbered domain after domain come in order of their first moment
    vars_, edges, moments = bundle.vars, bundle.edges, bundle.factor_moments
    first_edge = vars_.num_cells
    first_factor = first_edge + edges.num_cells
    num_cells = first_factor + moments.num_cells
    rho = np.concatenate([vars_.cell, first_edge + edges.cell, first_factor + moments.cell])

    # per-cell spread and sum of the ground coefficients, grouped by cell
    theta, constant = layout.theta()
    order, starts = group_codes(rho)
    by_cell = theta[order]
    spread = np.maximum.reduceat(by_cell, starts) - np.minimum.reduceat(by_cell, starts)
    bad = np.flatnonzero(spread > 1e-12)
    if bad.size:
        members = np.flatnonzero(rho == bad[0])
        lo = members[int(theta[members].argmin())]
        hi = members[int(theta[members].argmax())]
        elements = vars_.elements + edges.elements + moments.elements
        raise LiftError(
            "cell not theta-constant: moments %r and %r carry %r and %r"
            % (elements[lo], elements[hi], float(theta[lo]), float(theta[hi]))
        )
    theta_bar = np.add.reduceat(by_cell, starts) + 0.0  # -0.0 becomes 0.0, as in sum()

    # a scope subset's cell is its moment's, and the constant's slot is -1
    var_cell = vars_.cell.tolist()
    cell_at = np.append(rho, -1)
    tables = {k: cell_at[at].tolist() for k, at in layout.subset_moments.items() if k >= 3}
    arity, row = (a.tolist() for a in model.scope_rows)
    return LiftedModel(
        model=model,
        bundle=bundle,
        index=CellIndex(layout=layout, rho=rho, num_cells=num_cells),
        node_info=tuple(OrbitInfo(v, (-1, k)) for k, v in enumerate(vars_.reps)),
        edge_info=tuple(
            OrbitInfo((u, v), (-1, var_cell[v], var_cell[u], first_edge + e))
            for e, (u, v) in enumerate(edges.reps)
        ),
        factor_info=tuple(
            OrbitInfo(j, tuple(tables[arity[j]][row[j]]))
            for j in bundle.features.reps
            if arity[j] >= 3
        ),
        theta_bar=theta_bar,
        constant=constant,
        symmetries=symmetries,
        var_cells=rho[:model.num_vars],
        num_features=model.num_features,
    )
