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

from .model import Model, assignments, group_codes, moment_assignments
from .symmetry import OrbitBundle, _domain_elements


class LiftError(ValueError):
    """Orbits inconsistent with the model or mismatched dimensions."""


class MomentLayout:
    """The ground moments of one model, in layout order.

    mu_v at index v; mu_uv at num_vars plus the edge's position in sorted
    skeleton order; then, feature by feature, each arity >= 3 feature's
    factor moments (j, a) in table order of a, from factor_base[j] on.
    """

    def __init__(self, model: Model):
        self.model = model
        self.edges = model.edges
        self.factor_moments = tuple(_domain_elements("factor-moments", model))
        counts = np.array([len(moment_assignments(f.arity)) for f in model.features])
        first = model.num_vars + len(self.edges)
        self.factor_base = first + np.cumsum(counts) - counts
        self.size = first + len(self.factor_moments)

    def theta(self, scale=None):
        """Objective coefficient of every ground moment, and the constant.

        Features are taken by arity, with their scopes from
        Model.scope_arrays, and their tables turned into weighted Moebius
        coefficients c, so that table[a] sums c[s] over the subsets s of
        a's ones. Each scope subset's coefficient goes to its node,
        edge or factor moment; the empty subset's to the constant, the
        all-zeros score, held in one more slot. scale, an array over the
        features, multiplies each feature's coefficients.
        """
        model = self.model
        n = model.num_vars
        codes = np.array([u * n + v for u, v in self.edges], dtype=np.int64)
        theta = np.zeros(self.size + 1)
        # arities in the order of their first feature: a fixed order of the float sums
        by_first = sorted(model.scope_arrays.items(), key=lambda item: item[1][0][0])
        for k, (js, scopes) in by_first:
            js = js.tolist()
            coef = np.array([model.features[j].table for j in js]).reshape((-1,) + (2,) * k)
            for axis in range(1, k + 1):
                coef = np.diff(coef, axis=axis, prepend=0.0)  # (t0, t1) -> (t0, t1 - t0)
            coef = coef.reshape(len(js), -1) * [[model.weight_of(j)] for j in js]
            if scale is not None:
                coef *= scale[js][:, None]
            top = {a: r for r, a in enumerate(moment_assignments(k))}
            idx = np.empty(coef.shape, dtype=np.int64)
            for s, a in enumerate(assignments(k)):
                ones = scopes[:, [p for p in range(k) if a[p]]]
                if ones.shape[1] == 0:
                    idx[:, s] = self.size
                elif ones.shape[1] == 1:
                    idx[:, s] = ones[:, 0]
                elif ones.shape[1] == 2:
                    idx[:, s] = n + np.searchsorted(codes, ones[:, 0] * n + ones[:, 1])
                else:
                    idx[:, s] = self.factor_base[js] + top[a]
            theta += np.bincount(idx.ravel(), coef.ravel(), minlength=self.size + 1)
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
    rho = np.fromiter(
        [vars_.cell_of[v] for v in vars_.elements]
        + [first_edge + edges.cell_of[e] for e in edges.elements]
        + [first_factor + moments.cell_of[m] for m in moments.elements],
        np.int64,
        layout.size,
    )

    # per-cell spread and sum of the ground coefficients, grouped by cell
    theta, constant = layout.theta()
    order = np.argsort(rho, kind="stable")
    by_cell = theta[order]
    starts = np.searchsorted(rho[order], np.arange(num_cells))
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

    def cells_of(scope, j=None):
        out = []
        for a in assignments(len(scope)):
            ones = [v for v, bit in zip(scope, a) if bit]
            if not ones:
                out.append(-1)
            elif len(ones) == 1:
                out.append(vars_.cell_of[ones[0]])
            elif len(ones) == 2:
                out.append(first_edge + edges.cell_of[tuple(ones)])
            else:
                out.append(first_factor + moments.cell_of[(j, a)])
        return tuple(out)

    features = model.features
    return LiftedModel(
        model=model,
        bundle=bundle,
        index=CellIndex(layout=layout, rho=rho, num_cells=num_cells),
        node_info=tuple(OrbitInfo(v, cells_of((v,))) for v in vars_.reps),
        edge_info=tuple(OrbitInfo(e, cells_of(e)) for e in edges.reps),
        factor_info=tuple(
            OrbitInfo(j, cells_of(features[j].scope, j))
            for j in bundle.features.reps
            if features[j].arity >= 3
        ),
        theta_bar=theta_bar,
        constant=constant,
        symmetries=symmetries,
        var_cells=rho[:model.num_vars],
        num_features=model.num_features,
    )
