"""The overcomplete coordinates, the overcomplete-cell lift and its local
LP, kept as the test reference.

The program works in moment coordinates and keeps of the overcomplete
layout only its size and edge block. The whole layout is here: each
coordinate's key and index, the parameter and statistic vectors
(OvercompleteLayout, to_overcomplete), and the exact overcomplete means
(overcomplete_means), which `exact` reported before its means moved to
moment order.

Before the lift moved to moment cells, it grouped every overcomplete
coordinate into cells: per variable orbit one cell for each value, per edge
orbit one for (0,0) and one for (1,1), per arc orbit one holding the
opposite-value coordinates, and one cell per factor-assignment orbit, all
numbered by their first coordinate in the OvercompleteLayout
(OvercompleteLift). The symmetry sources give neither arc nor
factor-assignment orbits, so the reference computes its own (arc_orbits,
factor_assignment_orbits). Its local LP (reference_local_lp) had one variable
fixed at 1 and one per moment cell (node value 1, edge 11, factor
assignment with >= 3 ones), the objective theta_bar M, and one row
"cell >= 0" per cell that is not a single moment, where M maps the LP
variables to cell values by each cell's Moebius expansion. Moment cells
come in the same order in both lifts, so the two LPs share their variables.

The local polytope is also written over the cells as normalization and
marginalization equalities (overcomplete_rows) and solved by HiGHS. A
lifted system is the ground system written once per orbit representative
with coordinates substituted by their cells, then deduplicated.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from liftedmap import (
    LiftedModel,
    RenamingSymmetries,
    TrivialSymmetries,
    build_lifted_model,
    build_local_lp,
    simplex_solve,
)
from liftedmap.model import Model, assignments, table_index
from liftedmap.model import OvercompleteLayout as PackageLayout
from liftedmap.oracle import _all_scores, _config_matrix, exact_enumerate
from liftedmap.solve import LinearProgram
from liftedmap.symmetry import OrbitPartition

from signatures import atom_names, constant_names, group_by_key, joint_signature, tags_of


# ---------------------------------------------------------------------------
# the overcomplete coordinates


class OvercompleteLayout(PackageLayout):
    """Fixed ordering of the overcomplete coordinates of one model: the
    package's sizes and edge block, with each coordinate's key and index
    and the parameter and statistic vectors.

    Coordinates come in three blocks:
      nodes:   (v, t) at index 2*v + t
      edges:   ((u, v), (a, b)) in sorted edge order, 4 coordinates per edge
      factors: (j, a) for each arity >= 3 feature j, 2^K coordinates in table order
    """

    def __init__(self, model: Model):
        super().__init__(model)
        self.model = model
        self.factor_features = tuple(
            j for j, f in enumerate(model.features) if f.arity >= 3
        )
        first = self.edge_block.start
        self._edge_base = {e: first + 4 * i for i, e in enumerate(self.edges)}
        self._factor_base = {}
        pos = self.edge_block.stop
        for j in self.factor_features:
            self._factor_base[j] = pos
            pos += 2 ** model.features[j].arity
        self.keys = []
        for v in range(model.num_vars):
            self.keys.append(("node", v, 0))
            self.keys.append(("node", v, 1))
        for (u, v) in self.edges:
            for a, b in assignments(2):
                self.keys.append(("edge", u, v, a, b))
        for j in self.factor_features:
            for a in assignments(model.features[j].arity):
                self.keys.append(("factor", j, a))
        self.keys = tuple(self.keys)

    def node_index(self, v: int, t: int) -> int:
        return 2 * v + t

    def edge_index(self, u: int, v: int, a: int, b: int) -> int:
        return self._edge_base[(u, v)] + 2 * a + b

    def factor_index(self, j: int, a) -> int:
        return self._factor_base[j] + table_index(a)

    def theta_vector(self):
        """Overcomplete parameters laid out as a dense vector.

        The layout of `to_overcomplete`: each feature's weighted table is
        added into its node or edge block, in feature order as there, so the
        sums are the same floats; an arity >= 3 feature owns its block.
        """
        theta = [0.0] * self.size
        for j, f in enumerate(self.model.features):
            w = self.model.weight_of(j)
            if f.arity >= 3:
                base = self._factor_base[j]
                theta[base:base + len(f.table)] = [w * t for t in f.table]
                continue
            base = 2 * f.scope[0] if f.arity == 1 else self._edge_base[f.scope]
            for i, t in enumerate(f.table):
                theta[base + i] += w * t
        return np.array(theta)

    def phi_vector(self, x):
        """Indicator statistics of configuration x in this layout."""
        x = tuple(x)
        phi = np.zeros(self.size)
        for v in range(self.model.num_vars):
            phi[self.node_index(v, x[v])] = 1.0
        for (u, v) in self.edges:
            phi[self.edge_index(u, v, x[u], x[v])] = 1.0
        for j in self.factor_features:
            a = tuple(x[v] for v in self.model.features[j].scope)
            phi[self.factor_index(j, a)] = 1.0
        return phi


@dataclass
class OvercompleteParams:
    """Equivalent parameters over indicator coordinates.

    node_theta[(v, t)] sums theta_j * f_j(t) over unary features with scope (v,).
    pair_theta[((u, v), (t, t'))] sums over binary features with scope (u, v).
    factor_theta[(j, a)] keeps each arity >= 3 feature separate: theta_j * f_j(a).
    """

    node_theta: dict = field(default_factory=dict)
    pair_theta: dict = field(default_factory=dict)
    factor_theta: dict = field(default_factory=dict)


def to_overcomplete(model: Model) -> OvercompleteParams:
    """Re-express the model over indicator coordinates; scoring is preserved."""
    out = OvercompleteParams()
    for v in range(model.num_vars):
        out.node_theta[(v, 0)] = 0.0
        out.node_theta[(v, 1)] = 0.0
    for u, v in model.edges:
        for a in assignments(2):
            out.pair_theta[((u, v), a)] = 0.0
    for j, f in enumerate(model.features):
        w = model.weight_of(j)
        if f.arity == 1:
            v = f.scope[0]
            out.node_theta[(v, 0)] += w * f.table[0]
            out.node_theta[(v, 1)] += w * f.table[1]
        elif f.arity == 2:
            uv = f.scope
            for i, a in enumerate(assignments(2)):
                out.pair_theta[(uv, a)] += w * f.table[i]
        else:
            for i, a in enumerate(assignments(f.arity)):
                out.factor_theta[(j, a)] = w * f.table[i]
    return out


def overcomplete_means(model: Model) -> np.ndarray:
    """The exact means of every overcomplete coordinate, by enumeration of
    all 2^n configurations: what `exact` reported before it moved to
    moment coordinates."""
    X = _config_matrix(model.num_vars)
    p = np.exp(_all_scores(model, X) - exact_enumerate(model).log_partition)
    layout = OvercompleteLayout(model)
    mean = np.zeros(layout.size)
    for i, key in enumerate(layout.keys):
        if key[0] == "node":
            _, v, t = key
            ind = X[:, v] == t
        elif key[0] == "edge":
            _, u, v, a, b = key
            ind = (X[:, u] == a) & (X[:, v] == b)
        else:
            _, j, a = key
            scope = list(model.features[j].scope)
            ind = np.all(X[:, scope] == np.asarray(a, dtype=np.int8), axis=1)
        mean[i] = float(p @ ind)
    return mean


# ---------------------------------------------------------------------------
# moments and LP points


def lifted(target) -> LiftedModel:
    """target itself, or a ground Model lifted under the trivial group."""
    if isinstance(target, LiftedModel):
        return target
    return build_lifted_model(target, TrivialSymmetries(target))


def ground_moments(tau, layout) -> np.ndarray:
    """The moments of an overcomplete vector, in a MomentLayout's order:
    each variable's value 1, each edge's 11 and, per factor moment (j, a),
    the sum of feature j's assignments that are 1 wherever a is."""
    over = OvercompleteLayout(layout.model)
    tau = np.asarray(tau, dtype=float)
    out = [tau[over.node_index(v, 1)] for v in range(layout.model.num_vars)]
    out += [tau[over.edge_index(u, v, 1, 1)] for u, v in layout.edges]
    for j, a in layout.factor_moments:
        arity = layout.model.features[j].arity
        out.append(sum(
            tau[over.factor_index(j, b)]
            for b in assignments(arity)
            if all(bit >= need for bit, need in zip(b, a))
        ))
    return np.array(out)


def lp_point(tau, target) -> np.ndarray:
    """The local LP point of an overcomplete vector: the constant 1, then
    each cell's mean ground moment (its moment, for an orbit-constant
    vector)."""
    lm = lifted(target)
    mu = ground_moments(tau, lm.index.layout)
    rho = lm.index.rho
    sums = np.bincount(rho, mu, minlength=lm.num_cells)
    return np.concatenate(([1.0], sums / np.bincount(rho, minlength=lm.num_cells)))


def overcomplete_point(x, target) -> np.ndarray:
    """The overcomplete vector of a local LP point x: each coordinate's
    assignment probability P(a), the Moebius sum over the supersets T of
    a's ones of (-1)^|T - ones(a)| times T's moment, read at its cell."""
    lm = lifted(target)
    model, layout = lm.model, lm.index.layout
    mu = np.asarray(x, dtype=float)[lm.index.rho + 1]
    position = {e: model.num_vars + i for i, e in enumerate(layout.edges)}
    first = model.num_vars + len(layout.edges)
    position.update({m: first + i for i, m in enumerate(layout.factor_moments)})

    def moment(j, scope, bits):
        ones = tuple(v for v, bit in zip(scope, bits) if bit)
        if not ones:
            return 1.0
        if len(ones) == 1:
            return mu[ones[0]]
        return mu[position[ones if len(ones) == 2 else (j, tuple(bits))]]

    out = []
    for key in OvercompleteLayout(model).keys:
        j, scope, a = _scope_assignment(key, model)
        out.append(sum(
            (-1.0) ** (sum(b) - sum(a)) * moment(j, scope, b)
            for b in assignments(len(scope))
            if all(bit >= need for bit, need in zip(b, a))
        ))
    return np.array(out)


# ---------------------------------------------------------------------------
# the overcomplete-cell lift


def _generator_orbits(sym, elements, act) -> OrbitPartition:
    """Orbits of elements under a generator source's generators; act(e, g)
    is the image of e under generator g."""
    from reference import _UnionFind  # reference imports this module

    index = {e: i for i, e in enumerate(elements)}
    uf = _UnionFind(len(elements))
    for g in sym.gens.generators:
        for e in elements:
            uf.union(index[e], index[act(e, g)])
    return group_by_key(elements, lambda e: uf.find(index[e]))


def arc_orbits(sym) -> OrbitPartition:
    """Orbits of the arcs (u, v) and (v, u) of every skeleton edge.

    The renaming source keys an arc by the joint signature of its atoms; a
    generator source takes the orbits of its generators.
    """
    elements = [a for (u, v) in sym.model.edges for a in ((u, v), (v, u))]
    if isinstance(sym, RenamingSymmetries):
        atoms, dist = atom_names(sym.gmap), sym.gmap.distinguished
        return group_by_key(
            elements, lambda a: joint_signature(atoms[a[0]], atoms[a[1]], dist)
        )
    return _generator_orbits(sym, elements, lambda a, g: (g.var_perm[a[0]], g.var_perm[a[1]]))


def cell_by_element(partition) -> dict:
    """Element -> cell of an orbit partition, read off its label array."""
    return dict(zip(partition.elements, partition.cell.tolist()))


def arc_min_edge_orbits(sym) -> OrbitPartition:
    """Edge orbits keyed as the renaming source keyed them while it built
    arc orbits: an edge by the smaller arc-orbit index of its two
    directions."""
    arcs = cell_by_element(arc_orbits(sym))
    return group_by_key(
        sym.model.edges, lambda e: min(arcs[e], arcs[e[::-1]])
    )


def factor_assignment_orbits(sym) -> OrbitPartition:
    """Orbits of every (feature, assignment) pair of the arity >= 3 features.

    The renaming source keys a pair by its feature's key and the assignment
    read in the order of its scope atoms' tags; a generator source takes
    the orbits of its generators.
    """
    model = sym.model
    elements = [
        (j, a) for j, f in enumerate(model.features) if f.arity >= 3 for a in assignments(f.arity)
    ]
    if isinstance(sym, RenamingSymmetries):
        gmap, dist = sym.gmap, sym.gmap.distinguished
        atoms, rows = atom_names(gmap), gmap.origin_rows.tolist()
        fkey, order = {}, {}
        for j, f in enumerate(model.features):
            if f.arity >= 3:  # a formula grounding: its formula, then its substitution
                anon = {}
                subst = constant_names(gmap, rows[j][1:])
                fkey[j] = ("formula", rows[j][0], tags_of(subst, dist, anon))
                tags = [(atoms[v][0], tags_of(atoms[v][1], dist, anon)) for v in f.scope]
                order[j] = sorted(range(f.arity), key=tags.__getitem__)
        return group_by_key(
            elements, lambda e: (fkey[e[0]], tuple(e[1][p] for p in order[e[0]]))
        )
    from reference import act_element  # reference imports this module

    return _generator_orbits(
        sym, elements, lambda e, g: act_element("factor-moments", e, g, model)
    )


@dataclass(frozen=True)
class NodeOrbitInfo:
    rep: int
    cell0: int
    cell1: int


@dataclass(frozen=True)
class EdgeOrbitInfo:
    rep: tuple
    cell00: int
    cell11: int
    cell_uv: int  # cell of the (0,1) coordinate on the representative edge
    cell_vu: int  # cell of the (1,0) coordinate; equals cell_uv when self-paired


@dataclass(eq=False)
class OvercompleteLift:
    """A model's overcomplete coordinates grouped into orbit cells.

    rho[i] is the cell of coordinate i of layout, cells[c] lists the
    coordinates of cell c and labels[c] describes it: ("node", orbit,
    value), ("edge", orbit, "00" | "11"), ("arc", orbit) or ("factor",
    orbit). theta_bar adds the overcomplete parameters within each cell.
    """

    model: object
    lm: LiftedModel  # the moment-cell lift of the same model and source
    layout: OvercompleteLayout
    rho: np.ndarray
    cells: tuple
    labels: tuple
    node_info: tuple
    edge_info: tuple
    theta_bar: np.ndarray

    @property
    def num_cells(self) -> int:
        return len(self.cells)


def overcomplete_lift(target) -> OvercompleteLift:
    """The overcomplete-cell lift under target's symmetry source, or under
    the trivial group for a ground Model."""
    lm = lifted(target)
    model, bundle = lm.model, lm.bundle
    layout = OvercompleteLayout(model)
    vars_, edges = bundle.vars.cell.tolist(), cell_by_element(bundle.edges)
    arcs = cell_by_element(arc_orbits(lm.symmetries))
    factor = cell_by_element(factor_assignment_orbits(lm.symmetries))
    cell_of_label = {}
    rho = []
    for key in layout.keys:
        if key[0] == "node":
            _, v, t = key
            label = ("node", vars_[v], t)
        elif key[0] == "edge":
            _, u, v, a, b = key
            if a == b:
                label = ("edge", edges[(u, v)], "00" if a == 0 else "11")
            else:
                label = ("arc", arcs[(u, v) if a == 0 else (v, u)])
        else:
            _, j, a = key
            label = ("factor", factor[(j, a)])
        rho.append(cell_of_label.setdefault(label, len(cell_of_label)))
    cells = [[] for _ in cell_of_label]
    for i, c in enumerate(rho):
        cells[c].append(i)
    theta = layout.theta_vector()
    return OvercompleteLift(
        model=model,
        lm=lm,
        layout=layout,
        rho=np.array(rho, dtype=np.int64),
        cells=tuple(tuple(members) for members in cells),
        labels=tuple(cell_of_label),
        node_info=tuple(
            NodeOrbitInfo(v, rho[layout.node_index(v, 0)], rho[layout.node_index(v, 1)])
            for v in bundle.vars.reps
        ),
        edge_info=tuple(
            EdgeOrbitInfo(
                (u, v),
                cell00=rho[layout.edge_index(u, v, 0, 0)],
                cell11=rho[layout.edge_index(u, v, 1, 1)],
                cell_uv=rho[layout.edge_index(u, v, 0, 1)],
                cell_vu=rho[layout.edge_index(u, v, 1, 0)],
            )
            for (u, v) in bundle.edges.reps
        ),
        theta_bar=np.array([float(sum(theta[list(members)])) for members in cells]),
    )


# ---------------------------------------------------------------------------
# its local LP over moment cells


class MomentMap:
    """tau = M x from the reference LP's variables to cell values.

    expansions[c] lists the (variable, coefficient) entries of row c of M:
    the Moebius expansion of cell c's representative coordinate over the
    moments of its ones, variable 0 being the constant 1.
    """

    def __init__(self, expansions):
        self.expansions = tuple(expansions)

    def tau(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([sum(m * x[j] for j, m in terms) for terms in self.expansions])

    def row(self, row):
        """A (coeffs, sense, rhs) row over cells as the same row over LP variables."""
        coeffs, sense, rhs = row
        acc = {}
        for c, a in coeffs:
            for j, m in self.expansions[c]:
                acc[j] = acc.get(j, 0.0) + a * m
        return (sorted(kv for kv in acc.items() if kv[1] != 0.0), sense, rhs)


def _scope_assignment(key, model):
    if key[0] == "node":
        return None, key[1:2], key[2:]
    if key[0] == "edge":
        return None, key[1:3], key[3:]
    return key[1], model.features[key[1]].scope, key[2]


def moment_map(ref: OvercompleteLift):
    """The reference LP's MomentMap and its number of variables."""
    layout, rho = ref.layout, ref.rho
    keys = [layout.keys[members[0]] for members in ref.cells]
    var_of = {}
    for c, key in enumerate(keys):
        _, _, a = _scope_assignment(key, ref.model)
        if all(a) or sum(a) >= 3:
            var_of[c] = len(var_of) + 1

    def moment(j, scope, ones):
        if not ones:
            return 0
        if len(ones) == 1:
            i = layout.node_index(scope[ones[0]], 1)
        elif len(ones) == 2:
            i = layout.edge_index(scope[ones[0]], scope[ones[1]], 1, 1)
        else:
            i = layout.factor_index(j, tuple(int(k in ones) for k in range(len(scope))))
        return var_of[int(rho[i])]

    expansions = []
    for key in keys:
        j, scope, a = _scope_assignment(key, ref.model)
        ones = [k for k, t in enumerate(a) if t]
        zeros = [k for k, t in enumerate(a) if not t]
        acc = {}
        for r in range(len(zeros) + 1):
            for extra in itertools.combinations(zeros, r):
                v = moment(j, scope, sorted(ones + list(extra)))
                acc[v] = acc.get(v, 0.0) + (-1.0) ** r
        expansions.append(sorted(acc.items()))
    return MomentMap(expansions), len(var_of) + 1


def reference_local_lp(ref: OvercompleteLift):
    """The local LP over the overcomplete lift's moment cells, and its M."""
    moments, num_vars = moment_map(ref)
    objective = np.zeros(num_vars)
    rows = []
    for theta, terms in zip(ref.theta_bar.tolist(), moments.expansions):
        for j, m in terms:
            objective[j] += theta * m
        if sum(j > 0 for j, _ in terms) > 1:
            rows.append((terms, ">=", 0.0))
    lp = LinearProgram(
        num_vars=num_vars,
        objective=objective,
        rows=rows,
        bounds=[(1.0, 1.0)] + [(0.0, 1.0)] * (num_vars - 1),
    )
    return lp, moments


def reference_cut_row(constraint, ref: OvercompleteLift, moments: MomentMap):
    """A cycle constraint keyed by edge orbits as a row over cells, through M."""
    acc = {}
    for k, in_f in constraint.steps:
        info = ref.edge_info[k]
        for c in (info.cell00, info.cell11) if in_f else (info.cell_uv, info.cell_vu):
            acc[c] = acc.get(c, 0.0) + 1.0
    return moments.row((sorted(acc.items()), ">=", 1.0))


# ---------------------------------------------------------------------------
# the overcomplete equalities, solved by HiGHS


def _ground_row_blocks(model, layout, var_list, edge_list, factor_list):
    rows = []
    for v in var_list:
        rows.append(
            ([(layout.node_index(v, 0), 1.0), (layout.node_index(v, 1), 1.0)], "==", 1.0)
        )
    for (u, v) in edge_list:
        e = layout.edge_index
        rows.append(
            ([(e(u, v, 0, 0), 1.0), (e(u, v, 0, 1), 1.0), (layout.node_index(u, 0), -1.0)], "==", 0.0)
        )
        rows.append(
            ([(e(u, v, 0, 0), 1.0), (e(u, v, 1, 0), 1.0), (layout.node_index(v, 0), -1.0)], "==", 0.0)
        )
        rows.append(
            ([(e(u, v, 1, 1), 1.0), (e(u, v, 0, 1), 1.0), (layout.node_index(v, 1), -1.0)], "==", 0.0)
        )
        rows.append(
            ([(e(u, v, 1, 1), 1.0), (e(u, v, 1, 0), 1.0), (layout.node_index(u, 1), -1.0)], "==", 0.0)
        )
    for j in factor_list:
        f = model.features[j]
        rows.append(
            ([(layout.factor_index(j, a), 1.0) for a in assignments(f.arity)], "==", 1.0)
        )
        for k, v in enumerate(f.scope):
            coeffs = [
                (layout.factor_index(j, a), 1.0)
                for a in assignments(f.arity)
                if a[k] == 1
            ]
            coeffs.append((layout.node_index(v, 1), -1.0))
            rows.append((coeffs, "==", 0.0))
        for k, l in itertools.combinations(range(f.arity), 2):
            u2, v2 = f.scope[k], f.scope[l]
            for s, t in assignments(2):
                coeffs = [
                    (layout.factor_index(j, a), 1.0)
                    for a in assignments(f.arity)
                    if a[k] == s and a[l] == t
                ]
                coeffs.append((layout.edge_index(u2, v2, s, t), -1.0))
                rows.append((coeffs, "==", 0.0))
    return rows


def _substitute_rows(rows, rho):
    out = []
    seen = set()
    rho = rho.tolist()
    for coeffs, sense, rhs in rows:
        acc = {}
        for j, c in coeffs:
            cell = rho[j]
            acc[cell] = acc.get(cell, 0.0) + c
        items = tuple(sorted(kv for kv in acc.items() if kv[1] != 0.0))
        key = (items, sense, float(rhs))
        if key in seen:
            continue
        seen.add(key)
        out.append((list(items), sense, rhs))
    return out


def overcomplete_rows(ref: OvercompleteLift) -> list:
    """The equality rows of the lifted overcomplete local LP, over cells."""
    model, bundle = ref.model, ref.lm.bundle
    factor_list = [rep for rep in bundle.features.reps if model.features[rep].arity >= 3]
    rows = _ground_row_blocks(
        model, ref.layout, bundle.vars.reps, [info.rep for info in ref.edge_info], factor_list
    )
    return _substitute_rows(rows, ref.rho)


def overcomplete_optimum(ref: OvercompleteLift) -> float:
    """HiGHS optimum of max theta_bar . tau over the overcomplete rows, tau in [0, 1]."""
    rows = overcomplete_rows(ref)
    r, c, v = [], [], []
    for i, (coeffs, _, _) in enumerate(rows):
        for j, a in coeffs:
            r.append(i)
            c.append(j)
            v.append(a)
    res = linprog(
        -ref.theta_bar,
        A_eq=sp.csr_matrix((v, (r, c)), shape=(len(rows), ref.num_cells)),
        b_eq=np.array([rhs for _, _, rhs in rows]),
        bounds=(0.0, 1.0),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(-res.fun)


def max_violation(tau, ref: OvercompleteLift) -> float:
    """Largest violation by cell values tau of an overcomplete row or a [0, 1] bound."""
    tau = np.asarray(tau, dtype=float)
    worst = max(float(-tau.min()), float(tau.max() - 1.0), 0.0)
    for coeffs, _, rhs in overcomplete_rows(ref):
        worst = max(worst, abs(sum(a * tau[j] for j, a in coeffs) - rhs))
    return worst


def highs_value(lp) -> float:
    """HiGHS optimum of a LinearProgram with "<=" and ">=" rows."""
    r, c, v, b = [], [], [], []
    for i, (coeffs, sense, rhs) in enumerate(lp.rows):
        sign = -1.0 if sense == ">=" else 1.0
        b.append(sign * rhs)
        for j, a in coeffs:
            r.append(i)
            c.append(j)
            v.append(sign * a)
    res = linprog(
        -lp.objective,
        A_ub=sp.csr_matrix((v, (r, c)), shape=(len(b), lp.num_vars)) if b else None,
        b_ub=np.array(b) if b else None,
        bounds=lp.bounds,
        method="highs",
    )
    assert res.status == 0, res.message
    return float(-res.fun)


def assert_matches_the_overcomplete_reference(target):
    """The moment LP against the overcomplete-cell lift's.

    Its rows are the reference LP's distinct rows, each once; its objective
    is the reference's within 1e-9 per coefficient; its optimum equals
    HiGHS on the overcomplete equalities within 1e-9; the reference's cell
    values M x of that optimum satisfy every overcomplete row and bound
    within 1e-9; and the optimum's overcomplete vector is those cell
    values, coordinate by coordinate.
    """
    lm = lifted(target)
    lp = build_local_lp(lm)
    ref = overcomplete_lift(lm)
    ref_lp, moments = reference_local_lp(ref)
    assert lp.num_vars == ref_lp.num_vars
    rows = [tuple(coeffs) for coeffs, _, _ in lp.rows]
    assert len(set(rows)) == len(rows)
    assert set(rows) == {tuple(coeffs) for coeffs, _, _ in ref_lp.rows}
    assert {(sense, rhs) for _, sense, rhs in lp.rows} <= {(">=", 0.0)}
    assert np.allclose(lp.objective, ref_lp.objective, rtol=0.0, atol=1e-9)
    out = simplex_solve(lp)
    assert out.status == "optimal"
    assert abs(out.value - overcomplete_optimum(ref)) <= 1e-9
    tau = moments.tau(out.x)
    assert max_violation(tau, ref) <= 1e-9
    assert np.allclose(overcomplete_point(out.x, lm), tau[ref.rho], rtol=0.0, atol=1e-12)


def assert_trivial_lp_is_the_reference(model):
    """A ground model's LP is the overcomplete reference's row for row."""
    lp = build_local_lp(model)
    ref_lp, _ = reference_local_lp(overcomplete_lift(model))
    assert lp.num_vars == ref_lp.num_vars
    assert lp.rows == ref_lp.rows
    assert lp.bounds == ref_lp.bounds
    assert np.allclose(lp.objective, ref_lp.objective, rtol=1e-12, atol=1e-12)
