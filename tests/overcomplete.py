"""Reference local LP over the overcomplete coordinates, solved by HiGHS.

The local polytope as normalization and marginalization equalities: node
normalization rows, four marginalization rows per edge, and normalization
plus node and edge consistency rows per arity >= 3 factor, each with every
coordinate in [0, 1]. A lifted model's system is the ground system written
once per orbit representative with coordinates substituted by their cells,
then deduplicated; a ground model is its trivial lift. build_local_lp
writes the same polytope in moment coordinates, and tests compare the two.
"""

import itertools

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from liftedmap import (
    LiftedModel,
    TrivialSymmetries,
    build_lifted_model,
    build_local_lp,
    simplex_solve,
)
from liftedmap.model import assignments


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


def lifted(target) -> LiftedModel:
    """target itself, or a ground Model lifted under the trivial group."""
    if isinstance(target, LiftedModel):
        return target
    return build_lifted_model(target, TrivialSymmetries(target))


def overcomplete_rows(lm: LiftedModel) -> list:
    """The equality rows of the lifted overcomplete local LP, over cells."""
    model = lm.model
    factor_list = [
        rep for rep in lm.bundle.features.reps if model.features[rep].arity >= 3
    ]
    rows = _ground_row_blocks(
        model, lm.index.layout, lm.bundle.vars.reps, [info.rep for info in lm.edge_info],
        factor_list,
    )
    return _substitute_rows(rows, lm.index.rho)


def overcomplete_optimum(lm: LiftedModel) -> float:
    """HiGHS optimum of max theta_bar . tau over the overcomplete rows, tau in [0, 1]."""
    rows = overcomplete_rows(lm)
    r, c, v = [], [], []
    for i, (coeffs, _, _) in enumerate(rows):
        for j, a in coeffs:
            r.append(i)
            c.append(j)
            v.append(a)
    res = linprog(
        -lm.theta_bar,
        A_eq=sp.csr_matrix((v, (r, c)), shape=(len(rows), lm.num_cells)),
        b_eq=np.array([rhs for _, _, rhs in rows]),
        bounds=(0.0, 1.0),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(-res.fun)


def max_violation(tau, lm: LiftedModel) -> float:
    """Largest violation by tau of an overcomplete row or a [0, 1] bound."""
    tau = np.asarray(tau, dtype=float)
    worst = max(float(-tau.min()), float(tau.max() - 1.0), 0.0)
    for coeffs, _, rhs in overcomplete_rows(lm):
        worst = max(worst, abs(sum(a * tau[j] for j, a in coeffs) - rhs))
    return worst


def assert_matches_the_overcomplete_reference(target):
    """The moment LP's optimum equals HiGHS on the overcomplete LP within
    1e-9, and its cell values satisfy every overcomplete row and bound."""
    lp = build_local_lp(target)
    out = simplex_solve(lp, start=lp.start)
    assert out.status == "optimal"
    lm = lifted(target)
    assert abs(out.value - overcomplete_optimum(lm)) <= 1e-9
    assert max_violation(lp.moments.tau(out.x), lm) <= 1e-9
