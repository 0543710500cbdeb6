"""Reference checks on `liftedmap map` outputs, run outside the timed region.

For every instance, status "optimal" and:

* local polytope: |objective - HiGHS optimum of the same LP| <= 1e-6;
* cycle polytope: bounds non-increasing and
  score(decoded configuration) - 1e-6 <= objective <= HiGHS local optimum + 1e-6;
* at most 16 variables: exact MAP (brute-force enumeration) <= objective + 1e-6.

The HiGHS reference solves the ground local LP when it is small enough
(GROUND_LP_LIMIT coordinates), which also checks that lifting kept the
optimum: every instance but lovers_smokers at d=20 (about 10 s for d=14,
42504 coordinates). At d=20 HiGHS needs minutes on the ground LP, so the
reference there is the lifted local LP built by the program's own
RenamingSymmetries, build_lifted_model and build_local_lp: it checks the
simplex and the cuts, but not the lifting. The score is recomputed from the
model, not read from the output.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from liftedmap.lift import build_lifted_model
from liftedmap.mln import RenamingSymmetries, ground_mln, parse_mln
from liftedmap.model import OvercompleteLayout, parse_model, score
from liftedmap.oracle import exact_enumerate
from liftedmap.solve import build_local_lp
from liftedmap.symmetry import GeneratorSymmetries

TOL = 1e-6
GROUND_LP_LIMIT = 50000
EXACT_LIMIT = 16


def highs_value(lp) -> float:
    """Optimum of a liftedmap LinearProgram (a maximization) by HiGHS."""
    eq, ub = ([], [], [], []), ([], [], [], [])
    for coeffs, sense, rhs in lp.rows:
        rows, cols, vals, rhs_list = eq if sense == "==" else ub
        sign = -1.0 if sense == ">=" else 1.0
        i = len(rhs_list)
        rhs_list.append(sign * rhs)
        for j, c in coeffs:
            rows.append(i)
            cols.append(j)
            vals.append(sign * c)

    def matrix(block):
        rows, cols, vals, rhs_list = block
        if not rhs_list:
            return None, None
        shape = (len(rhs_list), lp.num_vars)
        return sp.csr_matrix((vals, (rows, cols)), shape=shape), np.asarray(rhs_list)

    a_eq, b_eq = matrix(eq)
    a_ub, b_ub = matrix(ub)
    bounds = [(lo, hi) for lo, hi in lp.bounds]
    res = linprog(
        -lp.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=bounds, method="highs",
    )
    if res.status != 0:
        raise RuntimeError("HiGHS reference failed: %s" % res.message)
    return float(-res.fun)


class Reference:
    """Reference values for one instance, computed once from its input file."""

    def __init__(self, inst, path: str):
        self.inst = inst
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        gmap = None
        if inst.domain_size is None:
            self.model = parse_model(text)
        else:
            self.model, gmap = ground_mln(parse_mln(text), inst.domain_size)
        if inst.flag("--space") == "ground" or OvercompleteLayout(self.model).size <= GROUND_LP_LIMIT:
            self.local_lp = "ground"
            self.local_value = highs_value(build_local_lp(self.model))
        else:
            if inst.flag("--method") == "search":
                sym = GeneratorSymmetries(self.model)
            else:
                sym = RenamingSymmetries(self.model, gmap)
            self.local_lp = "lifted"
            self.local_value = highs_value(build_local_lp(build_lifted_model(self.model, sym)))
        self.exact = None
        if self.model.num_vars <= EXACT_LIMIT:
            self.exact = exact_enumerate(self.model, limit=EXACT_LIMIT).map_value

    def problems(self, out: dict) -> list:
        """What is wrong with one output of this instance (empty if nothing)."""
        bad = []
        obj = out["objective"]
        if out["status"] != "optimal":
            bad.append("status %r" % out["status"])
        if self.inst.flag("--polytope") == "local":
            if abs(obj - self.local_value) > TOL:
                bad.append("objective %r != HiGHS %s local optimum %r" % (obj, self.local_lp, self.local_value))
        else:
            bounds = out["bounds"]
            if any(b > a + TOL for a, b in zip(bounds, bounds[1:])):
                bad.append("bounds increase: %r" % bounds)
            config = out["decode"]["configuration"]
            if len(config) != self.model.num_vars:
                bad.append("configuration has %d entries for %d variables" % (len(config), self.model.num_vars))
            elif score(self.model, config) - TOL > obj:
                bad.append("objective %r below the decoded score %r" % (obj, score(self.model, config)))
            if obj > self.local_value + TOL:
                bad.append("objective %r above the HiGHS %s local optimum %r" % (obj, self.local_lp, self.local_value))
        if self.exact is not None and self.exact > obj + TOL:
            bad.append("objective %r below the exact MAP %r" % (obj, self.exact))
        return bad
