"""MAP inference by LP relaxation, for ground and lifted models.

Every solve runs on a LiftedModel. A ground Model is lifted under the
trivial group, whose cells are its moments in layout order, so ground
inference shares the lifted LP, separation and decoding: only the decode
output keeps the ground shape.

The local polytope LP is written in moment coordinates. A binary model's
local polytope is the set of moments (node marginals P(x_v = 1), edge
moments P(x_u = x_v = 1) and, per arity >= 3 factor, the moments of its
variable subsets of size >= 3) whose Moebius probabilities P(a) are all
nonnegative. The LP has one variable fixed at 1 that carries the constant
and one per moment cell. Its rows are the distinct "P(a) >= 0" of the
edge-orbit and factor-orbit representatives, except the all-ones ones,
which are single moments kept in [0, 1] by the variable bounds.
Normalization and marginalization hold by construction, so there are no
equality rows. The LP's point x is the only point a run handles:
separation reads each edge orbit's disagreement mu_u + mu_v - 2 mu_uv off
it, and decoding each node orbit's mu_v.

Cycle tightening adds odd-crossing inequalities: around any closed walk, a
configuration flips value an even number of times, so for an odd edge subset
F the agreement mass on F plus the disagreement mass off F is at least 1.
Violated inequalities are found by shortest paths in a two-copy mirror
graph: staying in a copy costs the disagreement (cut) weight, switching
copies costs the agreement (nocut) weight, and any walk from a node to its
mirror image switches an odd number of times. Separation runs the search
per node orbit on the graph quotiented by a subgroup of the stabilizer of
the orbit's representative. Any subgroup that fixes the representative
gives the same shortest walk, so each symmetry source hands over the
variable orbits of one it has at hand, with no search: the search source
the found generators that fix the representative, the renaming source the
renamings that pin its constants. The quotient has those variable orbits as
nodes and one edge per distinct (full edge orbit, pair of variable orbits);
the full edge orbit carries the edge's weights. Node orbits with the same
variable orbits share one mirror graph, so under the trivial group one
graph is searched from every variable, as in separate_cycles_ground. Each
mirror graph is built once per run, on integer nodes 2 * cell + copy; a
separation call computes only the flat list of edge-orbit weights. The
sources of one graph are searched in orbit order, each walk kept out of the
mirror nodes of the sources searched before it: a walk through an earlier
source t rotates into a walk of t's with the same total, which t has
already beaten or tied (see _most_violated).

The cutting-plane driver uses an in-out step over LP points: separation
happens at sigma = ALPHA * x_out + (1 - ALPHA) * x_in, where x_in is a
point known to satisfy all cycle inequalities (initially the uniform
distribution's moments) and x_out is the current LP optimum. If sigma
admits no cut it becomes the new x_in and separation retries at x_out; if
that also finds nothing the loop has converged.

The LP solver is one self-contained bounded dual simplex tableau
(SimplexTableau) with one column per nonbasic variable; no external solver
is involved. Every variable has a finite range. The tableau starts with no
rows, each variable at the bound its objective coefficient points to,
which is the row-free optimum. Rows have one way in, add_rows: each row
enters with its slack basic, and the dual simplex from that dual-feasible
basis drives out every row the point violates, with no phase 1 and no
feasible start. The cold LP is one add_rows of all its rows, and each cut
of the cutting-plane driver is one more, appended to the last optimal
tableau. Every optimum is audited against the rows, cuts included, in one
array pass over their flat (row, column, coefficient) entries.
"""

from __future__ import annotations

import functools
import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from .lift import LiftedModel, build_lifted_model
from .model import Model, OvercompleteLayout
from .symmetry import TrivialSymmetries


class SolveError(Exception):
    """LP construction or solve failed."""


class NumericalInstabilityError(SolveError):
    """The simplex result failed its final feasibility residual check."""


# ---------------------------------------------------------------------------
# linear programs


@dataclass(eq=False)
class LinearProgram:
    """Sparse maximization LP: rows are (coeffs, sense, rhs) with coeffs a
    list of (variable, coefficient); senses are "<=" and ">="."""

    num_vars: int
    objective: np.ndarray
    rows: list
    bounds: list  # (lo, hi) per variable, both finite, lo <= hi

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.shape != (self.num_vars,):
            raise SolveError("objective length does not match num_vars")
        if not np.isfinite(self.objective).all():
            raise SolveError("objective has non-finite coefficients")
        if len(self.bounds) != self.num_vars:
            raise SolveError("bounds length does not match num_vars")
        for j, (lo, hi) in enumerate(self.bounds):
            # the simplex starts every variable at one of its bounds
            finite = lo is not None and hi is not None and math.isfinite(lo) and math.isfinite(hi)
            if not (finite and lo <= hi):
                raise SolveError("bounds %r of variable %d are not a finite range" % ((lo, hi), j))
        _flat_rows(self.rows, self.num_vars)


def _flat_rows(rows, num_vars: int):
    """The nonzeros of (coeffs, sense, rhs) rows as flat (row, column,
    coefficient) arrays, with each row's rhs and sign (+1 for <=, -1 for
    >=). Raises SolveError on an unknown sense, a non-finite rhs or
    coefficient, or a column outside [0, num_vars)."""
    senses = [sense for _, sense, _ in rows]
    unknown = [sense for sense in senses if sense not in ("<=", ">=")]
    if unknown:
        raise SolveError("unknown row sense %r" % unknown[0])
    rhs = np.array([rhs for _, _, rhs in rows], dtype=float)
    if not np.isfinite(rhs).all():
        raise SolveError("row rhs is not finite")
    row = np.array([i for i, (coeffs, _, _) in enumerate(rows) for _ in coeffs], dtype=np.int64)
    col = np.array([j for coeffs, _, _ in rows for j, _ in coeffs], dtype=np.int64)
    coef = np.array([c for coeffs, _, _ in rows for _, c in coeffs], dtype=float)
    if col.size and (col.min() < 0 or col.max() >= num_vars):
        raise SolveError("row references a variable outside [0, %d)" % num_vars)
    if not np.isfinite(coef).all():
        raise SolveError("row coefficient is not finite")
    sign = np.array([1.0 if sense == "<=" else -1.0 for sense in senses])
    return row, col, coef, rhs, sign


@dataclass(eq=False)
class SolveOutcome:
    status: str  # "optimal" | "infeasible"
    x: np.ndarray
    value: float


_PIV_TOL = 1e-9
_FEAS_TOL = 1e-7
_RESIDUAL_TOL = 1e-6
_BLAND_AFTER = 1000
_PIVOT_CAP = 200000
_RESYNC_EVERY = 500
_BLOCK_ENTRIES = 1 << 14  # a pivot updates its block this many entries at a time


class SimplexTableau:
    """Bounded-variable dual simplex tableau over one LP's nonbasic columns.

    The variables are the structural ones, then one slack per added row (+1
    for <=, -1 for >=, bounds [0, inf)). T is rows x lp.num_vars: B^-1 N,
    column k that of variable nonbasic[k]; xB[r] is the value of basic
    variable basis[r], whose unit column is implied. The tableau starts
    with no rows, each structural variable nonbasic at its upper bound if
    its objective coefficient is positive, else at its lower bound: the
    optimum of the row-free LP, so the status starts "optimal". Rows have
    one way in, add_rows(). It appends a batch to an optimal tableau, each
    row written in the current basis with its slack basic (negative where
    the row cuts off the point), which keeps the basis dual feasible; the
    bounded dual simplex then drives out every violated row or reports
    "infeasible" when no entering column can. The cold LP is
    add_rows(lp.rows), a cut add_rows([row]). A pivot hands the entering
    column to the leaving variable and updates the block of rows where that
    column is nonzero times the columns where the pivot row is, through one
    flat index array into T.reshape(-1) (a view of the C-ordered T) per
    slice of about _BLOCK_ENTRIES entries: the same products and
    differences as a two-dimensional block index, so the same bits, with
    index and product arrays that stay in cache.

    Deterministic: the dual leaves by the first largest bound violation
    (one argmax) and enters by the smallest ratio, ties to the largest
    pivot, then to the smallest variable. After 1000 degenerate pivots it
    switches to Bland's rule: it leaves by the smallest basic variable and
    enters by the smallest tied variable. After 200 000 pivots it raises
    NumericalInstabilityError. Within one solve the basic bounds, the
    nonbasic directions and the columns free to enter are kept across
    pivots and changed only where a pivot changes them.

    Every optimum is audited against every row and bound, added rows
    included, and raises NumericalInstabilityError if one is violated by
    more than 1e-6. The audit holds no dense copy of the rows: their
    nonzeros are kept as flat (row, column, coefficient) arrays, extended by
    add_rows, and every row's value is one gather and one bincount.

    pivots counts the dual simplex iterations and the degenerate ones.
    """

    def __init__(self, lp: LinearProgram):
        n = lp.num_vars
        self.lp = lp
        self.lo, self.hi = np.array(lp.bounds, dtype=float).reshape(n, 2).T
        self.cost = lp.objective.copy()
        self.at_upper = self.cost > 0.0
        self.T = np.zeros((0, n))
        self.xB = np.zeros(0)
        self.basis = np.zeros(0, dtype=np.int64)
        self.nonbasic = np.arange(n)  # the variable of each column of T
        # the audit's (row, column, coefficient) triples, and each row's rhs and sign
        self.entry_row = self.entry_col = np.zeros(0, dtype=np.int64)
        self.entry_coef = self.rhs = self.sign = np.zeros(0)
        self.status = "optimal"  # every variable at its cost-directed bound
        self.pivots = {"dual": 0, "degenerate": 0}

    def add_rows(self, rows) -> SolveOutcome:
        """Append (coeffs, sense, rhs) rows, each with its slack basic, and
        re-solve from the last optimum."""
        if self.status != "optimal":
            raise SolveError("rows can only be added to an optimal tableau")
        row, col, coef, rhs, sign = _flat_rows(rows, self.lp.num_vars)
        m, k = self.basis.size, rhs.size
        A = np.zeros((k, self.cost.size))  # over every variable so far
        np.add.at(A, (row, col), coef)
        xB = (rhs - A @ self._point()) / sign  # each slack at the last optimum
        # in the current basis a row is a_N - a_B B^-1 N, none of it on the empty
        # start basis; take, unlike A[:, idx], keeps it C-ordered
        A_N = A.take(self.nonbasic, axis=1)
        A_B = A[:, self.basis]
        for i in A_B.any(axis=1).nonzero()[0]:
            nz = A_B[i].nonzero()[0]
            A_N[i] -= A_B[i, nz] @ self.T[nz]
        A_N /= sign[:, None]  # by each slack's coefficient (+-1), basic in its row
        self.T = np.concatenate((self.T, A_N))
        self.xB = np.concatenate((self.xB, xB))
        self.basis = np.concatenate((self.basis, self.cost.size + np.arange(k)))
        self.lo = np.concatenate((self.lo, np.zeros(k)))
        self.hi = np.concatenate((self.hi, np.full(k, np.inf)))
        self.cost = np.concatenate((self.cost, np.zeros(k)))
        self.at_upper = np.concatenate((self.at_upper, np.zeros(k, dtype=bool)))
        self.entry_row = np.concatenate((self.entry_row, row + m))
        self.entry_col = np.concatenate((self.entry_col, col))
        self.entry_coef = np.concatenate((self.entry_coef, coef))
        self.rhs = np.concatenate((self.rhs, rhs))
        self.sign = np.concatenate((self.sign, sign))
        return self._finish(self._dual())

    # -- internals ---------------------------------------------------------

    def _reduced_costs(self) -> np.ndarray:
        return self.cost[self.nonbasic] - self.cost[self.basis] @ self.T

    def _pivot(self, r: int, j: int, d: np.ndarray, enter_val: float):
        T = self.T
        piv = T[r, j]
        if abs(piv) <= _PIV_TOL:
            raise NumericalInstabilityError("pivot element below tolerance")
        # column j takes the leaving variable's unit column; the update makes it B^-1's
        colv = T[:, j].copy()
        T[:, j] = colv[r] = 0.0
        T[r, j] = 1.0
        dj, d[j] = d[j], 0.0
        T[r] /= piv
        prow = T[r]
        rows = colv.nonzero()[0]
        cols = prow.nonzero()[0]  # never empty: prow[j] is 1 / piv
        pcols = prow[cols]
        # the rows x cols block through flat indices into T, in slices of
        # rows whose index and product arrays stay small enough to cache
        flat = T.reshape(-1)
        step = max(1, _BLOCK_ENTRIES // cols.size)
        for s in range(0, rows.size, step):
            part = rows[s:s + step]
            block = (part[:, None] * T.shape[1] + cols).ravel()
            flat[block] -= np.outer(colv[part], pcols).ravel()
        d[cols] -= dj * pcols
        self.basis[r], self.nonbasic[j] = self.nonbasic[j], self.basis[r]
        self.xB[r] = enter_val

    def _dual(self) -> str:
        """Bounded dual simplex from a dual-feasible basis."""
        if not self.basis.size:
            return "optimal"  # no rows, so none is violated
        d = self._reduced_costs()
        movable = self.lo < self.hi
        free = movable[self.nonbasic]  # the columns that may enter
        loB, hiB = self.lo[self.basis], self.hi[self.basis]
        # moving column j's variable off its bound by t changes it by direction[j] * t
        direction = np.where(self.at_upper[self.nonbasic], -1.0, 1.0)
        degenerate = 0
        for it in range(1, _PIVOT_CAP + 1):
            below = loB - self.xB
            above = self.xB - hiB
            violation = np.maximum(below, above)
            r = int(violation.argmax())  # the first largest violation
            if violation[r] <= _FEAS_TOL:
                return "optimal"
            bland = degenerate > _BLAND_AFTER
            if bland:
                bad = (violation > _FEAS_TOL).nonzero()[0]
                r = int(bad[np.argmin(self.basis[bad])])
            self.pivots["dual"] += 1
            to_lower = below[r] > 0.0
            # moving column j off its bound by t moves xB[r] by -slope[j]*t
            slope = self.T[r] * direction
            helps = (slope < -_PIV_TOL) if to_lower else (slope > _PIV_TOL)
            cand = (free & helps).nonzero()[0]
            if cand.size == 0:
                return "infeasible"
            ratios = np.abs(d[cand]) / np.abs(slope[cand])
            best = float(ratios.min())
            ties = cand[ratios <= best + 1e-12]
            ties = ties[np.argsort(self.nonbasic[ties])]  # in variable order
            j = int(ties[0] if bland else ties[np.argmax(np.abs(slope[ties]))])
            if best < 1e-12:
                degenerate += 1
                self.pivots["degenerate"] += 1
            target = loB[r] if to_lower else hiB[r]
            t = (self.xB[r] - target) / slope[j]
            self.xB -= t * direction[j] * self.T[:, j]
            enter, leave = self.nonbasic[j], self.basis[r]
            enter_val = (self.lo[enter] + t) if direction[j] > 0 else (self.hi[enter] - t)
            self.at_upper[leave] = not to_lower
            direction[j] = 1.0 if to_lower else -1.0
            free[j] = movable[leave]
            self._pivot(r, j, d, enter_val)
            loB[r], hiB[r] = self.lo[enter], self.hi[enter]
            if it % _RESYNC_EVERY == 0:
                d = self._reduced_costs()
        raise NumericalInstabilityError("dual simplex did not converge within the pivot cap")

    def _point(self) -> np.ndarray:
        x = np.where(self.at_upper, self.hi, self.lo)
        x[self.basis] = self.xB
        return x

    def _finish(self, status: str) -> SolveOutcome:
        self.status = status
        if status != "optimal":
            return SolveOutcome(status=status, x=None, value=None)
        n = self.lp.num_vars
        x_struct = self._point()[:n]
        val = np.bincount(self.entry_row, self.entry_coef * x_struct[self.entry_col],
                          minlength=self.rhs.size)
        excess = (val - self.rhs) * self.sign  # > 0 where the row is violated
        bad = (excess > _RESIDUAL_TOL).nonzero()[0]
        if bad.size:
            i = bad[0]
            raise NumericalInstabilityError(
                "solution violates a row by %r" % float(abs(val[i] - self.rhs[i]))
            )
        lo, hi = self.lo[:n], self.hi[:n]
        if ((x_struct < lo - _RESIDUAL_TOL) | (x_struct > hi + _RESIDUAL_TOL)).any():
            raise NumericalInstabilityError("solution violates a variable bound")
        value = float(self.lp.objective @ x_struct)
        return SolveOutcome(status="optimal", x=x_struct, value=value)


def simplex_solve(lp: LinearProgram) -> SolveOutcome:
    """Solve lp by the dual simplex: its rows added to a tableau with none
    (see SimplexTableau)."""
    return SimplexTableau(lp).add_rows(lp.rows)


# ---------------------------------------------------------------------------
# the local polytope in moment coordinates


def _lifted(target) -> LiftedModel:
    """target itself, or a ground Model lifted under the trivial group."""
    if isinstance(target, LiftedModel):
        return target
    if isinstance(target, Model):
        return build_lifted_model(target, TrivialSymmetries(target))
    raise SolveError("expected a Model or a LiftedModel")


def build_local_lp(target) -> LinearProgram:
    """Local consistency LP of a LiftedModel, or of a ground Model's trivial
    lift, in moment coordinates.

    Variable 0 is fixed at 1 and carries the constant; variable c + 1 is
    cell c's moment, in [0, 1]. The objective is the constant and
    theta_bar. The rows are "P(a) >= 0" for each assignment of each edge
    orbit's and each arity >= 3 feature orbit's representative, each
    distinct row once in first-seen order; an all-ones assignment is a
    single moment, which its bounds keep in [0, 1].
    """
    lm = _lifted(target)
    num_vars = lm.num_cells + 1
    rows = {}
    for orbit_rows in lm.probability_rows:
        for terms in orbit_rows[:-1]:
            rows.setdefault(tuple(terms), terms)
    return LinearProgram(
        num_vars=num_vars,
        objective=np.concatenate(([lm.constant], lm.theta_bar)),
        rows=[(terms, ">=", 0.0) for terms in rows.values()],
        bounds=[(1.0, 1.0)] + [(0.0, 1.0)] * (num_vars - 1),
    )


def uniform_interior(lifted: LiftedModel) -> np.ndarray:
    """The LP point of the uniform distribution: 2^-|S| for the moment of S.

    Cells come variable orbits first, then edge orbits, then factor-moment
    orbits, whose representative (feature, assignment) has ones on S.
    """
    b = lifted.bundle
    sizes = [1] * b.vars.num_cells + [2] * b.edges.num_cells
    sizes += [sum(a) for _, a in b.factor_moments.reps]
    return np.concatenate(([1.0], 2.0 ** -np.array(sizes, dtype=float)))


# ---------------------------------------------------------------------------
# cycle separation via mirror shortest paths

CYCLE_TOL = 1e-6  # a walk of weight below 1 - CYCLE_TOL is a violated cycle
ALPHA = 0.99  # in-out step: separate at ALPHA * tau_out + (1 - ALPHA) * tau_in


@dataclass(frozen=True)
class CycleConstraint:
    """One odd-crossing closed-walk inequality.

    steps hold (edge key, in_F) pairs; keys are edge-orbit indices of a lifted
    model, or ground edges (u, v) from separate_cycles_ground.
    lhs caches the value at the separating point.
    """

    steps: tuple
    lhs: float
    source: object

    def canonical(self):
        # the row only depends on the multiset of steps
        return tuple(sorted(self.steps))


@dataclass(frozen=True)
class StabilizedGraph:
    """Mirror-search graph shared by the node orbits whose representatives
    have the same stabilized variable cells: those cells as nodes, one edge
    per distinct (full edge orbit, pair of stabilized cells), keyed by the
    FULL edge orbit that carries its weights."""

    sources: tuple  # (node orbit, its representative's cell), orbits increasing
    edges: tuple  # (full edge orbit id, cell a, cell b)

    @functools.cached_property
    def mirror(self) -> list:
        """Adjacency of the two-copy graph, built on first use and kept:
        node 2 * cell + copy -> [(node, weight slot, edge orbit, crossed)].

        Edge orbit e's within-copy images weigh slot 2e (its cut weight), its
        copy-switching images slot 2e + 1 (its nocut weight); a self-loop only
        switches. Only the weights change between separation calls.
        """
        cells = [c for _, c in self.sources] + [c for _, a, b in self.edges for c in (a, b)]
        adj = [[] for _ in range(2 * (max(cells, default=-1) + 1))]

        def add(na, nb, slot, e, crossed):
            adj[na].append((nb, slot, e, crossed))
            adj[nb].append((na, slot, e, crossed))

        for e, a, b in self.edges:
            if a == b:
                add(2 * a, 2 * a + 1, 2 * e + 1, e, True)
                continue
            add(2 * a, 2 * b, 2 * e, e, False)
            add(2 * a + 1, 2 * b + 1, 2 * e, e, False)
            add(2 * a, 2 * b + 1, 2 * e + 1, e, True)
            add(2 * a + 1, 2 * b, 2 * e + 1, e, True)
        return adj


def mirror_weights(cut, nocut) -> list:
    """The flat weight list of a mirror graph: slot 2e is edge orbit e's cut
    weight, slot 2e + 1 its nocut weight, both clamped at zero."""
    return np.maximum(np.column_stack((cut, nocut)), 0.0).ravel().tolist()


def mirror_walk(adj, weights, source, bound=math.inf, dist=None):
    """Shortest walk from node 2 * source to its mirror image 2 * source + 1.

    adj is a StabilizedGraph.mirror and weights its mirror_weights. Returns
    (steps, total) with steps a tuple of (edge orbit, crossed); (None, inf)
    when the mirror image is unreachable or only by walks longer than bound.
    Walks longer than bound are not followed, which leaves every walk of
    total <= bound as the unbounded search finds it: Dijkstra settles the
    nodes within the bound in the same order either way. Heap ties go to the
    smaller node, that is to the smaller (cell, copy).

    dist, if given, is the search's own distance list to start from: inf at
    every node but -inf at the nodes the walk must not enter.
    """
    start, goal = 2 * source, 2 * source + 1
    dist = [math.inf] * len(adj) if dist is None else dist
    prev = [None] * len(adj)
    dist[start] = 0.0
    heap = [(0.0, start)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, node = pop(heap)
        if d > dist[node]:
            continue
        if node == goal:
            break
        for nbr, slot, e, crossed in adj[node]:
            nd = d + weights[slot]
            if nd <= bound and nd < dist[nbr]:
                dist[nbr] = nd
                prev[nbr] = (node, e, crossed)
                push(heap, (nd, nbr))
    if prev[goal] is None:
        return None, math.inf
    steps = []
    node = goal
    while node != start:
        node, e, crossed = prev[node]
        steps.append((e, crossed))
    steps.reverse()
    return tuple(steps), dist[goal]


def _most_violated(graphs, weights):
    """(steps, total, orbit) of the least mirror walk over every source of
    graphs, or None when none is a violated cycle (total < 1 - CYCLE_TOL).

    Ties go to the smallest orbit. Each walk is bounded by the least total
    found so far and by 1 - CYCLE_TOL, so a walk that can neither win nor
    violate stops early.

    The walk from a source never enters the two mirror nodes of a source
    of the same graph searched before it. That skips no winner: a walk from
    s through an earlier source t is a closed odd walk, which rotated to
    start at t is a walk of t's with the same total. t's search, under a
    bound no smaller than s's, found a walk no longer, and t's orbit is the
    smaller, so the walk through t can only tie or lose at s.
    """
    best = None
    for g in graphs:
        adj = g.mirror
        blocked = [math.inf] * len(adj)  # -inf at the sources searched so far
        for orbit, source in g.sources:
            bound = 1.0 - CYCLE_TOL if best is None else best[1]
            steps, total = mirror_walk(adj, weights, source, bound, blocked.copy())
            blocked[2 * source] = blocked[2 * source + 1] = -math.inf
            if steps is None:
                continue
            if best is None or (total, orbit) < (best[1], best[2]):
                best = (steps, total, orbit)
    if best is None or best[1] >= 1.0 - CYCLE_TOL:
        return None
    return best


def separate_cycles_ground(model, tau):
    """Most violated cycle inequality on the skeleton, or None.

    The ground counterpart of separate_cycles_lifted, on the same mirror
    walk: one mirror graph over the model's ground edges, searched from
    every variable. tau is over the overcomplete layout, whose edge block
    alone is read; the steps are keyed by ground edges (u, v).
    cutting_plane_map solves a ground model by its trivial lift instead,
    which takes the same walks.
    """
    layout = OvercompleteLayout(model)
    t = np.asarray(tau, dtype=float)[layout.edge_block].reshape(-1, 4)  # 00, 01, 10, 11
    weights = mirror_weights(t[:, 1] + t[:, 2], t[:, 0] + t[:, 3])
    nodes = sorted({w for edge in layout.edges for w in edge})
    graph = StabilizedGraph(
        sources=tuple((i, i) for i in nodes),
        edges=tuple((k, u, v) for k, (u, v) in enumerate(layout.edges)),
    )
    best = _most_violated((graph,), weights)
    if best is None:
        return None
    steps, total, src = best
    steps = tuple((layout.edges[k], crossed) for k, crossed in steps)
    return CycleConstraint(steps=steps, lhs=total, source=src)


def build_stabilized_graphs(lifted: LiftedModel):
    """The stabilized lifted graphs of every node orbit, built once per model.

    Each graph quotients the model by a subgroup H of the stabilizer of node
    orbit k's representative bundle.vars.reps[k], found with no search: the
    renaming source pins the representative's constants, the search source
    keeps the found generators that fix it. The source's stabilized_light
    gives H's variable orbits. Any H that fixes the representative gives the
    same shortest mirror walk from it: each walk on the quotient lifts to a
    ground walk of equal weight back to it, since H keeps it a singleton and
    keeps the edge weights, and each ground walk projects to a quotient walk
    of no larger weight.

    A quotient edge may be keyed by its full edge orbit: its weights are
    read off the full orbit's cells, so all ground edges of one full orbit
    between the same two H-cells are parallel edges of equal weight, and
    one of them serves. Each edge keeps the cells of the smallest such
    ground edge. Node orbits whose stabilized variable cells are the same
    partition share one graph, so the edges are walked once per distinct
    partition: once in all under the trivial group.
    """
    edges = lifted.bundle.edges
    ends = [(u, v, e) for (u, v), e in zip(edges.elements, edges.cell.tolist())]
    groups = {}  # stabilized cells -> (variable orbits, [(orbit, source)])
    for k, rep in enumerate(lifted.bundle.vars.reps):
        part = lifted.symmetries.stabilized_light(rep)
        groups.setdefault(part.cells, (part, []))[1].append((k, int(part.cell[rep])))
    graphs = []
    for part, sources in groups.values():
        cell = part.cell.tolist()
        dedup = {}
        for u, v, e in ends:
            a, b = cell[u], cell[v]
            key = (a, b, e) if a <= b else (b, a, e)
            if key not in dedup:
                dedup[key] = (e, a, b)
        graphs.append(StabilizedGraph(sources=tuple(sources), edges=tuple(dedup.values())))
    return tuple(graphs)


def separate_cycles_lifted(lifted: LiftedModel, stabilized, x):
    """Most violated lifted cycle inequality across node orbits, or None.

    x is a point of the local LP. Edge orbit k's cut weight is its
    representative's disagreement P(01) + P(10) = (mu_v - mu_uv) + (mu_u -
    mu_uv), and its nocut weight is 1 - cut. Ties go to the smallest node
    orbit (see _most_violated).
    """
    mu_v, mu_u, mu_uv = np.asarray(x, dtype=float)[lifted.edge_moment_vars]
    cut = (mu_v - mu_uv) + (mu_u - mu_uv)
    best = _most_violated(stabilized, mirror_weights(cut, 1.0 - cut))
    if best is None:
        return None
    steps, total, orbit = best
    return CycleConstraint(steps=steps, lhs=total, source=orbit)


def constraint_row(constraint: CycleConstraint, lifted: LiftedModel):
    """LP row (coeffs, ">=", 1.0) of a cycle constraint keyed by edge orbits,
    over the local LP's variables.

    Each step adds its edge's agreement P(00) + P(11) when in F, else its
    disagreement P(01) + P(10) = mu_u + mu_v - 2 mu_uv.
    """
    acc = {}
    for k, in_f in constraint.steps:
        orbit_rows = lifted.probability_rows[k]
        for i in (0, 3) if in_f else (1, 2):
            for j, c in orbit_rows[i]:
                acc[j] = acc.get(j, 0.0) + c
    return (sorted(kv for kv in acc.items() if kv[1] != 0.0), ">=", 1.0)


# ---------------------------------------------------------------------------
# decoding and the cutting-plane driver


def decode(x, lifted: LiftedModel, space: str):
    """Round node marginals at 1/2 (ties to 0) and report fractionality.

    x is a point of the local LP: node orbit k is cell k, so its P(x = 1)
    is x[k + 1], and the node marginals are one slice of x. The rounded
    configuration is uniform on node orbits: it is scored on cells and
    expanded through var_cells. space shapes the output: a lifted decode
    also reports the orbit representatives, values and marginals.
    """
    marginals = np.asarray(x, dtype=float)[1:1 + lifted.bundle.vars.num_cells].tolist()
    values = [1 if p1 > 0.5 else 0 for p1 in marginals]
    out = {
        "space": space,
        "fractional": any(1e-6 < p1 < 1.0 - 1e-6 for p1 in marginals),
        "configuration": np.array(values, dtype=np.int64)[lifted.var_cells].tolist(),
        "score": lifted.score(values),
    }
    if space == "lifted":
        out["orbit_reps"] = list(lifted.node_reps)
        out["orbit_values"] = values
        out["orbit_marginals"] = marginals
    return out


@dataclass
class MapOptions:
    polytope: str = "local"  # "local" | "cycle"
    max_cuts: int = 200


@dataclass(eq=False)
class MapResult:
    status: str  # "optimal" | "cap"
    space: str
    objective: float
    tau: np.ndarray  # the final LP point x: the constant 1, then each cell's moment
    bounds: tuple
    cuts_added: tuple
    decode: dict
    num_lp_vars: int
    num_lp_rows: int
    timings_ms: dict
    pivots: dict  # dual simplex iterations, and the degenerate ones among them

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "space": self.space,
            "objective": self.objective,
            "bounds": [float(v) for v in self.bounds],
            "cuts": len(self.cuts_added),
            "iterations": len(self.bounds) - 1,
            "lp": {"variables": self.num_lp_vars, "rows": self.num_lp_rows},
            "decode": self.decode,
            "timings_ms": self.timings_ms,
            "pivots": dict(self.pivots),
        }


def cutting_plane_map(target, opts: MapOptions = None) -> MapResult:
    """MAP LP on the local polytope, optionally tightened by cycle cuts.

    target is a LiftedModel, or a Model for ground inference, which is
    solved as its lift under the trivial group. With polytope="cycle" the
    in-out loop separates at a point pulled toward a certified-feasible
    interior point, falling back to the LP optimum. One SimplexTableau serves
    the whole run: the local rows enter it in one add_rows, and each cut in
    one more, re-solved warm from the last optimum.
    """
    opts = MapOptions() if opts is None else opts
    if opts.polytope not in ("local", "cycle"):
        raise SolveError("unknown polytope %r" % opts.polytope)
    t_start = time.perf_counter()
    timings = {"build_ms": 0.0, "solve_ms": 0.0, "separate_ms": 0.0}

    t0 = time.perf_counter()
    lifted = _lifted(target)  # built once, shared by every step
    space = "lifted" if lifted is target else "ground"
    lp = build_local_lp(lifted)
    tableau = SimplexTableau(lp)
    timings["build_ms"] += (time.perf_counter() - t0) * 1000

    def solve_now(rows):
        t1 = time.perf_counter()
        out = tableau.add_rows(rows)
        timings["solve_ms"] += (time.perf_counter() - t1) * 1000
        if out.status != "optimal":
            raise SolveError("local polytope LP reported %s" % out.status)
        return out

    out = solve_now(lp.rows)
    bounds = [out.value]
    x_out = out.x
    cuts = []
    seen = set()
    status = "optimal"

    if opts.polytope == "cycle":
        t0 = time.perf_counter()
        stabilized = build_stabilized_graphs(lifted)
        timings["build_ms"] += (time.perf_counter() - t0) * 1000
        x_in = uniform_interior(lifted)
        while True:
            t1 = time.perf_counter()
            sigma = ALPHA * x_out + (1.0 - ALPHA) * x_in
            cut = separate_cycles_lifted(lifted, stabilized, sigma)
            if cut is None:
                x_in = sigma
                cut = separate_cycles_lifted(lifted, stabilized, x_out)
            timings["separate_ms"] += (time.perf_counter() - t1) * 1000
            if cut is None:
                status = "optimal"
                break
            key = cut.canonical()
            if key in seen or len(cuts) >= opts.max_cuts:
                # a repeated cut makes no progress; a new one past the budget is not added
                status = "cap"
                break
            seen.add(key)
            cuts.append(cut)
            out = solve_now([constraint_row(cut, lifted)])
            bounds.append(out.value)
            x_out = out.x

    objective = out.value
    decoded = decode(x_out, lifted, space)
    timings["total_ms"] = (time.perf_counter() - t_start) * 1000
    timings = {k: round(v, 3) for k, v in timings.items()}
    return MapResult(
        status=status,
        space=space,
        objective=objective,
        tau=x_out,
        bounds=tuple(bounds),
        cuts_added=tuple(cuts),
        decode=decoded,
        num_lp_vars=lp.num_vars,
        num_lp_rows=len(lp.rows) + len(cuts),
        timings_ms=timings,
        pivots=dict(tableau.pivots),
    )
