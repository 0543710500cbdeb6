"""Brute-force references that only the tests use.

Everything here works by enumeration: configuration orbits closed under
variable permutations, exhaustive automorphism search over all n! variable
permutations, the group a generator set generates, and direct enumeration
of odd-set cycle constraints. They are deliberately independent of the
search, lifting, and separation code they are used to validate. The
tuple-keyed mirror graph and walk are the plain form of the integer-node
walk the separation runs on, and most_violated, which searches every
source from scratch, of the separation loop that skips the sources
searched before; the per-node graph check, the per-feature table check
and the per-assignment Moebius row are the plain forms of the search's
array leaf checks and of the lifted model's cached rows;
act_element and element_orbits, one element and one generator at a time,
are the plain form of the orbits' image arrays; lift_cells, one element
at a time through dicts, is the plain form of the lift's label arrays;
and recursive_search is the search as it was before its refinement trace
pruned children. _UnionFind is the references' own orbit computation,
apart from the package's min-label propagation. DenseTableau is the dual
simplex tableau as it was before it dropped its basic columns: it keeps
one column per variable, slacks included, so each basic variable's unit
column is stored. It reads _BLAND_AFTER from the solve module, so a test
that patches the rule switch reaches both tableaux.
"""

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from liftedmap import solve
from liftedmap.model import Model, ModelError, table_index
from liftedmap.oracle import LimitExceededError, OracleError, _config_matrix, exact_enumerate
from liftedmap.solve import (
    _BLOCK_ENTRIES,
    _FEAS_TOL,
    _PIV_TOL,
    _PIVOT_CAP,
    _RESIDUAL_TOL,
    _RESYNC_EVERY,
    LinearProgram,
    NumericalInstabilityError,
    SolveError,
    SolveOutcome,
    _flat_rows,
)
from liftedmap.symmetry import (
    GeneratorSet,
    OrbitPartition,
    PermutationPair,
    _domain_elements,
    _permuted_table,
    is_model_automorphism,
    refine_colors,
)

from overcomplete import OvercompleteLayout
from signatures import group_by_key


class _UnionFind:
    """Orbits joined one pair at a time, each rooted at its smallest
    member."""

    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # root at the smaller index so representatives are minima
        if ra < rb:
            self.parent[rb] = ra
        else:
            self.parent[ra] = rb


@dataclass(frozen=True, eq=False)
class ConfigOrbit:
    configs: tuple
    centroid: np.ndarray
    score: float


def configuration_orbits(model: Model, gens, limit: int = 16):
    """Orbits of whole configurations with their mean statistics vectors.

    Closes {0,1}^n under x -> permuted x for each generator, computes the
    per-orbit centroid of the overcomplete statistics, and checks that the
    best centroid score equals the exact MAP value.
    """
    n = model.num_vars
    if n > limit:
        raise LimitExceededError("orbit enumeration needs num_vars <= %d, got %d" % (limit, n))
    pairs = gens.generators if isinstance(gens, GeneratorSet) else tuple(gens)
    perms = [p.var_perm for p in pairs]
    X = _config_matrix(n)
    layout = OvercompleteLayout(model)
    theta = layout.theta_vector()
    seen = [False] * (2 ** n)
    orbits = []
    for c0 in range(2 ** n):
        if seen[c0]:
            continue
        comp = []
        stack = [c0]
        seen[c0] = True
        while stack:
            c = stack.pop()
            comp.append(c)
            x = X[c]
            for pi in perms:
                img = 0
                for i in range(n):
                    img = (img << 1) | int(x[pi[i]])
                if not seen[img]:
                    seen[img] = True
                    stack.append(img)
        comp.sort()
        configs = tuple(tuple(int(b) for b in X[c]) for c in comp)
        centroid = np.mean([layout.phi_vector(x) for x in configs], axis=0)
        orbits.append(
            ConfigOrbit(configs=configs, centroid=centroid, score=float(theta @ centroid))
        )
    best = max(o.score for o in orbits)
    exact = exact_enumerate(model, limit=max(limit, n))
    if abs(best - exact.map_value) > 1e-9:
        raise OracleError(
            "best orbit-centroid score %r does not match the exact optimum %r"
            % (best, exact.map_value)
        )
    return orbits


# ---------------------------------------------------------------------------
# exhaustive automorphisms


def _tables_match(f, f2, pi):
    # value equality under the position correspondence induced by pi
    pos = {u: i for i, u in enumerate(f2.scope)}
    for a in itertools.product((0, 1), repeat=f.arity):
        b = [0] * f.arity
        for k, v in enumerate(f.scope):
            b[pos[pi[v]]] = a[k]
        if f.table[table_index(a)] != f2.table[table_index(b)]:
            return False
    return True


def _bijections(cand, m):
    out = []
    used = [False] * m
    pick = [0] * m

    def rec(j):
        if j == m:
            out.append(tuple(pick))
            return
        for j2 in cand[j]:
            if not used[j2]:
                used[j2] = True
                pick[j] = j2
                rec(j + 1)
                used[j2] = False

    rec(0)
    return out


def _defining_property(model, pair, configs):
    pi, ga = pair.var_perm, pair.feature_perm
    for x in configs:
        xp = tuple(x[pi[i]] for i in range(len(pi)))
        for j, f in enumerate(model.features):
            if f.value(xp) != model.features[ga[j]].value(x):
                return False
    return True


def exhaustive_automorphisms(model: Model, limit: int = 6):
    """All symmetry pairs of the model, found by trying every variable permutation.

    For each of the n! variable permutations, feature images are matched by
    scope, tie class, and table values (with backtracking when duplicates
    allow several bijections), then each candidate pair is verified on all
    2^n configurations.
    """
    n, m = model.num_vars, model.num_features
    if n > limit:
        raise LimitExceededError("exhaustive search needs num_vars <= %d, got %d" % (limit, n))
    by_scope = {}
    for j2, f2 in enumerate(model.features):
        by_scope.setdefault(f2.scope, []).append(j2)
    configs = [tuple((c >> (n - 1 - i)) & 1 for i in range(n)) for c in range(2 ** n)]
    results = []
    for pi in itertools.permutations(range(n)):
        cand = []
        for j, f in enumerate(model.features):
            scope_img = tuple(sorted(pi[v] for v in f.scope))
            opts = [
                j2
                for j2 in by_scope.get(scope_img, ())
                if model.tie_class_of[j2] == model.tie_class_of[j]
                and _tables_match(f, model.features[j2], pi)
            ]
            if not opts:
                cand = None
                break
            cand.append(opts)
        if cand is None:
            continue
        for ga in _bijections(cand, m):
            pair = PermutationPair(var_perm=pi, feature_perm=ga)
            if _defining_property(model, pair, configs):
                results.append(pair)
    return results


def generated_group(gens, model: Model):
    """Closure of a generator set under composition (small groups only)."""
    pairs = gens.generators if isinstance(gens, GeneratorSet) else tuple(gens)
    ident = PermutationPair(tuple(range(model.num_vars)), tuple(range(model.num_features)))
    group = {ident}
    frontier = [ident]
    while frontier:
        cur = frontier.pop()
        for g in pairs:
            nxt = PermutationPair(
                tuple(cur.var_perm[g.var_perm[i]] for i in range(model.num_vars)),
                tuple(cur.feature_perm[g.feature_perm[j]] for j in range(model.num_features)),
            )
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    return frozenset(group)


# ---------------------------------------------------------------------------
# orbits, one element and one generator at a time


def act_element(domain, element, pair: PermutationPair, model: Model):
    """Image of one domain element under a permutation pair."""
    pi = pair.var_perm
    if domain == "vars":
        return pi[element]
    if domain == "features":
        return pair.feature_perm[element]
    if domain == "edges":
        u, v = element
        a, b = pi[u], pi[v]
        return (a, b) if a < b else (b, a)
    if domain == "factor-moments":
        j, a = element
        j2 = pair.feature_perm[j]
        pos = {u: i for i, u in enumerate(model.features[j2].scope)}
        out = [0] * len(a)
        for k, u in enumerate(model.features[j].scope):
            out[pos[pi[u]]] = a[k]
        return (j2, tuple(out))
    raise ModelError("unknown orbit domain %r" % (domain,))


def element_orbits(gens, domain, model: Model) -> OrbitPartition:
    """orbits_of as it was before the image arrays: every generator applied
    to every element with act_element, joined by a union-find."""
    elements = sorted(_domain_elements(domain, model))
    index = {e: i for i, e in enumerate(elements)}
    uf = _UnionFind(len(elements))
    pairs = gens.generators if isinstance(gens, GeneratorSet) else tuple(gens)
    for pair in pairs:
        for e in elements:
            img = act_element(domain, e, pair, model)
            if img not in index:
                raise ModelError("generator maps %r outside the %s domain" % (e, domain))
            uf.union(index[e], index[img])
    return group_by_key(elements, lambda e: uf.find(index[e]))


# ---------------------------------------------------------------------------
# the search as it was before trace pruning


def recursive_search(graph) -> GeneratorSet:
    """search_automorphisms before its refinement trace pruned children and
    its recursion became a stack: one call per tree node, every child
    refined to its end and compared with the base path by its sorted cell
    labels. Like the search, only a base-path node prunes its children by
    orbits, but it skips a child in the orbit of an explored sibling by a
    union-find, where the search compares smallest orbit-mates. Its
    generators come in the same order, and it counts every child as a
    tree node."""
    n_nodes = graph.num_nodes
    identity = list(range(n_nodes))
    gens, base_path, base_invariants, base_leaf = [], [], [], [None]
    counts = {"tree_nodes": 0, "leaves": 0}

    def stab_gens(path, among):
        return [g for g in among if all(g[v] == v for v in path)]

    def search(part, path, on_base):
        counts["tree_nodes"] += 1
        cells = part.cells
        if base_leaf[0] is None:
            base_invariants.append(tuple(sorted(cells)))
        elif len(path) >= len(base_invariants) or tuple(sorted(cells)) != base_invariants[len(path)]:
            return False
        if len(cells) == n_nodes:
            counts["leaves"] += 1
            if base_leaf[0] is None:
                base_leaf[0] = part.label
                base_path.extend(path)
                return False
            here = dict(zip(part.label, identity))
            perm = list(map(here.__getitem__, base_leaf[0]))
            if perm != identity and is_model_automorphism(graph, perm):
                gens.append(tuple(perm))
                return True
            return False
        sizes = list(map(len, cells.values()))
        target = cells[min(c for c, size in zip(cells, sizes) if size == max(sizes))]
        found_any, explored, uf = False, [], _UnionFind(n_nodes)
        for v in sorted(target):
            if on_base:  # only a base-path node prunes by orbits
                for g in stab_gens(path, gens):
                    for u, w in enumerate(g):
                        uf.union(u, w)
                if any(uf.find(v) == uf.find(w) for w in explored):
                    continue
            explored.append(v)
            found = search(refine_colors(graph, part, v), path + (v,),
                           on_base and base_leaf[0] is None)
            found_any = found_any or found
            if found and not on_base:
                return True  # backjump off the base path
        return found_any

    search(refine_colors(graph), (), True)
    order = 1
    for i, v in enumerate(base_path):
        sub, orbit, frontier = stab_gens(base_path[:i], gens), {v}, [v]
        while frontier:
            u = frontier.pop()
            for g in sub:
                if g[u] not in orbit:
                    orbit.add(g[u])
                    frontier.append(g[u])
        order *= len(orbit)
    nv = graph.num_vars
    pairs = [PermutationPair(g[:nv], [w - nv for w in g[nv:]]) for g in gens]
    return GeneratorSet(generators=pairs, group_order=order, **counts)


# ---------------------------------------------------------------------------
# the search's leaf checks, one node and one feature at a time


def graph_automorphism(graph, perm) -> bool:
    """Whether perm keeps every node color and maps each node's sorted
    (neighbor, edge color) list onto its image's."""
    ic = graph.init_colors
    for u in range(graph.num_nodes):
        if ic[u] != ic[perm[u]]:
            return False
        image = tuple(sorted((perm[w], c) for (w, c) in graph.adj[u]))
        if image != graph.adj[perm[u]]:
            return False
    return True


def model_automorphism(graph, perm) -> bool:
    """The exact table check of a graph automorphism, feature by feature:
    each table against its image's under the induced scope reordering."""
    feats = graph.model.features
    nv = graph.num_vars
    for j, f in enumerate(feats):
        f2 = feats[perm[nv + j] - nv]
        pos = {v: k for k, v in enumerate(f2.scope)}
        sigma = tuple(pos[perm[v]] for v in f.scope)
        if _permuted_table(f.table, sigma, f.arity) != f2.table:
            return False
    return True


# ---------------------------------------------------------------------------
# the lift's cells, one element at a time


def lift_cells(lifted):
    """rho, the node orbits' cells, and the edge and factor orbit tables of
    a lifted model as build_lifted_model read them before the partitions
    carried label arrays: a dict from each element of a domain to its cell,
    built from the partition's member tuples, and every scope subset of
    every orbit representative looked up in it. Node orbit k's table is
    (-1, its cell), and the lift numbers it cell k."""
    model, bundle = lifted.model, lifted.bundle
    vars_, edges, moments = (
        {e: c for c, members in enumerate(p.cells) for e in members}
        for p in (bundle.vars, bundle.edges, bundle.factor_moments)
    )
    first_edge = bundle.vars.num_cells
    first_factor = first_edge + bundle.edges.num_cells
    rho = [vars_[v] for v in bundle.vars.elements]
    rho += [first_edge + edges[e] for e in bundle.edges.elements]
    rho += [first_factor + moments[m] for m in bundle.factor_moments.elements]

    def cells_of(scope, j=None):
        out = []
        for a in itertools.product((0, 1), repeat=len(scope)):
            ones = [v for v, bit in zip(scope, a) if bit]
            if not ones:
                out.append(-1)
            elif len(ones) == 1:
                out.append(vars_[ones[0]])
            elif len(ones) == 2:
                out.append(first_edge + edges[tuple(ones)])
            else:
                out.append(first_factor + moments[(j, a)])
        return tuple(out)

    features = model.features
    return (
        rho,
        tuple(cells_of((v,)) for v in bundle.vars.reps),
        tuple(cells_of(e) for e in bundle.edges.reps),
        tuple(cells_of(features[j].scope, j) for j in bundle.features.reps
              if features[j].arity >= 3),
    )


def lifted_cells(lifted):
    """The four parts of lift_cells as the lifted model holds them: node
    orbit k is cell k, and its edge and factor tables."""
    nodes = tuple((-1, k) for k in range(lifted.bundle.vars.num_cells))
    return lifted.index.rho.tolist(), nodes, lifted.edge_tables, lifted.factor_tables


# ---------------------------------------------------------------------------
# Moebius rows, one assignment at a time


def probability(cells, i) -> list:
    """P(a) of the assignment with table index i over LP variables (cell c is
    variable c + 1): (-1)^|T - ones(a)| mu_T summed over supersets T."""
    acc = {}
    for s in range(len(cells)):
        if s & i == i:
            var = cells[s] + 1
            acc[var] = acc.get(var, 0.0) + (-1.0) ** bin(s ^ i).count("1")
    return sorted(acc.items())


# ---------------------------------------------------------------------------
# cycle constraints by enumeration


def enumerate_cycle_constraints(model: Model, tau, max_len: int = 6):
    """All odd-set cycle constraints on simple cycles up to max_len.

    tau is a vector over the model's overcomplete layout. Returns a list of
    (cycle edges, odd subset, left-hand side) triples; a consistent integral
    tau satisfies every constraint with LHS >= 1.
    """
    layout = OvercompleteLayout(model)
    tau = np.asarray(tau, dtype=float)
    adj = {}
    for (u, v) in layout.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    def cut(e):
        u, v = e
        return float(tau[layout.edge_index(u, v, 0, 1)] + tau[layout.edge_index(u, v, 1, 0)])

    def nocut(e):
        u, v = e
        return float(tau[layout.edge_index(u, v, 0, 0)] + tau[layout.edge_index(u, v, 1, 1)])

    cycles = []

    def dfs(path):
        last = path[-1]
        for w in sorted(adj[last]):
            if w == path[0] and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif w > path[0] and w not in path and len(path) < max_len:
                dfs(path + [w])

    for s in sorted(adj):
        dfs([s])

    out = []
    for cyc in cycles:
        edges = tuple(
            tuple(sorted((cyc[i], cyc[(i + 1) % len(cyc)]))) for i in range(len(cyc))
        )
        for r in range(1, len(edges) + 1, 2):
            for F in itertools.combinations(edges, r):
                chosen = set(F)
                lhs = sum(nocut(e) for e in F)
                lhs += sum(cut(e) for e in edges if e not in chosen)
                out.append((edges, F, lhs))
    return out


# ---------------------------------------------------------------------------
# the mirror walk on a tuple-keyed two-copy graph


def mirror_graph(edges) -> dict:
    """Adjacency of the two-copy graph: node (a, copy) -> [(node, w, key, crossed)].

    edges: iterable of (key, a, b, cut_w, nocut_w); within-copy images carry
    cut_w, copy-switching images carry nocut_w (self-loops only switch).
    Weights are clamped at zero.
    """
    adj = {}

    def add(na, nb, w, key, crossed):
        adj.setdefault(na, []).append((nb, w, key, crossed))
        adj.setdefault(nb, []).append((na, w, key, crossed))

    for key, a, b, cut_w, nocut_w in edges:
        cut_w = max(0.0, float(cut_w))
        nocut_w = max(0.0, float(nocut_w))
        if a == b:
            add((a, 0), (a, 1), nocut_w, key, True)
            continue
        add((a, 0), (b, 0), cut_w, key, False)
        add((a, 1), (b, 1), cut_w, key, False)
        add((a, 0), (b, 1), nocut_w, key, True)
        add((a, 1), (b, 0), nocut_w, key, True)
    return adj


def mirror_walk(adj, source, bound=np.inf):
    """Shortest walk from (source, 0) to its mirror image (source, 1).

    adj is a mirror_graph adjacency. Returns (steps, total) with steps a tuple
    of (key, crossed); (None, inf) when the mirror image is unreachable or
    only by walks longer than bound, which are not followed.
    """
    start, goal = (source, 0), (source, 1)
    dist = {start: 0.0}
    prev = {}
    heap = [(0.0, start)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, np.inf):
            continue
        if node == goal:
            break
        for nbr, w, key, crossed in adj.get(node, ()):
            nd = d + w
            if nd <= bound and nd < dist.get(nbr, np.inf):
                dist[nbr] = nd
                prev[nbr] = (node, key, crossed)
                heapq.heappush(heap, (nd, nbr))
    if goal not in dist:
        return None, np.inf
    steps = []
    node = goal
    while node != start:
        node, key, crossed = prev[node]
        steps.append((key, crossed))
    steps.reverse()
    return tuple(steps), float(dist[goal])


def most_violated(graphs, weights, tol):
    """(steps, total, orbit) of the least mirror walk over every source of
    graphs, or None when none is a violated cycle (total < 1 - tol).

    graphs are StabilizedGraphs and weights their flat mirror-weight list:
    slot 2e is edge orbit e's cut weight, slot 2e + 1 its nocut weight.
    Every source's walk is searched from scratch on the tuple-keyed graph,
    bounded by the least total found so far and by 1 - tol; ties go to the
    smallest orbit.
    """
    best = None
    for g in graphs:
        adj = mirror_graph((e, a, b, weights[2 * e], weights[2 * e + 1]) for e, a, b in g.edges)
        for orbit, source in g.sources:
            bound = 1.0 - tol if best is None else best[1]
            steps, total = mirror_walk(adj, source, bound)
            if steps is not None and (best is None or (total, orbit) < (best[1], best[2])):
                best = (steps, total, orbit)
    if best is None or best[1] >= 1.0 - tol:
        return None
    return best


class DenseTableau:
    """Dense bounded-variable dual simplex tableau over one LP's columns.

    Columns are the structural variables, then one slack per added row (+1
    for <=, -1 for >=, bounds [0, inf)). T holds B^-1 A over those columns
    and xB the value of each row's basic variable. The tableau starts with
    no rows, each structural variable nonbasic at its upper bound if its
    objective coefficient is positive, else at its lower bound: the optimum
    of the row-free LP, so the status starts "optimal". Rows have one way
    in, add_rows(). It appends a batch to an optimal tableau, each row
    written in the current basis with its slack basic (negative where the
    row cuts off the point), which keeps the basis dual feasible; the
    bounded dual simplex then drives out every violated row or reports
    "infeasible" when no entering column can. The cold LP is
    add_rows(lp.rows), a cut add_rows([row]). A pivot updates only the block
    of rows where the pivot column is nonzero times the columns where the
    pivot row is, through one flat index array into T.reshape(-1) per slice
    of about _BLOCK_ENTRIES entries: the same products and differences as a
    two-dimensional block index, so the same bits, with index and product
    arrays that stay in cache.

    Deterministic: the dual leaves by the first largest bound violation
    (one argmax) and enters by the smallest ratio, ties to the largest
    pivot. After 1000 degenerate pivots it switches to Bland's rule: it
    leaves by the smallest basis index and breaks ratio ties by the
    smallest column index. After 200 000 pivots it raises
    NumericalInstabilityError. Within one solve the basic
    bounds, the nonbasic directions and the columns free to enter are kept
    across pivots and changed only where a pivot changes them.

    Every optimum is audited against every row and bound, added rows
    included, and raises NumericalInstabilityError if one is violated by
    more than 1e-6. The audit holds no dense copy of the rows: their
    nonzeros are kept as flat (row, column, coefficient) arrays, extended by
    add_rows, and every row's value is one gather and one bincount.

    pivots counts the dual simplex iterations and the degenerate ones among
    them.
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
        (m, ncols), k = self.T.shape, rhs.size
        T = np.zeros((m + k, ncols + k))
        T[:m, :ncols] = self.T
        A = T[m:, :ncols]
        np.add.at(A, (row, col), coef)
        xB = (rhs - A @ self._point()) / sign  # each slack at the last optimum
        # in the current basis a row is a - a_B B^-1 A: its coefficient on each
        # basic column times that column's tableau row is subtracted, and a
        # row with none (every row on the empty start basis) stays as it is
        A_basic = A[:, self.basis]
        for i in A_basic.any(axis=1).nonzero()[0]:
            nz = A_basic[i].nonzero()[0]
            A[i] -= A_basic[i, nz] @ self.T[nz]
        A /= sign[:, None]  # by each slack's coefficient (+-1): its column becomes a unit one
        np.fill_diagonal(T[m:, ncols:], 1.0)
        self.T = T
        self.xB = np.concatenate((self.xB, xB))
        self.basis = np.concatenate((self.basis, ncols + np.arange(k)))
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
        return self.cost - self.cost[self.basis] @ self.T

    def _pivot(self, r: int, j: int, d: np.ndarray, enter_val: float):
        T = self.T
        piv = T[r, j]
        if abs(piv) <= _PIV_TOL:
            raise NumericalInstabilityError("pivot element below tolerance")
        T[r] /= piv
        prow = T[r]
        colv = T[:, j].copy()
        colv[r] = 0.0
        rows = colv.nonzero()[0]
        cols = prow.nonzero()[0]  # never empty: prow[j] is 1
        pcols = prow[cols]
        # the rows x cols block through flat indices into T, in slices of
        # rows whose index and product arrays stay small enough to cache
        flat = T.reshape(-1)
        step = max(1, _BLOCK_ENTRIES // cols.size)
        for s in range(0, rows.size, step):
            part = rows[s:s + step]
            block = (part[:, None] * T.shape[1] + cols).ravel()
            flat[block] -= np.outer(colv[part], pcols).ravel()
        d[cols] -= d[j] * pcols
        self.basis[r] = j
        self.xB[r] = enter_val

    def _dual(self) -> str:
        """Bounded dual simplex from a dual-feasible basis."""
        if not self.basis.size:
            return "optimal"  # no rows, so none is violated
        d = self._reduced_costs()
        movable = self.lo < self.hi
        free = movable.copy()  # the columns that may enter
        free[self.basis] = False
        loB, hiB = self.lo[self.basis], self.hi[self.basis]
        # moving nonbasic j off its bound by t changes it by direction[j] * t
        direction = np.where(self.at_upper, -1.0, 1.0)
        degenerate = 0
        for it in range(1, _PIVOT_CAP + 1):
            below = loB - self.xB
            above = self.xB - hiB
            violation = np.maximum(below, above)
            r = int(violation.argmax())  # the first largest violation
            if violation[r] <= _FEAS_TOL:
                return "optimal"
            bland = degenerate > solve._BLAND_AFTER
            if bland:
                bad = (violation > _FEAS_TOL).nonzero()[0]
                r = int(bad[np.argmin(self.basis[bad])])
            self.pivots["dual"] += 1
            to_lower = below[r] > 0.0
            # moving nonbasic j off its bound by t moves xB[r] by -slope[j]*t
            slope = self.T[r] * direction
            helps = (slope < -_PIV_TOL) if to_lower else (slope > _PIV_TOL)
            cand = (free & helps).nonzero()[0]
            if cand.size == 0:
                return "infeasible"
            ratios = np.abs(d[cand]) / np.abs(slope[cand])
            best = float(ratios.min())
            ties = cand[ratios <= best + 1e-12]
            j = int(ties[0] if bland else ties[np.argmax(np.abs(slope[ties]))])
            if best < 1e-12:
                degenerate += 1
                self.pivots["degenerate"] += 1
            target = loB[r] if to_lower else hiB[r]
            t = (self.xB[r] - target) / slope[j]
            self.xB -= t * direction[j] * self.T[:, j]
            leave = self.basis[r]
            self.at_upper[leave] = not to_lower
            direction[leave] = 1.0 if to_lower else -1.0
            free[leave], free[j] = movable[leave], False
            enter_val = (self.lo[j] + t) if direction[j] > 0 else (self.hi[j] - t)
            self._pivot(r, j, d, enter_val)
            loB[r], hiB[r] = self.lo[j], self.hi[j]
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

