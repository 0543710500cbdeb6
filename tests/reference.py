"""Brute-force references that only the tests use.

Everything here works by enumeration: configuration orbits closed under
variable permutations, exhaustive automorphism search over all n! variable
permutations, the group a generator set generates, and direct enumeration
of odd-set cycle constraints. They are deliberately independent of the
search, lifting, and separation code they are used to validate. The
tuple-keyed mirror graph and walk are the plain form of the integer-node
walk the separation runs on; the per-node graph check, the per-feature
table check and the per-assignment Moebius row are the plain forms of the
search's array leaf checks and of the lifted model's cached rows;
act_element and element_orbits, one element and one generator at a time,
are the plain form of the orbits' image arrays; lift_cells, one element
at a time through dicts, is the plain form of the lift's label arrays;
and recursive_search is the search as it was before its refinement trace
pruned children.
"""

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from liftedmap.lift import OrbitInfo
from liftedmap.model import Model, ModelError, table_index
from liftedmap.oracle import LimitExceededError, OracleError, _config_matrix, exact_enumerate
from liftedmap.symmetry import (
    GeneratorSet,
    OrbitPartition,
    PermutationPair,
    _domain_elements,
    _permuted_table,
    _UnionFind,
    is_model_automorphism,
    refine_colors,
)

from overcomplete import OvercompleteLayout
from signatures import group_by_key


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
    orbits. Its generators come in the same order, and it counts every
    child as a tree node."""
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
    """rho, node_info, edge_info and factor_info of a lifted model as
    build_lifted_model read them before the partitions carried label
    arrays: a dict from each element of a domain to its cell, built from
    the partition's member tuples, and every scope subset of every orbit
    representative looked up in it."""
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
        tuple(OrbitInfo(v, cells_of((v,))) for v in bundle.vars.reps),
        tuple(OrbitInfo(e, cells_of(e)) for e in bundle.edges.reps),
        tuple(
            OrbitInfo(j, cells_of(features[j].scope, j))
            for j in bundle.features.reps
            if features[j].arity >= 3
        ),
    )


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
