"""Symmetry detection for factored models via a colored factor graph.

The model's symmetries are permutation pairs (variable permutation, feature
permutation) that leave the weighted statistics unchanged while respecting
the tie classes. They are found as color-preserving automorphisms of a
bipartite graph: one node per variable (all sharing one color), one node per
feature (colored by canonical table and tie class), and edges from a feature
to its scope variables colored by the argument position in the feature's
canonical argument order (a single uniform color when the table is invariant
under every argument permutation).

The search is individualization-refinement backtracking with orbit pruning:
discovered automorphisms prune sibling branches at every tree node, and
subtrees off the first (base) leaf's path are abandoned as soon as they
produce one automorphism. A leaf becomes a generator only when it passes
the exact table check (`is_model_automorphism`) as well as the graph check,
so orbits computed from the result are sound even though the graph encoding
is coarser than the tables.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from dataclasses import dataclass, replace

from .model import Model, ModelError, skeleton, table_index


class _UnionFind:
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


@dataclass(frozen=True)
class PermutationPair:
    """A variable permutation and a feature permutation acting together."""

    var_perm: tuple
    feature_perm: tuple

    def __post_init__(self):
        object.__setattr__(self, "var_perm", tuple(int(v) for v in self.var_perm))
        object.__setattr__(self, "feature_perm", tuple(int(j) for j in self.feature_perm))


@dataclass(frozen=True)
class GeneratorSet:
    """Verified generators of a symmetry group, with its order when known."""

    generators: tuple
    group_order: int = None

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str = ""
    witness_config: tuple = None
    witness_feature: int = None


@dataclass(frozen=True)
class OrbitPartition:
    """Partition of one coordinate domain into orbit cells.

    Cells are sorted by their minimum element; each cell lists its members in
    increasing order, so cells[i][0] is the representative of cell i.
    """

    elements: tuple
    cells: tuple
    cell_of: dict
    reps: tuple

    @classmethod
    def group(cls, elements, key) -> "OrbitPartition":
        """Group the sorted elements by key; cells come in order of their
        smallest member."""
        elements = tuple(sorted(elements))
        return cls.from_labels(elements, map(key, elements))

    @classmethod
    def from_labels(cls, elements, labels) -> "OrbitPartition":
        """The classes of equal labels of the sorted elements; cells come in
        order of their smallest member. The one constructor of every orbit
        partition."""
        elements = tuple(elements)
        groups = {}
        for e, label in zip(elements, labels):
            groups.setdefault(label, []).append(e)
        cells = tuple(map(tuple, groups.values()))
        cell_of = {e: ci for ci, members in enumerate(cells) for e in members}
        return cls(elements, cells, cell_of, tuple(members[0] for members in cells))

    @property
    def num_cells(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class OrbitBundle:
    """Orbit partitions of the four element domains of one model. A factor
    moment is an arity >= 3 feature's (feature, assignment) pair with at
    least three ones."""

    vars: OrbitPartition
    features: OrbitPartition
    edges: OrbitPartition
    factor_moments: OrbitPartition


# ---------------------------------------------------------------------------
# feature canonicalization


def _permuted_table(table, perm, arity):
    # argument i of the reordered function reads argument position perm[i]
    out = []
    for y in itertools.product((0, 1), repeat=arity):
        a = tuple(y[perm[j]] for j in range(arity))
        out.append(table[table_index(a)])
    return tuple(out)


_CANON_CACHE = {}


def canonicalize_feature(f):
    """Lexicographically smallest table over argument reorderings.

    Returns (canonical table, reordering, slot colors). The reordering maps
    original argument position k to canonical slot reorder[k]. slot_colors[k]
    labels that slot's orbit under the canonical table's own argument
    symmetries, so two positions get equal colors exactly when the table
    treats them interchangeably. Any scope position map induced by a model
    symmetry preserves these labels.
    """
    key = (f.table, f.arity)
    hit = _CANON_CACHE.get(key)
    if hit is not None:
        return hit
    best = None
    best_p = None
    for p in itertools.permutations(range(f.arity)):
        t = _permuted_table(f.table, p, f.arity)
        if best is None or t < best:
            best = t
            best_p = p
    aut = [
        q
        for q in itertools.permutations(range(f.arity))
        if _permuted_table(best, q, f.arity) == best
    ]
    orbit_label = [min(q[s] for q in aut) for s in range(f.arity)]
    slot_colors = tuple(orbit_label[best_p[k]] for k in range(f.arity))
    result = (best, best_p, slot_colors)
    _CANON_CACHE[key] = result
    return result


# ---------------------------------------------------------------------------
# colored factor graph


@dataclass(frozen=True)
class ColoredFactorGraph:
    """Bipartite node-colored, edge-colored encoding of a model.

    Nodes 0..n-1 are variables, nodes n..n+m-1 are features. adj[u] holds
    sorted (neighbor, edge color) pairs.
    """

    model: Model
    num_vars: int
    num_factors: int
    init_colors: tuple
    adj: tuple

    @property
    def num_nodes(self) -> int:
        return self.num_vars + self.num_factors

    @property
    def var_nodes(self):
        return range(self.num_vars)

    @property
    def factor_nodes(self):
        return range(self.num_vars, self.num_nodes)

    @functools.cached_property
    def edge_colors(self) -> tuple:
        """The distinct edge colors, ascending."""
        return tuple(sorted({ec for nbrs in self.adj for _, ec in nbrs}))

    @functools.cached_property
    def neighbors(self) -> tuple:
        """Per node, its neighbors and the ranks of their edge colors in
        edge_colors, as two tuples in adj order: what refinement reads,
        built once per graph."""
        rank = {ec: i for i, ec in enumerate(self.edge_colors)}
        return tuple(
            (tuple(w for w, _ in nbrs), tuple(rank[ec] for _, ec in nbrs)) for nbrs in self.adj
        )


def build_colored_factor_graph(model: Model) -> ColoredFactorGraph:
    """Encode the model so every model symmetry is a graph automorphism.

    The converse can fail: edge colors identify argument positions only up
    to the table's own slot symmetries, so a candidate found on the graph
    still needs an exact table check before it counts.
    """
    n, m = model.num_vars, model.num_features
    canon = tuple(canonicalize_feature(f) for f in model.features)
    keys = sorted({(canon[j][0], model.tie_class_of[j]) for j in range(m)})
    color_of = {key: 1 + i for i, key in enumerate(keys)}
    colors = [0] * n
    colors += [color_of[(canon[j][0], model.tie_class_of[j])] for j in range(m)]
    adj = [[] for _ in range(n + m)]
    for j, f in enumerate(model.features):
        _, _, slot_colors = canon[j]
        for k, v in enumerate(f.scope):
            ecol = slot_colors[k]
            adj[v].append((n + j, ecol))
            adj[n + j].append((v, ecol))
    return ColoredFactorGraph(
        model=model,
        num_vars=n,
        num_factors=m,
        init_colors=tuple(colors),
        adj=tuple(tuple(sorted(nbrs)) for nbrs in adj),
    )


def refine_colors(graph: ColoredFactorGraph, colors=None, individualize=None):
    """Coarsest equitable refinement of the node coloring.

    Runs in rounds. A round gives each node the rank of its signature: its
    color, then the sorted multiset of (neighbor color, edge color) pairs.
    It stops at the first round that splits no class. Color ids are
    canonical: ranks of signatures compared by order alone, so they are
    comparable across runs on relabeled graphs.

    With `individualize` = v, `colors` must be equitable, as a refinement's
    output is, and the result is that of `colors` with v given a color of
    its own above all others: the search refines each child from its
    parent this way. v starts as the last class, and the first round signs
    only v's neighbors, since every other node keeps the signature it
    shared with its classmates. Without it, the first round signs every
    node.

    Later rounds are incremental too. After a round in which a class
    splits, only the neighbors of its new subclasses other than the largest
    are re-signed. An untouched node sees each old class of a neighbor turn
    into exactly one new class (the only one, or the largest subclass), so
    untouched classmates keep the signature they shared. A class without
    touched members cannot split; one with touched members signs its
    untouched rest once, from any one of them.

    A class's id is its first position in the ordered partition, as in
    nauty. A split class's subclasses take consecutive slices of its
    positions in signature order, so ids stay below the number of nodes
    and in the order of the full rounds' ranks. A signature is the sorted
    tuple of `id * len(edge_colors) + edge color rank` over the neighbors,
    ints that order as the (id, edge color) pairs do. The result is the
    rank of the final ids.
    """
    nbrs, num_ec = graph.neighbors, len(graph.edge_colors)
    n = graph.num_nodes
    colors = graph.init_colors if colors is None else colors
    classes = {}
    for u, c in enumerate(colors):
        classes.setdefault(c, set()).add(u)
    cell = [0] * n  # node -> first position of its class
    members = {}  # first position -> the class
    first = 0
    for c in sorted(classes):
        ms = classes[c]
        ms.discard(individualize)
        if ms:
            members[first] = ms
            for u in ms:
                cell[u] = first
            first += len(ms)
    if individualize is None:
        touched = set(range(n))
    else:
        cell[individualize] = n - 1
        members[n - 1] = {individualize}
        touched = set(nbrs[individualize][0])

    def sign(u):
        ws, ecs = nbrs[u]
        return tuple(sorted([cell[w] * num_ec + e for w, e in zip(ws, ecs)]))

    while touched:
        by_cell = {}
        for u in touched:
            by_cell.setdefault(cell[u], []).append(u)
        plans = []
        for c, us in by_cell.items():
            ms = members[c]
            if len(ms) == 1:
                continue
            by_sig = {}
            for u in us:
                by_sig.setdefault(sign(u), []).append(u)
            if len(us) < len(ms):
                keep = sign(next(u for u in ms if u not in touched))
                by_sig.setdefault(keep, [])
            else:
                keep = max(by_sig, key=lambda s: len(by_sig[s]))
            if len(by_sig) > 1:
                plans.append((c, by_sig, keep))
        # every signature of the round is taken before any class changes
        touched = set()
        for c, by_sig, keep in plans:
            kept = members[c]  # the untouched rest keeps the class's set
            subs = []
            for s in sorted(by_sig):
                if s == keep:
                    subs.append(kept)
                else:
                    subs.append(set(by_sig[s]))
                    kept -= subs[-1]
            largest = max(subs, key=len)
            first = c
            for sub in subs:
                if sub is not largest:
                    for u in sub:
                        touched.update(nbrs[u][0])
                if sub is not kept or first != c:  # the kept nodes hold c
                    for u in sub:
                        cell[u] = first
                members[first] = sub
                first += len(sub)
    rank = {c: r for r, c in enumerate(sorted(members))}
    return tuple([rank[c] for c in cell])


def _target_cell(colors):
    # largest non-singleton class; ties broken by smallest color id
    sizes = Counter(colors)
    best = min(sizes, key=lambda c: (-sizes[c], c))
    if sizes[best] < 2:
        return None
    return [u for u, c in enumerate(colors) if c == best]


# ---------------------------------------------------------------------------
# automorphism search


def is_model_automorphism(graph: ColoredFactorGraph, perm) -> bool:
    """Exact table check of a node permutation that is a graph automorphism.

    Edge colors are coarse where a table has interchangeable positions, so
    each feature's table is compared, entry by entry, with its image's table
    under the induced scope reordering. For a graph automorphism (which
    keeps tie classes, being color-preserving) this holds exactly when every
    feature statistic is preserved on every configuration.
    """
    feats = graph.model.features
    nv = graph.num_vars
    preserved = set()  # (table, reordering, image table) seen to match
    for j, f in enumerate(feats):
        f2 = feats[perm[nv + j] - nv]
        pos = {v: k for k, v in enumerate(f2.scope)}
        sigma = tuple(pos[perm[v]] for v in f.scope)
        key = (f.table, sigma, f2.table)
        if key not in preserved:
            if _permuted_table(f.table, sigma, f.arity) != f2.table:
                return False
            preserved.add(key)
    return True


def search_automorphisms(graph: ColoredFactorGraph) -> GeneratorSet:
    """Individualization-refinement search for graph automorphisms.

    Returns generators of the full color-preserving automorphism group of
    the graph that also pass the exact table check, split into (variable,
    feature) permutation pairs, and the exact group order from the search
    tree's base path.
    """
    n_nodes = graph.num_nodes
    root = refine_colors(graph)

    gens = []  # node permutations over the whole graph
    base_path = []
    base_invariants = []
    base_leaf = [None]

    def histogram(colors):
        return tuple(sorted(Counter(colors).items()))

    def leaf_map(colors):
        return {c: u for u, c in enumerate(colors)}

    def is_graph_automorphism(perm):
        ic = graph.init_colors
        for u in range(n_nodes):
            if ic[u] != ic[perm[u]]:
                return False
            image = tuple(sorted((perm[w], c) for (w, c) in graph.adj[u]))
            if image != graph.adj[perm[u]]:
                return False
        return True

    def stab_gens(path, among):
        return [g for g in among if all(g[v] == v for v in path)]

    def search(colors, path, on_base):
        depth = len(path)
        if base_leaf[0] is None:
            base_invariants.append(histogram(colors))
        elif depth >= len(base_invariants) or histogram(colors) != base_invariants[depth]:
            return False
        cell = _target_cell(colors)
        if cell is None:
            if base_leaf[0] is None:
                base_leaf[0] = leaf_map(colors)
                base_path.extend(path)
                return False
            here = leaf_map(colors)
            perm = [0] * n_nodes
            for c, u in base_leaf[0].items():
                perm[u] = here[c]
            perm = tuple(perm)
            if (
                perm != tuple(range(n_nodes))
                and is_graph_automorphism(perm)
                and is_model_automorphism(graph, perm)
            ):
                gens.append(perm)
                return True
            return False
        found_any = False
        explored = []
        uf, seen = None, 0  # orbits of those of gens[:seen] that fix the path
        for v in sorted(cell):
            if explored:
                uf = uf or _UnionFind(n_nodes)
                for g in stab_gens(path, gens[seen:]):
                    for u, w in enumerate(g):
                        if u != w:
                            uf.union(u, w)
                seen = len(gens)
                if any(uf.find(v) == uf.find(w) for w in explored):
                    continue
            explored.append(v)
            refined = refine_colors(graph, colors, v)
            found = search(refined, path + (v,), on_base and base_leaf[0] is None)
            if found:
                found_any = True
                if not on_base:
                    return True  # backjump off the base path
        return found_any

    search(root, (), True)

    nv = graph.num_vars
    pairs = [
        PermutationPair(var_perm=g[:nv], feature_perm=[w - nv for w in g[nv:]]) for g in gens
    ]

    order = 1
    for i, v in enumerate(base_path):
        sub = stab_gens(base_path[:i], gens)
        orbit = {v}
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for g in sub:
                w = g[u]
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        order *= len(orbit)
    return GeneratorSet(generators=tuple(pairs), group_order=order)


def stabilizer_generators(graph: ColoredFactorGraph, fixed_var: int) -> GeneratorSet:
    """Generators of the whole subgroup fixing one variable, via recoloring.

    A fresh search on the graph with the variable in a color of its own.
    The pipeline does not call it: `GeneratorSymmetries.stabilized_light`
    takes a subgroup from the generators it already has, and this exact
    stabilizer is the reference the tests compare that subgroup with.
    """
    if not 0 <= fixed_var < graph.num_vars:
        raise ModelError("fixed variable %d out of range" % fixed_var)
    colors = list(graph.init_colors)
    colors[fixed_var] = max(colors) + 1
    return search_automorphisms(replace(graph, init_colors=tuple(colors)))


# ---------------------------------------------------------------------------
# verification against the model


def verify_generator(model: Model, pair: PermutationPair, num_samples: int = 100, seed: int = 0) -> VerifyResult:
    """Check that the pair preserves weighted statistics and tie classes.

    Evaluates every feature on the permuted configuration against its image
    feature on the original, for the all-zeros and all-ones configurations
    plus num_samples seeded-random ones. Fails fast with a witness. The
    search does not call it: its exact table check is stronger. It stays as
    an independent test oracle.
    """
    n, m = model.num_vars, model.num_features
    pi, ga = pair.var_perm, pair.feature_perm
    if len(pi) != n or sorted(pi) != list(range(n)):
        return VerifyResult(False, reason="variable map is not a permutation of the variables")
    if len(ga) != m or sorted(ga) != list(range(m)):
        return VerifyResult(False, reason="feature map is not a permutation of the features")
    for j in range(m):
        if model.tie_class_of[j] != model.tie_class_of[ga[j]]:
            return VerifyResult(
                False, reason="feature map does not respect tie classes", witness_feature=j
            )
    rng = random.Random(seed)
    configs = [(0,) * n, (1,) * n]
    configs += [tuple(rng.randrange(2) for _ in range(n)) for _ in range(num_samples)]
    for x in configs:
        xp = tuple(x[pi[i]] for i in range(n))
        for j, f in enumerate(model.features):
            if f.value(xp) != model.features[ga[j]].value(x):
                return VerifyResult(
                    False, reason="statistics differ", witness_config=x, witness_feature=j
                )
    return VerifyResult(True)


# ---------------------------------------------------------------------------
# orbit partitions


def _domain_elements(domain, model):
    if domain == "vars":
        return list(range(model.num_vars))
    if domain == "features":
        return list(range(model.num_features))
    if domain == "edges":
        return list(skeleton(model).edges)
    if domain == "factor-moments":
        return model.factor_moments
    raise ModelError("unknown orbit domain %r" % (domain,))


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


def orbits_of(gens, domain: str, model: Model) -> OrbitPartition:
    """Orbit partition of one coordinate domain under the generated group."""
    domain = domain.replace("_", "-")
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
    return OrbitPartition.group(elements, lambda e: uf.find(index[e]))


def compute_orbit_bundle(gens, model: Model) -> OrbitBundle:
    """Orbit partitions of all four domains under one generator set."""
    return OrbitBundle(
        vars=orbits_of(gens, "vars", model),
        features=orbits_of(gens, "features", model),
        edges=orbits_of(gens, "edges", model),
        factor_moments=orbits_of(gens, "factor-moments", model),
    )


# ---------------------------------------------------------------------------
# symmetry sources: a uniform handle for lifting and separation


class GeneratorSymmetries:
    """Symmetries obtained by automorphism search on the colored graph."""

    def __init__(self, model: Model, gens=None):
        self.model = model
        if gens is None:
            gens = search_automorphisms(build_colored_factor_graph(model))
        self.gens = gens
        self._stabilized = {}  # generators fixing a variable -> their variable orbits

    def bundle(self) -> OrbitBundle:
        return compute_orbit_bundle(self.gens, self.model)

    def stabilized_light(self, fixed_var: int) -> OrbitPartition:
        """Variable orbits under the found generators that fix one variable.

        They generate a subgroup of the variable's stabilizer, possibly a
        proper one, and no search runs. Variables fixed by the same
        generators share one partition, computed once: under the trivial
        group, one in all.
        """
        sub = tuple(g for g in self.gens.generators if g.var_perm[fixed_var] == fixed_var)
        if sub not in self._stabilized:
            self._stabilized[sub] = orbits_of(sub, "vars", self.model)
        return self._stabilized[sub]


class TrivialSymmetries(GeneratorSymmetries):
    """The identity group: every coordinate is its own orbit."""

    def __init__(self, model: Model):
        super().__init__(model, GeneratorSet(generators=(), group_order=1))
