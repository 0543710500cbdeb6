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
the exact table check (`is_model_automorphism`), so orbits computed from
the result are sound even though the graph encoding is coarser than the
tables.

Each tree node holds one OrderedPartition: node to label, label to member
set, a label being its cell's first position (McKay & Piperno, Practical
graph isomorphism II, 2014). `refine_colors` makes a child from its parent
copy-on-write, so a call costs the nodes its rounds touch, and the ranks
of the labels are the color ids that refining every node in every round
gives. The search reads its node invariant, target cell and leaf
permutations off the labels, and checks leaves on integer arrays.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field, replace

import numpy as np

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
    """Verified generators of a symmetry group, with its order when known,
    and the counts of the search that found them (0 when none ran): its
    tree nodes, its leaves and its refinement rounds. The counts do not
    take part in equality."""

    generators: tuple
    group_order: int = None
    tree_nodes: int = field(default=0, compare=False)
    leaves: int = field(default=0, compare=False)
    refine_rounds: int = field(default=0, compare=False)

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


@functools.lru_cache(maxsize=4096)
def _permuted_table(table, perm, arity):
    # argument i of the reordered function reads argument position perm[i]
    out = []
    for y in itertools.product((0, 1), repeat=arity):
        a = tuple(y[perm[j]] for j in range(arity))
        out.append(table[table_index(a)])
    return tuple(out)


def canonicalize_feature(f):
    """Lexicographically smallest table over argument reorderings.

    Returns (canonical table, reordering, slot colors). The reordering maps
    original argument position k to canonical slot reorder[k]. slot_colors[k]
    labels that slot's orbit under the canonical table's own argument
    symmetries, so two positions get equal colors exactly when the table
    treats them interchangeably. Any scope position map induced by a model
    symmetry preserves these labels.
    """
    return _canonical_table(f.table, f.arity)


@functools.cache
def _canonical_table(table, arity):
    best = None
    best_p = None
    for p in itertools.permutations(range(arity)):
        t = _permuted_table(table, p, arity)
        if best is None or t < best:
            best = t
            best_p = p
    aut = [
        q
        for q in itertools.permutations(range(arity))
        if _permuted_table(best, q, arity) == best
    ]
    orbit_label = [min(q[s] for q in aut) for s in range(arity)]
    return best, best_p, tuple(orbit_label[best_p[k]] for k in range(arity))


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

    @functools.cached_property
    def edge_colors(self) -> tuple:
        """The distinct edge colors, ascending."""
        return tuple(sorted({ec for nbrs in self.adj for _, ec in nbrs}))

    @functools.cached_property
    def neighbors(self) -> tuple:
        """Per node, its neighbors and the ranks of their edge colors in
        edge_colors, as two tuples in adj order, and a function from a label
        list to the neighbors' labels: what refinement reads, built once per
        graph."""
        rank = {ec: i for i, ec in enumerate(self.edge_colors)}.__getitem__
        out = []
        for nbrs in self.adj:
            ws, ecs = tuple(zip(*nbrs)) or ((), ())
            out.append((ws, tuple(map(rank, ecs)), _labels_of(ws)))
        return tuple(out)

    @functools.cached_property
    def feature_arrays(self) -> tuple:
        """What the exact table check reads: the distinct tables, each
        feature's table id, each feature's row among the features of its
        arity, and per arity those features' indices and scopes as arrays."""
        feats = self.model.features
        ids = {}
        table_id = np.array([ids.setdefault(f.table, len(ids)) for f in feats], dtype=np.int64)
        row = np.zeros(len(feats), dtype=np.int64)
        by_arity = {}
        for arity in sorted({f.arity for f in feats}):
            js = np.array([j for j, f in enumerate(feats) if f.arity == arity], dtype=np.int64)
            row[js] = np.arange(len(js))
            by_arity[arity] = (js, np.array([feats[j].scope for j in js], dtype=np.int64))
        return tuple(ids), table_id, row, by_arity


def _labels_of(ws):
    # the labels of the nodes ws, read in one C call when there are two or more
    if len(ws) > 1:
        return operator.itemgetter(*ws)
    return lambda label: tuple(label[w] for w in ws)


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


@dataclass(eq=False)
class OrderedPartition:
    """An ordered partition of a graph's nodes, one per search-tree node.

    label[u] is the label of u's cell, and cells maps each label to the
    cell's member set. A cell's label is its first position in the ordered
    partition times `step`, the number of edge colors (at least 1), as in
    nauty; an individualized node is labeled (num_nodes + depth) * step,
    above every other label, while the class it left keeps its label. So
    labels order the cells as their positions do. depth counts the
    individualized nodes and rounds the refinement rounds that made this
    partition. A child shares every member set it does not split with its
    parent, so neither may change one in place.
    """

    label: list
    cells: dict
    depth: int = 0
    rounds: int = 0

    @classmethod
    def of_colors(cls, colors, step: int) -> "OrderedPartition":
        """The classes of equal colors, in ascending color order."""
        classes = {}
        for u, c in enumerate(colors):
            classes.setdefault(c, set()).add(u)
        label, cells, first = [0] * len(colors), {}, 0
        for c in sorted(classes):
            ms = cells[first] = classes[c]
            for u in ms:
                label[u] = first
            first += len(ms) * step
        return cls(label, cells)

    @property
    def colors(self) -> tuple:
        """Each node's color id: the rank of its label."""
        rank = {c: r for r, c in enumerate(sorted(self.cells))}
        return tuple(map(rank.__getitem__, self.label))


def refine_colors(graph: ColoredFactorGraph, parent=None, v=None) -> OrderedPartition:
    """Coarsest equitable refinement of a node coloring, as an ordered
    partition whose `.colors` are canonical color ids.

    The ids are those of refining in full rounds: a round gives each node
    the rank of its signature, its color and then the sorted multiset of
    (neighbor color, edge color) pairs, and the rounds stop at the first
    one that splits no class. Ids compare by order alone, so they are
    comparable across runs on relabeled graphs.

    `parent` is a coloring (the graph's initial one when None), whose
    classes are refined from a first round that signs every node. With
    v, parent must be an equitable OrderedPartition, as this function
    returns, and the result is that of its coloring with v given a color
    of its own above all others: the search refines each child from its
    parent this way. The child starts from one copy of the parent's label
    list and one of its cell dict; v takes the label (num_nodes + depth) *
    step and its old class keeps its label, and the first round signs only
    v's neighbors, since every other node keeps the signature it shared
    with its classmates. A member set is copied only when the call first
    splits it, so a call costs the nodes its rounds touch, not num_nodes.

    Later rounds are incremental too. After a round in which a class
    splits, only the neighbors of its new subclasses other than the largest
    are re-signed. An untouched node sees each old class of a neighbor turn
    into exactly one new class (the only one, or the largest subclass), so
    untouched classmates keep the signature they shared. A class without
    touched members cannot split; one with touched members signs its
    untouched rest once, from any one of them.

    A node's key is its label followed by its signature, the sorted
    `label + edge color rank` over its neighbors: ints that order as the
    (label, edge color) pairs do, since labels are multiples of step. A
    split class's subclasses take consecutive slices of its positions in
    key order, so they stay inside its own range of labels, and the labels
    order the cells as the full rounds order their classes. So the cells
    are the full rounds' classes and the rank of a cell's label is their
    id, which `.colors` reads.
    """
    nbrs, step = graph.neighbors, max(len(graph.edge_colors), 1)
    n = graph.num_nodes
    if v is None:
        part = OrderedPartition.of_colors(graph.init_colors if parent is None else parent, step)
        label, cells, shared = part.label, part.cells, {}
        depth, touched = 0, set(range(n))
    else:
        label, cells, shared = parent.label.copy(), parent.cells.copy(), parent.cells
        depth, c = parent.depth + 1, label[v]
        rest = cells[c] - {v}
        if rest:
            cells[c] = rest
        else:
            del cells[c]
        label[v] = (n + parent.depth) * step
        cells[label[v]] = {v}
        touched = set(nbrs[v][0])

    at, add = label.__getitem__, operator.add

    def key_of(u):  # a node's key: its class, then its signature
        _, ecs, labels_of = nbrs[u]
        labels = labels_of(label)
        return (at(u), *sorted(map(add, labels, ecs) if step > 1 else labels))

    rounds = 0
    while touched:
        rounds += 1
        groups = {}  # key -> the touched nodes that have it
        for u in touched:
            if len(cells[at(u)]) > 1:
                groups.setdefault(key_of(u), []).append(u)
        # every key of the round is taken before any class changes
        plans = []
        for c, keys in itertools.groupby(sorted(groups), key=operator.itemgetter(0)):
            keys = list(keys)
            ms = cells[c]
            if len(keys) == 1:
                if len(groups[keys[0]]) == len(ms):
                    continue  # every member touched, one key
            elif sum(map(len, map(groups.__getitem__, keys))) == len(ms):
                plans.append((c, keys, None))
                continue
            # one untouched member signs for the untouched rest
            keep = key_of(next(itertools.filterfalse(touched.__contains__, ms)))
            if keep not in groups:
                keys.append(keep)
                keys.sort()
            elif len(keys) == 1:
                continue
            plans.append((c, keys, keep))
        touched = set()
        for c, keys, keep in plans:
            if keep is None:  # every member touched: the subclasses are the groups
                subs = [set(groups[k]) for k in keys]
            else:  # the untouched rest keeps the class's set, or a copy of the parent's
                kept = cells[c]
                if kept is shared.get(c):
                    kept = set(kept)
                subs = []
                for k in keys:
                    if k == keep:
                        subs.append(kept)
                    else:
                        sub = set(groups[k])
                        kept -= sub
                        subs.append(sub)
            largest = max(subs, key=len)
            first = c
            for sub in subs:
                if sub is not largest:
                    for u in sub:
                        touched.update(nbrs[u][0])
                if first != c:  # the first subclass holds c already
                    for u in sub:
                        label[u] = first
                cells[first] = sub
                first += len(sub) * step
    return OrderedPartition(label, cells, depth, rounds)


# ---------------------------------------------------------------------------
# automorphism search


def is_model_automorphism(graph: ColoredFactorGraph, perm) -> bool:
    """The search's one leaf check: whether a node permutation keeps every
    node's initial color, maps each feature's scope onto its image's and
    each table onto its image's under the induced scope reordering, which
    holds exactly when every feature statistic is preserved on every
    configuration. It then keeps the colored edges too, whose colors are
    the tables' own slot symmetries. The reorderings are read off the scope
    arrays of each arity at once, and each distinct (table, reordering,
    image table) is compared once.
    """
    p = np.asarray(perm, dtype=np.int64)
    colors = np.asarray(graph.init_colors)
    if not np.array_equal(colors[p], colors):
        return False
    nv = graph.num_vars
    tables, table_id, row, by_arity = graph.feature_arrays
    image = p[nv:] - nv
    for arity, (js, scopes) in by_arity.items():
        img = image[js]
        # same[i, k, l]: whether scope k's image is the image scope's l-th variable
        same = p[scopes][:, :, None] == scopes[row[img]][:, None, :]
        if not same.any(axis=2).all():
            return False
        sigma = same.argmax(axis=2)
        keys = set(zip(table_id[js].tolist(), map(tuple, sigma.tolist()), table_id[img].tolist()))
        for t, sigma_t, t2 in keys:
            if _permuted_table(tables[t], sigma_t, arity) != tables[t2]:
                return False
    return True


def search_automorphisms(graph: ColoredFactorGraph) -> GeneratorSet:
    """Individualization-refinement search for graph automorphisms.

    Returns generators of the full color-preserving automorphism group of
    the graph that also pass the exact table check, split into (variable,
    feature) permutation pairs, the exact group order from the search
    tree's base path, and the search's counts.

    Each tree node is one OrderedPartition, and the search reads everything
    off it: the node invariant compared with the base path's is the sorted
    tuple of cell labels; the target cell is the largest non-singleton one,
    ties to the smallest label; and a leaf's permutation maps each node of
    the base leaf to the node with the same label here.
    """
    n_nodes = graph.num_nodes
    identity = list(range(n_nodes))
    root = refine_colors(graph)

    gens = []  # node permutations over the whole graph
    base_path = []
    base_invariants = []
    base_leaf = [None]  # the base leaf's label list
    counts = {"tree_nodes": 0, "leaves": 0, "refine_rounds": root.rounds}

    def stab_gens(path, among):
        return [g for g in among if all(g[v] == v for v in path)]

    def search(part, path, on_base):
        counts["tree_nodes"] += 1
        depth = len(path)
        cells = part.cells
        if base_leaf[0] is None:
            base_invariants.append(tuple(sorted(cells)))
        elif depth >= len(base_invariants) or tuple(sorted(cells)) != base_invariants[depth]:
            return False
        if len(cells) == n_nodes:  # every cell a singleton
            counts["leaves"] += 1
            if base_leaf[0] is None:
                base_leaf[0] = part.label
                base_path.extend(path)
                return False
            here = dict(zip(part.label, identity))  # label -> node
            perm = list(map(here.__getitem__, base_leaf[0]))
            if perm != identity and is_model_automorphism(graph, perm):
                gens.append(tuple(perm))
                return True
            return False
        sizes = list(map(len, cells.values()))
        largest = max(sizes)
        target = cells[min(itertools.compress(cells, map(largest.__eq__, sizes)))]
        found_any = False
        explored = []
        uf, seen = None, 0  # orbits of those of gens[:seen] that fix the path
        for v in sorted(target):
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
            child = refine_colors(graph, part, v)
            counts["refine_rounds"] += child.rounds
            found = search(child, path + (v,), on_base and base_leaf[0] is None)
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
    return GeneratorSet(generators=tuple(pairs), group_order=order, **counts)


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
