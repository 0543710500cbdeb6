"""Symmetry detection for factored models via a colored factor graph.

The model's symmetries are permutation pairs (variable permutation, feature
permutation) that leave the weighted statistics unchanged while respecting
the tie classes. They are found as color-preserving automorphisms of a
bipartite graph: one node per variable (all sharing one color), one node per
feature (colored by canonical table and tie class), and edges from a feature
to its scope variables colored by the argument position in the feature's
canonical argument order (a single uniform color when the table is invariant
under every argument permutation).

The search is individualization-refinement backtracking with orbit pruning
on the first (base) leaf's path: the orbits of the automorphisms found so
far prune sibling branches at its nodes, and subtrees off it are abandoned
as soon as they produce one automorphism. Orbits are kept as each graph
node's smallest orbit-mate, and a child is skipped when its mate is smaller
than itself: children come in increasing order, so the mate was tried. A
child off the base path is dropped as soon as its refinement trace departs
from that of the base path's node at its depth, since no automorphism maps
the one to the other. A leaf becomes a generator only when it passes the
exact table check (`is_model_automorphism`), so orbits computed from the
result are sound even though the graph encoding is coarser than the tables.
The group order is the product, over the base path's nodes, of the size of
the base child's orbit, read when the node's children are exhausted.

Each tree node holds one OrderedPartition: node to label, label to member
set, a label being its cell's first position (McKay & Piperno, Practical
graph isomorphism II, 2014). `refine_colors` makes a child from its parent
copy-on-write, so a call costs the nodes its rounds touch, and the ranks
of the labels are the color ids that refining every node in every round
gives. The search reads its target cell and leaf permutations off the
labels, and checks leaves on integer arrays.

Orbits come from integer arrays too: each generator maps the sorted
elements of a domain (variables, features, edges, factor moments) to their
images' indices, and the orbits are the components of those maps, found
by min-label propagation with pointer jumping, as the search's are.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field, replace

import numpy as np

from .model import Model, ModelError, moment_assignments, moment_rank, table_index


@dataclass(frozen=True)
class PermutationPair:
    """A variable permutation and a feature permutation acting together."""

    var_perm: tuple
    feature_perm: tuple

    def __post_init__(self):
        object.__setattr__(self, "var_perm", tuple(int(v) for v in self.var_perm))
        object.__setattr__(self, "feature_perm", tuple(int(j) for j in self.feature_perm))

    @functools.cached_property
    def arrays(self) -> tuple:
        """var_perm and feature_perm as integer arrays, built on first use."""
        return np.array(self.var_perm, dtype=np.int64), np.array(self.feature_perm, dtype=np.int64)


@dataclass(frozen=True)
class GeneratorSet:
    """Verified generators of a symmetry group, with its order when known,
    and the counts of the search that found them (0 when none ran): its
    tree nodes, its leaves, its refinement rounds (those of stopped
    refinements too) and the children it dropped by their refinement trace,
    which are not tree nodes. The counts do not take part in equality."""

    generators: tuple
    group_order: int = None
    tree_nodes: int = field(default=0, compare=False)
    leaves: int = field(default=0, compare=False)
    refine_rounds: int = field(default=0, compare=False)
    trace_pruned: int = field(default=0, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str = ""


@dataclass(frozen=True)
class OrbitPartition:
    """Partition of one coordinate domain into orbit cells.

    elements are the domain's elements, sorted. Cells are sorted by their
    minimum element; each cell lists its members in increasing order, so
    reps[i] = cells[i][0] is the representative of cell i. cell, an int64
    array, is the label array of the partition: cell[p] is the cell of
    elements[p]. It is left out of equality, which the other fields decide.
    """

    elements: tuple
    cells: tuple
    reps: tuple
    cell: np.ndarray = field(compare=False)

    @classmethod
    def from_labels(cls, elements, labels) -> "OrbitPartition":
        """The classes of equal labels of the sorted elements; cells come in
        order of their smallest member. The one constructor of every orbit
        partition."""
        elements = tuple(elements)
        number = {}  # label -> its cell, in order of first occurrence
        cell = [number.setdefault(label, len(number)) for label in labels]
        members = [[] for _ in number]
        for e, c in zip(elements, cell):
            members[c].append(e)
        cells = tuple(map(tuple, members))
        return cls(elements, cells, tuple(m[0] for m in cells), np.array(cell, dtype=np.int64))

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
        """What the exact table check reads besides the model's scope
        arrays: the distinct tables and each feature's table id."""
        ids = {}
        table_id = [ids.setdefault(f.table, len(ids)) for f in self.model.features]
        return tuple(ids), np.array(table_id, dtype=np.int64)


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
    partition, and trace lists each round's trace (see refine_colors). A
    child shares every member set it does not split with its parent, so
    neither may change one in place. A refinement stopped by its trace
    makes no partition: its label, cells and trace are None.
    """

    label: list
    cells: dict
    depth: int = 0
    rounds: int = 0
    trace: list = None


def refine_colors(graph: ColoredFactorGraph, parent=None, v=None, base=None) -> OrderedPartition:
    """Coarsest equitable refinement of a node coloring, as an ordered
    partition whose cell labels rank as canonical color ids.

    The ids are those of refining in full rounds: a round gives each node
    the rank of its signature, its color and then the sorted multiset of
    (neighbor color, edge color) pairs, and the rounds stop at the first
    one that splits no class. Ids compare by order alone, so they are
    comparable across runs on relabeled graphs.

    Without v the call refines the graph's initial coloring (to refine
    another, replace the graph's init_colors), from a first round that
    signs every node. With v, parent must be an equitable OrderedPartition,
    as this function returns, and the result is that of its coloring with
    v given a color of its own above all others: the search refines each
    child from its parent this way. The child starts from one copy of the
    parent's label list and one of its cell dict; v takes the label
    (num_nodes + depth) * step and its old class keeps its label, and the
    first round signs only v's neighbors, since every other node keeps the
    signature it shared with its classmates. A member set is copied only when the call first
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
    id.

    A round's trace lists, for each class it splits in label order, the
    keys of its subclasses and then their sizes, in key order. Like the
    ids it is the same on relabeled graphs, and it tells more apart: the
    keys separate refinements that split the same classes into the same
    sizes (on the benchmark's circulant, sizes alone leave two failing
    leaves unpruned). With `base`, the trace of another refinement, the
    call stops at the first round whose trace differs from base's or that
    goes past base's last round, or when it ends before base's last round,
    and returns an OrderedPartition without label or cells: no automorphism
    maps that refinement's partition to this one's. A call that completes
    against base keeps base as its trace, which it equals.
    """
    nbrs, step = graph.neighbors, max(len(graph.edge_colors), 1)
    n = graph.num_nodes
    if v is None:  # the classes of equal initial colors, in ascending color order
        classes = {}
        for u, c in enumerate(graph.init_colors):
            classes.setdefault(c, set()).add(u)
        label, cells, first = [0] * n, {}, 0
        for c in sorted(classes):
            ms = cells[first] = classes[c]
            for u in ms:
                label[u] = first
            first += len(ms) * step
        shared, depth, touched = {}, 0, set(range(n))
    else:
        label, cells, shared = parent.label.copy(), parent.cells.copy(), parent.cells
        depth, c = parent.depth + 1, label[v]
        # v comes from a class of two or more, the search's target cell
        cells[c] = cells[c] - {v}
        label[v] = (n + parent.depth) * step
        cells[label[v]] = {v}
        touched = set(nbrs[v][0])

    at, add = label.__getitem__, operator.add

    def key_of(u):  # a node's key: its class, then its signature
        _, ecs, labels_of = nbrs[u]
        labels = labels_of(label)
        return (at(u), *sorted(map(add, labels, ecs) if step > 1 else labels))

    rounds, trace = 0, []
    while touched:
        rounds += 1
        if base is not None and rounds > len(base):
            return OrderedPartition(None, None, depth, rounds)
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
        touched, splits = set(), []
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
            splits += keys, list(map(len, subs))
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
        if base is None:
            trace.append(splits)
        elif splits != base[rounds - 1]:
            return OrderedPartition(None, None, depth, rounds)
    if base is not None and rounds < len(base):
        return OrderedPartition(None, None, depth, rounds)
    return OrderedPartition(label, cells, depth, rounds, trace if base is None else base)


# ---------------------------------------------------------------------------
# automorphism search


def _scope_reordering(model: Model, pi, gamma, js, scopes):
    """For the features js of one arity, whose scopes are the rows of
    scopes: their images gamma[js]; the reorderings sigma, sigma[i, k]
    being the position in the image's scope of pi's image of js[i]'s k-th
    scope variable; and whether each image has that arity and the image of
    the scope as its scope, without which its row of sigma means nothing.
    pi and gamma are integer arrays of a variable and a feature permutation,
    -1 marking an image outside the model, which fits nothing.
    """
    arity, row = model.scope_rows
    img = gamma[js]
    fits = (img >= 0) & (arity[img] == scopes.shape[1])
    # same[i, k, l]: whether scope k's image is the image scope's l-th variable
    same = pi[scopes][:, :, None] == scopes[np.where(fits, row[img], 0)][:, None, :]
    return img, same.argmax(axis=2), fits & same.any(axis=2).all(axis=1)


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
    pi, gamma = p[:nv], p[nv:] - nv
    tables, table_id = graph.feature_arrays
    for arity, (js, scopes) in graph.model.scope_arrays.items():
        img, sigma, fits = _scope_reordering(graph.model, pi, gamma, js, scopes)
        if not fits.all():
            return False
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
    off it: the target cell is the largest non-singleton one, ties to the
    smallest label; and a leaf's permutation maps each node of the base
    leaf to the node with the same label here.

    One list holds each node's smallest orbit-mate under the generators
    found so far (`_orbit_labels` after each), and only base-path nodes
    prune by it. A generator in it when a base-path node reads it was found
    below that node or deeper on the base path, so it fixes the node's path
    (McKay & Piperno's first-path pruning) and keeps the target cell. As
    children come in increasing order, a child shares an orbit with one
    tried before it exactly when its smallest orbit-mate is smaller than
    itself, and is skipped. Once they are exhausted they generate the
    path's stabilizer, and the nodes labeled with the base child, the
    target's smallest member, are the node's factor of the group order.

    A child off the base path is refined against the trace of the base
    path's node at its depth, and dropped when the refinement stops
    (McKay & Piperno, Practical graph isomorphism II, 2014): an
    automorphism found below it would map that base node to it, and carry
    the base node's refinement onto its refinement round by round. Equal
    traces from equal parents give equal cell labels, so no other node
    invariant is compared. The tree is walked depth first from an explicit
    stack, one frame per inner node of the current path, so its depth is
    not bounded by Python's recursion limit.
    """
    n_nodes = graph.num_nodes
    identity = list(range(n_nodes))
    root = refine_colors(graph)

    gens = []  # node permutations over the whole graph
    orbit = identity  # each node's smallest orbit-mate under gens
    order = 1  # the product of the base-path nodes' base child orbit sizes
    base_traces = [root.trace]  # the refinement trace of the base path's node per depth
    base_leaf = None  # the base leaf's label list
    counts = {"tree_nodes": 0, "leaves": 0, "refine_rounds": root.rounds, "trace_pruned": 0}
    stack = []  # (whether on the base path, its children) per inner node

    def children(part, on_base):
        # each child of an inner node, refined; a base-path node skips those
        # with a smaller orbit-mate, tried before them, and once its children
        # are exhausted multiplies the order by its base child's orbit size
        nonlocal order
        cells = part.cells
        sizes = list(map(len, cells.values()))
        largest = max(sizes)
        target = cells[min(itertools.compress(cells, map(largest.__eq__, sizes)))]
        for v in sorted(target):
            if on_base and orbit[v] < v:
                continue
            base = None if base_leaf is None else base_traces[part.depth + 1]
            yield refine_colors(graph, part, v, base)
        if on_base:
            order *= orbit.count(min(target))

    def visit(part, on_base):
        # count a node and push it if inner; whether a leaf gave a generator
        nonlocal base_leaf, orbit
        counts["tree_nodes"] += 1
        if len(part.cells) < n_nodes:
            stack.append((on_base, children(part, on_base)))
            return False
        counts["leaves"] += 1
        if base_leaf is None:
            base_leaf = part.label
            return False
        here = dict(zip(part.label, identity))  # label -> node
        perm = list(map(here.__getitem__, base_leaf))
        if perm == identity or not is_model_automorphism(graph, perm):
            return False
        gens.append(tuple(perm))
        orbit = _orbit_labels([np.array(orbit), np.array(perm)], n_nodes).tolist()
        return True

    visit(root, True)
    while stack:
        on_base, todo = stack[-1]
        child = next(todo, None)
        if child is None:
            stack.pop()
            continue
        counts["refine_rounds"] += child.rounds
        if child.cells is None:
            counts["trace_pruned"] += 1
            continue
        if base_leaf is None:  # still descending the base path
            base_traces.append(child.trace)
        if visit(child, on_base and base_leaf is None) and not on_base:
            while not stack[-1][0]:
                stack.pop()  # backjump to the base path

    nv = graph.num_vars
    pairs = [
        PermutationPair(var_perm=g[:nv], feature_perm=[w - nv for w in g[nv:]]) for g in gens
    ]
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
    plus num_samples seeded-random ones, and fails at the first miss. The
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
            return VerifyResult(False, reason="feature map does not respect tie classes")
    rng = random.Random(seed)
    configs = [(0,) * n, (1,) * n]
    configs += [tuple(rng.randrange(2) for _ in range(n)) for _ in range(num_samples)]
    for x in configs:
        xp = tuple(x[pi[i]] for i in range(n))
        for j, f in enumerate(model.features):
            if f.value(xp) != model.features[ga[j]].value(x):
                return VerifyResult(False, reason="statistics differ")
    return VerifyResult(True)


# ---------------------------------------------------------------------------
# orbit partitions


def _domain_elements(domain, model):
    """The sorted elements of one orbit domain, in the model's numbering."""
    if domain in ("vars", "features"):
        return range(model.num_vars if domain == "vars" else model.num_features)
    if domain in ("edges", "factor-moments"):
        return model.edges if domain == "edges" else model.factor_moments
    raise ModelError("unknown orbit domain %r" % (domain,))


def _orbit_images(domain, pairs, model):
    """Per pair, where it maps each of the sorted elements of one coordinate
    domain: an array of their indices, -1 outside the domain. A variable or
    feature image outside the model is -1 from the start. An edge's image
    is found by Model.edge_at; a factor moment's image is the image
    feature's, its assignment read through the scope reordering that the
    leaf check computes, placed by Model.factor_base and moment_rank."""
    n, m = model.num_vars, model.num_features

    def inside(p, size):  # p with every entry outside range(size) set to -1
        return np.where((p >= 0) & (p < size), p, -1)

    pis = [inside(p.arrays[0], n) for p in pairs]
    gammas = [inside(p.arrays[1], m) for p in pairs]
    if domain in ("vars", "features"):
        return pis if domain == "vars" else gammas
    if domain == "edges":
        u, v = np.divmod(model.edge_codes, n)
        ends = [(pi[u], pi[v]) for pi in pis]
        return [model.edge_at(np.minimum(a, b), np.maximum(a, b)) for a, b in ends]
    first = model.factor_base
    assigns = {
        k: np.array(moment_assignments(k), dtype=np.int64) for k in model.scope_arrays if k >= 3
    }
    images = []
    for pi, gamma in zip(pis, gammas):
        at = np.full(len(model.factor_moments), -1)
        for k, assign in assigns.items():
            js, scopes = model.scope_arrays[k]
            img, sigma, fits = _scope_reordering(model, pi, gamma, js, scopes)
            # the image assignment holds a's k-th bit at position sigma[k]
            codes = (1 << (k - 1 - sigma[fits])) @ assign.T
            rows = first[js[fits]][:, None] + np.arange(len(assign))
            at[rows] = first[img[fits]][:, None] + moment_rank(k)[codes]
        images.append(at)
    return images


def _orbit_labels(images, size):
    """Each element's smallest orbit-mate: the smallest index joined to it
    by the maps of the image arrays. Labels start as the indices, take the
    smaller label along every map both ways, and jump to their label's
    label, until a round changes nothing."""
    label = np.arange(size)
    while True:
        before = label.copy()
        for at in images:
            np.minimum(label, label[at], out=label)
            np.minimum.at(label, at, label.copy())
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]
        if np.array_equal(label, before):
            return label


def orbits_of(gens, domain: str, model: Model) -> OrbitPartition:
    """Orbit partition of one coordinate domain under the generated group:
    the components of the generators' image arrays."""
    domain = domain.replace("_", "-")
    elements = _domain_elements(domain, model)
    pairs = gens.generators if isinstance(gens, GeneratorSet) else tuple(gens)
    images = _orbit_images(domain, pairs, model) if pairs else []
    for at in images:
        outside = np.flatnonzero(at < 0)
        if len(outside):
            raise ModelError(
                "generator maps %r outside the %s domain" % (elements[outside[0]], domain))
    return OrbitPartition.from_labels(elements, _orbit_labels(images, len(elements)).tolist())


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
        perms = [g.var_perm for g in gens.generators]
        self._var_perms = np.array(perms, dtype=np.int64).reshape(len(perms), model.num_vars)
        self._stabilized = {}  # which generators fix a variable -> their variable orbits

    def bundle(self) -> OrbitBundle:
        return compute_orbit_bundle(self.gens, self.model)

    def stabilized_light(self, fixed_var: int) -> OrbitPartition:
        """Variable orbits under the found generators that fix one variable.

        They generate a subgroup of the variable's stabilizer, possibly a
        proper one, and no search runs. Variables fixed by the same
        generators share one partition, computed once: under the trivial
        group, one in all.
        """
        fixes = self._var_perms[:, fixed_var] == fixed_var
        key = fixes.tobytes()
        if key not in self._stabilized:
            sub = itertools.compress(self.gens.generators, fixes.tolist())
            self._stabilized[key] = orbits_of(sub, "vars", self.model)
        return self._stabilized[key]


class TrivialSymmetries(GeneratorSymmetries):
    """The identity group: every coordinate is its own orbit."""

    def __init__(self, model: Model):
        super().__init__(model, GeneratorSet(generators=(), group_order=1))
