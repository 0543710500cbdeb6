"""Colored factor graph, refinement, automorphism search, and orbits."""

import functools
import hashlib
import itertools
import math
import random
import re
import sys
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import circulant_7_1_3, refines, sorted_cells
from reference import act_element, element_orbits, exhaustive_automorphisms, generated_group
from reference import recursive_search
from reference import graph_automorphism as reference_graph_automorphism
from reference import model_automorphism as reference_model_automorphism
import fixtures
from liftedmap.mln import ground_mln, parse_mln
from liftedmap.model import Feature, Model, ModelError, parse_model
from liftedmap import symmetry
from liftedmap.symmetry import (
    ColoredFactorGraph,
    GeneratorSet,
    GeneratorSymmetries,
    OrbitPartition,
    PermutationPair,
    TrivialSymmetries,
    _permuted_table,
    build_colored_factor_graph,
    canonicalize_feature,
    compute_orbit_bundle,
    is_model_automorphism,
    orbits_of,
    refine_colors,
    search_automorphisms,
    stabilizer_generators,
    verify_generator,
)


# --- feature canonicalization -------------------------------------------------


def test_permuted_table_reads_mapped_positions():
    # g(y0, y1) = f(y1, y0)
    swapped = _permuted_table(fixtures.FIRST_ONLY, (1, 0), 2)
    assert swapped == fixtures.SECOND_ONLY


def test_canonical_table_shared_by_argument_reorderings():
    c1, p1, _ = canonicalize_feature(Feature(scope=(0, 1), table=fixtures.FIRST_ONLY))
    c2, p2, _ = canonicalize_feature(Feature(scope=(0, 1), table=fixtures.SECOND_ONLY))
    assert c1 == c2 == fixtures.FIRST_ONLY
    assert p1 == (0, 1) and p2 == (1, 0)


def test_slot_colors_fully_symmetric_table():
    for table in (fixtures.EQUALITY, fixtures.XOR, fixtures.AND, fixtures.OR):
        _, _, colors = canonicalize_feature(Feature(scope=(0, 1), table=table))
        assert colors == (0, 0)
    _, _, colors = canonicalize_feature(Feature(scope=(0, 1, 2), table=fixtures.XOR3))
    assert colors == (0, 0, 0)


def test_slot_colors_asymmetric_table():
    _, _, colors = canonicalize_feature(Feature(scope=(0, 1), table=fixtures.IMPLIES))
    assert len(set(colors)) == 2


def test_slot_colors_mark_interchangeable_positions():
    # f(a, s, t) = 1 unless a = 1 and s != t: symmetric in (s, t) only
    table = tuple(
        0.0 if (y[0] == 1 and y[1] != y[2]) else 1.0
        for y in itertools.product((0, 1), repeat=3)
    )
    _, _, colors = canonicalize_feature(Feature(scope=(0, 1, 2), table=table))
    assert colors[1] == colors[2] and colors[0] != colors[1]


@st.composite
def tables_and_perms(draw):
    arity = draw(st.integers(min_value=2, max_value=3))
    vals = st.sampled_from((0.0, 1.0, 2.0))
    while True:
        table = tuple(draw(vals) for _ in range(2 ** arity))
        try:
            f = Feature(scope=tuple(range(arity)), table=table)
        except Exception:
            continue
        break
    perm = draw(st.permutations(tuple(range(arity))))
    return f, tuple(perm)


@given(tables_and_perms())
@settings(max_examples=80, deadline=None)
def test_slot_colors_invariant_under_reordering(case):
    # relabeling the arguments permutes the slot colors the same way
    f, sigma = case
    g = Feature(scope=f.scope, table=_permuted_table(f.table, sigma, f.arity))
    cf, _, colors_f = canonicalize_feature(f)
    cg, _, colors_g = canonicalize_feature(g)
    assert cf == cg
    # g reads its argument sigma[k] where f reads argument k, so position k
    # of f corresponds to position sigma[k] of g
    assert colors_f == tuple(colors_g[sigma[k]] for k in range(f.arity))


# --- graph construction and refinement ----------------------------------------


def test_graph_structure_ex1():
    m = fixtures.ex1()
    g = build_colored_factor_graph(m)
    assert g.num_vars == 4 and g.num_factors == 5
    assert g.num_nodes == 9
    # variables share one color; factors are colored by (canonical table, tie)
    assert len({g.init_colors[v] for v in range(g.num_vars)}) == 1
    factor_colors = {g.init_colors[u] for u in range(g.num_vars, g.num_nodes)}
    assert len(factor_colors) == 2  # FIRST/SECOND_ONLY merge, AND differs
    # adjacency is mirrored
    for u in range(g.num_nodes):
        for (w, c) in g.adj[u]:
            assert (u, c) in g.adj[w]


def test_tie_classes_split_factor_colors():
    feats = (Feature(scope=(0, 1), table=fixtures.AND),
             Feature(scope=(1, 2), table=fixtures.AND))
    tied = Model(num_vars=3, features=feats, tie_class_of=(0, 0), theta=(1.0,))
    untied = Model(num_vars=3, features=feats, tie_class_of=(0, 1), theta=(1.0, 1.0))
    g1 = build_colored_factor_graph(tied)
    g2 = build_colored_factor_graph(untied)
    assert len({g1.init_colors[u] for u in range(g1.num_vars, g1.num_nodes)}) == 1
    assert len({g2.init_colors[u] for u in range(g2.num_vars, g2.num_nodes)}) == 2


def test_refinement_reaches_fixpoint_and_is_canonical():
    m = fixtures.ex1()
    g = build_colored_factor_graph(m)
    ref = _colors(refine_colors(g))
    assert _colors(refine_colors(replace(g, init_colors=ref))) == ref
    # EX1 refinement: outer pair {0,3}, inner pair {1,2}
    assert ref[0] == ref[3] and ref[1] == ref[2] and ref[0] != ref[1]


def test_refinement_on_frucht_leaves_one_variable_class():
    g = build_colored_factor_graph(fixtures.frucht())
    ref = _colors(refine_colors(g))
    assert len({ref[v] for v in range(g.num_vars)}) == 1


def _colors(part):
    # each node's color id in an ordered partition: the rank of its label
    rank = {c: r for r, c in enumerate(sorted(part.cells))}
    return tuple(map(rank.__getitem__, part.label))


def _reference_refine_colors(graph, colors=None):
    # every round re-signs every node: the definition of the canonical ids
    colors = tuple(graph.init_colors if colors is None else colors)
    while True:
        sigs = []
        for u in range(graph.num_nodes):
            nb = tuple(sorted((colors[w], ec) for (w, ec) in graph.adj[u]))
            sigs.append((colors[u], nb))
        order = sorted(set(sigs))
        ids = {s: i for i, s in enumerate(order)}
        new = tuple(ids[s] for s in sigs)
        if len(order) == len(set(colors)):
            return new
        colors = new


def _individualized(colors, v):
    # the coloring a child of the search starts from: v in a color of its own
    child = list(colors)
    child[v] = max(colors) + 1
    return tuple(child)


def test_refinement_ids_match_full_rounds_on_every_search_call(monkeypatch):
    # every refinement that completes has the full rounds' ids; one that its
    # base trace stops would have run to a different trace
    calls, stopped = [], []

    def checked(graph, parent=None, v=None, base=None):
        out = refine_colors(graph, parent, v, base)
        if out.cells is None:
            assert refine_colors(graph, parent, v).trace != base
            stopped.append(out)
            return out
        start = None if v is None else _individualized(_colors(parent), v)
        assert _colors(out) == _reference_refine_colors(graph, start)
        calls.append(out)
        return out

    monkeypatch.setattr(symmetry, "refine_colors", checked)
    mln = parse_mln(fixtures.LOVERS_SMOKERS_MLN)
    models = [fixtures.ex1(), fixtures.triangle(), fixtures.cycle_model(6),
              fixtures.frucht(), fixtures.fully_connected_symmetric(5),
              fixtures.triple_parity(4), fixtures.unary_logistic(),
              graph_only_candidates_model(), fixtures.cycle_model(50),
              circulant_7_1_3(), ground_mln(mln, domain_size=3)[0]]
    models += [fixtures.random_tied_pairwise(seed) for seed in range(20)]
    for m in models:
        search_automorphisms(build_colored_factor_graph(m))
    assert len(calls) > 2 * len(models)
    assert stopped


@st.composite
def colored_graphs(draw):
    """A small bipartite graph with arbitrary, non-dense node colors and one
    node individualized, as the search does; returns (graph, colors)."""
    nv = draw(st.integers(min_value=1, max_value=8))
    nf = draw(st.integers(min_value=0, max_value=8))
    adj = [[] for _ in range(nv + nf)]
    for j in range(nv, nv + nf):
        scope = draw(st.lists(st.integers(0, nv - 1), min_size=1, max_size=3, unique=True))
        for v in scope:
            ec = draw(st.integers(min_value=0, max_value=2))
            adj[v].append((j, ec))
            adj[j].append((v, ec))
    palette = draw(st.lists(st.integers(-20, 100), min_size=1, max_size=3, unique=True))
    colors = [draw(st.sampled_from(palette)) for _ in adj]
    graph = ColoredFactorGraph(model=None, num_vars=nv, num_factors=nf,
                               init_colors=tuple(colors),
                               adj=tuple(tuple(sorted(nbrs)) for nbrs in adj))
    colors[draw(st.integers(0, len(adj) - 1))] = max(colors) + 1
    return graph, tuple(colors)


@given(colored_graphs())
@settings(max_examples=300, deadline=None)
def test_refinement_ids_match_full_rounds_on_random_graphs(case):
    graph, individualized = case
    assert _colors(refine_colors(graph)) == _reference_refine_colors(graph)
    recolored = replace(graph, init_colors=individualized)
    assert _colors(refine_colors(recolored)) == _reference_refine_colors(graph, individualized)


@given(colored_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_refinement_from_an_equitable_parent_matches_full_rounds(case, data):
    # the search's call: a child refined from its parent's equitable coloring
    graph, _ = case
    parent = refine_colors(graph)
    colors = _colors(parent)
    sizes = Counter(colors)
    split = [u for u in range(graph.num_nodes) if sizes[colors[u]] > 1]
    assume(split)
    v = data.draw(st.sampled_from(split))
    child = _individualized(colors, v)
    assert _colors(refine_colors(graph, parent, v)) == _reference_refine_colors(graph, child)


@given(colored_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_children_of_a_random_equitable_partition_match_full_rounds(case, data):
    # a path of individualizations from the refinement of a random coloring:
    # every child's colors are the full rounds' of its parent's colors with
    # the node split off, and making a child leaves its parent as it was
    graph, colors = case
    graph = replace(graph, init_colors=colors)
    part = refine_colors(graph)
    for _ in range(data.draw(st.integers(1, 4))):
        colors = _colors(part)
        sizes = Counter(colors)
        split = [u for u in range(graph.num_nodes) if sizes[colors[u]] > 1]
        if not split:
            break
        v = data.draw(st.sampled_from(split))
        before = (list(part.label), {c: set(ms) for c, ms in part.cells.items()}, colors)
        child = refine_colors(graph, part, v)
        assert (part.label, part.cells, _colors(part)) == before
        assert _colors(child) == _reference_refine_colors(graph, _individualized(colors, v))
        assert child.depth == part.depth + 1
        assert sorted(u for ms in child.cells.values() for u in ms) == list(range(graph.num_nodes))
        assert all(child.label[u] == c for c, ms in child.cells.items() for u in ms)
        part = child


class _CountingLists(tuple):
    """Per-node lists that count the reads made from them."""

    def __getitem__(self, u):
        self.reads += 1
        return tuple.__getitem__(self, u)


def test_refinement_reads_linear_adjacency_after_individualizing_on_a_cycle():
    # Individualizing one node of a cycle takes ~n/2 rounds, each splitting
    # one or two nodes off a big remainder. Re-signing only the neighbors of
    # the subclasses other than the largest reads each neighbor list O(1)
    # times; re-signing the remainder's neighbors would read O(n^2).
    graph = build_colored_factor_graph(fixtures.cycle_model(200))
    parent = refine_colors(graph)
    nbrs = _CountingLists(graph.neighbors)
    nbrs.reads = 0
    vars(graph)["neighbors"] = nbrs  # the lists the rounds read, built once per graph
    refined = refine_colors(graph, parent, 0)
    assert _colors(refined) == _reference_refine_colors(graph, _individualized(_colors(parent), 0))
    assert graph.num_nodes // 2 < nbrs.reads < 8 * graph.num_nodes


def test_search_on_a_long_cycle_within_2s():
    # each individualization takes ~200 rounds; on a 2-core box the search
    # takes 0.05 s, and 3.4 s when every round re-signs all 800 nodes
    graph = build_colored_factor_graph(fixtures.cycle_model(400))
    t0 = time.perf_counter()
    gens = search_automorphisms(graph)
    elapsed = time.perf_counter() - t0
    assert gens.group_order == 800
    assert elapsed < 2.0, "took %.2f s" % elapsed


# --- automorphism search --------------------------------------------------------


def freeze(gens):
    return {(p.var_perm, p.feature_perm) for p in gens.generators}


def test_search_ex1_group():
    m = fixtures.ex1()
    gens = search_automorphisms(build_colored_factor_graph(m))
    assert gens.group_order == 4
    assert set(generated_group(gens, m)) == set(exhaustive_automorphisms(m))


def test_search_triangle_and_cycles():
    assert GeneratorSymmetries(fixtures.triangle()).gens.group_order == 6
    assert GeneratorSymmetries(fixtures.cycle_model(5)).gens.group_order == 10
    assert GeneratorSymmetries(fixtures.cycle_model(6)).gens.group_order == 12


def test_search_frucht_trivial_group():
    gens = GeneratorSymmetries(fixtures.frucht()).gens
    assert gens.group_order == 1 and gens.generators == ()


def test_search_triple_parity_full_symmetric_group():
    m = fixtures.triple_parity(4)
    gens = GeneratorSymmetries(m).gens
    assert gens.group_order == 24
    assert set(generated_group(gens, m)) == set(exhaustive_automorphisms(m))


def graph_only_candidates_model():
    # f(a,b,c,d) = [a==b][c==d]: all four slots share one orbit label, so the
    # graph alone cannot tell the positions apart, yet only 8 of the 24
    # variable permutations preserve the table.
    table = tuple(
        float(y[0] == y[1] and y[2] == y[3])
        for y in itertools.product((0, 1), repeat=4)
    )
    return Model(num_vars=4,
                 features=(Feature(scope=(0, 1, 2, 3), table=table),),
                 tie_class_of=(0,), theta=(1.0,))


def test_search_rejects_graph_only_candidates():
    m = graph_only_candidates_model()
    _, _, colors = canonicalize_feature(m.features[0])
    assert len(set(colors)) == 1
    gens = GeneratorSymmetries(m).gens
    assert gens.group_order == 8
    assert set(generated_group(gens, m)) == set(exhaustive_automorphisms(m))


def test_search_generators_verify_on_samples():
    for m in (fixtures.ex1(), fixtures.triangle(), fixtures.frucht(),
              fixtures.triple_parity(4)):
        for pair in GeneratorSymmetries(m).gens.generators:
            check = verify_generator(m, pair, num_samples=100, seed=0)
            assert check.ok, check.reason


@pytest.mark.parametrize("seed", range(10))
def test_search_random_models_match_exhaustive(seed):
    m = fixtures.random_tied_pairwise(seed)
    gens = GeneratorSymmetries(m).gens
    for pair in gens.generators:
        assert verify_generator(m, pair, num_samples=100, seed=seed).ok
    if m.num_vars <= 6:
        assert set(generated_group(gens, m)) == set(exhaustive_automorphisms(m))


# group order, generator count and a digest of the generators, in order, as
# the search gave them before children were refined from their parents: the
# search tree, and so every generator, must not move; then the search's
# tree nodes, leaves, refinement rounds and trace-pruned children, which a
# skip rule that pruned one child too many or too few would move even where
# the generators stay
SEARCH_PINS = {
    "ex1": (4, 2, "41add03824978930", 4, 3, 11, 0),
    "triangle": (6, 2, "670b84868c97850e", 6, 3, 11, 0),
    "cycle6": (12, 2, "46154fcd292fdbc4", 6, 3, 23, 0),
    "frucht": (1, 0, "4f53cda18c2baa0c", 2, 1, 79, 17),
    "fully_connected5": (120, 4, "ab89686b146b886a", 12, 5, 29, 0),
    "triple_parity4": (24, 3, "932c1b977e035127", 10, 4, 19, 0),
    "unary_logistic": (1, 0, "4f53cda18c2baa0c", 1, 1, 1, 0),
    "graph_only": (8, 3, "ea7720b8da0d471c", 20, 10, 20, 0),
    "cycle50": (100, 2, "84cd6c8b8e9335f4", 6, 3, 243, 0),
    "circulant_7_1_3": (14, 2, "5537a7987acdc652", 6, 3, 42, 4),
    "cycle200": (400, 2, "e125b950a295b60e", 6, 3, 993, 0),
    "lovers_smokers3": (36, 4, "c085d9283af7da85", 13, 5, 23, 0),
    "lovers_smokers5": (14400, 8, "1d9b223540766576", 40, 9, 92, 0),
    "friends3": (288, 5, "2e75aa7bccfb51ca", 21, 6, 28, 0),
    "random_tied_pairwise0": (8, 2, "1de2206935918d14", 6, 3, 13, 0),
    "random_tied_pairwise1": (24, 3, "d46d6620eb2358a8", 7, 4, 19, 0),
    "random_tied_pairwise2": (6, 2, "8cfc4b7e443ef6b8", 6, 3, 12, 0),
    "random_tied_pairwise3": (48, 4, "86586bda0b00950d", 13, 5, 29, 0),
    "random_tied_pairwise4": (8, 2, "1de2206935918d14", 6, 3, 13, 0),
    "random_tied_pairwise5": (720, 5, "3dacd07d3e29612c", 18, 6, 41, 0),
    "random_tied_pairwise6": (120, 4, "22a0157f57911538", 15, 5, 30, 0),
    "random_tied_pairwise7": (144, 5, "00c19fcdb220edfc", 15, 6, 38, 0),
    "random_tied_pairwise8": (14, 2, "68e286bae9889ad6", 6, 3, 31, 0),
    "random_tied_pairwise9": (120, 4, "ab89686b146b886a", 12, 5, 29, 0),
    "random_tied_pairwise10": (720, 5, "ddda59be5dca3f60", 21, 6, 42, 0),
    "random_tied_pairwise11": (72, 4, "ec084562137cd320", 12, 5, 33, 0),
    "random_tied_pairwise12": (16, 2, "c4a38d39c1071758", 6, 3, 33, 0),
    "random_tied_pairwise13": (720, 5, "3dacd07d3e29612c", 18, 6, 41, 0),
    "random_tied_pairwise14": (5040, 6, "5a0d193cadc79c2e", 28, 7, 56, 0),
    "random_tied_pairwise15": (1152, 5, "2891a778ae02d712", 17, 6, 48, 0),
    "random_tied_pairwise16": (14, 2, "68e286bae9889ad6", 6, 3, 31, 0),
    "random_tied_pairwise17": (120, 4, "ab89686b146b886a", 12, 5, 29, 0),
    "random_tied_pairwise18": (720, 5, "ddda59be5dca3f60", 21, 6, 42, 0),
    "random_tied_pairwise19": (48, 4, "c2df1b674cc460e2", 13, 5, 29, 0),
}


def _pinned_models():
    ls = parse_mln(fixtures.LOVERS_SMOKERS_MLN)
    models = {
        "ex1": fixtures.ex1(), "triangle": fixtures.triangle(),
        "cycle6": fixtures.cycle_model(6), "frucht": fixtures.frucht(),
        "fully_connected5": fixtures.fully_connected_symmetric(5),
        "triple_parity4": fixtures.triple_parity(4),
        "unary_logistic": fixtures.unary_logistic(),
        "graph_only": graph_only_candidates_model(), "cycle50": fixtures.cycle_model(50),
        "circulant_7_1_3": circulant_7_1_3(), "cycle200": fixtures.cycle_model(200),
        "lovers_smokers3": ground_mln(ls, domain_size=3)[0],
        "lovers_smokers5": ground_mln(ls, domain_size=5)[0],
        "friends3": ground_mln(parse_mln(fixtures.FRIENDS_MLN), domain_size=3)[0],
    }
    models.update(("random_tied_pairwise%d" % s, fixtures.random_tied_pairwise(s)) for s in range(20))
    return models


def test_search_generators_and_orders_are_pinned():
    found = {}
    for name, m in _pinned_models().items():
        gens = search_automorphisms(build_colored_factor_graph(m))
        text = repr([(g.var_perm, g.feature_perm) for g in gens.generators])
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        found[name] = (gens.group_order, len(gens.generators), digest,
                       gens.tree_nodes, gens.leaves, gens.refine_rounds, gens.trace_pruned)
    assert found == SEARCH_PINS


def test_verify_generator_rejects_bad_pairs():
    m = fixtures.ex1()
    bad = PermutationPair(var_perm=(1, 0, 2, 3), feature_perm=(0, 1, 2, 3, 4))
    res = verify_generator(m, bad)
    assert not res.ok and res.reason


def feature_values(f, configs):
    # first scope variable is the most significant bit of the table index
    idx = np.zeros(len(configs), dtype=int)
    for v in f.scope:
        idx = 2 * idx + configs[:, v]
    return np.asarray(f.table)[idx]


def preserves_statistics_everywhere(m, pair):
    """verify_generator's statistics test over all 2^n configurations."""
    pi, ga = pair.var_perm, pair.feature_perm
    if any(m.tie_class_of[j] != m.tie_class_of[ga[j]] for j in range(m.num_features)):
        return False
    x = np.array(list(itertools.product((0, 1), repeat=m.num_vars)), dtype=int)
    xp = x[:, list(pi)]  # xp[:, i] = x[:, pi[i]]
    return all(
        np.array_equal(feature_values(f, xp), feature_values(m.features[ga[j]], x))
        for j, f in enumerate(m.features)
    )


def test_exact_table_check_covers_sampled_check(monkeypatch):
    # On every leaf the search hands to the exact check, the check must
    # agree with the statistics test over all configurations, and what it
    # accepts must pass the sampled verify_generator, which the search
    # therefore no longer calls.
    candidates = []

    def recording(graph, perm):
        candidates.append((graph, perm))
        return is_model_automorphism(graph, perm)

    monkeypatch.setattr(symmetry, "is_model_automorphism", recording)
    models = [fixtures.ex1(), fixtures.triangle(), fixtures.cycle_model(6),
              fixtures.frucht(), fixtures.fully_connected_symmetric(5),
              fixtures.triple_parity(4), fixtures.unary_logistic(),
              graph_only_candidates_model()]
    models += [fixtures.random_tied_pairwise(seed) for seed in range(20)]
    for m in models:
        assert m.num_vars <= 12
        graph = build_colored_factor_graph(m)
        search_automorphisms(graph)
        for v in range(m.num_vars):
            stabilizer_generators(graph, v)
    verdicts = []
    for graph, perm in candidates:
        m, nv = graph.model, graph.num_vars
        pair = PermutationPair(var_perm=perm[:nv], feature_perm=[w - nv for w in perm[nv:]])
        exact = is_model_automorphism(graph, perm)
        assert exact == preserves_statistics_everywhere(m, pair)
        if exact:
            assert verify_generator(m, pair).ok
        verdicts.append(exact)
    assert True in verdicts and False in verdicts


def _random_color_preserving(graph, rng):
    # shuffle the nodes within each initial color class
    perm = list(range(graph.num_nodes))
    classes = {}
    for u, c in enumerate(graph.init_colors):
        classes.setdefault(c, []).append(u)
    for us in classes.values():
        for u, w in zip(us, rng.sample(us, len(us))):
            perm[u] = w
    return tuple(perm)


def _random_group_element(gens, nv, rng):
    # a random word in the found generators, on the whole graph
    perm = list(range(nv + len(gens.generators[0].feature_perm)))
    for _ in range(rng.randint(1, 6)):
        pair = rng.choice(gens.generators)
        g = pair.var_perm + tuple(nv + j for j in pair.feature_perm)
        perm = [g[u] for u in perm]
    return tuple(perm)


def test_leaf_checks_match_the_per_node_references(monkeypatch):
    # the one leaf check against the one-node graph check and the
    # one-feature table check together, at every leaf the search tries and
    # on random permutations, color-preserving ones and group elements
    tried = []

    def recording(graph, perm):
        tried.append((graph, tuple(perm)))
        return is_model_automorphism(graph, perm)

    monkeypatch.setattr(symmetry, "is_model_automorphism", recording)
    mln = parse_mln(fixtures.LOVERS_SMOKERS_MLN)
    models = [fixtures.ex1(), fixtures.triangle(), fixtures.cycle_model(6),
              fixtures.frucht(), fixtures.fully_connected_symmetric(5),
              fixtures.triple_parity(4), fixtures.unary_logistic(),
              graph_only_candidates_model(), fixtures.cycle_model(50),
              circulant_7_1_3(), ground_mln(mln, domain_size=3)[0]]
    models += [fixtures.random_tied_pairwise(seed) for seed in range(20)]
    rng = random.Random(0)
    for m in models:
        graph = build_colored_factor_graph(m)
        gens = search_automorphisms(graph)
        stabilizer_generators(graph, 0)
        tried += [(graph, _random_color_preserving(graph, rng)) for _ in range(5)]
        tried.append((graph, tuple(rng.sample(range(graph.num_nodes), graph.num_nodes))))
        if gens.generators:
            tried += [(graph, _random_group_element(gens, m.num_vars, rng)) for _ in range(5)]
    # one variable and its unary feature: swapping them keeps the edges,
    # not the colors
    tried.append((build_colored_factor_graph(fixtures.unary_logistic()), (1, 0)))
    verdicts = set()
    for graph, perm in tried:
        exact = is_model_automorphism(graph, perm)
        # the reference table check is defined on graph automorphisms
        assert exact == (reference_graph_automorphism(graph, perm)
                         and reference_model_automorphism(graph, perm))
        verdicts.add(exact)
    assert verdicts == {True, False}


def test_search_counts_its_tree_and_rounds(monkeypatch):
    # nodes, leaves, refinement rounds and trace-pruned children of the
    # search; they do not take part in equality, so a GeneratorSet compares
    # by its group alone
    graph = build_colored_factor_graph(fixtures.triangle())
    gens = search_automorphisms(graph)
    assert gens.tree_nodes >= gens.leaves > len(gens.generators) > 0
    assert gens.refine_rounds >= gens.tree_nodes
    assert gens.trace_pruned == 0  # every child holds an automorphism
    assert gens == GeneratorSet(generators=gens.generators, group_order=gens.group_order)
    assert TrivialSymmetries(fixtures.triangle()).gens.tree_nodes == 0
    for m in (fixtures.triangle(), fixtures.frucht(), circulant_7_1_3()):
        rounds = []
        original = symmetry.refine_colors

        def counting(graph, parent=None, v=None, base=None):
            out = original(graph, parent, v, base)
            rounds.append(out.rounds)
            return out

        monkeypatch.setattr(symmetry, "refine_colors", counting)
        again = search_automorphisms(build_colored_factor_graph(m))
        monkeypatch.undo()
        # every refinement is a tree node or a pruned child, and its rounds
        # count, those of a stopped refinement too
        assert again.refine_rounds == sum(rounds)
        assert again.tree_nodes + again.trace_pruned == len(rounds)


# --- trace pruning and the explicit stack --------------------------------------


def test_trace_pruning_stops_every_child_of_frucht_off_the_base_path(models_dir):
    # frucht's group is trivial: each of the 18 feature nodes of the root's
    # target cell refines to a leaf, and only the base leaf is a tree node
    m = parse_model((models_dir / "frucht.fgm").read_text())
    gens = search_automorphisms(build_colored_factor_graph(m))
    assert (gens.group_order, gens.generators) == (1, ())
    assert (gens.tree_nodes, gens.leaves, gens.trace_pruned) == (2, 1, 17)


def test_trace_keys_stop_children_that_subclass_sizes_pass():
    # circulant_7_1_3: with the sizes alone in the trace, 2 children stop
    # and 2 more reach leaves that fail the check (8 tree nodes, 5 leaves)
    gens = search_automorphisms(build_colored_factor_graph(circulant_7_1_3()))
    assert gens.group_order == 14
    assert (gens.tree_nodes, gens.leaves, gens.trace_pruned) == (6, 3, 4)


def test_trace_pruned_search_orders_match_exhaustive():
    # circulant_7_1_3 has children that the trace stops; it needs the
    # reference's limit raised to its 7 variables
    models = [fixtures.ex1(), fixtures.triangle(), fixtures.cycle_model(6),
              fixtures.fully_connected_symmetric(5), fixtures.triple_parity(4),
              fixtures.unary_logistic(), graph_only_candidates_model()]
    models += [m for m in map(fixtures.random_tied_pairwise, range(20)) if m.num_vars <= 6]
    pruned = 0
    for m in models + [circulant_7_1_3()]:
        gens = search_automorphisms(build_colored_factor_graph(m))
        assert gens.group_order == len(exhaustive_automorphisms(m, limit=m.num_vars))
        pruned += gens.trace_pruned
    assert pruned > 0


@st.composite
def near_circulant_models(draw):
    """A tied pairwise model on a circulant graph of 6 to 20 variables,
    with up to two of its equality edges turned into implications: regular
    enough that refinement leaves classes the group does not join, so that
    about one in five searches meets children its trace stops."""
    n = draw(st.integers(6, 20))
    jumps = draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=3, unique=True))
    scopes = sorted({tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps})
    flip = draw(st.sets(st.integers(0, len(scopes) - 1), max_size=2))
    feats = tuple(Feature(scope=sc, table=fixtures.IMPLIES if i in flip else fixtures.EQUALITY)
                  for i, sc in enumerate(scopes))
    return Model(num_vars=n, features=feats, tie_class_of=(0,) * len(feats), theta=(1.0,))


@given(near_circulant_models())
@settings(max_examples=100, deadline=None)
def test_trace_pruning_drops_only_subtrees_without_generators(m):
    # the search before trace pruning and its stack, which refined every
    # child to its end, finds the same generators in the same order: the
    # stopped children held none
    graph = build_colored_factor_graph(m)
    gens = search_automorphisms(graph)
    before = recursive_search(graph)
    assert (gens.generators, gens.group_order) == (before.generators, before.group_order)
    assert gens.tree_nodes + gens.trace_pruned <= before.tree_nodes
    assert gens.leaves <= before.leaves


def test_search_off_the_base_path_does_not_prune_by_orbits():
    # the 4x4 rook's graph, the Shrikhande graph and the rook's graph again,
    # as tied equality edges: both are strongly regular (16, 6, 2, 2), so
    # refinement does not tell them apart, and off the base path the search
    # refines Shrikhande subtrees that hold no generator. Nodes there do not
    # prune by orbits, so each of their children reaches the trace check;
    # the reference prunes the same way, so the bound against it holds
    def cayley(moves, first):  # a Cayley graph of Z4 x Z4 on nodes first..first+15
        return {tuple(sorted((first + 4 * a + b, first + 4 * ((a + x) % 4) + (b + y) % 4)))
                for a in range(4) for b in range(4) for x, y in moves}

    rook = [(0, y) for y in (1, 2, 3)] + [(x, 0) for x in (1, 2, 3)]
    shrikhande = [(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)]
    scopes = sorted(cayley(rook, 0) | cayley(shrikhande, 16) | cayley(rook, 32))
    m = Model(num_vars=48, features=tuple(Feature(scope=s, table=fixtures.EQUALITY) for s in scopes),
              tie_class_of=(0,) * len(scopes), theta=(1.0,))
    graph = build_colored_factor_graph(m)
    gens = search_automorphisms(graph)
    text = repr([(g.var_perm, g.feature_perm) for g in gens.generators])
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert (gens.group_order, len(gens.generators), digest) == (1152 ** 2 * 2 * 192, 17, "85ab79b1e813a965")
    assert (gens.tree_nodes, gens.leaves, gens.trace_pruned) == (95, 18, 54)
    before = recursive_search(graph)
    assert gens.tree_nodes + gens.trace_pruned <= before.tree_nodes
    assert gens.leaves <= before.leaves


def _frame_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # 80 tied unary features: the base path individualizes 79 nodes, one
    # tree level each, under a limit 40 frames above this test's own depth
    n = 80
    m = Model(num_vars=n, features=tuple(Feature(scope=(v,), table=(0.0, 1.0)) for v in range(n)),
              tie_class_of=(0,) * n, theta=(0.5,))
    graph = build_colored_factor_graph(m)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 40)
    try:
        gens = search_automorphisms(graph)
    finally:
        sys.setrecursionlimit(limit)
    assert gens.group_order == math.factorial(n)
    assert gens.trace_pruned == 0


def test_stabilizer_generators_fix_the_variable():
    m = fixtures.triangle()
    g = build_colored_factor_graph(m)
    stab = stabilizer_generators(g, 0)
    assert stab.group_order == 2
    for pair in stab.generators:
        assert pair.var_perm[0] == 0
    cells = sorted_cells(orbits_of(stab, "vars", m).cells)
    assert cells == ((0,), (1, 2))


def test_stabilized_light_is_a_subgroup_of_the_exact_stabilizer():
    mln = parse_mln(fixtures.LOVERS_SMOKERS_MLN)
    models = [fixtures.ex1(), fixtures.triangle(), fixtures.cycle_model(6),
              fixtures.frucht(), fixtures.fully_connected_symmetric(5),
              fixtures.triple_parity(4), fixtures.unary_logistic(),
              ground_mln(mln, domain_size=3)[0]]
    models += [fixtures.random_tied_pairwise(seed) for seed in range(20)]
    largest = 0
    for m in models:
        s = GeneratorSymmetries(m)
        graph = build_colored_factor_graph(m)
        for rep in s.bundle().vars.reps:
            h_vars = s.stabilized_light(rep)
            exact = stabilizer_generators(graph, rep)
            assert (rep,) in h_vars.cells
            assert refines(h_vars.cells, orbits_of(exact, "vars", m).cells)
            largest = max([largest] + [len(c) for c in h_vars.cells])
    assert largest > 1


# --- orbit partitions ----------------------------------------------------------


def test_orbit_bundle_ex1_frozen_cells():
    m = fixtures.ex1()
    b = GeneratorSymmetries(m).bundle()
    assert sorted_cells(b.vars.cells) == ((0, 3), (1, 2))
    assert sorted(len(c) for c in b.edges.cells) == [1, 4]
    assert sorted(len(c) for c in b.features.cells) == [1, 4]
    assert b.factor_moments.cells == ()  # pairwise model: no factor moments


LABELS = st.one_of(st.integers(-3, 3), st.sampled_from(("a", "b")), st.tuples(st.integers(0, 2)))


@given(st.lists(st.integers(-50, 50), unique=True).flatmap(
    lambda es: st.tuples(st.just(sorted(es)), st.lists(LABELS, min_size=len(es), max_size=len(es)))))
def test_from_labels_numbers_cells_by_their_smallest_member(example):
    elements, labels = example
    p = OrbitPartition.from_labels(elements, iter(labels))
    assert p.elements == tuple(elements) and p.cell.dtype == np.int64
    assert len(p.cell) == len(elements)
    for i, e in enumerate(elements):
        assert e in p.cells[p.cell[i]]
        assert [p.cell[i] == p.cell[j] for j in range(len(elements))] == [
            labels[i] == other for other in labels]
    assert sorted(e for cell in p.cells for e in cell) == list(elements)
    assert all(list(cell) == sorted(cell) for cell in p.cells)
    assert [cell[0] for cell in p.cells] == sorted(cell[0] for cell in p.cells)
    assert p.reps == tuple(cell[0] for cell in p.cells)
    # equality and hashing read elements, cells and reps, never the label array
    other = replace(p, cell=p.cell[::-1] + 1)
    assert other == p and hash(other) == hash(p)
    if p.num_cells > 1:
        assert OrbitPartition.from_labels(elements, [0] * len(elements)) != p


def test_orbit_cells_closed_under_generators():
    for m in (fixtures.ex1(), fixtures.triple_parity(4),
              fixtures.random_tied_pairwise(3)):
        s = GeneratorSymmetries(m)
        b = s.bundle()
        for domain, part in (("vars", b.vars), ("features", b.features),
                             ("edges", b.edges),
                             ("factor-moments", b.factor_moments)):
            cell_of = {}
            for i, cell in enumerate(part.cells):
                for e in cell:
                    cell_of[e] = i
            for pair in s.gens.generators:
                for e, i in cell_of.items():
                    assert cell_of[act_element(domain, e, pair, m)] == i


@functools.cache
def _orbit_cases():
    # models with their found generators, for drawing generator subsets
    ls = parse_mln(fixtures.LOVERS_SMOKERS_MLN)
    models = [fixtures.random_tied_pairwise(seed) for seed in range(20)]
    models += [fixtures.triple_parity(4)] + [ground_mln(ls, domain_size=d)[0] for d in (2, 3, 4, 5)]
    return [(m, search_automorphisms(build_colored_factor_graph(m)).generators) for m in models]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_array_orbits_match_the_element_reference(data):
    # the image arrays and their label propagation against every generator
    # applied to every element and joined by a union-find, cell for cell
    m, gens = data.draw(st.sampled_from(_orbit_cases()))
    keep = data.draw(st.lists(st.booleans(), min_size=len(gens), max_size=len(gens)))
    sub = tuple(itertools.compress(gens, keep))
    for domain in ("vars", "features", "edges", "factor-moments"):
        assert orbits_of(sub, domain, m) == element_orbits(sub, domain, m)
    # maps that are not permutations join the components of their graphs
    n = m.num_vars
    maps = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), max_size=3))
    pairs = [PermutationPair(var_perm=pi, feature_perm=range(m.num_features)) for pi in maps]
    assert orbits_of(pairs, "vars", m) == element_orbits(pairs, "vars", m)


def test_stabilized_light_matches_the_element_reference():
    # each variable's subgroup is keyed by which generators fix it
    for m, gens in _orbit_cases():
        s = GeneratorSymmetries(m, GeneratorSet(generators=gens))
        for v in range(m.num_vars):
            sub = [g for g in gens if g.var_perm[v] == v]
            assert s.stabilized_light(v) == element_orbits(sub, "vars", m)


def test_a_pair_mapping_an_edge_or_a_factor_moment_outside_its_domain_raises():
    cycle = fixtures.cycle_model(6)
    swap = PermutationPair(var_perm=(1, 0, 2, 3, 4, 5), feature_perm=tuple(range(6)))
    with pytest.raises(ModelError, match=r"maps \(0, 5\) outside the edges domain"):
        orbits_of([swap], "edges", cycle)
    parity = fixtures.triple_parity(4)
    swap = PermutationPair(var_perm=(0, 1, 2, 3), feature_perm=(1, 0, 2, 3))
    with pytest.raises(ModelError, match=r"maps \(0, \(1, 1, 1\)\) outside the factor-moments"):
        orbits_of([swap], "factor_moments", parity)
    # an arity-3 feature's image of arity 2
    mixed = Model(num_vars=3, features=(Feature(scope=(0, 1, 2), table=fixtures.XOR3),
                                        Feature(scope=(0, 1), table=fixtures.XOR)),
                  tie_class_of=(0, 0), theta=(1.0,))
    swap = PermutationPair(var_perm=(0, 1, 2), feature_perm=(1, 0))
    with pytest.raises(ModelError, match="outside the factor-moments domain"):
        orbits_of([swap], "factor-moments", mixed)


ORBIT_DOMAINS = ("vars", "features", "edges", "factor-moments")


@pytest.mark.parametrize("domain", ORBIT_DOMAINS)
def test_an_image_past_the_model_raises_model_error_in_every_domain(domain):
    # each domain reads the variable map, the feature map or both; an image
    # past the last variable or feature is outside every domain
    parity, identity = fixtures.triple_parity(4), (0, 1, 2, 3)
    first = {"vars": 0, "features": 0, "edges": (0, 1), "factor-moments": (0, (1, 1, 1))}
    message = r"maps %s outside the %s domain" % (re.escape(repr(first[domain])), domain)
    bad_vars = PermutationPair(var_perm=(7, 1, 2, 3), feature_perm=identity)
    bad_features = PermutationPair(var_perm=identity, feature_perm=(7, 1, 2, 3))
    both = PermutationPair(var_perm=(7, 1, 2, 3), feature_perm=(7, 1, 2, 3))
    reads = {"vars": [bad_vars], "features": [bad_features], "edges": [bad_vars],
             "factor-moments": [bad_vars, bad_features]}[domain]
    for pair in reads + [both]:
        with pytest.raises(ModelError, match=message):
            orbits_of([pair], domain, parity)


def test_an_out_of_range_edge_end_is_not_read_as_another_edge():
    # (-1, 3) would code as u * n + v = -2 + 3 = 1, the code of edge (0, 1)
    pair_model = Model(num_vars=2, features=(Feature(scope=(0, 1), table=fixtures.XOR),),
                       tie_class_of=(0,), theta=(1.0,))
    pair = PermutationPair(var_perm=(-1, 3), feature_perm=(0,))
    with pytest.raises(ModelError, match=r"maps \(0, 1\) outside the edges domain"):
        orbits_of([pair], "edges", pair_model)


def test_trivial_symmetries_are_singletons():
    m = fixtures.triangle()
    b = TrivialSymmetries(m).bundle()
    assert all(len(c) == 1 for c in b.vars.cells)
    assert len(b.edges.cells) == 3
    trivial = compute_orbit_bundle(TrivialSymmetries(m).gens, m)
    assert sorted_cells(trivial.vars.cells) == ((0,), (1,), (2,))


def test_search_orbits_coarser_than_trivial_finer_than_everything():
    m = fixtures.cycle_model(5)
    s = GeneratorSymmetries(m).bundle()
    t = TrivialSymmetries(m).bundle()
    assert refines(t.vars.cells, s.vars.cells)
    assert refines(t.edges.cells, s.edges.cells)
