"""Model data structures, text format, and overcomplete layout."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from liftedmap.mln import ground_mln, parse_evidence, parse_mln
from test_mln import WIDE_EVIDENCE, WIDE_MLN
from liftedmap.model import (
    Feature,
    Model,
    ModelError,
    ModelFormatError,
    assignments,
    format_model,
    parse_model,
    row_codes,
    score,
    skeleton,
    table_index,
)
from overcomplete import OvercompleteLayout, to_overcomplete


def test_table_index_first_variable_most_significant():
    assert table_index((0, 0)) == 0
    assert table_index((0, 1)) == 1
    assert table_index((1, 0)) == 2
    assert table_index((1, 1)) == 3
    assert table_index((1, 0, 1)) == 5


def test_assignments_follow_table_order():
    elems = list(assignments(2))
    assert elems == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [table_index(a) for a in assignments(3)] == list(range(8))


def test_feature_value_reads_scope_in_order():
    f = Feature(scope=(0, 2), table=fixtures.FIRST_ONLY)
    # FIRST_ONLY is 1 only at (1, 0): x[0] = 1 and x[2] = 0
    assert f.value((1, 1, 0)) == 1.0
    assert f.value((0, 1, 1)) == 0.0
    assert f.value((1, 0, 1)) == 0.0


def test_feature_scope_must_be_increasing():
    with pytest.raises(ModelError):
        Feature(scope=(2, 0), table=fixtures.FIRST_ONLY)


def test_features_made_many_at_once_equal_those_made_one_by_one():
    scopes = np.array([[0, 2], [1, 5], [3, 4]])
    many = Feature.many(scopes, [1, 0, 0, 0])
    assert many == [Feature(scope=tuple(s), table=(1.0, 0.0, 0.0, 0.0)) for s in scopes.tolist()]
    assert all(type(v) is int for f in many for v in f.scope)
    assert all(type(t) is float for f in many for t in f.table)
    assert Feature.many(np.zeros((0, 2), dtype=int), fixtures.FIRST_ONLY) == []


@pytest.mark.parametrize("scopes,table,message", [
    ([[0, 2], [2, 2]], fixtures.FIRST_ONLY, r"scope must be strictly increasing: \(2, 2\)"),
    ([[0, 2], [-1, 2]], fixtures.FIRST_ONLY, "variable index out of range: -1"),
    ([[0, 2]], (1.0, 0.0), "table length mismatch: expected 4 entries, got 2"),
    ([[0, 2]], (1.0, 0.0, math.inf, 0.0), "table entry is not finite: inf"),
    (np.zeros((2, 0), dtype=int), (1.0,), "feature scope is empty"),
])
def test_features_made_many_at_once_are_checked(scopes, table, message):
    # the checks and messages of a single Feature, made once over the array
    with pytest.raises(ModelError, match=message):
        Feature.many(np.array(scopes), table)


def test_row_codes_order_rows_lexicographically():
    rows = np.array([[3, -1, 7], [0, 5, 5], [3, -1, 2], [0, 5, 5], [-4, 9, 0]])
    codes = row_codes(rows)
    assert codes[1] == codes[3]
    lexicographic = sorted(range(5), key=lambda i: rows[i].tolist())
    assert np.argsort(codes, kind="stable").tolist() == lexicographic
    # columns whose ranges overflow a 64-bit mixed radix are renumbered on the way
    wide = np.array([[2 ** 40, 1, 2 ** 40], [0, 1, 2 ** 40], [2 ** 40, 0, 0], [0, 1, 2 ** 40]])
    codes = row_codes(wide)
    assert codes[1] == codes[3] and len(set(codes.tolist())) == 3
    lexicographic = sorted(range(4), key=lambda i: wide[i].tolist())
    assert np.argsort(codes, kind="stable").tolist() == lexicographic


def test_score_sums_tied_weights():
    m = fixtures.ex1()
    assert score(m, (1, 0, 0, 1)) == pytest.approx(4.0)
    assert score(m, (0, 0, 0, 0)) == pytest.approx(0.0)
    t = fixtures.triangle(weight=-2.0)
    assert score(t, (0, 0, 0)) == pytest.approx(-6.0)
    assert score(t, (0, 0, 1)) == pytest.approx(-2.0)


def test_model_validation_errors():
    f = Feature(scope=(0, 1), table=fixtures.AND)
    with pytest.raises(ModelError):
        Model(num_vars=0, features=(f,), tie_class_of=(0,), theta=(1.0,))
    with pytest.raises(ModelError):
        Model(num_vars=2, features=(), tie_class_of=(), theta=(1.0,))
    with pytest.raises(ModelError):
        Model(num_vars=2, features=(f,), tie_class_of=(0, 0), theta=(1.0,))
    with pytest.raises(ModelError):
        Model(num_vars=2, features=(f,), tie_class_of=(1,), theta=(1.0,))
    with pytest.raises(ModelError):  # scope out of range
        Model(num_vars=2, features=(Feature(scope=(0, 2), table=fixtures.AND),),
              tie_class_of=(0,), theta=(1.0,))
    with pytest.raises(ModelError):  # repeated variable in scope
        Model(num_vars=2, features=(Feature(scope=(0, 0), table=fixtures.AND),),
              tie_class_of=(0,), theta=(1.0,))
    with pytest.raises(ModelError):  # table length vs arity
        Model(num_vars=2, features=(Feature(scope=(0, 1), table=(1.0, 0.0)),),
              tie_class_of=(0,), theta=(1.0,))
    with pytest.raises(ModelError, match="feature 0 does not depend on argument 0$"):
        Model(num_vars=2,
              features=(Feature(scope=(0, 1), table=(0.0, 1.0, 0.0, 1.0)),),
              tie_class_of=(0,), theta=(1.0,))
    with pytest.raises(ModelError, match="feature 1 does not depend on argument 1$"):
        Model(num_vars=3,
              features=(f, Feature(scope=(0, 1, 2), table=(0.0,) * 4 + (1.0,) * 4)),
              tie_class_of=(0, 0), theta=(1.0,))


def test_parse_format_roundtrip_bytes():
    for m in (fixtures.ex1(), fixtures.triangle(), fixtures.frucht(),
              fixtures.triple_parity(4), fixtures.unary_logistic()):
        text = format_model(m)
        assert parse_model(text) == m
        assert format_model(parse_model(text)) == text


def test_parse_rejects_malformed_input():
    with pytest.raises(ModelFormatError):
        parse_model("")
    with pytest.raises(ModelFormatError):
        parse_model("fgm 2\nvars 1\n")
    good = format_model(fixtures.ex1())
    with pytest.raises(ModelFormatError):
        parse_model(good.replace("theta 0 1.0", "theta 0 x"))
    with pytest.raises(ModelError):
        parse_model(good.replace("vars 4", "vars 3"))


def test_parse_ignores_comments_and_blank_lines():
    text = format_model(fixtures.triangle())
    noisy = "# header comment\n\n" + text.replace(
        "vars 3", "vars 3   # three variables")
    assert parse_model(noisy) == fixtures.triangle()


def test_skeleton_edges_sorted_and_deduplicated():
    m = fixtures.triple_parity(4)
    sk = skeleton(m)
    assert sk.edges == tuple(sorted(itertools.combinations(range(4), 2)))


def reference_skeleton(model):
    """The skeleton's edges as a set of scope pairs, one feature at a time."""
    edges = set()
    for f in model.features:
        edges.update(itertools.combinations(f.scope, 2))
    return tuple(sorted(edges))


def parity(k):
    return tuple(float(bin(i).count("1") % 2) for i in range(2 ** k))


def skeleton_cases():
    yield "mixed_wide", Model(  # a wide scope next to its prefix and its extension
        num_vars=5,
        features=tuple(Feature(scope=s, table=parity(len(s)))
                       for s in ((1, 2, 4), (0, 1, 2, 3), (0, 1, 2), (0, 4), (3,), (0, 1, 2, 3))),
        tie_class_of=(0,) * 6,
        theta=(1.0,),
    )
    yield "ex1", fixtures.ex1()
    yield "triangle", fixtures.triangle()
    yield "cycle_model", fixtures.cycle_model(6)
    yield "frucht", fixtures.frucht()
    yield "fully_connected_symmetric", fixtures.fully_connected_symmetric(5)
    yield "triple_parity", fixtures.triple_parity(4)
    yield "unary_logistic", fixtures.unary_logistic()
    for seed in range(20):
        yield "random_tied_pairwise_%d" % seed, fixtures.random_tied_pairwise(seed)
    yield "lovers_smokers_d5", ground_mln(parse_mln(fixtures.LOVERS_SMOKERS_MLN), 5)[0]
    for d in (3, 4):
        evidence = parse_evidence(WIDE_EVIDENCE)
        yield "wide_mln_d%d" % d, ground_mln(parse_mln(WIDE_MLN), d, evidence)[0]


SKELETON_CASES = dict(skeleton_cases())


@pytest.mark.parametrize("name", SKELETON_CASES)
def test_skeleton_matches_the_pairwise_reference(name):
    model = SKELETON_CASES[name]
    assert skeleton(model).edges == reference_skeleton(model)
    if name.startswith(("wide", "mixed")):
        assert len({f.arity for f in model.features if f.arity >= 3}) >= 2


def test_layout_block_structure():
    m = fixtures.triple_parity(4)
    layout = OvercompleteLayout(m)
    assert layout.node_index(2, 1) == 5
    assert layout.size == 2 * 4 + 4 * 6 + 8 * 4
    # node block, then 4 coordinates per sorted edge, then factor blocks
    assert layout.keys[0] == ("node", 0, 0)
    assert layout.keys[8] == ("edge", 0, 1, 0, 0)
    assert layout.keys[11] == ("edge", 0, 1, 1, 1)
    first_factor = 8 + 4 * len(layout.edges)
    assert layout.keys[first_factor] == ("factor", 0, (0, 0, 0))
    assert layout.factor_index(0, (0, 0, 0)) == first_factor
    assert layout.factor_index(0, (1, 1, 1)) == first_factor + 7


def test_layout_scores_match_model_score():
    for m in (fixtures.ex1(), fixtures.triangle(), fixtures.triple_parity(4),
              fixtures.unary_logistic()):
        layout = OvercompleteLayout(m)
        theta = layout.theta_vector()
        for x in itertools.product((0, 1), repeat=m.num_vars):
            phi = layout.phi_vector(x)
            assert float(theta @ phi) == pytest.approx(score(m, x), abs=1e-12)


def test_theta_vector_is_bitwise_the_overcomplete_scatter(models_dir):
    # the dict of to_overcomplete, scattered one key at a time: the same
    # sums in the same feature order, so the same bits
    mln = parse_mln(fixtures.LOVERS_SMOKERS_MLN)
    q2 = parse_mln((models_dir / "q2.mln").read_text())
    evidence = parse_evidence((models_dir / "q2.evidence").read_text())
    models = [fixtures.ex1(), fixtures.triangle(), fixtures.cycle_model(6),
              fixtures.frucht(), fixtures.fully_connected_symmetric(5),
              fixtures.triple_parity(4), fixtures.unary_logistic(),
              ground_mln(mln, domain_size=3)[0], ground_mln(q2, 3, evidence)[0]]
    models += [fixtures.random_tied_pairwise(seed) for seed in range(5)]
    for m in models:
        layout = OvercompleteLayout(m)
        over = to_overcomplete(m)
        scatter = np.zeros(layout.size)
        for (v, t), w in over.node_theta.items():
            scatter[layout.node_index(v, t)] = w
        for ((u, v), (a, b)), w in over.pair_theta.items():
            scatter[layout.edge_index(u, v, a, b)] = w
        for (j, a), w in over.factor_theta.items():
            scatter[layout.factor_index(j, a)] = w
        theta = layout.theta_vector()
        assert theta.dtype == scatter.dtype
        assert theta.tobytes() == scatter.tobytes()
    # node, edge and factor blocks all occur
    assert {min(f.arity, 3) for m in models for f in m.features} == {1, 2, 3}


def test_phi_vector_is_consistent_indicator_point():
    m = fixtures.triple_parity(4)
    layout = OvercompleteLayout(m)
    x = (1, 0, 1, 0)
    phi = layout.phi_vector(x)
    for v in range(4):
        assert phi[layout.node_index(v, x[v])] == 1.0
        assert phi[layout.node_index(v, 1 - x[v])] == 0.0
    for (u, v) in layout.edges:
        assert phi[layout.edge_index(u, v, x[u], x[v])] == 1.0
    for j in layout.factor_features:
        a = tuple(x[v] for v in m.features[j].scope)
        assert phi[layout.factor_index(j, a)] == 1.0


def test_to_overcomplete_keeps_factor_blocks_separate():
    m = fixtures.triple_parity(4)
    over = to_overcomplete(m)
    # skeleton edges exist, but no arity-2 feature contributes to them
    assert all(w == 0.0 for w in over.pair_theta.values())
    assert len(over.factor_theta) == 4 * 8
    assert over.factor_theta[(0, (0, 1, 1))] == pytest.approx(0.0)
    assert over.factor_theta[(0, (0, 0, 1))] == pytest.approx(0.5)


_TABLES = [fixtures.EQUALITY, fixtures.XOR, fixtures.AND, fixtures.OR,
           fixtures.IMPLIES, fixtures.FIRST_ONLY, fixtures.SECOND_ONLY]


@st.composite
def small_models(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    m = draw(st.integers(min_value=1, max_value=6))
    feats = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 2))
        v = draw(st.integers(min_value=u + 1, max_value=n - 1))
        feats.append(Feature(scope=(u, v), table=draw(st.sampled_from(_TABLES))))
    raw_ties = [draw(st.integers(min_value=0, max_value=1)) for _ in feats]
    dense = {lab: i for i, lab in enumerate(sorted(set(raw_ties)))}
    ties = tuple(dense[t] for t in raw_ties)
    theta = tuple(draw(st.floats(-2, 2, allow_nan=False)) for _ in dense)
    return Model(num_vars=n, features=tuple(feats), tie_class_of=ties, theta=theta)


@given(small_models())
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(m):
    assert parse_model(format_model(m)) == m


@given(small_models())
@settings(max_examples=30, deadline=None)
def test_overcomplete_score_property(m):
    layout = OvercompleteLayout(m)
    theta = layout.theta_vector()
    for x in itertools.product((0, 1), repeat=min(m.num_vars, 4)):
        full = x + (0,) * (m.num_vars - len(x))
        assert float(theta @ layout.phi_vector(full)) == pytest.approx(
            score(m, full), abs=1e-9)
