"""Markov logic parsing, grounding, and renaming-group orbits."""

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import refines
from overcomplete import arc_min_edge_orbits
from signatures import (
    FeatureOrigin,
    atom_names,
    atom_signature,
    feature_key,
    feature_origins,
    group_by_key,
    orbit_sizes_analytic,
    reference_bundle,
    reference_stabilized_light,
)
from test_random_mln import POSITIVE_GUARDS, random_mlns
import fixtures
from liftedmap import build_lifted_model
from liftedmap.mln import (
    Atom,
    BinOp,
    Compare,
    MLNError,
    MLNFormatError,
    Not,
    RenamingSymmetries,
    build_domain,
    ground_mln,
    lift_mln,
    parse_evidence,
    parse_mln,
)
from liftedmap.model import Feature, Model, depended_positions, format_model, score, table_index
from liftedmap.solve import build_stabilized_graphs
from liftedmap.symmetry import (
    GeneratorSymmetries,
    OrbitBundle,
    _domain_elements,
    build_colored_factor_graph,
    orbits_of,
    stabilizer_generators,
)


def ground(text, d, ev_text=None):
    ev = parse_evidence(ev_text) if ev_text else None
    return ground_mln(parse_mln(text), domain_size=d, evidence=ev)


# --- parsing -------------------------------------------------------------------


def test_parse_predicates_and_formulas():
    mln = parse_mln(fixtures.LOVERS_SMOKERS_MLN)
    names = dict(mln.predicates)
    assert names == {"Male": 1, "Female": 1, "Smokes": 1, "Loves": 2}
    assert len(mln.formulas) == 6
    assert [w for w, _ in mln.formulas] == [100, 2, 2, 0.5, 0.5, -100]


def test_parse_rejects_malformed_lines():
    with pytest.raises(MLNFormatError):
        parse_mln("predicate p/1")  # lowercase predicate
    with pytest.raises(MLNFormatError):
        parse_mln("predicate P/one")
    with pytest.raises(MLNFormatError):
        parse_mln("1.0")  # missing formula
    with pytest.raises(MLNFormatError):
        parse_mln("abc P(x)")  # weight not a real
    with pytest.raises(MLNFormatError):
        parse_mln("predicate P/1\n1.0 P(x, y)")  # arity mismatch
    with pytest.raises(MLNFormatError):
        parse_mln("1.0 P(x ^ ")  # unbalanced


def test_parse_rejects_zero_arity_predicates():
    # a formula cannot use R (`R` and `R()` do not parse), so grounding
    # would add R() as a variable that no feature touches
    with pytest.raises(MLNFormatError, match=r"^line 2: predicate R needs an arity of at least 1"):
        parse_mln("predicate P/1\npredicate R/0\n1.0 P(x)\n")
    with pytest.raises(MLNFormatError):
        parse_mln("1.0 R()")


def test_evidence_parsing():
    ev = parse_evidence("Q(A, B)\n!Q(B, A)\nsoft Q(A, A) 0.5\n# comment\n")
    assert dict(ev.hard) == {("Q", ("A", "B")): True, ("Q", ("B", "A")): False}
    assert dict(ev.soft) == {("Q", ("A", "A")): 0.5}
    with pytest.raises(MLNFormatError):
        parse_evidence("soft Q(A) notaweight")
    with pytest.raises(MLNFormatError):
        parse_evidence("Q(x)")  # non-ground argument
    with pytest.raises(MLNFormatError):
        parse_evidence("Q(A)\n!Q(A)")  # contradictory


def connective_model(formula):
    text = "predicate P/1\npredicate Q/1\n1.0 %s\n" % formula
    model, gmap = ground(text, 1)
    atoms = atom_names(gmap, parse_mln(text))
    iP = atoms.index(("P", ("C1",)))
    iQ = atoms.index(("Q", ("C1",)))

    def val(p, q):
        x = [0, 0]
        x[iP], x[iQ] = p, q
        return score(model, tuple(x))
    return val


def test_connective_semantics_via_grounding():
    val = connective_model("P(x) => Q(x)")
    assert [val(0, 0), val(0, 1), val(1, 0), val(1, 1)] == [1, 1, 0, 1]
    val = connective_model("P(x) <=> Q(x)")
    assert [val(0, 0), val(0, 1), val(1, 0), val(1, 1)] == [1, 0, 0, 1]
    val = connective_model("P(x) v Q(x)")
    assert [val(0, 0), val(0, 1), val(1, 0), val(1, 1)] == [0, 1, 1, 1]
    val = connective_model("P(x) ^ !Q(x)")
    assert [val(0, 0), val(0, 1), val(1, 0), val(1, 1)] == [0, 0, 1, 0]


def test_implication_is_right_associative():
    # P => Q => R reads P => (Q => R): false only at (1, 1, 0)
    text = "predicate P/1\npredicate Q/1\npredicate R/1\n1.0 P(x) => Q(x) => R(x)\n"
    model, gmap = ground(text, 1)
    atoms = atom_names(gmap, parse_mln(text))
    idx = {p: atoms.index((p, ("C1",))) for p in ("P", "Q", "R")}
    for p, q, r in itertools.product((0, 1), repeat=3):
        x = [0, 0, 0]
        x[idx["P"]], x[idx["Q"]], x[idx["R"]] = p, q, r
        expected = 0.0 if (p, q, r) == (1, 1, 0) else 1.0
        assert score(model, tuple(x)) == pytest.approx(expected)


@pytest.mark.parametrize("d", [3, 11])
def test_equality_constraints_prune_substitutions(d):
    text = "predicate Q/2\n1.0 x != y ^ Q(x, y)\n"
    model, gmap = ground(text, d)
    assert model.num_features == d * (d - 1)  # ordered pairs, no diagonal
    subs = {o.subst for o in feature_origins(model, gmap, parse_mln(text))}
    assert len(subs) == d * (d - 1)
    assert all(s[0] != s[1] for s in subs)


def test_dependence_reduction_drops_vacuous_templates():
    # the Q disjunct is a tautology: the feature depends on P alone
    text = "predicate P/1\npredicate Q/1\n1.0 P(x) ^ (Q(x) v !Q(x))\n"
    model, _ = ground(text, 2)
    assert model.num_features == 2
    assert all(f.arity == 1 for f in model.features)


def test_tautological_formula_grounds_to_nothing():
    text = "predicate P/1\n1.0 P(x) v !P(x)\n"
    with pytest.raises(MLNError):
        ground(text, 2)  # no features survive


# --- grounding -----------------------------------------------------------------


def test_friends_d2_frozen():
    model, gmap = ground(fixtures.FRIENDS_MLN, 2)
    assert model.num_vars == 4
    assert model.num_features == 2
    assert all(f.scope == (1, 2) for f in model.features)
    tables = sorted(f.table for f in model.features)
    assert tables == [(1.0, 0.0, 1.0, 1.0), (1.0, 1.0, 0.0, 1.0)]
    assert model.theta == (1.0,)


def test_lovers_smokers_grounding_sizes():
    for d, nv, nf in ((3, 18, 27), (4, 28, 60)):
        model, gmap = ground(fixtures.LOVERS_SMOKERS_MLN, d)
        assert model.num_vars == nv
        assert model.num_features == nf
        assert len(model.theta) == 6


def test_domain_fillers_and_named_constants():
    text = "predicate P/1\n1.0 P(x) ^ P(A)\n"
    model, gmap = ground(text, 3)
    assert gmap.domain == ("A", "C1", "C2")
    assert gmap.distinguished == frozenset({"A"})
    with pytest.raises(MLNError, match="domain too small"):
        ground("predicate P/1\n1.0 P(A) ^ P(B)\n", 1)  # named constants do not fit


def test_soft_evidence_becomes_unary_feature():
    model, gmap = ground(fixtures.Q2_MLN, 3, fixtures.Q2_EVIDENCE)
    assert model.num_vars == 9
    assert model.num_features == 1
    f = model.features[0]
    assert f.table == (0.0, 1.0)
    assert atom_names(gmap, parse_mln(fixtures.Q2_MLN))[f.scope[0]] == ("Q", ("A", "A"))
    assert model.theta == (0.5,)


def test_hard_evidence_removes_variables():
    text = "predicate P/1\npredicate Q/1\n1.5 P(x) => Q(x)\n"
    ev = "P(C1)\n!Q(C2)\n"
    model, gmap = ground(text, 2, ev)
    # P(C1) true and Q(C2) false are folded into the tables
    atoms = atom_names(gmap, parse_mln(text))
    assert ("P", ("C1",)) not in atoms
    assert ("Q", ("C2",)) not in atoms
    assert model.num_vars == 2


@pytest.mark.parametrize("formula,atoms", [
    ("!(x = y) ^ R(x, y)", [("C1", "C2"), ("C2", "C1")]),
    ("(x = y) v R(x, y)", [("C1", "C2"), ("C2", "C1")]),
    ("!(x != y) ^ R(x, y)", [("C1", "C1"), ("C2", "C2")]),
])
def test_negated_and_disjunctive_equality_atoms_are_evaluated(formula, atoms):
    text = "predicate R/2\n1 %s\n" % formula
    model, gmap = ground(text, 2)
    names = atom_names(gmap, parse_mln(text))
    assert [names[f.scope[0]] for f in model.features] == [("R", a) for a in atoms]
    assert all(f.arity == 1 and f.table == (0.0, 1.0) for f in model.features)


# --- the grounding loop before formulas were compiled, as a reference ------------
#
# It walks the formula once per grounding and per scope assignment, treats every
# equality atom as a filter that must hold, and keeps each grounding's template
# atoms. On positive top-level guards it is exact.


def _term_value(term, subst):
    kind, name = term
    return subst[name] if kind == "var" else name


def _ref_free_vars(node):
    if isinstance(node, Atom):
        return {n for (kind, n) in node.args if kind == "var"}
    if isinstance(node, Not):
        return _ref_free_vars(node.sub)
    if isinstance(node, BinOp):
        return _ref_free_vars(node.left) | _ref_free_vars(node.right)
    return {n for (kind, n) in (node.left, node.right) if kind == "var"}


def _ref_compares_hold(node, subst):
    if isinstance(node, Compare):
        a = _term_value(node.left, subst)
        b = _term_value(node.right, subst)
        return (a == b) if node.op == "=" else (a != b)
    if isinstance(node, Not):
        return _ref_compares_hold(node.sub, subst)
    if isinstance(node, BinOp):
        return _ref_compares_hold(node.left, subst) and _ref_compares_hold(node.right, subst)
    return True


def _ref_template_atoms(node, subst, out):
    if isinstance(node, Atom):
        out.append((node.pred, tuple(_term_value(t, subst) for t in node.args)))
    elif isinstance(node, Not):
        _ref_template_atoms(node.sub, subst, out)
    elif isinstance(node, BinOp):
        _ref_template_atoms(node.left, subst, out)
        _ref_template_atoms(node.right, subst, out)


def _ref_eval(node, subst, valuation):
    if isinstance(node, Atom):
        return valuation[(node.pred, tuple(_term_value(t, subst) for t in node.args))]
    if isinstance(node, Not):
        return not _ref_eval(node.sub, subst, valuation)
    if isinstance(node, Compare):
        return True  # violated compares were skipped
    a = _ref_eval(node.left, subst, valuation)
    b = _ref_eval(node.right, subst, valuation)
    if node.op == "^":
        return a and b
    if node.op == "v":
        return a or b
    if node.op == "=>":
        return (not a) or b
    return a == b


def reference_ground(mln, domain_size, evidence):
    """(model, gmap, templates): gmap has the fields of a GroundingMap, with
    origins built one feature at a time; templates[j] pairs feature j's
    template atoms with the flags of those that survived into its scope."""
    domain, named = build_domain(mln, evidence, domain_size)
    observed = dict(evidence.hard)
    soft = dict(evidence.soft)
    atoms = [
        (pname, args)
        for pname, arity in mln.predicates
        for args in itertools.product(domain, repeat=arity)
        if (pname, args) not in observed
    ]
    atom_index = {a: i for i, a in enumerate(atoms)}
    features, tie_of, origins, templates, formula_tie = [], [], [], {}, {}
    for fi, (_, ast) in enumerate(mln.formulas):
        fvars = sorted(_ref_free_vars(ast))
        for subst_tuple in itertools.product(domain, repeat=len(fvars)):
            subst = dict(zip(fvars, subst_tuple))
            if not _ref_compares_hold(ast, subst):
                continue
            template = []
            _ref_template_atoms(ast, subst, template)
            distinct = []
            for a in template:
                if a not in observed and a not in distinct:
                    distinct.append(a)
            if not distinct:
                continue
            scope = sorted(atom_index[a] for a in distinct)
            k = len(scope)
            table = []
            for assign in itertools.product((0, 1), repeat=k):
                valuation = dict(observed)
                for v, b in zip(scope, assign):
                    valuation[atoms[v]] = bool(b)
                table.append(1.0 if _ref_eval(ast, subst, valuation) else 0.0)
            keep = depended_positions(table, k)
            if not keep:
                continue
            if len(keep) < k:
                reduced = []
                for assign in itertools.product((0, 1), repeat=len(keep)):
                    full = [0] * k
                    for p, b in zip(keep, assign):
                        full[p] = b
                    reduced.append(table[table_index(full)])
                scope = [scope[p] for p in keep]
                table = reduced
            in_scope = {atoms[v] for v in scope}
            formula_tie.setdefault(fi, len(formula_tie))
            templates[len(features)] = (template, [a in in_scope for a in template])
            features.append(Feature(scope=tuple(scope), table=tuple(table)))
            tie_of.append(formula_tie[fi])
            origins.append(FeatureOrigin(kind="formula", formula=fi, subst=subst_tuple))
    weight_tie = {w: len(formula_tie) + i for i, w in enumerate(sorted(set(soft.values())))}
    for atom in atoms:
        if atom in soft:
            features.append(Feature(scope=(atom_index[atom],), table=(0.0, 1.0)))
            tie_of.append(weight_tie[soft[atom]])
            origins.append(FeatureOrigin(kind="soft", atom=atom, weight=soft[atom]))
    theta = [0.0] * (len(formula_tie) + len(weight_tie))
    for fi, t in formula_tie.items():
        theta[t] = mln.formulas[fi][0]
    for w, t in weight_tie.items():
        theta[t] = w
    if not features:
        raise MLNError("no ground features survive")
    model = Model(num_vars=len(atoms), features=tuple(features),
                  tie_class_of=tuple(tie_of), theta=tuple(theta))
    atom_rows, origin_rows = reference_rows(mln, domain, atoms, origins)
    gmap = SimpleNamespace(domain=domain, distinguished=named, atoms=tuple(atoms),
                           origins=tuple(origins), atom_rows=atom_rows, origin_rows=origin_rows)
    return model, gmap, templates


def reference_rows(mln, domain, atoms, origins):
    """GroundingMap's atom_rows and origin_rows, one element at a time."""
    const = {c: i for i, c in enumerate(domain)}
    pred = {p: i for i, (p, _) in enumerate(mln.predicates)}
    atom_rows = [[pred[p]] + [const[c] for c in args] for p, args in atoms]
    origin_rows = [
        [o.formula] + [const[c] for c in o.subst] if o.kind == "formula"
        else [len(mln.formulas) + pred[o.atom[0]]] + [const[c] for c in o.atom[1]]
        for o in origins
    ]
    # atoms are as wide as the widest predicate; origins also as the widest
    # substitution with a feature
    atom_width = 1 + max((arity for _, arity in mln.predicates), default=0)
    origin_width = max([atom_width] + [len(r) for r in origin_rows])

    def padded(rows, width):
        out = np.array([r + [-1] * (width - len(r)) for r in rows], dtype=np.int64)
        return out.reshape(-1, width)

    return padded(atom_rows, atom_width), padded(origin_rows, origin_width)


def reference_factor_moments(model, gmap, templates):
    """Factor-moment orbits keyed with each scope in template order."""
    fkey = [feature_key(origin, gmap.distinguished) for origin in gmap.origins]
    atom_index = {a: i for i, a in enumerate(gmap.atoms)}
    perm = {}
    for j, (template, active) in templates.items():
        if model.features[j].arity >= 3:
            pos_of = {v: i for i, v in enumerate(model.features[j].scope)}
            perm[j] = [pos_of[atom_index[a]] for a, on in zip(template, active) if on]

    def key(element):
        j, a = element
        return (fkey[j], tuple(a[p] for p in perm[j]))

    return group_by_key(_domain_elements("factor-moments", model), key)


def assert_grounding_matches_reference(text, ev_text, d):
    mln, ev = parse_mln(text), parse_evidence(ev_text)
    try:
        ref_model, ref_gmap, templates = reference_ground(mln, d, ev)
    except MLNError:
        with pytest.raises(MLNError):
            ground_mln(mln, d, ev)
        return
    model, gmap = ground_mln(mln, d, ev)
    assert format_model(model) == format_model(ref_model)
    assert (gmap.domain, atom_names(gmap, mln)) == (ref_gmap.domain, ref_gmap.atoms)
    assert feature_origins(model, gmap, mln) == ref_gmap.origins
    assert np.array_equal(gmap.atom_rows, ref_gmap.atom_rows)
    assert np.array_equal(gmap.origin_rows, ref_gmap.origin_rows)
    # the array keys against the per-element signatures on the reference grounding
    renaming = RenamingSymmetries(model, gmap)
    bundle = renaming.bundle()
    ref_bundle = reference_bundle(ref_model, ref_gmap)
    for f in dataclasses.fields(OrbitBundle):
        assert getattr(bundle, f.name) == getattr(ref_bundle, f.name), f.name
    ref_fm = reference_factor_moments(ref_model, ref_gmap, templates)
    assert bundle.factor_moments.cells == ref_fm.cells
    for v in range(model.num_vars):
        assert renaming.stabilized_light(v) == reference_stabilized_light(
            ref_model, ref_gmap.atoms, ref_gmap.distinguished, v)


# soft evidence whose variable order is not its name order: Male(A) is the
# first variable, Female(B) a later one
LOVERS_SMOKERS_EVIDENCE = "Smokes(A)\n!Loves(A, B)\nsoft Female(B) 1.5\nsoft Male(A) 0.5\n"


@pytest.mark.parametrize("text,ev,domains", [
    (fixtures.LOVERS_SMOKERS_MLN, "", range(1, 9)),
    (fixtures.LOVERS_SMOKERS_MLN, LOVERS_SMOKERS_EVIDENCE, range(2, 6)),
    (fixtures.FRIENDS_MLN, "", range(2, 7)),
    (fixtures.Q2_MLN, fixtures.Q2_EVIDENCE, range(2, 6)),
], ids=["lovers_smokers", "lovers_smokers_evidence", "friends", "q2"])
def test_shipped_models_ground_as_the_reference(text, ev, domains):
    for d in domains:
        assert_grounding_matches_reference(text, ev, d)


# features of arity 3, 4 and 5, whose factor moments need the scope order
WIDE_MLN = """predicate P/1
predicate R/2
1.0 R(x, y) ^ R(y, z) ^ P(x) => P(z)
-0.5 x != y ^ (R(x, y) ^ R(y, x) ^ P(A) ^ P(y) v R(x, A))
"""
WIDE_EVIDENCE = "R(A, A)\nsoft R(A, B) 0.5\n!P(B)\n"


@pytest.mark.parametrize("d", range(2, 7))
def test_wide_features_ground_as_the_reference(d):
    model, _ = ground(WIDE_MLN, d, WIDE_EVIDENCE)
    assert {f.arity for f in model.features} >= ({3, 4, 5} if d >= 3 else {3})
    assert_grounding_matches_reference(WIDE_MLN, WIDE_EVIDENCE, d)


@given(random_mlns(POSITIVE_GUARDS))
@settings(max_examples=200, deadline=None)
def test_random_mlns_ground_as_the_reference(example):
    assert_grounding_matches_reference(*example)


# --- renaming orbits -------------------------------------------------------------


def test_atom_signatures_distinguish_constants():
    dist = frozenset({"A"})
    s1 = atom_signature(("Q", ("A", "A")), dist)
    s2 = atom_signature(("Q", ("B", "B")), dist)
    s3 = atom_signature(("Q", ("C", "C")), dist)
    s4 = atom_signature(("Q", ("B", "C")), dist)
    assert s1 != s2 and s2 == s3 and s2 != s4


def test_q2_example_five_cells_with_analytic_sizes():
    model, gmap = ground(fixtures.Q2_MLN, 5, fixtures.Q2_EVIDENCE)
    sym = RenamingSymmetries(model, gmap)
    cells = sym.bundle().vars.cells
    atoms = atom_names(gmap, parse_mln(fixtures.Q2_MLN))
    assert len(cells) == 5
    assert sorted(len(c) for c in cells) == [1, 4, 4, 4, 12]
    for cell in cells:
        sig = atom_signature(atoms[cell[0]], gmap.distinguished)
        assert orbit_sizes_analytic(sig, 5, 1) == len(cell)


def test_q2_cell_count_invariant_in_domain_size():
    for d in (5, 10, 20):
        model, gmap = ground(fixtures.Q2_MLN, d, fixtures.Q2_EVIDENCE)
        cells = RenamingSymmetries(model, gmap).bundle().vars.cells
        atoms = atom_names(gmap, parse_mln(fixtures.Q2_MLN))
        assert len(cells) == 5
        for cell in cells:
            sig = atom_signature(atoms[cell[0]], gmap.distinguished)
            assert orbit_sizes_analytic(sig, d, 1) == len(cell)


def test_renaming_cells_closed_under_brute_force_renaming():
    # permuting the interchangeable constants maps every cell onto itself
    model, gmap = ground(fixtures.LOVERS_SMOKERS_MLN, 3)
    bundle = RenamingSymmetries(model, gmap).bundle()
    atoms = atom_names(gmap, parse_mln(fixtures.LOVERS_SMOKERS_MLN))
    atom_index = {a: i for i, a in enumerate(atoms)}
    free = sorted(set(gmap.domain) - set(gmap.distinguished))
    for perm in itertools.permutations(free):
        mapping = dict(zip(free, perm))
        mapping.update({c: c for c in gmap.distinguished})

        def rename_var(v):
            pred, args = atoms[v]
            return atom_index[(pred, tuple(mapping[a] for a in args))]

        cell_of = {}
        for i, cell in enumerate(bundle.vars.cells):
            for v in cell:
                cell_of[v] = i
        for v in range(model.num_vars):
            assert cell_of[rename_var(v)] == cell_of[v]


def test_lovers_smokers_renaming_cell_counts_invariant():
    expected = None
    for d in (3, 4, 5, 6):
        model, gmap = ground(fixtures.LOVERS_SMOKERS_MLN, d)
        b = RenamingSymmetries(model, gmap).bundle()
        counts = (len(b.vars.cells), len(b.features.cells), len(b.edges.cells),
                  len(b.factor_moments.cells))
        if expected is None:
            expected = counts
        assert counts == expected
    assert expected == (5, 6, 12, 3)


MLNS = {
    "lovers_smokers": (fixtures.LOVERS_SMOKERS_MLN, None),
    "friends": (fixtures.FRIENDS_MLN, None),
    "q2": (fixtures.Q2_MLN, fixtures.Q2_EVIDENCE),
}


@pytest.mark.parametrize("name,d", [
    *[("lovers_smokers", d) for d in (2, 3, 4, 5, 6, 7, 8, 20)],
    *[("friends", d) for d in (2, 3, 4)],
    *[("q2", d) for d in (2, 3, 4, 5)],
])
def test_renaming_edge_orbits_are_the_arc_min_partition(name, d):
    # an edge keyed by the smaller of its two directions' signatures, with
    # no arc orbits, gives the partition that the arc-orbit key gave
    text, ev = MLNS[name]
    model, gmap = ground(text, d, ev)
    sym = RenamingSymmetries(model, gmap)
    assert sym.bundle().edges == arc_min_edge_orbits(sym)


@given(random_mlns())
@settings(max_examples=40, deadline=None)
def test_random_renaming_edge_orbits_are_the_arc_min_partition(example):
    text, evidence, d = example
    try:
        model, gmap = ground(text, d, evidence)
    except MLNError:
        return  # every grounding is constant under the evidence
    sym = RenamingSymmetries(model, gmap)
    assert sym.bundle().edges == arc_min_edge_orbits(sym)


@pytest.mark.parametrize("text,ev,domains", [
    (fixtures.LOVERS_SMOKERS_MLN, None, (3, 4)),
    (fixtures.FRIENDS_MLN, None, (2, 3, 4)),
    (fixtures.Q2_MLN, fixtures.Q2_EVIDENCE, (2, 3, 4)),
])
def test_renaming_refines_search(text, ev, domains):
    for d in domains:
        model, gmap = ground(text, d, ev)
        rb = RenamingSymmetries(model, gmap).bundle()
        sb = GeneratorSymmetries(model).bundle()
        assert refines(rb.vars.cells, sb.vars.cells)
        assert refines(rb.features.cells, sb.features.cells)
        assert refines(rb.edges.cells, sb.edges.cells)
        assert refines(rb.factor_moments.cells, sb.factor_moments.cells)


@pytest.mark.parametrize("d", (3, 4))
def test_renaming_stabilizer_orbits_refine_search_stabilizer_orbits(d):
    # pinning the fixed atom's constants gives a subgroup of the variable's
    # stabilizer, so its orbits must refine the exact stabilizer's orbits
    model, gmap = ground(fixtures.LOVERS_SMOKERS_MLN, d)
    renaming = RenamingSymmetries(model, gmap)
    graph = build_colored_factor_graph(model)
    largest = 0
    for rep in renaming.bundle().vars.reps:
        r_vars = renaming.stabilized_light(rep)
        s_vars = orbits_of(stabilizer_generators(graph, rep), "vars", model)
        assert (rep,) in r_vars.cells and (rep,) in s_vars.cells
        assert refines(r_vars.cells, s_vars.cells)
        largest = max([largest] + [len(c) for c in r_vars.cells])
    assert largest > 1


# --- lifting at a representative domain size ----------------------------------


def representative_size(mln, evidence):
    """|named| + A + max(A, K, 1), from the parsed MLN and evidence."""
    named = set(mln.constants)
    for atom, _ in evidence.hard + evidence.soft:
        named |= set(atom[1])
    arity = max(a for _, a in mln.predicates)
    width = max((len(_ref_free_vars(ast)) for _, ast in mln.formulas), default=0)
    return len(named) + arity + max(arity, width, 1)


def _element_names(model, gmap, mln, domain, elements):
    # elements named by their atoms and formula groundings, which keep
    # their constants from one domain size to another
    atoms, origins = atom_names(gmap, mln), feature_origins(model, gmap, mln)
    if domain == "vars":
        return [atoms[v] for v in elements]
    if domain == "features":
        return [origins[j] for j in elements]
    if domain == "edges":
        return [(atoms[u], atoms[v]) for u, v in elements]
    return [(origins[j], a) for j, a in elements]


def assert_lift_matches_the_grounded_lift(mln, evidence, d):
    lm = lift_mln(mln, d, evidence)
    model, gmap = ground_mln(mln, d, evidence)
    ref = build_lifted_model(model, RenamingSymmetries(model, gmap))
    small = lm.symmetries
    assert len(small.gmap.domain) == min(d, representative_size(mln, evidence))
    for f in dataclasses.fields(OrbitBundle):
        # as many cells, in the same order, with the same smallest members
        mine, theirs = getattr(lm.bundle, f.name).reps, getattr(ref.bundle, f.name).reps
        assert (_element_names(small.model, small.gmap, mln, f.name, mine)
                == _element_names(model, gmap, mln, f.name, theirs)), f.name
    assert lm.bundle.vars.num_cells == ref.bundle.vars.num_cells
    for attr in ("edge_tables", "factor_tables"):
        assert getattr(lm, attr) == getattr(ref, attr), attr
    assert build_stabilized_graphs(lm) == build_stabilized_graphs(ref)
    assert (lm.num_vars, lm.num_features) == (model.num_vars, model.num_features)
    assert lm.var_cells.tolist() == ref.var_cells.tolist()
    assert lm.node_reps == ref.node_reps
    close = np.abs(lm.theta_bar - ref.theta_bar) <= 1e-12 * (1 + np.abs(ref.theta_bar))
    assert close.all()
    assert abs(lm.constant - ref.constant) <= 1e-12 * (1 + abs(ref.constant))


@pytest.mark.parametrize("name,domains", [
    ("lovers_smokers", range(2, 10)),
    ("friends", range(1, 8)),
    # d0 = 5: the stabilized graphs group node orbits at d = 3 otherwise
    # than at d >= 4, so a smaller d0 would change them
    ("q2", range(3, 7)),
])
def test_shipped_models_lift_as_the_grounded_lift(name, domains):
    text, ev = MLNS[name]
    mln, evidence = parse_mln(text), parse_evidence(ev or "")
    for d in domains:
        if name == "friends" and d == 1:
            with pytest.raises(MLNError, match="no ground features"):
                lift_mln(mln, d, evidence)
            continue
        assert_lift_matches_the_grounded_lift(mln, evidence, d)


@given(random_mlns(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_random_mlns_lift_as_the_grounded_lift(example, extra):
    text, ev, _ = example
    mln, evidence = parse_mln(text), parse_evidence(ev)
    d = representative_size(mln, evidence) + extra
    try:
        ground_mln(mln, d, evidence)
    except MLNError:
        return  # every grounding is constant under the evidence
    assert_lift_matches_the_grounded_lift(mln, evidence, d)


def test_lift_counts_the_features_at_the_domain_size():
    # lovers_smokers: three unary formulas, two over x != y and the triangle
    # over three distinct constants, so 3d + 2d(d-1) + d(d-1)(d-2) groundings
    lm = lift_mln(parse_mln(fixtures.LOVERS_SMOKERS_MLN), 100)
    assert len(lm.symmetries.gmap.domain) == 5
    assert lm.num_vars == 3 * 100 + 100 * 100
    assert lm.num_features == 300 + 2 * 9900 + 100 * 99 * 98
