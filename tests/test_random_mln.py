"""Random small MLNs: renaming orbits against search orbits, lifted bounds
against ground bounds, and every bound against the brute-force MAP."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import refines
from liftedmap import (
    GeneratorSymmetries,
    MapOptions,
    OrbitBundle,
    RenamingSymmetries,
    build_lifted_model,
    cutting_plane_map,
    ground_mln,
    lift_mln,
    parse_evidence,
    parse_mln,
    score,
)
from liftedmap.mln import MLNError
from liftedmap.oracle import exact_enumerate
from overcomplete import assert_matches_the_overcomplete_reference
from reference import lift_cells

WEIGHTS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
EVIDENCE_ATOMS = ("P(A)", "Q(A)", "R(A, A)")
# equality guards whose only effect is to keep the groundings where they hold
POSITIVE_GUARDS = ("x != y ^ (%s)", "x = y ^ (%s)", "y != z ^ (%s)")
# negated and disjunctive guards, evaluated like any other atom
GUARDS = POSITIVE_GUARDS + ("!(x = y) ^ (%s)", "(y = z) v (%s)", "!(x != z) v (%s)")


@st.composite
def literals(draw, arities):
    pred = draw(st.sampled_from(sorted(arities)))
    args = draw(st.lists(st.sampled_from("xyz"), min_size=arities[pred], max_size=arities[pred]))
    return "%s%s(%s)" % ("!" if draw(st.booleans()) else "", pred, ", ".join(args))


@st.composite
def formulas(draw, arities, guards):
    lits = draw(st.lists(literals(arities), min_size=1, max_size=3))
    body = lits[0]
    for lit in lits[1:]:
        body += " %s %s" % (draw(st.sampled_from(("^", "v", "=>", "<=>"))), lit)
    if draw(st.booleans()):
        body = draw(st.sampled_from(guards)) % body
    return "%s %s" % (draw(st.sampled_from(WEIGHTS)), body)


@st.composite
def random_mlns(draw, guards=GUARDS):
    """(MLN text, evidence text, domain size) over P/1, Q/1, R/2 and, at d=2, S/3.

    S is left out at d=3 to keep every model within exact enumeration's
    20-variable limit (d=2: 16 atoms, d=3: 15).
    """
    d = draw(st.sampled_from((2, 3)))
    arities = {"P": 1, "Q": 1, "R": 2}
    if d == 2:
        arities["S"] = 3
    lines = ["predicate %s/%d" % item for item in arities.items()]
    lines += draw(st.lists(formulas(arities, guards), min_size=1, max_size=3))
    evidence = []
    for atom in draw(st.lists(st.sampled_from(EVIDENCE_ATOMS), max_size=2, unique=True)):
        kind = draw(st.sampled_from(("true", "false", "soft")))
        if kind == "soft":
            evidence.append("soft %s %s" % (atom, draw(st.sampled_from(WEIGHTS))))
        else:
            evidence.append(("" if kind == "true" else "!") + atom)
    return "\n".join(lines), "\n".join(evidence), d


@given(random_mlns())
@settings(max_examples=40, deadline=None)
def test_random_mln_lifted_bounds_match_ground_and_exact(example):
    text, evidence, d = example
    mln, evidence = parse_mln(text), parse_evidence(evidence)
    try:
        model, gmap = ground_mln(mln, d, evidence)
    except MLNError:
        return  # every grounding is constant under the evidence
    renaming = RenamingSymmetries(model, gmap)
    search = GeneratorSymmetries(model)
    fine, coarse = renaming.bundle(), search.bundle()
    for f in dataclasses.fields(OrbitBundle):
        assert refines(getattr(fine, f.name).cells, getattr(coarse, f.name).cells), f.name

    exact = exact_enumerate(model)
    targets = {
        "ground": model,
        "renaming": build_lifted_model(model, renaming),
        "search": build_lifted_model(model, search),
        "lift_mln": lift_mln(mln, d, evidence),
    }
    for t in targets.values():
        assert_matches_the_overcomplete_reference(t)
    for name in ("renaming", "search", "lift_mln"):
        lm = targets[name]
        assert (lm.index.rho.tolist(), lm.node_info, lm.edge_info, lm.factor_info) == lift_cells(lm)
    for polytope in ("local", "cycle"):
        opts = MapOptions(polytope=polytope)
        results = {name: cutting_plane_map(t, opts) for name, t in targets.items()}
        ground = results["ground"].objective
        for name, r in results.items():
            where = (polytope, name)
            assert r.status == "optimal", where
            assert r.objective == pytest.approx(ground, abs=1e-6), where
            assert exact.map_value <= min(r.bounds) + 1e-6, where
            assert r.decode["score"] <= exact.map_value + 1e-6, where
            config = r.decode["configuration"]
            assert r.decode["score"] == pytest.approx(score(model, config), abs=1e-9), where
