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
    parse_evidence,
    parse_mln,
)
from liftedmap.mln import MLNError
from liftedmap.oracle import exact_enumerate

WEIGHTS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
EVIDENCE_ATOMS = ("P(A)", "Q(A)", "R(A, A)")


@st.composite
def literals(draw):
    pred = draw(st.sampled_from(("P", "Q", "R")))
    arity = 2 if pred == "R" else 1
    args = draw(st.lists(st.sampled_from("xy"), min_size=arity, max_size=arity))
    return "%s%s(%s)" % ("!" if draw(st.booleans()) else "", pred, ", ".join(args))


@st.composite
def formulas(draw):
    lits = draw(st.lists(literals(), min_size=1, max_size=3))
    body = lits[0]
    for lit in lits[1:]:
        body += " %s %s" % (draw(st.sampled_from(("^", "v", "=>", "<=>"))), lit)
    if draw(st.booleans()):
        body = "x != y ^ (%s)" % body
    return "%s %s" % (draw(st.sampled_from(WEIGHTS)), body)


@st.composite
def random_mlns(draw):
    """(MLN text, evidence text, domain size) over P/1, Q/1 and R/2."""
    lines = ["predicate P/1", "predicate Q/1", "predicate R/2"]
    lines += draw(st.lists(formulas(), min_size=1, max_size=3))
    evidence = []
    for atom in draw(st.lists(st.sampled_from(EVIDENCE_ATOMS), max_size=2, unique=True)):
        kind = draw(st.sampled_from(("true", "false", "soft")))
        if kind == "soft":
            evidence.append("soft %s %s" % (atom, draw(st.sampled_from(WEIGHTS))))
        else:
            evidence.append(("" if kind == "true" else "!") + atom)
    return "\n".join(lines), "\n".join(evidence), draw(st.sampled_from((2, 3)))


@given(random_mlns())
@settings(max_examples=40, deadline=None)
def test_random_mln_lifted_bounds_match_ground_and_exact(example):
    text, evidence, d = example
    try:
        model, gmap = ground_mln(parse_mln(text), d, parse_evidence(evidence))
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
    }
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
