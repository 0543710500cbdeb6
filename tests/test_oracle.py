"""Brute-force reference implementations (liftedmap.oracle and the tests' own
reference.py), pinned to closed forms first."""

import itertools
import math

import numpy as np
import pytest

from liftedmap import fixtures
from liftedmap.model import Feature, Model, OvercompleteLayout
from liftedmap.oracle import LimitExceededError, OracleError, exact_enumerate
from liftedmap.symmetry import GeneratorSet, GeneratorSymmetries, PermutationPair
from reference import (
    configuration_orbits,
    enumerate_cycle_constraints,
    exhaustive_automorphisms,
    generated_group,
)


def test_exact_unary_closed_form():
    w = 0.7
    res = exact_enumerate(fixtures.unary_logistic(w))
    assert res.map_value == pytest.approx(w)
    assert res.argmax == ((1,),)
    assert res.log_partition == pytest.approx(math.log(1 + math.exp(w)))
    sig = 1.0 / (1.0 + math.exp(-w))
    layout = res.layout
    assert res.mean_params[layout.node_index(0, 1)] == pytest.approx(sig)
    assert res.mean_params[layout.node_index(0, 0)] == pytest.approx(1 - sig)


def test_exact_triangle_hand_values():
    res = exact_enumerate(fixtures.triangle())
    # every non-constant configuration breaks exactly two agreements
    assert res.map_value == pytest.approx(-1.0)
    assert len(res.argmax) == 6
    assert (0, 0, 0) not in res.argmax and (1, 1, 1) not in res.argmax
    # Z = 2 e^{-3} + 6 e^{-1}
    assert res.log_partition == pytest.approx(
        math.log(2 * math.exp(-3.0) + 6 * math.exp(-1.0)))


def test_exact_ex1_unique_argmax():
    res = exact_enumerate(fixtures.ex1())
    assert res.map_value == pytest.approx(4.0)
    assert res.argmax == ((1, 0, 0, 1),)


def test_exact_triple_parity():
    res = exact_enumerate(fixtures.triple_parity(4))
    assert res.map_value == pytest.approx(2.0)
    assert res.argmax == ((1, 1, 1, 1),)


def test_exact_mean_params_are_expectations():
    m = fixtures.triangle(weight=0.3)
    res = exact_enumerate(m)
    layout = OvercompleteLayout(m)
    # recompute E[node indicator] directly
    weights = []
    for x in itertools.product((0, 1), repeat=3):
        s = sum(0.3 * f.value(x) for f in m.features)
        weights.append(math.exp(s))
    Z = sum(weights)
    p1 = sum(w for w, x in zip(weights, itertools.product((0, 1), repeat=3))
             if x[0] == 1) / Z
    assert res.mean_params[layout.node_index(0, 1)] == pytest.approx(p1)


def test_exact_respects_limit():
    with pytest.raises(LimitExceededError):
        exact_enumerate(fixtures.frucht(), limit=10)


def test_exhaustive_automorphisms_triangle_is_s3():
    group = exhaustive_automorphisms(fixtures.triangle())
    assert len(group) == 6
    var_perms = {g.var_perm for g in group}
    assert var_perms == set(itertools.permutations(range(3)))


def test_exhaustive_automorphisms_ex1():
    group = exhaustive_automorphisms(fixtures.ex1())
    assert len(group) == 4
    ident = tuple(range(4))
    assert ident in {g.var_perm for g in group}


def test_exhaustive_distinguishes_tables():
    # same skeleton as the triangle but one XOR edge kills two symmetries
    feats = (
        Feature(scope=(0, 1), table=fixtures.XOR),
        Feature(scope=(0, 2), table=fixtures.EQUALITY),
        Feature(scope=(1, 2), table=fixtures.EQUALITY),
    )
    m = Model(num_vars=3, features=feats, tie_class_of=(0, 0, 0), theta=(1.0,))
    group = exhaustive_automorphisms(m)
    assert {g.var_perm for g in group} == {(0, 1, 2), (1, 0, 2)}


def test_generated_group_closure():
    m = fixtures.triangle()
    rotate = PermutationPair(var_perm=(1, 2, 0), feature_perm=(2, 0, 1))
    group = generated_group([rotate], m)
    assert len(group) == 3
    gens = GeneratorSet(generators=(rotate,), group_order=None)
    assert len(generated_group(gens, m)) == 3


def test_configuration_orbits_fc3():
    m = fixtures.fully_connected_symmetric(3)
    orbits = configuration_orbits(m, GeneratorSymmetries(m).gens)
    assert len(orbits) == 4
    assert sorted(len(o.configs) for o in orbits) == [1, 1, 3, 3]
    best = max(o.score for o in orbits)
    assert best == pytest.approx(exact_enumerate(m).map_value, abs=1e-9)


def test_configuration_orbits_centroid_scores_are_orbit_means():
    m = fixtures.ex1()
    s = GeneratorSymmetries(m)
    layout = OvercompleteLayout(m)
    theta = layout.theta_vector()
    for orbit in configuration_orbits(m, s.gens):
        by_hand = np.mean(
            [float(theta @ layout.phi_vector(x)) for x in orbit.configs])
        assert orbit.score == pytest.approx(by_hand, abs=1e-12)


def test_cycle_constraints_hold_at_integral_points():
    m = fixtures.triangle()
    layout = OvercompleteLayout(m)
    for x in itertools.product((0, 1), repeat=3):
        tau = layout.phi_vector(x)
        for (_, _, lhs) in enumerate_cycle_constraints(m, tau):
            assert lhs >= 1.0 - 1e-12


def test_cycle_constraints_detect_fractional_point():
    m = fixtures.triangle()
    layout = OvercompleteLayout(m)
    tau = np.zeros(layout.size)
    for v in range(3):
        tau[layout.node_index(v, 0)] = 0.5
        tau[layout.node_index(v, 1)] = 0.5
    for (u, v) in layout.edges:
        # disagreement-heavy pseudomarginal: consistent with the nodes
        tau[layout.edge_index(u, v, 0, 1)] = 0.5
        tau[layout.edge_index(u, v, 1, 0)] = 0.5
    cons = enumerate_cycle_constraints(m, tau)
    min_lhs = min(lhs for (_, _, lhs) in cons)
    # all three edges cut around the triangle: the all-odd subset gives 0
    assert min_lhs == pytest.approx(0.0, abs=1e-12)
    assert len({edges for (edges, _, _) in cons}) == 1  # single 3-cycle


def test_cycle_constraints_respect_max_len():
    m = fixtures.cycle_model(8)
    layout = OvercompleteLayout(m)
    tau = np.full(layout.size, 0.25)
    assert enumerate_cycle_constraints(m, tau, max_len=6) == []
    assert len({e for (e, _, _) in enumerate_cycle_constraints(m, tau, max_len=8)}) == 1
