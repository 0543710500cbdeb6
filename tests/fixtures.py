"""Small example models shared by the test suite.

Everything here is deterministic: the seeded generator always returns the
same model for the same seed.
"""

from __future__ import annotations

import random

from liftedmap.model import Feature, Model

# binary tables over two arguments, indexed (a << 1) | b
EQUALITY = (1.0, 0.0, 0.0, 1.0)
XOR = (0.0, 1.0, 1.0, 0.0)
AND = (0.0, 0.0, 0.0, 1.0)
OR = (0.0, 1.0, 1.0, 1.0)
IMPLIES = (1.0, 1.0, 0.0, 1.0)
FIRST_ONLY = (0.0, 0.0, 1.0, 0.0)  # a=1, b=0
SECOND_ONLY = (0.0, 1.0, 0.0, 0.0)  # a=0, b=1


def ex1() -> Model:
    """Four-variable chain-with-rungs model whose symmetry swaps the outer
    pair and the inner pair; unique optimum (1, 0, 0, 1) scoring 4."""
    feats = (
        Feature(scope=(0, 1), table=FIRST_ONLY),
        Feature(scope=(0, 2), table=FIRST_ONLY),
        Feature(scope=(1, 2), table=AND),
        Feature(scope=(1, 3), table=SECOND_ONLY),
        Feature(scope=(2, 3), table=SECOND_ONLY),
    )
    return Model(
        num_vars=4,
        features=feats,
        tie_class_of=(0,) * 5,
        theta=(1.0,),
    )


def triangle(weight: float = -1.0) -> Model:
    """Frustrated triangle: agreement on every edge, negative tied weight."""
    feats = tuple(
        Feature(scope=s, table=EQUALITY) for s in ((0, 1), (0, 2), (1, 2))
    )
    return Model(num_vars=3, features=feats, tie_class_of=(0, 0, 0), theta=(weight,))


def cycle_model(n: int, weight: float = -1.0, table=EQUALITY) -> Model:
    """Agreement features around an n-cycle, one tied weight."""
    scopes = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
    feats = tuple(Feature(scope=s, table=table) for s in sorted(scopes))
    return Model(
        num_vars=n, features=feats, tie_class_of=(0,) * n, theta=(weight,)
    )


_FRUCHT_LCF = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)


def frucht() -> Model:
    """Cubic graph with no nontrivial automorphism; agreement features."""
    edges = set()
    for i in range(12):
        edges.add(tuple(sorted((i, (i + 1) % 12))))
        edges.add(tuple(sorted((i, (i + _FRUCHT_LCF[i]) % 12))))
    feats = tuple(Feature(scope=e, table=EQUALITY) for e in sorted(edges))
    return Model(
        num_vars=12,
        features=feats,
        tie_class_of=(0,) * len(feats),
        theta=(1.0,),
    )


def fully_connected_symmetric(n: int = 3, weight: float = 0.5) -> Model:
    """Agreement on every pair: the full symmetric group acts on variables."""
    scopes = [(i, j) for i in range(n) for j in range(i + 1, n)]
    feats = tuple(Feature(scope=s, table=EQUALITY) for s in scopes)
    return Model(
        num_vars=n,
        features=feats,
        tie_class_of=(0,) * len(feats),
        theta=(weight,),
    )


# parity of three arguments, indexed (a << 2) | (b << 1) | c
XOR3 = (0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0)


def triple_parity(n: int = 4, weight: float = 0.5) -> Model:
    """One parity feature per variable triple: exercises arity-3 factor
    blocks, their assignment orbits, and the factor rows of the local
    relaxation."""
    scopes = [
        (i, j, k)
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    ]
    feats = tuple(Feature(scope=s, table=XOR3) for s in scopes)
    return Model(
        num_vars=n,
        features=feats,
        tie_class_of=(0,) * len(feats),
        theta=(weight,),
    )


def unary_logistic(weight: float = 0.7) -> Model:
    """One variable, one bias feature; closed-form marginals."""
    return Model(
        num_vars=1,
        features=(Feature(scope=(0,), table=(0.0, 1.0)),),
        tie_class_of=(0,),
        theta=(weight,),
    )


def random_tied_pairwise(seed: int) -> Model:
    """Seeded symmetric pairwise model on one of four vertex-transitive-ish
    skeletons (cycle, complete, star, complete bipartite), one shared table
    and one tied weight, so the automorphism group is usually rich."""
    rng = random.Random(seed)
    kind = seed % 4
    table = rng.choice([EQUALITY, XOR, AND, OR])
    weight = rng.choice([-1.5, -1.0, -0.5, 0.5, 1.0])
    if kind == 0:
        n = rng.randint(4, 8)
        scopes = sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))
    elif kind == 1:
        n = rng.randint(4, 6)
        scopes = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif kind == 2:
        n = rng.randint(4, 8)
        scopes = [(0, j) for j in range(1, n)]
    else:
        a = rng.randint(2, 4)
        b = rng.randint(2, 4)
        n = a + b
        scopes = [(i, a + j) for i in range(a) for j in range(b)]
    feats = tuple(Feature(scope=s, table=table) for s in scopes)
    return Model(
        num_vars=n,
        features=feats,
        tie_class_of=(0,) * len(feats),
        theta=(weight,),
    )


LOVERS_SMOKERS_MLN = """\
# Gendered smokers with love triangles discouraged.
predicate Male/1
predicate Female/1
predicate Smokes/1
predicate Loves/2

100 Male(x) <=> !Female(x)
2 Male(x) ^ Smokes(x)
2 Female(x) ^ !Smokes(x)
0.5 x != y ^ Male(x) ^ Female(y) ^ Loves(x, y)
0.5 x != y ^ Loves(x, y) => (Smokes(x) <=> Smokes(y))
-100 x != y ^ y != z ^ z != x ^ Loves(x, y) ^ Loves(y, z) ^ Loves(x, z)
"""

FRIENDS_MLN = """\
predicate Friends/2
1.0 Friends(x, y) => Friends(y, x)
"""

# A single 2-ary predicate with soft evidence on one atom: the constant A
# becomes distinguished, splitting the groundings into five renaming orbits.
Q2_MLN = """\
predicate Q/2
"""

Q2_EVIDENCE = """\
soft Q(A, A) 0.5
"""
