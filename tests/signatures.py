"""Renaming orbits from per-element signatures, kept as the test reference.

Before the renaming orbits moved to integer arrays, RenamingSymmetries keyed
every element by a signature of tuples built one element at a time: a ground
atom by its predicate and the tags of its constants, ("const", name) for a
distinguished constant and ("anon", i) for the i-th distinct other one; an
edge by the smaller joint signature of its two directions, each numbering
the constants of both atoms together; a feature by its formula and the tags
of its substitution (or, for soft evidence, its weight and its atom's
signature); a factor moment by its feature's key and its assignment read in
the order of the scope atoms' tags under the numbering of the substitution.
reference_bundle and reference_stabilized_light compute the orbits that way,
from the atoms and feature origins of a GroundingMap alone.
"""

from dataclasses import dataclass

from liftedmap.symmetry import OrbitBundle, OrbitPartition, _domain_elements


def group_by_key(elements, key) -> OrbitPartition:
    """The sorted elements grouped by key; cells come in order of their
    smallest member."""
    elements = tuple(sorted(elements))
    return OrbitPartition.from_labels(elements, map(key, elements))


@dataclass(frozen=True)
class FeatureOrigin:
    """Where one ground feature came from."""

    kind: str  # "formula" | "soft"
    formula: int = None
    subst: tuple = None
    atom: tuple = None
    weight: float = None


def feature_origins(gmap) -> tuple:
    """FeatureOrigin per feature of a GroundingMap, read off its
    origin_rows: the formula groundings come first, then one feature per
    soft evidence atom, in variable order."""
    rows = gmap.origin_rows[:len(gmap.origin_rows) - len(gmap.soft)].tolist()
    formula = [
        FeatureOrigin(kind="formula", formula=row[0],
                      subst=tuple(gmap.domain[i] for i in row[1:] if i >= 0))
        for row in rows
    ]
    soft = [
        FeatureOrigin(kind="soft", atom=atom, weight=gmap.soft[atom])
        for atom in gmap.atoms
        if atom in gmap.soft
    ]
    return tuple(formula + soft)


@dataclass(frozen=True)
class AtomSignature:
    """What a ground atom looks like up to renaming of interchangeable constants."""

    pred: str
    tags: tuple  # ("const", name) for distinguished constants, else ("anon", class id)


def tags_of(args, distinguished, anon):
    tags = []
    for c in args:
        if c in distinguished:
            tags.append(("const", c))
        else:
            if c not in anon:
                anon[c] = len(anon)
            tags.append(("anon", anon[c]))
    return tuple(tags)


def atom_signature(atom, distinguished) -> AtomSignature:
    pred, args = atom
    return AtomSignature(pred=pred, tags=tags_of(args, distinguished, {}))


def orbit_sizes_analytic(signature, domain_size: int, num_distinguished: int) -> int:
    """Count groundings matching a signature: a falling factorial per anon class."""
    classes = {t[1] for t in signature.tags if t[0] == "anon"}
    size = 1
    for i in range(len(classes)):
        size *= max(0, domain_size - num_distinguished - i)
    return size


def joint_signature(atom_a, atom_b, distinguished):
    # shared anon numbering across the two atoms, order-sensitive
    anon = {}
    return (
        (atom_a[0], tags_of(atom_a[1], distinguished, anon)),
        (atom_b[0], tags_of(atom_b[1], distinguished, anon)),
    )


def feature_key(origin: FeatureOrigin, distinguished):
    if origin.kind == "soft":
        return ("soft", origin.weight, atom_signature(origin.atom, distinguished))
    return ("formula", origin.formula, tags_of(origin.subst, distinguished, {}))


def _by_signature(domain, model, key) -> OrbitPartition:
    return group_by_key(_domain_elements(domain, model), key)


def reference_bundle(model, gmap) -> OrbitBundle:
    atoms, dist, origins = gmap.atoms, gmap.distinguished, feature_origins(gmap)
    fkey = [feature_key(origin, dist) for origin in origins]
    # an arity >= 4 feature's scope positions, ordered by their atoms' tags
    # under the anonymous numbering of the feature's substitution
    order = {}
    for j, f in enumerate(model.features):
        if f.arity >= 4:
            anon = {}
            tags_of(origins[j].subst, dist, anon)
            tags = [(atoms[v][0], tags_of(atoms[v][1], dist, anon)) for v in f.scope]
            order[j] = sorted(range(f.arity), key=tags.__getitem__)

    def fm_key(element):
        j, a = element
        return (fkey[j], tuple(a[p] for p in order[j]) if j in order else a)

    return OrbitBundle(
        vars=_by_signature("vars", model, lambda v: atom_signature(atoms[v], dist)),
        features=_by_signature("features", model, fkey.__getitem__),
        edges=reference_edge_orbits(model, gmap, dist),
        factor_moments=_by_signature("factor-moments", model, fm_key),
    )


def reference_stabilized_light(model, gmap, fixed_var) -> OrbitPartition:
    """Variable orbits once the fixed atom's constants are pinned."""
    atoms = gmap.atoms
    dist = gmap.distinguished | set(atoms[fixed_var][1])
    return _by_signature("vars", model, lambda v: atom_signature(atoms[v], dist))


def reference_edge_orbits(model, gmap, distinguished) -> OrbitPartition:
    """Edge orbits of the renamings that fix the given constants: an edge
    keyed by the smaller joint signature of its two directions."""
    atoms = gmap.atoms

    def edge_key(e):
        u, v = e
        return min(joint_signature(atoms[u], atoms[v], distinguished),
                   joint_signature(atoms[v], atoms[u], distinguished))

    return group_by_key(model.edges, edge_key)
