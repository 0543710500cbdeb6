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
from ground atoms and feature origins named as tuples alone; atom_names and
feature_origins read those names off a GroundingMap's integer rows.
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


def constant_names(gmap, ids) -> tuple:
    """The domain constants of a row's ids, without the -1s past its end."""
    return tuple(gmap.domain[i] for i in ids if i >= 0)


def atom_names(gmap, mln=None) -> tuple:
    """Each variable's ground atom (predicate, constant names), read off
    gmap.atom_rows: the predicate by its name in the MLN, or by its index
    without one."""
    names = [name for name, _ in mln.predicates] if mln else None
    return tuple(
        (names[first] if names else first, constant_names(gmap, ids))
        for first, *ids in gmap.atom_rows.tolist()
    )


def feature_origins(model, gmap, mln) -> tuple:
    """FeatureOrigin per feature of a grounding, read off gmap.origin_rows:
    a formula grounding's row starts with its formula index, a soft
    evidence feature's with len(mln.formulas) plus its predicate index. A
    soft feature's weight is its tie class's theta."""
    names, num_formulas = [name for name, _ in mln.predicates], len(mln.formulas)
    origins = []
    for j, (first, *ids) in enumerate(gmap.origin_rows.tolist()):
        consts = constant_names(gmap, ids)
        if first < num_formulas:
            origins.append(FeatureOrigin(kind="formula", formula=first, subst=consts))
        else:
            origins.append(FeatureOrigin(kind="soft", atom=(names[first - num_formulas], consts),
                                         weight=model.theta[model.tie_class_of[j]]))
    return tuple(origins)


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
    """The orbits of a reference grounding, whose gmap names its atoms and
    feature origins."""
    atoms, dist, origins = gmap.atoms, gmap.distinguished, gmap.origins
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
        edges=reference_edge_orbits(model, atoms, dist),
        factor_moments=_by_signature("factor-moments", model, fm_key),
    )


def reference_stabilized_light(model, atoms, distinguished, fixed_var) -> OrbitPartition:
    """Variable orbits once the fixed atom's constants are pinned."""
    dist = distinguished | set(atoms[fixed_var][1])
    return _by_signature("vars", model, lambda v: atom_signature(atoms[v], dist))


def reference_edge_orbits(model, atoms, distinguished) -> OrbitPartition:
    """Edge orbits of the renamings that fix the given constants: an edge
    keyed by the smaller joint signature of its two directions."""

    def edge_key(e):
        u, v = e
        return min(joint_signature(atoms[u], atoms[v], distinguished),
                   joint_signature(atoms[v], atoms[u], distinguished))

    return group_by_key(model.edges, edge_key)
