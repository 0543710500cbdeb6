"""Markov logic front end: parsing, grounding, and renaming orbits.

An MLN is a list of weighted first-order formulas over predicates with named
or generated constants. Grounding produces one binary variable per ground
atom (hard-evidence atoms are conditioned away) and one indicator feature
per formula grounding, with all groundings of a formula tied to one weight.

Renaming orbits exploit that permuting interchangeable constants leaves the
grounded model invariant: ground atoms, formula groundings, variable pairs,
and factor moments are grouped by signatures built from the
distinguished constants (those named in formulas or evidence) and the
equality pattern of the remaining ones. No automorphism search is involved.

File formats:
  MLN: optional `predicate Name/arity` headers, then `<weight> <formula>`
  lines; '#' starts a comment. Operators: ! ^ v => <=> and term
  (in)equalities `x = y`, `x != y`; parentheses group. Predicate and
  constant names are capitalized, logical variables are lowercase.
  An equality atom is true when its two terms name the same constant; it
  is evaluated like any other atom, so `!(x = y) ^ R(x, y)` reads as
  `x != y ^ R(x, y)`. A grounding that the equality atoms or the evidence
  make constant is dropped.

  Evidence: one entry per line: `Atom`, `!Atom`, or `soft Atom <weight>`
  with ground (all-constant) atoms.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .model import Feature, Model, depended_positions
from .symmetry import OrbitBundle, OrbitPartition, _domain_elements


class MLNError(ValueError):
    """Invalid MLN input: arity clash, bad evidence, domain too small, ..."""


class MLNFormatError(MLNError):
    """Malformed MLN or evidence text; message carries line (and column)."""


# ---------------------------------------------------------------------------
# formula AST


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple  # terms: ("var", name) or ("const", name)


@dataclass(frozen=True)
class Not:
    sub: object


@dataclass(frozen=True)
class BinOp:
    op: str  # "^", "v", "=>", "<=>"
    left: object
    right: object


@dataclass(frozen=True)
class Compare:
    op: str  # "=", "!="
    left: tuple
    right: tuple


@dataclass(frozen=True)
class MLN:
    predicates: tuple  # (name, arity) in declaration / first-use order
    formulas: tuple  # (weight, ast)
    constants: frozenset  # constants named inside formulas

    @property
    def predicate_arity(self) -> dict:
        return dict(self.predicates)


@dataclass(frozen=True)
class Evidence:
    hard: tuple  # ((atom, truth), ...)
    soft: tuple  # ((atom, weight), ...)


EMPTY_EVIDENCE = Evidence(hard=(), soft=())


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"(<=>|=>|!=|=|\(|\)|,|\^|!|[A-Za-z_][A-Za-z0-9_]*)")


def _tokenize(text, line_no):
    out = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise MLNFormatError(
                "line %d, col %d: unexpected character %r" % (line_no, pos + 1, text[pos])
            )
        out.append((m.group(0), pos + 1))
        pos = m.end()
    return out


def _is_name(tok):
    return bool(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok))


def _term_of(tok, line_no, col):
    if not tok[0].isalpha():
        raise MLNFormatError("line %d, col %d: bad term %r" % (line_no, col, tok))
    return ("const", tok) if tok[0].isupper() else ("var", tok)


class _FormulaParser:
    """Recursive descent: <=> then => (right) then v then ^ then ! then atoms.

    The token `v` is the OR connective in operator position and an ordinary
    lowercase term elsewhere, which keeps formulas like `Loves(v, y)` or
    `v != y` unambiguous.
    """

    def __init__(self, tokens, line_no, arities):
        self.toks = tokens
        self.line = line_no
        self.pos = 0
        self.arities = arities  # shared registry: name -> arity
        self.constants = set()

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self):
        if self.pos >= len(self.toks):
            raise MLNFormatError("line %d: unexpected end of formula" % self.line)
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, want):
        tok, col = self.next()
        if tok != want:
            raise MLNFormatError(
                "line %d, col %d: expected %r, got %r" % (self.line, col, want, tok)
            )

    def parse(self):
        node = self.parse_iff()
        if self.pos != len(self.toks):
            tok, col = self.toks[self.pos]
            raise MLNFormatError(
                "line %d, col %d: unexpected token %r" % (self.line, col, tok)
            )
        return node

    def parse_iff(self):
        node = self.parse_implies()
        while self.peek() == "<=>":
            self.next()
            node = BinOp("<=>", node, self.parse_implies())
        return node

    def parse_implies(self):
        node = self.parse_or()
        if self.peek() == "=>":
            self.next()
            return BinOp("=>", node, self.parse_implies())
        return node

    def parse_or(self):
        node = self.parse_and()
        while self.peek() == "v":
            self.next()
            node = BinOp("v", node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_unary()
        while self.peek() == "^":
            self.next()
            node = BinOp("^", node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek() == "!":
            self.next()
            return Not(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        tok, col = self.next()
        if tok == "(":
            node = self.parse_iff()
            self.expect(")")
            return node
        if not _is_name(tok):
            raise MLNFormatError(
                "line %d, col %d: expected an atom, got %r" % (self.line, col, tok)
            )
        if self.peek() in ("=", "!="):
            op, _ = self.next()
            rhs, rcol = self.next()
            return Compare(op, _term_of(tok, self.line, col), _term_of(rhs, self.line, rcol))
        if tok[0].islower() or tok[0] == "_":
            raise MLNFormatError(
                "line %d, col %d: predicate names must be capitalized, got %r"
                % (self.line, col, tok)
            )
        self.expect("(")
        args = []
        while True:
            t, tcol = self.next()
            args.append(_term_of(t, self.line, tcol))
            nxt, _ = self.next()
            if nxt == ")":
                break
            if nxt != ",":
                raise MLNFormatError(
                    "line %d: expected ',' or ')' in argument list of %s" % (self.line, tok)
                )
        arity = len(args)
        if tok in self.arities and self.arities[tok] != arity:
            raise MLNFormatError(
                "line %d: arity mismatch for predicate %s: declared %d, used with %d"
                % (self.line, tok, self.arities[tok], arity)
            )
        self.arities.setdefault(tok, arity)
        for kind, name in args:
            if kind == "const":
                self.constants.add(name)
        return Atom(tok, tuple(args))


def parse_mln(text: str) -> MLN:
    """Parse MLN text; checks arities and capitalization conventions."""
    arities = {}
    order = []
    formulas = []
    constants = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if body.split()[0] == "predicate":
            m = re.fullmatch(r"predicate\s+([A-Za-z_][A-Za-z0-9_]*)\s*/\s*(\d+)", body)
            if not m:
                raise MLNFormatError("line %d: expected 'predicate Name/arity'" % line_no)
            name, arity = m.group(1), int(m.group(2))
            if not name[0].isupper():
                raise MLNFormatError(
                    "line %d: predicate names must be capitalized, got %r" % (line_no, name)
                )
            if name in arities and arities[name] != arity:
                raise MLNFormatError(
                    "line %d: arity mismatch for predicate %s: declared %d, redeclared %d"
                    % (line_no, name, arities[name], arity)
                )
            if name not in arities:
                arities[name] = arity
                order.append(name)
            continue
        parts = body.split(None, 1)
        if len(parts) < 2:
            raise MLNFormatError("line %d: expected '<weight> <formula>'" % line_no)
        try:
            weight = float(parts[0])
        except ValueError:
            raise MLNFormatError(
                "line %d: weight must be a real, got %r" % (line_no, parts[0])
            ) from None
        before = set(arities)
        parser = _FormulaParser(_tokenize(parts[1], line_no), line_no, arities)
        ast = parser.parse()
        for name in arities:
            if name not in before and name not in order:
                order.append(name)
        constants |= parser.constants
        formulas.append((weight, ast))
    # keep first-use order even for predicates introduced mid-formula
    predicates = tuple((name, arities[name]) for name in order)
    return MLN(predicates=predicates, formulas=tuple(formulas), constants=frozenset(constants))


def _parse_ground_atom(text, line_no):
    m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(([^)]*)\)", text.strip())
    if not m:
        raise MLNFormatError("line %d: expected a ground atom, got %r" % (line_no, text.strip()))
    name = m.group(1)
    args = [a.strip() for a in m.group(2).split(",")]
    if not name[0].isupper():
        raise MLNFormatError("line %d: predicate names must be capitalized" % line_no)
    for a in args:
        if not a or not a[0].isupper():
            raise MLNFormatError(
                "line %d: evidence atoms must be ground (constant arguments), got %r"
                % (line_no, a)
            )
    return (name, tuple(args))


def parse_evidence(text: str) -> Evidence:
    """Parse evidence lines: `Atom`, `!Atom`, or `soft Atom <weight>`."""
    hard = {}
    soft = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if body.split()[0] == "soft":
            m = re.fullmatch(r"soft\s+(.*\))\s+(\S+)", body)
            if not m:
                raise MLNFormatError("line %d: expected 'soft Atom <weight>'" % line_no)
            atom = _parse_ground_atom(m.group(1), line_no)
            try:
                weight = float(m.group(2))
            except ValueError:
                raise MLNFormatError(
                    "line %d: weight must be a real, got %r" % (line_no, m.group(2))
                ) from None
            if atom in soft:
                raise MLNFormatError("line %d: duplicate soft evidence for %r" % (line_no, atom))
            soft[atom] = weight
            continue
        truth = True
        if body.startswith("!"):
            truth = False
            body = body[1:]
        atom = _parse_ground_atom(body, line_no)
        if atom in hard and hard[atom] != truth:
            raise MLNFormatError("line %d: contradictory evidence for %r" % (line_no, atom))
        hard[atom] = truth
    return Evidence(hard=tuple(sorted(hard.items())), soft=tuple(sorted(soft.items())))


# ---------------------------------------------------------------------------
# grounding


@dataclass(frozen=True)
class FeatureOrigin:
    """Where one ground feature came from."""

    kind: str  # "formula" | "soft"
    formula: int = None
    subst: tuple = None
    atom: tuple = None
    weight: float = None


@dataclass(eq=False)
class GroundingMap:
    domain: tuple
    distinguished: frozenset
    atoms: tuple  # ground atom per variable index
    atom_index: dict
    observed: dict  # ground atom -> bool (hard evidence)
    origins: tuple  # FeatureOrigin per feature


def _term_value(term, subst):
    kind, name = term
    return subst[name] if kind == "var" else name


def _leaves(node):
    """Atom occurrences and equality atoms in syntax order, duplicates kept."""
    if isinstance(node, (Atom, Compare)):
        return [node]
    if isinstance(node, Not):
        return _leaves(node.sub)
    return _leaves(node.left) + _leaves(node.right)


def _eval(node, bits):
    """Truth value of the formula when its leaves, in syntax order, read `bits`."""
    if isinstance(node, (Atom, Compare)):
        return next(bits)
    if isinstance(node, Not):
        return not _eval(node.sub, bits)
    a = _eval(node.left, bits)
    b = _eval(node.right, bits)
    if node.op == "^":
        return a and b
    if node.op == "v":
        return a or b
    if node.op == "=>":
        return (not a) or b
    return a == b


def _lookup(truth, base, masks):
    """Truth-table entries at `base` plus each subset of `masks`, in table order.

    The first mask is the most significant argument of the returned table.
    """
    index = [base]
    for m in masks:
        index = [i | b for i in index for b in (0, m)]
    return tuple(truth[i] for i in index)


def build_domain(mln: MLN, evidence: Evidence, domain_size: int):
    """Named constants (sorted) plus generated fillers up to domain_size total."""
    if domain_size < 1:
        raise MLNError("domain_size must be at least 1")
    named = set(mln.constants)
    for atom, _ in list(evidence.hard) + list(evidence.soft):
        named |= set(atom[1])
    if domain_size < len(named):
        raise MLNError(
            "domain too small: %d named constants but domain_size %d"
            % (len(named), domain_size)
        )
    domain = sorted(named)
    i = 1
    while len(domain) < domain_size:
        filler = "C%d" % i
        if filler not in named:
            domain.append(filler)
        i += 1
    return tuple(domain), frozenset(named)


def ground_mln(mln: MLN, domain_size: int, evidence: Evidence = None):
    """Ground the MLN into a Model plus the book-keeping GroundingMap.

    One variable per non-hard-evidence ground atom; one feature per formula
    grounding that is not made constant by evidence or equality atoms; all
    groundings of a formula share a tie class. Each formula is evaluated once,
    over every value of its leaves (atoms and equality atoms), and a
    grounding's table is read from that truth table; groundings whose leaves
    fall on the same evidence values and atom pattern share one reduced
    table. Soft evidence adds a unary feature per atom, tied by weight value.
    """
    evidence = EMPTY_EVIDENCE if evidence is None else evidence
    arity_of = mln.predicate_arity
    for atom, _ in list(evidence.hard) + list(evidence.soft):
        if atom[0] not in arity_of:
            raise MLNError("evidence atom with unknown predicate %r" % (atom[0],))
        if len(atom[1]) != arity_of[atom[0]]:
            raise MLNError(
                "arity mismatch for predicate %s in evidence: declared %d, used with %d"
                % (atom[0], arity_of[atom[0]], len(atom[1]))
            )
    domain, named = build_domain(mln, evidence, domain_size)
    observed = dict(evidence.hard)
    soft = dict(evidence.soft)
    for atom in soft:
        if atom in observed:
            raise MLNError("soft evidence on an observed atom %r" % (atom,))

    atoms = []
    for pname, arity in mln.predicates:
        for args in itertools.product(domain, repeat=arity):
            atom = (pname, args)
            if atom not in observed:
                atoms.append(atom)
    atom_index = {a: i for i, a in enumerate(atoms)}

    features = []
    tie_of = []
    origins = []
    formula_tie = {}

    for fi, (_, ast) in enumerate(mln.formulas):
        leaves = _leaves(ast)
        n = len(leaves)
        truth = [
            1.0 if _eval(ast, iter(bits)) else 0.0
            for bits in itertools.product((False, True), repeat=n)
        ]
        terms = [
            t
            for leaf in leaves
            for t in (leaf.args if isinstance(leaf, Atom) else (leaf.left, leaf.right))
        ]
        fvars = sorted({name for kind, name in terms if kind == "var"})
        reduced = {}  # (base, masks) -> (kept scope positions, table)
        for subst_tuple in itertools.product(domain, repeat=len(fvars)):
            subst = dict(zip(fvars, subst_tuple))
            base = 0  # the leaves the substitution or the evidence makes true
            mask = {}  # unobserved ground atom -> its leaves
            for i, leaf in enumerate(leaves):
                bit = 1 << (n - 1 - i)
                if isinstance(leaf, Compare):
                    same = _term_value(leaf.left, subst) == _term_value(leaf.right, subst)
                    if same == (leaf.op == "="):
                        base |= bit
                    continue
                atom = (leaf.pred, tuple(_term_value(t, subst) for t in leaf.args))
                if atom not in observed:
                    mask[atom] = mask.get(atom, 0) | bit
                elif observed[atom]:
                    base |= bit
            scope = sorted(atom_index[a] for a in mask)
            masks = tuple(mask[atoms[v]] for v in scope)
            if (base, masks) not in reduced:
                keep = depended_positions(_lookup(truth, base, masks), len(scope))
                reduced[(base, masks)] = keep, _lookup(truth, base, [masks[p] for p in keep])
            keep, table = reduced[(base, masks)]
            if not keep:
                continue  # constant indicator
            scope = [scope[p] for p in keep]
            if fi not in formula_tie:
                formula_tie[fi] = len(formula_tie)
            features.append(Feature(scope=tuple(scope), table=table))
            tie_of.append(formula_tie[fi])
            origins.append(FeatureOrigin(kind="formula", formula=fi, subst=subst_tuple))

    weight_tie = {
        w: len(formula_tie) + i for i, w in enumerate(sorted(set(soft.values())))
    }
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
        raise MLNError(
            "no ground features survive: every formula grounding is constant"
        )
    model = Model(
        num_vars=len(atoms),
        features=tuple(features),
        tie_class_of=tuple(tie_of),
        theta=tuple(theta),
    )
    gmap = GroundingMap(
        domain=domain,
        distinguished=named,
        atoms=tuple(atoms),
        atom_index=atom_index,
        observed=observed,
        origins=tuple(origins),
    )
    return model, gmap


# ---------------------------------------------------------------------------
# renaming orbits


@dataclass(frozen=True)
class AtomSignature:
    """What a ground atom looks like up to renaming of interchangeable constants."""

    pred: str
    tags: tuple  # ("const", name) for distinguished constants, else ("anon", class id)


def _tags_of(args, distinguished, anon):
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
    return AtomSignature(pred=pred, tags=_tags_of(args, distinguished, {}))


def orbit_sizes_analytic(signature, domain_size: int, num_distinguished: int) -> int:
    """Count groundings matching a signature: a falling factorial per anon class."""
    tags = signature.tags if isinstance(signature, AtomSignature) else tuple(signature)
    classes = {t[1] for t in tags if t[0] == "anon"}
    size = 1
    for i in range(len(classes)):
        size *= max(0, domain_size - num_distinguished - i)
    return size


def _joint_signature(atom_a, atom_b, distinguished):
    # shared anon numbering across the two atoms, order-sensitive
    anon = {}
    return (
        (atom_a[0], _tags_of(atom_a[1], distinguished, anon)),
        (atom_b[0], _tags_of(atom_b[1], distinguished, anon)),
    )


def _feature_key(origin: FeatureOrigin, distinguished):
    if origin.kind == "soft":
        return ("soft", origin.weight, atom_signature(origin.atom, distinguished))
    return ("formula", origin.formula, _tags_of(origin.subst, distinguished, {}))


def _by_signature(domain, model: Model, key) -> OrbitPartition:
    return OrbitPartition.group(_domain_elements(domain, model), key)


class RenamingSymmetries:
    """Renaming-group orbits for a grounded MLN, computed from signatures."""

    def __init__(self, model: Model, gmap: GroundingMap):
        self.model = model
        self.gmap = gmap
        self.distinguished = gmap.distinguished

    def bundle(self) -> OrbitBundle:
        model, gmap, dist = self.model, self.gmap, self.distinguished
        atoms = gmap.atoms

        fkey = [_feature_key(origin, dist) for origin in gmap.origins]
        # An arity >= 4 feature's scope positions, ordered by their atoms' tags
        # under the anonymous numbering of the feature's substitution. Features
        # with equal keys differ by a renaming fixed on their substitution
        # constants, which maps scope atoms with equal tags onto each other.
        # An arity-3 feature has one factor moment, all ones, and needs none.
        order = {}
        for j, f in enumerate(model.features):
            if f.arity >= 4:
                anon = {}
                _tags_of(gmap.origins[j].subst, dist, anon)
                tags = [(atoms[v][0], _tags_of(atoms[v][1], dist, anon)) for v in f.scope]
                order[j] = sorted(range(f.arity), key=tags.__getitem__)

        def edge_key(e):
            # a renaming maps an edge onto another iff it maps one of its
            # directions onto a direction of the other; the reverse
            # direction's signature is a function of the forward one's, so
            # the smaller of the two names the edge orbit
            u, v = e
            return min(_joint_signature(atoms[u], atoms[v], dist),
                       _joint_signature(atoms[v], atoms[u], dist))

        def fm_key(element):
            j, a = element
            return (fkey[j], tuple(a[p] for p in order[j]) if j in order else a)

        return OrbitBundle(
            vars=_by_signature("vars", model, lambda v: atom_signature(atoms[v], dist)),
            features=_by_signature("features", model, fkey.__getitem__),
            edges=_by_signature("edges", model, edge_key),
            factor_moments=_by_signature("factor-moments", model, fm_key),
        )

    def stabilized_light(self, fixed_var: int) -> OrbitPartition:
        """Variable orbits once the fixed atom's constants are pinned."""
        atoms = self.gmap.atoms
        dist = self.distinguished | set(atoms[fixed_var][1])
        return _by_signature("vars", self.model, lambda v: atom_signature(atoms[v], dist))
