"""Markov logic front end: parsing, grounding, and renaming orbits.

An MLN is a list of weighted first-order formulas over predicates with named
or generated constants. Grounding produces one binary variable per ground
atom (hard-evidence atoms are conditioned away) and one indicator feature
per formula grounding, with all groundings of a formula tied to one weight.

Grounding and the renaming orbits work on integer arrays, with constants
as their indices in the domain: Python runs once per formula, leaf and
substitution pattern, not once per ground element.

Renaming orbits exploit that permuting interchangeable constants leaves the
grounded model invariant: ground atoms, formula groundings, variable pairs,
and factor moments are grouped by integer keys built from the
distinguished constants (those named in formulas or evidence) and the
equality pattern of the remaining ones. A key is one row of integers: a
distinguished constant stays itself, any other becomes the first column of
the row that holds it, so two elements get equal rows exactly when a
renaming maps one onto the other. No automorphism search is involved.

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

import dataclasses
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .lift import LiftedModel, build_lifted_model
from .model import (
    Feature,
    Model,
    depended_positions,
    group_codes,
    moment_assignments,
    row_codes,
)
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
    """Precedence climbing over the binary connectives <=>, => (grouping to
    the right), v and ^, loosest first; then ! and atoms.

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
        node = self.parse_binary()
        if self.pos != len(self.toks):
            tok, col = self.toks[self.pos]
            raise MLNFormatError(
                "line %d, col %d: unexpected token %r" % (self.line, col, tok)
            )
        return node

    def parse_binary(self, level=0):
        """A formula joined by the connectives in ops[level:], by precedence climbing."""
        ops = ("<=>", "=>", "v", "^")  # loosest first
        node = self.parse_unary()
        while self.peek() in ops[level:]:
            op, _ = self.next()
            # the right operand binds tighter, and as tight for => (right grouping)
            node = BinOp(op, node, self.parse_binary(ops.index(op) + (op != "=>")))
        return node

    def parse_unary(self):
        if self.peek() == "!":
            self.next()
            return Not(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        tok, col = self.next()
        if tok == "(":
            node = self.parse_binary()
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
    arities = {}  # in declaration / first-use order
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
            if arity < 1:
                raise MLNFormatError(
                    "line %d: predicate %s needs an arity of at least 1, got %d"
                    % (line_no, name, arity)
                )
            if not name[0].isupper():
                raise MLNFormatError(
                    "line %d: predicate names must be capitalized, got %r" % (line_no, name)
                )
            if name in arities and arities[name] != arity:
                raise MLNFormatError(
                    "line %d: arity mismatch for predicate %s: declared %d, redeclared %d"
                    % (line_no, name, arities[name], arity)
                )
            arities[name] = arity
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
        parser = _FormulaParser(_tokenize(parts[1], line_no), line_no, arities)
        ast = parser.parse()
        constants |= parser.constants
        formulas.append((weight, ast))
    return MLN(
        predicates=tuple(arities.items()), formulas=tuple(formulas), constants=frozenset(constants)
    )


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


@dataclass(eq=False)
class GroundingMap:
    """A grounding's variables and features as integer rows over the domain."""

    domain: tuple
    distinguished: frozenset
    # integer rows, constants as domain indices and -1 past the end:
    atom_rows: np.ndarray  # per variable: predicate index, then its constants
    # per feature: a formula grounding's formula index, then its substitution;
    # soft evidence's len(formulas) plus predicate index, then its constants
    origin_rows: np.ndarray


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


def _variables(leaves) -> list:
    """The logical variables of a formula's leaves, sorted."""
    terms = [
        t
        for leaf in leaves
        for t in (leaf.args if isinstance(leaf, Atom) else (leaf.left, leaf.right))
    ]
    return sorted({name for kind, name in terms if kind == "var"})


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


def _first_columns(ids):
    """For each entry of a 2-d integer array, the first column of its row
    that holds the same value."""
    same = (ids[:, :, None] == ids[:, None, :]) & np.tri(ids.shape[1], dtype=bool)
    return same.argmax(axis=2)


def _rows(first, ids, width):
    """Integer rows of the given width: first, then the ids, then -1s."""
    out = np.full((len(ids), width), -1, dtype=np.int64)
    out[:, 0] = first
    out[:, 1:1 + ids.shape[1]] = ids
    return out


def _ground_atoms(mln: MLN, domain: tuple, observed: dict):
    """Every ground atom over the domain by its code, its predicate's offset
    plus its constant ids in base d: code_of(predicate, ids) for ints or
    integer arrays, the atoms' rows (predicate index, constant ids, -1s),
    and whether hard evidence observes each atom, and its truth."""
    d = len(domain)
    const_id = {c: i for i, c in enumerate(domain)}
    offset = {}
    rows = []
    width = 1 + max((arity for _, arity in mln.predicates), default=0)
    for pid, (pname, arity) in enumerate(mln.predicates):
        offset[pname] = sum(len(r) for r in rows)
        ids = np.indices((d,) * arity, dtype=np.int64).reshape(arity, d ** arity).T
        rows.append(_rows(pid, ids, width))
    rows = np.concatenate(rows) if rows else np.zeros((0, width), dtype=np.int64)

    def code_of(pred, args):
        return offset[pred] + sum(a * d ** (len(args) - 1 - p) for p, a in enumerate(args))

    is_observed = np.zeros(len(rows), dtype=bool)
    observed_true = np.zeros(len(rows), dtype=np.int64)
    for (pred, args), truth in observed.items():
        code = code_of(pred, [const_id[c] for c in args])
        is_observed[code] = True
        observed_true[code] = truth
    return code_of, rows, is_observed, observed_true


def ground_mln(mln: MLN, domain_size: int, evidence: Evidence = None):
    """Ground the MLN into a Model plus the book-keeping GroundingMap.

    One variable per non-hard-evidence ground atom; one feature per formula
    grounding that is not made constant by evidence or equality atoms; all
    groundings of a formula share a tie class. Each formula is evaluated once,
    over every value of its leaves (atoms and equality atoms). Its
    substitutions are the rows of one array of constant ids, in
    itertools.product order, and each leaf is a column: an equality atom's
    truth, or an atom's code (predicate offset plus constant ids in base d),
    which names its variable or its evidence. A grounding's pattern says per
    leaf whether it is false, true or the r-th smallest distinct unobserved
    atom; each pattern's reduced table is read from the truth table once,
    and its groundings' scopes are gathered from the array. Soft evidence
    adds a unary feature per atom, found by its code, in variable order and
    tied by weight value.
    """
    evidence = EMPTY_EVIDENCE if evidence is None else evidence
    arity_of = dict(mln.predicates)
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

    d = len(domain)
    const_id = {c: i for i, c in enumerate(domain)}
    code_of, rows, is_observed, observed_true = _ground_atoms(mln, domain, observed)
    var_of = np.where(is_observed, -1, np.cumsum(~is_observed) - 1)
    atom_rows = rows[~is_observed]

    features = []
    tie_of = []
    origin_blocks = []  # of GroundingMap.origin_rows: (first column, constant ids)
    formula_tie = {}

    for fi, (_, ast) in enumerate(mln.formulas):
        leaves = _leaves(ast)
        n = len(leaves)
        truth = [
            1.0 if _eval(ast, iter(bits)) else 0.0
            for bits in itertools.product((False, True), repeat=n)
        ]
        fvars = _variables(leaves)
        k = len(fvars)
        subst = np.indices((d,) * k, dtype=np.int64).reshape(k, d ** k).T

        def column(term):
            kind, name = term
            if kind == "var":
                return subst[:, fvars.index(name)]
            return np.full(len(subst), const_id[name])

        # per leaf: 0 false, 1 true, 2 + r the r-th smallest distinct unobserved atom
        state = np.zeros((len(subst), n), dtype=np.int64)
        var = np.full((len(subst), n), -1, dtype=np.int64)
        for i, leaf in enumerate(leaves):
            if isinstance(leaf, Compare):
                state[:, i] = (column(leaf.left) == column(leaf.right)) == (leaf.op == "=")
                continue
            code = code_of(leaf.pred, [column(t) for t in leaf.args])
            var[:, i] = var_of[code]
            state[:, i] = observed_true[code]
        # an atom's rank counts the distinct atoms (first occurrences) below it
        repeat = (var[:, :, None] == var[:, None, :]) & np.tri(n, k=-1, dtype=bool)
        distinct = (var >= 0) & ~repeat.any(axis=2)
        below = (distinct[:, None, :] & (var[:, None, :] < var[:, :, None])).sum(axis=2)
        state = np.where(var >= 0, 2 + below, state)

        by_pattern, starts = group_codes(row_codes(state))
        ends = starts.tolist()[1:] + [len(subst)]
        kept, made = [], []  # the kept substitutions and their features, pattern by pattern
        for p, row in enumerate(state[by_pattern[starts]].tolist()):
            base = sum(1 << (n - 1 - i) for i, s in enumerate(row) if s == 1)
            masks = [0] * max([s - 1 for s in row if s >= 2], default=0)
            leaf_of = [0] * len(masks)  # a leaf of each scope atom
            for i, s in enumerate(row):
                if s >= 2:
                    masks[s - 2] |= 1 << (n - 1 - i)
                    leaf_of[s - 2] = i
            keep = depended_positions(_lookup(truth, base, masks), len(masks))
            if not keep:
                continue  # constant indicator
            table = _lookup(truth, base, [masks[q] for q in keep])
            group = by_pattern[starts[p]:ends[p]]
            kept.append(group)
            made += Feature.many(var[group][:, [leaf_of[q] for q in keep]], table)
        if not made:
            continue
        kept = np.concatenate(kept)
        order = np.argsort(kept, kind="stable")
        kept = kept[order]
        formula_tie[fi] = len(formula_tie)
        features += map(made.__getitem__, order.tolist())
        tie_of += [formula_tie[fi]] * len(kept)
        origin_blocks.append((fi, subst[kept]))

    weight_tie = {
        w: len(formula_tie) + i for i, w in enumerate(sorted(set(soft.values())))
    }
    by_var = sorted(
        (var_of[code_of(pred, [const_id[c] for c in args])].item(), w)
        for (pred, args), w in soft.items()
    )
    soft_vars = [v for v, _ in by_var]
    features += [Feature(scope=(v,), table=(0.0, 1.0)) for v in soft_vars]
    tie_of += [weight_tie[w] for _, w in by_var]
    origin_blocks.append((len(mln.formulas) + atom_rows[soft_vars, 0], atom_rows[soft_vars, 1:]))

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
        num_vars=len(atom_rows),
        features=tuple(features),
        tie_class_of=tuple(tie_of),
        theta=tuple(theta),
    )
    width = 1 + max(ids.shape[1] for _, ids in origin_blocks)
    gmap = GroundingMap(
        domain=domain,
        distinguished=named,
        atom_rows=atom_rows,
        origin_rows=np.concatenate([_rows(first, ids, width) for first, ids in origin_blocks]),
    )
    return model, gmap


# ---------------------------------------------------------------------------
# renaming orbits


def _renaming_tags(ids, distinguished):
    """What a renaming of the interchangeable constants keeps of rows of
    constant ids: a distinguished constant, or a -1 past the end, stays
    itself; any other constant becomes -2 minus the first column of its row
    that holds it."""
    keep = (ids < 0) | distinguished[ids]
    return np.where(keep, ids, -2 - _first_columns(ids))


def _atom_keys(rows, distinguished):
    """The renaming key of each atom of atom_rows: its predicate, then its
    constants' tags."""
    return row_codes(np.column_stack([rows[:, 0], _renaming_tags(rows[:, 1:], distinguished)]))


class RenamingSymmetries:
    """Renaming-group orbits for a grounded MLN, computed from integer keys.

    Each element's key is a row of integers, the same for two elements
    exactly when a renaming of the interchangeable constants maps one onto
    the other, and each domain's cells are the classes of equal rows. The
    distinguished constants are the first ids, since a domain lists its
    named constants first.
    """

    def __init__(self, model: Model, gmap: GroundingMap):
        self.model = model
        self.gmap = gmap
        self._named = np.arange(len(gmap.domain)) < len(gmap.distinguished)

    def bundle(self) -> OrbitBundle:
        model, gmap = self.model, self.gmap
        dist = self._named
        rows = gmap.atom_rows

        # a feature's key: its tie class and source (formula, or soft
        # evidence on a predicate), then its substitution's or atom's tags
        source = gmap.origin_rows
        feature_codes = row_codes(np.column_stack([
            model.tie_class_of, source[:, 0], _renaming_tags(source[:, 1:], dist),
        ]))

        # a renaming maps an edge onto another iff it maps one of its
        # directions onto a direction of the other; the reverse direction's
        # key is a function of the forward one's, so the smaller of the two
        # names the edge orbit. A direction's key numbers the constants of
        # both atoms together.
        edges = model.edges
        flat = itertools.chain.from_iterable(edges)
        pairs = np.fromiter(flat, np.int64, 2 * len(edges)).reshape(-1, 2)

        def direction(a, b):
            return np.column_stack([
                rows[a, 0], rows[b, 0],
                _renaming_tags(np.hstack([rows[a, 1:], rows[b, 1:]]), dist),
            ])

        codes = row_codes(np.vstack([direction(pairs[:, 0], pairs[:, 1]),
                                      direction(pairs[:, 1], pairs[:, 0])]))
        edge_codes = np.minimum(codes[:len(pairs)], codes[len(pairs):])

        # a factor moment's key: its feature's key and its assignment read in
        # the order of the scope atoms' keys, where a constant of the
        # substitution is tagged by its first position there. Features with
        # equal keys differ by a renaming fixed on their substitution
        # constants, which maps scope atoms with equal keys onto each other.
        # An arity-3 feature has one factor moment, all ones, and needs no order.
        moments = _domain_elements("factor-moments", model)
        moment_rows = np.zeros((len(moments), 2), dtype=np.int64)
        counts = np.zeros(model.num_features, dtype=np.int64)
        for k, (js, _) in model.scope_arrays.items():
            counts[js] = len(moment_assignments(k))
        first = np.cumsum(counts) - counts  # each feature's first factor moment
        for k, (js, scopes) in model.scope_arrays.items():
            if k < 3:
                continue
            order = np.tile(np.arange(k), (len(js), 1))
            if k >= 4:
                args = rows[scopes, 1:]  # (features, k, arity)
                subst = source[js, 1:]
                found = args[..., None] == subst[:, None, None, :]
                tags = np.where(args < 0, -1, np.where(
                    found.any(-1) & ~dist[args], found.argmax(-1), subst.shape[1] + args))
                keys = row_codes(np.column_stack([
                    rows[scopes, 0].ravel(), tags.reshape(-1, tags.shape[-1]),
                ]))
                order = np.argsort(keys.reshape(len(js), k), axis=1)
            assign = np.array(moment_assignments(k), dtype=np.int64)  # (moments, k)
            read = assign[:, order].transpose(1, 0, 2)  # (features, moments, k)
            at = first[js][:, None] + np.arange(len(assign))
            moment_rows[at, 0] = feature_codes[js][:, None]
            moment_rows[at, 1] = read @ (1 << np.arange(k - 1, -1, -1))

        return OrbitBundle(
            vars=OrbitPartition.from_labels(range(model.num_vars), _atom_keys(rows, dist).tolist()),
            features=OrbitPartition.from_labels(range(model.num_features), feature_codes.tolist()),
            edges=OrbitPartition.from_labels(edges, edge_codes.tolist()),
            factor_moments=OrbitPartition.from_labels(moments, row_codes(moment_rows).tolist()),
        )

    def stabilized_light(self, fixed_var: int) -> OrbitPartition:
        """Variable orbits once the fixed atom's constants are pinned."""
        dist = self._named.copy()
        ids = self.gmap.atom_rows[fixed_var, 1:]
        dist[ids[ids >= 0]] = True
        labels = _atom_keys(self.gmap.atom_rows, dist).tolist()
        return OrbitPartition.from_labels(range(self.model.num_vars), labels)


# ---------------------------------------------------------------------------
# lifting at a representative domain size


def lift_mln(mln: MLN, domain_size: int, evidence: Evidence = None) -> LiftedModel:
    """The renaming lift of the MLN at domain size d, from a grounding at d0 <= d.

    d0 = min(d, |named| + A + max(A, K, 1)): named holds the constants
    named in formulas or evidence, A is the largest predicate arity and K
    the most logical variables in one formula. A renaming class is fixed by
    the named constants and the equality pattern of its members' anonymous
    constants: at most A in an atom, K in a feature or its moments, and A
    more where a stabilized graph pins a node orbit representative's
    constants. So every class has members at d0, and its smallest member
    uses the first fillers, the same constants at d0 and at d: the lift at
    d0 has the cells, in order, and the orbit tables, LP rows and
    stabilized graphs of the lift at d.

    theta_bar and constant add each feature class representative's
    weighted Moebius coefficients times the class size at d: the falling
    factorial (d - |named|)_a for the groundings of a formula with a
    distinct anonymous constants, 1 for soft evidence. Each unobserved
    atom over d constants finds its node cell by its renaming key among
    those of the node orbit representatives.
    """
    evidence = EMPTY_EVIDENCE if evidence is None else evidence
    domain, named = build_domain(mln, evidence, domain_size)
    named = len(named)
    arity = max((a for _, a in mln.predicates), default=0)
    width = max((len(_variables(_leaves(ast))) for _, ast in mln.formulas), default=0)
    model, gmap = ground_mln(mln, min(domain_size, named + arity + max(arity, width, 1)), evidence)
    lifted = build_lifted_model(model, RenamingSymmetries(model, gmap))

    # named constants come first in a domain, so a larger id is anonymous
    reps = list(lifted.bundle.features.reps)
    ids = gmap.origin_rows[reps, 1:]
    anonymous = (ids >= named) & (_first_columns(ids) == np.arange(ids.shape[1]))
    sizes = [math.perm(domain_size - named, a) for a in anonymous.sum(axis=1).tolist()]
    scale = np.zeros(model.num_features)
    scale[reps] = sizes
    theta, constant = lifted.index.layout.theta(scale)
    theta_bar = np.bincount(lifted.index.rho, theta, minlength=lifted.num_cells) + 0.0

    _, rows, is_observed, _ = _ground_atoms(mln, domain, dict(evidence.hard))
    cells = lifted.bundle.vars.num_cells
    rows = np.vstack([gmap.atom_rows[list(lifted.bundle.vars.reps)], rows[~is_observed]])
    keys = _atom_keys(rows, np.arange(domain_size) < named)
    order = np.argsort(keys[:cells], kind="stable")
    return dataclasses.replace(
        lifted,
        theta_bar=theta_bar,
        constant=constant,
        var_cells=order[np.searchsorted(keys[:cells], keys[cells:], sorter=order)],
        num_features=sum(sizes),
    )
