"""Binary factored exponential-family models with tied parameters.

A model is a set of table-valued features over binary variables. Each feature
has an ordered scope (strictly increasing variable indices) and a table of
2^K reals indexed by assignments to the scope, enumerated with the FIRST
scope variable most significant: (0,..,0), (0,..,0,1), ..., (1,..,1).
Features are grouped into tie classes that share one natural parameter.

The score of a configuration x is sum_j theta[tie(j)] * table_j[x | scope_j],
i.e. the log-density up to the normalizing constant. The model's skeleton,
`Model.edges`, is the sorted pairs of variables that share a scope.

File format (FGM, UTF-8, line oriented, '#' starts a comment):

    fgm 1
    vars <n>
    tieclasses <K>
    theta <k> <real>            # one line per tie class k in 0..K-1
    factor <tieclass> <arity> <v1> ... <vK> <2^K reals>

Serialization via :func:`format_model` is canonical: parsing a canonical
file and re-serializing reproduces it byte for byte.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np


class ModelError(ValueError):
    """A structurally invalid model (bad scope, table, tie class, ...)."""


class ModelFormatError(ModelError):
    """Malformed FGM text; message carries the 1-based line number."""


def table_index(assignment) -> int:
    """Index of a scope assignment in table order (first variable most significant)."""
    idx = 0
    for bit in assignment:
        idx = idx * 2 + bit
    return idx


def assignments(arity: int):
    """All assignments of an arity-K scope in table order."""
    return itertools.product((0, 1), repeat=arity)


@functools.lru_cache(maxsize=None)
def moment_assignments(arity: int) -> tuple:
    """The assignments with at least three ones, in table order: those
    naming an arity >= 3 feature's factor moments."""
    return tuple(a for a in assignments(arity) if sum(a) >= 3)


@dataclass(frozen=True, slots=True)
class Feature:
    """One table-valued feature: an ordered scope and 2^K table entries."""

    scope: tuple
    table: tuple

    def __post_init__(self):
        # each check is one C-level pass: a grounded MLN builds thousands of features
        scope = tuple(map(int, self.scope))
        table = tuple(map(float, self.table))
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "table", table)
        if len(scope) < 1:
            raise ModelError("feature scope is empty")
        if not all(map(operator.lt, scope, scope[1:])):
            raise ModelError("scope must be strictly increasing: %r" % (scope,))
        if scope[0] < 0:
            raise ModelError("variable index out of range: %d" % scope[0])
        expected = 2 ** len(scope)
        if len(table) != expected:
            raise ModelError(
                "table length mismatch: expected %d entries, got %d" % (expected, len(table))
            )
        if not all(map(math.isfinite, table)):
            bad = next(t for t in table if not math.isfinite(t))
            raise ModelError("table entry is not finite: %r" % bad)

    @classmethod
    def many(cls, scopes, table) -> list:
        """One feature per row of a 2-d integer array of scopes, all with
        one table. The checks of __post_init__ are made once: on the table
        for the array's arity, then over the array's rows."""
        scopes = np.asarray(scopes, dtype=np.int64)
        table = cls(scope=range(scopes.shape[1]), table=table).table
        falling = (scopes[:, 1:] <= scopes[:, :-1]).any(axis=1)
        if falling.any():
            bad = tuple(scopes[falling.argmax()].tolist())
            raise ModelError("scope must be strictly increasing: %r" % (bad,))
        if scopes.size and scopes[:, 0].min() < 0:
            raise ModelError("variable index out of range: %d" % scopes[:, 0].min())
        ints = np.arange(scopes.max(initial=0) + 1, dtype=object)  # the scopes share these
        out = []
        for scope in zip(*ints[scopes].T.tolist()):
            f = object.__new__(cls)
            object.__setattr__(f, "scope", scope)
            object.__setattr__(f, "table", table)
            out.append(f)
        return out

    @property
    def arity(self) -> int:
        return len(self.scope)

    def value(self, x) -> float:
        """Table value at the configuration x (full configuration, n bits)."""
        return self.table[table_index(x[v] for v in self.scope)]


@dataclass(frozen=True)
class Model:
    """A validated factored model over binary variables.

    Fields:
        num_vars: number n of binary variables, indexed 0..n-1.
        features: tuple of Feature, indexed 0..m-1.
        tie_class_of: tuple mapping feature index -> tie class index.
        theta: tuple mapping tie class index -> shared weight.
    """

    num_vars: int
    features: tuple
    tie_class_of: tuple
    theta: tuple

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "tie_class_of", tuple(int(k) for k in self.tie_class_of))
        object.__setattr__(self, "theta", tuple(float(w) for w in self.theta))
        if self.num_vars < 1:
            raise ModelError("num_vars must be at least 1")
        m = len(self.features)
        if m < 1:
            raise ModelError("model has no features")
        if len(self.tie_class_of) != m:
            raise ModelError(
                "tie_class_of has %d entries for %d features" % (len(self.tie_class_of), m)
            )
        num_classes = len(self.theta)
        for w in self.theta:
            if not math.isfinite(w):
                raise ModelError("theta is not finite: %r" % w)
        seen = set()
        checked = set()  # tables known to depend on every argument
        for j, f in enumerate(self.features):
            if not isinstance(f, Feature):
                raise ModelError("features[%d] is not a Feature" % j)
            if f.scope[-1] >= self.num_vars:
                raise ModelError(
                    "feature %d: variable index out of range: %d" % (j, f.scope[-1])
                )
            k = self.tie_class_of[j]
            if not 0 <= k < num_classes:
                raise ModelError("feature %d: unknown tie class %d" % (j, k))
            seen.add(k)
            if f.table not in checked:
                _check_dependence(j, f)
                checked.add(f.table)
        for k in range(num_classes):
            if k not in seen:
                raise ModelError("tie class %d is empty" % k)

    @property
    def num_features(self) -> int:
        return len(self.features)

    def weight_of(self, j: int) -> float:
        """Weight of feature j (its tie class's theta)."""
        return self.theta[self.tie_class_of[j]]

    @functools.cached_property
    def scope_arrays(self) -> dict:
        """Arity -> (the indices of the features of that arity, their scopes
        as the rows of one array), arities ascending. A Model is immutable,
        so this is built once."""
        groups = {}
        for j, f in enumerate(self.features):
            groups.setdefault(len(f.scope), []).append(j)
        out = {}
        for k, js in sorted(groups.items()):
            flat = itertools.chain.from_iterable(self.features[j].scope for j in js)
            out[k] = np.array(js), np.fromiter(flat, np.int64, len(js) * k).reshape(len(js), k)
        return out

    @functools.cached_property
    def scope_rows(self) -> tuple:
        """Each feature's arity and its row among the scopes of that arity
        in scope_arrays, as two integer arrays."""
        arity = np.zeros(self.num_features, dtype=np.int64)
        row = np.zeros(self.num_features, dtype=np.int64)
        for k, (js, _) in self.scope_arrays.items():
            arity[js] = k
            row[js] = np.arange(len(js))
        return arity, row

    @functools.cached_property
    def factor_moments(self) -> tuple:
        """The factor moments (j, a): each arity >= 3 feature j with each of
        its assignments a with at least three ones, feature by feature in
        table order. Built once, and shared by the orbits and the lift."""
        return tuple(
            (j, a)
            for j, f in enumerate(self.features)
            if len(f.scope) >= 3
            for a in moment_assignments(len(f.scope))
        )

    @functools.cached_property
    def edges(self) -> tuple:
        """The skeleton: each pair (u, v), u < v, of variables that share a
        scope, once, sorted. One array pass per arity: the scope pairs as
        codes u * n + v, deduplicated and sorted."""
        n = self.num_vars
        ints = np.arange(n, dtype=object)  # the edge tuples share these
        codes = [np.zeros(0, dtype=np.int64)]
        for k, (_, scopes) in self.scope_arrays.items():
            pairs = itertools.combinations(range(k), 2)
            codes += [scopes[:, a] * n + scopes[:, b] for a, b in pairs]
        codes = np.concatenate(codes)
        order, starts = group_codes(codes)
        codes = codes[order[starts]]
        return tuple(zip(ints[codes // n].tolist(), ints[codes % n].tolist()))


def group_codes(codes):
    """(order, starts): the positions of an integer array sorted by code,
    equal codes in position order, and where each run of one code starts
    in that order. One stable argsort, the sort a lift makes anyway:
    np.unique or the default sort would load more of numpy's sorting code,
    about 0.5 MB more resident memory in a small run."""
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    first = np.ones(len(codes), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return order, np.flatnonzero(first)


def row_codes(rows):
    """Integer codes of the rows of a 2-d integer array: equal rows get equal
    codes, and codes are ordered as the rows are lexicographically."""
    code = np.zeros(len(rows), dtype=np.int64)
    span = 1  # code < span
    for col in rows.T:
        lo, hi = (int(col.min()), int(col.max())) if len(col) else (0, 0)
        if span * (hi - lo + 1) >= 1 << 62:
            _, code = np.unique(code, return_inverse=True)
            span = len(rows)
        code = code * (hi - lo + 1) + col - lo
        span *= hi - lo + 1
    return code


def depended_positions(table, k: int) -> list:
    """Argument positions of a k-ary table that its value depends on."""
    keep = []
    for pos in range(k):
        bit = 1 << (k - 1 - pos)
        if any(table[i] != table[i ^ bit] for i in range(2 ** k) if not i & bit):
            keep.append(pos)
    return keep


def _check_dependence(j: int, f: Feature):
    missing = set(range(f.arity)) - set(depended_positions(f.table, f.arity))
    if missing:
        raise ModelError("feature %d does not depend on argument %d" % (j, min(missing)))


def score(model: Model, x) -> float:
    """Log-density of configuration x up to the normalizing constant."""
    x = tuple(x)
    if len(x) != model.num_vars:
        raise ModelError(
            "configuration length mismatch: got %d bits for %d variables"
            % (len(x), model.num_vars)
        )
    for b in x:
        if b not in (0, 1):
            raise ModelError("configuration entries must be 0 or 1, got %r" % (b,))
    total = 0.0
    for j, f in enumerate(model.features):
        total += model.weight_of(j) * f.value(x)
    return total


class OvercompleteLayout:
    """The size of one model's overcomplete coordinates and the place of
    each edge's four: 2 per variable, then 4 per sorted edge, then 2^K per
    arity >= 3 feature. The program works in moments; this class stays in
    the package because the benchmark reads it (its checks read `size`,
    its tracer wraps `__init__` and `separate_cycles_ground`). The whole
    layout is in tests/overcomplete.py.
    """

    def __init__(self, model: Model):
        self.edges = model.edges
        first = 2 * model.num_vars
        self._edge_base = {e: first + 4 * i for i, e in enumerate(self.edges)}
        wide = sum(2 ** f.arity for f in model.features if f.arity >= 3)
        self.size = first + 4 * len(self.edges) + wide

    def edge_index(self, u: int, v: int, a: int, b: int) -> int:
        return self._edge_base[(u, v)] + 2 * a + b


# ---------------------------------------------------------------------------
# FGM text format


def parse_model(text: str) -> Model:
    """Parse FGM text into a validated Model.

    Raises ModelFormatError with a 1-based line number for malformed input,
    or ModelError naming the violated invariant for semantic problems.
    """
    lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((ln, body.split()))
    cursor = 0

    def take(expect_word=None):
        nonlocal cursor
        if cursor >= len(lines):
            raise ModelFormatError("unexpected end of file")
        ln, toks = lines[cursor]
        cursor += 1
        if expect_word is not None and toks[0] != expect_word:
            raise ModelFormatError("line %d: expected '%s', got '%s'" % (ln, expect_word, toks[0]))
        return ln, toks

    def as_int(ln, tok, what):
        try:
            return int(tok)
        except ValueError:
            raise ModelFormatError("line %d: %s must be an integer, got '%s'" % (ln, what, tok))

    def as_float(ln, tok, what):
        try:
            return float(tok)
        except ValueError:
            raise ModelFormatError("line %d: %s must be a real, got '%s'" % (ln, what, tok))

    ln, toks = take("fgm")
    if toks[1:] != ["1"]:
        raise ModelFormatError("line %d: unsupported format version %r" % (ln, " ".join(toks[1:])))
    ln, toks = take("vars")
    if len(toks) != 2:
        raise ModelFormatError("line %d: expected 'vars <n>'" % ln)
    num_vars = as_int(ln, toks[1], "variable count")
    ln, toks = take("tieclasses")
    if len(toks) != 2:
        raise ModelFormatError("line %d: expected 'tieclasses <K>'" % ln)
    num_classes = as_int(ln, toks[1], "tie class count")
    theta = {}
    for _ in range(num_classes):
        ln, toks = take("theta")
        if len(toks) != 3:
            raise ModelFormatError("line %d: expected 'theta <k> <real>'" % ln)
        k = as_int(ln, toks[1], "tie class index")
        if not 0 <= k < num_classes:
            raise ModelFormatError("line %d: tie class index %d out of range" % (ln, k))
        if k in theta:
            raise ModelFormatError("line %d: duplicate theta for tie class %d" % (ln, k))
        theta[k] = as_float(ln, toks[2], "theta")

    features = []
    tie_class_of = []
    while cursor < len(lines):
        ln, toks = take("factor")
        if len(toks) < 3:
            raise ModelFormatError("line %d: expected 'factor <tieclass> <arity> ...'" % ln)
        tie = as_int(ln, toks[1], "tie class")
        arity = as_int(ln, toks[2], "arity")
        if arity < 1:
            raise ModelFormatError("line %d: arity must be at least 1" % ln)
        need = 3 + arity + 2 ** arity
        if len(toks) != need:
            raise ModelFormatError(
                "line %d: table length mismatch (expected %d reals after the scope, got %d)"
                % (ln, 2 ** arity, len(toks) - 3 - arity)
            )
        scope = [as_int(ln, t, "variable index") for t in toks[3 : 3 + arity]]
        table = [as_float(ln, t, "table entry") for t in toks[3 + arity :]]
        try:
            features.append(Feature(scope=scope, table=table))
        except ModelError as e:
            raise ModelFormatError("line %d: %s" % (ln, e)) from None
        tie_class_of.append(tie)

    return Model(
        num_vars=num_vars,
        features=tuple(features),
        tie_class_of=tuple(tie_class_of),
        theta=tuple(theta.get(k, 0.0) for k in range(num_classes)),
    )


def format_model(model: Model) -> str:
    """Canonical FGM serialization; parse(format(m)) == m and round-trips bytes."""
    out = ["fgm 1", "vars %d" % model.num_vars, "tieclasses %d" % len(model.theta)]
    for k, w in enumerate(model.theta):
        out.append("theta %d %s" % (k, repr(w)))
    tables = {}  # id of a table tuple -> its text: a formula's groundings share one tuple
    for k, f in zip(model.tie_class_of, model.features):
        table = tables.get(id(f.table))
        if table is None:
            table = tables[id(f.table)] = " ".join(map(repr, f.table))
        out.append("factor %d %d %s %s" % (k, f.arity, " ".join(map(str, f.scope)), table))
    return "\n".join(out) + "\n"
