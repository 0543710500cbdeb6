"""Brute-force ground truth for small models.

exact_enumerate finds the exact MAP, log-partition and moments, in the
order `map` uses (lift.MomentLayout), by enumerating all 2^n
configurations, independently of the lifting and solver code it is used
to check. The `exact` command runs it. Its former overcomplete means are
in tests/overcomplete.py; model.OvercompleteLayout stays in the package
only because the benchmark reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Model


class OracleError(Exception):
    """The oracle cannot give a result, or a check of its own failed."""


class LimitExceededError(OracleError):
    """The instance is too large for enumeration."""


@dataclass(frozen=True, eq=False)
class ExactResult:
    map_value: float
    argmax: tuple
    mean_params: np.ndarray
    log_partition: float
    coords: tuple  # the name of each mean: node:v, edge:u:v or factor:j:a


def _config_matrix(n):
    codes = np.arange(2 ** n, dtype=np.int64)
    X = np.zeros((2 ** n, n), dtype=np.int8)
    for v in range(n):
        X[:, v] = ((codes >> (n - 1 - v)) & 1).astype(np.int8)
    return X


def _all_scores(model, X):
    scores = np.zeros(X.shape[0])
    for j, f in enumerate(model.features):
        idx = np.zeros(X.shape[0], dtype=np.int64)
        for v in f.scope:
            idx = (idx << 1) | X[:, v].astype(np.int64)
        scores += model.weight_of(j) * np.asarray(f.table)[idx]
    return scores


def exact_enumerate(model: Model, limit: int = 20) -> ExactResult:
    """Exact MAP, log-partition, and moments by full enumeration: P(x_v = 1)
    per variable, P(x_u = x_v = 1) per skeleton edge, and P(x_S = 1) per
    factor moment (j, a), S being feature j's scope variables where a is 1."""
    n = model.num_vars
    if n > limit:
        raise LimitExceededError("enumeration needs num_vars <= %d, got %d" % (limit, n))
    X = _config_matrix(n)
    scores = _all_scores(model, X)
    map_value = float(scores.max())
    argmax = tuple(
        tuple(int(b) for b in X[i]) for i in np.flatnonzero(scores >= map_value - 1e-9)
    )
    log_partition = float(map_value + np.log(np.exp(scores - map_value).sum()))
    p = np.exp(scores - log_partition)
    moments = [("node:%d" % v, [v]) for v in range(n)]
    moments += [("edge:%d:%d" % e, list(e)) for e in model.edges]
    for j, a in model.factor_moments:
        ones = [v for v, bit in zip(model.features[j].scope, a) if bit]
        moments.append(("factor:%d:%s" % (j, "".join(map(str, a))), ones))
    return ExactResult(
        map_value=map_value,
        argmax=argmax,
        mean_params=np.array([float(p @ X[:, ones].all(axis=1)) for _, ones in moments]),
        log_partition=log_partition,
        coords=tuple(name for name, _ in moments),
    )
