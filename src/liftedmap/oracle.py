"""Brute-force ground truth for small models.

exact_enumerate finds the exact MAP, log-partition and overcomplete means
by enumerating all 2^n configurations, independently of the lifting and
solver code it is used to check. The `exact` command runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Model, OvercompleteLayout


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
    layout: OvercompleteLayout


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
    """Exact MAP, log-partition, and overcomplete means by full enumeration."""
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
    layout = OvercompleteLayout(model)
    mean = np.zeros(layout.size)
    for i, key in enumerate(layout.keys):
        if key[0] == "node":
            _, v, t = key
            ind = X[:, v] == t
        elif key[0] == "edge":
            _, u, v, a, b = key
            ind = (X[:, u] == a) & (X[:, v] == b)
        else:
            _, j, a = key
            scope = list(model.features[j].scope)
            ind = np.all(X[:, scope] == np.asarray(a, dtype=np.int8), axis=1)
        mean[i] = float(p @ ind)
    return ExactResult(
        map_value=map_value,
        argmax=argmax,
        mean_params=mean,
        log_partition=log_partition,
        layout=layout,
    )
