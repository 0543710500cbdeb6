"""Shared helpers for the test suite."""

from pathlib import Path

import pytest

from fixtures import EQUALITY
from liftedmap.model import Feature, Model

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


@pytest.fixture(scope="session")
def models_dir() -> Path:
    return MODELS_DIR


def refines(fine, coarse) -> bool:
    """True when every cell of `fine` lies inside a single cell of `coarse`."""
    lookup = {}
    for i, cell in enumerate(coarse):
        for x in cell:
            lookup[x] = i
    return all(len({lookup[x] for x in cell}) == 1 for cell in fine)


def sorted_cells(partition):
    return tuple(sorted(tuple(sorted(c)) for c in partition))


def circulant_7_1_3():
    # the found generators fixing a vertex generate only the identity here,
    # while the vertex's full stabilizer has order 2
    scopes = sorted({tuple(sorted((i, (i + j) % 7))) for i in range(7) for j in (1, 3)})
    feats = tuple(Feature(scope=s, table=EQUALITY) for s in scopes)
    return Model(num_vars=7, features=feats, tie_class_of=(0,) * len(feats), theta=(-1.0,))
