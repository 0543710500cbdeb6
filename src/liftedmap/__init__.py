"""Symmetry detection and lifted MAP inference for binary factored models.

The package is organized around a small pipeline:

* :mod:`liftedmap.model` -- the factored-model data structures and file format.
* :mod:`liftedmap.symmetry` -- colored factor graph construction, color
  refinement, automorphism search, and orbit partitions.
* :mod:`liftedmap.mln` -- a Markov logic front end: parsing, grounding, and
  renaming-group orbits computed without any graph search.
* :mod:`liftedmap.lift` -- collapsing a ground model onto orbit cells.
* :mod:`liftedmap.solve` -- LP-based MAP inference on the local polytope with
  optional cycle-inequality tightening; a ground model is its trivial lift.
* :mod:`liftedmap.oracle` -- exact MAP, log-partition and means by brute-force
  enumeration of small models, for the ``exact`` command and the tests.
"""

from .model import Feature, Model, parse_model, format_model, score
from .symmetry import (
    PermutationPair,
    GeneratorSet,
    OrbitPartition,
    OrbitBundle,
    build_colored_factor_graph,
    search_automorphisms,
    verify_generator,
    orbits_of,
    compute_orbit_bundle,
    GeneratorSymmetries,
    TrivialSymmetries,
)
from .mln import parse_mln, parse_evidence, ground_mln, lift_mln, RenamingSymmetries
from .lift import LiftedModel, build_lifted_model
from .solve import MapOptions, MapResult, cutting_plane_map, build_local_lp, simplex_solve

__version__ = "0.1.0"

__all__ = [
    "Feature",
    "Model",
    "parse_model",
    "format_model",
    "score",
    "PermutationPair",
    "GeneratorSet",
    "OrbitPartition",
    "OrbitBundle",
    "build_colored_factor_graph",
    "search_automorphisms",
    "verify_generator",
    "orbits_of",
    "compute_orbit_bundle",
    "GeneratorSymmetries",
    "TrivialSymmetries",
    "parse_mln",
    "parse_evidence",
    "ground_mln",
    "lift_mln",
    "RenamingSymmetries",
    "LiftedModel",
    "build_lifted_model",
    "MapOptions",
    "MapResult",
    "cutting_plane_map",
    "build_local_lp",
    "simplex_solve",
    "__version__",
]
