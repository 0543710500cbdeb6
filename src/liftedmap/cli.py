"""Command-line front door.

Subcommands:
  orbits  detect symmetry and report orbit partitions as JSON
  map     LP-relaxation MAP inference, ground or lifted, LOCAL or CYCLE
  exact   brute-force enumeration oracle (small models only)
  ground  ground an MLN and dump the factored model as FGM text

Exit codes: 0 success (and, for map, converged); 2 input, format, or usage
error; 3 solver, lifting, or oracle failure; 4 run finished at an iteration
or cut cap without convergence. JSON output is deterministic for fixed
inputs apart from the timing fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, fields

from .lift import LiftError, build_lifted_model
from .mln import (
    MLNError,
    RenamingSymmetries,
    ground_mln,
    lift_mln,
    parse_evidence,
    parse_mln,
)
from .model import ModelError, format_model, parse_model
from .oracle import OracleError, exact_enumerate
from .solve import MapOptions, SolveError, cutting_plane_map
from .symmetry import GeneratorSymmetries, OrbitBundle, TrivialSymmetries

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVE = 3
EXIT_CAP = 4


class UsageError(Exception):
    """Bad flag combination or unusable input."""


@dataclass
class _Inputs:
    path: str
    kind: str  # "fgm" | "mln"
    model: object  # None for an MLN that is not grounded at its domain size
    gmap: object = None
    domain_size: int = None
    mln: object = None
    evidence: object = None


def _load(args, ground=True) -> _Inputs:
    """Read the input file, and ground an MLN at --domain-size unless
    ground is False (model None): the renaming lift of `map --space
    lifted`, mln.lift_mln, grounds it at a representative size only."""
    path = args.input
    if path.endswith(".fgm"):
        kind = "fgm"
    elif path.endswith(".mln"):
        kind = "mln"
    else:
        raise UsageError("cannot tell the input type; use a .fgm or .mln file")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if kind == "fgm":
        if args.domain_size is not None:
            raise UsageError("--domain-size applies to MLN inputs only")
        if args.evidence:
            raise UsageError("--evidence applies to MLN inputs only")
        return _Inputs(path=path, kind="fgm", model=parse_model(text))
    if args.domain_size is None:
        raise UsageError("MLN inputs need --domain-size")
    mln = parse_mln(text)
    evidence = None
    if args.evidence:
        with open(args.evidence, "r", encoding="utf-8") as fh:
            evidence = parse_evidence(fh.read())
    model, gmap = ground_mln(mln, args.domain_size, evidence) if ground else (None, None)
    return _Inputs(
        path=path,
        kind="mln",
        model=model,
        gmap=gmap,
        domain_size=args.domain_size,
        mln=mln,
        evidence=evidence,
    )


def _method(args) -> str:
    """--method with auto resolved by extension: search for .fgm, else renaming."""
    if args.method == "auto":
        return "search" if args.input.endswith(".fgm") else "renaming"
    return args.method


def _make_symmetries(inputs: _Inputs, method: str):
    if method == "renaming":
        if inputs.kind != "mln":
            raise UsageError("renaming symmetries need an MLN input")
        return RenamingSymmetries(inputs.model, inputs.gmap)
    if method == "search":
        return GeneratorSymmetries(inputs.model)
    if method == "none":
        return TrivialSymmetries(inputs.model)
    raise UsageError("unknown symmetry method %r" % method)


def _elem_json(elem):
    if isinstance(elem, int):
        return elem
    if isinstance(elem, tuple) and len(elem) == 2 and isinstance(elem[1], tuple):
        return [elem[0], list(elem[1])]  # factor assignment (feature, values)
    return list(elem)


def _partition_json(p):
    return {
        "count": p.num_cells,
        "cells": [[_elem_json(e) for e in cell] for cell in p.cells],
    }


def _per_domain(fn, *bundles):
    return {
        f.name: fn(*(getattr(b, f.name) for b in bundles))
        for f in fields(OrbitBundle)
    }


def _refines(fine, coarse) -> bool:
    # every cell of the fine partition must sit inside one coarse cell: no
    # fine cell meets two, so each gives one (fine, coarse) label pair
    return len(set(zip(fine.cell.tolist(), coarse.cell.tolist()))) == fine.num_cells


def _write_output(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict):
    _write_output(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _base_payload(inputs: _Inputs, counted) -> dict:
    # counted, a Model or LiftedModel, has the ground model's size
    return {
        "input": inputs.path,
        "type": inputs.kind,
        "domain_size": inputs.domain_size,
        "model": {
            "variables": counted.num_vars,
            "features": counted.num_features,
        },
    }


def cmd_orbits(args) -> int:
    inputs = _load(args)
    if args.method == "both" and inputs.kind != "mln":
        raise UsageError("--method both compares renaming to search on MLN inputs")
    methods = ["search", "renaming"] if args.method == "both" else [_method(args)]
    payload = _base_payload(inputs, inputs.model)
    payload["methods"] = {}
    bundles = {}
    for name in methods:
        sym = _make_symmetries(inputs, name)
        bundle = sym.bundle()
        bundles[name] = bundle
        gens = getattr(sym, "gens", None)  # None for renaming symmetries
        counts = ("group_order", "tree_nodes", "leaves", "refine_rounds", "trace_pruned")
        payload["methods"][name] = {
            **{k: getattr(gens, k, None) for k in counts},
            "num_generators": None if gens is None else len(gens.generators),
            "orbits": _per_domain(_partition_json, bundle),
        }
    if len(methods) == 2:
        checks = _per_domain(_refines, bundles["renaming"], bundles["search"])
        checks["all"] = all(checks.values())
        payload["renaming_refines_search"] = checks
    _emit_json(args, payload)
    return EXIT_OK


def cmd_map(args) -> int:
    if args.max_cuts < 0:
        raise UsageError("--max-cuts must be at least 0")
    if args.space == "ground" and args.method not in ("auto", "none"):
        raise UsageError(
            "--method %s needs --space lifted; ground space is the trivial group" % args.method
        )
    method = _method(args)
    inputs = _load(args, ground=not (args.space == "lifted" and method == "renaming"))
    opts = MapOptions(polytope=args.polytope, max_cuts=args.max_cuts)
    if args.space == "lifted":
        if inputs.model is None:
            lifted = lift_mln(inputs.mln, inputs.domain_size, inputs.evidence)
        else:
            lifted = build_lifted_model(inputs.model, _make_symmetries(inputs, method))
        payload = _base_payload(inputs, lifted)
        payload["method"] = method
        payload["orbit_counts"] = _per_domain(lambda p: p.num_cells, lifted.bundle)
        result = cutting_plane_map(lifted, opts)
    else:
        payload = _base_payload(inputs, inputs.model)
        payload["method"] = None
        result = cutting_plane_map(inputs.model, opts)
    payload["polytope"] = args.polytope
    payload.update(result.as_dict())
    if args.csv:
        lines = ["iteration,bound,cuts"]
        for i, bound in enumerate(result.bounds):
            lines.append("%d,%.12g,%d" % (i, bound, i))
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    _emit_json(args, payload)
    return EXIT_OK if result.status == "optimal" else EXIT_CAP


def cmd_exact(args) -> int:
    if args.limit < 0:
        raise UsageError("--limit must be at least 0")
    inputs = _load(args)
    res = exact_enumerate(inputs.model, limit=args.limit)
    payload = _base_payload(inputs, inputs.model)
    payload.update(
        {
            "map_value": res.map_value,
            "argmax": list(res.argmax),
            "log_partition": res.log_partition,
            "coords": list(res.coords),
            "mean_params": [float(v) for v in res.mean_params],
        }
    )
    _emit_json(args, payload)
    return EXIT_OK


def cmd_ground(args) -> int:
    inputs = _load(args)
    if inputs.kind != "mln":
        raise UsageError("ground expects an MLN input")
    _write_output(args, format_model(inputs.model))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="liftedmap",
        description="Symmetry detection and lifted MAP inference for discrete factored models.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_io(sp):
        sp.add_argument("input", help="model file (.fgm) or MLN file (.mln)")
        sp.add_argument("--domain-size", type=int, default=None, help="MLN domain size (total constants)")
        sp.add_argument("--evidence", default=None, help="evidence file for MLN inputs")
        sp.add_argument("--out", default=None, help="write output here instead of stdout")

    sp = sub.add_parser("orbits", help="report orbit partitions")
    add_io(sp)
    sp.add_argument(
        "--method",
        choices=["auto", "search", "renaming", "none", "both"],
        default="auto",
        help="symmetry method; auto picks search for .fgm, renaming for .mln",
    )
    sp.set_defaults(func=cmd_orbits)

    sp = sub.add_parser("map", help="MAP inference by LP relaxation")
    add_io(sp)
    sp.add_argument("--space", choices=["ground", "lifted"], default="ground")
    sp.add_argument("--polytope", choices=["local", "cycle"], default="local")
    sp.add_argument(
        "--method",
        choices=["auto", "search", "renaming", "none"],
        default="auto",
        help="symmetry method for the lifted space (ground takes auto or none)",
    )
    sp.add_argument("--max-cuts", type=int, default=200)
    sp.add_argument("--csv", default=None, help="write the bound-per-iteration curve here")
    sp.set_defaults(func=cmd_map)

    sp = sub.add_parser("exact", help="brute-force enumeration (small models)")
    add_io(sp)
    sp.add_argument("--limit", type=int, default=20, help="refuse models with more variables")
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("ground", help="ground an MLN and print FGM text")
    add_io(sp)
    sp.set_defaults(func=cmd_ground)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: each parse_args fills a fresh namespace
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ModelError, MLNError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (SolveError, LiftError, OracleError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVE


if __name__ == "__main__":
    sys.exit(main())
