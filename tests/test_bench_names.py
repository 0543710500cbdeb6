"""The names the benchmark reads from the package still resolve.

perfbench/tracing.py wraps each TARGETS entry by name and perfbench/checks.py
imports its references from the package, so a renamed or deleted function
would otherwise show only when the benchmark runs. Both files are loaded
from their paths and read, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from liftedmap import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = load("tracing")


def resolve(target):
    """The (owner, name) of a TARGETS entry, as Tracer.installed reads it:
    a method through its class __dict__."""
    modname, attr, _, _ = target
    owner = importlib.import_module(modname)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@pytest.mark.parametrize("target", TRACING.TARGETS, ids=lambda t: "%s.%s" % t[:2])
def test_every_traced_target_resolves(target):
    owner, name = resolve(target)
    assert callable(vars(owner)[name])


def test_checks_imports_cleanly():
    checks = load("checks")
    assert callable(checks.Reference)


def test_traced_map_runs_and_restores_the_originals(models_dir, tmp_path):
    before = [vars(owner)[name] for owner, name in map(resolve, TRACING.TARGETS)]
    tracer = TRACING.Tracer()
    with tracer.installed():
        for space in ("ground", "lifted"):
            argv = ["map", str(models_dir / "ex1.fgm"), "--space", space,
                    "--polytope", "cycle", "--out", str(tmp_path / (space + ".json"))]
            assert cli.main(argv) == 0
    assert {"lift.build", "solve.lp_build", "solve.map"} <= {span[0] for span in tracer.spans}
    after = [vars(owner)[name] for owner, name in map(resolve, TRACING.TARGETS)]
    assert all(a is b for a, b in zip(before, after))
