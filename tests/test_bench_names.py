"""The names the benchmark reads from the package still resolve, and its
instances still give the same answers.

perfbench/tracing.py wraps each TARGETS entry by name and perfbench/checks.py
imports its references from the package, so a renamed or deleted function
would otherwise show only when the benchmark runs. perfbench/workloads.py
draws the instances the benchmark times; their pivots, cuts and LP sizes
are pinned here, so a change that moves the solver's path on them shows
in the tests, not first as a timing shift. The files are loaded from their
paths and read, never changed.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from liftedmap import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass reads its module while it is built
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


WORKLOADS = load("workloads")

# seed-1 instances: (dual, degenerate) pivots, cuts, (variables, rows), objective
BENCH_PINS = {
    "ground": {
        "ls_d3": ((145, 123), 0, (91, 288), 310.5000000000001),
        "ls_d3_rw": ((145, 123), 0, (91, 288), 621.0000000000002),
        "k7": ((99, 67), 22, (29, 85), -7.000000000000004),
        "torus4_a": ((63, 43), 8, (49, 104), 128.0),
        "torus4_b": ((96, 70), 11, (49, 107), 5.999999999999998),
        "frucht": ((29, 4), 0, (31, 54), 18.0),
    },
    "lifted": {
        "ls_d8_rw": ((26, 18), 5, (21, 58), 851.5555555555557),
        "ls_d14_rw": ((26, 18), 5, (21, 58), 773.1111111111111),
        "ls_d20_rw": ((26, 18), 5, (21, 58), 572.2222222222223),
        "ls_d5": ((25, 17), 4, (21, 57), 522.5),
        "cycle200": ((1, 0), 0, (3, 2), 0.0),
        "circulant120": ((5, 0), 2, (5, 8), -32.0),
        "frucht": ((29, 4), 0, (31, 54), 18.0),
    },
}


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_benchmark_instances_are_pinned(workload, tmp_path):
    ladder = WORKLOADS.write_inputs(workload, 1, str(tmp_path))
    assert [inst.name for inst in ladder] == list(BENCH_PINS[workload])
    for inst in ladder:
        out = tmp_path / (inst.name + ".json")
        assert cli.main(inst.argv(str(tmp_path)) + ["--out", str(out)]) == 0
        got = json.loads(out.read_text())
        pivots, cuts, lp, objective = BENCH_PINS[workload][inst.name]
        assert got["status"] == "optimal", inst.name
        assert (got["pivots"]["dual"], got["pivots"]["degenerate"]) == pivots, inst.name
        assert got["cuts"] == cuts, inst.name
        assert (got["lp"]["variables"], got["lp"]["rows"]) == lp, inst.name
        assert abs(got["objective"] - objective) <= 1e-9, inst.name
