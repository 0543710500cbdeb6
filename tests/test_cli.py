"""Command-line interface: exit codes, JSON payloads, file outputs."""

import hashlib
import json

import pytest

from liftedmap import cli, mln, parse_model
from liftedmap.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def cell_sizes(partition_payload):
    return sorted(len(cell) for cell in partition_payload["cells"])


# ---------------------------------------------------------------------------
# orbits


class TestOrbits:
    def test_search_on_model_file(self, capsys, models_dir):
        code, payload = run_json(capsys, "orbits", str(models_dir / "ex1.fgm"))
        assert code == 0
        assert payload["type"] == "fgm"
        assert payload["domain_size"] is None
        assert payload["model"] == {"variables": 4, "features": 5}
        assert set(payload["methods"]) == {"search"}
        search = payload["methods"]["search"]
        assert search["group_order"] == 4
        assert search["num_generators"] >= 1
        assert search["tree_nodes"] >= search["leaves"] > search["num_generators"]
        assert search["refine_rounds"] >= search["tree_nodes"]
        assert search["trace_pruned"] == 0  # every child of ex1's tree holds an automorphism
        orbits = search["orbits"]
        assert orbits["vars"] == {"count": 2, "cells": [[0, 3], [1, 2]]}
        assert cell_sizes(orbits["edges"]) == [1, 4]
        assert orbits["features"]["count"] == 2
        assert orbits["factor_moments"] == {"count": 0, "cells": []}

    def test_renaming_on_mln(self, capsys, models_dir):
        code, payload = run_json(
            capsys,
            "orbits",
            str(models_dir / "q2.mln"),
            "--domain-size",
            "5",
            "--evidence",
            str(models_dir / "q2.evidence"),
        )
        assert code == 0
        assert payload["type"] == "mln"
        assert payload["domain_size"] == 5
        assert set(payload["methods"]) == {"renaming"}
        renaming = payload["methods"]["renaming"]
        assert renaming["group_order"] is None
        assert renaming["num_generators"] is None
        assert renaming["tree_nodes"] is renaming["leaves"] is renaming["refine_rounds"] is None
        assert renaming["trace_pruned"] is None
        assert cell_sizes(renaming["orbits"]["vars"]) == [1, 4, 4, 4, 12]

    def test_both_methods_compare(self, capsys, models_dir):
        code, payload = run_json(
            capsys,
            "orbits",
            str(models_dir / "lovers_smokers.mln"),
            "--domain-size",
            "3",
            "--method",
            "both",
        )
        assert code == 0
        assert set(payload["methods"]) == {"search", "renaming"}
        assert payload["methods"]["search"]["group_order"] == 36
        checks = payload["renaming_refines_search"]
        assert checks["all"] is True
        assert set(checks) == {"vars", "features", "edges", "factor_moments", "all"}

    def test_method_none_gives_singletons(self, capsys, models_dir):
        code, payload = run_json(
            capsys, "orbits", str(models_dir / "ex1.fgm"), "--method", "none"
        )
        assert code == 0
        orbits = payload["methods"]["none"]["orbits"]
        assert orbits["vars"]["count"] == 4
        none = payload["methods"]["none"]
        assert (none["tree_nodes"], none["leaves"], none["refine_rounds"]) == (0, 0, 0)
        assert none["trace_pruned"] == 0
        assert all(len(cell) == 1 for cell in orbits["vars"]["cells"])

    def test_search_counts_the_children_its_trace_stops(self, capsys, models_dir):
        code, payload = run_json(
            capsys, "orbits", str(models_dir / "frucht.fgm"), "--method", "search"
        )
        assert code == 0
        search = payload["methods"]["search"]
        counts = [search[k] for k in ("group_order", "tree_nodes", "leaves", "trace_pruned")]
        assert counts == [1, 2, 1, 17]

    def test_both_on_model_file_is_input_error(self, capsys, models_dir):
        code, out, err = run(capsys, "orbits", str(models_dir / "ex1.fgm"), "--method", "both")
        assert code == 2
        assert err.startswith("error:")

    def test_renaming_on_model_file_is_input_error(self, capsys, models_dir):
        code, _, err = run(capsys, "orbits", str(models_dir / "ex1.fgm"), "--method", "renaming")
        assert code == 2
        assert err.startswith("error:")


# ---------------------------------------------------------------------------
# input handling


class TestInputHandling:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "orbits", "no_such_file.fgm")
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_extension(self, capsys, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("fgm 1\n")
        code, _, err = run(capsys, "orbits", str(path))
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_model_file(self, capsys, tmp_path):
        path = tmp_path / "broken.fgm"
        path.write_text("this is not a model\n")
        code, _, err = run(capsys, "orbits", str(path))
        assert code == 2
        assert err.startswith("error:")

    def test_mln_needs_domain_size(self, capsys, models_dir):
        code, _, err = run(capsys, "orbits", str(models_dir / "friends.mln"))
        assert code == 2
        assert err.startswith("error:")

    def test_domain_size_below_one(self, capsys, models_dir):
        code, out, err = run(
            capsys, "map", str(models_dir / "lovers_smokers.mln"), "--domain-size", "0"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: domain_size must be at least 1")

    def test_domain_size_rejected_for_model_file(self, capsys, models_dir):
        code, _, err = run(
            capsys, "orbits", str(models_dir / "ex1.fgm"), "--domain-size", "3"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_zero_arity_predicate_is_input_error(self, capsys, tmp_path):
        # no formula can use R, so it would only add a variable with no feature
        path = tmp_path / "zero.mln"
        path.write_text("predicate R/0\npredicate P/1\n1.0 P(x)\n")
        code, out, err = run(capsys, "ground", str(path), "--domain-size", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 1: predicate R needs an arity of at least 1")

    def test_mln_with_no_surviving_features(self, capsys, models_dir):
        # q2 declares a predicate but no formulas; without evidence nothing grounds
        code, _, err = run(
            capsys, "orbits", str(models_dir / "q2.mln"), "--domain-size", "3"
        )
        assert code == 2
        assert err.startswith("error:")


# ---------------------------------------------------------------------------
# map


GROUND_MAP_KEYS = {
    "input",
    "type",
    "domain_size",
    "model",
    "method",
    "polytope",
    "status",
    "space",
    "objective",
    "bounds",
    "cuts",
    "iterations",
    "lp",
    "decode",
    "timings_ms",
    "pivots",
}


class TestMap:
    def test_ground_local(self, capsys, models_dir):
        code, payload = run_json(capsys, "map", str(models_dir / "ex1.fgm"))
        assert code == 0
        assert set(payload) == GROUND_MAP_KEYS
        assert payload["status"] == "optimal"
        assert payload["space"] == "ground"
        assert payload["polytope"] == "local"
        assert payload["method"] is None
        assert payload["objective"] == pytest.approx(4.0, abs=1e-8)
        assert payload["decode"]["configuration"] == [1, 0, 0, 1]
        assert payload["lp"] == {"variables": 10, "rows": 15}
        assert payload["cuts"] == 0

    def test_lifted_cycle(self, capsys, models_dir):
        code, payload = run_json(
            capsys,
            "map",
            str(models_dir / "triangle.fgm"),
            "--space",
            "lifted",
            "--polytope",
            "cycle",
        )
        assert code == 0
        assert payload["space"] == "lifted"
        assert payload["method"] == "search"
        assert payload["objective"] == pytest.approx(-1.0, abs=1e-8)
        assert payload["cuts"] >= 1
        assert payload["orbit_counts"] == {
            "vars": 1,
            "features": 1,
            "edges": 1,
            "factor_moments": 0,
        }

    def test_lifted_without_symmetry_matches_ground_size(self, capsys, models_dir):
        code, payload = run_json(
            capsys,
            "map",
            str(models_dir / "ex1.fgm"),
            "--space",
            "lifted",
            "--method",
            "none",
        )
        assert code == 0
        assert payload["objective"] == pytest.approx(4.0, abs=1e-8)
        assert payload["lp"]["variables"] == 10
        assert payload["orbit_counts"]["vars"] == 4

    def test_cut_budget_cap_exit_code(self, capsys, models_dir):
        code, out, err = run(
            capsys,
            "map",
            str(models_dir / "triangle.fgm"),
            "--polytope",
            "cycle",
            "--max-cuts",
            "0",
        )
        assert code == 4
        payload = json.loads(out)
        assert payload["status"] == "cap"
        assert payload["cuts"] == 0

    def test_run_needing_exactly_the_cut_budget_exits_0(self, capsys, models_dir):
        code, payload = run_json(
            capsys,
            "map",
            str(models_dir / "triangle.fgm"),
            "--polytope",
            "cycle",
            "--max-cuts",
            "1",
        )
        assert code == 0
        assert payload["status"] == "optimal"
        assert payload["cuts"] == 1

    def test_negative_cut_budget_is_usage_error(self, capsys, models_dir):
        code, out, err = run(
            capsys,
            "map",
            str(models_dir / "triangle.fgm"),
            "--polytope",
            "cycle",
            "--max-cuts",
            "-1",
        )
        assert code == 2
        assert out == ""
        assert "--max-cuts" in err

    @pytest.mark.parametrize("method", ["search", "renaming"])
    def test_symmetry_method_on_ground_space_is_usage_error(self, capsys, models_dir, method):
        code, out, err = run(
            capsys,
            "map",
            str(models_dir / "lovers_smokers.mln"),
            "--domain-size",
            "3",
            "--space",
            "ground",
            "--method",
            method,
        )
        assert code == 2
        assert out == ""
        assert "--method" in err

    def test_ground_equals_lifted_without_symmetry(self, capsys, models_dir):
        argv = ["map", str(models_dir / "lovers_smokers.mln"), "--domain-size", "3"]
        code, ground = run_json(capsys, *argv, "--space", "ground")
        assert code == 0
        code, lifted = run_json(capsys, *argv, "--space", "lifted", "--method", "none")
        assert code == 0
        for key in ("status", "objective", "bounds", "cuts", "lp", "pivots"):
            assert ground[key] == lifted[key], key
        for key in ("configuration", "score", "fractional"):
            assert ground["decode"][key] == lifted["decode"][key], key
        assert (ground["space"], lifted["space"]) == ("ground", "lifted")

    def test_renaming_lift_grounds_at_the_representative_size_only(
        self, capsys, models_dir, monkeypatch
    ):
        sizes = []
        real = mln.ground_mln

        def recording(mln_, domain_size, evidence=None):
            sizes.append(domain_size)
            return real(mln_, domain_size, evidence)

        monkeypatch.setattr(mln, "ground_mln", recording)
        monkeypatch.setattr(cli, "ground_mln", recording)
        argv = ["map", str(models_dir / "lovers_smokers.mln"), "--space", "lifted"]
        code, payload = run_json(capsys, *argv, "--domain-size", "20")
        assert code == 0
        assert sizes == [5]
        # falling-factorial counts: 3d + 2d(d-1) + d(d-1)(d-2) features
        assert payload["model"] == {"variables": 3 * 20 + 20 * 20, "features": 60 + 760 + 6840}
        assert len(payload["decode"]["configuration"]) == 460
        sizes.clear()
        code, _ = run_json(capsys, *argv, "--domain-size", "5", "--method", "search")
        assert code == 0
        assert sizes == [5]

    def test_csv_bound_curve(self, capsys, models_dir, tmp_path):
        csv_path = tmp_path / "curve.csv"
        code, payload = run_json(
            capsys,
            "map",
            str(models_dir / "triangle.fgm"),
            "--polytope",
            "cycle",
            "--csv",
            str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "iteration,bound,cuts"
        assert len(lines) == len(payload["bounds"]) + 1
        bounds = []
        for i, line in enumerate(lines[1:]):
            iteration, bound, cuts = line.split(",")
            assert int(iteration) == i
            assert int(cuts) == i
            bounds.append(float(bound))
        assert bounds == payload["bounds"]
        assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(bounds, bounds[1:]))

    def test_out_writes_file_instead_of_stdout(self, capsys, models_dir, tmp_path):
        out_path = tmp_path / "result.json"
        code, out, err = run(
            capsys, "map", str(models_dir / "ex1.fgm"), "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        payload = json.loads(out_path.read_text())
        assert payload["objective"] == pytest.approx(4.0, abs=1e-8)


# ---------------------------------------------------------------------------
# exact


class TestExact:
    def test_model_file(self, capsys, models_dir):
        code, payload = run_json(capsys, "exact", str(models_dir / "ex1.fgm"))
        assert code == 0
        assert payload["map_value"] == pytest.approx(4.0, abs=1e-12)
        assert payload["argmax"] == [[1, 0, 0, 1]]
        assert len(payload["coords"]) == 9
        assert len(payload["mean_params"]) == 9
        assert payload["coords"][0] == "node:0"
        assert payload["coords"][4] == "edge:0:1"
        assert isinstance(payload["log_partition"], float)

    def test_variable_limit_is_solve_error(self, capsys, models_dir):
        code, _, err = run(
            capsys, "exact", str(models_dir / "frucht.fgm"), "--limit", "5"
        )
        assert code == 3
        assert err.startswith("error:")

    def test_negative_limit_is_usage_error(self, capsys, models_dir):
        code, out, err = run(
            capsys, "exact", str(models_dir / "frucht.fgm"), "--limit", "-1"
        )
        assert code == 2
        assert out == ""
        assert "--limit" in err


# ---------------------------------------------------------------------------
# ground


class TestGround:
    def test_roundtrips_through_parser(self, capsys, models_dir):
        code, out, err = run(
            capsys, "ground", str(models_dir / "friends.mln"), "--domain-size", "2"
        )
        assert code == 0
        assert err == ""
        assert out.startswith("fgm 1")
        model = parse_model(out)
        assert model.num_vars == 4
        assert model.num_features == 2

    def test_rejects_model_file(self, capsys, models_dir):
        code, _, err = run(capsys, "ground", str(models_dir / "ex1.fgm"))
        assert code == 2
        assert err.startswith("error:")


# ---------------------------------------------------------------------------
# determinism


class TestDeterminism:
    def test_orbits_output_is_stable(self, capsys, models_dir):
        args = (
            "orbits",
            str(models_dir / "lovers_smokers.mln"),
            "--domain-size",
            "3",
            "--method",
            "both",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_successive_calls_share_one_parser_and_no_defaults(self, capsys, models_dir, tmp_path):
        # main parses with one parser per process; each call must give what a
        # call with a parser of its own gives, whatever flags came before
        out, csv = tmp_path / "out.json", tmp_path / "curve.csv"
        q2 = [str(models_dir / "q2.mln"), "--domain-size", "3"]
        triangle = str(models_dir / "triangle.fgm")
        calls = [
            ["map", *q2, "--evidence", str(models_dir / "q2.evidence"), "--polytope", "cycle",
             "--out", str(out), "--csv", str(csv)],
            ["orbits", triangle],
            # q2 has no features without its evidence: exit 2 unless it leaked
            ["map", *q2, "--space", "lifted"],
            ["ground", str(models_dir / "lovers_smokers.mln"), "--domain-size", "2", "--out", str(out)],
            ["map", triangle, "--polytope", "cycle"],
        ]

        def outputs(argv):
            for path in (out, csv):
                path.unlink(missing_ok=True)
            code, stdout, err = run(capsys, *argv)
            files = [p.read_text() if p.exists() else None for p in (out, csv)]
            without_timings = [
                None if text is None else [line for line in text.splitlines() if '_ms"' not in line]
                for text in [stdout] + files
            ]
            return code, err, without_timings

        shared = [outputs(argv) for argv in calls]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(outputs(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0]
        for argv in calls:
            assert vars(cli._parser().parse_args(argv[:2])) == vars(cli.build_parser().parse_args(argv[:2]))

    def test_map_output_is_stable_modulo_timings(self, capsys, models_dir):
        args = ("map", str(models_dir / "triangle.fgm"), "--polytope", "cycle")
        _, first_payload = run_json(capsys, *args)
        _, second_payload = run_json(capsys, *args)
        first_payload.pop("timings_ms")
        second_payload.pop("timings_ms")
        assert first_payload == second_payload


# ---------------------------------------------------------------------------
# output pins


# The sha256 (first 16 hex digits) of "exit code, newline, stdout, stderr" of
# one CLI call per key, with every *_ms field dropped from the JSON and
# "input" cut to the file name. A refactor that keeps these keeps every
# output byte of `map`, `orbits` and `exact` on every model in models/.
OUTPUT_PINS = {
    ("ex1.fgm", "map --space ground --polytope local"): "ab0218dd248ef059",
    ("ex1.fgm", "map --space ground --polytope cycle"): "6d29bce3d17b7fff",
    ("ex1.fgm", "map --space lifted --polytope local"): "27514535f6279962",
    ("ex1.fgm", "map --space lifted --polytope cycle"): "14591ccac0bf503f",
    ("ex1.fgm", "orbits --method search"): "f0336280325740ea",
    ("ex1.fgm", "exact"): "e8d48440e1b70978",
    ("frucht.fgm", "map --space ground --polytope local"): "c29711ad5fd4bc9c",
    ("frucht.fgm", "map --space ground --polytope cycle"): "3561f18766886335",
    ("frucht.fgm", "map --space lifted --polytope local"): "f887147640c2683e",
    ("frucht.fgm", "map --space lifted --polytope cycle"): "d8de812b121faa0f",
    ("frucht.fgm", "orbits --method search"): "28001c7a850e90ee",
    ("frucht.fgm", "exact"): "ce11b18c619e3aa5",
    ("triangle.fgm", "map --space ground --polytope local"): "9e96c55b3b97cd9c",
    ("triangle.fgm", "map --space ground --polytope cycle"): "71e15020211c6cd0",
    ("triangle.fgm", "map --space lifted --polytope local"): "8f0a2d138dc67ae6",
    ("triangle.fgm", "map --space lifted --polytope cycle"): "855d7238fd025801",
    ("triangle.fgm", "orbits --method search"): "db021442e1156d22",
    ("triangle.fgm", "exact"): "d6b72ca9e1ecc751",
    ("triple_parity.fgm", "map --space ground --polytope local"): "99f068f575d9609e",
    ("triple_parity.fgm", "map --space ground --polytope cycle"): "e5dc4296105294e3",
    ("triple_parity.fgm", "map --space lifted --polytope local"): "41eabdc0e88aa54a",
    ("triple_parity.fgm", "map --space lifted --polytope cycle"): "4d5e28e3bfa6ca0c",
    ("triple_parity.fgm", "orbits --method search"): "e6ae390de49680f7",
    ("triple_parity.fgm", "exact"): "b305f7df082cbed9",
    ("friends.mln", "map --space ground --polytope local"): "de9b6b4ec7f67ecc",
    ("friends.mln", "map --space ground --polytope cycle"): "50fabedd0e708ca0",
    ("friends.mln", "map --space lifted --polytope local"): "f48576203b4c99fa",
    ("friends.mln", "map --space lifted --polytope cycle"): "112a6c8adf12c882",
    ("friends.mln", "orbits --method search"): "915aff0ba2b58213",
    ("friends.mln", "orbits --method renaming"): "8b25355b3ab4c955",
    ("friends.mln", "map --space lifted --method search --polytope cycle"): "ab25d3ae9b0040ce",
    ("friends.mln", "exact"): "b2c49a74e579da14",
    ("lovers_smokers.mln", "map --space ground --polytope local"): "82add683e1233a80",
    ("lovers_smokers.mln", "map --space ground --polytope cycle"): "fb7fd8b85dc9a2d3",
    ("lovers_smokers.mln", "map --space lifted --polytope local"): "aa288da309707e5f",
    ("lovers_smokers.mln", "map --space lifted --polytope cycle"): "5562a9e0eccedd90",
    ("lovers_smokers.mln", "orbits --method search"): "c3276751643bc625",
    ("lovers_smokers.mln", "orbits --method renaming"): "1df4a44522561200",
    ("lovers_smokers.mln", "map --space lifted --method search --polytope cycle"): "c109f42ccea186f4",
    ("lovers_smokers.mln", "exact"): "64f7a99e8d416cce",
    ("q2.mln", "map --space ground --polytope local"): "2385c350f9267895",
    ("q2.mln", "map --space ground --polytope cycle"): "b86702e62d45c6a8",
    ("q2.mln", "map --space lifted --polytope local"): "c9098cc138d08951",
    ("q2.mln", "map --space lifted --polytope cycle"): "22318f71b936ac60",
    ("q2.mln", "orbits --method search"): "f1c0645563f0224d",
    ("q2.mln", "orbits --method renaming"): "2886fcb23a64266c",
    ("q2.mln", "map --space lifted --method search --polytope cycle"): "13b326ee5888746e",
    ("q2.mln", "exact"): "46cb69dc1f1b433b",
}

PIN_FLAGS = {
    "friends.mln": ["--domain-size", "3"],
    "lovers_smokers.mln": ["--domain-size", "3"],
    "q2.mln": ["--domain-size", "3", "--evidence", "q2.evidence"],
}


def _without_ms(payload):
    if isinstance(payload, dict):
        return {k: _without_ms(v) for k, v in payload.items() if not k.endswith("_ms")}
    if isinstance(payload, list):
        return [_without_ms(v) for v in payload]
    return payload


def test_every_model_in_models_is_pinned(models_dir):
    pinned = {name for name, _ in OUTPUT_PINS}
    assert pinned == {p.name for p in models_dir.iterdir() if p.suffix in (".fgm", ".mln")}


@pytest.mark.parametrize(
    "name,command", [pytest.param(*key, id=" ".join(key)) for key in sorted(OUTPUT_PINS)])
def test_cli_output_is_pinned(capsys, models_dir, name, command):
    flags = [str(models_dir / f) if f.endswith(".evidence") else f for f in PIN_FLAGS.get(name, [])]
    sub, *rest = command.split()
    code, out, err = run(capsys, sub, str(models_dir / name), *flags, *rest)
    if code in (0, 4):
        payload = _without_ms(json.loads(out))
        payload["input"] = name
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    text = "%d\n%s%s" % (code, out, err)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == OUTPUT_PINS[name, command]
