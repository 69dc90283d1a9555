"""Experiment driver: strict config parsing, reports, determinism, exit codes."""

import dataclasses
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from test_polytope import near_coincident_body

from shadowgeom import cli
from shadowgeom.cli import (
    EXIT_ASSERTION,
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_PASS,
    ConfigError,
    _check,
    load_body,
    load_decomposition,
    main,
    parse_config,
)
from shadowgeom.family import FloorViolationError
from shadowgeom.polytope import _DET_TOL
from shadowgeom.shadow import RATIO_TOLERANCE, ProductInequalityReport

FIXTURES = Path(__file__).parent / "fixtures"


def bundled(name: str) -> str:
    return str(resources.files("shadowgeom") / "fixtures" / name)


def write_config(tmp_path: Path, payload: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def failed(report: dict) -> list[str]:
    return [a["name"] for a in report["assertions"] if not a["passed"]]


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("zonotope", None, None)
        assert cfg.n == 3 and cfg.m == 8 and cfg.samples == 20 and cfg.seed == 0

    def test_seed_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, {"seed": 5})
        cfg = parse_config("zonotope", path, 9)
        assert cfg.seed == 9

    def test_unknown_key_fatal(self, tmp_path):
        path = write_config(tmp_path, {"n": 3, "bogus": 1})
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config("zonotope", path, None)

    def test_key_for_other_subcommand_fatal(self, tmp_path):
        path = write_config(tmp_path, {"sweep": 4})
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config("zonotope", path, None)

    def test_type_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="integer"):
            parse_config("zonotope", write_config(tmp_path, {"n": 3.5}), None)
        with pytest.raises(ConfigError, match="integer"):
            parse_config("zonotope", write_config(tmp_path, {"n": True}), None)
        with pytest.raises(ConfigError, match="string"):
            parse_config("zonotope", write_config(tmp_path, {"experiment": 7}), None)

    def test_range_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="lie in"):
            parse_config("zonotope", write_config(tmp_path, {"n": 9}), None)
        with pytest.raises(ConfigError, match="at least n"):
            parse_config("zonotope", write_config(tmp_path, {"n": 4, "m": 3}), None)
        with pytest.raises(ConfigError, match="seed"):
            parse_config("zonotope", None, 2**64)

    def test_tolerance_validation(self, tmp_path):
        path = write_config(tmp_path, {"tolerance": 0.5})
        with pytest.raises(ConfigError, match="lie in"):
            parse_config("minkowski-solve", path, None)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "n": 3,\n}')
        with pytest.raises(ConfigError, match=r"line 3, column 1"):
            parse_config("zonotope", str(path), None)

    def test_echo_contains_effective_values(self):
        cfg = parse_config("pathological", None, 11)
        echo = cfg.echo()
        assert echo == {"experiment": "pathological", "seed": 11, "n": 4, "sweep": 10}


class TestLoadBody:
    def test_bundled_cubes(self):
        assert load_body(bundled("cube3.json")).volume == pytest.approx(8.0, rel=1e-12)
        assert load_body(bundled("cube4.json")).volume == pytest.approx(16.0, rel=1e-12)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_body(str(tmp_path / "nope.json"))

    def test_malformed_body_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "n": 3,\n  "directions": [[1,0,0]\n}')
        with pytest.raises(ConfigError, match=r"line 4, column 1"):
            load_body(str(path))

    def test_unbounded_body_diagnostic(self):
        with pytest.raises(ConfigError, match="unbounded"):
            load_body(str(FIXTURES / "unbounded_body.json"))

    def test_normalization_boundary(self, tmp_path):
        near = {"n": 2, "directions": [[1.0 + 5e-7, 0.0], [0.0, 1.0]], "offsets": [1, 1]}
        body = load_body(write_config(tmp_path, near, "near.json"))
        assert np.allclose(np.linalg.norm(body.directions, axis=1), 1.0, atol=1e-15)
        far = {"n": 2, "directions": [[1.0 + 5e-6, 0.0], [0.0, 1.0]], "offsets": [1, 1]}
        with pytest.raises(ConfigError, match="norm"):
            load_body(write_config(tmp_path, far, "far.json"))


class TestLoadDecomposition:
    def test_loads_valid(self):
        dec = load_decomposition(str(FIXTURES / "perturbed_decomposition.json"))
        assert dec.dim == 3  # perturbed weights load fine; validation is an assertion

    def test_rejects_unknown_keys(self, tmp_path):
        doc = {"n": 2, "directions": [[1, 0], [0, 1]], "weights": [1, 1], "x": 0}
        with pytest.raises(ConfigError, match="unknown keys"):
            load_decomposition(write_config(tmp_path, doc))

    def test_rejects_shape_mismatch(self, tmp_path):
        doc = {"n": 2, "directions": [[1, 0], [0, 1]], "weights": [1]}
        with pytest.raises(ConfigError, match="one weight per"):
            load_decomposition(write_config(tmp_path, doc))


class TestRunsAndExitCodes:
    def test_cube_fixture_ratio_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"body": bundled("cube3.json")})
        code = main(["shadow-position", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_PASS
        report = json.loads((tmp_path / "shadow_position.json").read_text())
        assert report["schema"] == 1
        assert abs(report["results"]["ratio"] - 1.0) <= 1e-6
        # the cube's polar vertices are the 6 points +-e_i / 4: already isotropic
        results = report["results"]
        assert results["mvee_iterations"] == 0
        assert results["kappa_min"] == pytest.approx(3.0, rel=1e-12)
        assert results["kappa_max"] == pytest.approx(3.0, rel=1e-12)
        assert results["candidates_checked"] == 3
        assert report["passed"] is True
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    @pytest.mark.parametrize(
        "field,value",
        [("offsets", [float("nan"), 1.0, 1.0]), ("offsets", [float("inf"), 1.0, 1.0]),
         ("directions", [[float("nan"), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
         ("directions", [[float("inf"), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])],
    )
    def test_non_finite_body_is_a_config_error(self, tmp_path, capsys, field, value):
        body = {"n": 3, "directions": np.eye(3).tolist(), "offsets": [1.0, 1.0, 1.0], field: value}
        cfg = write_config(tmp_path, {"body": write_config(tmp_path, body, "body.json")})
        assert main(["shadow-position", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["shadow-position", "verify-t3"])
    def test_a_body_the_library_refuses_is_a_config_error(self, tmp_path, capsys, command):
        # two nearly parallel slabs at the singular threshold, whose facet split reads negative
        body = near_coincident_body(_DET_TOL, 0.5)[0]
        cfg = {"body": write_config(tmp_path, body.to_dict(), "body.json")}
        if command == "verify-t3":
            frame = {"n": 3, "directions": np.eye(3).tolist(), "weights": [1.0, 1.0, 1.0]}
            cfg["decomposition"] = write_config(tmp_path, frame, "frame.json")
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and json.loads(err)["error"] == "config" and "reads negative" in err

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_is_a_config_error(self, tmp_path, capsys, weight):
        dec = {"n": 2, "directions": [[1.0, 0.0], [0.0, 1.0]], "weights": [weight, 1.0]}
        cfg = write_config(tmp_path, {"decomposition": write_config(tmp_path, dec, "dec.json")})
        assert main(["verify-t3", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        out = capsys.readouterr().out
        assert "[PASS]" not in out and "nan" not in out

    def test_perturbed_decomposition_fails_assertion(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"decomposition": str(FIXTURES / "perturbed_decomposition.json")}
        )
        code = main(["verify-t3", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_ASSERTION
        report = json.loads((tmp_path / "verify_t3.json").read_text())
        assert report["passed"] is False
        assert any(not a["passed"] for a in report["assertions"])
        assert "[FAIL] decomposition_isotropy" in capsys.readouterr().out

    @pytest.mark.parametrize("body", [bundled("cube3.json"), "no/such/body.json"], ids=["cube3", "missing"])
    def test_verify_t3_body_without_decomposition_exits_config(self, tmp_path, capsys, body):
        # the random sweep reads no body: a body given alone is refused, not ignored
        cfg = write_config(tmp_path, {"body": body})
        assert main(["verify-t3", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "config"
        assert "'body'" in diag["detail"] and "'decomposition'" in diag["detail"]
        assert not (tmp_path / "verify_t3.json").exists()

    def test_unknown_key_exits_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"wat": 1})
        code = main(["zonotope", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "config"
        assert "unknown keys" in diag["detail"]

    def test_capacity_guard_exits_distinctly(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"body": str(FIXTURES / "oversized_body.json")})
        code = main(["shadow-position", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CAPACITY
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "capacity"

    def test_bad_seed_flag(self, tmp_path, capsys):
        code = main(["zonotope", "--seed", "xyz", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_verify_t3_sweep_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"samples": 3})
        code = main(["verify-t3", "--config", cfg, "--seed", "3", "--out", str(tmp_path)])
        assert code == EXIT_PASS
        capsys.readouterr()

    def test_minkowski_solve_passes(self, tmp_path, capsys):
        code = main(["minkowski-solve", "--seed", "12", "--out", str(tmp_path)])
        assert code == EXIT_PASS
        report = json.loads((tmp_path / "minkowski_solve.json").read_text())
        assert report["results"]["converged"] is True
        capsys.readouterr()

    def test_cauchy_check_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"samples": 20000})
        code = main(["cauchy-check", "--config", cfg, "--seed", "4", "--out", str(tmp_path)])
        assert code == EXIT_PASS
        capsys.readouterr()


class TestCheck:
    @pytest.mark.parametrize("comparison, past", [("<=", math.nextafter(1e-9, 1.0)), (">=", math.nextafter(1e-9, 0.0))])
    def test_passes_at_the_bound_and_fails_just_past_it(self, comparison, past):
        assert _check("a", ("x", 1e-9, comparison, 1e-9))["passed"] is True
        assert _check("a", ("x", past, comparison, 1e-9))["passed"] is False

    def test_strict_comparison_fails_at_the_bound(self):
        assert _check("a", ("x", 0.0, ">", 0.0))["passed"] is False
        assert _check("a", ("x", 5e-324, ">", 0.0))["passed"] is True

    @pytest.mark.parametrize("comparison", ["<=", ">=", ">", "=="])
    def test_nan_fails_every_comparison(self, comparison):
        assert _check("a", ("x", math.nan, comparison, 1.0))["passed"] is False
        assert _check("a", ("x", 1.0, comparison, math.nan))["passed"] is False

    def test_every_term_must_hold(self):
        good, bad = ("x", 1.0, "<=", 2.0), ("y", 3.0, "<=", 2.0)
        assert _check("a", good, good)["passed"] is True
        assert _check("a", good, bad)["passed"] is False
        assert _check("a", bad, good)["passed"] is False

    def test_detail_is_rendered_from_the_terms(self):
        record = _check("a", ("x", 0.5, ">=", 1.0 - 1e-9), ("ok", np.True_, "==", True), note="why")
        assert record == {"name": "a", "passed": False, "detail": "x = 0.5 (>= 0.999999999); ok = True (== True); why"}
        assert _check("b", ("n", 3, "==", 3))["detail"] == "n = 3 (== 3)"


class TestAssertionFailures:
    """Each runner, fed a library result just past its bound, fails exactly the assertions that read it."""

    def test_shadow_ratio_below_the_floor(self, tmp_path, capsys, monkeypatch):
        real = cli.shadow_position
        low = 1.0 - 2.0 * RATIO_TOLERANCE
        monkeypatch.setattr(cli, "shadow_position", lambda body: dataclasses.replace(real(body), ratio=low))
        cfg = write_config(tmp_path, {"body": bundled("cube3.json")})
        assert main(["shadow-position", "--config", cfg, "--out", str(tmp_path)]) == EXIT_ASSERTION
        report = json.loads((tmp_path / "shadow_position.json").read_text())
        assert failed(report) == ["shadow_ratio_floor"]
        assert "[FAIL] shadow_ratio_floor" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "ratio, code", [(1.0 - 1e-9, EXIT_PASS), (1.0 - 2e-9, EXIT_ASSERTION)], ids=["at-floor", "past-floor"]
    )
    @pytest.mark.parametrize("source", ["sweep", "decomposition"])
    def test_product_inequality_at_and_past_its_floor(self, tmp_path, capsys, monkeypatch, ratio, code, source):
        monkeypatch.setattr(cli, "verify_product_inequality", lambda body, dec: ProductInequalityReport(1.0, ratio, ratio))
        frame = {"n": 3, "directions": np.eye(3).tolist(), "weights": [1.0, 1.0, 1.0]}
        config = {"samples": 3} if source == "sweep" else {"decomposition": write_config(tmp_path, frame, "frame.json")}
        cfg = write_config(tmp_path, config)
        assert main(["verify-t3", "--config", cfg, "--out", str(tmp_path), "--format", "both"]) == code
        capsys.readouterr()
        report = json.loads((tmp_path / "verify_t3.json").read_text())
        name = "product_inequality_sweep" if source == "sweep" else "product_inequality"
        assert failed(report) == ([] if code == EXIT_PASS else [name])
        rows = (tmp_path / "verify_t3.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == (3 if source == "sweep" else 1)
        assert {row.rsplit(",", 1)[1] for row in rows} == {"true" if code == EXIT_PASS else "false"}

    @pytest.mark.parametrize(
        "raising, expected",
        [({0}, ["floor_assertions"]), ({0, 1}, ["floor_assertions", "volume_floor", "ratio_floor"])],
        ids=["one-seed", "every-seed"],
    )
    def test_floor_violation_raised_by_the_construction(self, tmp_path, capsys, monkeypatch, raising, expected):
        real = cli.construct_pathological
        calls = []

        def construct(n, rng):
            calls.append(len(calls))
            if calls[-1] in raising:
                raise FloorViolationError("volume floor violated: injected")
            return real(n, rng=rng)

        monkeypatch.setattr(cli, "construct_pathological", construct)
        cfg = write_config(tmp_path, {"n": 2, "sweep": 2})
        assert main(["pathological", "--config", cfg, "--out", str(tmp_path)]) == EXIT_ASSERTION
        capsys.readouterr()
        report = json.loads((tmp_path / "pathological.json").read_text())
        assert failed(report) == expected
        assert "seed 0: volume floor violated: injected" in report["assertions"][0]["detail"]
        assert report["results"]["constructed"] == 2 - len(raising)


class TestOutputsAndDeterminism:
    @pytest.mark.parametrize(
        "command, config, csv_stem",
        [
            ("verify-t3", {"samples": 2}, "verify_t3"),
            ("minkowski-solve", {"samples": 50}, "minkowski_starts"),
            ("shadow-position", {"n": 4, "m": 7}, None),
        ],
        ids=["verify-t3", "minkowski-solve", "shadow-position"],
    )
    def test_rerun_is_byte_identical_outside_meta(self, tmp_path, capsys, command, config, csv_stem):
        cfg = write_config(tmp_path, config)
        for sub in ("a", "b"):
            assert main([command, "--config", cfg, "--seed", "8",
                         "--out", str(tmp_path / sub), "--format", "both"]) == EXIT_PASS
        capsys.readouterr()
        reports = []
        for sub in ("a", "b"):
            rep = json.loads((tmp_path / sub / f"{command.replace('-', '_')}.json").read_text())
            assert rep.pop("meta")["wall_time_seconds"] >= 0.0
            reports.append(json.dumps(rep, sort_keys=True))
        assert reports[0] == reports[1]
        if csv_stem is not None:
            assert (tmp_path / "a" / f"{csv_stem}.csv").read_bytes() == (
                tmp_path / "b" / f"{csv_stem}.csv"
            ).read_bytes()
        results = json.loads(reports[0])["results"]
        if command == "minkowski-solve":
            assert len(results["start_iterations"]) == len(results["start_volume_evals"]) == 5
        if command == "shadow-position":
            # the contact decomposition, written from WeightedDirections
            contacts = np.array(results["john"]["contacts"])
            weights = np.array(results["john"]["weights"])
            assert contacts.shape == (len(weights), 4)
            assert np.allclose(np.linalg.norm(contacts, axis=1), 1.0, atol=1e-12)
            assert float(weights.sum()) == pytest.approx(4.0, abs=1e-8)

    def test_different_seed_changes_results(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"samples": 2})
        for seed, sub in (("8", "a"), ("9", "b")):
            main(["verify-t3", "--config", cfg, "--seed", seed, "--out", str(tmp_path / sub)])
        capsys.readouterr()
        a = json.loads((tmp_path / "a" / "verify_t3.json").read_text())["results"]
        b = json.loads((tmp_path / "b" / "verify_t3.json").read_text())["results"]
        assert a["worst_ratio"] != b["worst_ratio"]

    def test_pathological_csv_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 2, "sweep": 2})
        code = main(["pathological", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path), "--format", "both"])
        assert code == EXIT_PASS
        capsys.readouterr()
        lines = (tmp_path / "pathological.csv").read_text().strip().splitlines()
        assert lines[0] == "seed,n,delta_hat,vol_nth_root,min_shadow,ratio,floor"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "2"
        assert float(first[3]) >= 2.0**0.5 - 1e-9

    def test_ball_ratio_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 6})
        code = main(["ball-ratio", "--config", cfg, "--out", str(tmp_path), "--format", "csv"])
        assert code == EXIT_PASS
        capsys.readouterr()
        lines = (tmp_path / "ball_ratio.csv").read_text().strip().splitlines()
        assert lines[0] == "n,ratio"
        assert len(lines) == 6  # n = 2..6
        values = [float(row.split(",")[1]) for row in lines[1:]]
        assert values == sorted(values)

    def test_json_always_written(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 4})
        main(["ball-ratio", "--config", cfg, "--out", str(tmp_path), "--format", "json"])
        capsys.readouterr()
        assert (tmp_path / "ball_ratio.json").exists()
        assert not (tmp_path / "ball_ratio.csv").exists()

    def test_report_carries_version_and_config_echo(self, tmp_path, capsys):
        main(["ball-ratio", "--seed", "2", "--out", str(tmp_path)])
        capsys.readouterr()
        rep = json.loads((tmp_path / "ball_ratio.json").read_text())
        from shadowgeom import __version__

        assert rep["version"] == __version__
        assert rep["config"]["seed"] == 2
        assert rep["command"] == "ball-ratio"


GOLDEN = Path(__file__).parent / "data" / "cli_seed1"


class TestGoldenReports:
    """Every subcommand at ``--seed 1`` against its committed report and CSV table.

    ``tests/data/cli_seed1`` holds each ``<command>.json`` without its
    ``meta`` field, written as the CLI writes it (``indent=2``, sorted keys),
    and each CSV table as written.  A report must match its file in every
    value and type, and a CSV byte for byte, so a change to a result record
    or to its report shows here.  A change that moves results by rounding
    regenerates the files (``shadowgeom <command> --seed 1 --format both``,
    then drop ``meta``) and lists each moved value in CHANGES.md.
    """

    @pytest.mark.parametrize(
        "command, csv_stem",
        [
            ("shadow-position", None),
            ("verify-t3", "verify_t3"),
            ("zonotope", "zonotope"),
            ("minkowski-solve", "minkowski_starts"),
            ("pathological", "pathological"),
            ("ball-ratio", "ball_ratio"),
            ("cauchy-check", None),
        ],
    )
    def test_report_and_table_match_the_committed_files(self, tmp_path, capsys, command, csv_stem):
        assert main([command, "--seed", "1", "--out", str(tmp_path), "--format", "both"]) == EXIT_PASS
        capsys.readouterr()
        stem = command.replace("-", "_")
        report = json.loads((tmp_path / f"{stem}.json").read_text())
        del report["meta"]
        expected = (GOLDEN / f"{stem}.json").read_text()
        assert report == json.loads(expected)
        # the text as well: it tells an int from an equal float
        assert json.dumps(report, indent=2, sort_keys=True) + "\n" == expected
        tables = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert tables == ([] if csv_stem is None else [f"{csv_stem}.csv"])
        for name in tables:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
