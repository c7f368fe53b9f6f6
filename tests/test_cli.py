import json
import subprocess
import sys

import pytest

from smoothlab import cli, suites
from smoothlab.cli import INTERNAL_ERROR, main, parse_config_file
from smoothlab.suites import SUITE_ANCHORS, list_suites


class TestCatalog:
    def test_contains_kpv_anchor(self):
        assert "kpv -> Eq. (1.6)" in list_suites()

    def test_contains_semilinear_anchor(self):
        assert "semilinear -> Theorem 1.3" in list_suites()

    def test_catalog_length_matches_suites(self):
        assert len(list_suites()) == 13
        assert len(SUITE_ANCHORS) == 13


class TestConfig:
    def test_flat_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suite = partition\nseed = 1\nk_min = -3  # comment\nk_max = 4\n")
        rc = main(["--config", str(cfg), "--seed", "9",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9  # flags win
        assert manifest["config"]["k_min"] == -3

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery = 1\n")
        assert main(["--config", str(cfg), "--suite", "partition", "--seed", "1"]) == 2

    def test_unknown_suite_usage_error(self):
        assert main(["--suite", "nonesuch", "--seed", "1"]) == 2

    def test_seed_mandatory(self):
        assert main(["--suite", "partition"]) == 2

    def test_bad_shells_format(self):
        assert main(["--suite", "partition", "--seed", "1", "--shells", "oops"]) == 2

    def test_parallel_is_an_unknown_flag(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["--suite", "partition", "--seed", "1", "--out", str(out),
                   "--parallel", "2"])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("suite", sorted(SUITE_ANCHORS))
    def test_default_config_validates(self, suite):
        suites.apply_suite_defaults(suites.ExperimentConfig(suite, 0), set()).validate()

    def test_parse_config_types(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("suite = kpv\nseed = 3\nhalf_width = 4.0\npoints = 32\n")
        vals = parse_config_file(cfg)
        assert vals == {"suite": "kpv", "seed": 3, "half_width": 4.0, "points": 32}


class TestRunOutputs:
    def test_partition_outputs_and_exit(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["--suite", "partition", "--seed", "5", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["anchor"] == "Eq. (1.9)"
        assert (out / "results.csv").exists()
        assert (out / "manifest.json").exists()

    def test_report_names_suite_and_anchor_from_the_config(self, tmp_path, capsys):
        # the runner's result carries neither; the CLI takes both from the config
        out = tmp_path / "out"
        rc = main(["--suite", "resolvent-1d", "--seed", "0", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"suite", "anchor", "passed", "verdicts", "detail"}
        assert (report["suite"], report["anchor"]) == ("resolvent-1d", "Lemma 9.3")
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[PASS] resolvent-1d: ")
        assert lines[-1].startswith("resolvent-1d: all verdicts passed")

    def test_determinism_byte_identical_csv(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(["--suite", "discrete-bounds", "--seed", "11", "--out", str(out)])
            assert rc == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_different_seed_changes_random_suite(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["--suite", "resolvent-1d", "--seed", "1", "--out", str(a)])
        main(["--suite", "resolvent-1d", "--seed", "2", "--out", str(b)])
        assert (a / "results.csv").read_bytes() != (b / "results.csv").read_bytes()

    def test_main_estimate_shells_outside_box(self, tmp_path):
        # no grid point of shells 6..9 meets the unit bump: a named failed
        # verdict and a report, not a division by zero
        out = tmp_path / "out"
        rc = main(["--suite", "main-estimate", "--seed", "0", "--shells", "6:9",
                   "--out", str(out)])
        assert rc == 1
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        assert [(v["name"], v["passed"]) for v in report["verdicts"]] == [
            ("audit-resolvable", False)
        ]

    def test_phase_localization_shells_outside_box(self, tmp_path):
        # shells 5..7 hold no grid point, so both constants are 0: a failed
        # verdict and both reports, not a division by zero
        out = tmp_path / "out"
        rc = main(["--suite", "phase-localization", "--seed", "0", "--shells", "5:7",
                   "--ensemble", "1", "--out", str(out)])
        assert rc == 1
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        verdicts = {v["name"]: v["passed"] for v in report["verdicts"]}
        assert verdicts["two-sided-constants"] is False
        assert (out / "results.csv").exists()

    def test_kpv_shells_outside_box(self, tmp_path):
        # shells 6..9 hold no grid point, so the ensemble is degenerate and
        # carries no probes: failed verdicts and both reports, not a KeyError
        out = tmp_path / "out"
        rc = main(["--suite", "kpv", "--seed", "0", "--shells", "6:9", "--ensemble", "1",
                   "--grid", "32", "--out", str(out)])
        assert rc == 1
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        verdicts = {v["name"]: v["passed"] for v in report["verdicts"]}
        assert verdicts["homogeneity"] is False
        assert verdicts["rescale-invariance"] is False
        assert (out / "results.csv").exists()

    def test_report_json_is_strict(self, tmp_path):
        # the degenerate kpv run reports a NaN drift; RFC 8259 has no NaN token
        out = tmp_path / "out"
        main(["--suite", "kpv", "--seed", "0", "--shells", "6:9", "--ensemble", "1",
              "--grid", "32", "--out", str(out)])

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert report["detail"]["refinement_drift"] == "NaN"

    def test_internal_error_exits_4_with_report(self, tmp_path, monkeypatch, capsys):
        def broken(cfg):
            raise RuntimeError("boom")

        monkeypatch.setitem(suites.SUITE_RUNNERS, "partition", broken)
        out = tmp_path / "out"
        rc = main(["--suite", "partition", "--seed", "0", "--out", str(out)])
        assert rc == INTERNAL_ERROR == 4
        assert "Traceback" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        assert report["verdicts"] == []
        assert report["error"] == "RuntimeError: boom"
        assert (out / "manifest.json").exists()
        assert not (out / "results.csv").exists()

    def test_exception_around_run_suite_propagates(self, tmp_path, monkeypatch):
        # only the runner's own failures become exit 4; code that wraps
        # run_suite gets its own exceptions back
        class Stop(Exception):
            pass

        def stop(cfg):
            raise Stop

        monkeypatch.setattr(cli, "run_suite", stop)
        with pytest.raises(Stop):
            main(["--suite", "partition", "--seed", "0", "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("args", [
        ("--suite", "semilinear", "--dim", "2"),  # critical exponent needs n >= 3
        ("--suite", "kpv", "--grid", "8"),  # mode band does not fit the grid
        ("--suite", "kpv", "--grid", "16"),  # nor the rescale probe's mode_scale 2
        ("--suite", "mixed-norm", "--grid", "16"),  # nor the points // 2 grid
        ("--suite", "resolvent-nd", "--grid", "8"),
        ("--suite", "equivalence", "--dim", "1"),  # |a| + |s| >= n/2
        ("--suite", "product-interp", "--dim", "1"),  # embedding exponent 2n/(n-1)
        ("--suite", "mixed-norm", "--dim", "1"),  # no transverse fibers x'
    ])
    def test_unrunnable_config_exits_2_before_work(self, tmp_path, args, monkeypatch):
        def unreachable(cfg):
            raise AssertionError("the runner started")

        monkeypatch.setitem(suites.SUITE_RUNNERS, args[1], unreachable)
        out = tmp_path / "out"
        assert main([*args, "--seed", "0", "--out", str(out)]) == 2
        assert not out.exists()

    def test_runner_value_error_exits_3_with_report(self, tmp_path, monkeypatch):
        def cannot_run(cfg):
            raise ValueError("grid too coarse for the requested mode band")

        monkeypatch.setitem(suites.SUITE_RUNNERS, "partition", cannot_run)
        out = tmp_path / "out"
        rc = main(["--suite", "partition", "--seed", "0", "--out", str(out)])
        assert rc == 3
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        assert report["verdicts"] == []
        assert report["error"] == "grid too coarse for the requested mode band"
        assert (out / "manifest.json").exists()
        assert not (out / "results.csv").exists()

    def test_console_script_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "smoothlab.cli", "--list-suites"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "discrete-bounds -> Lemma 6.1" in proc.stdout
