"""End-to-end tests for the command line interface."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kstruve
from kstruve import IDENTITIES, TheoremParams, default_grid, verify
from kstruve.cli import CONFIG_ENV, _parse_config, main
from kstruve.report import record


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestEval:
    def test_gamma_integer(self):
        code, out, _ = run_cli("eval", "gamma", "5")
        assert code == 0
        assert out == "24\n"

    def test_kgamma(self):
        code, out, _ = run_cli("eval", "kgamma", "4", "2")
        assert code == 0
        assert out == "2\n"

    def test_kstruve_at_zero(self):
        code, out, _ = run_cli("eval", "kstruve", "--nu", "1", "--c", "1", "--k", "1", "--x", "0")
        assert code == 0
        assert out.splitlines()[0] == "0"

    def test_struve_h_reports_diagnostics(self):
        code, out, _ = run_cli("eval", "struve_h", "--nu", "0", "--x", "1")
        assert code == 0
        lines = out.splitlines()
        assert float(lines[0]) == pytest.approx(0.5686566270482879, rel=1e-11)
        assert lines[1].startswith("error_bound=")
        assert "terms_used=" in lines[1]

    def test_wright_exponential(self):
        code, out, _ = run_cli(
            "eval", "wright", "--upper", "1", "1", "--lower", "1", "1", "--z", "1"
        )
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(math.e, rel=1e-12)


class TestExitCodes:
    def test_usage_error(self):
        code, _, err = run_cli("verify", "lemma9")
        assert code == 1
        assert err != ""

    def test_missing_required_params_is_usage(self):
        code, _, err = run_cli("verify", "theorem1")  # no grid, no point
        assert code == 1

    def test_domain_error(self):
        code, _, err = run_cli("eval", "gamma", "--", "-1")
        assert code == 2
        assert "error" in err

    def test_pole_is_domain_class(self):
        code, _, _ = run_cli(
            "eval", "wright", "--upper", "1", "1", "--lower", "0", "1", "--z", "0.5"
        )
        assert code == 2

    def test_convergence_error(self):
        code, _, err = run_cli(
            "eval", "kstruve", "--nu", "0", "--c", "1", "--k", "1", "--x", "1e8"
        )
        assert code == 3

    def test_verification_failure(self):
        # threshold below the quadrature noise floor: INCONCLUSIVE, exit 4
        code, out, _ = run_cli(
            "verify", "theorem1", "--alpha", "1", "--mu", "0.5", "--nu", "2",
            "--threshold", "1e-15", "--format", "json",
        )
        assert code == 4
        first = json.loads(out.splitlines()[0])
        assert first["verdict"] == "INCONCLUSIVE"


class TestVerify:
    def test_lavoie_single_point(self):
        code, out, _ = run_cli("verify", "lavoie", "--alpha", "1", "--beta", "1")
        assert code == 0
        assert "BOTH_AGREE" in out

    def test_lavoie_tiny_exponents_confirm(self):
        # tanh-sinh overflowed on x**(alpha - 1) near x = 5e-324 here
        code, out, _ = run_cli("verify", "lavoie", "--alpha", "0.001", "--beta", "0.001")
        assert code == 0
        assert "BOTH_AGREE" in out

    def test_lavoie_underflowing_closed_form_is_a_convergence_error(self):
        # (2/3)**2000 makes both sides 0.0, which confirms nothing
        code, out, err = run_cli("verify", "lavoie", "--alpha", "1000", "--beta", "1")
        assert code == 3
        assert out == "" and "outside the normal double range" in err

    def test_overflowing_integrand_is_recorded(self):
        code, out, _ = run_cli(
            "verify", "theorem1", "--alpha", "0.002", "--mu", "0.0005", "--nu", "2",
            "--relaxed", "--format", "json",
        )
        assert code == 4
        rec = json.loads(out.splitlines()[0])
        assert rec["verdict"] == "INCONCLUSIVE"
        assert rec["error"].startswith("NonFiniteSampleError: integrand overflowed")

    def test_lavoie_requires_both_parameters(self):
        code, _, _ = run_cli("verify", "lavoie", "--alpha", "1")
        assert code == 1

    def test_single_point_json_record(self):
        code, out, _ = run_cli(
            "verify", "theorem2", "--alpha", "1", "--mu", "0.5", "--nu", "2",
            "--c", "1", "--k", "1", "--y", "1", "--format", "json",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2  # one record + summary
        rec = json.loads(lines[0])
        assert rec["identity"] == "theorem2"
        assert rec["verdict"] == "CONFIRMED_CORRECTED"
        assert rec["rel_dev_paper"] > 1e-3
        summary = json.loads(lines[1])["summary"]
        assert summary == {
            "total": 1,
            "verdicts": {"CONFIRMED_CORRECTED": 1},
            "all_confirmed": True,
        }

    def test_json_round_trips_exactly(self):
        p = TheoremParams(alpha=1.0, mu=0.5, nu=2.0, c=1.0, k=1.0, y=1.0)
        expected = record("theorem1", {"alpha": 1.0, "mu": 0.5, "nu": 2.0,
                                       "c": 1.0, "k": 1.0, "y": 1.0},
                          verify("theorem1", p))
        code, out, _ = run_cli(
            "verify", "theorem1", "--alpha", "1", "--mu", "0.5", "--nu", "2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out.splitlines()[0]) == expected

    def test_default_grid_runs_24_points(self):
        code, out, _ = run_cli("verify", "theorem1", "--grid", "default", "--format", "json")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 25
        assert json.loads(lines[-1])["summary"]["total"] == 24

    def test_determinism_bytes(self):
        runs = [
            run_cli("verify", "theorem1", "--grid", "default", "--format", "json")
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

    def test_corollary2_defaults_to_negative_c(self):
        code, out, _ = run_cli(
            "verify", "corollary2", "--alpha", "1", "--mu", "0.25", "--nu", "2",
            "--format", "json",
        )
        assert code == 0
        rec = json.loads(out.splitlines()[0])
        assert rec["params"]["c"] == -1.0
        assert rec["verdict"] == "CONFIRMED_CORRECTED"

    def test_table_format_has_summary(self):
        code, out, _ = run_cli(
            "verify", "corollary1", "--grid", "default", "--format", "table"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("identity")
        assert lines[-1].startswith("summary: 6 points")
        assert lines[-1].endswith("-> ok")

    def test_csv_format_parses(self):
        code, out, _ = run_cli(
            "verify", "theorem2", "--alpha", "1", "--mu", "0.5", "--nu", "2",
            "--format", "csv",
        )
        assert code == 0
        header, row = out.splitlines()
        assert header.split(",")[:7] == ["identity", "alpha", "mu", "nu", "c", "k", "y"]
        cells = row.split(",")
        assert cells[0] == "theorem2"
        assert math.isfinite(float(cells[7]))  # lhs column round-trips

    def test_out_into_a_missing_directory_is_a_usage_error(self, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(
            "verify", "lavoie", "--alpha", "1", "--beta", "2", "--out", str(target)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and "--out" in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv, stray",
        [
            (("theorem1", "--grid", "default", "--alpha", "7"), "--alpha"),
            (("corollary1", "--grid", "default", "--y", "2"), "--y"),
            (("theorem2", "--grid", "default", "--beta", "1"), "--beta"),
            (("lavoie", "--alpha", "1", "--beta", "1", "--mu", "1"), "--mu"),
            (("lavoie", "--alpha", "1", "--beta", "1", "--nu", "2"), "--nu"),
            (("lavoie", "--alpha", "1", "--beta", "1", "--c", "1"), "--c"),
            (("lavoie", "--alpha", "1", "--beta", "1", "--k", "1"), "--k"),
            (("lavoie", "--alpha", "1", "--beta", "1", "--y", "1"), "--y"),
            (("lavoie", "--alpha", "1", "--beta", "1", "--grid", "default"), "--grid"),
            (("theorem1", "--alpha", "1", "--mu", "0.5", "--nu", "2", "--beta", "1"), "--beta"),
            (("corollary2", "--alpha", "1", "--mu", "0.5", "--nu", "2", "--beta", "1"), "--beta"),
            (("lavoie", "--alpha", "1", "--beta", "1", "--threshold", "1e-300"), "--threshold"),
            (("lavoie", "--alpha", "1", "--beta", "1", "--relaxed"), "--relaxed"),
        ],
    )
    def test_ignored_flag_is_a_usage_error(self, argv, stray):
        code, out, err = run_cli("verify", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and stray in err

    def test_explicit_y_of_one_matches_the_default(self):
        argv = ("verify", "theorem1", "--alpha", "1", "--mu", "0.5", "--nu", "2", "--format", "csv")
        assert run_cli(*argv, "--y", "1") == run_cli(*argv)

    def test_explicit_threshold_of_1e6_matches_the_default(self):
        argv = ("verify", "theorem1", "--alpha", "1", "--mu", "0.5", "--nu", "2", "--format", "csv")
        assert run_cli(*argv, "--threshold", "1e-6") == run_cli(*argv)

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            "verify", "lavoie", "--alpha", "1", "--beta", "2",
            "--format", "json", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text().splitlines()[0])["identity"] == "lavoie"

    def test_relaxed_flag(self):
        code, out, _ = run_cli(
            "verify", "theorem1", "--alpha", "1", "--mu", "0.5", "--nu", "1",
            "--relaxed", "--format", "json",
        )
        assert code == 0
        rec = json.loads(out.splitlines()[0])
        assert rec["strict"] is False

    @pytest.mark.parametrize("which, c", [("theorem1", "1"), ("theorem2", "-1")])
    def test_tiny_y_under_a_negative_power_reports(self, which, c):
        # (y/2)**2 underflows to 0 while the leading term (y/2)**-0.2 stays in range
        code, out, _ = run_cli(
            "verify", which, "--alpha", "1.3", "--mu", "0.15", "--nu", "-1.2", "--c", c,
            "--k", "1", "--y", "1e-170", "--relaxed", "--format", "json",
        )
        assert code == 0
        rec = json.loads(out.splitlines()[0])
        assert rec["verdict"] == "CONFIRMED_CORRECTED"

    def test_strict_rejects_weak_nu(self):
        # grid points never abort the run; the violation lands in the record
        code, out, _ = run_cli(
            "verify", "theorem1", "--alpha", "1", "--mu", "0.5", "--nu", "1",
            "--format", "json",
        )
        assert code == 4
        rec = json.loads(out.splitlines()[0])
        assert rec["verdict"] == "INCONCLUSIVE"
        assert rec["error"].startswith("DomainError")


class TestGridCommand:
    def test_default_plan_covers_every_identity(self):
        code, out, _ = run_cli("grid", "--format", "json")
        assert code == 0
        lines = out.splitlines()
        assert json.loads(lines[-1])["summary"]["total"] == 60
        identities = {json.loads(line)["identity"] for line in lines[:-1]}
        assert identities == set(IDENTITIES)

    def test_default_output_is_byte_identical_to_the_golden_file(self, monkeypatch):
        # every value, bound and verdict of the 60 default points, to the last digit
        monkeypatch.delenv(CONFIG_ENV, raising=False)
        golden = (Path(__file__).parent / "data" / "default_grids.jsonl").read_text()
        code, out, _ = run_cli("grid", "--format", "json")
        assert code == 0
        assert out == golden

    @pytest.mark.parametrize("which", IDENTITIES)
    def test_empty_section_expands_to_the_default_grid(self, which, tmp_path):
        cfg = tmp_path / "grid.ini"
        cfg.write_text(f"[{which}]\n")
        assert _parse_config(str(cfg)) == [(which, default_grid(which))]

    def test_corollary_section_without_nu_runs_at_the_pinned_nu(self, tmp_path):
        cfg = tmp_path / "grid.ini"
        cfg.write_text("[corollary2]\nalpha = 1\nmu = 0.25\n")
        code, out, _ = run_cli("grid", "--config", str(cfg), "--format", "json")
        assert code == 0
        params = [json.loads(line)["params"] for line in out.splitlines()[:-1]]
        assert params == [{"alpha": 1.0, "mu": 0.25, "nu": 2.0, "c": -1.0, "k": 1.0, "y": 1.0}]

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("[theorem1]\nalpha = 1\n[theorem1]\nmu = 1\n", "already exists"),
            ("[theorem1]\nalpha = 1\nalpha = 2\n", "already exists"),
            ("alpha = 1\n", "no section headers"),
        ],
        ids=["duplicate-section", "duplicate-key", "no-section-header"],
    )
    def test_malformed_config_is_a_usage_error(self, text, reason, tmp_path):
        cfg = tmp_path / "grid.ini"
        cfg.write_text(text)
        code, out, err = run_cli("grid", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and reason in err

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "grid.ini"
        cfg.write_text(
            "[corollary1]\nalpha = 1, 2\nmu = 0.25\nnu = 2\n"
            "[theorem2]\nalpha = 1\nmu = 0.5\nnu = 2\nc = 1\nk = 1\n"
        )
        code, out, _ = run_cli("grid", "--config", str(cfg), "--format", "json")
        assert code == 0
        lines = out.splitlines()
        assert json.loads(lines[-1])["summary"]["total"] == 3
        assert json.loads(lines[0])["identity"] == "corollary1"

    def test_config_via_environment(self, tmp_path, monkeypatch):
        cfg = tmp_path / "grid.ini"
        cfg.write_text("[theorem1]\nalpha = 1\nmu = 0.5\nnu = 2\nc = 1\nk = 1\n")
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
        code, out, _ = run_cli("grid", "--format", "json")
        assert code == 0
        assert json.loads(out.splitlines()[-1])["summary"]["total"] == 1

    def test_missing_config_file(self):
        code, _, err = run_cli("grid", "--config", "/nonexistent/grid.ini")
        assert code == 1

    def test_undecodable_config_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "grid.ini"
        cfg.write_bytes(b"[theorem1]\nalpha = \xff\xfe\n")
        code, out, err = run_cli("grid", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ")

    def test_lavoie_section_rejected(self, tmp_path):
        cfg = tmp_path / "grid.ini"
        cfg.write_text("[lavoie]\nalpha = 1\n")
        code, _, err = run_cli("grid", "--config", str(cfg))
        assert code == 1
        assert "lavoie" in err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "grid.ini"
        cfg.write_text("[theorem1]\nbeta = 1\n")
        code, _, _ = run_cli("grid", "--config", str(cfg))
        assert code == 1

    def test_non_numeric_value_rejected(self, tmp_path):
        cfg = tmp_path / "grid.ini"
        cfg.write_text("[theorem1]\nalpha = fast\n")
        code, _, _ = run_cli("grid", "--config", str(cfg))
        assert code == 1

    def test_grid_cap_enforced(self, tmp_path):
        cfg = tmp_path / "grid.ini"
        values = ", ".join(str(2.0 + i) for i in range(25))
        cfg.write_text(
            f"[theorem1]\nalpha = {values}\nmu = {values}\nnu = {values}\nc = 1\nk = 1\n"
        )
        code, _, err = run_cli("grid", "--config", str(cfg))
        assert code == 1
        assert "limit" in err


class TestRunConfig:
    """A run's settings are checked before any point runs: a bad one is a usage error."""

    POINT = ("verify", "theorem1", "--alpha", "1", "--mu", "0.5", "--nu", "2")

    def test_valid(self):
        # the defaults are tol 1e-10, threshold 1e-6 and the strict hypotheses
        code, out, _ = run_cli(*self.POINT, "--format", "json")
        assert code == 0 and json.loads(out.splitlines()[0])["strict"] is True
        explicit = run_cli(*self.POINT, "--format", "json", "--tol", "1e-10", "--threshold", "1e-6")
        assert explicit == (code, out, "")

    def test_unknown_identity(self, tmp_path):
        cfg = tmp_path / "grid.ini"
        cfg.write_text("[theorem3]\nalpha = 1\n")
        code, out, err = run_cli("grid", "--config", str(cfg))
        assert code == 1
        assert out == "" and "[theorem3]" in err

    def test_point_cap(self, tmp_path):
        cfg = tmp_path / "grid.ini"
        alphas = ", ".join(str(1.0 + i / 10000.0) for i in range(10001))
        cfg.write_text(f"[theorem1]\nalpha = {alphas}\nmu = 0.5\nnu = 2\nk = 1\n")
        code, out, err = run_cli("grid", "--config", str(cfg))
        assert code == 1
        assert out == "" and "10001 points (limit 10000)" in err

    @pytest.mark.parametrize("field", ["tol", "threshold"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_tolerances_must_be_positive(self, field, value):
        forms = [self.POINT, ("verify", "lavoie", "--alpha", "1", "--beta", "1"), ("grid",)]
        if field == "tol":
            forms.append(("eval", "struve_h", "--nu", "0", "--x", "1"))
        for form in forms:
            code, out, err = run_cli(*form, f"--{field}", repr(value))
            assert code == 1, form
            assert out == "" and err.startswith(f"usage error: argument --{field}: ")


class TestModuleEntry:
    """``python -m kstruve.cli`` runs clean: the package does not load the CLI."""

    @staticmethod
    def env():
        src = str(Path(kstruve.__file__).resolve().parent.parent)
        return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

    def run_python(self, *argv):
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=self.env(), timeout=60)

    def test_module_entry_has_no_warning(self):
        proc = self.run_python("-W", "error", "-m", "kstruve.cli", "eval", "struve_h", "--nu", "2", "--x", "1")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout

    def test_import_leaves_the_cli_unloaded(self):
        proc = self.run_python("-c", "import sys, kstruve; print('kstruve.cli' in sys.modules)")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    def test_reader_closing_the_pipe_exits_141_without_a_traceback(self, tmp_path):
        # 3,000 points that fail the strict hypotheses at once print about
        # 1 MB, far more than a pipe holds, so the CLI is still writing when
        # the reader leaves after one line
        config = tmp_path / "grid.ini"
        config.write_text(
            "[theorem1]\nalpha = 1 2 3 4 5 6 7 8 9 10\nmu = 1 2 3 4 5 6 7 8 9 10\n"
            "nu = 1 1.25\nk = 1 1.5 2 2.5 3\ny = 1 2 3\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "kstruve.cli", "grid", "--config", str(config), "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
        assert json.loads(first)["identity"] == "theorem1"
        assert err == ""
