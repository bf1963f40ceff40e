import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deltoid_lab import report as report_module
from deltoid_lab.cli import build_parser, load_config_file, main
from deltoid_lab.hypergroup import MarkovMatrix
from deltoid_lab.models import ThetaPair
from deltoid_lab.report import (
    IdentityEntry,
    VerificationReport,
    deltoid_svg,
    emit_report,
    markov_matrices_to_csv,
    theta_coverage_svg,
)

GOLDEN = Path(__file__).parent / "golden"


# sha256 of the CSV and of the verdict that `markov --lambda 11/2 --samples
# 5000 --theta-grid 2` writes, recorded under numpy 2.4.6 like the report digest.
MARKOV_CSV_SHA256 = "3c2eadc0430a2fc031b3031c557c3339a4419498cd5ecedeb97ce45c84b5f85c"
MARKOV_VERDICT_SHA256 = "36e9af91a7ecad802cc89d72f6c352906f3c8fa86a4d69b82d4fa5b0daadf6f2"
# sha256 of `eigen --lambda 17/5 --degree-max 8`, a parameter and degree the
# golden file does not cover; the same under every PYTHONHASHSEED tried.
EIGEN_17_5_DEGREE8_SHA256 = "01b6a034e33f233b5639155d06e38fe6b4f9ed234b8b9640f3727ebf4f96e7fc"


def markov_matrices_from_csv(text: str) -> list[dict]:
    """Read back the rows markov_matrices_to_csv writes."""
    out = []
    for row in csv.DictReader(io.StringIO(text)):
        out.append({
            "n": int(row["n"]),
            "k": int(row["k"]),
            "theta": (float(row["theta1"]), float(row["theta2"])),
            "alpha": float(row["alpha"]),
            "beta": float(row["beta"]),
            "gamma": float(row["gamma"]),
            "delta": float(row["delta"]),
            "provenance": row["provenance"],
        })
    return out


class TestReport:
    def test_entry_status_validated(self):
        with pytest.raises(ValueError):
            IdentityEntry("x", "y", "unknown-status")

    def test_duplicate_registration_rejected(self):
        report = VerificationReport(config={}, anchors={"a": "anchor"})
        assert report.add("a", "proven-exact").anchor == "anchor"
        with pytest.raises(ValueError):
            report.add("a", "proven-exact")

    def test_unregistered_name_rejected(self):
        report = VerificationReport(config={}, anchors={"a": "anchor"})
        with pytest.raises(ValueError, match="not registered"):
            report.add("b", "proven-exact")
        assert report.entries == []

    def test_exit_code_logic(self):
        report = VerificationReport(config={}, anchors={"a": "x", "b": "y"})
        report.add("a", "numeric-pass")
        assert report.exit_code() == 0
        report.add("b", "numeric-fail")
        assert report.exit_code() == 1
        # A report without exact failures keeps the summary keys it always had.
        assert set(report.to_jsonable()["summary"]) == {"total", "discrepancy-noted", "numeric-fail"}

    def test_exact_failure_outranks_numeric_failure(self):
        report = VerificationReport(config={}, anchors={"a": "x", "b": "y", "c": "z"})
        report.add("a", "numeric-fail")
        report.add("b", "exact-fail", "witness")
        report.add("c", "numeric-pass")
        assert report.exit_code() == 2
        summary = report.to_jsonable()["summary"]
        assert summary["exact-fail"] == 1 and summary["numeric-fail"] == 1

    def test_emission_deterministic(self, tmp_path):
        report = VerificationReport(config={"seed": 1}, anchors={"a": "x"})
        report.add("a", "proven-exact", "details")
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        emit_report(report, str(p1))
        emit_report(report, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestMarkovCsv:
    def test_round_trip(self):
        m = MarkovMatrix(
            2, 1, ThetaPair(1.0, 2.0), 0.5, -0.25, 0.25, 0.5,
            {"alpha": ("exact", 0.0), "beta": ("exact", 0.0),
             "gamma": ("exact", 0.0), "delta": ("exact", 0.0)},
        )
        text = markov_matrices_to_csv([m])
        (row,) = markov_matrices_from_csv(text)
        assert row["n"] == 2 and row["k"] == 1
        assert row["alpha"] == 0.5 and row["beta"] == -0.25
        assert row["theta"] == (1.0, 2.0)
        assert row["provenance"] == "exact"


class TestSvg:
    def test_deltoid_curve_content(self):
        text = deltoid_svg(samples=720)
        assert text.startswith("<?xml")
        # one path with 720 sampled points, three cusp markers
        assert text.count("circle") == 3
        path = next(line for line in text.splitlines() if line.startswith("<path"))
        assert path.count("L") == 719  # M + 719 L commands

    def test_cusp_positions_marked(self, monkeypatch):
        monkeypatch.setattr(report_module, "SVG_SIZE", 200)
        text = deltoid_svg()
        # cusp at Z = 1 maps to pixel x = (1 + 1.15)/2.3 * 200
        expected_x = (1.0 + 1.15) / 2.3 * 200
        assert f'cx="{expected_x:.3f}"' in text

    def test_coverage_svg(self):
        text = theta_coverage_svg(theta_per_axis=20)
        assert text.count("circle") == 400

    def test_deterministic(self):
        assert deltoid_svg() == deltoid_svg()


class TestConfigFile:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("seed = 7\n# comment\ngrid_n = 32  # inline\n")
        assert load_config_file(str(cfg)) == {"seed": "7", "grid_n": "32"}

    def test_bad_line(self, tmp_path):
        from deltoid_lab.cli import UsageError

        cfg = tmp_path / "verify.cfg"
        cfg.write_text("this is not a config\n")
        with pytest.raises(UsageError):
            load_config_file(str(cfg))


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        assert main(["eigen", "--lambda", "zero/0"]) == 3
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eigen", "--lambda", "0"],
        ["eigen", "--lambda", "-2"],
        ["gram", "--lambda", "1/2"],
        ["markov", "--lambda", "4"],
    ], ids=["eigen-zero", "eigen-negative", "gram-below-one", "markov-below-eleven-halves"])
    def test_out_of_range_lambda_exit_code(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage error: --lambda") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sample", "omega1", "--lambda", "2", "--n", "10"],
        ["sample", "omega1", "--lambda", "5/2", "--method", "mcmc", "--n", "10"],
        ["sample", "omega1", "--lambda", "4", "--n", "10"],
        ["plot", "eigen", "--lambda", "0"],
    ], ids=["sample-two", "sample-mcmc-five-halves", "sample-rejection-four",
            "plot-eigen-zero"])
    def test_out_of_range_lambda_for_samplers_and_plots(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage error: --lambda") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["eigen", "--lambda", "7/3", "--degree-max", "-1"],
        ["gram", "--lambda", "4", "--degree-max", "-1"],
        ["gram", "--lambda", "4", "--grid", "0"],
        ["markov", "--lambda", "11/2", "--degree-max", "0"],
        ["markov", "--lambda", "11/2", "--n", "0"],
        ["markov", "--lambda", "11/2", "--samples", "1"],
        ["markov", "--lambda", "11/2", "--theta-grid", "0"],
        ["sample", "torus", "--n", "0"],
        ["plot", "eigen", "--k", "-1"],
        ["plot", "deltoid", "--samples", "0"],
        ["plot", "deltoid", "--samples", "2"],
        ["plot", "coverage", "--theta-grid", "0"],
        ["verify", "--theta-per-axis", "0"],
        ["verify", "--grid-n", "8"],
        ["verify", "--eigen-degree-max", "0"],
        ["verify", "--torus-samples", "1"],
        ["verify", "--torus-samples", "999"],
        ["verify", "--su3-samples", "999"],
        ["verify", "--omega1-samples", "999"],
        ["verify", "--seed", "-30"],
        ["markov", "--lambda", "11/2", "--seed", "-1"],
        ["sample", "torus", "--n", "10", "--seed", "-1"],
    ], ids=["eigen-degree", "gram-degree", "gram-grid", "markov-degree", "markov-n",
            "markov-samples", "markov-theta-grid", "sample-n", "plot-k",
            "plot-samples-zero", "plot-samples-two", "plot-theta-grid",
            "verify-theta-per-axis", "verify-grid-n", "verify-eigen-degree",
            "verify-torus-samples", "verify-torus-samples-999", "verify-su3-samples-999",
            "verify-omega1-samples-999", "verify-seed", "markov-seed", "sample-seed"])
    def test_out_of_range_size_exit_code(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage error: --") and err.count("\n") == 1
        assert "must be at least" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,option", [
        (["verify"], "--out"),
        (["eigen", "--lambda", "7/3"], "--out"),
        (["gram", "--lambda", "4"], "--out"),
        (["markov", "--lambda", "11/2"], "--out"),
        (["markov", "--lambda", "11/2"], "--verdict"),
        (["sample", "torus", "--n", "10"], "--out"),
        (["plot", "deltoid"], "--out"),
    ], ids=["verify", "eigen", "gram", "markov-out", "markov-verdict", "sample", "plot"])
    def test_output_in_missing_directory(self, argv, option, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("deltoid_lab.verify.run_verify", lambda config: pytest.fail("ran"))
        out = tmp_path / "missing" / "out"
        assert main([*argv, option, str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {option} ") and err.count("\n") == 1
        assert not out.parent.exists()

    def test_output_path_is_a_directory(self, tmp_path, capsys):
        assert main(["eigen", "--lambda", "7/3", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage error: --out") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,message", [
        (["--k", "2"], "--k needs --n"),
        (["--n", "1", "--degree-max", "9"], "--degree-max and --n exclude each other"),
    ], ids=["k-without-n", "n-with-degree-max"])
    def test_markov_conflicting_options(self, argv, message, tmp_path, capsys):
        out = tmp_path / "verdict.json"
        assert main(["markov", "--lambda", "11/2", *argv, "--verdict", str(out)]) == 3
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    def test_sample_refusal_is_one_line(self, tmp_path, capsys):
        out = tmp_path / "omega1.csv"
        assert main(["sample", "omega1", "--method", "mcmc", "--lambda", "3", "--n", "1000",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("sampling refused: MCMC effective sample size")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "eigen.json"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run(
            [sys.executable, "-m", "deltoid_lab", "eigen", "--lambda", "7/3",
             "--degree-max", "1", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(out.read_text())["lambda"] == "7/3"

    def test_calls_in_one_process_write_what_fresh_processes_write(self, tmp_path, capsys):
        # The parser and the Gamma memo live as long as the process; a later
        # call must write the bytes a fresh process writes, and a usage error
        # after a successful call still exits 3.
        runs = [["eigen", "--lambda", "7/3", "--degree-max", "8"],
                ["eigen", "--lambda", "17/5", "--degree-max", "8"],
                ["gram", "--lambda", "4", "--degree-max", "3", "--grid", "32"]]
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        for i, argv in enumerate(runs):
            assert main([*argv, "--out", str(tmp_path / f"in_process{i}.json")]) == 0
            fresh = str(tmp_path / f"fresh{i}.json")
            done = subprocess.run([sys.executable, "-m", "deltoid_lab", *argv, "--out", fresh],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            assert ((tmp_path / f"in_process{i}.json").read_bytes()
                    == (tmp_path / f"fresh{i}.json").read_bytes())
        capsys.readouterr()
        assert main(["eigen", "--lambda", "7/3", "--degree-max", "x"]) == 3
        assert main(["eigen", "--lambda", "0"]) == 3
        assert capsys.readouterr().err.count("usage error:") == 2
        assert build_parser() is build_parser()

    def test_eigen_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "eigen.json"
        assert main(["eigen", "--lambda", "7/3", "--degree-max", "4", "--out", str(out)]) == 0
        got = json.loads(out.read_text())
        expected = json.loads((GOLDEN / "eigen_degree4_lambda_7_3.json").read_text())
        assert got == expected

    def test_eigen_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "eigen.json"
        assert main(["eigen", "--lambda", "17/5", "--degree-max", "8", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == EIGEN_17_5_DEGREE8_SHA256

    def test_gram_cli(self, tmp_path):
        out = tmp_path / "gram.json"
        assert main([
            "gram", "--lambda", "4", "--degree-max", "2", "--grid", "32",
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["labels"][0] == "P10"
        assert float(doc["max_offdiagonal"]) < 1e-8

    def test_sample_cli_csv(self, tmp_path):
        out = tmp_path / "torus.csv"
        assert main(["sample", "torus", "--n", "50", "--seed", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t1,t2"
        assert len(lines) == 51

    def test_sample_cli_npz(self, tmp_path):
        out = tmp_path / "omega1.npz"
        assert main([
            "sample", "omega1", "--lambda", "11/2", "--n", "100", "--seed", "5",
            "--format", "npz", "--out", str(out),
        ]) == 0
        data = np.load(out)
        assert set(data.files) == {"re1", "im1", "re2", "im2", "re3", "im3"}
        assert len(data["re1"]) == 100

    def test_sample_npz_writes_exactly_out(self, tmp_path, capsys):
        out = tmp_path / "pts"
        assert main(["sample", "torus", "--n", "5", "--format", "npz", "--out", str(out)]) == 0
        assert os.listdir(tmp_path) == ["pts"]
        assert capsys.readouterr().out == f"wrote 5 torus samples to {out}\n"
        data = np.load(out)
        assert set(data.files) == {"t1", "t2"} and len(data["t1"]) == 5

    def test_markov_cli(self, tmp_path):
        csv_out = tmp_path / "markov.csv"
        verdict_out = tmp_path / "verdict.json"
        code = main([
            "markov", "--lambda", "11/2", "--n", "1", "--k", "0",
            "--theta-grid", "2", "--samples", "20000", "--seed", "9",
            "--out", str(csv_out), "--verdict", str(verdict_out),
        ])
        assert code == 0
        rows = markov_matrices_from_csv(csv_out.read_text())
        exact = [r for r in rows if r["provenance"] == "exact"]
        estimated = [r for r in rows if r["provenance"] == "estimated"]
        assert len(exact) == len(estimated) > 0
        verdict = json.loads(verdict_out.read_text())
        assert verdict["pass"] is True

    def test_markov_cli_output_is_pinned(self, tmp_path):
        csv_out, verdict_out = tmp_path / "markov.csv", tmp_path / "verdict.json"
        assert main(["markov", "--lambda", "11/2", "--samples", "5000", "--theta-grid", "2",
                     "--out", str(csv_out), "--verdict", str(verdict_out)]) == 0
        assert hashlib.sha256(csv_out.read_bytes()).hexdigest() == MARKOV_CSV_SHA256
        assert hashlib.sha256(verdict_out.read_bytes()).hexdigest() == MARKOV_VERDICT_SHA256

    def test_sample_cli_su3_is_special_unitary(self, tmp_path):
        out = tmp_path / "su3.csv"
        assert main(["sample", "su3", "--n", "50", "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert header.split(",") == [f"{part}{i}" for i in range(9) for part in ("re", "im")]
        values = np.array([[float(v) for v in row.split(",")] for row in rows])
        g = (values[:, 0::2] + 1j * values[:, 1::2]).reshape(50, 3, 3)
        unitarity = np.einsum("nij,nik->njk", g.conj(), g) - np.eye(3)
        assert np.max(np.abs(unitarity)) < 1e-14
        assert np.max(np.abs(np.linalg.det(g) - 1.0)) < 1e-14

    def test_plot_eigen(self, tmp_path):
        out = tmp_path / "eigen.svg"
        assert main(["plot", "eigen", "--lambda", "4", "--n", "2", "--k", "0",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("<?xml")


class TestVerifyCli:
    FAST = [
        "--torus-samples", "20000", "--su3-samples", "20000",
        "--omega1-samples", "5000", "--eigen-degree-max", "3",
    ]

    @pytest.fixture(scope="class")
    def negative_control_run(self, tmp_path_factory):
        """One FAST negative-control verify: (exit code, stdout, report JSON)."""
        out = tmp_path_factory.mktemp("negative_control") / "report.json"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["verify", "--negative-control", *self.FAST, "--out", str(out)])
        return code, stdout.getvalue(), json.loads(out.read_text())

    def test_negative_control_exits_two(self, negative_control_run):
        code, stdout, _ = negative_control_run
        assert code == 2
        assert "EXACT IDENTITY FAILURE" in stdout
        assert "deltoid.metric_determinant" in stdout

    def test_negative_control_report_names_the_failure(self, negative_control_run):
        from deltoid_lab.verify import IDENTITY_MANIFEST

        code, stdout, doc = negative_control_run
        assert code == 2
        entries = {e["name"]: e for e in doc["entries"]}
        assert len(doc["entries"]) == 54 and set(entries) == {n for n, _ in IDENTITY_MANIFEST}
        failed = entries["deltoid.metric_determinant"]
        assert failed["status"] == "exact-fail" and failed["details"].startswith("det = ")
        assert failed["details"] in stdout
        # The next symbolic identity still runs, and so do the later suites.
        assert entries["deltoid.boundary_cofactors"]["status"] == "proven-exact"
        assert entries["hypergroup.theta_coverage"]["status"] == "numeric-pass"
        assert doc["summary"]["exact-fail"] == 1 and doc["summary"]["total"] == 54

    def test_config_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(
            "torus_samples = 20000\nsu3_samples = 20000\n"
            "omega1_samples = 5000\neigen_degree_max = 3\n"
            "coverage_theta_n = 300\ncusp_grid_n = 200\n"
        )
        out = tmp_path / "report.json"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["discrepancy-noted"] == 3
        assert doc["summary"]["numeric-fail"] == 0
        # The report embeds the serialized reference models.
        assert set(doc["models"]) == {"deltoid", "sixdim", "g2"}
        assert doc["models"]["deltoid"]["drift"]["Z"] == "-7/3*Z"

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("bogus_key = 3\n")
        assert main(["verify", "--config", str(cfg)]) == 3

    def test_non_integer_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("seed = abc\n")
        assert main(["verify", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'seed'" in err and "'abc'" in err

    @pytest.mark.parametrize("line,key", [
        ("negative_control = maybe", "negative_control"),
        ("theta_per_axis = 0", "theta_per_axis"),
        ("selfadjoint_pairs = 1", "selfadjoint_pairs"),
        ("gram_degree_max = 0", "gram_degree_max"),
        ("probe_degree_max = 1", "probe_degree_max"),
        ("coverage_theta_n = 0", "coverage_theta_n"),
        ("coverage_omega_n = 0", "coverage_omega_n"),
        ("cusp_grid_n = 1", "cusp_grid_n"),
        ("cusp_grid_n = 4", "cusp_grid_n"),
        ("seed = -1", "seed"),
        ("torus_samples = 999", "torus_samples"),
        ("su3_samples = 999", "su3_samples"),
        ("omega1_samples = 999", "omega1_samples"),
    ])
    def test_bad_config_value(self, line, key, tmp_path, capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(line + "\n")
        assert main(["verify", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage error: config key") and err.count("\n") == 1
        assert repr(key) in err

    @pytest.mark.parametrize("content,message", [
        (None, "cannot read config file"),
        (b"seed = 3\n\xff\n", "is not UTF-8 text"),
        (b"seed = 3\nseed = 4\n", "config key 'seed' is set twice"),
    ], ids=["missing-file", "not-utf8", "duplicate-key"])
    def test_unusable_config_file(self, content, message, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("deltoid_lab.verify.run_verify", lambda config: pytest.fail("ran"))
        cfg = tmp_path / "v.cfg"
        if content is not None:
            cfg.write_bytes(content)
        assert main(["verify", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert message in err

    def test_boolean_config_spellings(self, tmp_path):
        from deltoid_lab.cli import _build_verify_config, build_parser

        cfg = tmp_path / "v.cfg"
        for text, expected in (("YES", True), ("1", True), ("False", False), ("no", False)):
            cfg.write_text(f"negative_control = {text}\n")
            args = build_parser().parse_args(["verify", "--config", str(cfg)])
            assert _build_verify_config(args).negative_control is expected


SCAN_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "hypergroup_scan.py"


def test_hypergroup_scan_script_runs():
    done = subprocess.run(
        [sys.executable, str(SCAN_SCRIPT), "--samples", "2000", "--theta-grid", "2",
         "--degree-max", "2"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "worst orthonormalized block bound" in done.stdout


def assert_one_line_usage_error(done):
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("usage error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("option, value", [
    ("--lambda", "4"),  # below the rejection sampler's 11/2
    ("--lambda", "abc"),  # not a rational number
    # Below the markov command's minimums (cli.SIZE_MINIMUMS).
    ("--degree-max", "0"),
    ("--degree-max", "-2"),
    ("--theta-grid", "0"),
    ("--samples", "1"),
    ("--seed", "-1"),
])
def test_hypergroup_scan_script_rejects_bad_input(option, value):
    # Each ends before any output, as the CLI does.
    done = subprocess.run([sys.executable, str(SCAN_SCRIPT), "--samples", "2000", option, value],
                          capture_output=True, text=True, timeout=120)
    assert_one_line_usage_error(done)


def test_full_verify_script_rejects_negative_seed(tmp_path):
    # Checked before any work: no verify run, no output directory.
    outdir = tmp_path / "full"
    done = subprocess.run([sys.executable, str(SCAN_SCRIPT.with_name("run_full_verify.py")),
                           "--fast", "--seed", "-1", "--outdir", str(outdir)],
                          capture_output=True, text=True, timeout=120)
    assert_one_line_usage_error(done)
    assert done.stderr == "usage error: --seed must be at least 0, got -1\n"
    assert not outdir.exists()


def test_full_verify_script_rejects_outdir_under_a_file(tmp_path):
    # An --outdir that cannot be created is refused before any verify run.
    blocker = tmp_path / "file"
    blocker.write_text("")
    outdir = blocker / "x"
    done = subprocess.run([sys.executable, str(SCAN_SCRIPT.with_name("run_full_verify.py")),
                           "--fast", "--outdir", str(outdir)],
                          capture_output=True, text=True, timeout=120)
    assert_one_line_usage_error(done)
    assert done.stderr == f"usage error: --outdir {outdir}: Not a directory\n"


# sha256 of `hypergroup_scan.py --samples 20000` standard output, recorded
# under numpy 2.4.6 like the report digest.
DEFAULT_SCAN_SHA256 = "bfc6ce05647cacaf4e2d1aff63d5a7d410c7c0760d8767ee90d592aa55efef04"


def test_hypergroup_scan_script_default_output_is_pinned():
    done = subprocess.run([sys.executable, str(SCAN_SCRIPT), "--samples", "20000"],
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == DEFAULT_SCAN_SHA256


def test_model_registry_matches_docs():
    from deltoid_lab.models import MODEL_REGISTRY

    docs = json.loads((Path(__file__).parent.parent / "docs" / "models.json").read_text())
    assert docs == {"models": MODEL_REGISTRY}


def test_manifest_matches_docs():
    from deltoid_lab.verify import IDENTITY_MANIFEST

    docs = json.loads((Path(__file__).parent.parent / "docs" / "identities.json").read_text())
    assert [(e["name"], e["anchor"]) for e in docs["identities"]] == list(IDENTITY_MANIFEST)
    names = [name for name, _ in IDENTITY_MANIFEST]
    anchors = [anchor for _, anchor in IDENTITY_MANIFEST]
    assert len(set(names)) == len(names) and len(set(anchors)) == len(anchors)


def test_each_identity_is_written_at_one_check_site():
    import ast

    from deltoid_lab import verify

    tree = ast.parse(Path(verify.__file__).read_text())
    literals = [node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    for name, anchor in verify.IDENTITY_MANIFEST:
        assert literals.count(name) == 2, name  # the manifest and the check site
        assert literals.count(anchor) == 1, anchor  # the manifest only
