"""CLI contract: parsing, sections per command, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from slices import point_block
from oneill_lab import cli, jets
from oneill_lab.cli import BUNDLED_DIR, RunConfig, cli_parse, main, resolve_model, run
from oneill_lab.contact import build_r2m1, space_form_data, space_form_r4_at, verify_sasakian
from oneill_lab.errors import DegenerateMetricError, ModelLoadError
from oneill_lab.expressions import compile_expression
from oneill_lab.invariants import analyze_point, identity_residuals
from oneill_lab.report import KNOWN_FLAGS, Tolerances, known_flags_for
from oneill_lab.riemannian import guards_pass, riemann_at
from oneill_lab.sampling import SampleConfig, sample_model_points, sample_submersion_points
from oneill_lab.submersion import verify_riemannian_submersion, verify_structure_lemmas

MODELS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "models")
REEB = os.path.join(MODELS_DIR, "reeb_fiber.json")


class TestParse:
    def test_report_flags_roundtrip(self):
        cfg = cli_parse(
            [
                "report",
                "--model",
                "vertical-xi",
                "--points",
                "200",
                "--seed",
                "7",
                "--out",
                "r.json",
            ]
        )
        assert cfg == RunConfig(
            command="report",
            model="vertical-xi",
            points=200,
            seed=7,
            out="r.json",
        )

    def test_theorem_list_parsed(self):
        cfg = cli_parse(["theorems", "--model", "vertical-xi", "--theorems", "V1,CRH1"])
        assert cfg.theorems == ("V1", "CRH1")

    def test_defaults(self):
        cfg = cli_parse(["verify"])
        assert cfg.points == 100
        assert cfg.seed == 42
        assert cfg.box == (-2.0, 2.0)
        assert cfg.theorems is None
        assert cfg.probe == "first"
        assert cfg.tolerances == Tolerances()

    @pytest.mark.parametrize("command", ["verify", "theorems", "report"])
    def test_every_default_is_run_configs(self, command):
        # the parser writes no default of its own
        assert cli_parse([command]) == RunConfig(command)

    def test_flags_parse_the_same_before_and_after_the_command(self):
        flags = ["--points", "7", "--box=-1,1", "--tol-d1", "1e-9", "--theorems", "V1"]
        flags += ["--probe", "all", "--no-timestamp", "--out", "r.json"]
        after = cli_parse(["theorems", *flags])
        assert cli_parse([*flags, "theorems"]) == after
        assert cli_parse([*flags[:3], "theorems", *flags[3:]]) == after
        assert after == RunConfig(
            command="theorems",
            points=7,
            box=(-1.0, 1.0),
            tolerances=Tolerances(d1=1e-9),
            theorems=("V1",),
            probe="all",
            out="r.json",
            no_timestamp=True,
        )

    def test_box_and_tolerance_overrides(self):
        cfg = cli_parse(["verify", "--box=-1.5,1.5", "--tol-curv", "1e-6"])
        assert cfg.box == (-1.5, 1.5)
        assert cfg.tolerances.curv == 1e-6

    @pytest.mark.parametrize(
        "argv",
        [
            ["theorems", "--model", "vertical-xi", "--theorems", "V9"],
            ["report", "--frobnicate"],
            ["report", "--points", "0"],
            ["report", "--box", "2,-2"],
            ["report", "--probe", "middle"],
            ["report", "--probe", "random:0"],
            ["frobnicate"],
            ["report", "--seed", "-1"],
            ["report", "--box=-inf,2"],
            ["report", "--box=0,inf"],
            ["report", "--box=-1e308,1e308"],
            ["report", "--tol-curv", "nan"],
            ["report", "--tol-curv", "-1"],
            ["report", "--tol-alg", "-inf"],
            ["verify", "--tol-alg", "inf"],
            ["report", "--tol-d2curv", "1e309"],
            ["verify", "--tol-d2curv", "-1e-300"],
            ["theorems", "--theorems", "V1,V1", "--points", "200"],
            ["verify", "--theorems", ","],
            ["report", "--theorems", "CRH1, CRH1"],
        ],
    )
    def test_usage_errors_exit_2(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()


class TestResolveModel:
    def test_builtins(self):
        assert resolve_model("vertical-xi").name == "vertical-xi"
        assert resolve_model("horizontal-xi").name == "horizontal-xi"
        assert resolve_model("r2m1:2").model.dim == 5

    def test_builtins_resolve_from_any_directory(self, tmp_path, monkeypatch):
        # bundled models ship inside the package, not in the working directory
        monkeypatch.chdir(tmp_path)
        assert resolve_model("vertical-xi").name == "vertical-xi"
        assert resolve_model("horizontal-xi").xi_case == "horizontal"

    def test_custom_file(self):
        assert resolve_model(REEB).name == "reeb-fiber"

    def test_failures(self):
        with pytest.raises(ModelLoadError):
            resolve_model("bogus-name")
        with pytest.raises(ModelLoadError):
            resolve_model("r2m1:0")
        # from m = 7 on one point's curvature arrays exceed a block's budget
        with pytest.raises(ModelLoadError):
            resolve_model("r2m1:7")
        with pytest.raises(ModelLoadError):
            resolve_model("r2m1:99999999999")
        with pytest.raises(ModelLoadError):
            resolve_model("missing-file.json")


class TestRunSections:
    def test_verify_has_no_theorem_section(self):
        rep = run(cli_parse(["verify", "--points", "3"]))
        assert rep.structure is not None
        assert rep.identities is not None
        assert rep.theorems is None
        assert rep.verdict == "pass"

    def test_theorems_has_only_theorem_section(self):
        rep = run(cli_parse(["theorems", "--points", "3"]))
        assert rep.structure is None
        assert rep.identities is None
        assert set(rep.theorems) == {"V1", "V2", "H1", "CRV1", "CRH1", "CMB1"}

    def test_report_has_all_sections(self):
        rep = run(cli_parse(["report", "--points", "3"]))
        assert rep.structure is not None
        assert rep.identities is not None
        assert rep.theorems is not None

    def test_r2m1_structure_only(self):
        rep = run(cli_parse(["report", "--model", "r2m1:2", "--points", "5"]))
        assert rep.identities is None
        assert rep.theorems is None
        assert rep.verdict == "pass"
        assert rep.structure["curvature"]["curv1"] <= 1e-7

    def test_crh1_variant_tallies_present(self):
        rep = run(cli_parse(["theorems", "--points", "2", "--theorems", "CRH1"]))
        entry = rep.theorems["CRH1"]
        assert set(entry["variants"]) == {"kappa=3/4", "kappa=3/8"}
        assert entry["surviving_variants"] == ["kappa=3/4", "kappa=3/8"]


def _replace_entry(block, row, col, entry):
    """An edit of model-file data that replaces one entry of a matrix block."""

    def edit(data):
        matrix = data["contact"][block] if block == "phi" else data[block]
        matrix[row][col] = entry
        return data

    return edit


def _contact_c(value):
    """An edit of model-file data that sets the contact block's ``c``."""
    return lambda d: {**d, "contact": {**d["contact"], "c": value}}


class TestExitCodes:
    def test_pass_is_0(self, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        assert main(["verify", "--points", "2", "--no-timestamp", "--out", out]) == 0
        capsys.readouterr()

    def test_flagged_model_is_3(self, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        code = main(
            ["report", "--model", "horizontal-xi", "--points", "3", "--out", out]
        )
        assert code == 3
        data = json.loads(open(out).read())
        assert data["verdict"] == "pass-with-flags"
        assert "theorems.H2" in data["failed"]
        assert data["structure"]["submersion"]["length"] > 1.0
        assert data["structure"]["submersion"]["base_pd_all"] is False
        capsys.readouterr()

    def test_unattainable_tolerance_is_1(self, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        code = main(
            ["verify", "--points", "2", "--tol-d1", "1e-30", "--out", out]
        )
        assert code == 1
        assert json.loads(open(out).read())["verdict"] == "fail"
        capsys.readouterr()

    def test_tol_alg_gates_the_algebraic_sasakian_checks(self, tmp_path, capsys):
        # phi_metric_compat is 1.67e-16 at seed 42, the other algebraic
        # residuals 0; the derivative laws (~1e-15) stay on the d1 tier
        out = tmp_path / "r.json"
        argv = ["verify", "--model", "r2m1:1", "--tol-alg", "0", "--out", str(out)]
        assert main(argv) == 1
        capsys.readouterr()
        rep = json.loads(out.read_text())
        assert rep["failed"] == ["sasakian.phi_metric_compat"]
        assert rep["structure"]["sasakian"]["reeb_derivative"] > 0.0

    def test_model_load_failure_is_4(self, capsys):
        assert main(["report", "--model", "bogus"]) == 4
        capsys.readouterr()

    def test_non_ascii_space_form_dimension_is_4(self, tmp_path, capsys):
        # "\u0661" is ARABIC-INDIC DIGIT ONE, a decimal digit outside ASCII
        out = tmp_path / "r.json"
        argv = ["verify", "--model", "r2m1:\u0661", "--points", "2", "--out", str(out)]
        assert main(argv) == 4
        assert "unknown model" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["r2m1:01", "r2m1:0001", "r2m1:00"])
    def test_space_form_dimension_with_leading_zeros_is_4(self, tmp_path, capsys, name):
        # r2m1:01 would run r2m1:1 but echo another model name, so one
        # computation would give two different reports
        out = tmp_path / "r.json"
        argv = ["verify", "--model", name, "--points", "2", "--out", str(out)]
        assert main(argv) == 4
        assert capsys.readouterr().err == f"error: unknown model: {name}\n"
        assert not out.exists()

    @pytest.mark.parametrize("probe", ["random:064", "random:01", "random:00"])
    def test_probe_count_with_leading_zeros_is_a_usage_error(self, tmp_path, capsys, probe):
        # random:064 would run the scan of random:64 but echo another probe
        # mode, so one computation would give two different reports
        out = tmp_path / "r.json"
        argv = ["theorems", "--points", "2", "--probe", probe, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"--probe expects first, all, or random:<k>, got {probe!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda d: [d], id="top-level-list"),
            pytest.param(lambda d: {**d, "metric": 5}, id="metric-5"),
            pytest.param(lambda d: {**d, "vertical": 3}, id="vertical-3"),
            pytest.param(_replace_entry("metric", 0, 0, "2**(-z)"), id="2**(-z)"),
            pytest.param(_replace_entry("metric", 0, 0, "z**(-z)"), id="z**(-z)"),
            # constant parts are evaluated at load: complex, overflow, 0**-1, inf
            pytest.param(_replace_entry("metric", 2, 2, "(-2)**0.5 + 0.25"), id="complex"),
            pytest.param(_replace_entry("metric", 2, 2, "10**400"), id="10**400"),
            pytest.param(_replace_entry("metric", 2, 2, "0**-1 + 1"), id="0**-1"),
            pytest.param(_replace_entry("metric", 2, 2, "1e308*10"), id="1e308*10"),
            # too deep for the compiler (1,000 terms) and for the parser (3,000)
            pytest.param(
                _replace_entry("metric", 2, 2, "0.25" + "+0*x1" * 1000), id="deep-1000"
            ),
            pytest.param(
                _replace_entry("metric", 2, 2, "0.25" + "+0*x1" * 3000), id="deep-3000"
            ),
            # c must be a finite real number: JSON's 1e400 loads as inf, as
            # Infinity does; an integer too large for a float; true is no number
            pytest.param(_contact_c("nan"), id="c-nan-string"),
            pytest.param(_contact_c("inf"), id="c-inf-string"),
            pytest.param(_contact_c(float("inf")), id="c-1e400"),
            pytest.param(_contact_c(10**400), id="c-10**400"),
            pytest.param(_contact_c(True), id="c-true"),
            pytest.param(_contact_c(None), id="c-null"),
            # a boolean literal is no number either, also as a JSON true
            # (read as the string "True"), an exponent or a guard
            pytest.param(_replace_entry("metric", 2, 2, "True"), id="True"),
            pytest.param(_replace_entry("metric", 2, 2, True), id="json-true"),
            pytest.param(_replace_entry("metric", 2, 2, "0.25+0*x1**True"), id="x1**True"),
            pytest.param(lambda d: {**d, "domain": True}, id="domain-json-true"),
            # a chart that repeats a name
            pytest.param(
                lambda d: {**d, "chart": ["x1", "x2", "y1", "y2", "x2"]}, id="chart-repeats"
            ),
            pytest.param(lambda d: {**d, "base_chart": ["b1", "b1"]}, id="base-chart-repeats"),
            # a metric is read from its upper triangle; the mirror must agree
            pytest.param(_replace_entry("metric", 1, 0, "5"), id="metric-asymmetric"),
            pytest.param(_replace_entry("base_metric", 1, 0, "1/4"), id="base-metric-asymmetric"),
            # the mirror of y1*y2/4 reassociated: its rounding may differ
            pytest.param(_replace_entry("metric", 1, 0, "y1*(y2/4)"), id="metric-reassociated"),
            pytest.param(_replace_entry("metric", 1, 0, "y1/4*y2"), id="metric-reordered"),
        ],
    )
    def test_malformed_model_file_is_4(self, edit, tmp_path, capsys):
        model = _vertical_xi_copy(tmp_path, edit)
        out = tmp_path / "r.json"
        argv = ["report", "--model", str(model), "--points", "3", "--out", str(out)]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load model file {model}: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    # y1*y1 and y1*y2 overflow to inf at |y| > 1e200
    @pytest.mark.parametrize("model", ["vertical-xi", "r2m1:1"])
    def test_non_finite_metric_is_7(self, model, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["verify", "--model", model, "--box", "1e200,1e201", "--points", "3"]
        assert main(argv + ["--out", str(out)]) == 7
        err = capsys.readouterr().err
        assert err.startswith("error: DegenerateMetricError: ")
        assert err.rstrip().endswith("entries not finite")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_overflowing_fractional_power_is_7(self, tmp_path, capsys):
        # (1 + z*z)**1.5 overflows at z > 1e150, where it is evaluated at once
        model = _vertical_xi_variant(tmp_path, "metric", 2, 2, "0.25+0*(1+z*z)**1.5")
        out = tmp_path / "r.json"
        argv = ["verify", "--model", str(model), "--box", "1e150,1e151", "--points", "3"]
        assert main(argv + ["--out", str(out)]) == 7
        err = capsys.readouterr().err
        assert err.startswith("error: SingularEvaluationError: fractional power ")
        assert err.rstrip().endswith("**1.5 overflows")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_failed_allocation_is_7(self, tmp_path, monkeypatch, capsys):
        # as numpy fails an array of random:1000000000000 probes; a test
        # must not ask for such an array, which an overcommitting host may grant
        def huge(*args, **kwargs):
            raise MemoryError("Unable to allocate 21.8 TiB for an array")

        monkeypatch.setattr(cli, "plan_scan", huge)
        out = tmp_path / "r.json"
        argv = ["theorems", "--points", "1", "--probe", "random:1000000000000"]
        assert main(argv + ["--out", str(out)]) == 7
        err = capsys.readouterr().err
        assert err == "error: MemoryError: Unable to allocate 21.8 TiB for an array\n"
        assert not out.exists()

    def test_exit_7_is_one_line_without_warnings(self):
        # in a fresh interpreter: pytest would capture numpy's RuntimeWarnings
        argv = ["verify", "--model", "vertical-xi", "--box", "1e200,1e201", "--points", "3"]
        proc = subprocess.run(
            [sys.executable, "-m", "oneill_lab", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 7
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: DegenerateMetricError: ")

    @pytest.mark.parametrize("ids", ["V1,V1", ","])
    def test_repeated_or_empty_theorem_list_is_2(self, ids, tmp_path, monkeypatch, capsys):
        # a usage error, found before the model is loaded
        def no_load(name):
            raise AssertionError(f"loaded {name}")

        monkeypatch.setattr(cli, "load_model", no_load)
        out = tmp_path / "r.json"
        argv = ["theorems", "--theorems", ids, "--points", "3", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: oneill-lab ")
        assert err.endswith(
            f"error: theorem ids must be distinct and at least one, got {ids!r}\n"
        )
        assert not out.exists()

    def test_empty_sample_is_5(self, capsys):
        code = main(
            ["report", "--model", "horizontal-xi", "--box=-0.1,0.1", "--points", "5"]
        )
        assert code == 5
        capsys.readouterr()

    def test_write_failure_is_6(self, tmp_path, capsys):
        out = str(tmp_path / "no-such-dir" / "r.json")
        assert main(["verify", "--points", "2", "--out", out]) == 6
        capsys.readouterr()

    def test_xi_mismatch_is_2(self, capsys):
        code = main(
            ["theorems", "--model", "horizontal-xi", "--theorems", "V1", "--points", "2"]
        )
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["verify", "theorems", "report"])
    def test_declared_xi_case_that_does_not_hold_is_4(self, command, tmp_path, capsys):
        # vertical-xi's unit Reeb field lies wholly outside the horizontal
        # block that this copy declares for it
        model = _vertical_xi_copy(tmp_path, lambda d: {**d, "xi_case": "horizontal"})
        first = sample_submersion_points(resolve_model(str(model)), SampleConfig(points=3))[0]
        out = tmp_path / "r.json"
        argv = [command, "--model", str(model), "--points", "3", "--out", str(out)]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err == (
            "error: xi_case of 'vertical-xi' is horizontal, but the Reeb field has a part "
            f"of length 1.000e+00 outside that block at {first.tolist()}\n"
        )
        assert not out.exists()

    def test_xi_case_gate_is_tol_d1(self, tmp_path, capsys):
        model = _vertical_xi_copy(tmp_path, lambda d: {**d, "xi_case": "horizontal"})
        argv = ["theorems", "--model", str(model), "--points", "3", "--tol-d1", "2"]
        assert main(argv + ["--out", str(tmp_path / "r.json")]) != 4
        capsys.readouterr()

    def test_theorems_on_plain_total_space_is_2(self, capsys):
        assert main(["theorems", "--model", "r2m1:1", "--points", "2"]) == 2
        capsys.readouterr()

    def test_package_error_at_a_point_is_7_without_traceback(self, tmp_path, capsys):
        # the metric is not positive definite where y1 < 0 (see TestBlockErrorParity)
        model = _vertical_xi_variant(tmp_path, "metric", 2, 2, "y1/4")
        out = tmp_path / "r.json"
        argv = ["verify", "--model", str(model), "--points", "10", "--out", str(out)]
        assert main(argv) == 7
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(
            "error: DegenerateMetricError: metric of 'vertical-xi' not positive definite"
        )
        assert len(err.splitlines()) == 1
        assert not out.exists()


class TestOneJetEngine:
    @pytest.mark.parametrize(
        "command, model, code",
        [
            ("report", "vertical-xi", 0),
            ("report", "horizontal-xi", 3),
            ("report", REEB, 3),
            ("verify", "r2m1:2", 0),
        ],
        ids=["report-vertical-xi", "report-horizontal-xi", "report-reeb_fiber", "verify-r2m1:2"],
    )
    def test_run_path_builds_no_scalar_jet(self, command, model, code, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the run path used the reference ScalarJet engine")

        monkeypatch.setattr(jets.ScalarJet, "__init__", refuse)
        monkeypatch.setattr(jets, "seed", refuse)
        with pytest.raises(AssertionError):
            jets.constant(0.0, 1)
        out = str(tmp_path / "r.json")
        argv = [command, "--model", model, "--points", "20", "--no-timestamp", "--out", out]
        assert main(argv) == code
        capsys.readouterr()


def _patch_everywhere(monkeypatch, name, original, replacement):
    """Bind ``replacement`` in place of ``original`` in every package module
    that holds it under ``name``."""
    for module in list(sys.modules.values()):
        if module and module.__name__.startswith("oneill_lab"):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, replacement)


class TestIdentityResidualsWhereReported:
    """Only the identity section computes the identity residuals."""

    @pytest.mark.parametrize("model, code", [("vertical-xi", 0), ("horizontal-xi", 3)])
    def test_theorems_does_not_compute_them(self, model, code, tmp_path, monkeypatch, capsys):
        def refuse(analysis):
            raise AssertionError("a theorem scan computed the identity residuals")

        argv = ["theorems", "--model", model, "--points", "12", "--probe", "random:4",
                "--no-timestamp", "--out"]
        want, got = tmp_path / "want.json", tmp_path / "got.json"
        assert main(argv + [str(want)]) == code
        _patch_everywhere(monkeypatch, "identity_residuals", identity_residuals, refuse)
        assert main(argv + [str(got)]) == code
        capsys.readouterr()
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_verify_and_report_compute_them_once_per_block(
        self, command, tmp_path, monkeypatch, capsys
    ):
        blocks = []

        def count(analysis):
            blocks.append(len(analysis.calc.point))
            return identity_residuals(analysis)

        _patch_everywhere(monkeypatch, "identity_residuals", identity_residuals, count)
        out = str(tmp_path / "r.json")
        argv = [command, "--points", "23", "--no-timestamp", "--out", out]
        assert main(argv) == 0
        capsys.readouterr()
        # vertical-xi has d = 5, so its blocks hold 32768 // 5**5 = 10 points
        assert blocks == [10, 10, 3]


class TestDeterminism:
    def test_no_timestamp_reruns_byte_identical(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        argv = ["report", "--points", "4", "--probe", "random:2", "--no-timestamp"]
        assert main(argv + ["--out", a]) == 0
        assert main(argv + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        capsys.readouterr()

    def test_seed_changes_sample(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        assert main(["report", "--points", "4", "--no-timestamp", "--out", a]) == 0
        assert (
            main(["report", "--points", "4", "--seed", "7", "--no-timestamp", "--out", b])
            == 0
        )
        assert open(a, "rb").read() != open(b, "rb").read()
        capsys.readouterr()

    def test_timestamp_present_unless_suppressed(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        main(["verify", "--points", "2", "--out", a])
        main(["verify", "--points", "2", "--no-timestamp", "--out", b])
        assert "generated_at" in json.loads(open(a).read())
        assert "generated_at" not in json.loads(open(b).read())
        capsys.readouterr()

    def test_stdout_json_when_no_out(self, capsys):
        code = main(["verify", "--points", "2", "--no-timestamp"])
        captured = capsys.readouterr()
        assert code == 0
        data = json.loads(captured.out)
        assert data["schema"] == "oneill-lab-report/1"
        assert data["verdict"] == "pass"


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        out = str(tmp_path / "r.json")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "oneill_lab",
                "verify",
                "--points",
                "2",
                "--no-timestamp",
                "--out",
                out,
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "verdict: pass" in proc.stderr
        assert json.loads(open(out).read())["schema"] == "oneill-lab-report/1"


HX = BUNDLED_DIR / "horizontal-xi.json"


class TestKnownFlags:
    def test_table_pinned_to_bundled_files(self):
        hx, reeb = HX.read_bytes(), open(REEB, "rb").read()
        assert set(KNOWN_FLAGS) == {hashlib.sha256(b).hexdigest() for b in (hx, reeb)}
        assert known_flags_for(hx) == {
            "submersion.length",
            "submersion.base_pd",
            "lemmas.a_alternation",
            "identities.S1",
            "identities.S3",
            "identities.gauss3",
            "theorems.H2",
            "theorems.CRH2",
        }
        assert known_flags_for(reeb) == {"theorems.CMB1"}
        assert known_flags_for((BUNDLED_DIR / "vertical-xi.json").read_bytes()) == set()

    @pytest.mark.parametrize("declared", ["horizontal-xi", "some-model"])
    def test_declared_name_claims_no_flags(self, tmp_path, capsys, declared):
        # vertical-xi with a broken target metric fails the same checks under
        # any declared name, that of a flagged model included
        data = json.loads((BUNDLED_DIR / "vertical-xi.json").read_text())
        data["name"] = declared
        data["base_metric"] = [["1/8", "0"], ["0", "-1/8"]]
        model = tmp_path / "broken.json"
        model.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        argv = ["verify", "--model", str(model), "--points", "3", "--out", str(out)]
        assert main(argv) == 1
        capsys.readouterr()
        rep = json.loads(out.read_text())
        assert rep["failed"] == ["submersion.length", "submersion.base_pd"]
        assert rep["flags_raised"] == []

    def test_flags_follow_file_content(self, tmp_path, capsys):
        model = tmp_path / "copy.json"
        model.write_bytes(HX.read_bytes())
        out = tmp_path / "r.json"
        argv = ["report", "--model", str(model), "--points", "3", "--out", str(out)]
        assert main(argv) == 3
        capsys.readouterr()
        rep = json.loads(out.read_text())
        assert rep["flags_raised"] == rep["failed"]
        assert "theorems.H2" in rep["failed"]


def _vertical_xi_copy(tmp_path, edit):
    """A copy of the bundled vertical-xi model, its JSON data passed
    through ``edit``."""
    data = json.loads((BUNDLED_DIR / "vertical-xi.json").read_text())
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(edit(data)))
    return path


def _vertical_xi_variant(tmp_path, block, row, col, entry):
    """A copy of the bundled vertical-xi model with one entry replaced."""
    return _vertical_xi_copy(tmp_path, _replace_entry(block, row, col, entry))


class TestIntegralPower:
    def test_huge_integral_exponent_ends_in_seconds(self, tmp_path):
        """x1**1000000000 in a metric entry costs about 2 log2(n) jet
        products, not n - 1, so ``verify`` ends inside the time limit (in
        about 0.3 s on a 2-core x86-64 VM). It ends in exit 7: where
        |x1| > 1 the power overflows and 0 * inf is NaN."""
        model = _vertical_xi_variant(tmp_path, "metric", 2, 2, "1/4+0*x1**1000000000")
        argv = ["verify", "--model", str(model), "--points", "3", "--no-timestamp"]
        proc = subprocess.run(
            [sys.executable, "-m", "oneill_lab", *argv],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 7
        assert proc.stderr.startswith("error: DegenerateMetricError: ")
        assert proc.stderr.rstrip().endswith("entries not finite")


class TestNonFiniteResiduals:
    def test_nan_residuals_fail_and_report_stays_json(self, tmp_path, capsys):
        # NaN at every sampled point (z != 0): inf - inf in value and gradient
        model = _vertical_xi_variant(
            tmp_path, "phi", 0, 4, "z*1e200*1e200 - z*1e200*1e200"
        )
        out = tmp_path / "r.json"
        argv = ["verify", "--model", str(model), "--points", "5", "--out", str(out)]
        assert main(argv) == 1
        capsys.readouterr()
        rep = json.loads(out.read_text())
        sasakian = rep["structure"]["sasakian"]
        # every residual that involves phi is NaN and fails; eta and xi are finite
        for key in ("phi_square", "phi_metric_compat", "reeb_derivative", "phi_derivative"):
            assert sasakian[key] == "NaN"
            assert f"sasakian.{key}" in rep["failed"]
        assert sasakian["eta_xi"] == sasakian["eta_is_metric_dual"] == 0
        for check in ("curvature.curv1", "lemmas.anti_invariance", "lemmas.c_square"):
            assert check in rep["failed"]
        assert rep["verdict"] == "fail"

    def test_render_json_names_non_finite_floats(self):
        from oneill_lab.report import render_json

        text = render_json([float("nan"), float("inf"), -float("inf"), 0.5])
        assert json.loads(text) == ["NaN", "Infinity", "-Infinity", 0.5]


class TestNonRealGuards:
    def test_guard_rejects_a_point_where_it_is_not_real_or_fails(self):
        def passes(text, x1):
            return guards_pass([compile_expression(text, ["x1"])], [[x1]]).tolist()

        assert passes("x1**0.5", 4.0) == [True]
        assert passes("x1**0.5", -4.0) == [False]
        assert passes("1/(x1-x1)", 4.0) == [False]

    def test_non_real_domain_reports_as_its_real_twin(self, tmp_path, capsys):
        # x1**0.5 is complex where x1 < 0 and positive exactly where x1 is
        reports = []
        for domain in ("x1**0.5", "x1"):
            model = _vertical_xi_copy(tmp_path, lambda data: {**data, "domain": domain})
            out = tmp_path / "r.json"
            argv = ["verify", "--model", str(model), "--points", "3", "--out", str(out)]
            assert main(argv + ["--no-timestamp"]) == 0
            capsys.readouterr()
            rep = json.loads(out.read_text())
            del rep["config"]["model"]
            reports.append(rep)
        assert reports[0] == reports[1]


class TestSymmetricMetricEntries:
    """An entry below the diagonal may mirror its partner in another
    spelling of the same tree, with the operands of a + or * swapped."""

    @pytest.mark.parametrize(
        "block, entry",
        [
            ("metric", "y2*y1/4"),
            ("metric", "y1 * y2 / 4"),
            ("metric", "(y1*y2)/4"),
            ("base_metric", "( 0 )"),
        ],
    )
    def test_mirror_in_another_spelling_gives_the_same_report(
        self, block, entry, tmp_path, capsys
    ):
        model = _vertical_xi_variant(tmp_path, block, 1, 0, entry)
        texts = []
        for name in ("vertical-xi", str(model)):
            out = tmp_path / "r.json"
            argv = ["report", "--model", name, "--points", "3", "--no-timestamp"]
            assert main(argv + ["--out", str(out)]) == 0
            texts.append(out.read_text().splitlines())
        capsys.readouterr()
        want, got = texts
        assert len(got) == len(want)
        differ = [(w, g) for w, g in zip(want, got) if w != g]
        assert differ == [('    "model": "vertical-xi",', f'    "model": {json.dumps(str(model))},')]


class TestSubmersionKernel:
    def test_reeb_field_off_the_kernel_fails_the_kernel_check(self, tmp_path, capsys):
        # with x1 + y1 + z the projection no longer annihilates xi = 2 d/dz,
        # the third declared vertical field
        data = json.loads((BUNDLED_DIR / "vertical-xi.json").read_text())
        data["projection"][0] = "x1+y1+z"
        model = tmp_path / "tilted.json"
        model.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        argv = ["verify", "--model", str(model), "--points", "5", "--out", str(out)]
        assert main(argv) == 1
        capsys.readouterr()
        rep = json.loads(out.read_text())
        assert rep["checks"]["submersion.kernel"] is False
        assert rep["structure"]["submersion"]["kernel"] > Tolerances().d1
        assert "submersion.kernel" in rep["failed"]


class TestBlockErrorParity:
    def test_first_non_pd_point_in_sample_order(self, tmp_path):
        # Points 0-2 of the seed-42 sample have y1 > 0; point 3 is the first
        # with y1 < 0 and points 5, 6, 7 and 9 fail too, all in one block.
        model = _vertical_xi_variant(tmp_path, "metric", 2, 2, "y1/4")
        with pytest.raises(DegenerateMetricError) as info:
            run(RunConfig(command="verify", model=str(model), points=10))
        assert str(info.value) == (
            "metric of 'vertical-xi' not positive definite at "
            "[-1.0910451128608925, 0.2183391480633392, -1.7447309755832987, "
            "1.3105246879703283, 0.5266575964882594]: min eigenvalue -4.362e-01"
        )


class TestResidualFloats:
    """The residual floats of a space-form report, not only their checks:
    each equals the maximum of the one-point oracles over the sample."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_verify_r2m1_residuals_match_one_point_oracles(self, m, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["verify", "--model", f"r2m1:{m}", "--points", "5", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        structure = json.loads(out.read_text())["structure"]
        spec = build_r2m1(m)
        pts = sample_model_points(spec.model, SampleConfig(points=5, seed=42))
        sasakian = {}
        curv1 = 0.0
        for pt in pts:
            for key, (val,) in verify_sasakian(space_form_data(spec, [pt])).items():
                sasakian[key] = max(sasakian.get(key, 0.0), float(val))
            diff = riemann_at(spec.model, pt).r4[0] - space_form_r4_at(spec, pt)
            curv1 = max(curv1, float(np.max(np.abs(diff))))
        assert structure["sasakian"] == sasakian
        assert structure["curvature"]["curv1"] == curv1
        assert curv1 > 0.0  # rounding residuals, so a zeroed value shows

    @pytest.mark.parametrize("model", ["vertical-xi", "horizontal-xi", REEB])
    def test_submersion_residuals_match_per_point_values(self, model, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["verify", "--model", model, "--points", "6", "--out", str(out)]
        assert main(argv) in (0, 3)
        capsys.readouterr()
        rep = json.loads(out.read_text())
        sub = resolve_model(model)
        pts = sample_submersion_points(sub, SampleConfig(points=6, seed=42))
        per_point = {"lemmas": {}, "identities": {}}
        kernels, lengths, pd_flags = [], [], []
        for pt in pts:
            block = analyze_point(sub, point_block(sub, pt))
            chk = verify_riemannian_submersion(block.calc)
            kernels.append(chk.kernel_residual[0])
            lengths.append(chk.length_residual[0])
            pd_flags.append(chk.base_pd[0])
            sections = {
                "lemmas": verify_structure_lemmas(block.calc, block.data),
                "identities": identity_residuals(block),
            }
            for section, values in sections.items():
                for key, val in values.items():
                    per_point[section].setdefault(key, []).append(val[0])
        maxima = {s: {k: max(v) for k, v in d.items()} for s, d in per_point.items()}
        assert rep["structure"]["lemmas"] == maxima["lemmas"]
        assert rep["identities"]["max_residuals"] == maxima["identities"]
        assert rep["structure"]["submersion"] == {
            "kernel": max(kernels),
            "length": max(lengths),
            "length_residuals": lengths,
            "base_pd_all": all(pd_flags),
            "base_pd_flags": pd_flags,
        }
        if model == "vertical-xi":
            # rounding residuals throughout, so any zeroed maximum shows
            assert all(v > 0.0 for d in maxima.values() for v in d.values())


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="heap retention uses glibc mallopt")
class TestHeapReuse:
    """A block's arrays reuse the pages freed by the block before it, so a
    repeated run faults in almost no fresh memory (with glibc's default
    trimming, r2m1:3 on 52 points takes about 2,400 minor faults)."""

    def test_repeat_run_takes_few_page_faults(self, tmp_path):
        script = (
            "import resource, sys\n"
            "from oneill_lab.cli import main\n"
            "argv = ['verify', '--model', 'r2m1:3', '--points', '52',"
            " '--out', sys.argv[1]]\n"
            "main(argv)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "main(argv)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "r.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) < 100
