"""CLI surface: argument handling, formats, config files and exit codes."""

import json
import math
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from starclone import cli, star_model
from starclone.verify import SUITE_NAMES, Check, SuiteResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestFidelityCommand:
    def test_reference_point_m4(self, capsys):
        code, payload = run_json(
            capsys, "fidelity", "--m", "4", "--k", "1", "--model", "xx",
            "--b", "0.0144940", "--t", "108.375",
        )
        assert code == 0
        assert abs(payload["fidelity"] - 0.806131) < 5e-6
        assert abs(payload["equatorial_fidelity"] - 0.806131) < 5e-6
        assert payload["lambda"] == 0.0
        assert len(payload["per_qubit_fidelities"]) == 5

    def test_universal_point_arbitrary_input(self, capsys):
        code, payload = run_json(
            capsys, "fidelity", "--m", "2", "--k", "1", "--lambda", "2",
            "--b", "0", "--t", "0.9068997", "--method", "brute",
            "--theta", "0.7", "--phi", "1.1",
        )
        assert code == 0
        assert abs(payload["fidelity"] - 5.0 / 6.0) < 1e-9

    def test_t_zero_gives_half(self, capsys):
        code, payload = run_json(
            capsys, "fidelity", "--m", "3", "--k", "1", "--lambda", "1.5",
            "--b", "0.3", "--t", "0",
        )
        assert code == 0
        assert payload["equatorial_fidelity"] == 0.5

    def test_human_format_mentions_all_qubits(self, capsys):
        code, out = run_cli(
            capsys, "fidelity", "--m", "2", "--k", "1", "--lambda", "2",
            "--b", "0", "--t", "0.9068996821171089",
        )
        assert code == 0
        assert sum(line.strip().startswith("qubit") for line in out.splitlines()) == 3
        assert "amplitudes" in out

    def test_conflicting_lambda_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["fidelity", "--m", "2", "--k", "0", "--model", "xx",
                      "--lambda", "2", "--t", "1.0"])
        assert err.value.code == 2

    def test_brute_beyond_cap_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["fidelity", "--m", "15", "--k", "0", "--t", "1.0",
                      "--method", "brute"])
        assert err.value.code == 2

    def test_missing_required_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["fidelity", "--k", "0", "--t", "1.0"])
        assert err.value.code == 2

    def test_bad_k_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["fidelity", "--m", "2", "--k", "7", "--t", "1.0"])
        assert err.value.code == 2

    def test_nan_time_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["fidelity", "--m", "2", "--k", "1", "--t", "nan"])
        assert err.value.code == 2

    def test_brute_nan_time_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["fidelity", "--m", "2", "--k", "1", "--t", "nan",
                      "--method", "brute"])
        assert err.value.code == 2

    def test_brute_oversized_request_fails_fast(self):
        # M = 40 is a 16 TiB state, refused before any allocation
        start = time.perf_counter()
        with pytest.raises(SystemExit) as err:
            cli.main(["fidelity", "--m", "40", "--k", "20", "--t", "1.0",
                      "--max-qubits", "64", "--method", "brute"])
        assert err.value.code == 2
        assert time.perf_counter() - start < 1.0


class TestConfigFiles:
    # (command and positionals, options): every command with a JSON output
    ROUNDTRIP = [
        (["fidelity"], ["--m", "3", "--k", "1", "--lambda", "1.25", "--b", "0.4", "--t", "17.5",
                        "--theta", "0.9", "--phi", "2.2"]),
        (["optimize"], ["--m", "2", "--model", "xx", "--k", "0", "--t-range", "0", "20",
                        "--n-b", "21", "--n-t", "501"]),
        (["table1"], ["--m", "3", "2", "--n-t", "1001", "--no-refine"]),
        (["verify", "universal"], ["--seed", "2", "--trials", "5"]),
        (["presets"], ["--m", "4"]),
    ]

    @pytest.mark.parametrize("command, options", ROUNDTRIP,
                             ids=[command[0] for command, _ in ROUNDTRIP])
    def test_json_roundtrip_bit_identical(self, capsys, tmp_path, command, options):
        code, first = run_cli(capsys, *command, *options, "--format", "json")
        assert code == 0
        config = tmp_path / "run.json"
        config.write_text(first)
        code, second = run_cli(capsys, *command, "--config", str(config), "--format", "json")
        assert code == 0
        assert first == second

    def test_flags_win_over_config(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "m=2\nk=0\nmodel=xx\nb=0.471405\nt=3.33216\n# comment line\n"
        )
        code, payload = run_json(
            capsys, "fidelity", "--config", str(config), "--t", "0"
        )
        assert code == 0
        assert payload["t"] == 0.0
        assert payload["b"] == 0.471405
        assert payload["equatorial_fidelity"] == 0.5

    def test_flat_config_alone(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("m=2\nk=0\nmodel=xx\nb=0.471405\nt=3.33216\n")
        code, payload = run_json(capsys, "fidelity", "--config", str(config))
        assert code == 0
        assert abs(payload["fidelity"] - 0.853553) < 5e-6

    def test_malformed_config_is_usage_error(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("just some words\n")
        with pytest.raises(SystemExit) as err:
            cli.main(["fidelity", "--config", str(config)])
        assert err.value.code == 2

    def test_config_value_outside_choices_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("m=2\nk=0\nt=1.0\nmethod=magic\n")
        with pytest.raises(SystemExit) as err:
            cli.main(["fidelity", "--config", str(config)])
        assert err.value.code == 2


class TestConfigValuesAsFlags:
    """A config value is valid exactly when the same flag is: argparse checks both."""

    @pytest.mark.parametrize(
        "command,text,message",
        [
            ("optimize", '{"m": 2, "b_range": 5}', "--b-range: expected 2 arguments"),
            ("optimize", "m=2\nb_range=0.1\n", "--b-range: expected 2 arguments"),
            ("fidelity", '{"m": 2.7, "k": 1, "t": 1.0}', "--m: invalid int value: '2.7'"),
            ("fidelity", '{"m": 2, "k": true, "t": 1.0}', "--k: invalid int value: 'True'"),
            ("fidelity", '{"m": 2, "k": 1, "t": 1.0, "b": true}',
             "--b: invalid float value: 'True'"),
            ("table1", '{"m": [2.5]}', "--m: invalid int value: '2.5'"),
        ],
        ids=["two-values-json", "two-values-flat", "fractional-int", "bool-int",
             "bool-float", "fractional-int-list"],
    )
    def test_value_rejected_like_its_flag(self, capsys, tmp_path, command, text, message):
        config = tmp_path / "bad.cfg"
        config.write_text(text)
        with pytest.raises(SystemExit) as err:
            cli.main([command, "--config", str(config)])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.err.strip().splitlines()[-1].endswith("error: argument " + message)
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_exponent_negative_value_in_config(self, capsys, tmp_path):
        config = tmp_path / "box.json"
        config.write_text('{"m": 2, "model": "xx", "b_range": [-1e-05, 1], '
                          '"n_b": 3, "n_t": 11, "refine": false}')
        code, payload = run_json(capsys, "optimize", "--config", str(config))
        assert code == 0
        assert payload["b_range"] == [-1e-05, 1.0]

    def test_sweep_flag_replaces_config_sweep(self, capsys, tmp_path):
        config = tmp_path / "scan.json"
        config.write_text('{"m": 2, "k": 0, "sweep": ["t=0:1:3", "b=0:1:2"]}')
        code, csv = run_cli(capsys, "scan", "--config", str(config), "--sweep", "t=0:1:2")
        rows = [row.split(",") for row in csv.strip().splitlines()[1:]]
        assert code == 0
        assert [(row[3], row[4]) for row in rows] == [("0", "0"), ("0", "1")]


class TestOptimizeCommand:
    def test_finds_m2_maximum_on_small_box(self, capsys):
        code, payload = run_json(
            capsys, "optimize", "--m", "2", "--model", "xx",
            "--t-range", "0", "20", "--n-b", "51", "--n-t", "2001",
        )
        assert code == 0
        assert abs(payload["best"]["fidelity"] - 0.8535533905932737) < 1e-6
        assert payload["best"]["k"] == 0
        assert payload["refined"] is True
        assert payload["evaluations"] == 3 * 51 * 2001

    def test_k_subset_and_no_refine(self, capsys):
        code, payload = run_json(
            capsys, "optimize", "--m", "2", "--model", "xx", "--k", "1",
            "--t-range", "0", "5", "--n-b", "11", "--n-t", "101", "--no-refine",
        )
        assert code == 0
        # k = 1 kills both interference terms of the lam = 0 star
        assert payload["best"]["fidelity"] == 0.5
        assert payload["refined"] is False

    def test_bad_k_rejected(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["optimize", "--m", "2", "--k", "5"])
        assert err.value.code == 2

    @pytest.mark.parametrize("ks, searched", [(["1", "1"], [1]), (["3", "1"], [1, 3])])
    def test_echoes_the_k_set_it_searched(self, capsys, ks, searched):
        code, payload = run_json(
            capsys, "optimize", "--m", "3", "--k", *ks, "--n-b", "3", "--n-t", "3",
            "--t-range", "0", "1", "--no-refine",
        )
        assert code == 0
        assert payload["k"] == searched
        assert payload["evaluations"] == len(searched) * 3 * 3


class TestTable1Command:
    def test_m2_row(self, capsys):
        code, payload = run_json(
            capsys, "table1", "--m", "2", "--n-b", "51", "--n-t", "3001"
        )
        assert code == 0
        row = payload["rows"][0]
        assert row["m"] == 2
        assert abs(row["f_max"] - 0.853553) < 1e-4
        assert row["flagged"] is False
        assert abs(row["f_optimal"] - 0.853553) < 5e-7

    def test_human_table(self, capsys):
        code, out = run_cli(capsys, "table1", "--m", "2", "--n-b", "51",
                            "--n-t", "3001")
        assert code == 0
        assert "F_optimal" in out and "status" in out

    def test_unknown_m(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["table1", "--m", "12"])
        assert err.value.code == 2


class TestVerifyCommand:
    def test_universal_suite_passes(self, capsys):
        code, payload = run_json(
            capsys, "verify", "universal", "--trials", "10", "--seed", "3"
        )
        assert code == 0
        assert payload["passed"] is True
        assert len(payload["checks"]) == 5

    def test_human_output_lists_residuals(self, capsys):
        code, out = run_cli(capsys, "verify", "ancilla-free")
        assert code == 0
        assert out.count("[PASS]") == 6
        assert "all checks passed" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        failing = SuiteResult(
            (Check("synthetic failing check", 1.0, 1e-10),)
        )
        monkeypatch.setattr(cli, "run_suite", lambda *a, **kw: failing)
        code, out = run_cli(capsys, "verify", "universal")
        assert code == 1
        assert "[FAIL]" in out

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "everything"])
        assert err.value.code == 2

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_json_output_for_every_suite(self, capsys, suite):
        code, payload = run_json(capsys, "verify", suite, "--trials", "3")
        assert code == 0
        assert payload["passed"] is True
        assert all(check["passed"] is True for check in payload["checks"])

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_usage_error(self, trials):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "oracle", "--trials", trials])
        assert err.value.code == 2


class TestScanCommand:
    def test_header_and_peak_location(self, capsys):
        code, out = run_cli(
            capsys, "scan", "--m", "2", "--k", "0", "--model", "xx",
            "--b", "0.4714", "--sweep", "t=0:10:1001",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "M,k,lambda,B,t,fidelity,method"
        assert len(lines) == 1002
        data = np.array([line.split(",")[4:6] for line in lines[1:]], dtype=float)
        peak_t = data[np.argmax(data[:, 1]), 0]
        assert abs(peak_t - 3.332) < 0.05

    def test_single_point_sweep(self, capsys):
        code, out = run_cli(
            capsys, "scan", "--m", "2", "--k", "1", "--lambda", "2",
            "--t", "0.5", "--sweep", "b=0.3:0.3:1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("2,1,2,0.3,0.5,")

    def test_methods_agree(self, capsys):
        base = ["scan", "--m", "2", "--k", "1", "--lambda", "2",
                "--sweep", "t=0:2:21"]
        outputs = {}
        for method in ("analytic", "closed-form", "brute"):
            code, out = run_cli(capsys, *base, "--method", method)
            assert code == 0
            rows = [line.split(",") for line in out.strip().splitlines()[1:]]
            outputs[method] = np.array([row[5] for row in rows], dtype=float)
        assert np.abs(outputs["analytic"] - outputs["brute"]).max() < 1e-10
        assert np.abs(outputs["analytic"] - outputs["closed-form"]).max() < 1e-10

    def test_two_axes_outer_major(self, capsys):
        code, out = run_cli(
            capsys, "scan", "--m", "2", "--k", "0", "--model", "xx",
            "--sweep", "b=0.2:0.4:2", "--sweep", "t=1:2:3",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 6
        assert [r[3] for r in rows] == ["0.2", "0.2", "0.2", "0.4", "0.4", "0.4"]
        assert [r[4] for r in rows] == ["1", "1.5", "2", "1", "1.5", "2"]

    def test_twelve_significant_digits(self, capsys):
        code, out = run_cli(
            capsys, "scan", "--m", "2", "--k", "0", "--model", "xx",
            "--b", "0.471405", "--sweep", "t=3.33216:3.33216:1",
        )
        fidelity = out.strip().splitlines()[1].split(",")[5]
        assert len(fidelity.replace(".", "").lstrip("0")) >= 12

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, out = run_cli(
            capsys, "scan", "--m", "2", "--k", "0", "--model", "xx",
            "--b", "0.5", "--sweep", "t=0:1:5", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("M,k,lambda,B,t,fidelity,method")

    def test_requires_sweep(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["scan", "--m", "2", "--k", "0"])
        assert err.value.code == 2

    def test_three_axes_rejected(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["scan", "--m", "2", "--k", "0",
                      "--sweep", "t=0:1:2", "--sweep", "b=0:1:2",
                      "--sweep", "lambda=0:1:2"])
        assert err.value.code == 2

    def test_duplicate_axis_rejected(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["scan", "--m", "2", "--k", "0",
                      "--sweep", "t=0:1:2", "--sweep", "t=2:3:2"])
        assert err.value.code == 2

    def test_bad_sweep_spec_rejected(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["scan", "--m", "2", "--k", "0", "--sweep", "t=0..1"])
        assert err.value.code == 2

    def test_lambda_sweep_conflicts_with_model_shorthand(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["scan", "--m", "2", "--k", "0", "--model", "xx",
                      "--sweep", "lambda=0:1:3"])
        assert err.value.code == 2

    @pytest.mark.parametrize("method", ["analytic", "closed-form"])
    def test_negative_time_is_usage_error(self, method):
        with pytest.raises(SystemExit) as err:
            cli.main(["scan", "--m", "2", "--k", "1", "--lambda", "1",
                      "--method", method, "--sweep", "t=-1:1:3"])
        assert err.value.code == 2

    def test_brute_negative_time_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["scan", "--m", "2", "--k", "1", "--lambda", "1",
                      "--method", "brute", "--sweep", "t=-1:1:3"])
        assert err.value.code == 2


class TestInputContract:
    """Bad input exits 2 with argparse's message and no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--m", "0", "--n-t", "11", "--n-b", "3", "--format", "json"],
            ["optimize", "--m", "2", "--lambda", "nan", "--n-t", "11", "--n-b", "3"],
            ["optimize", "--m", "2", "--b-range", "0", "inf", "--n-t", "11", "--n-b", "3"],
            ["optimize", "--m", "2", "--refine-tol", "nan", "--n-t", "11", "--n-b", "3"],
            ["fidelity", "--m", "2", "--k", "1", "--t", "1", "--theta", "nan"],
            ["fidelity", "--m", "2", "--k", "1", "--t", "1", "--theta", "nan",
             "--method", "brute"],
        ],
        ids=["optimize-m0", "optimize-lambda-nan", "optimize-b-range-inf",
             "optimize-refine-tol-nan", "fidelity-theta-nan-analytic",
             "fidelity-theta-nan-brute"],
    )
    def test_exits_2_without_traceback(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert "error:" in captured.err
        assert "Traceback" not in captured.err
        assert "nan" not in captured.out.lower()


class TestNonFiniteEndpoints:
    """A non-finite endpoint or width exits 2 before numpy can warn."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["scan", "--m", "2", "--k", "1", "--sweep", "t=0:inf:3"], "t=0:inf:3"),
            (["scan", "--m", "2", "--k", "1", "--sweep", "t=0:1:3",
              "--sweep", "b=-1e308:1e308:2"], "b=-1e308:1e308:2"),
            (["optimize", "--m", "2", "--b-range", "-1e308", "1e308", "--n-b", "3",
              "--n-t", "5", "--t-range", "0", "1"], "b_range"),
        ],
        ids=["scan-inf-hi", "scan-width-overflow", "optimize-width-overflow"],
    )
    def test_exits_2_naming_the_range(self, capsys, argv, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as err:
                cli.main(argv)
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert "RuntimeWarning" not in captured.err
        assert "nan" not in captured.err.lower()
        assert named in captured.err
        assert captured.out == ""


class TestNegativeNumberSpellings:
    """Exponent and inf spellings of a negative number are values, not flags."""

    @pytest.mark.parametrize("lo,hi", [("-1e-05", "1"), ("-1E+2", "-5e-1")])
    def test_two_value_flag_takes_exponent_form(self, capsys, lo, hi):
        code, payload = run_json(capsys, "optimize", "--m", "2", "--model", "xx",
                                 "--b-range", lo, hi, "--n-b", "3", "--n-t", "11",
                                 "--no-refine")
        assert code == 0
        assert payload["b_range"] == [float(lo), float(hi)]

    def test_negative_infinity_gets_the_domain_message(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["optimize", "--m", "2", "--model", "xx", "--t-range", "-inf", "1",
                      "--n-b", "3", "--n-t", "11"])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert "t_range must be finite" in captured.err
        assert "Traceback" not in captured.err


class TestPresetsCommand:
    def test_even_m_lists_four_presets(self, capsys):
        code, payload = run_json(capsys, "presets", "--m", "4")
        assert code == 0
        names = [p["name"] for p in payload["presets"]]
        assert names == ["pcc_even", "ancilla_free", "kM_xx", "universal_1to2"]
        even = payload["presets"][0]
        assert even["k"] == 2
        assert abs(even["lambda"] - math.sqrt(24.0)) < 1e-12
        assert abs(even["t"] - math.pi / math.sqrt(48.0)) < 1e-12

    def test_odd_m_skips_ancilla_free(self, capsys):
        code, payload = run_json(capsys, "presets", "--m", "5")
        assert code == 0
        names = [p["name"] for p in payload["presets"]]
        assert "ancilla_free" not in names

    def test_m1_rejected(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["presets", "--m", "1"])
        assert err.value.code == 2


class TestPhaseOverflowAndCapacity:
    """Finite inputs whose phases overflow, or whose grids outgrow RAM, exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity", "--m", "2", "--k", "1", "--t", "1e308", "--method", "closed-form"],
            ["fidelity", "--m", "8", "--k", "3", "--lambda", "3", "--b", "2", "--t", "1e308"],
            ["scan", "--m", "2", "--k", "1", "--method", "closed-form",
             "--sweep", "t=1e307:1e308:2"],
            ["optimize", "--m", "2", "--t-range", "0", "1e308", "--n-t", "3", "--n-b", "2"],
        ],
        ids=["fidelity-closed-form", "fidelity-analytic", "scan", "optimize"],
    )
    def test_phase_overflow_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert "overflows" in captured.err
        assert "Traceback" not in captured.err
        assert "nan" not in captured.out.lower()

    @pytest.mark.parametrize("b", ["1e308", "-1e308"])
    def test_rate_overflow_names_the_field(self, capsys, b):
        """s itself overflows: the message blames the field, not a t never asked for."""
        with pytest.raises(SystemExit) as err:
            cli.main(["fidelity", "--m", "2", "--k", "1", "--t", "1", "--b", b])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert "overflows" in captured.err
        assert "max|B| = 1e+308" in captured.err
        assert "t = 0.0" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--m", "2", "--n-t", "30001", "--no-refine"],
            ["table1", "--m", "2", "--n-t", "30001", "--no-refine"],
            ["scan", "--m", "2", "--k", "1", "--sweep", "t=0:1:100000"],
            ["scan", "--m", "2", "--k", "1", "--sweep", "b=0:1:400", "--sweep", "t=0:1:400"],
        ],
        ids=["optimize", "table1", "scan-one-axis", "scan-two-axes"],
    )
    def test_oversized_grid_exits_2(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(star_model, "_physical_ram_bytes", lambda: 1 << 20)
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert "physical memory" in captured.err
        assert captured.out == ""


class TestRenderPath:
    """main renders every payload once: to stdout, or to --output instead."""

    FORMATTED = (
        ["fidelity", "--m", "3", "--k", "1", "--lambda", "1.5", "--b", "0.3", "--t", "2.5"],
        ["optimize", "--m", "2", "--model", "xx", "--t-range", "0", "5",
         "--n-b", "11", "--n-t", "101"],
        ["table1", "--m", "2", "--n-b", "11", "--n-t", "301"],
        ["verify", "universal", "--trials", "3"],
        ["presets", "--m", "4"],
    )
    CASES = [(argv, fmt) for argv in FORMATTED for fmt in ("human", "json")] + [
        (["scan", "--m", "2", "--k", "0", "--model", "xx", "--sweep", "t=0:1:5"], None)]

    @pytest.mark.parametrize(
        "argv, fmt", CASES, ids=[f"{argv[0]}-{fmt or 'csv'}" for argv, fmt in CASES])
    def test_output_file_holds_exactly_stdout(self, capsys, tmp_path, argv, fmt):
        argv = argv + (["--format", fmt] if fmt else [])
        code, out = run_cli(capsys, *argv)
        assert code == 0
        target = tmp_path / "out.txt"
        code, printed = run_cli(capsys, *argv, "--output", str(target))
        assert code == 0
        assert printed == ""
        assert target.read_text() == out

    def test_closed_pipe_exits_141_without_traceback(self):
        # the reader leaves after one line, as `starclone scan ... | head -1` does
        proc = subprocess.Popen(
            [sys.executable, "-m", "starclone.cli", "scan", "--m", "4", "--k", "2",
             "--sweep", "t=0:50:20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=Path(cli.__file__).resolve().parents[1])
        assert proc.stdout.readline() == b"M,k,lambda,B,t,fidelity,method\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141  # 128 + SIGPIPE, not 1 (failed checks)
        assert "Traceback" not in err

    def test_failing_suite_json_exits_1(self, capsys, monkeypatch):
        failing = SuiteResult(
            (Check("synthetic failing check", 1.0, 1e-10),)
        )
        monkeypatch.setattr(cli, "run_suite", lambda *a, **kw: failing)
        code, payload = run_json(capsys, "verify", "universal")
        assert code == 1
        assert payload["passed"] is False
        assert payload["checks"][0]["passed"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity", "--m", "2", "--k", "1", "--t", "1"],
            ["scan", "--m", "2", "--k", "0", "--sweep", "t=0:1:3"],
        ],
        ids=["fidelity", "scan"],
    )
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, argv, where):
        target = tmp_path / "missing" / "x.txt" if where == "missing-dir" else tmp_path
        with pytest.raises(SystemExit) as err:
            cli.main(argv + ["--output", str(target)])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert "cannot write output" in captured.err
        assert "Traceback" not in captured.err


class TestUnreadableInputs:
    """An undecodable config file and a count below one exit 2, not 1 with a traceback."""

    def test_undecodable_config_exits_2(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"m=4\n\xff\n")
        with pytest.raises(SystemExit) as err:
            cli.main(["presets", "--config", str(config)])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert "cannot read config" in captured.err

    @pytest.mark.parametrize("candidates", ["0", "-3"])
    def test_candidates_below_one_exits_2(self, capsys, candidates):
        with pytest.raises(SystemExit) as err:
            cli.main(["optimize", "--m", "2", "--model", "xx", "--t-range", "0", "5",
                      "--n-b", "11", "--n-t", "101", "--candidates", candidates])
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert "n_candidates" in captured.err
        assert captured.out == ""
