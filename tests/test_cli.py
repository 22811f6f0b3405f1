import ast
import atexit
import csv
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pagecurve
from pagecurve import NumericalError, analytic, kernels, montecarlo
from pagecurve.cli import SCHEMA_VERSION, main

PAGE_CURVE_ANALYTIC_COLUMNS = [
    "r", "k", "analytic_density", "analytic_total", "max_entropy", "provenance",
]
PAGE_CURVE_MC_COLUMNS = [
    "r", "k", "analytic_density", "analytic_total", "max_entropy",
    "mc_mean", "mc_stderr", "mc_variance", "samples", "provenance",
]


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestPageCurve:
    def test_analytic_grid(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main([
            "page-curve", "--modes", "50", "--squeeze", "0.75",
            "--analytic-only", "--grid-step", "0.02", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == PAGE_CURVE_ANALYTIC_COLUMNS  # schema_version 1 golden
        assert len(rows) == 51
        middle = rows[25]
        assert float(middle[0]) == 0.5
        assert float(middle[2]) == pytest.approx(0.258266, abs=1e-6)
        assert middle[-1] == "analytic"

    def test_zero_squeezing(self, capsys):
        code = main(["page-curve", "--modes", "50", "--squeeze", "0"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[2]) == 0.0 and float(cells[3]) == 0.0 and float(cells[4]) == 0.0

    def test_monte_carlo_columns(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = main([
            "page-curve", "--modes", "8", "--squeeze", "0.5",
            "--samples", "40", "--seed", "42", "--workers", "1", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == PAGE_CURVE_MC_COLUMNS
        assert len(rows) == 9
        assert rows[0][-1] == "mc"
        assert float(rows[0][5]) <= 1e-10  # k=0 sampled entropy

    def test_mc_mean_consistent_with_prediction(self, tmp_path):
        out = tmp_path / "big.csv"
        code = main([
            "page-curve", "--modes", "20", "--squeeze", "0.75",
            "--samples", "400", "--seed", "7", "--workers", "1", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        mid = rows[10]
        mean, stderr, total = float(mid[5]), float(mid[6]), float(mid[3])
        assert abs(mean - total) <= 3 * stderr + 2.0 / 20

    def test_grid_step_with_samples_is_usage_error(self):
        assert main([
            "page-curve", "--modes", "8", "--squeeze", "0.5",
            "--samples", "10", "--grid-step", "0.5",
        ]) == 1

    def test_unequal_squeezing_list(self, tmp_path):
        out = tmp_path / "u.csv"
        code = main([
            "page-curve", "--modes", "3", "--squeeze", "0.1,0.2,0.0",
            "--analytic-only", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 4

    def test_large_squeezing_analytic(self, capsys):
        # the series could not reach the default tolerance at s = 5, r = 1/8
        assert main(["page-curve", "--modes", "8", "--squeeze", "5", "--analytic-only"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert float(rows[4].split(",")[2]) == analytic.log_cosh(5.0)

    def test_small_squeezing_keeps_its_digits(self, capsys):
        # at s = 1e-8 and r = 1/2: density log cosh s = s^2/2, max entropy
        # 2 log cosh 2s = 4 s^2 and total 4 density - log cosh(2s)/4
        assert main(["page-curve", "--modes", "4", "--squeeze", "1e-8", "--analytic-only"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1 + 2].split(",")
        assert row[:2] == ["0.5", "2"]
        expected = {2: 5.0e-17, 3: 1.5e-16, 4: 4.0e-16}
        for column, value in expected.items():
            assert float(row[column]) == pytest.approx(value, rel=1e-15)

    def test_lambda_once_tanh_rounds_to_one(self, capsys):
        # tanh^2(2s) rounds to 1 from s ~ 9.5, where 1 - tanh^2 used to reach log1p(-1)
        assert main(["page-curve", "--modes", "6", "--squeeze", "10", "--analytic-only"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1 + 3].split(",")
        assert float(row[3]) == 6 * float(row[2]) - 0.25 * analytic.log_cosh(20.0)

    def test_json_records_density_budget(self, tmp_path):
        out = tmp_path / "c.json"
        assert main([
            "page-curve", "--modes", "24", "--squeeze", "1.5", "--analytic-only",
            "--format", "json", "--out", str(out),
        ]) == 0
        metadata = json.loads(out.read_text())["metadata"]
        assert metadata["density"] == {"rule": analytic.DENSITY_RULE}
        assert "abs_tol" not in metadata and "max_terms" not in metadata

    def test_large_n_near_half(self, capsys):
        # |1 - 2r| = 1/20001 at r = 10000/20001: large n next to r = 1/2
        assert main(["page-curve", "--modes", "20001", "--squeeze", "1", "--analytic-only"]) == 0
        row = capsys.readouterr().out.splitlines()[1 + 10000].split(",")
        assert row[1] == "10000"
        assert abs(float(row[2]) - (analytic.log_cosh(1.0) - 1.7262e-9)) <= 1e-12

    @pytest.mark.parametrize("step", ["0.3", "0.7", "0", "1.5"])
    def test_grid_step_must_divide_one(self, step, capsys):
        assert main([
            "page-curve", "--modes", "10", "--squeeze", "0.5", "--analytic-only",
            "--grid-step", step,
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--grid-step" in captured.err

    @pytest.mark.parametrize("step, points", [("0.1", 11), ("0.25", 5), ("1", 2)])
    def test_grid_step_points(self, step, points, capsys):
        assert main([
            "page-curve", "--modes", "10", "--squeeze", "0.5", "--analytic-only",
            "--grid-step", step,
        ]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        grid = [float(row.split(",")[0]) for row in rows]
        assert grid == [i / (points - 1) for i in range(points)]

    def test_squeeze_length_mismatch(self):
        assert main(["page-curve", "--modes", "4", "--squeeze", "0.1,0.2"]) == 1


class TestJsonRoundTrip:
    def test_rerun_reproduces_numeric_columns(self, tmp_path):
        out1 = tmp_path / "a.json"
        args = [
            "page-curve", "--modes", "6", "--squeeze", "0.4",
            "--samples", "25", "--seed", "3", "--workers", "1",
            "--format", "json", "--out", str(out1),
        ]
        assert main(args) == 0
        record = json.loads(out1.read_text())
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["metadata"]["seed"] == 3
        assert record["metadata"]["rng_algorithm"] == "philox4x64"
        assert record["metadata"]["sampler"] == "bidiagonal-jacobi-ginibre-qr-haar-frame"
        assert record["metadata"]["blas_threads"] == 1
        assert_sampling_timings(record["metadata"], 25)

        out2 = tmp_path / "b.json"
        replay = list(record["command_line"])
        replay[replay.index(str(out1))] = str(out2)
        assert main(replay) == 0
        record2 = json.loads(out2.read_text())
        assert record2["rows"] == record["rows"]
        assert record2["columns"] == record["columns"]


class TestWeingartenCommand:
    def test_a_ell_table(self, capsys):
        assert main(["weingarten", "a-ell", "--max", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = [line.split(",")[1] for line in lines[1:]]
        assert values == ["-1", "4", "-16", "64"]

    def test_moment(self, capsys):
        assert main(["weingarten", "moment", "--powers", "1", "--n", "4", "--k", "2"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        assert line.split(",")[3] == "6/5"

    def test_wg_value(self, capsys):
        assert main(["weingarten", "wg", "--type", "2", "--n", "5"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        assert line.split(",")[3] == "-1/120"

    def test_omega2(self, capsys):
        assert main(["weingarten", "omega2", "--ladder", "8,16,32,64"]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        cells = last.split(",")
        assert cells[0] == "extrapolated"
        assert abs(float(cells[1]) - 0.5) <= 1e-3

    def test_capacity_exit_code(self, capsys, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("enumeration ran before the capacity check")

        monkeypatch.setattr(kernels, "xi_condition_sum", no_enumeration)
        assert main(["weingarten", "a-ell", "--max", "6"]) == 2
        assert main(["weingarten", "a-ell", "--max", "7"]) == 2

    @pytest.mark.parametrize("bad", ["0", "-1"])
    def test_a_ell_max_below_one_usage(self, capsys, bad):
        assert main(["weingarten", "a-ell", "--max", bad]) == 1
        assert f"--max must be >= 1, got {bad}" in capsys.readouterr().err

    @pytest.mark.parametrize("types, bad", [("3,-1", "-1"), ("2,0", "0")])
    def test_wg_bad_cycle_length_usage(self, capsys, types, bad):
        assert main(["weingarten", "wg", "--type", types, "--n", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cycle lengths must be >= 1, got {bad}" in captured.err

    def test_missing_flags_usage(self):
        assert main(["weingarten", "moment", "--powers", "1"]) == 1


class TestVerifyCommand:
    def test_coefficients_suite_passes(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        argv = ["verify", "--suite", "coefficients", "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "[PASS]" in text and "[FAIL]" not in text
        report = json.loads(out.read_text())
        assert report["columns"][1] == "passed" and report["columns"][-1] == "seconds"
        assert all(row[1] for row in report["rows"])
        seconds = [row[-1] for row in report["rows"]]
        assert all(isinstance(x, float) and x >= 0.0 for x in seconds)
        assert sum(seconds) <= report["metadata"]["wall_time_s"]

    def test_out_is_csv_by_default(self, capsys, tmp_path):
        # like every other command's record, --out follows --format, csv by default
        out = tmp_path / "report.csv"
        assert main(["verify", "--suite", "coefficients", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "name,passed,observed,expected,tolerance,seconds"
        assert len(lines) > 1 and all(",True," in line for line in lines[1:])

    def test_unknown_suite_usage(self):
        assert main(["verify", "--suite", "bogus"]) == 1

    @pytest.mark.parametrize("samples", ["-5", "0", "1", "49"])
    def test_samples_below_two_usage(self, capsys, samples):
        # below 50 samples the statistical bands fail for some seeds; the floor
        # is checked before any suite prints
        for suite in ("coefficients", "weingarten", "montecarlo", "all"):
            assert main(["verify", "--suite", suite, "--samples", samples]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"samples must be >= 50, got {samples}" in captured.err

    def test_every_suite_passes_at_the_sample_floor(self, capsys):
        assert main(["verify", "--suite", "all", "--samples", "50"]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_montecarlo_suite_passes(self, capsys):
        assert main(["verify", "--suite", "montecarlo"]) == 0
        text = capsys.readouterr().out
        assert "[PASS] worker-count invariance" in text and "[FAIL]" not in text


class TestExitCodes:
    def test_usage_error(self):
        assert main(["page-curve", "--modes", "abc", "--squeeze", "0.1"]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_numerical_error_exit(self, capsys, monkeypatch):
        # no known input makes the closed form fail, so stand one in
        def fail(*args):
            raise NumericalError("density failed")

        monkeypatch.setattr(analytic, "page_curve_density", fail)
        assert main(["page-curve", "--modes", "8", "--squeeze", "0.5", "--analytic-only"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "numerical error: density failed" in captured.err


class TestTypicalityCommand:
    def test_runs(self, capsys):
        assert main([
            "typicality", "--modes", "9,16", "--k-rule", "sqrt",
            "--squeeze", "0.5", "--epsilon", "0.2", "--samples", "50",
            "--workers", "1", "--seed", "5",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("n,k,epsilon")
        assert len(lines) == 3


class TestVarianceCommand:
    def test_runs(self, capsys):
        assert main([
            "variance", "--modes", "8,12", "--squeeze", "0.3",
            "--samples", "60", "--workers", "1", "--seed", "2",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    def test_bad_ladder_point_fails_before_sampling(self, capsys, no_sampling):
        assert main(["variance", "--modes", "8,9", "--squeeze", "0.3", "--ratio", "1/2"]) == 1
        assert "n=9 is not integral" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["variance", "--modes", "8", "--squeeze", "0.3"],
        ["typicality", "--modes", "8", "--squeeze", "0.3", "--epsilon", "0.1"],
        ["conjecture-probe", "--modes", "4", "--squeeze", "0.3", "--k", "2"],
    ],
    ids=["variance", "typicality", "conjecture-probe"],
)
@pytest.mark.parametrize("flag", ["--samples", "--workers"])
def test_sampling_commands_reject_zero_counts(command, flag, capsys):
    assert main(command + [flag, "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag[2:]} must be >= 1" in captured.err


@pytest.mark.parametrize(
    "command, message",
    [
        (["typicality", "--modes", "8", "--squeeze", "0.3", "--epsilon", "0.1",
          "--k-rule", "ratio:abc"], "'ratio:abc'"),
        (["typicality", "--modes", "8", "--squeeze", "0.3", "--epsilon", "0.1",
          "--k-rule", "ratio:"], "'ratio:'"),
        (["typicality", "--modes", "8", "--squeeze", "0.3", "--epsilon", "nan"], "epsilon"),
        (["typicality", "--modes", "8", "--squeeze", "0.3", "--epsilon", "inf"], "epsilon"),
        (["conjecture-probe", "--modes", "4", "--squeeze", "0.3", "--k", "2",
          "--delta", "nan"], "delta"),
        (["conjecture-probe", "--modes", "4", "--squeeze", "0.3", "--k", "2",
          "--delta", "inf"], "delta"),
        (["page-curve", "--modes", "4", "--squeeze", "0.3", "--samples", "-3"],
         "--samples must be >= 0, got -3"),
        (["page-curve", "--modes", "4", "--squeeze", "0.3", "--samples", "-3",
          "--analytic-only"], "--samples must be >= 0, got -3"),
    ],
    ids=["ratio-abc", "ratio-empty", "epsilon-nan", "epsilon-inf", "delta-nan", "delta-inf",
         "negative-samples", "negative-samples-analytic-only"],
)
def test_bad_sampling_inputs_rejected_before_sampling(command, message, capsys, no_sampling):
    assert main(command + ["--workers", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "command, beyond, within",
    [
        (["page-curve", "--modes", "4", "--samples", "3"], "400,0.5,0.5,0.5", "354,0.5,0.5,0.5"),
        (["conjecture-probe", "--modes", "3", "--k", "1", "--samples", "3"], "400", "354"),
    ],
    ids=["page-curve", "conjecture-probe"],
)
def test_squeezing_beyond_the_double_range_exits_2_before_sampling(command, beyond, within,
                                                                    capsys, monkeypatch):
    # e^{2|s|} overflows from |s| > log(DBL_MAX)/2 ~ 354.89 on the routes that
    # scale by sqrt(diag sigma_0): unequal squeezing, and both sides of the
    # probe's difference
    def refuse(*args):
        raise AssertionError("sampled before checking the squeezing bound")

    monkeypatch.setattr(montecarlo, "_map_samples", refuse)
    assert main(command + ["--squeeze", beyond, "--workers", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds log(DBL_MAX)/2 = 354.891356" in captured.err
    monkeypatch.undo()

    assert main(command + ["--squeeze", within, "--workers", "1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert all(math.isfinite(cell) for row in rows for cell in row if isinstance(cell, float))


def test_page_curve_at_equal_squeezing_beyond_the_double_range_stays_finite(capsys):
    # equal squeezing samples on the Jacobi route, which works in logarithms
    # and never forms e^{2s}
    assert main(["page-curve", "--modes", "4", "--squeeze", "400", "--samples", "3",
                 "--workers", "1", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    mean = record["columns"].index("mc_mean")
    means = [row[mean] for row in record["rows"]]
    assert all(math.isfinite(x) for row in record["rows"] for x in row if isinstance(x, float))
    assert means[0] == means[-1] == 0.0 and all(x > 0 for x in means[1:-1])
    assert means[1] == means[3]  # k and n - k share one draw


def test_typicality_at_squeezing_beyond_the_double_range_stays_finite(capsys):
    # the Jacobi route works in logarithms and never forms e^{2s}
    assert main(["typicality", "--modes", "6", "--squeeze", "400", "--epsilon", "0.1",
                 "--samples", "3", "--workers", "1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows and all(math.isfinite(row[5]) and row[5] > 0 for row in rows)


@pytest.mark.parametrize(
    "command",
    [
        ["variance", "--modes", ",", "--squeeze", "0.3", "--workers", "1"],
        ["typicality", "--modes", ",", "--squeeze", "0.3", "--epsilon", "0.1", "--workers", "1"],
        ["weingarten", "moment", "--powers", ",", "--n", "4", "--k", "2"],
        ["weingarten", "omega2", "--ladder", ","],
        ["weingarten", "wg", "--type", ",", "--n", "5"],
    ],
    ids=["variance-modes", "typicality-modes", "powers", "ladder", "type"],
)
def test_empty_integer_lists_are_usage_errors(command, capsys, no_sampling):
    assert main(command) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expects at least one integer, got ','" in captured.err


@pytest.mark.parametrize(
    "command",
    [
        ["weingarten", "a-ell", "--max", "2"],
        ["verify", "--suite", "coefficients"],
    ],
    ids=["weingarten", "verify"],
)
def test_commands_without_sampling_take_no_workers(command, capsys):
    assert main(command + ["--workers", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --workers 2" in captured.err


@pytest.mark.parametrize(
    "command",
    [
        ["variance", "--modes", "8", "--squeeze", "0.3"],
        ["typicality", "--modes", "8", "--squeeze", "0.3", "--epsilon", "0.1"],
        ["conjecture-probe", "--modes", "4", "--squeeze", "0.3", "--k", "2"],
    ],
    ids=["variance", "typicality", "conjecture-probe"],
)
def test_sampling_records_name_sampler(command, capsys):
    assert main(command + ["--samples", "5", "--workers", "1", "--format", "json"]) == 0
    metadata = json.loads(capsys.readouterr().out)["metadata"]
    assert metadata["rng_algorithm"] == "philox4x64"
    assert metadata["sampler"] == "bidiagonal-jacobi-ginibre-qr-haar-frame"
    assert metadata["blas_threads"] == 1
    assert_sampling_timings(metadata, 5)


def assert_sampling_timings(metadata, samples):
    """`timings` of a sampling record: seconds in the sampler and its sample rate."""
    timings = metadata["timings"]
    assert set(timings) == {"sampling_s", "samples_per_s"}
    assert 0.0 < timings["sampling_s"] <= metadata["wall_time_s"]
    assert timings["samples_per_s"] == pytest.approx(samples / timings["sampling_s"], rel=1e-2)


RECORD_KEYS = ["schema_version", "command", "command_line", "columns", "rows", "metadata"]
BASE_METADATA = {"seed", "rng_algorithm", "sampler", "wall_time_s"}
SAMPLING_METADATA = BASE_METADATA | {"blas_threads", "workers", "timings"}
PAGE_CURVE_METADATA = BASE_METADATA | {"modes", "squeezing", "density"}


@pytest.mark.parametrize(
    "request_argv, command, metadata",
    [
        (["page-curve", "--modes", "6", "--squeeze", "0.5", "--samples", "4", "--workers", "1"],
         "page-curve", PAGE_CURVE_METADATA | SAMPLING_METADATA),
        (["page-curve", "--modes", "6", "--squeeze", "0.5", "--analytic-only"],
         "page-curve", PAGE_CURVE_METADATA),
        (["variance", "--modes", "4,8", "--squeeze", "0.5", "--samples", "4", "--workers", "1"],
         "variance", SAMPLING_METADATA | {"squeeze"}),
        (["typicality", "--modes", "6", "--squeeze", "0.5", "--epsilon", "0.1",
          "--samples", "4", "--workers", "1"],
         "typicality", SAMPLING_METADATA | {"k_rule", "squeeze"}),
        (["conjecture-probe", "--modes", "4", "--squeeze", "0.5", "--k", "2",
          "--samples", "4", "--workers", "1"],
         "conjecture-probe", SAMPLING_METADATA),
        (["weingarten", "a-ell", "--max", "2"], "weingarten a-ell", BASE_METADATA),
        (["weingarten", "wg", "--type", "2,1", "--n", "4"], "weingarten wg", BASE_METADATA),
        (["weingarten", "moment", "--powers", "1", "--n", "4", "--k", "2"],
         "weingarten moment", BASE_METADATA),
        (["weingarten", "omega2", "--ladder", "8,16"], "weingarten omega2", BASE_METADATA),
    ],
    ids=["page-curve-sampled", "page-curve-analytic", "variance", "typicality",
         "conjecture-probe", "a-ell", "wg", "moment", "omega2"],
)
def test_run_record_envelope(request_argv, command, metadata, tmp_path, capsys):
    argv = request_argv + ["--format", "json", "--out", str(tmp_path / "record.json")]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    record = json.loads((tmp_path / "record.json").read_text())
    assert list(record) == RECORD_KEYS
    assert record["schema_version"] == SCHEMA_VERSION
    assert record["command"] == command
    assert record["command_line"] == argv
    assert set(record["metadata"]) == metadata
    wall = record["metadata"]["wall_time_s"]
    assert wall >= record["metadata"].get("timings", {}).get("sampling_s", 0.0) >= 0.0


class TestConjectureCommand:
    def test_runs(self, capsys):
        assert main([
            "conjecture-probe", "--modes", "4", "--squeeze", "0.5", "--k", "2",
            "--samples", "40", "--workers", "1", "--seed", "3",
        ]) == 0
        header = capsys.readouterr().out.strip().splitlines()[0]
        assert "derivative" in header


WATCHED_MODULES = (
    "numpy", "dataclasses", "inspect", "pagecurve.analytic", "pagecurve.weingarten",
    "pagecurve.kernels",
)


def _modules_after(env, *requests):
    """The WATCHED_MODULES that a fresh interpreter holds after running `requests`."""
    script = (
        "import contextlib, io, sys\n"
        "from pagecurve.cli import main\n"
        f"for argv in {[list(r) for r in requests]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        f"print(sorted(m for m in {WATCHED_MODULES!r} if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(ast.literal_eval(out.splitlines()[-1]))


def test_numpy_loads_only_to_sample():
    # fresh interpreters: each command imports only the engine modules it runs, none
    # imports `dataclasses` (nor `inspect` without numpy), and sampled digits do not
    # depend on the OpenBLAS thread count the user asks for
    env = dict(os.environ, PYTHONPATH=str(Path(pagecurve.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    assert _modules_after(
        env,
        ["weingarten", "a-ell", "--max", "3"],
        ["weingarten", "moment", "--n", "12", "--k", "6", "--powers", "1,2"],
        ["weingarten", "omega2", "--ladder", "8,16"],
    ) == {"pagecurve.weingarten", "pagecurve.kernels"}
    assert _modules_after(
        env, ["page-curve", "--modes", "16", "--squeeze", "1", "--analytic-only"],
    ) == {"pagecurve.analytic"}
    assert _modules_after(
        env,
        ["typicality", "--modes", "20", "--k-rule", "sqrt", "--squeeze", "0.75",
         "--epsilon", "0.1", "--samples", "4", "--workers", "1"],
        ["page-curve", "--modes", "6", "--squeeze", "0.75", "--samples", "4", "--workers", "1"],
    ) - {"inspect"} == {"numpy", "pagecurve.analytic"}  # numpy imports inspect itself
    assert "dataclasses" not in _modules_after(
        env, ["verify", "--suite", "coefficients"],  # loads every engine module
    )

    # the n = 100 page curve's QR changes in its last bits with the thread count
    for request in (
        ["typicality", "--modes", "100", "--k-rule", "sqrt", "--squeeze", "0.75",
         "--epsilon", "0.1", "--samples", "8", "--workers", "1"],
        ["page-curve", "--modes", "100", "--squeeze", "0.75", "--samples", "2", "--workers", "1"],
    ):
        argv = [sys.executable, "-m", "pagecurve.cli", *request]
        default = subprocess.run(argv, env=env, capture_output=True, check=True).stdout
        two = subprocess.run(argv, env={**env, "OPENBLAS_NUM_THREADS": "2"},
                             capture_output=True, check=True).stdout
        assert default == two and default.count(b"\n") > 1


def test_collector_frozen_at_exit_only_as_the_program(tmp_path, capsys, monkeypatch):
    # run as the program, main() registers gc.freeze at exit; a handler registered
    # before it runs after it (last in, first out) and sees the frozen objects
    env = dict(os.environ, PYTHONPATH=str(Path(pagecurve.__file__).parents[1]))
    out = tmp_path / "record.json"
    request = ["page-curve", "--modes", "6", "--squeeze", "0.75", "--samples", "4",
               "--workers", "1", "--seed", "11"]
    json_request = request + ["--format", "json", "--out", str(out)]
    script = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "from pagecurve.cli import main\n"
        "sys.exit(main())\n"
    )

    def program(argv):
        return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, check=True)

    def without_times(path):
        record = json.loads(path.read_text())
        del record["metadata"]["wall_time_s"], record["metadata"]["timings"]
        return record

    csv_run, json_run = program(request), program(json_request)
    assert csv_run.stderr == json_run.stderr == b"frozen True\n"
    assert json_run.stdout == b""
    program_record = without_times(out)

    # in process, main(argv) touches neither the collector nor the exit handlers
    def refuse(*args):
        raise AssertionError("main(argv) registered an exit handler or froze the collector")

    monkeypatch.setattr(atexit, "register", refuse)
    monkeypatch.setattr(gc, "freeze", refuse)
    assert main(request) == 0
    assert capsys.readouterr().out.encode() == csv_run.stdout  # bytes: CSV rows end in \r\n
    assert main(json_request) == 0
    assert without_times(out) == program_record
    assert gc.get_freeze_count() == 0
