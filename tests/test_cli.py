"""Command-line tests, driving ``main`` directly."""

import ast
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from mebf import cli, metrics
from mebf.boolmat import BinaryMatrix, bool_product
from mebf.cli import _build_parser, main
from mebf.factorize import MebfConfig, mebf_factorize
from mebf.matio import binarize, read_matrix, write_matrix
from mebf.simulate import SimulationSpec, simulate
from reference import identity, ones

BLOCK_DIAGONAL = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]


@pytest.fixture
def block_file(tmp_path):
    path = tmp_path / "block.txt"
    write_matrix(BinaryMatrix.from_dense(BLOCK_DIAGONAL), path, "dense01")
    return path


class TestFactorize:
    def test_block_diagonal(self, tmp_path, block_file, capsys):
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        report_path = tmp_path / "report.json"
        code = main(["factorize", "--input", str(block_file),
                     "--t", "0.5", "--k", "2",
                     "--out-a", str(out_a), "--out-b", str(out_b),
                     "--report", str(report_path)])
        assert code == 0
        assert capsys.readouterr().out == "4 0\n"
        report = json.loads(report_path.read_text())
        assert report["coverage_rate"] == 1.0
        assert report["density"] == 0.5
        assert report["final_cost"] == 0
        assert report["cost_history"] == [4, 0]
        assert "wall_time_s" not in report
        a = read_matrix(out_a, "dense01")
        b = read_matrix(out_b, "dense01")
        assert bool_product(a, b) == BinaryMatrix.from_dense(BLOCK_DIAGONAL)

    def test_all_zero_input(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        write_matrix(BinaryMatrix.zeros(3, 3), path, "dense01")
        report_path = tmp_path / "report.json"
        code = main(["factorize", "--input", str(path), "--t", "0.5",
                     "--k", "3", "--report", str(report_path)])
        assert code == 0
        assert capsys.readouterr().out == "\n"
        report = json.loads(report_path.read_text())
        assert report["pattern_count"] == 0
        assert report["final_cost"] == 0
        assert "coverage_rate" not in report

    @pytest.mark.parametrize("dense", [BLOCK_DIAGONAL, [[0] * 3] * 3])
    def test_no_report_means_no_product(self, tmp_path, monkeypatch, capsys,
                                        dense):
        # without --report the logged final cost comes from the cost trace
        path = tmp_path / "x.txt"
        write_matrix(BinaryMatrix.from_dense(dense), path, "dense01")
        report_path = tmp_path / "report.json"
        args = ["factorize", "--input", str(path), "--t", "0.5", "--k", "2"]
        assert main(args + ["--report", str(report_path)]) == 0
        with_report = capsys.readouterr()
        products = []

        def recording(*factors):
            products.append(factors)
            return bool_product(*factors)

        monkeypatch.setattr(metrics, "bool_product", recording)
        assert main(args) == 0
        without = capsys.readouterr()
        assert products == []
        assert without.out == with_report.out
        # the same log line up to the elapsed time
        assert (without.err.rsplit(",", 1)[0]
                == with_report.err.rsplit(",", 1)[0])
        final_cost = json.loads(report_path.read_text())["final_cost"]
        assert f", final cost {final_cost}, " in without.err

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code = main(["factorize", "--input", str(tmp_path / "nope.txt"),
                     "--t", "0.5", "--k", "2"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_threshold_is_usage_error(self, block_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["factorize", "--input", str(block_file),
                  "--t", "1.5", "--k", "2"])
        assert excinfo.value.code == 2

    def test_bad_budget_is_usage_error(self, block_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["factorize", "--input", str(block_file),
                  "--t", "0.5", "--k", "0"])
        assert excinfo.value.code == 2

    def test_csv_input_is_binarized(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        write_matrix(np.array([[2.5, 2.5, 0.0], [2.5, 2.5, 0.0]]), path,
                     "csv")
        code = main(["factorize", "--input", str(path), "--format", "csv",
                     "--t", "0.5", "--k", "1"])
        assert code == 0
        assert capsys.readouterr().out == "0\n"

    def test_csv_threshold_is_strict(self, tmp_path):
        # an entry equal to the threshold becomes 0, one above it 1
        path, out_b = tmp_path / "x.csv", tmp_path / "b.txt"
        write_matrix(np.array([[0.5, 0.7, 2.0], [0.5, 0.7, 2.0]]), path,
                     "csv")
        code = main(["factorize", "--input", str(path), "--format", "csv",
                     "--threshold", "0.5", "--t", "0.5", "--k", "1",
                     "--out-b", str(out_b)])
        assert code == 0
        assert out_b.read_text() == "011\n"


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path):
        args = ["simulate", "--n", "12", "--m", "15", "--k", "3",
                "--p0", "0.3", "--p", "0.05", "--seed", "42"]
        first = tmp_path / "x1.txt"
        second = tmp_path / "x2.txt"
        assert main(args + ["--out", str(first), "--out-a",
                            str(tmp_path / "u1"), "--out-b",
                            str(tmp_path / "v1")]) == 0
        assert main(args + ["--out", str(second), "--out-a",
                            str(tmp_path / "u2"), "--out-b",
                            str(tmp_path / "v2")]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "u1").read_bytes() == (tmp_path / "u2").read_bytes()
        assert (tmp_path / "v1").read_bytes() == (tmp_path / "v2").read_bytes()

    def test_zero_rates_give_zero_matrix(self, tmp_path):
        out = tmp_path / "x.txt"
        assert main(["simulate", "--n", "4", "--m", "5", "--k", "2",
                     "--p0", "0", "--p", "0", "--out", str(out)]) == 0
        assert read_matrix(out, "dense01") == BinaryMatrix.zeros(4, 5)

    def test_preset_expands_to_grid_values(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        assert main(["simulate", "--scenarios", "100x100_d0.2_n0",
                     "--seed", "1", "--out", str(out)]) == 0
        mat = read_matrix(out, "dense01")
        assert mat.shape == (100, 100)
        assert "k=5" in capsys.readouterr().err

    def test_conflicting_flags_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--scenarios", "100x100_d0.2_n0",
                     "--n", "10", "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_incomplete_flags_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--n", "10", "--m", "10",
                     "--out", str(tmp_path / "x.txt")])
        assert code == 2

    def test_rate_outside_unit_interval_is_usage_error(self, tmp_path,
                                                      capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--n", "4", "--m", "4", "--k", "1",
                  "--p0", "1.5", "--p", "0", "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2
        assert "1.5 does not lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_seed_is_named(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        code = main(["simulate", "--n", "4", "--m", "4", "--k", "1",
                     "--p0", "0.5", "--p", "0", "--seed", "-1",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: seed must be non-negative, got -1\n")
        assert not out.exists()

    def test_unknown_preset_rejected(self, tmp_path):
        assert main(["simulate", "--scenarios", "whatever",
                     "--out", str(tmp_path / "x.txt")]) == 2

    def test_coo_output(self, tmp_path):
        out = tmp_path / "x.coo"
        assert main(["simulate", "--n", "6", "--m", "6", "--k", "2",
                     "--p0", "0.4", "--p", "0", "--seed", "3",
                     "--format", "coo", "--out", str(out)]) == 0
        assert read_matrix(out, "coo").shape == (6, 6)


class TestBench:
    SCENARIOS = "100x100_d0.2_n0,100x100_d0.4_n0.01"

    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--scenarios", self.SCENARIOS,
                     "--replicates", "3", "--seed", "5",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("scenario,replicate,seed,reconstruction_error,"
                            "density,coverage,patterns,seconds")
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert first[0] == "100x100_d0.2_n0"
        assert first[1] == "0" and first[2] == "5"
        assert 0.0 <= float(first[3])
        assert 1 <= int(first[6]) <= 10

    def test_deterministic_apart_from_seconds(self, tmp_path):
        runs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            assert main(["bench", "--scenarios", "100x100_d0.2_n0",
                         "--replicates", "2", "--seed", "9",
                         "--out", str(out)]) == 0
            rows = [line.rsplit(",", 1)[0]
                    for line in out.read_text().splitlines()]
            runs.append(rows)
        assert runs[0] == runs[1]

    def test_replicate_runs_as_its_own_seed(self, tmp_path):
        # row r of --seed s is row 0 of --seed s+r: each run keeps its
        # replicate seed and shares no state with the runs before it
        def rows(seed, replicates):
            out = tmp_path / f"{seed}-{replicates}.csv"
            assert main(["bench", "--scenarios", self.SCENARIOS,
                         "--replicates", str(replicates), "--seed",
                         str(seed), "--out", str(out)]) == 0
            return [line.split(",")
                    for line in out.read_text().splitlines()[1:]]

        def kept(row):  # every field but replicate and seconds
            return row[:1] + row[2:7]

        batch = rows(4, 3)
        assert [row[1] for row in batch] == ["0", "1", "2"] * 2
        for r in range(3):
            single = rows(4 + r, 1)
            assert [row[1] for row in single] == ["0", "0"]
            assert [kept(batch[r]), kept(batch[3 + r])] == [
                kept(row) for row in single]

    def test_stdout_default(self, capsys):
        assert main(["bench", "--scenarios", "100x100_d0.2_n0",
                     "--replicates", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2

    def test_unknown_scenario(self, capsys):
        assert main(["bench", "--scenarios", "bogus"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_default_runs_every_scenario(self, tmp_path):
        from mebf.simulate import preset_grid
        out = tmp_path / "bench.csv"
        assert main(["bench", "--replicates", "1", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [
            sc["name"] for sc in preset_grid()]

    def test_negative_seed_is_named(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--scenarios", "100x100_d0.2_n0",
                     "--replicates", "1", "--seed", "-1", "--out", str(out)])
        assert code == 1
        # the seed is rejected before the header line is logged
        assert capsys.readouterr().err == (
            "error: seed must be non-negative, got -1\n")
        assert not out.exists()

    def test_grid_has_eight_scenarios(self):
        from mebf.simulate import preset_grid
        assert len(preset_grid()) == 8


class TestMetrics:
    def test_round_trip_report_matches_factorize(self, tmp_path, block_file):
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        original = tmp_path / "factorize.json"
        rebuilt = tmp_path / "metrics.json"
        assert main(["factorize", "--input", str(block_file),
                     "--t", "0.5", "--k", "2", "--out-a", str(out_a),
                     "--out-b", str(out_b), "--report", str(original)]) == 0
        assert main(["metrics", "--input", str(block_file),
                     "--a", str(out_a), "--b", str(out_b),
                     "--report", str(rebuilt)]) == 0
        assert original.read_bytes() == rebuilt.read_bytes()

    @pytest.mark.parametrize("fmt", ["dense01", "coo"])
    def test_report_rebuilt_from_planted_files(self, tmp_path, fmt):
        x_path = tmp_path / f"x.{fmt}"
        assert main(["simulate", "--n", "600", "--m", "500", "--k", "5",
                     "--p0", "0.2", "--p", "0.01", "--seed", "5",
                     "--out", str(x_path), "--format", fmt]) == 0
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        original = tmp_path / "factorize.json"
        rebuilt = tmp_path / "metrics.json"
        assert main(["factorize", "--input", str(x_path), "--format", fmt,
                     "--t", "0.8", "--k", "10", "--out-a", str(out_a),
                     "--out-b", str(out_b), "--report", str(original)]) == 0
        assert main(["metrics", "--input", str(x_path), "--format", fmt,
                     "--a", str(out_a), "--b", str(out_b),
                     "--report", str(rebuilt)]) == 0
        assert json.loads(original.read_bytes())["pattern_count"] > 1
        assert original.read_bytes() == rebuilt.read_bytes()

    def test_truth_enables_reconstruction_error(self, tmp_path):
        x_path = tmp_path / "x.txt"
        u_path = tmp_path / "u.txt"
        v_path = tmp_path / "v.txt"
        assert main(["simulate", "--n", "20", "--m", "20", "--k", "3",
                     "--p0", "0.4", "--p", "0", "--seed", "11",
                     "--out", str(x_path), "--out-a", str(u_path),
                     "--out-b", str(v_path)]) == 0
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["factorize", "--input", str(x_path), "--t", "0.6",
                     "--k", "6", "--out-a", str(out_a),
                     "--out-b", str(out_b)]) == 0
        report_path = tmp_path / "rep.json"
        assert main(["metrics", "--input", str(x_path), "--a", str(out_a),
                     "--b", str(out_b), "--u", str(u_path),
                     "--v", str(v_path), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert "reconstruction_error" in report

    def test_perfect_factors_cover_fully(self, tmp_path, block_file,
                                          capsys):
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["factorize", "--input", str(block_file), "--t", "0.5",
              "--k", "2", "--out-a", str(out_a), "--out-b", str(out_b)])
        capsys.readouterr()
        assert main(["metrics", "--input", str(block_file),
                     "--a", str(out_a), "--b", str(out_b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coverage_rate"] == 1.0

    def test_empty_factors_cover_nothing(self, tmp_path, block_file,
                                         capsys):
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_matrix(BinaryMatrix.zeros(4, 0), out_a, "dense01")
        write_matrix(BinaryMatrix.zeros(0, 4), out_b, "dense01")
        assert main(["metrics", "--input", str(block_file),
                     "--a", str(out_a), "--b", str(out_b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coverage_rate"] == 0.0
        assert report["pattern_count"] == 0

    def test_hand_example_two_thirds(self, tmp_path, capsys):
        x_path = tmp_path / "x.txt"
        write_matrix(BinaryMatrix.from_dense([[1, 1], [0, 1]]), x_path,
                     "dense01")
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_matrix(identity(2), out_a, "dense01")
        write_matrix(identity(2), out_b, "dense01")
        assert main(["metrics", "--input", str(x_path), "--a", str(out_a),
                     "--b", str(out_b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coverage_rate"] == 2 / 3

    @pytest.mark.parametrize("k", [0, 2])
    def test_factors_that_do_not_fit_the_input(self, tmp_path, capsys, k):
        x_path = tmp_path / "x.txt"
        write_matrix(ones(3, 4), x_path, "dense01")
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_matrix(ones(2, k), out_a, "dense01")
        write_matrix(ones(k, 4), out_b, "dense01")
        assert main(["metrics", "--input", str(x_path), "--a", str(out_a),
                     "--b", str(out_b)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: shape mismatch: (3, 4) vs (2, 4)\n"

    def test_lone_truth_flag_rejected(self, tmp_path, block_file, capsys):
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["factorize", "--input", str(block_file), "--t", "0.5",
              "--k", "2", "--out-a", str(out_a), "--out-b", str(out_b)])
        capsys.readouterr()
        assert main(["metrics", "--input", str(block_file),
                     "--a", str(out_a), "--b", str(out_b),
                     "--u", str(out_a)]) == 2

    def test_lone_truth_flag_rejected_before_any_read(self, tmp_path,
                                                     capsys):
        missing = str(tmp_path / "missing.txt")
        assert main(["metrics", "--input", missing, "--a", missing,
                     "--b", missing, "--u", str(tmp_path / "u.txt")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "usage error: provide both --u and --v, or neither\n")


class TestMalformedInput:
    """Malformed files exit 1 with a message that names the bad line."""

    @pytest.mark.parametrize("fmt,content,message", [
        ("coo", b"2 2 1\n1 1\n2 2\n",
         "line 3: expected 1 coordinate lines, found 2"),
        ("coo", b"2 2 2\n1 1\n",
         "line 3: expected 2 coordinate lines, found 1"),
        ("dense01", b"10\n0\xc3\xa9\n",
         "line 2: invalid character '\\xc3', expected ASCII text"),
        ("csv", b"1.5\n\xc3\xa9\n",
         "line 2: invalid character '\\xc3', expected ASCII text"),
    ])
    def test_stderr_names_the_line(self, tmp_path, capsys, fmt, content,
                                   message):
        path = tmp_path / "x.dat"
        path.write_bytes(content)
        code = main(["factorize", "--input", str(path), "--format", fmt,
                     "--t", "0.5", "--k", "2"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unallocatable_header_is_runtime_error(self, tmp_path, capsys):
        # numpy refuses the 8 EiB packed array at once, allocating nothing
        path = tmp_path / "huge.coo"
        path.write_text("9223372036854775807 1 0\n")
        code = main(["factorize", "--input", str(path), "--format", "coo",
                     "--t", "0.5", "--k", "2"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestDenoise:
    def test_masks_outside_support(self, tmp_path):
        rng = np.random.default_rng(139)
        values = np.zeros((12, 14))
        values[np.ix_(range(0, 6), range(0, 7))] = rng.uniform(
            1, 5, (6, 7))
        values[np.ix_(range(6, 12), range(7, 14))] = rng.uniform(
            1, 5, (6, 7))
        src = tmp_path / "x.csv"
        dst = tmp_path / "out.csv"
        write_matrix(values, src, "csv")
        assert main(["denoise", "--input", str(src), "--out",
                     str(dst)]) == 0
        result = mebf_factorize(binarize(values), MebfConfig(t=0.6, k_max=5))
        support = bool_product(result.A, result.B).to_dense().astype(bool)
        out = read_matrix(dst, "csv")
        assert np.array_equal(out[support], values[support])
        assert not out[~support].any()

    def test_all_zero_input(self, tmp_path):
        src = tmp_path / "x.csv"
        dst = tmp_path / "out.csv"
        write_matrix(np.zeros((3, 4)), src, "csv")
        assert main(["denoise", "--input", str(src), "--out",
                     str(dst)]) == 0
        assert np.array_equal(read_matrix(dst, "csv"), np.zeros((3, 4)))

    def test_threshold_is_strict(self, tmp_path):
        # an entry equal to the threshold becomes 0 and is masked out; the
        # entries above it form the one pattern and are kept
        src, dst = tmp_path / "x.csv", tmp_path / "out.csv"
        out_b = tmp_path / "b.txt"
        write_matrix(np.array([[0.5, 0.7, 2.0], [0.5, 0.7, 2.0]]), src,
                     "csv")
        assert main(["denoise", "--input", str(src), "--threshold", "0.5",
                     "--out", str(dst), "--out-b", str(out_b)]) == 0
        assert out_b.read_text() == "011\n"
        assert np.array_equal(read_matrix(dst, "csv"),
                              [[0.0, 0.7, 2.0], [0.0, 0.7, 2.0]])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["factorize", "denoise", "metrics"])
def test_non_finite_threshold_is_usage_error(tmp_path, capsys, command,
                                             value):
    # a nan threshold binarizes every entry to 0, so it used to factorize
    # an empty matrix; each command now stops before it reads or writes
    src, a, b = tmp_path / "x.csv", tmp_path / "a.txt", tmp_path / "b.txt"
    write_matrix(np.array([[0.5, 0.7, 2.0], [0.5, 0.7, 2.0]]), src, "csv")
    write_matrix(ones(2, 1), a, "dense01")
    write_matrix(ones(1, 3), b, "dense01")
    inputs = sorted(tmp_path.iterdir())
    out = tmp_path / "out"
    flags = {
        "factorize": ["--format", "csv", "--t", "0.5", "--k", "2",
                      "--out-a", out / "a", "--out-b", out / "b",
                      "--report", out / "r"],
        "denoise": ["--out", out / "x", "--out-a", out / "a",
                    "--out-b", out / "b", "--report", out / "r"],
        "metrics": ["--format", "csv", "--a", a, "--b", b,
                    "--report", out / "r"],
    }[command]
    out.mkdir()
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--input", str(src), f"--threshold={value}"]
             + [str(flag) for flag in flags])
    assert excinfo.value.code == 2
    assert "is not a finite number" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted(inputs + [out])
    assert list(out.iterdir()) == []


class TestOracleCommand:
    """The exhaustive search is a library function, not a command."""

    def test_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "x.txt"
        write_matrix(identity(2), path, "dense01")
        with pytest.raises(SystemExit) as excinfo:
            main(["oracle", "--input", str(path), "--k", "1"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'oracle'" in capsys.readouterr().err

    def test_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        assert "factorize" in text
        assert "oracle" not in text
        assert text.splitlines()[0] == (
            "usage: mebf [-h] {factorize,simulate,bench,denoise,metrics} ...")


COMMANDS = ("factorize", "simulate", "bench", "denoise", "metrics")

# each command's other required flags, and its --t and --k defaults (None
# where the flag is required)
BUDGET_DEFAULTS = {
    "factorize": (["--input", "x.txt"], None, None),
    "bench": ([], 0.8, 10),
    "denoise": (["--input", "x.csv", "--out", "y.csv"], 0.6, 5),
}


@pytest.mark.parametrize("command", sorted(BUDGET_DEFAULTS))
def test_budget_flag_defaults(capsys, command):
    others, t, k = BUDGET_DEFAULTS[command]
    parser = _build_parser()
    given = parser.parse_args([command, *others, "--t", "0.5", "--k", "3"])
    assert (given.t, given.k) == (0.5, 3)
    for flag, default, other in (("--t", t, ["--k", "3"]),
                                 ("--k", k, ["--t", "0.5"])):
        argv = [command, *others, *other]
        if default is None:
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(argv)
            assert excinfo.value.code == 2
            assert capsys.readouterr().err.endswith(
                f"the following arguments are required: {flag}\n")
        else:
            assert getattr(parser.parse_args(argv), flag[2:]) == default


@pytest.mark.parametrize("command", COMMANDS)
def test_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: mebf {command} ")


@pytest.mark.parametrize("argv,message", [
    (["factorize", "--input", "x.txt", "--t", "abc", "--k", "2"],
     "argument --t: invalid float value: 'abc'"),
    (["factorize", "--input", "x.txt", "--t", "0.5", "--k", "1.5"],
     "argument --k: invalid int value: '1.5'"),
    (["simulate", "--n", "4", "--m", "4", "--k", "1", "--p0", "x",
      "--p", "0", "--out", "x.txt"],
     "argument --p0: invalid float value: 'x'"),
    (["denoise", "--input", "x.csv", "--out", "y.csv", "--threshold", "x"],
     "argument --threshold: invalid float value: 'x'"),
])
def test_unparsable_number_names_its_type(tmp_path, monkeypatch, capsys,
                                          argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_unknown_preset_is_reported_alike(tmp_path, capsys):
    out = tmp_path / "x.txt"
    assert main(["simulate", "--scenarios", "bogus", "--out", str(out)]) == 2
    from_simulate = capsys.readouterr().err
    assert main(["bench", "--scenarios", "bogus"]) == 2
    assert capsys.readouterr().err == from_simulate
    assert from_simulate.startswith(
        "usage error: unknown scenarios ['bogus']; choose from: "
        "100x100_d0.2_n0, ")
    assert not out.exists()


def test_shared_flags_are_declared_once():
    # factorize, bench and denoise share one --t; factorize, simulate and
    # denoise one --out-a and --out-b; factorize, denoise and metrics one
    # --input, --threshold and --report
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    constants = [node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant)]
    for flag in ("--t", "--out-a", "--out-b", "--input", "--threshold",
                 "--report"):
        assert constants.count(flag) == 1, flag


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith(
        "required: {factorize,simulate,bench,denoise,metrics}\n")


# the planted instances of the benchmark's two pipeline workloads, as
# (format, spec, t, k)
PEAK_INSTANCES = (
    ("coo", SimulationSpec(n=16000, m=500, k=12, p0=0.06, p=0.003, seed=0),
     0.3, 20),
    ("dense01", SimulationSpec(n=2000, m=2000, k=5, p0=0.2, p=0.01, seed=0),
     0.8, 10),
)
BENCH_SCENARIO = "1000x1000_d0.2_n0.01"
# tracemalloc peak of each command, as a multiple of the packed input (the
# float64 matrix for denoise), and the layer that sets it; measured in a
# process that has run the command once.  Lower a bound as a command
# allocates less, never raise it.
COMMAND_PEAKS = {
    "factorize-coo": (2.88, "row_dot_counts' parts of rows in "
                            "mebf_factorize"),
    "factorize-dense01": (3.57, "the dense01 read of X"),
    "metrics-coo": (3.28, "reconstruction_error's count, beside X, A∘B "
                           "and U∘V"),
    "metrics-dense01": (3.57, "the dense01 read of X"),
    "denoise-csv": (2.16, "mask_denoise, beside the input it masks"),
    "simulate-dense01": (3.05, "the dense01 writer"),
    "bench-" + BENCH_SCENARIO: (3.74, "build_report with the truth"),
    # one scenario's peak, whatever the replicates: each run's instance,
    # factors and report are gone before the next run starts
    "bench-" + BENCH_SCENARIO + "-x2": (3.74, "build_report with the "
                                              "truth"),
    # ten replicates: each run's spec is built when the run starts, not
    # all of them before the first
    "bench-" + BENCH_SCENARIO + "-x10": (3.75, "build_report with the "
                                               "truth"),
}


@pytest.fixture(scope="module")
def peak_inputs(tmp_path_factory):
    """The input files of each command, and the size each peak is a
    multiple of."""
    root = tmp_path_factory.mktemp("peak_inputs")
    argv, base = {}, {}
    for fmt, spec, t, k in PEAK_INSTANCES:
        x, u, v = simulate(spec)
        result = mebf_factorize(x, MebfConfig(t=t, k_max=k))
        files = {}
        for name, mat in (("x", x), ("u", u), ("v", v),
                          ("a", result.A), ("b", result.B)):
            files[name] = str(root / f"{name}.{fmt}")
            write_matrix(mat, files[name], fmt if name == "x" else "dense01")
        source = ["--input", files["x"], "--format", fmt]
        argv[f"factorize-{fmt}"] = ["factorize", *source, "--t", str(t),
                                    "--k", str(k), "--out-a", "a.txt",
                                    "--out-b", "b.txt", "--report", "r.json"]
        argv[f"metrics-{fmt}"] = ["metrics", *source, "--a", files["a"],
                                  "--b", files["b"], "--u", files["u"],
                                  "--v", files["v"], "--report", "r.json"]
        base[f"factorize-{fmt}"] = base[f"metrics-{fmt}"] = \
            x._packed.nbytes
    argv["simulate-dense01"] = ["simulate", "--n", "2000", "--m", "2000",
                                "--k", "5", "--p0", "0.2", "--p", "0.01",
                                "--out", "x.txt", "--out-a", "u.txt",
                                "--out-b", "v.txt"]
    base["simulate-dense01"] = base["factorize-dense01"]
    for suffix, replicates in (("", "1"), ("-x2", "2"), ("-x10", "10")):
        argv["bench-" + BENCH_SCENARIO + suffix] = [
            "bench", "--scenarios", BENCH_SCENARIO, "--replicates",
            replicates, "--out", "bench.csv"]
        base["bench-" + BENCH_SCENARIO + suffix] = 1000 * 125  # packed X
    # 30 % non-zero standard normals
    rng = np.random.default_rng(0)
    real = np.where(rng.random((600, 600)) < 0.3,
                    rng.standard_normal((600, 600)), 0.0)
    write_matrix(real, root / "x.csv", "csv")
    argv["denoise-csv"] = ["denoise", "--input", str(root / "x.csv"),
                           "--out", "x.csv", "--out-a", "a.txt",
                           "--out-b", "b.txt", "--report", "r.json"]
    base["denoise-csv"] = real.nbytes
    return argv, base


@pytest.mark.parametrize("command", sorted(COMMAND_PEAKS))
def test_command_peak_is_a_stated_multiple(peak_inputs, tmp_path,
                                           monkeypatch, command):
    argv, base = (table[command] for table in peak_inputs)
    bound, layer = COMMAND_PEAKS[command]
    monkeypatch.chdir(tmp_path)  # outputs are written here
    # the first run in a process also pays one-off imports and caches
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * base, (
        f"{command} peaked at {peak / base:.4f}x, set by {layer}")
