"""Command-line tests, driving ``main`` directly."""

import json

import numpy as np
import pytest

from mebf.boolmat import BinaryMatrix, bool_product
from mebf.cli import main
from mebf.factorize import MebfConfig, mebf_factorize
from mebf.matio import RealMatrix, binarize, read_matrix, write_matrix

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
        write_matrix(RealMatrix([[2.5, 2.5, 0.0], [2.5, 2.5, 0.0]]),
                     path, "csv")
        code = main(["factorize", "--input", str(path), "--format", "csv",
                     "--t", "0.5", "--k", "1"])
        assert code == 0
        assert capsys.readouterr().out == "0\n"


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

    def test_stdout_default(self, capsys):
        assert main(["bench", "--scenarios", "100x100_d0.2_n0",
                     "--replicates", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2

    def test_unknown_scenario(self, capsys):
        assert main(["bench", "--scenarios", "bogus"]) == 2
        assert "usage error" in capsys.readouterr().err

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
        write_matrix(BinaryMatrix.identity(2), out_a, "dense01")
        write_matrix(BinaryMatrix.identity(2), out_b, "dense01")
        assert main(["metrics", "--input", str(x_path), "--a", str(out_a),
                     "--b", str(out_b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coverage_rate"] == 2 / 3

    def test_lone_truth_flag_rejected(self, tmp_path, block_file, capsys):
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["factorize", "--input", str(block_file), "--t", "0.5",
              "--k", "2", "--out-a", str(out_a), "--out-b", str(out_b)])
        capsys.readouterr()
        assert main(["metrics", "--input", str(block_file),
                     "--a", str(out_a), "--b", str(out_b),
                     "--u", str(out_a)]) == 2


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
        write_matrix(RealMatrix(values), src, "csv")
        assert main(["denoise", "--input", str(src), "--out",
                     str(dst)]) == 0
        real = RealMatrix(values)
        result = mebf_factorize(binarize(real), MebfConfig(t=0.6, k_max=5))
        support = bool_product(result.A, result.B).to_dense().astype(bool)
        out = read_matrix(dst, "csv")
        assert np.array_equal(out.values[support], values[support])
        assert not out.values[~support].any()

    def test_all_zero_input(self, tmp_path):
        src = tmp_path / "x.csv"
        dst = tmp_path / "out.csv"
        write_matrix(RealMatrix(np.zeros((3, 4))), src, "csv")
        assert main(["denoise", "--input", str(src), "--out",
                     str(dst)]) == 0
        assert read_matrix(dst, "csv") == RealMatrix(np.zeros((3, 4)))


class TestOracleCommand:
    def test_reports_minimum_cost(self, tmp_path, capsys):
        path = tmp_path / "x.txt"
        write_matrix(BinaryMatrix.identity(2), path, "dense01")
        assert main(["oracle", "--input", str(path), "--k", "1"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        assert "factorize" in text
        assert "oracle" not in text


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
