"""Public API guard: every export resolves; config and report are pinned."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import mebf
from mebf import boolmat, matio, metrics
from mebf.boolmat import BinaryMatrix, BinaryVector, UtlView
from mebf.cli import main
from mebf.factorize import FactorResult, MebfConfig, mebf_factorize
from mebf.metrics import (
    MetricsReport,
    build_report,
    coverage_rate,
    reconstruction_error,
    report_from_factors,
)
from mebf.simulate import SimulatedInstance


def test_exports_resolve_and_config_has_two_fields():
    namespaces = [mebf] + [importlib.import_module(f"mebf.{info.name}")
                           for info in pkgutil.iter_modules(mebf.__path__)]
    for ns in namespaces:
        missing = [name for name in getattr(ns, "__all__", ())
                   if not hasattr(ns, name)]
        assert not missing, f"{ns.__name__}.__all__ names {missing}"
    fields = tuple(f.name for f in dataclasses.fields(MebfConfig))
    assert fields == ("t", "k_max")


def test_package_root_exports_what_a_user_calls():
    assert sorted(mebf.__all__) == [
        "BINARY_FORMATS", "BinaryMatrix", "BinaryVector", "FORMATS",
        "FactorResult",
        "MatrixFormatError", "MebfConfig", "MetricsReport", "RealMatrix",
        "SimulatedInstance", "SimulationSpec", "UndefinedMetricError",
        "bidirectional_growth", "binarize", "bool_product", "build_report",
        "coverage_rate", "density", "mask_denoise", "mebf_factorize",
        "preset_grid", "read_matrix", "reconstruction_error",
        "replicate_seed", "report_from_factors", "simulate",
        "weak_signal_detection", "write_matrix"]
    # the loop's kernels stay public where the loop imports them
    for name in ("UtlView", "utl_rearrange", "complement", "elementwise",
                 "rank1_product"):
        assert not hasattr(mebf, name)
        assert name in boolmat.__all__


def test_report_fields_and_build_report_parameters():
    fields = tuple(f.name for f in dataclasses.fields(MetricsReport))
    assert fields == ("final_cost", "cost_history", "reconstruction_error",
                      "density", "coverage_rate", "per_column_coverage",
                      "warnings")
    params = tuple(inspect.signature(build_report).parameters)
    assert params == ("x", "result", "truth")


def test_metrics_take_products_not_factor_pairs():
    assert tuple(inspect.signature(coverage_rate).parameters) == ("x",
                                                                  "recon")
    assert tuple(inspect.signature(reconstruction_error).parameters) == (
        "truth", "estimate")


def test_test_only_references_are_not_shipped():
    for name in ("exhaustive_bmf", "naive_bool_product", "cost_gamma"):
        assert name not in mebf.__all__
        assert not hasattr(mebf, name)
    assert "cost_gamma" not in boolmat.__all__
    assert not hasattr(boolmat, "cost_gamma")
    assert not hasattr(BinaryMatrix, "identity")
    assert not hasattr(BinaryMatrix, "ones")
    assert not hasattr(BinaryVector, "ones")
    assert not hasattr(FactorResult, "pattern")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("mebf.oracle")


def test_utl_view_keeps_totals_and_selects_single_positions():
    fields = tuple(f.name for f in dataclasses.fields(UtlView))
    assert fields == ("x", "row_totals", "col_totals")
    assert not UtlView.__dataclass_params__.frozen
    for name in ("row_at", "col_at", "clear"):
        assert callable(getattr(UtlView, name))
    for name in ("n_active", "m_active"):
        assert isinstance(getattr(UtlView, name), property)
    for gone in ("row_order", "col_order", "active_rows", "active_cols",
                 "from_totals", "cleared"):
        assert not hasattr(UtlView, gone)


def test_the_residual_lives_in_its_view():
    # the loop keeps one state, and only UtlView.clear clears a pattern
    assert "residual" not in mebf_factorize.__code__.co_varnames
    factorize = importlib.import_module("mebf.factorize")
    for name in ("complement", "elementwise", "rank1_product"):
        assert not hasattr(factorize, name)
    for finder in (mebf.bidirectional_growth, mebf.weak_signal_detection):
        assert tuple(inspect.signature(finder).parameters) == ("view", "t")
        assert "must equal" not in finder.__doc__


def test_counts_are_derived_not_stored():
    assert "k" not in {f.name for f in dataclasses.fields(FactorResult)}
    assert "pattern_count" not in {
        f.name for f in dataclasses.fields(MetricsReport)}
    blocks = BinaryMatrix.from_dense([[1, 1, 0, 0], [1, 1, 0, 0],
                                      [0, 0, 1, 1], [0, 0, 1, 1]])
    for x, k in ((BinaryMatrix.zeros(4, 4), 0), (blocks, 2)):
        result = mebf_factorize(x, MebfConfig(t=0.5, k_max=3))
        assert result.k == result.A.n_cols == result.B.n_rows == k
        for report in (build_report(x, result),
                       report_from_factors(x, result.A, result.B)):
            assert report.pattern_count == len(report.cost_history) == k
            assert report.to_json_dict()["pattern_count"] == k


def test_mutable_matrices_are_unhashable():
    # a matrix wraps a writable buffer (bool_product ORs patterns into its
    # output in place), so a content hash could go stale while the object
    # sits in a set or dict
    for value in (BinaryMatrix.zeros(2, 3), BinaryVector.zeros(3)):
        with pytest.raises(TypeError):
            hash(value)


def test_one_kernel_prices_a_pattern():
    # RowGroups.gain prices a pattern against the patterns before it, for
    # the loop and for a report rebuilt from factors
    for name in ("rank1_gain", "or_pattern", "rank1_overlap"):
        assert not hasattr(boolmat, name)
    for function in (mebf_factorize, report_from_factors):
        assert "gain" in function.__code__.co_names
    for finder in (mebf.bidirectional_growth, mebf.weak_signal_detection):
        view = inspect.signature(finder).parameters["view"]
        assert view.default is inspect.Parameter.empty


def test_one_place_forms_the_product_of_factors():
    # both reports hand their factors to _assemble, which forms A B with
    # bool_product; a union of patterns is priced and never read back whole
    assert "bool_product" in metrics._assemble.__code__.co_names
    for report in (build_report, report_from_factors):
        names = report.__code__.co_names
        assert "bool_product" not in names and "product" not in names
    assert not hasattr(boolmat.RowGroups, "product")


def test_one_popcount():
    # boolmat alone counts bits, and only _popcount reads packed bytes as
    # uint64 words
    def named(tree, name):
        return sum(name in (getattr(node, "id", None),
                            getattr(node, "attr", None),
                            getattr(node, "name", None))
                   for node in ast.walk(tree))

    src = pathlib.Path(mebf.__file__).parent
    for path in src.glob("*.py"):
        if path.stem != "boolmat":
            assert not named(ast.parse(path.read_text()),
                             "bitwise_count"), path.name
    tree = ast.parse((src / "boolmat.py").read_text())
    [popcount] = [node for node in tree.body
                  if getattr(node, "name", None) == "_popcount"]
    assert named(tree, "uint64") == named(popcount, "uint64") > 0


def test_the_loop_reports_and_cli_leave_the_packed_layout_to_boolmat():
    # they reach bits through BinaryMatrix and BinaryVector; matio's
    # parsers and simulate's flip kernel still know the MSB-first layout
    src = pathlib.Path(mebf.__file__).parent
    for module in ("factorize", "metrics", "cli"):
        tree = ast.parse((src / f"{module}.py").read_text())
        names = {getattr(node, "id", None) or getattr(node, "attr", None)
                 for node in ast.walk(tree)}
        assert not names & {"_packed", "packbits", "unpackbits"}, module


def calls_outside_their_definition(tree: ast.AST) -> set:
    """Names of the functions and classes called in tree, leaving out a
    call made inside the definition of the name it calls."""
    called = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if name not in enclosing:
                called.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return called


def test_every_public_kernel_is_called():
    # a boolmat name that no module of the package calls is a dead kernel
    src = pathlib.Path(mebf.__file__).parent
    called = set()
    for path in sorted(src.glob("*.py")):
        called |= calls_outside_their_definition(ast.parse(path.read_text()))
    assert sorted(set(boolmat.__all__) - called) == []


def test_modules_keep_their_private_names():
    # no module of the package imports a _-prefixed name from a sibling
    src = pathlib.Path(mebf.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.split(".")[0] == "mebf"):
                private = [a.name for a in node.names
                           if a.name.startswith("_")]
                assert not private, f"{path.name} imports {private}"


def test_package_root_re_exports_its_modules():
    modules = [importlib.import_module(f"mebf.{name}")
               for name in ("factorize", "matio", "metrics", "simulate")]
    assert mebf.__all__ == ["BinaryMatrix", "BinaryVector", "bool_product"] \
        + [name for module in modules for name in module.__all__]
    for module in [boolmat] + modules:
        for name in set(mebf.__all__) & set(module.__all__):
            assert getattr(mebf, name) is getattr(module, name)
    # the function shadows its submodule
    assert inspect.isfunction(mebf.simulate)
    assert mebf.simulate is modules[3].simulate


def test_simulate_offers_the_binary_formats(tmp_path, capsys):
    assert matio.BINARY_FORMATS == ("dense01", "coo")
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    choices = "{" + ",".join(matio.BINARY_FORMATS) + "}"
    assert f"--format {choices}" in capsys.readouterr().out
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--n", "4", "--m", "4", "--k", "1", "--p0", "0.5",
              "--p", "0", "--out", str(out), "--format", "csv"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err
    assert not out.exists()


def test_simulated_instance_keeps_x_and_its_factors():
    fields = tuple(f.name for f in dataclasses.fields(SimulatedInstance))
    assert fields == ("X", "U", "V")
