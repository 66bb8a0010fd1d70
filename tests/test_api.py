"""Public API guard: every export resolves; config and report are pinned."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import mebf
from mebf import boolmat
from mebf.boolmat import BinaryMatrix, BinaryVector, UtlView
from mebf.factorize import FactorResult, MebfConfig
from mebf.metrics import (
    MetricsReport,
    build_report,
    coverage_rate,
    reconstruction_error,
)


def test_exports_resolve_and_config_has_two_fields():
    namespaces = [mebf] + [importlib.import_module(f"mebf.{info.name}")
                           for info in pkgutil.iter_modules(mebf.__path__)]
    for ns in namespaces:
        missing = [name for name in getattr(ns, "__all__", ())
                   if not hasattr(ns, name)]
        assert not missing, f"{ns.__name__}.__all__ names {missing}"
    fields = tuple(f.name for f in dataclasses.fields(MebfConfig))
    assert fields == ("t", "k_max")


def test_report_fields_and_build_report_parameters():
    fields = tuple(f.name for f in dataclasses.fields(MetricsReport))
    assert fields == ("final_cost", "pattern_count", "cost_history",
                      "reconstruction_error", "density", "coverage_rate",
                      "per_column_coverage", "warnings")
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
    assert fields == ("n_active", "m_active", "row_totals", "col_totals")
    for name in ("row_at", "col_at"):
        assert callable(getattr(UtlView, name))
    for gone in ("row_order", "col_order", "active_rows", "active_cols"):
        assert not hasattr(UtlView, gone)


def test_mutable_matrices_are_unhashable():
    # the report ORs patterns into its product in place, so a content hash
    # could go stale while the object sits in a set or dict
    for value in (BinaryMatrix.zeros(2, 3), BinaryVector.zeros(3)):
        with pytest.raises(TypeError):
            hash(value)


def test_one_kernel_prices_a_pattern():
    assert "rank1_gain" in boolmat.__all__
    assert "rank1_overlap" not in boolmat.__all__
    assert not hasattr(boolmat, "rank1_overlap")
    for finder in (mebf.bidirectional_growth, mebf.weak_signal_detection):
        view = inspect.signature(finder).parameters["view"]
        assert view.default is inspect.Parameter.empty
