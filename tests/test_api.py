"""Public API guard: every export resolves; config and report are pinned."""

import dataclasses
import importlib
import inspect
import pkgutil

import mebf
from mebf.factorize import MebfConfig
from mebf.metrics import MetricsReport, build_report


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
