"""Wrappers that record spans and memory peaks around mebf's public API.

The benchmark measures each layer from outside the program: it replaces
every public function of the ``cli``, ``matio``, ``simulate``,
``factorize``, ``boolmat`` and ``metrics`` modules in every namespace that
binds it (the modules import each other's functions by name), and every
public method of ``BinaryMatrix`` and ``BinaryVector``.  ``oracle`` is left
out: it is the test-only exact search and lies on no user path.

Wrappers are installed only for the traced and memory passes; ``remove``
restores every original binding and ``assert_clean`` proves it, so the
timed passes run the program unmodified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

LAYERS = ("cli", "matio", "simulate", "factorize", "boolmat", "metrics")
CLASSES = ("BinaryMatrix", "BinaryVector")
MARK = "__perfbench_span__"


def packed_bytes(n_rows: int, n_cols: int) -> int:
    """Bytes of an n x m bit matrix packed 8 entries per byte per row."""
    return n_rows * ((n_cols + 7) // 8)


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


@dataclass
class Program:
    """The imported mebf package and its layer modules."""

    package: object
    modules: dict

    @classmethod
    def load(cls) -> Program:
        return cls(sys.modules["mebf"],
                   {layer: importlib.import_module(f"mebf.{layer}")
                    for layer in LAYERS})

    @property
    def namespaces(self) -> list:
        return [self.package, *self.modules.values()]

    def targets(self):
        """(span name, owner, attribute, raw attribute) of each wrappable."""
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    yield f"{layer}.{attr}", None, attr, obj
        boolmat = self.modules["boolmat"]
        for cls_name in CLASSES:
            cls = getattr(boolmat, cls_name)
            for attr, raw in vars(cls).items():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, classmethod) or inspect.isfunction(raw):
                    yield f"boolmat.{cls_name}.{attr}", cls, attr, raw


@dataclass
class Installed:
    """Bindings replaced by wrappers, restorable in reverse order."""

    replaced: list = field(default_factory=list)
    names: set = field(default_factory=set)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def install(program: Program, make_wrapper, select=lambda name: True
            ) -> Installed:
    """Replace each selected target by ``make_wrapper(name, function)``.

    Module-level functions are replaced in every namespace that binds the
    same function object; methods are replaced on their class.
    """
    installed = Installed()
    for name, cls, attr, raw in list(program.targets()):
        if not select(name):
            continue
        installed.names.add(name)
        if cls is not None:
            if isinstance(raw, classmethod):
                new = classmethod(make_wrapper(name, raw.__func__))
            else:
                new = make_wrapper(name, raw)
            installed.replaced.append((cls, attr, raw))
            setattr(cls, attr, new)
            continue
        wrapper = make_wrapper(name, raw)
        for ns in program.namespaces:
            for ns_attr, value in list(vars(ns).items()):
                if value is raw:
                    installed.replaced.append((ns, ns_attr, raw))
                    setattr(ns, ns_attr, wrapper)
    return installed


def assert_clean(program: Program) -> None:
    """Raise if any wrapper is still bound anywhere in the program."""
    owners = list(program.namespaces)
    owners += [getattr(program.modules["boolmat"], c) for c in CLASSES]
    for owner in owners:
        for attr, value in vars(owner).items():
            inner = getattr(value, "__func__", value)
            if hasattr(inner, MARK):
                raise RuntimeError(f"wrapper left on {owner!r}.{attr}")


class SpanRecorder:
    """Collects spans in memory: name, start, end, parent index, operation.

    Each span also carries one number of its own: the file bytes of a
    ``matio`` read or write, the computed packed bytes of the full n x m
    matrices a ``boolmat`` call takes or returns, or the ``FactorResult``
    counters of a ``mebf_factorize`` call.
    """

    def __init__(self, matrix_type, full_shapes, clock=time.perf_counter):
        self.spans: list[list] = []
        self.clock = clock
        self.matrix_type = matrix_type
        self.full_shapes = set(full_shapes)
        self._stack: list[int] = []
        self.op = -1

    def begin_op(self, op: int) -> None:
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append(["op", self.clock(), 0.0, -1, op, None])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = self.clock()
        if self._stack:
            raise RuntimeError("unbalanced spans at the end of an operation")

    def _extra(self, name: str):
        if name == "matio.read_matrix":
            return lambda args, kwargs, result: os.path.getsize(
                _arg(args, kwargs, 0, "path"))
        if name == "matio.write_matrix":
            return lambda args, kwargs, result: os.path.getsize(
                _arg(args, kwargs, 1, "path"))
        if name == "factorize.mebf_factorize":
            return lambda args, kwargs, result: (
                result.iterations, result.weak_signal_uses, result.k)
        if name.startswith("boolmat."):
            shapes, matrix_type = self.full_shapes, self.matrix_type

            def full_bytes(args, kwargs, result):
                return sum(packed_bytes(*value.shape)
                           for value in (*args, *kwargs.values(), result)
                           if isinstance(value, matrix_type)
                           and value.shape in shapes)
            return full_bytes
        return None

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        extra = self._extra(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside an operation, e.g. in an output check
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1], self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper


class MemoryProbe:
    """tracemalloc peaks of one operation and of selected calls inside it.

    Each probed call resets the tracemalloc peak on entry and reads it on
    exit, so its peak is the most the call held above what was traced when
    it began.  The operation's peak folds in every segment between resets.
    """

    PROBED = ("factorize.mebf_factorize", "matio.read_matrix")

    def __init__(self):
        self.op_peak = 0
        self.calls: list[tuple[str, int, int]] = []  # name, peak, input bytes
        self.final_costs: list[int] = []
        self._base = 0

    def _fold(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        self.op_peak = max(self.op_peak, peak - self._base)
        tracemalloc.reset_peak()
        return current

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            entry = self._fold()
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - entry
            self._fold()
            if name == "factorize.mebf_factorize":
                self.final_costs.append(result.cost_history[-1])
                size = packed_bytes(*_arg(args, kwargs, 0, "x").shape)
            else:
                size = packed_bytes(*result.shape)
            self.calls.append((name, peak, size))
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def start(self) -> None:
        tracemalloc.start()
        self._base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

    def stop(self) -> None:
        self._fold()
        tracemalloc.stop()
