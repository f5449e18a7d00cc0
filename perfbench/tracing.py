"""Spans around the public functions of each ``crossover`` module.

The package's modules are the layers.  ``Tracer.install`` wraps every
public function a module defines, plus a few methods that carry per-unit
work, and rebinds each wrapped name at every import site (``cli``,
``simulator`` and ``twoperiod`` bind ``rwls`` functions with ``from ...
import``, and the package re-exports most names).  Code that calls the
package must look names up at call time, as ``crossover.estimate``.

A span records its name, start, end and the span that was open when it
began; spans stay in memory in flat arrays and are written once, at exit.
A layer's self time is its spans' duration minus the part covered by
their child spans.  An iterator returned by a wrapped function is wrapped
too, and each step of it is a span of the same name, so lazy enumeration
is charged to the layer that does it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import types
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "constraints", "estimands", "identification", "rwls", "sequences", "simulator", "twoperiod")
# called once per unit or per (period, sequence) entry: wrapping them would
# cost more than the work they do; their time stays in the caller's self time
UNWRAPPED = frozenset(
    {"sequences.as_sequence", "sequences.subsequence", "sequences.trailing_window"}
)
# (module, class, method, span name)
METHODS = (
    ("rwls", "ObservedDataset", "__post_init__", "rwls.ObservedDataset"),
    ("rwls", "ObservedDataset", "group_indices", "rwls.ObservedDataset.group_indices"),
    ("sequences", "Assignment", "__post_init__", "sequences.Assignment"),
    ("sequences", "CrossoverDesign", "__post_init__", "sequences.CrossoverDesign"),
    ("twoperiod", "TwoPeriodSummary", "from_dataset", "twoperiod.TwoPeriodSummary.from_dataset"),
)


def _observe_assemble(values: dict, restriction) -> None:
    p, m = restriction.layout.size, restriction.n_rows
    if p >= values.get("constraints.p", 0):
        values.update({"constraints.p": p, "constraints.m": m, "constraints.d": p - m})


def _observe_identifiable(values: dict, check) -> None:
    deficit = check.dimension - check.rank
    values["identification.rank_deficit"] = max(values.get("identification.rank_deficit", 0), deficit)


def _observe_solve(values: dict, fit) -> None:
    values["rwls.condition_number"] = max(values.get("rwls.condition_number", 0.0), float(fit.condition_number))
    values["rwls.warnings"] = values.get("rwls.warnings", 0) + len(fit.warnings)


# sizes and diagnostics read from layer results, for the per-layer report
OBSERVERS = {
    "constraints.assemble": _observe_assemble,
    "identification.is_identifiable": _observe_identifiable,
    "rwls.solve_restricted_wls": _observe_solve,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.values: dict[str, float] = {}
        self.enabled = True
        self._stack: list[int] = []

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block, such as the benchmark's own checks."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _steps(self, iterator, nid: int):
        while True:
            i = self._open(nid)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(i)
            yield item

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.calls[nid] += 1
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if observe is not None:
                observe(self.values, result)
            if isinstance(result, types.GeneratorType):
                return self._steps(result, nid)
            return result

        return traced

    def install(self) -> None:
        """Wrap the package's public functions and rebind them everywhere."""
        package = importlib.import_module("crossover")
        modules = {layer: importlib.import_module(f"crossover.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                    or name in UNWRAPPED
                ):
                    continue
                wrapped[value] = self.wrap(name, value)
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
        for layer, cls_name, method, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, method, self.wrap(name, raw))

    def merge(self, other: "Tracer") -> None:
        """Append another process's spans, calls and values."""
        offset = len(self.start)
        remap = [self._name_id(name) for name in other.names]
        for nid, count in enumerate(other.calls):
            self.calls[remap[nid]] += count
        self.span_name.extend(array("i", (remap[n] for n in other.span_name)))
        self.parent.extend(array("i", (p + offset if p >= 0 else -1 for p in other.parent)))
        self.start.extend(other.start)
        self.end.extend(other.end)
        values, incoming = self.values, other.values
        if incoming.get("constraints.p", -1) >= values.get("constraints.p", 0):
            for key in ("constraints.p", "constraints.m", "constraints.d"):
                values[key] = incoming[key]
        for key in ("identification.rank_deficit", "rwls.condition_number"):
            if key in incoming:
                values[key] = max(values.get(key, incoming[key]), incoming[key])
        if "rwls.warnings" in incoming:
            values["rwls.warnings"] = values.get("rwls.warnings", 0) + incoming["rwls.warnings"]

    def dump(self, path) -> None:
        payload = {
            "names": self.names,
            "calls": self.calls,
            "span_name": self.span_name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "values": self.values,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)

    @classmethod
    def load(cls, path) -> "Tracer":
        with open(path) as handle:
            payload = json.load(handle)
        tracer = cls()
        for name in payload["names"]:
            tracer._name_id(name)
        tracer.calls = payload["calls"]
        tracer.span_name = array("i", payload["span_name"])
        tracer.parent = array("i", payload["parent"])
        tracer.start = array("d", payload["start"])
        tracer.end = array("d", payload["end"])
        tracer.values = payload["values"]
        return tracer

    def root_seconds(self) -> float:
        """Wall time covered by spans that have no parent span."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        roots = np.frombuffer(self.parent, dtype=np.int32) < 0
        return float((end - start)[roots].sum())

    def _own(self):
        """Per span: name index, start, and self time."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return np.frombuffer(self.span_name, dtype=np.int32), start, duration - child

    def self_times(self, windows=None) -> dict[str, float]:
        """Total self time per span name, optionally only of spans that
        start inside one of the (start, end) windows."""
        names, start, own = self._own()
        if windows is not None:
            inside = np.zeros(start.size, dtype=bool)
            for low, high in windows:
                inside |= (start >= low) & (start <= high)
            names, own = names[inside], own[inside]
        totals = np.bincount(names, weights=own, minlength=len(self.names))
        return {name: float(totals[i]) for i, name in enumerate(self.names)}
