"""Span tracing of the weylgate layers from outside the library.

``Tracer.install`` rebinds every public function name in each loaded
``weylgate`` module namespace (the package itself included) to a wrapper that
records a span.  Functions reach each other through those namespaces, so
calls between layers are traced too.  Nothing under ``src/`` changes, and
``uninstall`` puts the original functions back.

A span is (id, parent id, item id, name, start ns, end ns, raised).  Spans
are kept in memory in integer columns; ``write`` stores them as gzipped JSON
lines at the end.  Self time is a span's duration minus the durations of its
direct children.  The benchmark is single-threaded, so spans nest strictly
and there is no wait time to record.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types
from array import array
from collections import Counter
from contextlib import contextmanager

SPAN_FIELDS = ("id", "parent", "item", "name", "start_ns", "end_ns", "raised")
LAYERS = ("linalg", "cartan", "invariants", "chamber", "kak", "entangler", "hamflow", "synth")
_LAYER_MODULES = {f"weylgate.{m}" for m in LAYERS}


class Tracer:
    def __init__(self):
        self.spans = {f: array("q") for f in SPAN_FIELDS}  # name holds an index
        self._names: dict[str, int] = {}
        self.calls: Counter = Counter()  # span name -> calls
        self.self_ns: Counter = Counter()  # span name -> self time
        self.errors: Counter = Counter()  # span name -> calls that raised
        self.nested: Counter = Counter()  # (parent name, child name) -> calls
        self.active = False
        self._stack: list[list] = []  # [span id, name, start ns, child ns]
        self._item = -1
        self._next_id = 0
        self._rebound: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers: dict = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "weylgate" and not mod_name.startswith("weylgate."):
                continue
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if fn.__module__ not in _LAYER_MODULES:
                    continue
                if fn not in wrappers:
                    span = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__qualname__}"
                    wrappers[fn] = self._wrap(span, fn)
                self._rebound.append((mod, name, fn))
                setattr(mod, name, wrappers[fn])

    def uninstall(self) -> None:
        for mod, name, fn in self._rebound:
            setattr(mod, name, fn)
        self._rebound.clear()

    def _wrap(self, span: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer._record(span, fn, args, kwargs)

        return traced

    # -- recording ---------------------------------------------------------

    def _record(self, name: str, fn, args, kwargs):
        parent = self._stack[-1]
        frame = [self._new_id(), name, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        raised = True
        try:
            out = fn(*args, **kwargs)
            raised = False
            return out
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            dur = end - frame[2]
            parent[3] += dur
            self.calls[name] += 1
            self.self_ns[name] += dur - frame[3]
            self.errors[name] += raised
            self.nested[(parent[1], name)] += 1
            self._add_span(frame[0], parent[0], name, frame[2], end, raised)

    def _add_span(self, span_id, parent_id, name, start, end, raised) -> None:
        name_ix = self._names.setdefault(name, len(self._names))
        for field, value in zip(SPAN_FIELDS, (span_id, parent_id, self._item, name_ix, start, end, raised)):
            self.spans[field].append(value)

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    @contextmanager
    def item(self, item_id: int):
        """Trace one item call: the root span that its layer spans hang off."""
        self._item = item_id
        root = [self._new_id(), "item", time.perf_counter_ns(), 0]
        self._stack.append(root)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            end = time.perf_counter_ns()
            self._stack.pop()
            self._add_span(root[0], -1, "item", root[2], end, False)

    def write(self, path) -> None:
        names = list(self._names)
        with gzip.open(path, "wt") as f:
            f.write(json.dumps(SPAN_FIELDS) + "\n")
            for row in zip(*self.spans.values()):
                row = list(row)
                row[3] = names[row[3]]
                f.write(json.dumps(row) + "\n")

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, items: int, time_scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit), normalized per item.

        Self times are multiplied by ``time_scale``.  Ratios with no calls
        to divide by are reported as 0.
        """

        def per_item(counter, name):
            return sum(v for k, v in counter.items() if name in (k, k.split(".")[0])) / items

        def ms(name):
            return (per_item(self.self_ns, name) * time_scale / 1e6, "ms/item")

        def calls(name):
            return (per_item(self.calls, name), "calls/item")

        def nested_per_call(parent, child):
            n = self.calls[parent]
            return (self.nested[(parent, child)] / n if n else 0.0, "calls/call")

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms_per_item"] = ms(layer)
            out[f"{layer}.calls_per_item"] = calls(layer)
            out[f"{layer}.errors"] = (per_item(self.errors, layer), "errors/item")
        for fn in ("chamber.gate_coords", "chamber.canonicalize", "invariants.m_spectrum",
                   "kak.kak_decompose", "entangler.entangling_input", "synth.verify_plan"):
            out[f"{fn}.self_ms_per_item"] = ms(fn)
        for fn in ("invariants.m_spectrum", "invariants.invariants_from_coords",
                   "linalg.check_unitary", "linalg.expm_i_hermitian", "hamflow.realize",
                   "kak.kak_decompose", "cartan.cartan_conjugate", "synth.fundamental_period"):
            out[f"{fn}.calls_per_item"] = calls(fn)
        # canonicalize calls per gate_coords call: eigenvalue orderings tried
        out["chamber.gate_coords.orderings_per_call"] = nested_per_call(
            "chamber.gate_coords", "chamber.canonicalize")
        # eigh calls per simdiag call: 1.0 when the first blend weight held
        out["linalg.simdiag.weights_per_call"] = nested_per_call(
            "linalg.simdiag_commuting_symmetric", "linalg.eig_real_symmetric")
        return out
