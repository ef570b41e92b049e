"""Per-layer spans for the package, installed from outside ``src/``.

Every public function of the seven layer modules, plus gf2's row
reduction ``_echelon`` and the ``Hypermap`` constructor, is replaced by a
wrapper in every ``hypermap_codes`` namespace that binds it: the package
``__init__``, each module that imports the name directly, and module-level
tables of callables such as ``cli.VERIFY_CHECKS``.  Patching ``gf2.rank``
alone would miss ``cli.rank`` or ``css.gf2.rank`` callers that bound the
name at import time.

A span is a label, a parent span id, a start, an end and whether it
raised, kept in columns: a list of labels and ``array`` columns, which the
garbage collector never traverses, so tracing adds no collection pauses
that would land inside the spans it times.  Spans stay in memory for one
pass and are aggregated when it ends.  Counters marked
*computed* below are derived by the benchmark from a call's arguments or
result; they are evaluated after each command, outside every span, so they
add nothing to any layer's time.
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from math import comb
from time import perf_counter
from types import FunctionType, ModuleType

PACKAGE = "hypermap_codes"
LAYERS = ("perm", "hypermap", "chain", "gf2", "css", "reduce", "cli")
PRIVATE_SPANS = {"gf2": ("_echelon",)}
HYPERMAP_INIT = "hypermap.Hypermap.__init__"

# metric -> span label whose inclusive time is summed over a pass
TIMES = {
    "gf2.rank_s": "gf2.rank",
    "gf2.multiply_s": "gf2.multiply",
    "gf2.transpose_s": "gf2.transpose",
    "gf2.echelon_s": "gf2._echelon",
    "gf2.render_s": "gf2.render",
    "chain.expansion_counts_s": "chain.expansion_counts",
    "reduce.reduce_to_surface_s": "reduce.reduce_to_surface",
    "reduce.validate_surface_s": "reduce.validate_surface",
    "css.stabilizer_strings_s": "css.stabilizer_strings",
    "css.distance_s": "css.distance",
    "cli.build_parser_s": "cli.build_parser",
    "cli.run_verification_s": "cli.run_verification",
    "hypermap.parse_s": "hypermap.parse_hypermap",
    "hypermap.build_s": HYPERMAP_INIT,
    "perm.parse_cycles_s": "perm.parse_cycles",
    "perm.cycle_decomposition_s": "perm.cycle_decomposition",
    "perm.connected_components_s": "perm.connected_components",
}
# metric -> span label whose calls are counted over a pass
CALLS = {
    "gf2.rank_calls": "gf2.rank",
    "gf2.multiply_calls": "gf2.multiply",
    "hypermap.builds": HYPERMAP_INIT,
    "hypermap.special_darts_calls": "hypermap.special_darts",
}
QUOTIENT_BUILDERS = ("chain.face_code", "chain.edge_code", "chain.full_code")
COMPUTED = ("gf2.dense_bits", "gf2.nnz", "chain.expansion_cells", "reduce.incidence_entries",
            "css.kernel_dim", "css.search_space", "hypermap.darts_built")


def _rank(rows) -> int:
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


def _matrices(args, kwargs):
    for value in (*args, *kwargs.values()):
        if hasattr(value, "bits") and hasattr(value, "rows") and hasattr(value, "cols"):
            yield value


def _count_gf2(tracer, sid, args, kwargs, result):
    parent = tracer.spans.parents[sid]
    if parent >= 0 and tracer.spans.labels[parent].startswith("gf2."):
        return {}  # only matrices handed to gf2 from another layer
    out = {"gf2.dense_bits": 0, "gf2.nnz": 0}
    for m in _matrices(args, kwargs):
        out["gf2.dense_bits"] += m.rows * m.cols
        out["gf2.nnz"] += sum(row.bit_count() for row in m.bits)
    return out


def _count_expansion(tracer, sid, args, kwargs, result):
    return {"chain.expansion_cells": sum(len(row) for row in result)}


def _count_reduce(tracer, sid, args, kwargs, result):
    return {"reduce.incidence_entries": sum(len(row) for row in result.incidence21)}


def _count_distance(tracer, sid, args, kwargs, result):
    """Kernel dimensions and the exhaustive search bound sum_{t<=w} C(dim ker, t) per class."""
    code = args[0]
    if result.no_logicals:
        return {}
    dims = searched = 0
    for check, weight in ((code.hz, result.dx), (code.hx, result.dz)):
        dim = code.n - _rank(check.bits)
        top = min(result.budget if weight is None else weight, result.budget, dim)
        dims += dim
        searched += sum(comb(dim, t) for t in range(1, top + 1))
    return {"css.kernel_dim": dims, "css.search_space": searched}


def _count_build(tracer, sid, args, kwargs, result):
    return {"hypermap.darts_built": args[0].n}


def _counter_for(label: str):
    if label.startswith("gf2."):
        return _count_gf2
    return {
        "chain.expansion_counts": _count_expansion,
        "reduce.reduce_to_surface": _count_reduce,
        "css.distance": _count_distance,
        HYPERMAP_INIT: _count_build,
    }.get(label)


class Spans:
    """Span ``i`` is ``labels[i]``, ``parents[i]`` (-1 for a root), ``starts[i]``,
    ``ends[i]`` and ``raised[i]``."""

    def __init__(self):
        self.labels: list[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.raised = array("b")

    def __len__(self) -> int:
        return len(self.labels)

    def copy(self) -> "Spans":
        out = Spans()
        out.labels = list(self.labels)
        for name in ("parents", "starts", "ends", "raised"):
            setattr(out, name, array(getattr(self, name).typecode, getattr(self, name)))
        return out

    def clear(self) -> None:
        for column in (self.labels, self.parents, self.starts, self.ends, self.raised):
            del column[:]


class Tracer:
    """Installs span wrappers into the loaded package and aggregates each pass."""

    def __init__(self):
        self.spans = Spans()
        self.pending: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.counter_failures = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._wrappers: dict[FunctionType, FunctionType] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            names = [n for n, v in vars(module).items()
                     if isinstance(v, FunctionType) and v.__module__ == module.__name__
                     and not n.startswith("_")]
            for name in (*names, *PRIVATE_SPANS.get(layer, ())):
                fn = getattr(module, name, None)
                if isinstance(fn, FunctionType):
                    self._wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        self._hypermap = sys.modules[f"{PACKAGE}.hypermap"].Hypermap
        self._init = self._wrap(HYPERMAP_INIT, self._hypermap.__init__)

    def _wrap(self, label: str, fn):
        spans, stack, pending = self.spans, self._stack, self.pending
        labels, parents, starts, ends, raised = (
            spans.labels, spans.parents, spans.starts, spans.ends, spans.raised)
        counter = _counter_for(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(labels)
            labels.append(label)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            raised.append(0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[sid] = 1
                raise
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if counter is not None:
                pending.append((sid, counter, args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        wrappers = self._wrappers
        for name, module in list(sys.modules.items()):
            if not isinstance(module, ModuleType) or (
                    name != PACKAGE and not name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, FunctionType) and value in wrappers:
                    self._undo.append((setattr, module, attr, value))
                    setattr(module, attr, wrappers[value])
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        if isinstance(item, tuple) and any(
                                isinstance(x, FunctionType) and x in wrappers for x in item):
                            self._undo.append((list.__setitem__, value, i, item))
                            value[i] = tuple(wrappers.get(x, x) if isinstance(x, FunctionType)
                                             else x for x in item)
        self._undo.append((setattr, self._hypermap, "__init__", self._hypermap.__init__))
        self._hypermap.__init__ = self._init

    def uninstall(self) -> None:
        while self._undo:
            restore, target, key, original = self._undo.pop()
            restore(target, key, original)

    def flush(self) -> None:
        """Evaluate the computed counters of the calls made since the last flush."""
        for sid, counter, args, kwargs, result in self.pending:
            try:
                increments = counter(self, sid, args, kwargs, result)
            except (AttributeError, TypeError, ValueError, IndexError):
                self.counter_failures += 1
                continue
            for key, value in increments.items():
                self.counters[key] = self.counters.get(key, 0) + value
        self.pending.clear()

    def take_pass(self) -> tuple[dict[str, float], Spans]:
        """Per-layer metrics of the pass traced since the last call, and its spans."""
        self.flush()
        spans = self.spans.copy()
        self.spans.clear()
        counters, self.counters = self.counters, {}
        return aggregate(spans, counters), spans


def aggregate(spans: Spans, counters: dict[str, int]) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = 0.0
        metrics[f"{layer}.errors"] = 0
    durations = [end - start for start, end in zip(spans.starts, spans.ends)]
    children = [0.0] * len(spans)
    for parent, duration in zip(spans.parents, durations):
        if parent >= 0:
            children[parent] += duration
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    perm_calls = 0
    for i, (label, duration, raised) in enumerate(zip(spans.labels, durations, spans.raised)):
        layer = label.partition(".")[0]
        metrics[f"{layer}.self_s"] += duration - children[i]
        metrics[f"{layer}.errors"] += raised
        inclusive[label] = inclusive.get(label, 0.0) + duration
        calls[label] = calls.get(label, 0) + 1
        perm_calls += layer == "perm"
    for name, label in TIMES.items():
        metrics[name] = inclusive.get(label, 0.0)
    for name, label in CALLS.items():
        metrics[name] = calls.get(label, 0)
    metrics["perm.calls"] = perm_calls
    for name in COMPUTED:
        metrics[name] = counters.get(name, 0)
    codes = sum(calls.get(label, 0) for label in QUOTIENT_BUILDERS)
    metrics["hypermap.validations_per_code"] = (
        calls.get("hypermap.special_darts", 0) / codes if codes else 0.0)
    return metrics


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
