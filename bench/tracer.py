"""Layer spans recorded from outside the program.

`Tracer.install` replaces every public module-level function of the layer
modules by a timing wrapper, at each module attribute that refers to it, so
the wrapper sits exactly where callers look the name up (for example
`fibrecheck.alexander.rank_over_fraction_field` or
`fibrecheck.fibring.same_kernel`).  Discovery is by inspection, so a function
that a later change deletes simply records no calls.  `TwistedChain.rank_b1`
and `rank_b2` are wrapped as well, tagged by field, to split rank time into
Q and F_p.

Spans stay in memory and are written once, as JSON lines, by `dump`.
`layer_metrics` turns a span list into the per-layer metrics of the
benchmark.  `words` and `fixtures` only parse input; they are not layers,
and their time counts toward the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import types
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "fibring", "quotients", "foxcalc", "alexander", "polyalg", "reidschreier")

# Per-layer metrics, in report order: name -> unit.
PER_LAYER = {
    "error_rate": "ratio",
    "wall_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "alexander.full_report.calls": "count",
    "alexander.full_report.p50_ms": "ms",
    "alexander.full_report.p90_ms": "ms",
    "alexander.build_chain.self_s": "s",
    "alexander.orders_skipped": "count",
    "polyalg.rank_b1.q.s": "s",
    "polyalg.rank_b1.fp.s": "s",
    "polyalg.rank_b2.q.s": "s",
    "polyalg.rank_b2.fp.s": "s",
    "polyalg.rank_over_fraction_field.calls": "count",
    "polyalg.rank_over_fraction_field.self_s": "s",
    "polyalg.rank_over_fraction_field.max_rows": "count",
    "polyalg.rank_over_fraction_field.max_cols": "count",
    "polyalg.rank_over_fraction_field.cells": "count",
    "polyalg.kernel_basis.self_s": "s",
    "polyalg.solve_in_span.self_s": "s",
    "polyalg.hermite_normal_form.self_s": "s",
    "polyalg.smith_normal_form.calls": "count",
    "polyalg.smith_normal_form.self_s": "s",
    "polyalg.clear_denominators.self_s": "s",
    "polyalg.order.max_coeff_bits": "bits",
    "foxcalc.build_representation.self_s": "s",
    "foxcalc.evaluate.self_s": "s",
    "quotients.enumerate_homs.calls": "count",
    "quotients.enumerate_homs.self_s": "s",
    "quotients.same_kernel.calls": "count",
    "quotients.same_kernel.self_s": "s",
    "quotients.same_kernel.hit_ratio": "ratio",
    "quotients.restrict_to_image.self_s": "s",
    "quotients.kept": "count",
    "quotients.merged": "count",
    "reidschreier.rewrite_subgroup.self_s": "s",
    "fibring.scan.self_s": "s",
    "fibring.emit_report.self_s": "s",
}

# Metrics that are counts of work done; two runs of the same code must agree.
EXACT = tuple(
    name for name in PER_LAYER
    if name.endswith((".calls", ".cells", ".max_rows", ".max_cols", ".max_coeff_bits"))
    or name in ("quotients.kept", "quotients.merged", "alexander.orders_skipped", "trace.spans")
)


def _coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return int(c).bit_length()


def _report_attrs(args, result) -> dict:
    orders = [r.order for r in result if r.order is not None]
    return {
        "orders_skipped": sum(1 for r in result if r.order_skipped),
        "max_coeff_bits": max(
            (_coeff_bits(c) for o in orders for c in o.coeffs.values()), default=0
        ),
    }


# Span name -> attrs(args, result), recorded after the span has ended.
ATTRS = {
    "polyalg.rank_over_fraction_field": lambda args, result: {
        "rows": args[0].rows, "cols": args[0].cols,
    },
    "quotients.same_kernel": lambda args, result: {"hit": bool(result)},
    "alexander.full_report": _report_attrs,
    "fibring.scan": lambda args, result: {
        "kept": len(result.tested_quotients), "merged": len(result.skipped_quotients),
    },
}


class Tracer:
    """In-memory span store; one instance traces one operation."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[list] = []  # [id, parent, name, layer, start, end, attrs]
        self._stack: list[int] = []

    def wrap(self, name: str, layer: str, fn):
        attrs_of = ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)  # unique: ids are taken in start order
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append([span_id, parent, name, layer, start, end, None])
            if attrs_of:
                spans[-1][6] = attrs_of(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"fibrecheck.{layer}") for layer in LAYERS}
        wrappers: dict = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                package, _, home = obj.__module__.rpartition(".")
                if package != "fibrecheck" or home not in modules:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(f"{home}.{obj.__name__}", home, obj)
                setattr(module, attr, wrappers[obj])
        chain = getattr(modules["alexander"], "TwistedChain", None)
        for method in ("rank_b1", "rank_b2"):
            if chain is not None and hasattr(chain, method):
                setattr(chain, method, self._rank_method(method, getattr(chain, method)))

    def _rank_method(self, method: str, fn):
        by_kind = {
            kind: self.wrap(f"polyalg.{method}.{kind}", "alexander", fn) for kind in ("q", "fp")
        }

        def rank(chain):
            return by_kind["q" if chain.b1.field.p is None else "fp"](chain)

        return rank

    def dump(self, path) -> None:
        keys = ("id", "parent", "name", "layer", "start", "end", "attrs")
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                record = dict(zip(keys, span))
                record["op"] = self.op_id
                fh.write(json.dumps(record) + "\n")


def load_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def layer_metrics(spans: list[dict], traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced operation (error_rate is set by the caller)."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child = dict.fromkeys(dur, 0.0)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += dur[s["id"]]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    durations: dict[str, list[float]] = {}
    for s in spans:
        name, d = s["name"], dur[s["id"]]
        own = d - child[s["id"]]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        total_s[name] = total_s.get(name, 0.0) + d
        layer_self[s["layer"]] += own
        durations.setdefault(name, []).append(d)

    def attrs(name):
        return [s["attrs"] for s in spans if s["name"] == name and s["attrs"]]

    covered = sum(dur[s["id"]] for s in spans if s["parent"] is None)
    ranks = attrs("polyalg.rank_over_fraction_field")
    kernels = attrs("quotients.same_kernel")
    reports = attrs("alexander.full_report")
    scans = attrs("fibring.scan")
    report_ms = sorted(1000.0 * d for d in durations.get("alexander.full_report", []))

    m = {
        "wall_s": untraced_wall,
        "trace.wall_s": traced_wall,
        "trace.untraced_s": max(traced_wall - covered, 0.0),
        "trace.coverage": covered / traced_wall if traced_wall > 0 else 0.0,
        "trace.overhead_ratio": traced_wall / untraced_wall if untraced_wall > 0 else 0.0,
        "trace.spans": len(spans),
        **{f"layer.{layer}.self_s": layer_self[layer] for layer in LAYERS},
        "alexander.full_report.p50_ms": _nearest_rank(report_ms, 0.5),
        "alexander.full_report.p90_ms": _nearest_rank(report_ms, 0.9),
        "alexander.orders_skipped": sum(a["orders_skipped"] for a in reports),
        "polyalg.rank_over_fraction_field.max_rows": max((a["rows"] for a in ranks), default=0),
        "polyalg.rank_over_fraction_field.max_cols": max((a["cols"] for a in ranks), default=0),
        "polyalg.rank_over_fraction_field.cells": sum(a["rows"] * a["cols"] for a in ranks),
        "polyalg.order.max_coeff_bits": max((a["max_coeff_bits"] for a in reports), default=0),
        "quotients.same_kernel.hit_ratio":
            sum(a["hit"] for a in kernels) / len(kernels) if kernels else 0.0,
        "quotients.kept": sum(a["kept"] for a in scans),
        "quotients.merged": sum(a["merged"] for a in scans),
    }
    for method in ("rank_b1", "rank_b2"):
        for kind in ("q", "fp"):
            m[f"polyalg.{method}.{kind}.s"] = total_s.get(f"polyalg.{method}.{kind}", 0.0)
    for name in PER_LAYER:
        if name in m or name == "error_rate":
            continue
        base, _, stat = name.rpartition(".")
        m[name] = calls.get(base, 0) if stat == "calls" else self_s.get(base, 0.0)
    return m
