"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps, from outside the package, every public function of each
library module plus a few hot methods, and patches each wrapper into every
``mwslice`` module namespace that holds the original, so calls across
modules are caught.  A span records its name, start, end, parent span and
request id.  Totals (calls, inclusive time, self time) are kept for every
span name; full span records are kept in memory for the first
``SAMPLE_REQUESTS`` requests and written out when the run ends.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("fields", "abelian", "forms", "milnor_witt", "rewriting", "filtration", "transfers")

# Methods worth a span of their own: (module, class, method).
HOT_METHODS = (
    ("abelian", "SubgroupDescription", "__post_init__"),
    ("abelian", "SubgroupDescription", "order"),
    ("abelian", "SubgroupDescription", "contains"),
    ("abelian", "SubgroupDescription", "__le__"),
    ("abelian", "SubgroupDescription", "quotient_shape"),
    ("forms", "GWClass", "__mul__"),
    ("forms", "GWClass", "__add__"),
    ("forms", "WittClass", "__add__"),
    ("milnor_witt", "MWExpression", "__mul__"),
    ("milnor_witt", "MWExpression", "__add__"),
)

# Lazy per-field set-up in the fields layer; fields.setup_s is the time spent
# in the outermost of these calls.
FIELD_SETUP = frozenset({
    "fields.multiplicative_generator",
    "fields.enumerate_units",
    "fields.discrete_log_table",
    "fields.default_modulus",
})

SAMPLE_REQUESTS = 20

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, list[int]] = {}  # name -> [calls, inclusive_ns, self_ns]
        self.stack: list[list[int]] = []  # [span_id, child_ns]
        self.next_id = 1
        self.request_id = 0
        self.spans: list[tuple] = []
        self.setup_ns = 0
        self.setup_depth = 0
        self.subgroups: set = set()
        self.verify_failed = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        totals = self.totals.setdefault(name, [0, 0, 0])
        stack = self.stack
        is_setup = name in FIELD_SETUP
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            if is_setup:
                tracer.setup_depth += 1
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]
                if is_setup:
                    tracer.setup_depth -= 1
                    if tracer.setup_depth == 0:
                        tracer.setup_ns += dur
                if tracer.request_id <= SAMPLE_REQUESTS:
                    tracer.spans.append((name, start, end, span_id, parent, tracer.request_id))
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"mwslice.{layer}") for layer in LAYERS}
        importlib.import_module("mwslice.cli")
        replacements: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                after = self._record_verify if attr == "verify_derivation" else None
                replacements[id(obj)] = self.wrap(f"{layer}.{attr}", obj, after)
        for name, mod in list(sys.modules.items()):
            if name != "mwslice" and not name.startswith("mwslice."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for layer, cls_name, meth in HOT_METHODS:
            cls = getattr(modules[layer], cls_name)
            orig = cls.__dict__[meth]
            after = self._record_subgroup if meth == "__post_init__" else None
            label = "subgroup_built" if meth == "__post_init__" else meth.strip("_")
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{label}", orig, after))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _record_subgroup(self, args, _result) -> None:
        desc = args[0]
        self.subgroups.add((desc.ambient, desc.basis))

    def _record_verify(self, _args, result) -> None:
        if not result.ok:
            self.verify_failed += 1

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates that can be merged across processes."""
        return {
            "totals": self.totals,
            "setup_ns": self.setup_ns,
            "subgroups_distinct": len(self.subgroups),
            "verify_failed": self.verify_failed,
        }

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, span_id, parent, rid in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "id": span_id, "parent": parent, "request": rid}) + "\n")


def merge(snapshots: list[dict]) -> dict:
    out = {"totals": {}, "setup_ns": 0, "subgroups_distinct": 0, "verify_failed": 0}
    for snap in snapshots:
        for name, (calls, incl, own) in snap["totals"].items():
            acc = out["totals"].setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += own
        for key in ("setup_ns", "subgroups_distinct", "verify_failed"):
            out[key] += snap[key]
    return out


def layer_metrics(snap: dict, requests: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as {name: (value, unit)}.

    Call counts are per timed request (set-up calls included), so they do
    not depend on how many requests fit in the run; times are totals over
    the run.
    """
    totals = snap["totals"]

    def calls(name: str) -> float:
        return totals.get(name, [0, 0, 0])[0] / max(requests, 1)

    def self_s(name: str) -> float:
        return totals.get(name, [0, 0, 0])[2] / 1e9

    def layer_self_s(layer: str) -> float:
        return sum(t[2] for n, t in totals.items() if n.split(".")[0] == layer) / 1e9

    sq_calls, sq_ns, _ = totals.get("fields.square_class", [0, 0, 0])
    built = totals.get("abelian.SubgroupDescription.subgroup_built", [0, 0, 0])[0]
    distinct = snap["subgroups_distinct"]
    per_req = "calls/req"
    return {
        "fields.self_s": (layer_self_s("fields"), "s"),
        "fields.unit_mul.calls": (calls("fields.unit_mul"), per_req),
        "fields.unit_pow.calls": (calls("fields.unit_pow"), per_req),
        "fields.square_class.calls": (calls("fields.square_class"), per_req),
        "fields.square_class.us_per_call": (sq_ns / sq_calls / 1e3 if sq_calls else 0.0, "us"),
        "fields.setup_s": (snap["setup_ns"] / 1e9, "s"),
        "abelian.self_s": (layer_self_s("abelian"), "s"),
        "abelian.hnf.calls": (calls("abelian.hnf"), per_req),
        "abelian.subgroups_built": (built / max(requests, 1), per_req),
        "abelian.subgroups_distinct": (distinct, "count"),
        "abelian.distinct_ratio": (distinct / built if built else 0.0, "ratio"),
        "abelian.order.calls": (calls("abelian.SubgroupDescription.order"), per_req),
        "forms.self_s": (layer_self_s("forms"), "s"),
        "forms.gw_of_form.calls": (calls("forms.gw_of_form"), per_req),
        "forms.fundamental_power_description.calls": (
            calls("forms.fundamental_power_description"), per_req),
        "milnor_witt.self_s": (layer_self_s("milnor_witt"), "s"),
        "milnor_witt.normalize.calls": (calls("milnor_witt.normalize"), per_req),
        "milnor_witt.collect.calls": (calls("milnor_witt.collect"), per_req),
        "milnor_witt.parse_expression.self_s": (self_s("milnor_witt.parse_expression"), "s"),
        "rewriting.derive.calls": (calls("rewriting.derive_extended_steinberg"), per_req),
        "rewriting.derive.self_s": (self_s("rewriting.derive_extended_steinberg"), "s"),
        "rewriting.from_json.self_s": (self_s("rewriting.derivation_from_json"), "s"),
        "rewriting.verify.self_s": (self_s("rewriting.verify_derivation"), "s"),
        "rewriting.apply_step.calls": (calls("rewriting.apply_step"), per_req),
        "rewriting.verify.failed": (snap["verify_failed"], "count"),
        "filtration.self_s": (layer_self_s("filtration"), "s"),
        "filtration.tate_filtration.calls": (calls("filtration.tate_filtration"), per_req),
        "filtration.graded_piece.self_s": (self_s("filtration.graded_piece"), "s"),
        "filtration.eta_image_subgroup.self_s": (self_s("filtration.eta_image_subgroup"), "s"),
        "transfers.self_s": (layer_self_s("transfers"), "s"),
        "transfers.closure.calls": (calls("transfers.transfer_closure_subgroup"), per_req),
        "transfers.transfer_of_unit_form.calls": (
            calls("transfers.transfer_of_unit_form"), per_req),
    }
