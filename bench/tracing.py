"""Spans recorded from outside bxkit, for the traced pass only.

The recorder replaces module attributes with timing wrappers after
bxkit is imported and before the workload is built; nothing under
``src/`` knows about it.  Each span keeps its name, start, end and
parent, in flat arrays that stay in memory until the pass ends and are
then written to one file.  A span's self time is its duration minus
the time its direct children cover.

Hooks are looked up by name.  If a later refactor removes a hooked
attribute, the hook is reported as missing and the metrics that depend
on it are emitted with a reason instead of a value.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from pathlib import Path

# (module, attribute, layer).  Several attributes may feed one layer.
FUNCTION_HOOKS = (
    ("bxkit.laws", "consistent_cases", "laws.cases"),
    ("bxkit.laws", "enumerate_values", "values.enumerate"),
    ("bxkit.laws", "enumerate_op_sequences", "scheme.op_sequences"),
    ("bxkit.laws", "compose_updates", "scheme.compose"),
    ("bxkit.laws", "diff", "values.diff"),
    ("bxkit.laws", "render_update", "grammar.render"),
    ("bxkit.laws", "render_trace", "grammar.render"),
    ("bxkit.laws", "render_value", "grammar.render"),
    ("bxkit.laws", "run_suite", "laws.driver"),
    ("bxkit.frameworks", "contains", "values.contains"),
    ("bxkit.frameworks", "enumerate_values", "values.enumerate"),
    ("bxkit.frameworks", "diff", "values.diff"),
    ("bxkit.scheme", "diff", "values.diff"),
    ("bxkit.cli", "main", "cli"),
    ("bxkit.cli", "run_suite", "laws.driver"),
    ("bxkit.cli", "classify", "classify"),
    ("bxkit.cli", "well_behaved", "classify"),
    ("bxkit.cli", "render_report", "classify"),
    ("bxkit.cli", "render_value", "grammar.render"),
)

# Constructors whose callable arguments are the user's code.  They are
# shimmed wherever bxkit exposes them, before anything is built.
CONSTRUCTORS = (
    "make_mapping",
    "make_lens",
    "make_maintainer",
    "make_trigonal",
    "make_symmetric_lens",
    "make_edit_lens",
    "make_sdelta_lens",
)
CONSTRUCTOR_MODULES = ("bxkit", "bxkit.frameworks", "bxkit.catalog")

# The ten laws of the suite as of this benchmark's definition.
LAWS = (
    "stability",
    "invertibility",
    "undoability",
    "history_ignorance",
    "correctness",
    "hippocraticness",
    "least_update",
    "totality",
    "safety",
    "convergence",
)

ROOT = "harness.check"
KEY_HASH = "trace.keyhash"

# Per-layer metrics: name -> (unit, kind, layers).  ``calls`` counts the
# spans of the layers, ``self_s`` sums their self time, ``incl_s`` sums
# their duration.
LAYER_METRICS = {
    "values.enumerate.calls": ("count", "calls", ("values.enumerate",)),
    "values.enumerate.self_s": ("s", "self_s", ("values.enumerate",)),
    "values.contains.calls": ("count", "calls", ("values.contains",)),
    "values.contains.self_s": ("s", "self_s", ("values.contains",)),
    "values.diff.calls": ("count", "calls", ("values.diff",)),
    "values.diff.self_s": ("s", "self_s", ("values.diff",)),
    "scheme.op_sequences.calls": ("count", "calls", ("scheme.op_sequences",)),
    "scheme.op_sequences.self_s": ("s", "self_s", ("scheme.op_sequences",)),
    "scheme.compose.calls": ("count", "calls", ("scheme.compose",)),
    "scheme.compose.self_s": ("s", "self_s", ("scheme.compose",)),
    "frameworks.apply.calls": ("count", "calls", ("frameworks.apply",)),
    "frameworks.apply.self_s": ("s", "self_s", ("frameworks.apply",)),
    "catalog.user.calls": ("count", "calls", ("catalog.user",)),
    "catalog.user.self_s": ("s", "self_s", ("catalog.user",)),
    "catalog.consistency.calls": ("count", "calls", ("catalog.consistency",)),
    "catalog.consistency.self_s": ("s", "self_s", ("catalog.consistency",)),
    "laws.cases.calls": ("count", "calls", ("laws.cases",)),
    "laws.cases.self_s": ("s", "self_s", ("laws.cases",)),
    "laws.self_s": ("s", "self_s", ("laws.driver",) + tuple(f"laws.{law}" for law in LAWS)),
    **{f"laws.{law}.s": ("s", "incl_s", (f"laws.{law}",)) for law in LAWS},
    "grammar.render.calls": ("count", "calls", ("grammar.render",)),
    "grammar.render.self_s": ("s", "self_s", ("grammar.render",)),
    "classify.self_s": ("s", "self_s", ("classify",)),
    "cli.self_s": ("s", "self_s", ("cli",)),
}

# Metrics computed from something other than span sums.
OTHER_METRICS = {
    "values.diff.cache_entries": "count",
    "frameworks.apply.unique_ratio": "ratio",
    "frameworks.apply.undefined_ratio": "ratio",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
    units.update(OTHER_METRICS)
    return units


class Recorder:
    """Collects spans of one pass; install once, before the build."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.apply_keys: set[int] = set()
        self.apply_undefined = 0
        # Hook bookkeeping per layer; a layer in neither is unused.
        self.installed: set[str] = set()
        self.missing: dict[str, list[str]] = {}

    # -- span recording ---------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def _open(self, layer_id: int) -> int:
        index = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, layer: str, fn):
        layer_id = self._layer_id(layer)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            index = open_(layer_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        traced.__wrapped__ = fn
        return traced

    def span(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` under a span of its own."""
        return self.wrap(layer, fn)(*args, **kwargs)

    # -- hooks -----------------------------------------------------------

    def _mark(self, layer: str, ok: bool, reason: str) -> None:
        if ok:
            self.installed.add(layer)
        else:
            self.missing.setdefault(layer, []).append(reason)

    def install(self) -> None:
        for module_name, attribute, layer in FUNCTION_HOOKS:
            module = sys.modules.get(module_name)
            if module is None:
                continue  # this workload does not load the module
            fn = getattr(module, attribute, None)
            self._mark(layer, callable(fn), f"{module_name}.{attribute} no longer exists")
            if callable(fn):
                setattr(module, attribute, self.wrap(layer, fn))
        self._install_apply()
        self._install_checkers()
        self._install_constructors()

    def _install_apply(self) -> None:
        frameworks = sys.modules.get("bxkit.frameworks")
        bx_class = getattr(frameworks, "Bx", None)
        apply = getattr(bx_class, "apply", None)
        undefined = getattr(frameworks, "Undefined", None)
        ok = callable(apply) and isinstance(undefined, type)
        self._mark("frameworks.apply", ok, "bxkit.frameworks.Bx.apply or Undefined no longer exists")
        if not ok:
            return
        apply_id, key_id = self._layer_id("frameworks.apply"), self._layer_id(KEY_HASH)
        open_, close, keys = self._open, self._close, self.apply_keys
        recorder = self

        def traced_apply(bx, *args, **kwargs):
            index = open_(apply_id)
            try:
                # Hashing the input is tracer work: it gets a span of its
                # own so no layer's self time absorbs it.  Hashes stand in
                # for the inputs to keep the set small; a collision would
                # undercount the distinct inputs by one.
                key_index = open_(key_id)
                try:
                    keys.add(hash((id(bx), args, tuple(sorted(kwargs.items())))))
                except TypeError:
                    keys.add(hash((id(bx), tuple(map(id, args)))))
                close(key_index)
                return apply(bx, *args, **kwargs)
            except undefined:
                recorder.apply_undefined += 1
                raise
            finally:
                close(index)

        traced_apply.__wrapped__ = apply
        bx_class.apply = traced_apply

    def _install_checkers(self) -> None:
        checkers = getattr(sys.modules.get("bxkit.laws"), "CHECKERS", None)
        for law in LAWS:
            layer = f"laws.{law}"
            fn = checkers.get(law) if isinstance(checkers, dict) else None
            self._mark(layer, callable(fn), f"bxkit.laws.CHECKERS has no entry {law!r}")
            if callable(fn):
                checkers[law] = self.wrap(layer, fn)

    def _install_constructors(self) -> None:
        """Wrap the callables handed to ``make_*``: relations named
        ``consistency`` feed ``catalog.consistency``, every other callable
        argument ``catalog.user``."""
        self._layer_id("catalog.user")
        self._layer_id("catalog.consistency")
        found = False
        for module_name in CONSTRUCTOR_MODULES:
            module = sys.modules.get(module_name)
            for name in CONSTRUCTORS:
                original = getattr(module, name, None)
                if callable(original):
                    found = True
                    setattr(module, name, self._shim(original))
        for layer in ("catalog.user", "catalog.consistency"):
            self._mark(layer, found, "bxkit exposes none of the make_* constructors")

    def _shim(self, constructor):
        signature = inspect.signature(constructor)

        def shimmed(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            for name, value in bound.arguments.items():
                if callable(value) and not isinstance(value, type):
                    layer = "catalog.consistency" if name == "consistency" else "catalog.user"
                    bound.arguments[name] = self.wrap(layer, value)
            return constructor(*bound.args, **bound.kwargs)

        shimmed.__wrapped__ = constructor
        return shimmed

    # -- results ---------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, self and inclusive seconds per layer."""
        count = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(count)]
        covered = [0] * count
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += durations[i]
        totals = {layer: {"calls": 0, "self_s": 0, "incl_s": 0} for layer in self.layers}
        for i in range(count):
            row = totals[self.layers[self.layer[i]]]
            row["calls"] += 1
            row["self_s"] += durations[i] - covered[i]
            row["incl_s"] += durations[i]
        for row in totals.values():
            row["self_s"] /= 1e9
            row["incl_s"] /= 1e9
        return totals

    def metrics(self) -> dict[str, dict]:
        """Per-layer metrics of this pass, except the set-up and overhead
        figures, which the harness adds from untraced passes."""
        totals = self.layer_totals()
        out: dict[str, dict] = {}
        for name, (unit, kind, layers) in LAYER_METRICS.items():
            reasons = "; ".join(r for l in layers for r in self.missing.get(l, ()))
            if reasons and not self.installed.intersection(layers):
                out[name] = {"value": None, "unit": unit, "missing": reasons}
                continue
            out[name] = {"value": sum(totals.get(l, {}).get(kind, 0) for l in layers), "unit": unit}
            if reasons:
                out[name]["partial"] = reasons
        apply = totals.get("frameworks.apply", {}).get("calls", 0)
        for name, numerator in (
            ("frameworks.apply.unique_ratio", len(self.apply_keys)),
            ("frameworks.apply.undefined_ratio", self.apply_undefined),
        ):
            if apply:
                out[name] = {"value": numerator / apply, "unit": "ratio"}
            else:
                reason = "; ".join(self.missing.get("frameworks.apply", ["no apply calls were made"]))
                out[name] = {"value": None, "unit": "ratio", "missing": reason}
        out["values.diff.cache_entries"] = _diff_cache_entries()
        return out

    def write(self, path: Path) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "pass_id": self.pass_id,
            "spans": len(self.start),
            "layers": self.layers,
            "arrays": [["layer", "H"], ["start_ns", "q"], ["end_ns", "q"], ["parent", "i"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.layer, self.start, self.end, self.parent):
                column.tofile(handle)


def _diff_cache_entries() -> dict:
    values = sys.modules.get("bxkit.values")
    cache_info = getattr(getattr(values, "diff", None), "cache_info", None)
    if not callable(cache_info):
        return {"value": None, "unit": "count", "missing": "bxkit.values.diff has no cache_info"}
    return {"value": cache_info().currsize, "unit": "count"}
