"""Spans around calls into pdmwire's layers, and the per-layer metrics made from them.

`Tracer.install` replaces every module binding of each traced function (for
example `laguerre` as bound in specialfn, canonical, fields and oracle) with
a wrapper that records one span: name, start, end, parent span, and an
optional work count.  Spans are kept in memory for one op and folded into
per-layer totals after it, outside the timed span.

A layer's busy time is the time covered by its outermost spans (spans with
no ancestor of the same layer); its self time is its span time minus the
time covered by its direct child spans.  Per-layer figures are reported per
round, so runs of different length compare.  A traced name that the
program no longer has is reported as absent (value null), never as 0.
"""
from __future__ import annotations

import functools
import sys
import time

#: layer -> functions traced for it, as (module, attribute)
LAYERS = {
    "specialfn.laguerre": [("specialfn", "laguerre")],
    "specialfn.gegenbauer": [("specialfn", "gegenbauer")],
    "specialfn.gauss_legendre": [("specialfn", "gauss_legendre")],
    "canonical.eval": [("canonical", name) for name in (
        "radial_profile", "radial_eval", "canonical_state", "energy_radial", "energy_total",
        "dimensionless_eigenvalue", "norm_coeff", "radial_wavefunction", "angular",
        "axial", "total_wavefunction", "density")],
    "noncanonical.eval": [("noncanonical", name) for name in (
        "_angular", "m_eff", "noncanonical_state", "angular_even", "angular_odd",
        "radial_even", "radial_odd", "energy_even", "energy_odd", "total_wavefunction_nc",
        "density_nc", "dimensionless_eigenvalue_nc")],
    "oracle.build": [("oracle", "build_radial_operator")],
    "oracle.solve": [("oracle", "lowest_eigenvalues")],
    "oracle.sturm": [("oracle", "_sturm_count")],
    "oracle.check": [("oracle", name) for name in (
        "residual_radial", "residual_angular", "orthonormality_matrix",
        "limit_sweep_a_to_zero")],
    "fields.window": [("fields", "_mass_quantile_t")],
    "fields.raster": [("fields", "build_density_field")],
    "fields.trace": [("fields", name) for name in (
        "radial_trace", "angular_trace", "potential_trace")],
    "verification.sweep": [("verification", "run_verification")],
    "cli.main": [("cli", "main")],
}

#: work counts recorded at the span, from the call's arguments or result
COUNTS = {
    ("oracle", "_sturm_count"): lambda args, result: args[0].size * args[2].size,
    ("fields", "build_density_field"): lambda args, result: result.nx * result.ny,
    ("verification", "run_verification"): lambda args, result: len(result[0]),
}

#: per-layer metric -> unit, better direction
METRICS = {
    "oracle.sturm.calls": ("count", "lower"),
    "oracle.sturm.busy_s": ("s", "lower"),
    "oracle.sturm.cell_updates": ("count", "lower"),
    "oracle.sturm.sweeps_per_solve": ("sweeps/solve", "lower"),
    "oracle.solve.calls": ("count", "lower"),
    "oracle.solve.busy_s": ("s", "lower"),
    "oracle.build.busy_s": ("s", "lower"),
    "oracle.check.busy_s": ("s", "lower"),
    "verification.sweep.busy_s": ("s", "lower"),
    "verification.sweep.self_s": ("s", "lower"),
    "verification.records": ("count", "higher"),
    "fields.window.calls": ("count", "lower"),
    "fields.window.busy_s": ("s", "lower"),
    "fields.raster.calls": ("count", "lower"),
    "fields.raster.busy_s": ("s", "lower"),
    "fields.raster.cells": ("count", "higher"),
    "fields.trace.busy_s": ("s", "lower"),
    "specialfn.gauss_legendre.calls": ("count", "lower"),
    "specialfn.gauss_legendre.busy_s": ("s", "lower"),
    "specialfn.laguerre.calls": ("count", "lower"),
    "specialfn.laguerre.busy_s": ("s", "lower"),
    "specialfn.gegenbauer.busy_s": ("s", "lower"),
    "canonical.eval.busy_s": ("s", "lower"),
    "noncanonical.eval.busy_s": ("s", "lower"),
    "cli.main.busy_s": ("s", "lower"),
    "cli.write.self_s": ("s", "lower"),
    "cli.out_bytes": ("B", "lower"),
}


class Tracer:
    """Records spans of the traced pdmwire functions in one process."""

    def __init__(self):
        self.layer_of = []      # per span: layer name
        self.start = []
        self.end = []
        self.parent = []        # index of the enclosing span, or -1
        self.count = []         # work count, or 0
        self.stack = []
        self.missing = set()    # layers with a traced name the program lacks
        self.totals = {}        # layer -> {"calls", "busy", "self", "count", "in_solve"}

    def install(self) -> None:
        """Wrap every binding of every traced function in the pdmwire modules."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "pdmwire" or name.startswith("pdmwire.")]
        for layer, functions in LAYERS.items():
            for module_name, attr in functions:
                original = getattr(sys.modules.get(f"pdmwire.{module_name}"), attr, None)
                if not callable(original):
                    self.missing.add(layer)
                    continue
                wrapper = self._wrap(layer, original, COUNTS.get((module_name, attr)))
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)

    def _wrap(self, layer: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.layer_of.append(layer)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.count.append(0)
            self.end.append(0.0)
            self.stack.append(index)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                self.count[index] = counter(args, result)
            return result
        return traced

    def fold(self) -> None:
        """Add the spans of the op just finished to the layer totals, then drop them."""
        spans = len(self.start)
        child_time = [0.0] * spans
        for i in range(spans):
            if self.parent[i] >= 0:
                child_time[self.parent[i]] += self.end[i] - self.start[i]
        for i in range(spans):
            layer = self.layer_of[i]
            tot = self.totals.setdefault(
                layer, {"calls": 0, "busy": 0.0, "self": 0.0, "count": 0, "in_solve": 0})
            duration = self.end[i] - self.start[i]
            tot["calls"] += 1
            tot["self"] += duration - child_time[i]
            tot["count"] += self.count[i]
            ancestors = set()
            j = self.parent[i]
            while j >= 0:
                ancestors.add(self.layer_of[j])
                j = self.parent[j]
            if layer not in ancestors:
                tot["busy"] += duration
            if "oracle.solve" in ancestors:
                tot["in_solve"] += 1
        self.clear()

    def clear(self) -> None:
        """Drop the recorded spans."""
        for column in (self.layer_of, self.start, self.end, self.parent, self.count):
            column.clear()

    def metrics(self, rounds: int, out_bytes: int) -> dict:
        """Per-layer metrics per round; absent layers read null."""
        def total(layer, key):
            if layer in self.missing:
                return None
            return self.totals.get(layer, {}).get(key, 0) / rounds

        solves = total("oracle.solve", "calls")
        in_solve = total("oracle.sturm", "in_solve")
        values = {
            "oracle.sturm.calls": total("oracle.sturm", "calls"),
            "oracle.sturm.busy_s": total("oracle.sturm", "busy"),
            "oracle.sturm.cell_updates": total("oracle.sturm", "count"),
            "oracle.sturm.sweeps_per_solve": (
                None if solves is None or in_solve is None
                else in_solve / solves if solves else 0.0),
            "oracle.solve.calls": solves,
            "oracle.solve.busy_s": total("oracle.solve", "busy"),
            "oracle.build.busy_s": total("oracle.build", "busy"),
            "oracle.check.busy_s": total("oracle.check", "busy"),
            "verification.sweep.busy_s": total("verification.sweep", "busy"),
            "verification.sweep.self_s": total("verification.sweep", "self"),
            "verification.records": total("verification.sweep", "count"),
            "fields.window.calls": total("fields.window", "calls"),
            "fields.window.busy_s": total("fields.window", "busy"),
            "fields.raster.calls": total("fields.raster", "calls"),
            "fields.raster.busy_s": total("fields.raster", "busy"),
            "fields.raster.cells": total("fields.raster", "count"),
            "fields.trace.busy_s": total("fields.trace", "busy"),
            "specialfn.gauss_legendre.calls": total("specialfn.gauss_legendre", "calls"),
            "specialfn.gauss_legendre.busy_s": total("specialfn.gauss_legendre", "busy"),
            "specialfn.laguerre.calls": total("specialfn.laguerre", "calls"),
            "specialfn.laguerre.busy_s": total("specialfn.laguerre", "busy"),
            "specialfn.gegenbauer.busy_s": total("specialfn.gegenbauer", "busy"),
            "canonical.eval.busy_s": total("canonical.eval", "busy"),
            "noncanonical.eval.busy_s": total("noncanonical.eval", "busy"),
            "cli.main.busy_s": total("cli.main", "busy"),
            "cli.write.self_s": total("cli.main", "self"),
            "cli.out_bytes": out_bytes / rounds,
        }
        return {name: {"value": values[name], "unit": METRICS[name][0]} for name in METRICS}
