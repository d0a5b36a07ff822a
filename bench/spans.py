"""In-memory spans around the benchmark's calls into quiverskew.

A span is (name, start, end, parent index, case id); names are
``layer.function`` with the layer a quiverskew module (``io``, ``quiver``,
``group``, ``skew``, ``cstar``) or ``cli`` for a child process.  Spans are
kept in a list and written out when the run ends.  ``NullTracer`` is what an
untraced run uses: its spans cost one attribute lookup and a no-op context.
"""

from __future__ import annotations

import contextlib
import statistics
import time

LAYERS = ("io", "quiver", "group", "skew", "cstar", "cli")

# Per-layer metric -> the span names whose per-case total it reports.
TIMED = {
    "io.parse_ms": ("io.parse_quiver_document", "io.parse_action_document"),
    "io.emit_ms": ("io.emit_quiver_document", "io.dumps"),
    "quiver.validate_quiver_ms": ("quiver.validate_quiver",),
    "group.validate_action_ms": ("group.validate_action",),
    "group.is_free_ms": ("group.is_free",),
    "skew.quotient_quiver_ms": ("skew.quotient_quiver",),
    "skew.gross_tucker_reconstruct_ms": ("skew.gross_tucker_reconstruct",),
    "skew.skew_product_ms": ("skew.skew_product",),
    "quiver.iso_search_ms": ("quiver.iso_search",),
    "cstar.k_theory_ms": ("cstar.k_theory",),
    "cstar.acyclic_block_structure_ms": ("cstar.acyclic_block_structure",),
    "cstar.graded_dimensions_ms": ("cstar.graded_dimensions",),
    "cli.startup_ms": ("cli.startup",),
    "cli.skew_ms": ("cli.skew",),
    "cli.verify_ms": ("cli.verify",),
    "cli.reconstruct_ms": ("cli.reconstruct",),
    "cli.invariants_ms": ("cli.invariants",),
}
# Per-case counts: reported as the median over cases, or the maximum.
COUNTS = {"group.action_entries": statistics.median, "cstar.snf_max_bits": max}


class NullTracer:
    enabled = False
    case = None
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, value):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = []
        self.case = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else None, self.case])
        self._open.append(i)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[i][2] = time.perf_counter()

    def count(self, name, value):
        self.counts.append((name, value, self.case))

    def per_case(self):
        """{case: {span name: total seconds}} and {case: {layer: self seconds}}.

        Self time is counted only inside a case's ``case`` span: a span's
        duration minus the time its child spans cover.
        """
        totals, selfs = {}, {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        inside = [False] * len(self.spans)
        for i, (name, _, _, parent, case) in enumerate(self.spans):
            inside[i] = parent is not None and (inside[parent] or self.spans[parent][0] == "case")
        for i, (name, start, end, parent, case) in enumerate(self.spans):
            if case is None or name == "case":
                continue
            t = totals.setdefault(case, {})
            t[name] = t.get(name, 0.0) + (end - start)
            if inside[i]:
                layer = name.split(".", 1)[0]
                s = selfs.setdefault(case, {})
                s[layer] = s.get(layer, 0.0) + (end - start) - child[i]
        return totals, selfs

    def layer_metrics(self, failed_cases=(), scale=1.0):
        """Every per-layer metric: medians over the cases that completed,
        times multiplied by ``scale``."""
        totals, selfs = self.per_case()
        out = {}
        for metric, names in TIMED.items():
            vals = [sum(t[n] for n in names if n in t) * 1000 * scale
                    for c, t in totals.items()
                    if c not in failed_cases and any(n in t for n in names)]
            out[metric] = {"value": statistics.median(vals), "unit": "ms"}
        for layer in LAYERS:
            vals = [s[layer] * 1000 * scale for c, s in selfs.items()
                    if c not in failed_cases and layer in s]
            out[f"{layer}.self_ms"] = {"value": statistics.median(vals), "unit": "ms"}
        for name, agg in COUNTS.items():
            vals = [v for n, v, c in self.counts if n == name and c not in failed_cases]
            out[name] = {"value": agg(vals), "unit": "count"}
        return out

    def dump(self):
        return {"spans": self.spans, "counts": self.counts}
