"""Spans around pqeuler's public functions, installed from outside the package.

``instrument(tracer)`` replaces each traced function at the place where its
callers look it up (the module attributes that ``harness``, ``contfrac``,
``qeuler`` and the benchmark use, plus two methods of ``algebra``) and puts
the originals back on exit, so a pass outside the ``with`` block runs the
untouched package.

A span is ``[name, start, end, parent, units]``; ``parent`` is the index of
the span open when the call began (-1 at the top).  The two hot leaf calls,
``LaurentPoly.__mul__`` and the bijections of ``maps``, call no traced
function; a span each would cost more memory than the work they time, so
they are summed per (parent span, name) into ``leaves`` instead.  Work done
in ``stat_polynomial``'s pool workers falls inside its parent span.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from pqeuler import algebra, contfrac, harness, lattice, maps, permstat, qeuler

SPAN, LEAF = "span", "leaf"

FORMULAS = ("rz_series", "hrz_series", "parity_formula", "q_parity_formula")
BIJECTIONS = ("csz", "fz", "fv", "fv_star", "invol_phi", "invol_psi")


def _coefficient_sum(poly) -> int:
    return sum(poly.terms.values())


def _term_products(args) -> int:
    a, b = args
    return len(a.terms) * (len(b.terms) if isinstance(b, algebra.LaurentPoly) else 1)


def _check_name(args, kwargs) -> str:
    return "harness." + (args[0] if args else kwargs["check_id"])


def _lattice_name(args, kwargs) -> str:
    method = args[3] if len(args) > 3 else kwargs.get("method", "dp")
    return "lattice.enumerate" if method == "enumerate" else "lattice.transfer"


def _lattice_units(result, name) -> int:
    return _coefficient_sum(result) if name == "lattice.enumerate" else 0


# (owner, attribute, kind, name or name(args, kwargs), units)
# For spans, units(result, name) is stored on the span; for leaves,
# units(args) is summed.
PATCHES = (
    [(harness, "check", SPAN, _check_name, None)]
    + [(owner, "stat_polynomial", SPAN, "permstat.stat_polynomial",
        lambda result, _name: _coefficient_sum(result))
       for owner in (permstat, harness)]
    + [(owner, attr, SPAN, "contfrac.expand", None)
       for owner in (contfrac, harness) for attr in ("expand_j", "expand_s")]
    + [(owner, "e_pq", SPAN, "qeuler.e_pq", None) for owner in (qeuler, harness)]
    + [(owner, attr, SPAN, "qeuler.formula", None)
       for owner in (qeuler, harness) for attr in FORMULAS]
    + [(lattice, "weighted_sum", SPAN, _lattice_name, _lattice_units),
       (algebra.TruncSeries, "recip", SPAN, "algebra.recip", None),
       (algebra.LaurentPoly, "__mul__", LEAF, "algebra.laurent_mul", _term_products)]
    + [(maps, attr, LEAF, "maps.bijection", None) for attr in BIJECTIONS]
    + [(harness, attr, LEAF, "maps.bijection", None)
       for attr in ("csz", "invol_phi", "invol_psi")]
)


class Tracer:
    """Spans and leaf sums of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict = {}   # (parent, name) -> [calls, seconds, units]
        self._open: list[int] = []
        self._in_leaf = False

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0])
        self._open.append(index)
        return index

    def end(self, index: int, units: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = units
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap_span(self, fn, name, units):
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = self.begin(label)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(index)
                if units is not None and result is not None:
                    self.spans[index][4] = units(result, label)
        traced.__wrapped__ = fn
        return traced

    def wrap_leaf(self, fn, name, units):
        leaves = self.leaves
        open_spans = self._open

        def traced(*args):
            if self._in_leaf:  # e.g. fv_star calling fv: count the outer call only
                return fn(*args)
            self._in_leaf = True
            start = time.perf_counter()
            try:
                result = fn(*args)
            finally:
                self._in_leaf = False
            elapsed = time.perf_counter() - start
            key = (open_spans[-1] if open_spans else -1, name)
            entry = leaves.get(key)
            if entry is None:
                leaves[key] = entry = [0, 0.0, 0]
            entry[0] += 1
            entry[1] += elapsed
            if units is not None:
                entry[2] += units(args)
            return result
        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        leaves = [[parent, name, *entry]
                  for (parent, name), entry in self.leaves.items()]
        with open(path, "w") as fh:
            json.dump({"span_fields": ["name", "start", "end", "parent", "units"],
                       "leaf_fields": ["parent", "name", "calls", "seconds", "units"],
                       "spans": self.spans, "leaves": leaves}, fh)


@contextmanager
def instrument(tracer: Tracer):
    saved = []
    try:
        for owner, attr, kind, name, units in PATCHES:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            wrap = tracer.wrap_span if kind == SPAN else tracer.wrap_leaf
            setattr(owner, attr, wrap(original, name, units))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------

LAYER_METRICS = (
    ("kernel.words_per_s", "1/s", "higher"),
    ("permstat.stat_polynomial_s", "s", "lower"),
    ("permstat.stat_polynomial_calls", "count", "lower"),
    ("permstat.family_words", "count", "lower"),
    ("permstat.words_per_s", "1/s", "higher"),
    ("permstat.pool_speedup", "x", "higher"),
    ("algebra.laurent_mul_calls", "count", "lower"),
    ("algebra.term_products", "count", "lower"),
    ("algebra.laurent_mul_s", "s", "lower"),
    ("algebra.recip_calls", "count", "lower"),
    ("algebra.recip_s", "s", "lower"),
    ("contfrac.expand_calls", "count", "lower"),
    ("contfrac.expand_s", "s", "lower"),
    ("lattice.transfer_s", "s", "lower"),
    ("lattice.enumerate_s", "s", "lower"),
    ("lattice.objects", "count", "lower"),
    ("maps.bijection_calls", "count", "lower"),
    ("maps.bijection_s", "s", "lower"),
    ("qeuler.formula_s", "s", "lower"),
    ("qeuler.e_pq_s", "s", "lower"),
    *((f"harness.{cid}_s", "s", "lower") for cid in harness.CHECK_IDS),
    ("trace.overhead_s", "s", "lower"),
)

# metrics that must read the same in every traced pass
COUNT_METRICS = tuple(name for name, unit, _ in LAYER_METRICS if unit == "count")


def span_totals(tracer: Tracer) -> dict:
    """{name: [calls, self seconds, units]} over spans and leaves.

    A span's self time is its duration minus the time of the spans and
    leaf calls made inside it."""
    inner = [0.0] * len(tracer.spans)
    for name, start, end, parent, units in tracer.spans:
        if parent >= 0:
            inner[parent] += end - start
    for (parent, name), (calls, seconds, units) in tracer.leaves.items():
        if parent >= 0:
            inner[parent] += seconds
    totals: dict = {}
    for index, (name, start, end, parent, units) in enumerate(tracer.spans):
        entry = totals.setdefault(name, [0, 0.0, 0])
        entry[0] += 1
        entry[1] += end - start - inner[index]
        entry[2] += units
    for (parent, name), (calls, seconds, units) in tracer.leaves.items():
        entry = totals.setdefault(name, [0, 0.0, 0])
        entry[0] += calls
        entry[1] += seconds
        entry[2] += units
    return totals


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass (all but the probes and the
    tracing overhead, which the runner measures)."""
    totals = span_totals(tracer)

    def get(name):
        return totals.get(name, [0, 0.0, 0])

    stat = get("permstat.stat_polynomial")
    mul = get("algebra.laurent_mul")
    recip = get("algebra.recip")
    expand = get("contfrac.expand")
    bijection = get("maps.bijection")
    out = {
        "permstat.stat_polynomial_s": stat[1],
        "permstat.stat_polynomial_calls": stat[0],
        "permstat.family_words": stat[2],
        "permstat.words_per_s": stat[2] / stat[1] if stat[1] else 0.0,
        "algebra.laurent_mul_calls": mul[0],
        "algebra.term_products": mul[2],
        "algebra.laurent_mul_s": mul[1],
        "algebra.recip_calls": recip[0],
        "algebra.recip_s": recip[1],
        "contfrac.expand_calls": expand[0],
        "contfrac.expand_s": expand[1],
        "lattice.transfer_s": get("lattice.transfer")[1],
        "lattice.enumerate_s": get("lattice.enumerate")[1],
        "lattice.objects": get("lattice.enumerate")[2],
        "maps.bijection_calls": bijection[0],
        "maps.bijection_s": bijection[1],
        "qeuler.formula_s": get("qeuler.formula")[1],
        "qeuler.e_pq_s": get("qeuler.e_pq")[1],
    }
    for cid in harness.CHECK_IDS:
        out[f"harness.{cid}_s"] = get(f"harness.{cid}")[1]
    return out
