"""Spans around calls into the package's layers, recorded from outside.

Each traced name is replaced, for the length of a traced pass, by a wrapper
at the place its caller looks it up (a module global or a class attribute),
so nothing under ``src/`` changes.  A wrapper records one span: name, start,
end, the enclosing span and the request it belongs to, plus a few counts
read from the call's arguments and result.  Spans stay in memory and are
written out once, when the run ends.

The time a wrapper spends on its own bookkeeping is kept per span and taken
out of the enclosing span's self time, so per-layer self times add up to the
traced wall time minus ``trace.overhead_s``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from dataclasses import dataclass, field

import numpy as np

ENGINE = "functional1d.f_enclosures_batch"
CANTOR = "bvmodel.cantor_eval_array"
SWEEP = "asymptotics.lambda_sweep"
VERDICT = "asymptotics.verify_sweep"
ESTIMATE = "sectionnd.F_nd_estimate"
SECTION = "sectionnd.extract_section"
ORACLE = "numeasure.nu_quadrature_oracle"
CLI = "cli.main"
REQUEST = "request"

#: (span name, module, attribute path) for every call site the harness
#: wraps.  A span may have several sites when callers in different modules
#: look the same function up in their own namespace.
SITES = (
    (ENGINE, "nugamma.functional1d", "f_enclosures_batch"),
    (ENGINE, "nugamma.asymptotics", "f_enclosures_batch"),
    (ENGINE, "nugamma.sectionnd", "f_enclosures_batch"),
    (CANTOR, "nugamma.functional1d", "cantor_eval_array"),
    (SWEEP, "nugamma.asymptotics", "lambda_sweep"),
    (SWEEP, "nugamma.cli", "lambda_sweep"),
    (VERDICT, "nugamma.cli", "verify_sweep"),
    (ESTIMATE, "nugamma.sectionnd", "F_nd_estimate"),
    (SECTION, "nugamma.sectionnd", "BallIndicatorField.extract_section"),
    (ORACLE, "nugamma.cli", "nu_quadrature_oracle"),
    (CLI, "nugamma.cli", "main"),
)


def _resolve(module: str, path: str):
    """(owner object, attribute name) for a dotted path, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def _bound_arg(fn, args, kwargs, name, default=None):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name, default)
    except (TypeError, ValueError):
        return default


def _engine_counts(fn, args, kwargs, result) -> dict:
    funcs = _bound_arg(fn, args, kwargs, "funcs", ())
    tol = _bound_arg(fn, args, kwargs, "tol")
    encs = [e for e in (result or ()) if e is not None]
    out = {"sections": len(funcs), "tol_met": sum(bool(e.tol_met) for e in encs)}
    if tol:
        out["width_over_tol_max"] = max(((e.hi - e.lo) / tol for e in encs), default=0.0)
    return out


def _cantor_counts(fn, args, kwargs, result) -> dict:
    values = np.asarray(args[0] if args else next(iter(kwargs.values())))
    return {"values": int(values.size), "unique": int(np.unique(values).size)}


def _oracle_counts(fn, args, kwargs, result) -> dict:
    n = int(_bound_arg(fn, args, kwargs, "n", 512))
    return {"cells": n * n}


def _estimate_counts(fn, args, kwargs, result) -> dict:
    return {"failures": int(getattr(result, "failures", 0))}


COUNTERS = {
    ENGINE: _engine_counts,
    CANTOR: _cantor_counts,
    ORACLE: _oracle_counts,
    ESTIMATE: _estimate_counts,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    overhead: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Installs span wrappers around traced passes and keeps their spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._request = -1
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module, path in SITES:
            site = _resolve(module, path)
            if site is None:
                self.absent.add(f"{module}.{path}")
                continue
            owner, attr = site
            original = getattr(owner, attr)
            self.installed.add(name)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            stack = tracer._stack
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, tracer._request)
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(fn, args, kwargs, result)
            span.overhead = (span.start - t_in) + (time.perf_counter() - span.end)
            return result

        return traced

    def request(self, call):
        """Run one workload request as a root span and return its result."""
        self._request += 1
        return self._wrap(REQUEST, call)()

    def write(self, path) -> None:
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "request": s.request,
                "overhead": s.overhead,
                **s.counts,
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"absent_sites": sorted(self.absent), "spans": rows}, fh)


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, summed counts."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += (s.end - s.start) + s.overhead
    totals: dict[str, dict] = {}
    for s, kids in zip(spans, child_time):
        t = totals.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "overhead_s": 0.0})
        t["calls"] += 1
        t["s"] += s.end - s.start
        t["self_s"] += (s.end - s.start) - kids
        t["overhead_s"] += s.overhead
        for key, v in s.counts.items():
            if key.endswith("_max"):
                t[key] = max(t.get(key, v), v)
            else:
                t[key] = t.get(key, 0) + v
    # Engine calls made from inside a sweep, for engine_calls_per_sweep.
    nested = sum(
        1
        for s in spans
        if s.name == ENGINE and s.parent is not None and spans[s.parent].name == SWEEP
    )
    totals.setdefault(SWEEP, {"calls": 0, "s": 0.0, "self_s": 0.0, "overhead_s": 0.0})
    totals[SWEEP]["engine_calls"] = nested
    return totals


def _rate(work, seconds) -> float:
    """Work per second of busy time; 0 when the layer did no work."""
    return work / seconds if seconds > 0.0 else 0.0


def per_layer_metrics(totals: dict[str, dict], passes: int, absent: set[str]) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, per pass over the workload.

    The metrics of a span in ``absent`` (its call site is gone, or the
    workload never reached it where it must) are left out, not zeroed.
    """

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def per_pass(v):
        return v / passes

    sections = get(ENGINE, "sections")
    values = get(CANTOR, "values")
    sweeps = get(SWEEP, "calls")
    by_span = {
        ENGINE: {
            "functional1d.f_enclosures_batch.calls": per_pass(get(ENGINE, "calls")),
            "functional1d.f_enclosures_batch.sections": per_pass(sections),
            "functional1d.f_enclosures_batch.self_s": per_pass(get(ENGINE, "self_s")),
            "functional1d.sections_per_s": _rate(sections, get(ENGINE, "s")),
            "functional1d.tol_met_ratio": _rate(get(ENGINE, "tol_met"), sections),
            "functional1d.width_over_tol_max": get(ENGINE, "width_over_tol_max"),
        },
        CANTOR: {
            "bvmodel.cantor_eval_array.calls": per_pass(get(CANTOR, "calls")),
            "bvmodel.cantor_eval_array.values": per_pass(values),
            "bvmodel.cantor_eval_array.s": per_pass(get(CANTOR, "s")),
            "bvmodel.cantor_eval_array.values_per_s": _rate(values, get(CANTOR, "s")),
            "bvmodel.cantor_eval_array.unique_ratio": _rate(get(CANTOR, "unique"), values),
        },
        SWEEP: {
            "asymptotics.lambda_sweep.calls": per_pass(sweeps),
            "asymptotics.lambda_sweep.self_s": per_pass(get(SWEEP, "self_s")),
            "asymptotics.engine_calls_per_sweep": _rate(get(SWEEP, "engine_calls"), sweeps),
        },
        VERDICT: {"asymptotics.verify_sweep.s": per_pass(get(VERDICT, "s"))},
        SECTION: {
            "sectionnd.extract_section.calls": per_pass(get(SECTION, "calls")),
            "sectionnd.extract_section.s": per_pass(get(SECTION, "s")),
        },
        ESTIMATE: {
            "sectionnd.F_nd_estimate.self_s": per_pass(get(ESTIMATE, "self_s")),
            "sectionnd.failures": per_pass(get(ESTIMATE, "failures")),
        },
        ORACLE: {
            "numeasure.nu_quadrature_oracle.calls": per_pass(get(ORACLE, "calls")),
            "numeasure.nu_quadrature_oracle.s": per_pass(get(ORACLE, "s")),
            "numeasure.oracle_cells_per_s": _rate(get(ORACLE, "cells"), get(ORACLE, "s")),
        },
        CLI: {
            "cli.main.calls": per_pass(get(CLI, "calls")),
            "cli.main.self_s": per_pass(get(CLI, "self_s")),
        },
        REQUEST: {"request.self_s": per_pass(get(REQUEST, "self_s"))},
    }
    return {
        name: value
        for span, metrics in by_span.items()
        if span not in absent
        for name, value in metrics.items()
    }
