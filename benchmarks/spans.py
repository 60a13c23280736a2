"""In-memory span tracer for the benchmark's traced runs.

While a ``Tracer`` is installed it replaces the public names that specloop's
consuming modules import (``specloop.oracle.parse_annotations``,
``specloop.runner.run_once``, ...) and a few methods with wrappers that record
one span per call: name, start, end, parent span and run id (the id of the
enclosing ``refine.run_once`` span). Spans stay in memory; per-layer figures
are computed from them after the episode. Uninstalling restores every name.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import threading
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: int | None
    start: float
    end: float = 0.0
    note: object = None      # size, input key or error class, per span kind

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list[Span], Span]:
        stack = self._stack()
        # a worker thread starts with an empty stack; its spans belong to
        # the span the main thread has open (the run_experiment call)
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        span_id = next(self._ids)
        run = span_id if name == "refine.run_once" else (parent.run if parent else None)
        span = Span(span_id, name, parent.id if parent else None, run, 0.0)
        stack.append(span)
        span.start = perf_counter()
        return stack, span

    def _close(self, stack: list[Span], span: Span) -> None:
        span.end = perf_counter()
        stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a block."""
        stack, span = self._open(name)
        try:
            yield span
        finally:
            self._close(stack, span)

    def wrap(self, name: str, fn, note=None):
        """A callable that records a span around each call of fn. `note`
        maps the call's arguments to a value kept on the span."""
        tracer = self

        def traced(*args, **kwargs):
            noted = note(args, kwargs) if note is not None else None
            stack, span = tracer._open(name)
            span.note = noted
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span.note = type(exc).__name__
                raise
            finally:
                tracer._close(stack, span)
        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), note))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


_ABSENT = object()


def install(tracer: Tracer) -> None:
    """Wrap every module-level layer boundary the per-layer metrics need.
    The oracle's and verifier's methods are wrapped per instance, by
    ``install_instances``, once they exist."""
    import specloop.config
    import specloop.metrics
    import specloop.oracle
    import specloop.refine
    import specloop.runner
    import specloop.verifier

    def size(args, kwargs):
        return len(args[0])

    p = tracer.patch
    p(specloop.oracle, "parse_annotations", "acsl.parse_annotations", size)
    p(specloop.verifier, "parse_annotations", "acsl.parse_annotations", size)
    p(specloop.verifier, "weave", "acsl.weave")
    p(specloop.runner, "declared_functions", "acsl.declared_functions")
    p(specloop.oracle, "extract_spec", "oracle.extract_spec")
    p(specloop.config.TemplateStore, "load", "config.template_load")
    p(specloop.refine, "build_generation_prompt", "config.prompt")
    p(specloop.refine, "build_repair_prompt", "config.prompt")
    p(specloop.refine, "check_compliance", "config.check_compliance")
    p(specloop.verifier, "spec_key", "verifier.spec_key")
    p(specloop.verifier, "parse_wp_output", "verifier.parse_wp_output")
    p(specloop.refine, "map_failures_to_annotations", "verifier.map_failures")
    p(specloop.runner, "run_once", "refine.run_once")
    p(specloop.refine, "refine_delete", "refine.refine_delete")
    p(specloop.refine, "refine_modify", "refine.refine_modify")
    p(specloop.runner.RecordStore, "append", "runner.record_append")
    p(specloop.runner.RecordStore, "load", "runner.record_load")
    for method in ("__init__", "log", "close"):
        p(specloop.refine.RunLogger, method, "runner.run_log")
    p(specloop.metrics, "compute_cell", "metrics.compute_cell")


def install_instances(tracer: Tracer, oracle, verifier) -> None:
    def verify_input(args, kwargs):
        program, spec = args
        return (program.id, spec.keys())

    tracer.patch(oracle, "complete", "oracle.complete")
    tracer.patch(verifier, "verify", "verifier.verify", verify_input)


# --------------------------------------------------------------------------
# Span arithmetic
# --------------------------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_time(span: Span, children: list[Span]) -> float:
    return span.duration - covered(
        [(c.start, c.end) for c in children], span.start, span.end)


def children_by_parent(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans: list[Span], grid: Span) -> dict[str, float]:
    """Per-layer figures of one traced episode; `grid` is the span of the
    timed run_experiment call."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    kids = children_by_parent(spans)

    def calls(name):
        return len(by_name.get(name, ()))

    def secs(name):
        return sum(s.duration for s in by_name.get(name, ()))

    parses = by_name.get("acsl.parse_annotations", [])
    parse_s = secs("acsl.parse_annotations")
    verifies = by_name.get("verifier.verify", [])
    maps = by_name.get("verifier.map_failures", [])
    runs = [s for s in by_name.get("refine.run_once", []) if s.parent == grid.id]
    run_ms = [s.duration * 1000 for s in runs] or [0.0]
    return {
        "acsl.parse_annotations.calls": calls("acsl.parse_annotations"),
        "acsl.parse_annotations.s": parse_s,
        "acsl.parse_annotations.kb_per_s":
            sum(s.note for s in parses) / 1024 / parse_s if parse_s else 0.0,
        "acsl.weave.calls": calls("acsl.weave"),
        "acsl.weave.s": secs("acsl.weave"),
        "acsl.declared_functions.s": secs("acsl.declared_functions"),
        "oracle.complete.calls": calls("oracle.complete"),
        "oracle.complete.s": secs("oracle.complete"),
        "oracle.extract_spec.s": secs("oracle.extract_spec"),
        "config.template_load.calls": calls("config.template_load"),
        "config.template_load.s": secs("config.template_load"),
        "config.prompt.s": secs("config.prompt"),
        "config.check_compliance.s": secs("config.check_compliance"),
        "verifier.verify.calls": len(verifies),
        "verifier.verify.s": secs("verifier.verify"),
        "verifier.verify.self_s": sum(self_time(s, kids.get(s.id, []))
                                      for s in verifies),
        "verifier.unique_input_ratio":
            len({s.note for s in verifies}) / len(verifies) if verifies else 0.0,
        "verifier.spec_key.s": secs("verifier.spec_key"),
        "verifier.map_failures.s": secs("verifier.map_failures"),
        "verifier.unmappable_ratio":
            sum(1 for s in maps if s.note == "UnmappableFailure") / len(maps)
            if maps else 0.0,
        "verifier.parse_wp_output.s": secs("verifier.parse_wp_output"),
        "refine.run_once.p50_ms": statistics.median(run_ms),
        "refine.run_once.p99_ms": percentile(run_ms, 99),
        "refine.refine_delete.calls": calls("refine.refine_delete"),
        "refine.refine_delete.s": secs("refine.refine_delete"),
        "refine.refine_modify.calls": calls("refine.refine_modify"),
        "refine.calls_per_run": len(verifies) / len(runs) if runs else 0.0,
        "runner.self_s": self_time(grid, kids.get(grid.id, [])),
        "runner.record_append.calls": calls("runner.record_append"),
        "runner.record_append.s": secs("runner.record_append"),
        "runner.run_log.s": secs("runner.run_log"),
        "runner.load_dataset.s": secs("runner.load_dataset"),
        "runner.record_load.s": secs("runner.record_load"),
        "metrics.emit_reports.s": secs("metrics.emit_reports"),
        "metrics.compute_cell.calls": calls("metrics.compute_cell"),
        "metrics.compute_cell.s": secs("metrics.compute_cell"),
    }
