"""Verifier gateway: run a deductive verifier on a woven program and map
its per-goal results back to annotations.

Two adapters ship: a Frama-C/WP subprocess adapter and a rule-based mock
for tests. Both produce the same VerifierReport shape.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import subprocess
import tempfile
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .acsl import (
    Annotation,
    ConstructKind,
    FunctionContract,
    Global,
    Loop,
    SpecificationSet,
    parse_annotations,
    weave,
)
from .errors import AcslError, UnmappableFailure, VerifierNotInstalled


class GoalStatus(Enum):
    PROVED = "Proved"
    UNKNOWN = "Unknown"
    TIMEOUT = "Timeout"


class ReportStatus(Enum):
    VERIFIED = "Verified"
    FAILED = "Failed"
    TOOL_ERROR = "ToolError"
    TIMEOUT = "Timeout"


@dataclass(frozen=True, slots=True)
class GoalResult:
    goal_name: str
    status: GoalStatus
    source_annotation: Annotation | None = None
    source_line: int | None = None


@dataclass(frozen=True)
class VerifierReport:
    status: ReportStatus
    goals: tuple[GoalResult, ...]
    raw_output: str = ""
    wall_time: float = 0.0
    #: answered from the adapter's result cache; wall_time is then the
    #: time of the call that ran the tool
    cache_hit: bool = False

    def __post_init__(self) -> None:
        goals = tuple(self.goals)
        object.__setattr__(self, "goals", goals)
        unproved = any(g.status is not GoalStatus.PROVED for g in goals)
        if self.status is ReportStatus.VERIFIED and (unproved or not goals):
            raise ValueError("Verified report requires non-empty, all-proved goals")
        if self.status is ReportStatus.FAILED and not unproved:
            raise ValueError("Failed report requires at least one unproved goal")

    def failing_goals(self) -> tuple[GoalResult, ...]:
        return tuple(g for g in self.goals if g.status is not GoalStatus.PROVED)


def report_from_goals(goals: Sequence[GoalResult], raw_output: str = "",
                      wall_time: float = 0.0) -> VerifierReport:
    """Classify a goal list into a Verified/Failed/ToolError report.

    Zero goals means the specification generated no proof obligation at all
    (e.g. axioms only), which cannot establish anything: reported as a tool
    error rather than a vacuous success.
    """
    goals = tuple(goals)
    if not goals:
        return VerifierReport(ReportStatus.TOOL_ERROR, (),
                              raw_output or "verifier produced no proof goals",
                              wall_time)
    status = (ReportStatus.FAILED
              if any(g.status is not GoalStatus.PROVED for g in goals)
              else ReportStatus.VERIFIED)
    return VerifierReport(status, goals, raw_output, wall_time)


class Verifier(ABC):
    """Adapter interface: one call = one external verifier invocation."""

    #: calls worth running at once; in-process work holds the GIL
    concurrency = 1

    @abstractmethod
    def verify(self, program, spec: SpecificationSet) -> VerifierReport:
        ...


# --------------------------------------------------------------------------
# Canonical specification key: nothing in the package calls it; the
# benchmark patches it by name for `verifier.spec_key.s`, so it goes with
# that metric in a benchmark change
# --------------------------------------------------------------------------

def _anchor_sort_key(annotation: Annotation) -> tuple:
    a = annotation.anchor
    if isinstance(a, Global):
        return (0, "", 0)
    if isinstance(a, FunctionContract):
        return (1, a.function, 0)
    return (2, a.function, a.ordinal)


def spec_key(spec: SpecificationSet) -> str:
    """SHA-256 over the canonicalized annotation list (sorted by kind,
    anchor, text). Stable across annotation ordering and spans."""
    rows = sorted(
        (ann.kind.keyword, *_anchor_sort_key(ann), ann.text)
        for ann in spec
    )
    payload = json.dumps(rows, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


# --------------------------------------------------------------------------
# Failure mapping
# --------------------------------------------------------------------------

_KIND_HINTS = (
    (("lemma",), ConstructKind.LEMMA),
    (("loop_invariant", "loop invariant"), ConstructKind.LOOP_INVARIANT),
    (("loop_assigns", "loop assigns"), ConstructKind.LOOP_ASSIGNS),
    (("loop_variant", "loop variant", "variant", "decrease", "positive"),
     ConstructKind.LOOP_VARIANT),
    (("loop_inv",), ConstructKind.LOOP_INVARIANT),
    (("assigns",), ConstructKind.ASSIGNS),
    (("ensures", "post"), ConstructKind.ENSURES),
    (("requires", "pre"), ConstructKind.REQUIRES),
    (("behavior",), ConstructKind.BEHAVIOR),
)
_GOAL_PLACE = re.compile(r"\(file [^)]*\)|\sin\s+'[^']*'\s*$")


def _goal_kind_hint(goal_name: str) -> ConstructKind | None:
    """Clause kind named by the goal's own words (not its `(file …)` or
    `in '<function>'` parts), matching each needle only as a whole token."""
    words = _GOAL_PLACE.sub(" ", goal_name.lower())

    def has(needles: Sequence[str]) -> bool:
        return re.search(rf"(?<![a-z0-9])(?:{'|'.join(needles)})(?![a-z0-9])",
                         words) is not None

    # a runtime-error goal guards the code, not a clause; any clause word in
    # its name is WP's copy of the function name
    if has(("rte",)):
        return None
    for needles, kind in _KIND_HINTS:
        if has(needles):
            return kind
    return None


def map_failures_to_annotations(report: VerifierReport,
                                spec: SpecificationSet) -> list[Annotation]:
    """Resolve a failed report's unproved goals to the annotations that
    produced them (the erroneous subset of the specification).

    The blame chain, per goal: explicit linkage from the adapter, declared
    name embedded in the goal name, source line within an annotation's span
    in the spec's own text, then clause-kind category (most recent
    annotation of that kind not known to have proved). Adapters whose
    verifier reads another file (Frama-C reads the woven program) run the
    link steps against that file's spans themselves and pass only linked
    goals' lines on. Raises UnmappableFailure when no failing goal resolves
    at all; `tie_break_annotation` is the chain's last step.
    """
    if report.status is not ReportStatus.FAILED:
        raise ValueError("map_failures_to_annotations requires a Failed report")

    link = _linker(spec, spec)
    proved = _proved(report)
    resolved: set[Annotation] = set()
    for goal in report.failing_goals():
        ann = link(goal)
        if ann is None and (kind := _goal_kind_hint(goal.goal_name)) is not None:
            candidates = [a for a in spec.annotations
                          if a.kind is kind and a not in proved]
            ann = candidates[-1] if candidates else None
        if ann is not None:
            resolved.add(ann)

    if not resolved:
        raise UnmappableFailure(
            "no failing goal could be mapped to an annotation: "
            + ", ".join(g.goal_name for g in report.failing_goals()))
    return [a for a in spec.annotations if a in resolved]


def tie_break_annotation(report: VerifierReport,
                         spec: SpecificationSet) -> Annotation:
    """Last step of the blame chain (Houdini's "drop an unproved candidate"):
    the latest annotation not known to have proved, preferring a failing
    goal's kind; the last annotation only when every one proved."""
    proved = _proved(report)
    unproved = [a for a in spec.annotations if a not in proved]
    failing_kinds = {_goal_kind_hint(g.goal_name) for g in report.failing_goals()}
    return next((a for a in reversed(unproved) if a.kind in failing_kinds),
                (unproved or spec.annotations)[-1])


def _proved(report: VerifierReport) -> set[Annotation]:
    return {g.source_annotation for g in report.goals
            if g.status is GoalStatus.PROVED and g.source_annotation is not None}


def _linker(spec: SpecificationSet, read: SpecificationSet):
    """The link steps of the blame chain over `spec`: explicit linkage,
    declared name, then the goal's source line within the span an
    annotation has in `read`, the parsed text the verifier read."""
    # an equal annotation of another set links to `spec`'s own object
    own = {a: a for a in spec.annotations}
    # a declared name fits a goal whose own words (not its `(file …)` or
    # `in '<function>'` parts) hold it as a whole word, and a lemma's name
    # also fits WP's `typed_lemma_<name>`; of several names that fit, the
    # longest wins
    named = []
    for a in spec.annotations:
        if name := a.declared_name():
            lemma = "(?:typed_lemma_)?" if a.kind is ConstructKind.LEMMA else ""
            named.append((len(name), rf"\b{lemma}{re.escape(name)}\b", a))
    named.sort(key=lambda item: -item[0])
    read_spans = {a: a.span for a in read.annotations}
    spans = [(read_spans[a], a) for a in spec.annotations if a in read_spans]

    def link(goal: GoalResult) -> Annotation | None:
        if goal.source_annotation is not None:
            hit = own.get(goal.source_annotation)
            if hit is not None:
                return hit
        words = _GOAL_PLACE.sub(" ", goal.goal_name)
        for _, pattern, ann in named:
            if re.search(pattern, words):
                return ann
        if goal.source_line is not None:
            for span, ann in spans:
                if span.contains_line(goal.source_line):
                    return ann
        return None
    return link


# --------------------------------------------------------------------------
# Mock adapter
# --------------------------------------------------------------------------

#: each kind's part of a mock goal name
_MOCK_SLUGS = {kind: kind.keyword.replace(" ", "_") for kind in ConstructKind}


def _mock_scope(anchor) -> str:
    if isinstance(anchor, FunctionContract):
        return anchor.function
    if isinstance(anchor, Loop):
        return f"{anchor.function}_loop{anchor.ordinal}"
    return "global"


class MockVerifier(Verifier):
    """Deterministic stand-in for the external verifier, one rule: one goal
    per non-axiom annotation, failing iff an always-failing rule is a
    substring of the annotation text (the whole text included). Axioms are
    admitted and generate no goal. A goal is named
    `typed_<kind>_<declared name>`, or else
    `typed_<scope>_<kind>_<ordinal in the spec>`. It holds no mutable state.
    """

    def __init__(self, always_failing: Iterable[str] = (),
                 wall_time: float = 0.0):
        if not 0 <= wall_time < float("inf"):
            raise ValueError(f"wall_time must be a finite number >= 0, not {wall_time!r}")
        self._rules = tuple(always_failing)
        self._wall_time = wall_time

    @classmethod
    def from_file(cls, path: str | Path) -> "MockVerifier":
        """The verifier a JSON rule file describes. An unknown or misshapen
        field raises `ValueError` naming it."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"{path}: mock fixtures must be a JSON object")
        if unknown := sorted(data.keys() - {"always_failing", "wall_time"}):
            raise ValueError(f"{path}: unknown mock fixtures field {unknown[0]!r}")
        rules, wall_time = data.get("always_failing", []), data.get("wall_time", 0.0)
        if not isinstance(rules, list) or not all(isinstance(r, str) for r in rules):
            raise ValueError(f"{path}: always_failing must be a list of strings")
        if type(wall_time) not in (int, float):
            raise ValueError(f"{path}: wall_time must be a number")
        try:
            return cls(rules, wall_time)
        except ValueError as exc:   # a number out of range
            raise ValueError(f"{path}: {exc}") from None

    def verify(self, program, spec: SpecificationSet) -> VerifierReport:
        rules = self._rules
        goals = []
        for ordinal, ann in enumerate(spec.annotations, start=1):
            kind = ann.kind
            if kind is ConstructKind.AXIOM:
                continue
            status = GoalStatus.PROVED
            for rule in rules:
                if rule in ann.text:
                    status = GoalStatus.UNKNOWN
                    break
            name = ann.declared_name()
            goals.append(GoalResult(
                f"typed_{_MOCK_SLUGS[kind]}_{name}" if name else
                f"typed_{_mock_scope(ann.anchor)}_{_MOCK_SLUGS[kind]}_{ordinal}",
                status, ann, ann.span.start_line))
        return report_from_goals(goals, raw_output="mock verifier (rule mode)",
                                 wall_time=self._wall_time)


# --------------------------------------------------------------------------
# Frama-C/WP adapter
# --------------------------------------------------------------------------

@dataclass
class FramaCSettings:
    executable: str = "frama-c"
    prover: str = "alt-ergo"
    prover_timeout: int = 10     # per-goal prover budget, seconds
    wall_budget: float = 120.0   # per-invocation wall clock, seconds, finite
    max_processes: int = 4       # tool runs at once, at least 1
    extra_args: tuple[str, ...] = ()


# `[wp] [Valid] typed_f_ensures (Qed)` and friends
_WP_BRACKET = re.compile(
    r"\[wp\]\s+\[(Valid|Unsuccess|Timeout|Unknown|Failed|Stuck)\]\s+(\S+)")
# `[wp] [Alt-Ergo] Goal typed_f_ensures : Unsuccess (...)`
_WP_PROVER = re.compile(
    r"\[wp\]\s+\[[^\]]+\]\s+Goal\s+(\S+)\s*:\s*(Valid|Unsuccess|Timeout|Unknown|Failed)")
# `Goal Post-condition (file woven.c, line 12) in 'func':`
_WP_GOAL_HEADER = re.compile(r"^\s*Goal\s+(.+?):\s*$")
_WP_GOAL_LINE = re.compile(r"\(file [^,)]+,\s*line\s+(\d+)\)")
_WP_PROVE_TRUE = re.compile(r"Prove:\s*true\.")
_WP_PROVER_RETURNS = re.compile(r"Prover\s+\S+\s+returns\s+(\w+)")
_WP_SUMMARY = re.compile(r"Proved goals:\s*(\d+)\s*/\s*(\d+)")

_STATUS_WORDS = {
    "Valid": GoalStatus.PROVED,
    "Timeout": GoalStatus.TIMEOUT,
    "Unsuccess": GoalStatus.UNKNOWN,
    "Unknown": GoalStatus.UNKNOWN,
    "Failed": GoalStatus.UNKNOWN,
    "Stuck": GoalStatus.UNKNOWN,
}


def parse_wp_output(output: str) -> tuple[list[GoalResult], tuple[int, int] | None]:
    """Extract per-goal results and the proved/total summary from WP console
    output. Handles both the bracketed per-goal lines and the goal-block
    format; a goal reported by several provers is proved if any prover
    validated it."""
    best: dict[str, GoalStatus] = {}
    lines_by_goal: dict[str, int | None] = {}

    def record(name: str, status: GoalStatus, line: int | None = None) -> None:
        prev = best.get(name)
        if prev is None or _RANK[status] > _RANK[prev]:
            best[name] = status
        if lines_by_goal.get(name) is None:
            lines_by_goal[name] = line

    for m in _WP_BRACKET.finditer(output):
        record(m.group(2), _STATUS_WORDS[m.group(1)])
    for m in _WP_PROVER.finditer(output):
        record(m.group(1), _STATUS_WORDS[m.group(2)])

    # a goal block runs from its header to the next one; `Prove: true.` or a
    # prover returning Valid proves it and ends its reading, else the last
    # prover word wins
    name = status = line = None   # the block being read
    for text in output.splitlines():
        if header := _WP_GOAL_HEADER.match(text):
            if name is not None:
                record(name, status, line)
            name = header.group(1).strip()
            line_m = _WP_GOAL_LINE.search(name)
            line = int(line_m.group(1)) if line_m else None
            status = GoalStatus.UNKNOWN
        elif name is not None and status is not GoalStatus.PROVED:
            if _WP_PROVE_TRUE.search(text):
                status = GoalStatus.PROVED
            elif pm := _WP_PROVER_RETURNS.search(text):
                status = _STATUS_WORDS.get(pm.group(1), GoalStatus.UNKNOWN)
    if name is not None:
        record(name, status, line)

    summaries = _WP_SUMMARY.findall(output)
    summary = (int(summaries[-1][0]), int(summaries[-1][1])) if summaries else None

    goals = [GoalResult(name, status, source_line=lines_by_goal.get(name))
             for name, status in best.items()]
    return goals, summary


#: a goal reported several times keeps its best status
_RANK = {GoalStatus.UNKNOWN: 0, GoalStatus.TIMEOUT: 1, GoalStatus.PROVED: 2}


class FramaCVerifier(Verifier):
    """Runs Frama-C with the WP plugin on a temporary woven file.

    Each invocation uses an isolated temporary directory; concurrent
    invocations are capped by a process semaphore. A run over the wall
    budget is killed with every process it started. A run that exits with a
    non-zero status or dies by a signal is a ToolError, whatever it printed.
    The tool's output is read as bytes and decoded with replacement, so no
    output can raise.

    The tool runs at most once per distinct input for the life of the
    instance: the tool output is kept under a hash of the woven program and
    the settings that reach the command line, and a repeat is answered from
    it (`cache_hit`). Results that a retry could change are never kept: a
    wall-budget Timeout, a ToolError, and a report holding a goal whose
    prover timed out. Two concurrent calls on one new input both run.
    """

    def __init__(self, settings: FramaCSettings | None = None):
        self.settings = settings or FramaCSettings()
        if not (self.settings.max_processes >= 1
                and 0 < self.settings.wall_budget < float("inf")):
            raise ValueError("verifier processes must be at least 1, and the "
                             "wall budget finite and above 0")
        self._slots = threading.Semaphore(self.settings.max_processes)
        self.concurrency = min(self.settings.max_processes, os.cpu_count() or 1)
        # input hash -> (tool output, woven-file spans, wall time); a single
        # get or set of a dict is atomic, and a lost race only runs twice
        self._results: dict[str, tuple[str, SpecificationSet, float]] = {}

    def verify(self, program, spec: SpecificationSet) -> VerifierReport:
        started = time.perf_counter()
        try:
            woven = weave(program.source, spec)
        except AcslError as exc:
            return VerifierReport(ReportStatus.TOOL_ERROR, (),
                                  f"weave failed: {exc}",
                                  time.perf_counter() - started)
        s = self.settings
        key = hashlib.sha256(json.dumps(
            [woven, s.executable, s.prover, s.prover_timeout, list(s.extra_args)]
        ).encode("utf-8")).hexdigest()
        cached = self._results.get(key)
        if cached is not None:
            return replace(_wp_report(spec, *cached), cache_hit=True)
        with self._slots, tempfile.TemporaryDirectory(prefix="specloop-wp-") as tmp:
            started = time.perf_counter()  # the tool's time, not the wait for a slot
            path = Path(tmp) / "woven.c"
            path.write_text(woven, encoding="utf-8")
            try:
                # a program comment or a spec text the parser rejects
                woven_spans = parse_annotations(woven, file=str(path))
            except AcslError as exc:
                return VerifierReport(ReportStatus.TOOL_ERROR, (),
                                      f"woven program does not parse: {exc}",
                                      time.perf_counter() - started)
            cmd = [
                self.settings.executable, "-wp",
                "-wp-prover", self.settings.prover,
                "-wp-timeout", str(self.settings.prover_timeout),
                *self.settings.extra_args,
                str(path),
            ]
            try:
                # a session of its own, so a timeout can kill the prover
                # processes WP starts along with it
                proc = subprocess.Popen(
                    cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    cwd=tmp, start_new_session=True,
                )
            except FileNotFoundError as exc:
                raise VerifierNotInstalled(
                    f"cannot execute {self.settings.executable!r}") from exc
            timed_out = False
            with proc:
                try:
                    out, err = proc.communicate(timeout=self.settings.wall_budget)
                except subprocess.TimeoutExpired as exc:
                    timed_out, out, err = True, exc.stdout, exc.stderr
                finally:
                    if proc.returncode is None:
                        # not reaped yet, so the group id is still ours
                        os.killpg(proc.pid, signal.SIGKILL)
                        proc.wait()
        wall = time.perf_counter() - started
        stdout, stderr = ((b or b"").decode("utf-8", "replace") for b in (out, err))
        if timed_out:
            return VerifierReport(ReportStatus.TIMEOUT, (), stdout, wall)
        if proc.returncode:
            # a crash or a kill after a partial goal list proves nothing
            ended = subprocess.CalledProcessError(proc.returncode, s.executable)
            return VerifierReport(ReportStatus.TOOL_ERROR, (),
                                  f"{ended} stderr: {stderr[:2000]}", wall)
        result = (stdout + ("\n" + stderr if stderr else ""), woven_spans, wall)
        report = _wp_report(spec, *result)
        if report.status is not ReportStatus.TOOL_ERROR and all(
                g.status is not GoalStatus.TIMEOUT for g in report.goals):
            self._results[key] = result
        return report


def _wp_report(spec: SpecificationSet, output: str,
               woven_spans: SpecificationSet, wall: float) -> VerifierReport:
    """The report of one WP run on `spec` woven: goals parsed from the
    output and linked to `spec`'s own annotations through the woven file's
    spans.

    A `Proved goals: p / n` summary also counts the goals no parsed line
    names: each proved one the parsed goals lack becomes a `goal_<k>`, each
    unproved one an Unknown `unidentified_goal_<k>`. A summary with p > n
    is not WP's, and the run is a ToolError."""
    goals, summary = parse_wp_output(output)
    link = _linker(spec, woven_spans)
    linked = []
    for goal in goals:
        # a woven-file line must not reach the spec-span line step, so
        # only a linked goal keeps it
        ann = link(goal)
        line = goal.source_line if ann is not None else None
        linked.append(GoalResult(goal.goal_name, goal.status, ann, line))
    if summary is not None:
        proved, total = summary
        if proved > total:
            return VerifierReport(ReportStatus.TOOL_ERROR, (), output, wall)
        parsed_proved = sum(g.status is GoalStatus.PROVED for g in linked)
        parsed_unproved = len(linked) - parsed_proved
        linked += [GoalResult(f"goal_{k}", GoalStatus.PROVED)
                   for k in range(1, proved - parsed_proved + 1)]
        linked += [GoalResult(f"unidentified_goal_{k}", GoalStatus.UNKNOWN)
                   for k in range(1, total - proved - parsed_unproved + 1)]
    return report_from_goals(linked, raw_output=output, wall_time=wall)
