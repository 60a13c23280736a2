"""Guess-verify-refine loop for one (program, configuration, paradigm) run.

Deletion removes the annotations blamed for failing goals until the program
verifies or the set is exhausted; modification asks the oracle for a full
replacement set until the program verifies or the iteration budget runs out.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import IO

from .acsl import (
    GLOBAL,
    KIND_OF_KEYWORD,
    Annotation,
    ConstructKind,
    FunctionContract,
    Loop,
    SpecificationSet,
)
from .config import (
    Configuration,
    TemplateStore,
    build_generation_prompt,
    build_repair_prompt,
    check_compliance,
)
from .errors import OracleError, UnmappableFailure
from .oracle import Oracle
from .verifier import (
    GoalResult,
    GoalStatus,
    ReportStatus,
    Verifier,
    VerifierReport,
    map_failures_to_annotations,
    tie_break_annotation,
)


class Paradigm(Enum):
    DELETION = "delete"
    MODIFICATION = "modify"


@dataclass(frozen=True)
class RunLimits:
    max_repair_iterations: int = 5
    wall_budget: float = 3600.0  # per-run, seconds

    def __post_init__(self) -> None:
        if self.max_repair_iterations < 1 or self.wall_budget <= 0:
            raise ValueError("run limits must be positive")


class RunOutcome(Enum):
    VERIFIED = "Verified"
    EXHAUSTED = "Exhausted"
    ERRORED = "Errored"


@dataclass(frozen=True)
class RunRecord:
    program_id: str
    config_name: str
    paradigm: Paradigm
    run_index: int
    compliant: bool
    outcome: RunOutcome
    tool_calls: int
    elapsed: float
    iterations: int
    final_spec: SpecificationSet
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "program_id": self.program_id,
            "config": self.config_name,
            "paradigm": self.paradigm.value,
            "run_index": self.run_index,
            "compliant": self.compliant,
            "outcome": self.outcome.value,
            "tool_calls": self.tool_calls,
            "elapsed": round(self.elapsed, 6),
            "iterations": self.iterations,
            "final_spec": [_annotation_to_dict(a) for a in self.final_spec],
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        return cls(
            program_id=data["program_id"],
            config_name=data["config"],
            paradigm=Paradigm(data["paradigm"]),
            run_index=data["run_index"],
            compliant=data["compliant"],
            outcome=RunOutcome(data["outcome"]),
            tool_calls=data["tool_calls"],
            elapsed=data["elapsed"],
            iterations=data["iterations"],
            final_spec=SpecificationSet(
                _annotation_from_dict(a) for a in data["final_spec"]),
            error=data.get("error"),
        )


def _annotation_to_dict(a: Annotation) -> dict:
    if isinstance(a.anchor, FunctionContract):
        anchor = {"kind": "function", "function": a.anchor.function}
    elif isinstance(a.anchor, Loop):
        anchor = {"kind": "loop", "function": a.anchor.function,
                  "ordinal": a.anchor.ordinal}
    else:
        anchor = {"kind": "global"}
    return {"construct": a.kind.keyword, "text": a.text, "anchor": anchor}


def _annotation_from_dict(d: dict) -> Annotation:
    raw = d["anchor"]
    if raw["kind"] == "function":
        anchor = FunctionContract(raw["function"])
    elif raw["kind"] == "loop":
        anchor = Loop(raw["function"], raw["ordinal"])
    else:
        anchor = GLOBAL
    # the enum lookup only raises its ValueError for an unknown construct
    kind = KIND_OF_KEYWORD.get(d["construct"]) or ConstructKind(d["construct"])
    return Annotation(kind, d["text"], anchor)


#: encodes one line of `events.jsonl` or `records.jsonl`, as
#: `json.dumps(obj, sort_keys=True)` does without building an encoder per
#: line; it keeps no state between calls
JSON_LINE = json.JSONEncoder(sort_keys=True)


class RunLogger:
    """Writes one JSON line per verifier call to a stream, for post-hoc
    audit: the run's key, the attempt, status, goal counts, spec size, wall
    time and whether the verifier answered from its cache. A hit's wall
    time is the original call's, so a run's summed `elapsed` is its charged
    verifier time. Without a stream the lines are dropped."""

    def __init__(self, stream: IO[str] | None = None):
        self._stream = stream

    def log(self, run: dict, attempt: int, report: VerifierReport,
            spec_size: int) -> None:
        if self._stream is None:
            return
        proved = sum(1 for g in report.goals if g.status is GoalStatus.PROVED)
        self._stream.write(JSON_LINE.encode({
            **run,
            "attempt": attempt,
            "cache_hit": report.cache_hit,
            "status": report.status.value,
            "goals_proved": proved,
            "goals_total": len(report.goals),
            "spec_size": spec_size,
            "elapsed": round(report.wall_time, 6),
        }) + "\n")

    def close(self) -> None:
        if self._stream is not None:
            self._stream.flush()


# --------------------------------------------------------------------------
# Refinement steps
# --------------------------------------------------------------------------

def refine_delete(spec: SpecificationSet, report: VerifierReport) -> SpecificationSet:
    """Deletion step: drop the annotations blamed for the failure.

    Always removes at least one annotation, so the specification set
    shrinks strictly. When no failing goal maps to an annotation, the blame
    chain's tie-break picks the one to remove. Removing a predicate or logic
    function also removes lemmas/axioms that reference its name, keeping
    the woven result well-formed.
    """
    if not spec:
        raise ValueError("refine_delete requires a non-empty specification set")
    try:
        doomed = map_failures_to_annotations(report, spec)
    except UnmappableFailure:
        doomed = [tie_break_annotation(report, spec)]
    doomed = _close_over_dependents(spec, doomed)
    return spec.without(doomed)


def _close_over_dependents(spec: SpecificationSet,
                           doomed: list[Annotation]) -> list[Annotation]:
    removed_names = [
        name for ann in doomed
        if ann.kind in (ConstructKind.PREDICATE, ConstructKind.LOGIC)
        and (name := ann.declared_name())
    ]
    if not removed_names:
        return doomed
    doomed_keys = {a.key() for a in doomed}
    extra = []
    for ann in spec.annotations:
        if ann.key() in doomed_keys:
            continue
        if ann.kind in (ConstructKind.LEMMA, ConstructKind.AXIOM) and any(
                re.search(rf"\b{re.escape(n)}\b", ann.text) for n in removed_names):
            extra.append(ann)
    return doomed + extra


def refine_modify(program, spec: SpecificationSet, report: VerifierReport,
                  oracle: Oracle, config: Configuration, *,
                  attempt_index: int,
                  templates: TemplateStore | None = None) -> SpecificationSet:
    """Modification step: ask the oracle for a full replacement set given
    the verifier feedback. Oracle errors propagate to the run outcome."""
    prompt = build_repair_prompt(program, spec, report, config, templates)
    response = oracle.repair(program, spec, report, prompt,
                             config_name=config.name, attempt_index=attempt_index)
    return response.extracted


# --------------------------------------------------------------------------
# One complete run
# --------------------------------------------------------------------------

def run_once(program, config: Configuration, paradigm: Paradigm,
             oracle: Oracle, verifier: Verifier,
             limits: RunLimits = RunLimits(), *,
             run_index: int = 1,
             templates: TemplateStore | None = None,
             logger: RunLogger | None = None) -> RunRecord:
    """Execute propose -> verify -> (refine -> verify)* and record the outcome.

    Compliance is judged once, on the initially proposed set. Every verifier
    call is counted, including tool errors and timeouts. Oracle and tool
    errors end the run with an Errored record; they are never raised.
    A verifier call answered from a cache is charged its original wall
    time, in the recorded `elapsed` and against the wall budget, so RT and
    the outcome do not depend on what an earlier run already verified.
    """
    logger = logger or RunLogger()
    run_key = {"program_id": program.id, "config": config.name,
               "paradigm": paradigm.value, "run_index": run_index}
    started = time.perf_counter()
    charged = 0.0  # wall time of the verifier calls answered from a cache
    tool_calls = 0
    iterations = 0

    def spent() -> float:
        return time.perf_counter() - started + charged

    def record(outcome: RunOutcome, spec: SpecificationSet,
               compliant: bool = False, error: str | None = None) -> RunRecord:
        return RunRecord(
            program_id=program.id,
            config_name=config.name,
            paradigm=paradigm,
            run_index=run_index,
            compliant=compliant,
            outcome=outcome,
            tool_calls=tool_calls,
            # rounded as persisted, so reports from memory and from disk agree
            elapsed=round(spent(), 6),
            iterations=iterations,
            final_spec=spec,
            error=error,
        )

    empty = SpecificationSet()
    try:
        prompt = build_generation_prompt(program, config, templates)
        response = oracle.propose(program, prompt, config_name=config.name)
    except OracleError as exc:
        return record(RunOutcome.ERRORED, empty,
                      error=f"{type(exc).__name__}: {exc}")

    spec = response.extracted
    compliant = check_compliance(spec, config).compliant

    while True:
        report = verifier.verify(program, spec)
        tool_calls += 1
        if report.cache_hit:
            charged += report.wall_time
        logger.log(run_key, iterations, report, len(spec))

        if report.status is ReportStatus.VERIFIED:
            return record(RunOutcome.VERIFIED, spec, compliant)
        if report.status is ReportStatus.TOOL_ERROR:
            return record(RunOutcome.ERRORED, spec, compliant,
                          error=f"ToolError: {_head(report.raw_output)}")
        if spent() > limits.wall_budget:
            return record(RunOutcome.EXHAUSTED, spec, compliant,
                          error="wall budget exceeded")

        if paradigm is Paradigm.DELETION:
            spec = refine_delete(spec, _as_failed(report))
            iterations += 1
            if not spec:
                return record(RunOutcome.EXHAUSTED, spec, compliant)
        else:
            if iterations >= limits.max_repair_iterations:
                return record(RunOutcome.EXHAUSTED, spec, compliant)
            try:
                spec = refine_modify(program, spec, _as_failed(report), oracle,
                                     config, attempt_index=iterations + 1,
                                     templates=templates)
            except OracleError as exc:
                return record(RunOutcome.ERRORED, spec, compliant,
                              error=f"{type(exc).__name__}: {exc}")
            iterations += 1


def _as_failed(report: VerifierReport) -> VerifierReport:
    """Present a Timeout report to the refinement step as a failure with a
    synthetic timeout goal, so both paradigms can still make progress."""
    if report.status is ReportStatus.FAILED:
        return report
    goals = report.goals
    if not any(g.status is not GoalStatus.PROVED for g in goals):
        goals = (*goals, GoalResult("wall_clock_budget", GoalStatus.TIMEOUT))
    return replace(report, status=ReportStatus.FAILED, goals=goals)


def _head(text: str, limit: int = 400) -> str:
    text = (text or "").strip()
    return text[:limit]
