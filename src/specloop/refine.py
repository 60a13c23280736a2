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
from .oracle import Oracle, OraclePhase, OracleRequest
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
        if self.max_repair_iterations < 1 or not self.wall_budget > 0:
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
            "final_spec": [_annotation_to_stored(a) for a in self.final_spec],
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict, built: dict | None = None) -> "RunRecord":
        """The record stored as `data`. Records loaded with one `built` dict
        share one `Annotation` per distinct stored annotation. A field of
        the wrong type raises TypeError, and an unknown value ValueError."""
        built = {} if built is None else built
        program_id, config_name = data["program_id"], data["config"]
        run_index, compliant = data["run_index"], data["compliant"]
        tool_calls, iterations = data["tool_calls"], data["iterations"]
        elapsed, error = data["elapsed"], data.get("error")
        if ((type(program_id), type(config_name), type(run_index), type(compliant),
             type(tool_calls), type(iterations)) != _FIELD_TYPES
                or type(elapsed) not in (float, int)
                or not (error is None or type(error) is str)):
            raise TypeError(_misfit(data))
        return cls(
            program_id=program_id,
            config_name=config_name,
            paradigm=Paradigm(data["paradigm"]),
            run_index=run_index,
            compliant=compliant,
            outcome=RunOutcome(data["outcome"]),
            tool_calls=tool_calls,
            elapsed=elapsed,
            iterations=iterations,
            final_spec=SpecificationSet(
                _annotations_from_stored(data["final_spec"], built)),
            error=error,
        )


#: the type each of these stored fields must have; `elapsed` is a number
#: and `error` a string or null
_FIELDS = ("program_id", "config", "run_index", "compliant", "tool_calls",
           "iterations")
_FIELD_TYPES = (str, str, int, bool, int, int)


def _misfit(data: dict) -> str:
    """What `from_dict` rejects in the types of `data`'s fields."""
    for name, wanted in zip(_FIELDS, _FIELD_TYPES):
        if type(data[name]) is not wanted:
            return f"{name} {data[name]!r} is not of type {wanted.__name__}"
    return (f"elapsed {data['elapsed']!r} is not a number, or error "
            f"{data.get('error')!r} is not a string")


# A stored annotation is a JSON array: [construct, text] at file scope,
# [construct, text, function] in a function contract and [construct, text,
# function, ordinal] on a loop. Lines written before this form hold
# {"construct", "text", "anchor": {"kind", "function", "ordinal"}} objects.

def _annotation_to_stored(a: Annotation) -> list:
    """The JSON array `records.jsonl` stores for `a`."""
    anchor = a.anchor
    if isinstance(anchor, Loop):
        return [a.kind.keyword, a.text, anchor.function, anchor.ordinal]
    if isinstance(anchor, FunctionContract):
        return [a.kind.keyword, a.text, anchor.function]
    return [a.kind.keyword, a.text]


def _annotations_from_stored(items: list, built: dict) -> list[Annotation]:
    """The annotations stored as `items`: for each, the one `built` holds
    under the same stored fields, else a new one, which `built` then keeps.
    An item of the wrong shape raises TypeError, and an unknown construct
    ValueError."""
    annotations = []
    for item in items:
        key = tuple(item) if type(item) is list else _from_legacy(item)
        annotation = built.get(key)
        # an ordinal stored as true or 1.0 equals a kept key's ordinal 1
        if annotation is None or len(key) == 4 and type(key[3]) is not int:
            annotation = built[key] = _annotation_of(key)
        annotations.append(annotation)
    return annotations


def _annotation_of(key: tuple) -> Annotation:
    """A new annotation from the fields of one stored array, once their
    types are checked."""
    if not 2 <= len(key) <= 4:
        raise TypeError(f"a stored annotation holds 2 to 4 items, not {len(key)}")
    construct, text, *place = key
    if type(text) is not str:
        raise TypeError(f"annotation text {text!r} is not a string")
    if place and type(place[0]) is not str:
        raise TypeError(f"anchor function {place[0]!r} is not a string")
    if len(place) == 2 and type(place[1]) is not int:
        raise TypeError(f"loop ordinal {place[1]!r} is not an int")
    anchor = (Loop(*place) if len(place) == 2 else
              FunctionContract(*place) if place else GLOBAL)
    # the enum lookup only raises its ValueError for an unknown construct
    kind = KIND_OF_KEYWORD.get(construct) or ConstructKind(construct)
    return Annotation(kind, text, anchor)


def _from_legacy(item: dict) -> tuple:
    """The array form, as a tuple, of an annotation stored as an object."""
    construct, text, anchor = item["construct"], item["text"], item["anchor"]
    kind = anchor["kind"]
    if kind == "function":
        return construct, text, anchor["function"]
    if kind == "loop":
        return construct, text, anchor["function"], anchor["ordinal"]
    if kind == "global":
        return construct, text
    raise ValueError(f"unknown anchor kind {kind!r}")


#: encodes one line of `records.jsonl`, as `json.dumps(obj, sort_keys=True)`
#: does without building an encoder per line; it keeps no state between calls
JSON_LINE = json.JSONEncoder(sort_keys=True)


class RunLogger:
    """Collects one entry per verifier call of a run, for its record line:
    the attempt, status, goal counts, spec size, wall time and whether the
    verifier answered from its cache. A hit's wall time is the original
    call's, so a run's summed `elapsed` is its charged verifier time."""

    def __init__(self) -> None:
        self._calls: list[dict] = []

    def log(self, attempt: int, report: VerifierReport, spec_size: int) -> None:
        proved = sum(1 for g in report.goals if g.status is GoalStatus.PROVED)
        self._calls.append({
            "attempt": attempt,
            "cache_hit": report.cache_hit,
            "status": report.status.value,
            "goals_proved": proved,
            "goals_total": len(report.goals),
            "spec_size": spec_size,
            "elapsed": round(report.wall_time, 6),
        })

    def close(self) -> list[dict]:
        """The calls logged so far, in call order."""
        return self._calls


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
    doomed_set = set(doomed)
    extra = []
    for ann in spec.annotations:
        if ann in doomed_set:
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
    return oracle.ask(OracleRequest(OraclePhase.REPAIR, program.id, config.name,
                                    attempt_index, prompt)).extracted


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
        response = oracle.ask(OracleRequest(OraclePhase.GENERATE, program.id,
                                            config.name, 0, prompt))
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
        logger.log(iterations, report, len(spec))

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
