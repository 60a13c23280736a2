from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specloop import (
    Annotation,
    ConstructKind,
    ExperimentPlan,
    FramaCSettings,
    FramaCVerifier,
    FunctionContract,
    GoalResult,
    GoalStatus,
    Loop,
    MockVerifier,
    Paradigm,
    ReportStatus,
    RunLimits,
    RunRecord,
    ScriptedOracle,
    SpecificationSet,
    VerifierReport,
    canonical_config,
    refine_delete,
    run_experiment,
    run_once,
    weave,
)
from specloop.refine import RunOutcome

import strategies
import toyworld

K = ConstructKind


class FakeProgram:
    def __init__(self, id="prog", source=None):
        self.id = id
        self.source = source or (
            "int f(int x) {\n"
            "  int i = 0;\n"
            "  while (i < x) { i++; }\n"
            "  return i;\n"
            "}\n"
        )


def spec_completion(program, spec):
    return f"```c\n{weave(program.source, spec)}\n```"


def make_spec(*texts_with_kinds):
    fn = FunctionContract("f")
    loop = Loop("f", 1)
    anns = []
    for kind, text in texts_with_kinds:
        if kind in (K.REQUIRES, K.ENSURES, K.ASSIGNS, K.BEHAVIOR):
            anns.append(Annotation(kind, text, fn))
        elif kind in (K.LOOP_INVARIANT, K.LOOP_VARIANT, K.LOOP_ASSIGNS):
            anns.append(Annotation(kind, text, loop))
        else:
            anns.append(Annotation(kind, text))
    return SpecificationSet(anns)


GOOD = [
    (K.REQUIRES, "requires x >= 0;"),
    (K.ENSURES, "ensures \\result >= 0;"),
    (K.LOOP_INVARIANT, "loop invariant i >= 0;"),
    (K.ASSIGNS, "assigns \\nothing;"),
]


# --------------------------------------------------------------------------
# refine_delete
# --------------------------------------------------------------------------

def test_delete_removes_blamed_annotation():
    spec = make_spec(*GOOD)
    a, b = spec.annotations[0], spec.annotations[1]
    report = VerifierReport(ReportStatus.FAILED, (
        GoalResult("g", GoalStatus.UNKNOWN, source_annotation=b),
    ))
    remaining = refine_delete(spec, report)
    assert len(remaining) == 3
    assert b.key() not in remaining.keys()
    assert a.key() in remaining.keys()


def test_delete_everything_yields_empty_set():
    spec = make_spec(*GOOD)
    report = VerifierReport(ReportStatus.FAILED, tuple(
        GoalResult(f"g{i}", GoalStatus.UNKNOWN, source_annotation=a)
        for i, a in enumerate(spec.annotations)))
    assert len(refine_delete(spec, report)) == 0


def test_delete_requires_nonempty_spec():
    report = VerifierReport(ReportStatus.FAILED,
                            (GoalResult("g", GoalStatus.UNKNOWN),))
    with pytest.raises(ValueError):
        refine_delete(SpecificationSet(), report)


def test_delete_two_failing_goals_in_one_step():
    lemma = (K.LEMMA, "lemma shaky: \\forall integer n; n < n + 1;")
    bad_inv = (K.LOOP_INVARIANT, "loop invariant i == 424242;")
    spec = make_spec(*GOOD, lemma, bad_inv)
    failing = [a for a in spec.annotations
               if a.kind in (K.LEMMA,) or "424242" in a.text]
    report = VerifierReport(ReportStatus.FAILED, tuple(
        GoalResult(f"g{i}", GoalStatus.UNKNOWN, source_annotation=a)
        for i, a in enumerate(failing)))
    remaining = refine_delete(spec, report)
    assert len(remaining) == len(spec) - 2
    # brute-force simulation: dropping exactly the failing pair
    expected = spec.without(failing)
    assert remaining == expected


def test_delete_cascades_from_logic_to_dependent_lemma_and_axiom():
    logic = Annotation(K.LOGIC, "logic integer model_v(integer x) = x;")
    lemma = Annotation(K.LEMMA, "lemma uses_model: model_v(0) == 0;")
    axiom = Annotation(K.AXIOM, "axiom fixes_model: model_v(1) == 1;")
    other = Annotation(K.LEMMA, "lemma standalone: 1 == 1;")
    spec = SpecificationSet([logic, lemma, axiom, other])
    report = VerifierReport(ReportStatus.FAILED, (
        GoalResult("typed_logic_def", GoalStatus.UNKNOWN, source_annotation=logic),
    ))
    remaining = refine_delete(spec, report)
    assert remaining == SpecificationSet([other])


def test_delete_tie_break_on_unmappable_failure():
    spec = make_spec(*GOOD)
    report = VerifierReport(ReportStatus.FAILED, (
        GoalResult("completely_opaque", GoalStatus.UNKNOWN),
    ))
    remaining = refine_delete(spec, report)
    assert len(remaining) == len(spec) - 1
    # the last annotation is the tie-break victim
    assert spec.annotations[-1].key() not in remaining.keys()


def test_delete_tie_break_keeps_an_annotation_that_proved():
    spec = make_spec((K.REQUIRES, "requires x >= 0;"),
                     (K.ENSURES, "ensures \\result >= 0;"))
    requires, ensures = spec.annotations
    report = VerifierReport(ReportStatus.FAILED, (
        GoalResult("typed_f_requires", GoalStatus.PROVED,
                   source_annotation=requires),
        GoalResult("typed_f_call_requires_2", GoalStatus.UNKNOWN),
    ))
    assert refine_delete(spec, report) == SpecificationSet([requires])


# --------------------------------------------------------------------------
# run_once, deletion paradigm
# --------------------------------------------------------------------------

def oracle_returning(program, spec):
    return ScriptedOracle(lambda request: spec_completion(program, spec))


def test_immediate_verification_base_case():
    program = FakeProgram()
    spec = make_spec(*GOOD)
    oracle = oracle_returning(program, spec)
    records = [
        run_once(program, canonical_config("CB"), paradigm, oracle,
                 MockVerifier(), RunLimits())
        for paradigm in (Paradigm.DELETION, Paradigm.MODIFICATION)
    ]
    for record in records:
        assert record.outcome is RunOutcome.VERIFIED
        assert record.tool_calls == 1
        assert record.iterations == 0
        assert record.compliant
        assert record.final_spec == spec
    # paradigm isolation: identical apart from the paradigm tag and timing
    d = records[0].to_dict()
    m = records[1].to_dict()
    d.pop("elapsed"), m.pop("elapsed")
    assert d.pop("paradigm") == "delete" and m.pop("paradigm") == "modify"
    assert d == m


def test_deletion_one_bad_annotation_two_calls():
    # four initial annotations, one of them failing
    program = FakeProgram()
    good = GOOD[:3]
    spec = make_spec(*good, (K.ENSURES, toyworld.BAD_ENSURES))
    assert len(spec) == 4
    oracle = oracle_returning(program, spec)
    verifier = MockVerifier(always_failing=[toyworld.BAD_ENSURES])
    record = run_once(program, canonical_config("CB"), Paradigm.DELETION,
                      oracle, verifier, RunLimits())
    assert record.outcome is RunOutcome.VERIFIED
    assert record.tool_calls == 2
    assert record.iterations == 1
    assert record.final_spec == make_spec(*good)


def test_deletion_exhausts_when_everything_fails():
    program = FakeProgram()
    spec = make_spec((K.REQUIRES, "requires x >= 424242;"),
                     (K.ENSURES, "ensures \\result == 424242;"))
    oracle = oracle_returning(program, spec)
    verifier = MockVerifier(always_failing=["424242"])
    record = run_once(program, canonical_config("CB"), Paradigm.DELETION,
                      oracle, verifier, RunLimits())
    assert record.outcome is RunOutcome.EXHAUSTED
    assert len(record.final_spec) == 0
    assert record.tool_calls <= len(spec) + 1


def test_deletion_compliance_is_judged_on_initial_proposal():
    # initial set is CV-compliant only through its lemma; the lemma fails
    # and is deleted, yet the record stays compliant
    program = FakeProgram()
    spec = make_spec(*GOOD, (K.LEMMA, toyworld.BAD_LEMMA),
                     (K.PREDICATE, "predicate fine(integer v) = v == v;"))
    oracle = oracle_returning(program, spec)
    verifier = MockVerifier(always_failing=[toyworld.BAD_LEMMA])
    record = run_once(program, canonical_config("CV"), Paradigm.DELETION,
                      oracle, verifier, RunLimits())
    assert record.outcome is RunOutcome.VERIFIED
    assert record.compliant
    assert all(a.text != toyworld.BAD_LEMMA for a in record.final_spec)


def test_oracle_error_yields_errored_record():
    program = FakeProgram()
    oracle = ScriptedOracle(lambda request: "prose only, no annotations")
    record = run_once(program, canonical_config("CB"), Paradigm.DELETION,
                      oracle, MockVerifier(), RunLimits())
    assert record.outcome is RunOutcome.ERRORED
    assert record.tool_calls == 0
    assert not record.compliant
    assert record.error


# completions LLMs write that the parser rejects
UNPARSEABLE = {
    "assert": "```c\n/*@ requires x >= 0; */\nint f(int x) {\n"
              "  /*@ assert x >= 0; */\n  return x;\n}\n```",
    "decreases": "```c\n/*@ requires x >= 0;\n    decreases x; */\n"
                 "int f(int x) {\n  return x;\n}\n```",
    "missing_semicolon": "```c\n/*@ requires x >= 0 */\n"
                         "int f(int x) {\n  return x;\n}\n```",
    "unbalanced_brace": "```c\n/*@ requires x >= 0; */\nint f(int x) {\n"
                        "  while (x > 0) { x--;\n  return x;\n}\n```",
    "comment_closer": "```c\n//@ ensures \\result >= 0 */ ;\n"
                      "int f(int x) {\n  return x;\n}\n```",
    "axiomatic_header": "```c\n/*@ axiomatic A requires x > 0; { axiom a: \\true; } */\n"
                        "int f(int x) {\n  return x;\n}\n```",
}


@pytest.mark.parametrize("name", sorted(UNPARSEABLE))
def test_unparseable_proposal_yields_errored_record(name):
    oracle = ScriptedOracle(lambda request: UNPARSEABLE[name])
    record = run_once(FakeProgram(), canonical_config("CB"), Paradigm.DELETION,
                      oracle, MockVerifier(), RunLimits())
    assert record.outcome is RunOutcome.ERRORED
    assert record.tool_calls == 0
    assert record.error.startswith("UnparseableCompletion: ")


@pytest.mark.parametrize("name", sorted(UNPARSEABLE))
def test_unparseable_repair_yields_errored_record(name):
    program = FakeProgram()
    first = spec_completion(program, make_spec(*GOOD[:3], (K.ENSURES, toyworld.BAD_ENSURES)))
    oracle = ScriptedOracle(lambda request: (
        first if request.attempt_index == 0 else UNPARSEABLE[name]))
    verifier = MockVerifier(always_failing=[toyworld.BAD_ENSURES])
    record = run_once(program, canonical_config("CB"), Paradigm.MODIFICATION,
                      oracle, verifier, RunLimits())
    assert record.outcome is RunOutcome.ERRORED
    assert record.tool_calls == 1
    assert record.error.startswith("UnparseableCompletion: ")


@pytest.mark.parametrize("name", sorted(UNPARSEABLE))
def test_grid_with_an_unparseable_completion_finishes(name, toy_corpus,
                                                      replay_oracle):
    victim = toy_corpus[0].id
    oracle = ScriptedOracle(lambda request: (
        UNPARSEABLE[name] if request.program_id == victim
        else replay_oracle.complete(request)))
    plan = ExperimentPlan(configs=("CB",), runs_per_cell=1)
    records = run_experiment(plan, toy_corpus, oracle, MockVerifier())
    assert len(records) == len(toy_corpus) * 2
    errored = [r for r in records if r.outcome is RunOutcome.ERRORED]
    assert {r.program_id for r in errored} == {victim}
    assert all(r.error.startswith("UnparseableCompletion: ") for r in errored)


@settings(max_examples=300, deadline=None)
@given(text=strategies.completions(), paradigm=st.sampled_from(Paradigm))
def test_run_once_returns_a_record_for_any_completion(text, paradigm, wp_stub):
    oracle = ScriptedOracle(lambda request: text)
    # the mock never weaves; the Frama-C adapter weaves and re-parses
    for verifier in (MockVerifier(always_failing=["x"]),
                     FramaCVerifier(FramaCSettings(
                         executable=str(wp_stub), wall_budget=30.0,
                         extra_args=("-stub-fail-marker", "x")))):
        record = run_once(FakeProgram(), canonical_config("CV"), paradigm,
                          oracle, verifier, RunLimits(max_repair_iterations=2))
        assert isinstance(record, RunRecord)


class StubVerifier:
    """Returns canned reports in order; counts calls."""

    def __init__(self, reports):
        self.reports = list(reports)
        self.calls = 0

    def verify(self, program, spec):
        self.calls += 1
        return self.reports.pop(0)


def test_tool_error_outcome_still_counts_the_call():
    program = FakeProgram()
    spec = make_spec(*GOOD)
    oracle = oracle_returning(program, spec)
    verifier = StubVerifier([
        VerifierReport(ReportStatus.TOOL_ERROR, (), "kernel exploded"),
    ])
    record = run_once(program, canonical_config("CB"), Paradigm.DELETION,
                      oracle, verifier, RunLimits())
    assert record.outcome is RunOutcome.ERRORED
    assert record.tool_calls == 1 == verifier.calls
    assert "kernel exploded" in record.error


def test_timeout_report_is_refinable_under_deletion():
    program = FakeProgram()
    spec = make_spec(*GOOD)
    good_report = VerifierReport(
        ReportStatus.VERIFIED,
        tuple(GoalResult(f"g{i}", GoalStatus.PROVED) for i in range(3)))
    verifier = StubVerifier([
        VerifierReport(ReportStatus.TIMEOUT, (), "wall budget hit"),
        good_report,
    ])
    record = run_once(program, canonical_config("CB"), Paradigm.DELETION,
                      oracle_returning(program, spec), verifier, RunLimits())
    assert record.outcome is RunOutcome.VERIFIED
    assert record.tool_calls == 2
    # the timeout had no mappable goal, so the tie-break dropped one annotation
    assert len(record.final_spec) == len(spec) - 1


def _hit(status, goal_status, wall_time):
    return VerifierReport(status, (GoalResult("g", goal_status),),
                          wall_time=wall_time, cache_hit=True)


def test_cache_hits_are_charged_their_original_wall_time():
    program = FakeProgram()
    spec = make_spec(*GOOD)
    verifier = StubVerifier([
        _hit(ReportStatus.FAILED, GoalStatus.UNKNOWN, 7.0),
        # a call that ran the tool is already inside the measured time
        VerifierReport(ReportStatus.FAILED, (GoalResult("g", GoalStatus.UNKNOWN),),
                       wall_time=100.0),
        _hit(ReportStatus.VERIFIED, GoalStatus.PROVED, 5.0),
    ])
    record = run_once(program, canonical_config("CB"), Paradigm.DELETION,
                      oracle_returning(program, spec), verifier, RunLimits())
    assert (record.outcome, record.tool_calls) == (RunOutcome.VERIFIED, 3)
    assert 12.0 <= record.elapsed < 12.0 + 5.0


def test_cache_hits_count_against_the_wall_budget():
    program = FakeProgram()
    spec = make_spec(*GOOD)
    verifier = StubVerifier([])
    for paradigm in Paradigm:
        verifier.reports.append(_hit(ReportStatus.FAILED, GoalStatus.UNKNOWN, 9.0))
        record = run_once(program, canonical_config("CB"), paradigm,
                          oracle_returning(program, spec), verifier,
                          RunLimits(wall_budget=5.0))
        assert (record.outcome, record.tool_calls) == (RunOutcome.EXHAUSTED, 1)
        assert record.error == "wall budget exceeded"


# --------------------------------------------------------------------------
# run_once, modification paradigm
# --------------------------------------------------------------------------

def test_modification_budget_exhaustion_counts():
    program = FakeProgram()
    spec = make_spec(*GOOD, (K.ENSURES, toyworld.BAD_ENSURES))
    oracle = oracle_returning(program, spec)  # repair returns same bad spec
    verifier = MockVerifier(always_failing=[toyworld.BAD_ENSURES])
    limits = RunLimits(max_repair_iterations=5)
    record = run_once(program, canonical_config("CB"), Paradigm.MODIFICATION,
                      oracle, verifier, limits)
    assert record.outcome is RunOutcome.EXHAUSTED
    assert record.tool_calls == 6
    assert record.iterations == 5


@pytest.mark.parametrize("budget", list(range(1, 11)))
def test_modification_budget_exact_for_never_verifying_chain(budget):
    program = FakeProgram()
    spec = make_spec(*GOOD, (K.ENSURES, toyworld.BAD_ENSURES))
    oracle = oracle_returning(program, spec)
    verifier = MockVerifier(always_failing=[toyworld.BAD_ENSURES])
    record = run_once(program, canonical_config("CB"), Paradigm.MODIFICATION,
                      oracle, verifier, RunLimits(max_repair_iterations=budget))
    assert record.tool_calls == budget + 1


def test_modification_repair_fixes_spec():
    program = FakeProgram()
    bad = make_spec(*GOOD, (K.ENSURES, toyworld.BAD_ENSURES))
    good = make_spec(*GOOD)

    def script(request):
        return spec_completion(program,
                               bad if request.attempt_index == 0 else good)

    verifier = MockVerifier(always_failing=[toyworld.BAD_ENSURES])
    record = run_once(program, canonical_config("CB"), Paradigm.MODIFICATION,
                      ScriptedOracle(script), verifier, RunLimits())
    assert record.outcome is RunOutcome.VERIFIED
    assert record.tool_calls == 2
    assert record.iterations == 1
    assert record.final_spec == good


def test_modification_empty_repair_completion_errors():
    program = FakeProgram()
    bad = make_spec(*GOOD, (K.ENSURES, toyworld.BAD_ENSURES))

    def script(request):
        if request.attempt_index == 0:
            return spec_completion(program, bad)
        return "I give up."

    verifier = MockVerifier(always_failing=[toyworld.BAD_ENSURES])
    record = run_once(program, canonical_config("CB"), Paradigm.MODIFICATION,
                      ScriptedOracle(script), verifier, RunLimits())
    assert record.outcome is RunOutcome.ERRORED
    assert record.tool_calls == 1


def test_repair_prompt_embeds_spec_and_failing_goals():
    program = FakeProgram()
    bad = make_spec(*GOOD, (K.ENSURES, toyworld.BAD_ENSURES))
    good = make_spec(*GOOD)
    prompts = []

    def script(request):
        prompts.append(request.prompt)
        return spec_completion(program,
                               bad if request.attempt_index == 0 else good)

    verifier = MockVerifier(always_failing=[toyworld.BAD_ENSURES])
    run_once(program, canonical_config("CB"), Paradigm.MODIFICATION,
             ScriptedOracle(script), verifier, RunLimits())
    repair_prompt = prompts[1]
    for ann in bad:
        assert ann.text in repair_prompt
    assert "failed goal:" in repair_prompt


# --------------------------------------------------------------------------
# randomized deletion properties
# --------------------------------------------------------------------------

GOOD_POOL = [
    (K.REQUIRES, "requires x >= {};"),
    (K.ENSURES, "ensures \\result >= {};"),
    (K.LOOP_INVARIANT, "loop invariant i >= {};"),
    (K.LOOP_ASSIGNS, "loop assigns i;"),
    (K.ASSIGNS, "assigns \\nothing;"),
    (K.LEMMA, "lemma ok_{}: 1 == 1;"),
    (K.PREDICATE, "predicate fine_{}(integer v) = v > 0;"),
]
BAD_POOL = [
    (K.ENSURES, "ensures \\result == 9090 + {};"),
    (K.LOOP_INVARIANT, "loop invariant i == 9090 + {};"),
    (K.LEMMA, "lemma nope_{}: \\forall integer z; z == 9090;"),
]


def random_scenario(rng):
    n_good = rng.randint(1, 4)
    n_bad = rng.randint(0, 3)
    rows = []
    for i in range(n_good):
        kind, template = rng.choice(GOOD_POOL)
        rows.append((kind, template.format(i)))
    for i in range(n_bad):
        kind, template = rng.choice(BAD_POOL)
        rows.append((kind, template.format(i)))
    rng.shuffle(rows)
    return make_spec(*rows)


def test_randomized_deletion_properties():
    rng = random.Random(20250809)
    program = FakeProgram()
    for _ in range(300):
        spec = random_scenario(rng)
        good_keys = {a.key() for a in spec if "9090" not in a.text}
        oracle = oracle_returning(program, spec)
        verifier = MockVerifier(always_failing=["9090"])
        record = run_once(program, canonical_config("CF"), Paradigm.DELETION,
                          oracle, verifier, RunLimits())
        assert record.tool_calls <= len(spec) + 1
        # exact goal mapping never deletes a fixture-good annotation
        assert good_keys <= set(record.final_spec.keys())
        if good_keys:
            assert record.outcome is RunOutcome.VERIFIED
