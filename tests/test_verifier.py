from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specloop import (
    Annotation,
    ConstructKind,
    FunctionContract,
    GoalResult,
    GoalStatus,
    Loop,
    MockVerifier,
    Paradigm,
    ReportStatus,
    RunRecord,
    ScriptedOracle,
    SourceSpan,
    SpecificationSet,
    Verifier,
    VerifierReport,
    canonical_config,
    extract_spec,
    map_failures_to_annotations,
    parse_annotations,
    refine_delete,
    run_once,
    tie_break_annotation,
    spec_key,
    weave,
)
from specloop.errors import UnmappableFailure
from specloop.refine import RunLogger
from specloop.acsl import _declared_name
from specloop.verifier import (
    _GOAL_PLACE, _goal_kind_hint, _linker, _wp_report, parse_wp_output,
    report_from_goals)

import strategies
from test_acsl import _key, _ref_without, _same_objects

K = ConstructKind


class FakeProgram:
    def __init__(self, id="prog1", source="int f(int x) { return x; }"):
        self.id = id
        self.source = source


def contract_spec(*, bad_ensures=False):
    fn = FunctionContract("f")
    anns = [
        Annotation(K.REQUIRES, "requires x >= 0;", fn, SourceSpan("w.c", 1, 1)),
        Annotation(K.ENSURES,
                   "ensures \\result == x + 1;" if bad_ensures
                   else "ensures \\result == x;",
                   fn, SourceSpan("w.c", 2, 2)),
        Annotation(K.ASSIGNS, "assigns \\nothing;", fn, SourceSpan("w.c", 3, 3)),
    ]
    return SpecificationSet(anns)


# --------------------------------------------------------------------------
# report invariants
# --------------------------------------------------------------------------

def test_verified_requires_nonempty_all_proved():
    with pytest.raises(ValueError):
        VerifierReport(ReportStatus.VERIFIED, ())
    with pytest.raises(ValueError):
        VerifierReport(ReportStatus.VERIFIED,
                       (GoalResult("g", GoalStatus.UNKNOWN),))


def test_failed_requires_an_unproved_goal():
    with pytest.raises(ValueError):
        VerifierReport(ReportStatus.FAILED,
                       (GoalResult("g", GoalStatus.PROVED),))


def test_zero_goals_is_a_tool_error():
    report = report_from_goals(())
    assert report.status is ReportStatus.TOOL_ERROR


# --------------------------------------------------------------------------
# canonical key
# --------------------------------------------------------------------------

def test_spec_key_ignores_order_and_spans():
    fn = FunctionContract("f")
    a = Annotation(K.REQUIRES, "requires x >= 0;", fn, SourceSpan("a.c", 5, 5))
    b = Annotation(K.ENSURES, "ensures \\result == x;", fn)
    assert spec_key(SpecificationSet([a, b])) == spec_key(SpecificationSet(
        [Annotation(K.ENSURES, "ensures \\result == x;", fn),
         Annotation(K.REQUIRES, "requires x >= 0;", fn, SourceSpan("b.c", 9, 9))]))
    assert spec_key(SpecificationSet([a])) != spec_key(SpecificationSet([a, b]))


# --------------------------------------------------------------------------
# mock verifier
# --------------------------------------------------------------------------

class _UnformattableProgram(FakeProgram):
    def __repr__(self):
        raise AssertionError("the program was formatted")


def test_program_with_an_id_is_never_formatted():
    program = _UnformattableProgram()
    assert MockVerifier().verify(program, contract_spec()).status is ReportStatus.VERIFIED
    seen = []
    oracle = ScriptedOracle(lambda request: seen.append(request.program_id) or
                            "```c\n/*@ requires x >= 0; */\nint f(int x) { return x; }\n```")
    oracle.propose(program, "p", config_name="CB")
    assert seen == ["prog1"]


def test_rule_mode_fails_matching_texts():
    spec = contract_spec(bad_ensures=True)
    mock = MockVerifier(always_failing=["ensures \\result == x + 1;"])
    report = mock.verify(FakeProgram(), spec)
    assert report.status is ReportStatus.FAILED
    assert [g.source_annotation.kind for g in report.failing_goals()] == [K.ENSURES]


def test_rule_mode_all_pass_is_verified():
    mock = MockVerifier()
    report = mock.verify(FakeProgram(), contract_spec())
    assert report.status is ReportStatus.VERIFIED
    assert len(report.goals) == 3


def test_axioms_generate_no_goals():
    mock = MockVerifier()
    base = contract_spec()
    with_axiom = SpecificationSet(
        list(base) + [Annotation(K.AXIOM, "axiom free_fact: 1 == 1;")])
    r1 = mock.verify(FakeProgram(), base)
    r2 = mock.verify(FakeProgram(), with_axiom)
    assert len(r1.goals) == len(r2.goals)
    assert r2.status is ReportStatus.VERIFIED


def test_mock_from_file(tmp_path):
    import json
    path = tmp_path / "mock.json"
    path.write_text(json.dumps({
        "always_failing": ["ensures \\result == x + 1;"],
        "wall_time": 0.25,
    }), encoding="utf-8")
    mock = MockVerifier.from_file(path)
    report = mock.verify(FakeProgram(), contract_spec(bad_ensures=True))
    assert report.status is ReportStatus.FAILED
    assert report.wall_time == 0.25


def _reference_goal_name(annotation: Annotation, ordinal: int) -> str:
    slug = annotation.kind.keyword.replace(" ", "_")
    name = _declared_name(annotation.kind, annotation.text)
    anchor = annotation.anchor
    if isinstance(anchor, FunctionContract):
        scope = anchor.function
    elif isinstance(anchor, Loop):
        scope = f"{anchor.function}_loop{anchor.ordinal}"
    else:
        scope = "global"
    if name:
        return f"typed_{slug}_{name}"
    return f"typed_{scope}_{slug}_{ordinal}"


def _reference_rule_verify(rules, wall_time: float,
                           spec: SpecificationSet) -> VerifierReport:
    """Rule-mode `MockVerifier.verify` as first written, one helper per
    step, against which the single-pass version is checked."""
    goals = []
    for ordinal, ann in enumerate(spec.annotations, start=1):
        if ann.kind is K.AXIOM:
            continue
        fails = any(rule == ann.text or rule in ann.text for rule in rules)
        goals.append(GoalResult(
            goal_name=_reference_goal_name(ann, ordinal),
            status=GoalStatus.UNKNOWN if fails else GoalStatus.PROVED,
            source_annotation=ann,
            source_line=ann.span.start_line,
        ))
    raw = "mock verifier (rule mode)"
    if not goals:
        return VerifierReport(ReportStatus.TOOL_ERROR, (), raw, wall_time)
    if all(g.status is GoalStatus.PROVED for g in goals):
        return VerifierReport(ReportStatus.VERIFIED, tuple(goals), raw, wall_time)
    return VerifierReport(ReportStatus.FAILED, tuple(goals), raw, wall_time)


def _report_fields(report: VerifierReport) -> tuple:
    return (report.status, report.raw_output, report.wall_time, report.cache_hit,
            [(g.goal_name, g.status, g.source_annotation, g.source_line)
             for g in report.goals])


@st.composite
def _rules(draw, spec: SpecificationSet):
    """Always-failing rules: the empty rule, a whole clause text, a
    substring of one, or any short text."""
    texts = [a.text for a in spec.annotations] or ["requires x;"]
    text = draw(st.sampled_from(texts))
    start = draw(st.integers(0, len(text)))
    stop = draw(st.integers(start, len(text)))
    return draw(st.lists(st.sampled_from(["", text, text[start:stop]])
                         | st.text(max_size=3), max_size=3))


@settings(max_examples=300, deadline=None)
@given(spec=strategies.specs(), data=st.data())
def test_rule_mode_matches_the_reference(spec, data):
    rules = data.draw(_rules(spec))
    wall_time = data.draw(st.sampled_from([0.0, 0.25]))
    mock = MockVerifier(always_failing=rules, wall_time=wall_time)
    want = _report_fields(_reference_rule_verify(rules, wall_time, spec))
    # the second call reads the names the first one computed
    assert _report_fields(mock.verify(FakeProgram(), spec)) == want
    assert _report_fields(mock.verify(FakeProgram(), spec)) == want


# --------------------------------------------------------------------------
# failure mapping
# --------------------------------------------------------------------------

def test_direct_span_match():
    spec = contract_spec()
    a, b, c = spec.annotations
    report = VerifierReport(ReportStatus.FAILED, (
        GoalResult("some_goal", GoalStatus.UNKNOWN, source_line=2),
    ))
    assert map_failures_to_annotations(report, spec) == [b]


def test_all_proved_violates_precondition():
    spec = contract_spec()
    report = VerifierReport(ReportStatus.VERIFIED, tuple(
        GoalResult(f"g{i}", GoalStatus.PROVED) for i in range(3)))
    with pytest.raises(ValueError):
        map_failures_to_annotations(report, spec)


def test_lemma_goal_maps_by_declared_name():
    lemma = Annotation(K.LEMMA,
                       "lemma digit_sum_step: \\forall integer n; n <= n;")
    spec = SpecificationSet(list(contract_spec()) + [lemma])
    report = VerifierReport(ReportStatus.FAILED, (
        GoalResult("typed_lemma_digit_sum_step", GoalStatus.TIMEOUT),
    ))
    assert map_failures_to_annotations(report, spec) == [lemma]


_NAMED_SPEC = SpecificationSet([
    Annotation(K.LOGIC, "logic integer fact(integer n) = n;"),
    Annotation(K.LEMMA, "lemma first_fact: fact(1) == 1;"),
    Annotation(K.LEMMA, "lemma second_fact: fact(2) == 2;"),
    Annotation(K.LEMMA, "lemma f: \\true;"),
    Annotation(K.ENSURES, "ensures \\result >= 1;", FunctionContract("f")),
    Annotation(K.BEHAVIOR, "behavior first_fact_case: assumes n == 1;",
               FunctionContract("fact")),
])


@pytest.mark.parametrize("goal_name,blamed", [
    # WP's lemma goals; `_` is a word character, so only the prefix links them
    ("typed_lemma_first_fact", "lemma first_fact"),
    ("typed_lemma_second_fact", "lemma second_fact"),
    ("typed_lemma_f", "lemma f"),
    # of the names that fit, the longest wins
    ("Post-condition for 'first_fact_case' (file woven.c, line 9) in 'fact'",
     "behavior first_fact_case"),
    ("Post-condition 'first_fact_case' of fact", "behavior first_fact_case"),
    # a name inside another goal's name links nothing: the kind hint decides
    ("typed_f_ensures", "ensures"),
])
def test_declared_name_step_picks_the_named_annotation(goal_name, blamed):
    report = VerifierReport(ReportStatus.FAILED, (
        GoalResult(goal_name, GoalStatus.UNKNOWN),))
    [mapped] = map_failures_to_annotations(report, _NAMED_SPEC)
    assert mapped.text.startswith(blamed)


def _blame(goal_name):
    report = VerifierReport(ReportStatus.FAILED, (
        GoalResult(goal_name, GoalStatus.UNKNOWN),))
    try:
        return map_failures_to_annotations(report, _NAMED_SPEC)
    except UnmappableFailure:
        return None


@settings(max_examples=200, deadline=None)
@given(words=st.lists(st.sampled_from([
           "typed", "lemma", "f", "fact", "first_fact", "second_fact",
           "first_fact_case", "ensures", "post", "assigns", "x", "'first_fact'"]),
           min_size=1, max_size=5),
       sep=st.sampled_from(["_", " "]),
       function=st.sampled_from(["f", "fact", "first_fact", "first_fact_case", "g"]))
def test_a_goals_location_and_function_change_no_blame(words, sep, function):
    name = sep.join(words)
    assert _blame(f"{name} (file woven.c, line 99) in '{function}'") == _blame(name)


#: a logic function named after the C function it specifies, and a failing
#: `ensures` on line 3 of the woven file
_SHARED_NAME_WOVEN = (
    "/*@ logic integer fact(integer n) = n <= 0 ? 1 : n * fact(n - 1); */\n"
    "/*@ requires 0 <= n <= 5;\n"
    "    ensures \\result == fact(n) + 1; */\n"
    "int fact(int n) { return n <= 0 ? 1 : n * fact(n - 1); }\n")
_SHARED_NAME_OUTPUT = """\
------------------------------------------------------------
Goal Post-condition (file woven.c, line 3) in 'fact':
Prover Alt-Ergo returns Unknown

[wp] Proved goals:    0 / 1
"""


def test_a_logic_function_named_like_the_c_function_takes_no_blame():
    spec = parse_annotations(_SHARED_NAME_WOVEN, file="woven.c")
    report = _wp_report(spec, _SHARED_NAME_OUTPUT, spec, 0.0)
    [goal] = report.failing_goals()
    assert goal.source_annotation.text.startswith("ensures")
    [blamed] = map_failures_to_annotations(report, spec)
    assert blamed.text.startswith("ensures")
    # the same goal without the adapter's link: the line step decides
    bare = VerifierReport(ReportStatus.FAILED, (
        GoalResult(goal.goal_name, GoalStatus.UNKNOWN, source_line=3),))
    assert map_failures_to_annotations(bare, spec) == [blamed]


@settings(max_examples=200, deadline=None)
@given(spec=strategies.specs(), function=st.sampled_from(["f", "fact"]),
       kind=st.sampled_from([K.LOGIC, K.PREDICATE]))
def test_a_goal_block_blames_the_clause_on_its_line(spec, function, kind):
    # the drawn spans end by line 43
    shared = Annotation(kind, f"{kind.keyword} integer {function}(integer n) = n;",
                        span=SourceSpan("s.c", 1, 1))
    failing = Annotation(K.ENSURES, "ensures \\result == 0;",
                         FunctionContract(function), SourceSpan("s.c", 50, 50))
    spec = SpecificationSet([shared, *spec, failing])
    report = VerifierReport(ReportStatus.FAILED, (GoalResult(
        f"Post-condition (file s.c, line 50) in '{function}'",
        GoalStatus.UNKNOWN, source_line=50),))
    assert map_failures_to_annotations(report, spec) == [failing]


def test_explicit_linkage_wins():
    spec = contract_spec()
    target = spec.annotations[0]
    report = VerifierReport(ReportStatus.FAILED, (
        GoalResult("whatever", GoalStatus.UNKNOWN, source_annotation=target),
    ))
    assert map_failures_to_annotations(report, spec) == [target]


def test_kind_category_fallback_picks_most_recent_unproved():
    fn = FunctionContract("f")
    first = Annotation(K.ENSURES, "ensures \\result >= 0;", fn)
    second = Annotation(K.ENSURES, "ensures \\result <= 10;", fn)
    spec = SpecificationSet([first, second])
    report = VerifierReport(ReportStatus.FAILED, (
        GoalResult("wp_post_condition_2", GoalStatus.UNKNOWN),
    ))
    assert map_failures_to_annotations(report, spec) == [second]


@pytest.mark.parametrize("goal_name,kind", [
    ("typed_f_loop_variant_positive", K.LOOP_VARIANT),
    ("typed_f_loop_variant_decrease", K.LOOP_VARIANT),
    ("typed_f_loop_invariant_preserved", K.LOOP_INVARIANT),
    ("typed_f_loop1_loop_invariant_0", K.LOOP_INVARIANT),
    ("typed_f_loop_assigns", K.LOOP_ASSIGNS),
    ("Loop assigns (file woven.c, line 7) in 'f'", K.LOOP_ASSIGNS),
    ("typed_f_assigns_3", K.ASSIGNS),
    ("wp_post_condition_2", K.ENSURES),
    ("Post-condition (file woven.c, line 2) in 'f'", K.ENSURES),
    ("Pre-condition (file woven.c, line 4) in 'f'", K.REQUIRES),
    ("typed_f_call_requires_2", K.REQUIRES),
    ("typed_lemma_L", K.LEMMA),
    ("typed_f_behavior_pos", K.BEHAVIOR),
    # needles inside other words, the location or the function name
    ("Assertion 'rte,mem_access' (file woven.c, line 9) in 'compress'", None),
    ("typed_prepare_assert_rte_mem_access", None),
    ("Assertion 'rte,signed_overflow' (file post.c, line 3) in 'g'", None),
    ("Assertion (file woven.c, line 9) in 'lemma_helper'", None),
    # runtime-error goals in functions named like a clause kind
    ("typed_pre_assert_rte_mem_access", None),
    ("typed_lemma_helper_assert_rte_signed_overflow", None),
])
def test_kind_hint_reads_only_the_goals_own_words(goal_name, kind):
    assert _goal_kind_hint(goal_name) is kind


def test_unmappable_failure_raises():
    spec = contract_spec()
    report = VerifierReport(ReportStatus.FAILED, (
        GoalResult("mystery_goal_xyz", GoalStatus.UNKNOWN),
    ))
    with pytest.raises(UnmappableFailure):
        map_failures_to_annotations(report, spec)


def test_mapping_is_exact_on_rule_mock_ground_truth(rule_verifier):
    import toyworld
    fn = FunctionContract("f")
    good = [
        Annotation(K.REQUIRES, "requires x >= 0;", fn),
        Annotation(K.ENSURES, "ensures \\result >= 0;", fn),
    ]
    bad = [Annotation(K.ENSURES, toyworld.BAD_ENSURES, fn),
           Annotation(K.LEMMA, toyworld.BAD_LEMMA)]
    spec = SpecificationSet(good + bad)
    report = rule_verifier.verify(FakeProgram(), spec)
    assert report.status is ReportStatus.FAILED
    mapped = map_failures_to_annotations(report, spec)
    assert set(mapped) == set(bad)


_POOL = [
    Annotation(K.REQUIRES, "requires x >= 0;", FunctionContract("f")),
    Annotation(K.ENSURES, "ensures \\result >= x;", FunctionContract("f")),
    Annotation(K.ASSIGNS, "assigns \\nothing;", FunctionContract("f")),
    Annotation(K.BEHAVIOR, "behavior pos: assumes x > 0; ensures \\result > 0;",
               FunctionContract("f")),
    Annotation(K.LOOP_INVARIANT, "loop invariant 0 <= i;", Loop("f", 1)),
    Annotation(K.LOOP_VARIANT, "loop variant x - i;", Loop("f", 1)),
    Annotation(K.PREDICATE, "predicate small(integer v) = v < 10;"),
    Annotation(K.LEMMA, "lemma small_zero: small(0);"),
    Annotation(K.AXIOM, "axiom pre_post: \\true;"),
]
# annotations of no drawn spec, for links to strangers
_STRANGERS = [
    Annotation(K.ENSURES, "ensures \\result == 7;", FunctionContract("h")),
    Annotation(K.LEMMA, "lemma small: \\true;"),
]
_GOAL_WORDS = ["typed_f", "ensures", "requires", "post", "pre", "assigns",
               "loop_invariant", "loop variant", "lemma", "behavior", "positive",
               "pos", "small", "small_zero", "pre_post", "rte", "mystery", "_", " "]


def _adversarial_goal(spec: SpecificationSet, words=_GOAL_WORDS):
    """A goal of any name and status, linked to nothing, to an annotation
    of spec, or to a stranger, with any source line."""
    links = st.one_of(st.none(), st.sampled_from(spec.annotations),
                      st.sampled_from(_STRANGERS))
    return st.builds(
        GoalResult,
        goal_name=st.lists(st.sampled_from(words), max_size=4).map("".join),
        status=st.sampled_from(GoalStatus),
        source_annotation=links,
        source_line=st.one_of(st.none(), st.integers(0, 16)))


@st.composite
def _failing_goals(draw, spec: SpecificationSet, words=_GOAL_WORDS):
    goal = _adversarial_goal(spec, words)
    goals = draw(st.lists(goal, max_size=5))
    goals.append(draw(goal.filter(lambda g: g.status is not GoalStatus.PROVED)))
    return tuple(draw(st.permutations(goals)))


@st.composite
def _adversarial_failure(draw):
    spec = SpecificationSet(
        replace(a, span=SourceSpan("c.c", line, line + draw(st.integers(0, 2))))
        for a, line in draw(st.lists(
            st.tuples(st.sampled_from(_POOL), st.integers(1, 12)),
            min_size=1, max_size=len(_POOL))))
    return spec, VerifierReport(ReportStatus.FAILED, draw(_failing_goals(spec)))


@settings(max_examples=300, deadline=None)
@given(_adversarial_failure())
def test_blame_chain_total_on_adversarial_reports(case):
    spec, report = case
    order = list(spec.annotations)
    try:
        mapped = map_failures_to_annotations(report, spec)
    except UnmappableFailure:
        pass
    else:
        positions = [order.index(a) for a in mapped]
        assert positions and positions == sorted(set(positions))
    remaining = refine_delete(spec, report)
    assert len(remaining) < len(spec)
    assert remaining.keys() <= spec.keys()


@st.composite
def _respanned_failure(draw):
    """A drawn spec and a Failed report whose goals link to its own
    annotations, to equal copies of them on other spans, to strangers or
    to nothing."""
    spec = draw(strategies.specs().filter(bool))
    links = SpecificationSet(draw(st.permutations(
        [*spec, *draw(strategies.respanned(spec))])))
    goals = draw(_failing_goals(links, _GOAL_WORDS + strategies._NAMES))
    return spec, VerifierReport(ReportStatus.FAILED, goals)


def _ref_linker(spec: SpecificationSet, read: SpecificationSet):
    """Reference link steps, matching annotations by (kind, text, anchor)."""
    by_key = {_key(a): a for a in spec.annotations}
    named = []
    for a in spec.annotations:
        if name := a.declared_name():
            lemma = "(?:typed_lemma_)?" if a.kind is K.LEMMA else ""
            named.append((len(name), rf"\b{lemma}{re.escape(name)}\b", a))
    named.sort(key=lambda item: -item[0])
    read_spans = {_key(a): a.span for a in read.annotations}
    spans = [(read_spans[key], a) for key, a in by_key.items() if key in read_spans]

    def link(goal: GoalResult):
        if goal.source_annotation is not None:
            hit = by_key.get(_key(goal.source_annotation))
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


def _ref_proved_keys(report: VerifierReport) -> set[tuple]:
    return {_key(g.source_annotation) for g in report.goals
            if g.status is GoalStatus.PROVED and g.source_annotation is not None}


def _ref_map_failures(report: VerifierReport, spec: SpecificationSet) -> list:
    link = _ref_linker(spec, spec)
    proved_keys = _ref_proved_keys(report)
    resolved: dict[tuple, Annotation] = {}
    for goal in report.failing_goals():
        ann = link(goal)
        if ann is None and (kind := _goal_kind_hint(goal.goal_name)) is not None:
            candidates = [a for a in spec.annotations
                          if a.kind is kind and _key(a) not in proved_keys]
            ann = candidates[-1] if candidates else None
        if ann is not None:
            resolved[_key(ann)] = ann
    if not resolved:
        raise UnmappableFailure("no failing goal could be mapped")
    return [a for a in spec.annotations if _key(a) in resolved]


def _ref_tie_break(report: VerifierReport, spec: SpecificationSet) -> Annotation:
    proved_keys = _ref_proved_keys(report)
    unproved = [a for a in spec.annotations if _key(a) not in proved_keys]
    failing_kinds = {_goal_kind_hint(g.goal_name) for g in report.failing_goals()}
    return next((a for a in reversed(unproved) if a.kind in failing_kinds),
                (unproved or spec.annotations)[-1])


def _ref_refine_delete(spec: SpecificationSet, report: VerifierReport) -> tuple:
    try:
        doomed = _ref_map_failures(report, spec)
    except UnmappableFailure:
        doomed = [_ref_tie_break(report, spec)]
    names = [name for ann in doomed if ann.kind in (K.PREDICATE, K.LOGIC)
             and (name := ann.declared_name())]
    doomed_keys = {_key(a) for a in doomed}
    doomed += [ann for ann in spec.annotations
               if names and _key(ann) not in doomed_keys
               and ann.kind in (K.LEMMA, K.AXIOM)
               and any(re.search(rf"\b{re.escape(n)}\b", ann.text) for n in names)]
    return _ref_without(spec, doomed)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_adversarial_failure(), _respanned_failure()),
       strategies.specs(), st.data())
def test_blame_chain_matches_the_key_tuple_reference(case, other, data):
    """Mapping, tie-break and deletion pick the same annotation objects as
    the (kind, text, anchor) tuple reference, and so do links through the
    spans of another file."""
    spec, report = case
    try:
        mapped = map_failures_to_annotations(report, spec)
    except UnmappableFailure:
        with pytest.raises(UnmappableFailure):
            _ref_map_failures(report, spec)
    else:
        assert _same_objects(mapped, _ref_map_failures(report, spec))
    assert tie_break_annotation(report, spec) is _ref_tie_break(report, spec)
    assert _same_objects(refine_delete(spec, report).annotations,
                         _ref_refine_delete(spec, report))
    read = SpecificationSet([*data.draw(strategies.respanned(spec)), *other])
    link, ref_link = _linker(spec, read), _ref_linker(spec, read)
    assert all(link(g) is ref_link(g) for g in report.goals)


def _adversarial_report(spec: SpecificationSet):
    """Any report a verifier could return for spec: Failed with adversarial
    goals, Timeout with or without goals, Verified, or ToolError."""
    proved = _adversarial_goal(spec).map(
        lambda g: replace(g, status=GoalStatus.PROVED))
    return st.one_of(
        _failing_goals(spec).map(
            lambda goals: VerifierReport(ReportStatus.FAILED, goals)),
        st.lists(_adversarial_goal(spec), max_size=3).map(
            lambda goals: VerifierReport(ReportStatus.TIMEOUT, tuple(goals))),
        st.lists(proved, min_size=1, max_size=3).map(
            lambda goals: VerifierReport(ReportStatus.VERIFIED, tuple(goals))),
        st.just(VerifierReport(ReportStatus.TOOL_ERROR, (), "kernel exploded")),
    )


class _DrawingVerifier(Verifier):
    """Draws a fresh adversarial report for every call."""

    def __init__(self, data):
        self.data = data

    def verify(self, program, spec):
        return self.data.draw(_adversarial_report(spec))


_LOOP_PROGRAM = FakeProgram(
    source="int f(int x) {\n  int i = 0;\n  while (i < x) { i++; }\n  return i;\n}\n")


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(st.sampled_from(_POOL), min_size=1, unique=True),
       data=st.data())
def test_deletion_run_is_bounded_over_adversarial_reports(pool, data):
    completion = f"```c\n{weave(_LOOP_PROGRAM.source, SpecificationSet(pool))}\n```"
    spec = extract_spec(completion)  # S, the set the run starts from
    logger = RunLogger()
    record = run_once(_LOOP_PROGRAM, canonical_config("CF"), Paradigm.DELETION,
                      ScriptedOracle(lambda request: completion),
                      _DrawingVerifier(data), logger=logger)
    assert isinstance(record, RunRecord)
    assert 1 <= record.tool_calls <= len(spec) + 1
    sizes = [call["spec_size"] for call in logger.close()]
    assert len(sizes) == record.tool_calls and sizes[0] == len(spec)
    assert all(a > b for a, b in zip(sizes, sizes[1:]))


# --------------------------------------------------------------------------
# WP output parsing
# --------------------------------------------------------------------------

BRACKET_OUTPUT = """\
[kernel] Parsing woven.c (with preprocessing)
[wp] 4 goals scheduled
[wp] [Valid] typed_f_ensures (Qed)
[wp] [Valid] typed_f_assigns (Qed)
[wp] [Unsuccess] typed_f_loop_invariant_preserved (Alt-Ergo) (Cached)
[wp] [Timeout] typed_lemma_digit_sum_step (Alt-Ergo)
[wp] Proved goals:    2 / 4
  Qed:             2
  Alt-Ergo:        0  (unsuccess: 2)
"""

PROVER_LINE_OUTPUT = """\
[kernel] Parsing woven.c (with preprocessing)
[wp] 2 goals scheduled
[wp] [Qed] Goal typed_f_assigns : Valid
[wp] [Alt-Ergo] Goal typed_f_ensures : Unsuccess (Qed:2ms) (64ms)
[wp] Proved goals:    1 / 2
"""

GOAL_BLOCK_OUTPUT = """\
[wp] Running WP plugin...
------------------------------------------------------------
Goal Post-condition (file woven.c, line 2) in 'f':
Assume { Type: is_sint32(x). (* Pre-condition *) Have: 0 <= x. }
Prove: true.

------------------------------------------------------------
Goal Loop assigns (file woven.c, line 7) in 'f':
Prover Alt-Ergo returns Timeout (10s)

------------------------------------------------------------
Goal Assertion (file woven.c, line 9) in 'f':
Prover Alt-Ergo returns Unknown

[wp] Proved goals:    1 / 3
"""

ALL_VALID_OUTPUT = """\
[wp] 2 goals scheduled
[wp] [Valid] typed_f_ensures (Alt-Ergo) (Cached)
[wp] [Valid] typed_f_assigns (Qed)
[wp] Proved goals:    2 / 2
"""

SUMMARY_ONLY_OUTPUT = """\
[wp] 3 goals scheduled
[wp] Proved goals:    3 / 3
"""


def test_parse_bracket_format():
    goals, summary = parse_wp_output(BRACKET_OUTPUT)
    by_name = {g.goal_name: g.status for g in goals}
    assert by_name["typed_f_ensures"] is GoalStatus.PROVED
    assert by_name["typed_f_loop_invariant_preserved"] is GoalStatus.UNKNOWN
    assert by_name["typed_lemma_digit_sum_step"] is GoalStatus.TIMEOUT
    assert summary == (2, 4)


def test_parse_prover_line_format():
    goals, summary = parse_wp_output(PROVER_LINE_OUTPUT)
    by_name = {g.goal_name: g.status for g in goals}
    assert by_name == {"typed_f_assigns": GoalStatus.PROVED,
                       "typed_f_ensures": GoalStatus.UNKNOWN}
    assert summary == (1, 2)


def test_parse_goal_block_format_with_lines():
    goals, summary = parse_wp_output(GOAL_BLOCK_OUTPUT)
    by_name = {g.goal_name: g for g in goals}
    post = by_name["Post-condition (file woven.c, line 2) in 'f'"]
    assert post.status is GoalStatus.PROVED and post.source_line == 2
    loop = by_name["Loop assigns (file woven.c, line 7) in 'f'"]
    assert loop.status is GoalStatus.TIMEOUT and loop.source_line == 7
    assert summary == (1, 3)


def test_parse_all_valid():
    goals, summary = parse_wp_output(ALL_VALID_OUTPUT)
    assert all(g.status is GoalStatus.PROVED for g in goals)
    assert summary == (2, 2)
    assert report_from_goals(goals).status is ReportStatus.VERIFIED


def test_parse_summary_only_and_garbage():
    goals, summary = parse_wp_output(SUMMARY_ONLY_OUTPUT)
    assert goals == [] and summary == (3, 3)
    goals, summary = parse_wp_output("segmentation fault")
    assert goals == [] and summary is None


@settings(max_examples=300, deadline=None)
@given(output=strategies.wp_outputs(), spec=strategies.specs(), data=st.data())
def test_raw_wp_output_reaches_the_blame_chain_without_raising(output, spec, data):
    goals, _ = parse_wp_output(output)
    names = [g.goal_name for g in goals]
    assert len(names) == len(set(names))
    # the woven file's spans, or annotations the spec lacks, which no goal
    # may be linked to
    spans = data.draw(strategies.specs() | st.just(spec))
    report = _wp_report(spec, output, spans, 0.0)
    if report.status is ReportStatus.VERIFIED:
        assert report.goals and all(g.status is GoalStatus.PROVED for g in report.goals)
    assert all(g.source_annotation is None or g.source_annotation in spec.keys()
               for g in report.goals)
    if report.status is ReportStatus.FAILED and spec:
        assert len(refine_delete(spec, report)) < len(spec)


def test_goal_block_failure_maps_to_annotation_by_span():
    spec = SpecificationSet([
        Annotation(K.LOOP_ASSIGNS, "loop assigns i;", Loop("f", 1),
                   SourceSpan("woven.c", 7, 7)),
        Annotation(K.ENSURES, "ensures \\result >= 0;", FunctionContract("f"),
                   SourceSpan("woven.c", 2, 2)),
    ])
    goals, _ = parse_wp_output(GOAL_BLOCK_OUTPUT)
    report = report_from_goals(goals, raw_output=GOAL_BLOCK_OUTPUT)
    assert report.status is ReportStatus.FAILED
    mapped = map_failures_to_annotations(report, spec)
    assert any(a.kind is K.LOOP_ASSIGNS for a in mapped)
