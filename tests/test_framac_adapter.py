"""Frama-C adapter tests against a stub executable that replays canned WP
console output, covering the subprocess path end to end."""

from __future__ import annotations

import json
import re
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

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
    GoalStatus,
    Loop,
    Paradigm,
    Program,
    ReportStatus,
    RunOutcome,
    ScriptedOracle,
    SpecificationSet,
    canonical_config,
    extract_spec,
    map_failures_to_annotations,
    refine_delete,
    run_experiment,
    run_once,
    tie_break_annotation,
    weave,
)
from specloop.errors import UnmappableFailure, VerifierNotInstalled
from specloop.verifier import _wp_report

import strategies

K = ConstructKind


class FakeProgram:
    def __init__(self, id="prog", source="int f(int x) { return x; }\n"):
        self.id = id
        self.source = source


def contract():
    fn = FunctionContract("f")
    return SpecificationSet([
        Annotation(K.REQUIRES, "requires x >= 0;", fn),
        Annotation(K.ENSURES, "ensures \\result == x;", fn),
        Annotation(K.ASSIGNS, "assigns \\nothing;", fn),
    ])


def tool_runs(log: Path) -> int:
    return len(log.read_text().splitlines()) if log.exists() else 0


@pytest.fixture()
def fake_framac(tmp_path):
    """Settings for a stub that prints canned output and appends one line
    per invocation to `tmp_path / "calls.log"`."""
    def make(output: str, exit_code: int = 0, sleep: float = 0.0) -> FramaCSettings:
        script = tmp_path / "frama-c-stub"
        script.write_text(
            "#!/bin/sh\n"
            f"echo \"$*\" >> {tmp_path / 'calls.log'}\n"
            f"sleep {sleep}\n"
            "cat <<'WPOUT'\n"
            f"{output}\n"
            "WPOUT\n"
            f"exit {exit_code}\n")
        script.chmod(0o755)
        return FramaCSettings(executable=str(script), wall_budget=5.0)
    return make


ALL_VALID = """\
[kernel] Parsing woven.c (with preprocessing)
[wp] 3 goals scheduled
[wp] [Valid] typed_f_requires (Qed)
[wp] [Valid] typed_f_ensures (Alt-Ergo)
[wp] [Valid] typed_f_assigns (Qed)
[wp] Proved goals:    3 / 3"""

ENSURES_FAILS = """\
[kernel] Parsing woven.c (with preprocessing)
[wp] 3 goals scheduled
[wp] [Valid] typed_f_requires (Qed)
[wp] [Unsuccess] typed_f_ensures (Alt-Ergo)
[wp] [Valid] typed_f_assigns (Qed)
[wp] Proved goals:    2 / 3"""

# the woven file puts the contract on lines 1..3 (requires, ensures, assigns)
LINE_BASED_FAILURE = """\
[wp] Running WP plugin...
Goal Post-condition (file woven.c, line 2) in 'f':
Prover Alt-Ergo returns Unknown

[wp] Proved goals:    0 / 1"""


def test_verified_on_all_valid(fake_framac):
    verifier = FramaCVerifier(fake_framac(ALL_VALID))
    report = verifier.verify(FakeProgram(), contract())
    assert report.status is ReportStatus.VERIFIED
    assert len(report.goals) == 3
    assert report.wall_time > 0


def test_failed_goal_named_and_mapped(fake_framac):
    spec = contract()
    verifier = FramaCVerifier(fake_framac(ENSURES_FAILS))
    report = verifier.verify(FakeProgram(), spec)
    assert report.status is ReportStatus.FAILED
    mapped = map_failures_to_annotations(report, spec)
    assert [a.kind for a in mapped] == [K.ENSURES]


def test_goal_line_links_to_woven_span(fake_framac):
    spec = contract()
    verifier = FramaCVerifier(fake_framac(LINE_BASED_FAILURE))
    report = verifier.verify(FakeProgram(), spec)
    assert report.status is ReportStatus.FAILED
    failing = report.failing_goals()[0]
    assert failing.source_line == 2
    assert failing.source_annotation is not None
    assert failing.source_annotation.kind is K.ENSURES


TWO_FUNCTIONS = (
    "int g(int y) {\n"
    "  int z = y + 1;\n"
    "  return z;\n"
    "}\n"
    "\n"
    "int f(int x) {\n"
    "  return g(x);\n"
    "}\n")

# the reply's first line is prose, so `requires` sits on completion line 2
COMPLETION_WITH_NOTE = """\
```c
// g is a helper and needs no contract
/*@ requires x >= 0;
    ensures \\result == x + 1;
    assigns \\nothing; */
int f(int x) {
  return g(x);
}
```"""


def test_woven_line_outside_every_span_blames_nothing(fake_framac):
    program = FakeProgram(source=TWO_FUNCTIONS)
    spec = extract_spec(COMPLETION_WITH_NOTE)
    requires = spec.annotations[0]
    woven_lines = weave(program.source, spec).splitlines()
    line = woven_lines.index("  int z = y + 1;") + 1
    # the coincidence under test: g's statement and the completion's
    # `requires` share a line number in their own files
    assert requires.kind is K.REQUIRES and requires.span.contains_line(line)
    overflow_in_g = (
        "[wp] Running WP plugin...\n"
        f"Goal Assertion 'rte,signed_overflow' (file woven.c, line {line}) in 'g':\n"
        "Prover Alt-Ergo returns Unknown\n"
        "\n"
        "[wp] Proved goals:    0 / 1")
    report = FramaCVerifier(fake_framac(overflow_in_g)).verify(program, spec)
    assert report.status is ReportStatus.FAILED
    assert report.failing_goals()[0].source_annotation is None
    with pytest.raises(UnmappableFailure):
        map_failures_to_annotations(report, spec)
    remaining = refine_delete(spec, report)
    assert requires in remaining.keys()
    assert remaining == spec.without([tie_break_annotation(report, spec)])
    assert len(remaining) == len(spec) - 1


def test_wall_budget_exceeded_is_timeout(fake_framac):
    settings = fake_framac(ALL_VALID, sleep=3.0)
    settings.wall_budget = 0.2
    verifier = FramaCVerifier(settings)
    report = verifier.verify(FakeProgram(), contract())
    assert report.status is ReportStatus.TIMEOUT


def test_timeout_leaves_no_process_behind(tmp_path):
    pid_file = tmp_path / "grandchild.pid"
    script = tmp_path / "frama-c-stub"
    # a prover process that outlives its parent's budget, as WP's why3 and
    # alt-ergo children do
    script.write_text(
        "#!/bin/sh\n"
        f"sleep 30 &\necho $! > {pid_file}\n"
        "echo '[wp] Running WP plugin...'\n"
        "wait\n")
    script.chmod(0o755)
    verifier = FramaCVerifier(FramaCSettings(executable=str(script), wall_budget=1.0))
    report = verifier.verify(FakeProgram(), contract())
    assert report.status is ReportStatus.TIMEOUT
    assert "Running WP plugin" in report.raw_output
    stat = Path(f"/proc/{pid_file.read_text().strip()}/stat")
    # SIGKILL lands asynchronously; dead means reaped (gone) or a zombie
    deadline = time.monotonic() + 5.0
    while True:
        try:
            state = stat.read_text().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return
        if state == "Z" or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    assert state == "Z"


def test_wall_time_excludes_the_wait_for_a_process_slot(fake_framac):
    settings_ = fake_framac(ALL_VALID, sleep=0.3)
    settings_.max_processes = 1
    verifier = FramaCVerifier(settings_)
    programs = [FakeProgram(), FakeProgram(source="int f(int x) { return -x; }\n")]
    with ThreadPoolExecutor(max_workers=2) as pool:
        reports = list(pool.map(lambda p: verifier.verify(p, contract()), programs))
    assert [r.status for r in reports] == [ReportStatus.VERIFIED] * 2
    assert all(r.wall_time < 0.45 for r in reports), [r.wall_time for r in reports]


def test_unparseable_output_with_nonzero_exit_is_tool_error(fake_framac):
    verifier = FramaCVerifier(fake_framac("[kernel] user error: whatever",
                                          exit_code=1))
    report = verifier.verify(FakeProgram(), contract())
    assert report.status is ReportStatus.TOOL_ERROR


@pytest.mark.parametrize("changes", [
    {"max_processes": 0}, {"max_processes": -1}, {"wall_budget": 0},
    {"wall_budget": float("nan")}, {"wall_budget": float("inf")},
])
def test_settings_that_would_hang_or_crash_a_run_are_rejected(changes):
    """No process slot blocks every call; a NaN or infinite budget makes
    the subprocess wait raise out of verify."""
    with pytest.raises(ValueError, match="verifier processes"):
        FramaCVerifier(FramaCSettings(**changes))


def test_missing_executable_raises():
    verifier = FramaCVerifier(FramaCSettings(executable="definitely-not-frama-c"))
    with pytest.raises(VerifierNotInstalled):
        verifier.verify(FakeProgram(), contract())


def test_unanchorable_spec_reported_as_tool_error(fake_framac):
    spec = SpecificationSet([
        Annotation(K.LOOP_INVARIANT, "loop invariant \\true;", Loop("f", 1)),
    ])
    verifier = FramaCVerifier(fake_framac(ALL_VALID))
    report = verifier.verify(FakeProgram(), spec)  # f has no loop
    assert report.status is ReportStatus.TOOL_ERROR
    assert "weave failed" in report.raw_output


def test_a_program_comment_the_parser_rejects_ends_the_run_errored(wp_stub):
    """verify re-parses the woven program for its spans; a program comment
    that does not parse is the run's ToolError, not an exception."""
    program = Program("prog", "/*@ frobnicate x; */\nint f(int n) { return n; }\n",
                      "toy")
    completion = ("```c\n/*@ requires n >= 0; */\n"
                  "int f(int n) { return n; }\n```")
    verifier = FramaCVerifier(FramaCSettings(executable=str(wp_stub),
                                             wall_budget=30.0))
    record = run_once(program, canonical_config("CB"), Paradigm.DELETION,
                      ScriptedOracle(lambda request: completion), verifier)
    assert record.outcome is RunOutcome.ERRORED
    assert record.error.startswith("ToolError: woven program does not parse: ")
    assert "'frobnicate'" in record.error


def test_a_spec_text_the_parser_rejects_is_an_uncached_tool_error(fake_framac,
                                                                   tmp_path):
    spec = SpecificationSet([
        Annotation(K.REQUIRES, "requires x >= 0", FunctionContract("f")),
    ])
    verifier = FramaCVerifier(fake_framac(ALL_VALID))
    for _ in range(2):
        report = verifier.verify(FakeProgram(), spec)
        assert report.status is ReportStatus.TOOL_ERROR and not report.cache_hit
        assert "requires clause has no terminating ';'" in report.raw_output
    assert tool_runs(tmp_path / "calls.log") == 0


def test_summary_only_success_synthesizes_goals(fake_framac):
    verifier = FramaCVerifier(fake_framac("[wp] Proved goals:    2 / 2"))
    report = verifier.verify(FakeProgram(), contract())
    assert report.status is ReportStatus.VERIFIED
    assert len(report.goals) == 2

    verifier = FramaCVerifier(fake_framac("[wp] Proved goals:    1 / 3"))
    report = verifier.verify(FakeProgram(), contract())
    assert report.status is ReportStatus.FAILED
    assert len(report.goals) == 3
    assert len(report.failing_goals()) == 2

    verifier = FramaCVerifier(fake_framac("", exit_code=1))
    report = verifier.verify(FakeProgram(), contract())
    assert report.status is ReportStatus.TOOL_ERROR


def test_a_tool_run_killed_after_a_valid_goal_is_not_verified(fake_framac,
                                                              tmp_path):
    settings_ = fake_framac("[wp] [Valid] typed_f_ensures (Qed)")
    script = Path(settings_.executable)
    script.write_text(script.read_text().replace("exit 0\n", "kill -9 $$\n"))
    verifier = FramaCVerifier(settings_)
    completion = ("```c\n/*@ requires x >= 0;\n    ensures \\result == x; */\n"
                  "int f(int x) { return x; }\n```")
    program = Program("prog", "int f(int x) { return x; }\n", "toy")
    record = run_once(program, canonical_config("CB"), Paradigm.DELETION,
                      ScriptedOracle(lambda request: completion), verifier)
    assert record.outcome is RunOutcome.ERRORED
    assert record.error.startswith("ToolError: ")
    assert "died with <Signals.SIGKILL: 9>" in record.error
    # never cached: the next call runs the tool again
    again = verifier.verify(program, contract())
    assert again.status is ReportStatus.TOOL_ERROR and not again.cache_hit
    assert tool_runs(tmp_path / "calls.log") == 2


def test_a_nonzero_exit_is_a_tool_error_naming_status_and_stderr(tmp_path):
    script = tmp_path / "frama-c-stub"
    script.write_text("#!/bin/sh\n"
                      "echo '[wp] [Valid] typed_f_requires (Qed)'\n"
                      "echo '[wp] Proved goals:    1 / 1'\n"
                      "echo 'Fatal error: out of memory' >&2\n"
                      "exit 125\n")
    script.chmod(0o755)
    verifier = FramaCVerifier(FramaCSettings(executable=str(script)))
    report = verifier.verify(FakeProgram(), contract())
    assert report.status is ReportStatus.TOOL_ERROR
    assert "exit status 125" in report.raw_output
    assert "out of memory" in report.raw_output


_ONE_OF_TWO_PROVED = "[wp] [Valid] typed_f_ensures (Qed)\n[wp] Proved goals:    1 / 2\n"


def test_a_summary_with_unproved_goals_is_never_ignored(fake_framac):
    verifier = FramaCVerifier(fake_framac(_ONE_OF_TWO_PROVED))
    report = verifier.verify(FakeProgram(), contract())
    assert report.status is ReportStatus.FAILED
    assert [(g.goal_name, g.status) for g in report.goals] == [
        ("typed_f_ensures", GoalStatus.PROVED),
        ("unidentified_goal_1", GoalStatus.UNKNOWN)]


@pytest.mark.parametrize("output, goals", [
    (_ONE_OF_TWO_PROVED, ["typed_f_ensures", "unidentified_goal_1"]),
    # the summary counts a goal no parsed line names
    ("[wp] [Valid] typed_f_ensures (Qed)\n[wp] Proved goals: 2 / 3",
     ["typed_f_ensures", "goal_1", "unidentified_goal_1"]),
    # an unproved goal the lines name is not counted twice
    ("[wp] [Unknown] typed_f_ensures\n[wp] Proved goals: 1 / 2",
     ["typed_f_ensures", "goal_1"]),
    ("[wp] Proved goals: 0 / 2", ["unidentified_goal_1", "unidentified_goal_2"]),
])
def test_a_summary_adds_the_goals_the_lines_leave_out(output, goals):
    report = _wp_report(contract(), output, SpecificationSet(), 0.0)
    assert report.status is ReportStatus.FAILED
    assert [g.goal_name for g in report.goals] == goals


def test_a_summary_proving_more_goals_than_it_counts_is_a_tool_error():
    output = "[wp] [Valid] typed_f_ensures (Qed)\n[wp] Proved goals: 2 / 1"
    report = _wp_report(contract(), output, SpecificationSet(), 0.0)
    assert report.status is ReportStatus.TOOL_ERROR


@pytest.mark.parametrize("stream", ["", ">&2"])
def test_output_that_is_not_utf8_cannot_raise(tmp_path, stream):
    script = tmp_path / "frama-c-stub"
    script.write_text("#!/bin/sh\n"
                      f"printf '\\377\\376\\n' {stream}\n"
                      "echo '[wp] [Valid] typed_f_ensures (Qed)'\n"
                      "echo '[wp] Proved goals: 1 / 1'\n")
    script.chmod(0o755)
    report = FramaCVerifier(FramaCSettings(executable=str(script))).verify(
        FakeProgram(), contract())
    assert report.status is ReportStatus.VERIFIED
    assert "\ufffd\ufffd" in report.raw_output


def test_a_timeout_keeps_its_output_that_is_not_utf8(tmp_path):
    script = tmp_path / "frama-c-stub"
    script.write_text("#!/bin/sh\nprintf '[wp] \\377\\n'\nsleep 5\n")
    script.chmod(0o755)
    verifier = FramaCVerifier(FramaCSettings(executable=str(script),
                                             wall_budget=0.3))
    report = verifier.verify(FakeProgram(), contract())
    assert report.status is ReportStatus.TIMEOUT
    assert report.raw_output == "[wp] \ufffd\n"


# --------------------------------------------------------------------------
# the subprocess boundary: whatever the tool prints and however it ends
# --------------------------------------------------------------------------

_WP_SUMMARY_LINE = re.compile(r"Proved goals:\s*(\d+)\s*/\s*(\d+)")


@pytest.fixture(scope="module")
def drawn_tool(tmp_path_factory):
    """A stub that prints `out` and `err` from its directory, then ends as
    `end` says: an exit status, `-N` for death by signal N, or `hang`."""
    root = tmp_path_factory.mktemp("drawn-tool")
    script = root / "frama-c"
    script.write_text(
        "#!/bin/sh\n"
        f"cat {root / 'out'}\n"
        f"cat {root / 'err'} >&2\n"
        f"end=$(cat {root / 'end'})\n"
        "case $end in\n"
        "  hang) sleep 5 ;;\n"
        "  -*) kill -${end#-} $$ ;;\n"
        "esac\n"
        "exit $end\n")
    script.chmod(0o755)
    return root


#: WP output, bytes that are not UTF-8, or both
_TOOL_BYTES = st.lists(
    st.one_of(strategies.wp_outputs().map(str.encode), st.binary(max_size=12)),
    max_size=3).map(b"\n".join)
#: exit statuses and signals that end a process without a core dump; a
#: hang, now and then, runs into the wall budget
_TOOL_ENDS = st.one_of(
    st.just("0"), st.integers(1, 255).map(str),
    st.sampled_from(["-1", "-9", "-10", "-15"]),
    st.integers(0, 15).map(lambda n: "hang" if n == 0 else "0"))


@settings(max_examples=100, deadline=None)
@given(out=_TOOL_BYTES, err=st.binary(max_size=24) | _TOOL_BYTES, end=_TOOL_ENDS)
def test_verify_survives_any_tool_output_and_end(drawn_tool, out, err, end):
    (drawn_tool / "out").write_bytes(out)
    (drawn_tool / "err").write_bytes(err)
    (drawn_tool / "end").write_text(end)
    verifier = FramaCVerifier(FramaCSettings(
        executable=str(drawn_tool / "frama-c"), wall_budget=0.3))
    for _ in range(2):
        report = verifier.verify(FakeProgram(), contract())
        if report.status is ReportStatus.VERIFIED:
            assert end == "0"
            assert all(g.status is GoalStatus.PROVED for g in report.goals)
            summaries = _WP_SUMMARY_LINE.findall(report.raw_output)
            assert all(int(p) == int(n) for p, n in summaries[-1:])
        if report.status in (ReportStatus.TOOL_ERROR, ReportStatus.TIMEOUT):
            assert not report.cache_hit


# --------------------------------------------------------------------------
# result cache
# --------------------------------------------------------------------------

ENSURES_TIMES_OUT = """\
[wp] 3 goals scheduled
[wp] [Valid] typed_f_requires (Qed)
[wp] [Timeout] typed_f_ensures (Alt-Ergo)
[wp] [Valid] typed_f_assigns (Qed)
[wp] Proved goals:    2 / 3"""


def test_repeated_input_runs_the_tool_once(fake_framac, tmp_path):
    verifier = FramaCVerifier(fake_framac(LINE_BASED_FAILURE))
    first = verifier.verify(FakeProgram(), contract())
    spec = contract()  # equal, but other annotation objects
    again = verifier.verify(FakeProgram(), spec)
    assert tool_runs(tmp_path / "calls.log") == 1
    assert (first.cache_hit, again.cache_hit) == (False, True)
    assert again.wall_time == first.wall_time
    assert again.status is ReportStatus.FAILED
    assert again.goals == first.goals
    # a hit links goals to the caller's own annotations
    assert again.goals[0].source_annotation is spec.annotations[1]

    verifier.verify(FakeProgram(source="int f(int x) { return -x; }\n"), spec)
    verifier.settings.prover_timeout += 1
    verifier.verify(FakeProgram(), spec)
    assert tool_runs(tmp_path / "calls.log") == 3


@pytest.mark.parametrize("output, exit_code, sleep, status", [
    (ALL_VALID, 0, 3.0, ReportStatus.TIMEOUT),
    ("[kernel] user error: whatever", 1, 0.0, ReportStatus.TOOL_ERROR),
    (ENSURES_TIMES_OUT, 0, 0.0, ReportStatus.FAILED),
], ids=["wall-budget", "zero-goals", "goal-timeout"])
def test_results_a_retry_could_change_are_not_cached(fake_framac, tmp_path,
                                                     output, exit_code, sleep,
                                                     status):
    settings_ = fake_framac(output, exit_code, sleep)
    settings_.wall_budget = 0.3
    verifier = FramaCVerifier(settings_)
    reports = [verifier.verify(FakeProgram(), contract()) for _ in range(3)]
    assert [r.status for r in reports] == [status] * 3
    assert not any(r.cache_hit for r in reports)
    assert tool_runs(tmp_path / "calls.log") == 3


_LOOPY = ("int f(int x) {\n"
          "  int i = 0;\n"
          "  while (i < x) { i++; }\n"
          "  return i;\n"
          "}\n")
_PROGRAMS = (FakeProgram("p0", _LOOPY),
             FakeProgram("p1", "int g(int y) {\n  return y;\n}\n\n" + _LOOPY))
#: the stub fails a clause iff it holds the marker
_MARKER = "BAD"
_CLAUSES = (
    (K.REQUIRES, "requires x >= 0;", FunctionContract("f")),
    (K.ENSURES, "ensures \\result >= 0;", FunctionContract("f")),
    (K.ENSURES, "ensures \\result == BAD;", FunctionContract("f")),
    (K.LOOP_INVARIANT, "loop invariant 0 <= i;", Loop("f", 1)),
    (K.LOOP_INVARIANT, "loop invariant i <= BAD;", Loop("f", 1)),
    (K.LEMMA, "lemma l_BAD: \\true;", None),
    (K.PREDICATE, "predicate pos(integer v) = v > 0;", None),
)


@st.composite
def _call_sequences(draw):
    """Calls drawn from a pool of at most three inputs, so most repeat."""
    inputs = st.tuples(st.integers(0, len(_PROGRAMS) - 1),
                       st.lists(st.integers(0, len(_CLAUSES) - 1), unique=True))
    pool = draw(st.lists(inputs, min_size=1, max_size=3, unique_by=str))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
    return [pool[i] for i in picks]


def _spec(indices) -> SpecificationSet:
    """Fresh annotation objects for every call."""
    return SpecificationSet(
        Annotation(kind, text, anchor) if anchor else Annotation(kind, text)
        for kind, text, anchor in (_CLAUSES[i] for i in indices))


def _summary(report):
    return (report.status, [
        (g.goal_name, g.status,
         g.source_annotation,
         g.source_line) for g in report.goals])


@pytest.fixture(scope="module")
def quick_stub(wp_stub, tmp_path_factory):
    """The WP stub without its prover sleep, behind a wrapper that logs
    each invocation."""
    root = tmp_path_factory.mktemp("quick-stub")
    stub = root / "frama-c-stub"
    stub.write_text(re.sub(r"(?m)^PROVER_SECONDS=.*$", "PROVER_SECONDS=0",
                           wp_stub.read_text()))
    wrapper = root / "frama-c"
    wrapper.write_text(f"#!/bin/sh\necho \"$*\" >> {root / 'calls.log'}\n"
                       f"exec sh {stub} \"$@\"\n")
    wrapper.chmod(0o755)
    return FramaCSettings(executable=str(wrapper), wall_budget=30.0,
                          extra_args=("-stub-fail-marker", _MARKER)), root / "calls.log"


@settings(max_examples=25, deadline=None)
@given(calls=_call_sequences())
def test_cached_verifier_answers_as_a_fresh_one(calls, quick_stub):
    stub_settings, log = quick_stub
    cached = FramaCVerifier(stub_settings)
    before = tool_runs(log)
    for program, indices in calls:
        spec = _spec(indices)
        got = cached.verify(_PROGRAMS[program], spec)
        want = FramaCVerifier(stub_settings).verify(_PROGRAMS[program], _spec(indices))
        assert _summary(got) == _summary(want)
        assert all(any(g.source_annotation is a for a in spec.annotations)
                   for g in got.goals if g.source_annotation is not None)
    # every call ran the tool once for the fresh verifier; the cached one
    # ran it once per distinct woven program (two orders of one set of
    # clauses can weave alike), and again for each uncached ToolError
    tool_errors = sum(1 for _, indices in calls if not indices)
    distinct = {weave(_PROGRAMS[p].source, _spec(i)) for p, i in calls if i}
    assert tool_runs(log) - before == len(calls) + len(distinct) + tool_errors


def test_stub_grid_events_mark_cache_hits(toy_corpus, replay_oracle, wp_stub,
                                          tmp_path):
    plan = ExperimentPlan(configs=("CB",), paradigms=(Paradigm.DELETION,),
                          runs_per_cell=2, workers=1)
    verifier = FramaCVerifier(FramaCSettings(
        executable=str(wp_stub), wall_budget=30.0,
        # fails the toy world's bad ensures (`toyworld.BAD_ENSURES`)
        extra_args=("-stub-fail-marker", "424242")))
    records = run_experiment(plan, toy_corpus, replay_oracle, verifier,
                             tmp_path / "out")
    lines = [json.loads(line) for line in
             (tmp_path / "out" / "records.jsonl").read_text().splitlines()]
    for line in lines:   # the calls are stored as one JSON string
        line["verifier_calls"] = json.loads(line["verifier_calls"])
    assert sum(len(line["verifier_calls"]) for line in lines) == \
        sum(r.tool_calls for r in records)
    # run 2 repeats run 1's inputs, and is charged run 1's verifier time
    charged = {1: {}, 2: {}}
    for line in lines:
        for call in line["verifier_calls"]:
            assert call["cache_hit"] is (line["run_index"] == 2)
            charged[line["run_index"]][line["program_id"], call["attempt"]] = \
                call["elapsed"]
        # and the record's RT holds that charged time
        assert line["elapsed"] >= sum(
            call["elapsed"] for call in line["verifier_calls"]) - 1e-5
    assert charged[1] == charged[2]
