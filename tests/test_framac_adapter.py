"""Frama-C adapter tests against a stub executable that replays canned WP
console output, covering the subprocess path end to end."""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from specloop import (
    Annotation,
    ConstructKind,
    FramaCSettings,
    FramaCVerifier,
    FunctionContract,
    Loop,
    ReportStatus,
    SpecificationSet,
    extract_spec,
    map_failures_to_annotations,
    refine_delete,
    tie_break_annotation,
    weave,
)
from specloop.errors import UnmappableFailure, VerifierNotInstalled

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


@pytest.fixture()
def fake_framac(tmp_path):
    def make(output: str, exit_code: int = 0, sleep: float = 0.0) -> FramaCSettings:
        script = tmp_path / "frama-c-stub"
        script.write_text(
            "#!/bin/sh\n"
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
    assert requires.key() in remaining.keys()
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


def test_unparseable_output_with_nonzero_exit_is_tool_error(fake_framac):
    verifier = FramaCVerifier(fake_framac("[kernel] user error: whatever",
                                          exit_code=1))
    report = verifier.verify(FakeProgram(), contract())
    assert report.status is ReportStatus.TOOL_ERROR


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
