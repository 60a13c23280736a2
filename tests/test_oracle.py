from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specloop.oracle
from specloop import (
    ConstructKind,
    HttpChatOracle,
    HttpOracleSettings,
    OraclePhase,
    OracleRequest,
    ReplayOracle,
    ScriptedOracle,
    extract_spec,
    parse_annotations,
    weave,
)
from specloop.errors import (
    AcslError,
    EmptyCompletion,
    FixtureMissing,
    OracleUnavailable,
    UnparseableCompletion,
)

import strategies
import toyworld


def _generate(program_id="prog1", prompt="p", config_name="CB"):
    """The request that opens a run."""
    return OracleRequest(OraclePhase.GENERATE, program_id, config_name, 0, prompt)


# --------------------------------------------------------------------------
# extract_spec
# --------------------------------------------------------------------------

def test_extract_from_single_fenced_block():
    completion = (
        "Sure, here is the annotated program:\n"
        "```c\n"
        "/*@ requires x >= 0;\n"
        "    ensures \\result == x; */\n"
        "int f(int x) { return x; }\n"
        "```\n"
        "Hope this helps!\n"
    )
    spec = extract_spec(completion)
    assert len(spec) == 2
    assert spec.constr() == {ConstructKind.REQUIRES, ConstructKind.ENSURES}


def test_extract_prose_only_raises():
    with pytest.raises(EmptyCompletion):
        extract_spec("I could not produce a specification, sorry.")


def test_extract_merges_two_fenced_blocks_preserving_anchors():
    completion = (
        "First the helper lemma:\n"
        "```\n"
        "/*@ lemma helper: \\forall integer v; v <= v; */\n"
        "```\n"
        "And the contract:\n"
        "```c\n"
        "/*@ requires x >= 0;\n"
        "    ensures \\result >= 0; */\n"
        "int f(int x) { return x; }\n"
        "```\n"
    )
    spec = extract_spec(completion)
    expected = parse_annotations(
        "/*@ lemma helper: \\forall integer v; v <= v; */\n"
        "/*@ requires x >= 0;\n    ensures \\result >= 0; */\n"
        "int f(int x) { return x; }\n")
    assert spec == expected


def test_extract_bare_annotations_without_fence():
    completion = (
        "/*@ requires x >= 0; */\n"
        "int f(int x) { return x; }\n"
    )
    assert len(extract_spec(completion)) == 1


def test_extraction_idempotent_on_woven_source():
    bare = "int f(int x) {\n  return x;\n}\n"
    spec = parse_annotations(
        "/*@ requires x >= 1;\n    ensures \\result >= 1; */\n" + bare)
    woven = weave(bare, spec)
    assert extract_spec(woven) == parse_annotations(woven) == spec


# --------------------------------------------------------------------------
# replay oracle
# --------------------------------------------------------------------------

def test_replay_lookup_is_byte_stable(toy_corpus, replay_oracle):
    program = toy_corpus[0]
    first = replay_oracle.ask(_generate(program.id, "ignored prompt"))
    second = replay_oracle.ask(_generate(program.id, "ignored prompt"))
    assert first.raw_completion == second.raw_completion
    assert first.extracted == second.extracted
    assert len(first.extracted) >= 3


def test_replay_fixture_missing(tmp_path):
    oracle = ReplayOracle(tmp_path)
    with pytest.raises(FixtureMissing):
        oracle.ask(_generate())


def test_replay_reads_only_fixture_names_in_config_directories(tmp_path):
    cell = tmp_path / "prog1" / "CB"
    cell.mkdir(parents=True)
    for name in ("generate-0.txt", "repair-12.txt"):
        (cell / name).write_text(name, encoding="utf-8")
    for name in ("notes.txt", "generate-x.txt", "generate-1.md", "propose-0.txt",
                 "generate-1.txt.bak", "Generate-1.txt", "repair-1-2.txt"):
        (cell / name).write_text("stray", encoding="utf-8")
    # stray files where a program or config directory belongs
    (tmp_path / "generate-0.txt").write_text("stray", encoding="utf-8")
    (tmp_path / "prog1" / "generate-0.txt").write_text("stray", encoding="utf-8")
    (tmp_path / "prog1" / "CB" / "nested").mkdir()
    (tmp_path / "prog1" / "CB" / "nested" / "generate-1.txt").write_text("stray")
    oracle = ReplayOracle(tmp_path)
    assert oracle._fixtures == {
        ("prog1", "CB", "generate", 0): "generate-0.txt",
        ("prog1", "CB", "repair", 12): "repair-12.txt",
    }
    assert ReplayOracle(tmp_path / "absent")._fixtures == {}


def test_replay_repair_chain(toy_corpus, persona_dir, replay_oracle):
    flagged = [p for p in toy_corpus if toyworld.roles(toy_corpus)[p.id]["bad"]
               and not toyworld.roles(toy_corpus)[p.id]["never_fixed"]]
    program = flagged[0]
    initial = replay_oracle.ask(_generate(program.id, "p"))
    assert any(a.text == toyworld.BAD_ENSURES for a in initial.extracted)
    repaired = replay_oracle.ask(
        OracleRequest(OraclePhase.REPAIR, program.id, "CB", 1, "p"))
    assert all(a.text != toyworld.BAD_ENSURES for a in repaired.extracted)


# --------------------------------------------------------------------------
# extract_spec against the parser it replaced
# --------------------------------------------------------------------------

class _NoRegion(Exception):
    pass


def _ref_fenced_blocks(raw_completion):
    return [m.group(1) for m in re.finditer(r"```[^\n`]*\n(.*?)```",
                                            raw_completion, re.DOTALL)]


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet="`\nac", max_size=40)
       | st.lists(st.sampled_from(["```", "```c\n", "\n", "`", "``", "a", "c ", "\n```\n"]),
                  max_size=16).map("".join))
def test_fenced_blocks_are_those_of_the_lazy_fence_regex(text):
    assert specloop.oracle._fenced_blocks(text) == _ref_fenced_blocks(text)


def _ref_spec(raw_completion):
    blocks = _ref_fenced_blocks(raw_completion)
    if blocks:
        text = "\n".join(blocks)
    elif "/*@" in raw_completion or "//@" in raw_completion:
        text = raw_completion
    else:
        raise _NoRegion("completion contains no annotation region")
    spec = parse_annotations(text, file="<completion>")
    if not spec:
        raise _NoRegion("no annotations found in completion")
    return spec


def _ref_extract(raw_completion):
    """The completion parser as it was when the oracle mapped the parser's
    errors to its own: a reference for `extract_spec`."""
    try:
        raw_completion.encode("utf-8")
        return _ref_spec(raw_completion)
    except UnicodeEncodeError as exc:
        raise UnparseableCompletion(f"not UTF-8: {exc}") from None
    except _NoRegion as exc:
        raise EmptyCompletion(str(exc)) from exc
    except AcslError as exc:
        raise UnparseableCompletion(f"{type(exc).__name__}: {exc}") from exc


def _result(parse, text):
    try:
        return parse(text).annotations
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(text=strategies.completions())
def test_extract_spec_gives_what_the_reference_parser_gives(text):
    assert _result(extract_spec, text) == _result(_ref_extract, text)


# --------------------------------------------------------------------------
# which oracles keep parsed specs
# --------------------------------------------------------------------------

_SPEC_A = "```c\n/*@ requires x > 0; */\nint f(int x) { return x; }\n```"
_SPEC_B = "```c\n/*@ ensures \\result > 0; */\nint f(int x) { return x; }\n```"


@pytest.fixture()
def parses(monkeypatch):
    """Counts extract_spec calls made by the oracles."""
    seen = []

    def counting(raw_completion):
        seen.append(raw_completion)
        return extract_spec(raw_completion)
    monkeypatch.setattr(specloop.oracle, "extract_spec", counting)
    return seen


def _scripted(*completions):
    answers = iter(completions)
    return ScriptedOracle(lambda request: next(answers))


def _persona(root, fixtures):
    """A replay persona for program prog1 under CB: file name stem -> text."""
    cell = root / "prog1" / "CB"
    cell.mkdir(parents=True)
    for stem, text in fixtures.items():
        (cell / f"{stem}.txt").write_text(text, encoding="utf-8")
    return root


def _repair(oracle, attempt):
    return oracle.ask(OracleRequest(OraclePhase.REPAIR, "prog1", "CB", attempt, "p"))


def test_each_distinct_completion_is_parsed_once_per_instance(parses,
                                                              tmp_path):
    root = _persona(tmp_path, {"generate-0": _SPEC_A, "repair-1": _SPEC_A,
                               "repair-2": _SPEC_B})
    oracle = ReplayOracle(root)
    assert parses == []     # parsed on first use, not when the files are read
    responses = [oracle.ask(_generate()),
                 _repair(oracle, 1), _repair(oracle, 2), _repair(oracle, 1)]
    assert parses == [_SPEC_A, _SPEC_B]
    for text, response in zip([_SPEC_A, _SPEC_A, _SPEC_B, _SPEC_A], responses):
        assert response.raw_completion == text
        assert response.extracted == extract_spec(text)
    # two files with equal text share one spec, each in a response of its own
    assert responses[1].extracted is responses[0].extracted
    assert responses[3] is not responses[1]
    # another instance keeps its own specs
    again = ReplayOracle(root).ask(_generate())
    assert parses == [_SPEC_A, _SPEC_B, _SPEC_A]
    assert again.extracted is not responses[0].extracted


def test_a_scripted_oracle_parses_every_completion(parses):
    # copies, so a test of identity cannot rest on the string
    texts = [_SPEC_A, _SPEC_B, "".join(_SPEC_A), "".join(_SPEC_A),
             "".join(_SPEC_B)]
    oracle = _scripted(*texts)
    responses = [oracle.ask(_generate())
                 for _ in texts]
    assert parses == texts
    for text, response in zip(texts, responses):
        assert response.raw_completion is text
        assert response.extracted == extract_spec(text)
    assert responses[2].extracted is not responses[0].extracted


@pytest.mark.parametrize("completion, error", [
    ("no annotations here", EmptyCompletion),
    ("```c\n```", EmptyCompletion),
    ("```c\n/*@ requires x >= 0 */\nint f(int x) { return x; }\n```",
     UnparseableCompletion),
])
def test_a_completion_that_fails_to_parse_fails_every_time(parses, tmp_path,
                                                           completion, error):
    oracle = ReplayOracle(_persona(tmp_path, {"repair-1": completion}))
    raised = []
    for _ in range(3):
        with pytest.raises(error) as info:
            _repair(oracle, 1)
        raised.append((type(info.value), str(info.value)))
    assert len(set(raised)) == 1
    assert parses == [completion] * 3


def test_an_oracle_that_skips_the_base_init_parses_every_call(parses):
    class Bare(specloop.oracle.Oracle):
        def __init__(self):
            self.calls = 0

        def complete(self, request):
            self.calls += 1
            return _SPEC_A

    oracle = Bare()
    first = oracle.ask(_generate())
    second = oracle.ask(_generate())
    assert oracle.calls == 2 and parses == [_SPEC_A, _SPEC_A]
    assert second.extracted == first.extracted
    assert second.extracted is not first.extracted


def _outcome(oracle):
    try:
        return oracle.ask(_generate()).extracted
    except Exception as exc:
        return type(exc), str(exc)


#: no persona is read from here; a test sets the fixtures in memory, since a
#: lone surrogate cannot be written to a file
_NO_PERSONA = Path(__file__).parent / "fixtures" / "no-such-persona"


@settings(max_examples=300, deadline=None)
@given(text=strategies.completions())
def test_a_repeated_completion_gives_what_a_fresh_parse_gives(text):
    oracle = ReplayOracle(_NO_PERSONA)
    oracle._fixtures[("prog1", "CB", "generate", 0)] = text
    _outcome(oracle)
    second = _outcome(oracle)
    fresh = _outcome(ScriptedOracle(lambda request: text))
    if isinstance(second, tuple):
        assert second == fresh
    else:
        assert second.annotations == extract_spec(text).annotations
        assert second.annotations == fresh.annotations


# --------------------------------------------------------------------------
# scripted oracle
# --------------------------------------------------------------------------

def test_scripted_oracle_digit_sum_figure(annotated_dir):
    figure_source = (annotated_dir / "digit_sum_verifiable.c").read_text()
    oracle = ScriptedOracle(lambda request: f"```c\n{figure_source}\n```")
    response = oracle.ask(_generate("digit_sum", config_name="CV"))
    kinds = response.extracted.constr()
    assert ConstructKind.LOGIC in kinds and ConstructKind.LEMMA in kinds


def test_scripted_empty_completion_maps_to_error():
    oracle = ScriptedOracle(lambda request: "no annotations here")
    with pytest.raises(EmptyCompletion):
        oracle.ask(_generate())


def test_request_carries_phase_and_attempt():
    seen: list[OracleRequest] = []

    def script(request: OracleRequest) -> str:
        seen.append(request)
        return "```c\n/*@ requires x >= 0; */\nint f(int x) { return x; }\n```"

    oracle = ScriptedOracle(script)
    oracle.ask(_generate(prompt="p1"))
    oracle.ask(OracleRequest(OraclePhase.REPAIR, "prog1", "CB", 2, "p2"))
    assert seen[0].phase is OraclePhase.GENERATE and seen[0].attempt_index == 0
    assert seen[1].phase is OraclePhase.REPAIR and seen[1].attempt_index == 2
    assert seen[1].prompt == "p2"


# --------------------------------------------------------------------------
# live oracle transport
# --------------------------------------------------------------------------

class _DownSession:
    def __init__(self):
        self.posts = 0

    def post(self, *args, **kwargs):
        self.posts += 1
        raise ConnectionError("transport down")


class _GoodSession:
    def __init__(self, content):
        self.content = content

    def post(self, url, json=None, headers=None, timeout=None):
        class R:
            status_code = 200

            def json(inner):
                return {"choices": [{"message": {"content": self.content}}]}
        return R()


class _ScriptedSession:
    """Answers each post with the next (status, body) pair; a body of
    None makes that post a transport failure."""

    def __init__(self, *replies):
        self.replies = list(replies)
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        status, body = self.replies.pop(0)
        if body is None:
            raise ConnectionError("transport down")

        class R:
            status_code = status

            def json(inner):
                return body
        return R()


_CHAT_OK = {"choices": [{"message": {"content": "```c\n/*@ requires x > 0; */\n"
                                                "int f(int x) { return x; }\n```"}}]}


@pytest.fixture()
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr("specloop.oracle.time.sleep", slept.append)
    return slept


def _http_oracle(session, retries=3):
    return HttpChatOracle(
        HttpOracleSettings(base_url="http://api.invalid/v1", model="m",
                           retries=retries, backoff=0.5),
        session=session)


def test_transport_down_gives_oracle_unavailable_after_retries(sleeps):
    session = _DownSession()
    with pytest.raises(OracleUnavailable):
        _http_oracle(session, retries=4).ask(_generate())
    assert session.posts == 4
    assert sleeps == [0.5, 1.0, 2.0]


def test_http_client_error_is_not_retried(sleeps):
    session = _ScriptedSession((401, {"error": "bad key"}))
    with pytest.raises(OracleUnavailable, match="401"):
        _http_oracle(session).ask(_generate())
    assert session.posts == 1 and sleeps == []


def test_http_malformed_body_is_not_retried(sleeps):
    session = _ScriptedSession((200, {"choices": []}), (200, _CHAT_OK))
    with pytest.raises(OracleUnavailable, match="malformed"):
        _http_oracle(session).ask(_generate())
    assert session.posts == 1 and sleeps == []


@pytest.mark.parametrize("content", [
    5, None, [{"type": "text", "text": _CHAT_OK["choices"][0]["message"]["content"]}],
])
def test_http_content_that_is_not_text_is_malformed(sleeps, content):
    session = _ScriptedSession(
        (200, {"choices": [{"message": {"content": content}}]}), (200, _CHAT_OK))
    with pytest.raises(OracleUnavailable, match="malformed oracle response"):
        _http_oracle(session).ask(_generate())
    assert session.posts == 1 and sleeps == []


@pytest.mark.parametrize("setting", [
    {"retries": 0}, {"backoff": -1.0}, {"backoff": float("nan")},
    {"max_tokens": 0}, {"timeout": 0.0}, {"timeout": -5.0},
])
def test_http_settings_out_of_range_are_refused(setting):
    with pytest.raises(ValueError, match="oracle settings need"):
        HttpOracleSettings(base_url="http://api.invalid/v1", model="m", **setting)


def test_http_server_errors_are_retried(sleeps):
    session = _ScriptedSession((503, {}), (503, {}), (200, _CHAT_OK))
    response = _http_oracle(session).ask(_generate())
    assert len(response.extracted) == 1
    assert session.posts == 3 and sleeps == [0.5, 1.0]


def test_http_rate_limit_is_retried(sleeps):
    session = _ScriptedSession((429, {}), (200, _CHAT_OK))
    _http_oracle(session).ask(_generate())
    assert session.posts == 2 and sleeps == [0.5]


def test_http_oracle_happy_path():
    completion = "```c\n/*@ requires x > 0; */\nint f(int x) { return x; }\n```"
    oracle = HttpChatOracle(
        HttpOracleSettings(base_url="http://api.invalid/v1", model="m"),
        session=_GoodSession(completion))
    response = oracle.ask(_generate())
    assert len(response.extracted) == 1
    assert response.latency >= 0


def test_http_oracle_empty_completion():
    oracle = HttpChatOracle(
        HttpOracleSettings(base_url="http://api.invalid/v1", model="m"),
        session=_GoodSession("   "))
    with pytest.raises(EmptyCompletion):
        oracle.ask(_generate())
