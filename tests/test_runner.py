from __future__ import annotations

import gc
import json
import operator
import re
import shutil
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specloop
import specloop.cli
from specloop import (
    Annotation,
    ConstructKind,
    ExperimentPlan,
    FramaCSettings,
    FramaCVerifier,
    FunctionContract,
    HttpChatOracle,
    HttpOracleSettings,
    Loop,
    MockVerifier,
    OraclePhase,
    Paradigm,
    Program,
    ReplayOracle,
    RunLimits,
    RunOutcome,
    RunRecord,
    ScriptedOracle,
    SpecificationSet,
    TemplateStore,
    load_dataset,
    run_experiment,
)
from specloop.acsl import UNPLACED
from specloop.cli import main as cli_main
from specloop.config import BUNDLED_TEMPLATES
from specloop.refine import JSON_LINE
from specloop.runner import RecordStore

import strategies
import toyworld
from specloop.errors import (
    CorpusError,
    CorruptRecords,
    DuplicateId,
    EmptyCorpus,
    MalformedAnnotation,
    MissingTemplate,
    SpecloopError,
    UnknownConfiguration,
)


# --------------------------------------------------------------------------
# dataset loading
# --------------------------------------------------------------------------

def test_load_toy_corpus(toy_corpus):
    assert len(toy_corpus) == 10
    assert [p.id for p in toy_corpus] == sorted(p.id for p in toy_corpus)
    categories = {p.category for p in toy_corpus}
    assert categories == {"arithmetic", "arrays", "comparison", "loops"}


def test_load_empty_directory(tmp_path):
    with pytest.raises(EmptyCorpus):
        load_dataset(tmp_path)


def test_duplicate_id_across_categories(tmp_path):
    for category in ("a", "b"):
        d = tmp_path / category
        d.mkdir()
        (d / "same.c").write_text("int same(void) { return 0; }\n")
    with pytest.raises(DuplicateId):
        load_dataset(tmp_path)


def test_a_program_that_is_not_utf8_is_a_corpus_error_naming_it(tmp_path, capsys):
    d = tmp_path / "corpus" / "cat"
    d.mkdir(parents=True)
    (d / "prog.c").write_bytes("int f(int x) { return x; } /* café */\n"
                               .encode("latin-1"))
    with pytest.raises(CorpusError, match="can't decode byte 0xe9") as caught:
        load_dataset(tmp_path / "corpus")
    assert str(d / "prog.c") in str(caught.value)
    out = tmp_path / "out"
    assert cli_main(["run", "--dataset", str(tmp_path / "corpus"),
                     "--oracle", str(tmp_path), "--verifier", "mock",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: program {d / 'prog.c'}: ")
    assert not out.exists()


@pytest.mark.parametrize("source,message", [
    ("int f(int n) { if (n) { return n; }\n", "unbalanced '{' at offset 13"),
    ("int f(int n) { return n; }\n/* open\n", "unterminated comment at offset 27"),
])
def test_a_program_the_layout_scan_rejects_is_a_corpus_error_naming_it(
        tmp_path, capsys, source, message):
    d = tmp_path / "corpus" / "cat"
    d.mkdir(parents=True)
    (d / "prog.c").write_text(source)
    with pytest.raises(CorpusError, match=re.escape(message)) as caught:
        load_dataset(tmp_path / "corpus")
    assert str(d / "prog.c") in str(caught.value)
    out = tmp_path / "out"
    assert cli_main(["run", "--dataset", str(tmp_path / "corpus"),
                     "--oracle", str(tmp_path), "--verifier", "mock",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: program {d / 'prog.c'}: {message}\n"
    assert not out.exists()
    # a Program built in code raises the scan's own error, as before
    with pytest.raises(MalformedAnnotation, match=re.escape(message)):
        Program("prog", source, "cat")


def test_a_program_must_define_a_function():
    with pytest.raises(CorpusError, match="program 'x': no function definition found"):
        Program("x", "int v = 0;", "c")


def test_a_program_with_no_function_is_a_corpus_error(tmp_path, capsys):
    d = tmp_path / "corpus" / "cat"
    d.mkdir(parents=True)
    (d / "prog.c").write_text("int v = 0;\n")
    with pytest.raises(CorpusError, match="program 'prog': no function definition found"):
        load_dataset(tmp_path / "corpus")
    out = tmp_path / "out"
    assert cli_main(["run", "--dataset", str(tmp_path / "corpus"),
                     "--oracle", str(tmp_path), "--verifier", "mock",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: program 'prog': no function definition found\n")
    assert not out.exists()


def test_a_file_beside_a_program_is_not_read(tmp_path):
    d = tmp_path / "cat"
    d.mkdir()
    (d / "prog.c").write_text("int f(void) { return 0; }\n")
    (d / "prog.json").write_text("not json")
    [program] = load_dataset(tmp_path)
    assert (program.id, program.category) == ("prog", "cat")


@pytest.mark.parametrize("manifest", [False, True])
def test_load_dataset_scans_each_program_once(tmp_path, monkeypatch, manifest):
    # a leftover <id>.json beside a program is ignored and costs no scan
    d = tmp_path / "cat"
    d.mkdir()
    for name in ("one", "two"):
        (d / f"{name}.c").write_text(
            "int helper(void) { return 1; }\nint last(void) { return helper(); }\n")
        if manifest:
            (d / f"{name}.json").write_text(json.dumps({"target_function": "helper"}))
    scans = []
    scan = specloop.acsl._scan_layout
    monkeypatch.setattr(specloop.acsl, "_scan_layout",
                        lambda masked: scans.append(masked) or scan(masked))
    calls = []
    declared = specloop.runner.declared_functions
    monkeypatch.setattr(specloop.runner, "declared_functions",
                        lambda source: calls.append(source) or declared(source))
    assert [p.id for p in load_dataset(tmp_path)] == ["one", "two"]
    assert len(scans) == len(calls) == 2


def test_load_full_scale_corpus_shape(tmp_path):
    # same shape as the reference benchmark: 49 programs over 8 categories
    categories = [f"cat{i}" for i in range(8)]
    count = 0
    for i in range(49):
        d = tmp_path / categories[i % 8]
        d.mkdir(exist_ok=True)
        (d / f"prog{i:02d}.c").write_text(
            f"int prog{i:02d}(int x) {{ return x + {i}; }}\n")
        count += 1
    corpus = load_dataset(tmp_path)
    assert len(corpus) == 49
    assert len({p.category for p in corpus}) == 8
    assert [p.id for p in corpus] == sorted(p.id for p in corpus)
    # full reference grid: 49 programs x 4 configs x 2 paradigms x 5 runs
    assert len(ExperimentPlan().cells(corpus)) == 1960
    one_cell = ExperimentPlan(configs=("CB",), paradigms=(Paradigm.DELETION,))
    assert len(one_cell.cells(corpus)) == 245


# --------------------------------------------------------------------------
# grid execution
# --------------------------------------------------------------------------

def little_plan(**kw):
    defaults = dict(configs=("CB", "CV"), paradigms=(Paradigm.DELETION,),
                    runs_per_cell=2, limits=RunLimits(max_repair_iterations=3))
    defaults.update(kw)
    return ExperimentPlan(**defaults)


def test_grid_size_and_completeness(toy_corpus, replay_oracle, rule_verifier):
    plan = little_plan()
    records = run_experiment(plan, toy_corpus, replay_oracle, rule_verifier)
    assert len(records) == 10 * 2 * 1 * 2
    keys = {(r.program_id, r.config_name, r.paradigm, r.run_index)
            for r in records}
    assert len(keys) == len(records)
    assert all(r.run_index in (1, 2) for r in records)


def test_full_plan_sample_counts(toy_corpus, replay_oracle, rule_verifier):
    plan = ExperimentPlan(runs_per_cell=5)
    records = run_experiment(plan, toy_corpus, replay_oracle, rule_verifier)
    assert len(records) == 10 * 4 * 2 * 5
    one_cell = [r for r in records
                if r.config_name == "CB" and r.paradigm is Paradigm.DELETION]
    assert len(one_cell) == 50


def _bundled_templates_copy(tmp_path) -> Path:
    return Path(shutil.copytree(Path(specloop.__file__).parent / "templates",
                                tmp_path / "templates"))


def test_a_missing_planned_template_fails_before_any_cell(
        toy_corpus, replay_oracle, rule_verifier, tmp_path):
    root = _bundled_templates_copy(tmp_path)
    (root / "repair-CB.txt").unlink()
    templates = TemplateStore(root)
    with pytest.raises(MissingTemplate, match="repair-CB.txt"):
        little_plan(configs=("CB",), templates=templates,
                    paradigms=(Paradigm.DELETION, Paradigm.MODIFICATION))
    # deletion never repairs, so it needs no repair template
    plan = little_plan(configs=("CB",), templates=templates)
    records = run_experiment(plan, toy_corpus, replay_oracle, rule_verifier)
    assert len(records) == 20


def test_the_plan_s_templates_fill_every_prompt(
        toy_corpus, replay_oracle, rule_verifier, tmp_path):
    root = _bundled_templates_copy(tmp_path)
    for path in root.glob("*-CB.txt"):
        path.write_text("ours " + path.read_text(encoding="utf-8"), encoding="utf-8")
    requests = []

    def script(request):
        requests.append(request)
        return replay_oracle.complete(request)

    plan = little_plan(configs=("CB",), paradigms=tuple(Paradigm),
                       runs_per_cell=1, templates=TemplateStore(root))
    run_experiment(plan, toy_corpus, ScriptedOracle(script), rule_verifier)
    assert {r.phase for r in requests} == set(OraclePhase)
    assert all(r.prompt.startswith("ours ") for r in requests)


def test_cli_refuses_a_missing_planned_template_before_writing_anything(
        tmp_path, capsys):
    templates = _bundled_templates_copy(tmp_path)
    (templates / "repair-CB.txt").unlink()
    persona = tmp_path / "persona"
    persona.mkdir()
    out = tmp_path / "out"
    code = cli_main([
        "run", "--dataset", str(Path(__file__).parent / "fixtures" / "toy_corpus"),
        "--runs", "1", "--configs", "CB", "--oracle", str(persona),
        "--verifier", "mock", "--templates", str(templates), "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "repair-CB.txt" in err
    assert not out.exists()


def test_resumability(toy_corpus, replay_oracle, tmp_path):
    plan = little_plan()
    out = tmp_path / "out"

    # first execution persists everything
    run_experiment(plan, toy_corpus, replay_oracle,
                   MockVerifier(always_failing=toyworld.ALWAYS_FAILING), out)
    store = RecordStore(out / "records.jsonl")
    first = store.load()
    assert len(first) == 40

    # drop the tail and restart: only the missing cells run again
    lines = (out / "records.jsonl").read_text().strip().split("\n")
    (out / "records.jsonl").write_text("\n".join(lines[:25]) + "\n")

    class CountingOracle(ReplayOracle):
        def __init__(self, inner):
            super().__init__(inner.root)
            self.calls = 0

        def complete(self, request):
            self.calls += 1
            return super().complete(request)

    counting = CountingOracle(replay_oracle)
    records = run_experiment(plan, toy_corpus, counting,
                             MockVerifier(always_failing=toyworld.ALWAYS_FAILING),
                             out)
    assert len(records) == 40
    assert len(store.load()) == 40
    # 15 missing cells, each needing at least a propose call
    assert counting.calls >= 15
    assert counting.calls <= 15 * (1 + plan.limits.max_repair_iterations)


def torn(line: str) -> str:
    """The part of a record line a crash mid-append leaves behind."""
    return line[: len(line) // 2]


def test_resume_reruns_the_cell_of_a_torn_last_line(toy_corpus, replay_oracle,
                                                     tmp_path):
    plan = little_plan()
    out = tmp_path / "out"
    verifier = MockVerifier(always_failing=toyworld.ALWAYS_FAILING)
    first = run_experiment(plan, toy_corpus, replay_oracle, verifier, out)
    path = out / "records.jsonl"
    lines = path.read_text().strip().split("\n")
    path.write_text("\n".join(lines[:25]) + "\n" + torn(lines[25]))

    records = run_experiment(plan, toy_corpus, replay_oracle, verifier, out)
    assert len(records) == 40
    reloaded = RecordStore(path).load()
    assert len(path.read_text().splitlines()) == len(reloaded) == 40
    keys = {(r.program_id, r.config_name, r.paradigm, r.run_index)
            for r in reloaded}
    assert keys == {(r.program_id, r.config_name, r.paradigm, r.run_index)
                    for r in first}


def test_load_keeps_a_complete_last_line_without_newline(tmp_path, toy_corpus,
                                                         replay_oracle,
                                                         rule_verifier):
    plan = little_plan(configs=("CB",), runs_per_cell=1)
    records = run_experiment(plan, toy_corpus[:2], replay_oracle, rule_verifier)
    store = RecordStore(tmp_path / "records.jsonl")
    store.append(records[0], [])
    store.close()
    store.path.write_text(store.path.read_text().rstrip("\n"))
    want = [r.to_dict() for r in records]
    assert [r.to_dict() for r in store.load()] == want[:1]
    again = RecordStore(store.path)
    again.append(records[1], [])
    again.close()
    assert [r.to_dict() for r in RecordStore(store.path).load()] == want


def test_store_holds_its_files_open_and_flushes_each_append(
        tmp_path, toy_corpus, replay_oracle, rule_verifier):
    plan = little_plan(configs=("CB",), runs_per_cell=1)
    records = run_experiment(plan, toy_corpus[:2], replay_oracle, rule_verifier)
    calls = [[{"attempt": 0, "status": "Verified"}], []]
    lines = [json.dumps({**r.to_dict(),
                         "verifier_calls": json.dumps(c, sort_keys=True)},
                        sort_keys=True) + "\n"
             for r, c in zip(records, calls)]
    store = RecordStore(tmp_path / "records.jsonl")
    store.append(records[0], calls[0])
    assert store.path.read_text() == lines[0]
    store.append(records[1], calls[1])
    assert store.path.read_text() == lines[0] + lines[1]
    store.close()
    # closed: the next append opens the file again
    store.append(records[0], calls[0])
    store.close()
    assert store.path.read_text() == lines[0] + lines[1] + lines[0]


def test_run_experiment_leaves_no_file_open(tmp_path, toy_corpus,
                                            replay_oracle, rule_verifier):
    plan = little_plan(configs=("CB",), runs_per_cell=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        run_experiment(plan, toy_corpus[:2], replay_oracle, rule_verifier,
                       tmp_path / "out")
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_bad_line_followed_by_good_lines_raises(tmp_path, toy_corpus,
                                                replay_oracle, rule_verifier):
    plan = little_plan(configs=("CB",), runs_per_cell=1)
    records = run_experiment(plan, toy_corpus[:2], replay_oracle, rule_verifier)
    lines = [json.dumps(r.to_dict(), sort_keys=True) for r in records]
    path = tmp_path / "records.jsonl"
    path.write_text(torn(lines[0]) + "\n" + lines[1] + "\n")
    with pytest.raises(ValueError):
        RecordStore(path).load()


def test_records_roundtrip_through_store(toy_corpus, replay_oracle,
                                          rule_verifier, tmp_path):
    plan = little_plan(runs_per_cell=1)
    out = tmp_path / "out"
    records = run_experiment(plan, toy_corpus, replay_oracle, rule_verifier, out)
    loaded = RecordStore(out / "records.jsonl").load()
    assert len(loaded) == len(records)
    by_key = {(r.program_id, r.config_name, r.paradigm, r.run_index): r
              for r in loaded}
    for record in records:
        twin = by_key[(record.program_id, record.config_name,
                       record.paradigm, record.run_index)]
        assert twin.outcome == record.outcome
        assert twin.tool_calls == record.tool_calls
        # reports built in the run and from the file must see the same times
        assert twin.elapsed == record.elapsed
        assert twin.final_spec == record.final_spec


def test_one_load_builds_each_distinct_stored_annotation_once(
        toy_corpus, replay_oracle, rule_verifier, tmp_path):
    out = tmp_path / "out"
    run_experiment(little_plan(), toy_corpus, replay_oracle, rule_verifier, out)
    store = RecordStore(out / "records.jsonl")
    loaded = [a for r in store.load() for a in r.final_spec]
    distinct = set(loaded)
    assert len(distinct) < len(loaded)   # the grid repeats annotations
    assert len({id(a) for a in loaded}) == len(distinct)
    # the sharing lives only for one load
    again = {id(a) for r in store.load() for a in r.final_spec}
    assert again.isdisjoint(id(a) for a in distinct)


def _stored(*annotations: Annotation, run_index: int = 1) -> RunRecord:
    return RunRecord("p", "CB", Paradigm.DELETION, run_index, True,
                     RunOutcome.VERIFIED, 1, 0.0, 0, SpecificationSet(annotations))


def test_a_load_keeps_equal_texts_under_other_anchors_apart(tmp_path):
    K = ConstructKind
    requires, invariant = "requires x >= 0;", "loop invariant 0 <= i;"
    records = [
        _stored(Annotation(K.REQUIRES, requires, FunctionContract("f")),
                Annotation(K.LOOP_INVARIANT, invariant, Loop("f", 1))),
        _stored(Annotation(K.REQUIRES, requires, FunctionContract("g")),
                Annotation(K.LOOP_INVARIANT, invariant, Loop("f", 2)),
                Annotation(K.LOOP_INVARIANT, invariant, Loop("g", 1)),
                run_index=2),
    ]
    store = RecordStore(tmp_path / "records.jsonl")
    for record in records:
        store.append(record, [])
    store.close()
    loaded = store.load()
    assert loaded == records
    annotations = [a for r in loaded for a in r.final_spec]
    assert len(set(annotations)) == len({id(a) for a in annotations}) == 5


def test_an_unknown_stored_construct_raises_at_load(tmp_path):
    line = _stored(Annotation(ConstructKind.REQUIRES, "requires x >= 0;",
                              FunctionContract("f"))).to_dict()
    path = tmp_path / "records.jsonl"
    # the array form, and the object form of older lines
    for stored in (["presumes", "requires x >= 0;", "f"],
                   _legacy("presumes", "requires x >= 0;", kind="function",
                           function="f")):
        path.write_text(JSON_LINE.encode(line | {"final_spec": [stored]}) + "\n")
        with pytest.raises(ValueError, match="presumes"):
            RecordStore(path).load()


def _legacy(construct: str, text: str, **anchor) -> dict:
    """An annotation in the object form lines held before the array form."""
    return {"construct": construct, "text": text, "anchor": anchor}


def _annotation_to_dict(a: Annotation) -> dict:
    """The object form of an annotation: the writer of older record lines,
    kept as the reference the array form must load alike with."""
    if isinstance(a.anchor, FunctionContract):
        anchor = {"kind": "function", "function": a.anchor.function}
    elif isinstance(a.anchor, Loop):
        anchor = {"kind": "loop", "function": a.anchor.function,
                  "ordinal": a.anchor.ordinal}
    else:
        anchor = {"kind": "global"}
    return {"construct": a.kind.keyword, "text": a.text, "anchor": anchor}


def _legacy_line(record: RunRecord, calls: list[dict]) -> str:
    """A record line as written before annotations were stored as arrays
    and verifier calls as a JSON string."""
    return JSON_LINE.encode({
        **record.to_dict(),
        "final_spec": [_annotation_to_dict(a) for a in record.final_spec],
        "verifier_calls": calls}) + "\n"


_INVARIANT = ["loop invariant", "loop invariant 0 <= i;", "f", 1]


@pytest.mark.parametrize("field, value, error", [
    # a resume looks a cell up by these; a string run index would re-run it
    ("run_index", "1", "TypeError: run_index '1' is not of type int"),
    ("run_index", True, "TypeError: run_index True is not of type int"),
    ("program_id", 7, "TypeError: program_id 7 is not of type str"),
    ("config", None, "TypeError: config None is not of type str"),
    ("compliant", 1, "TypeError: compliant 1 is not of type bool"),
    ("tool_calls", "2", "TypeError: tool_calls '2' is not of type int"),
    ("elapsed", "0.5", "TypeError: elapsed '0.5' is not a number"),
    ("error", 5, "TypeError: elapsed 0.0 is not a number, or error 5"),
    # the object form of older lines
    ("final_spec", [_legacy("predicate", "predicate p = \\true;", kind="lop")],
     "ValueError: unknown anchor kind 'lop'"),
    ("final_spec", [_legacy(*_INVARIANT[:2], kind="loop", function=7, ordinal="two")],
     "TypeError: anchor function 7 is not a string"),
    ("final_spec", [_legacy(*_INVARIANT[:2], kind="loop", function="f", ordinal="two")],
     "TypeError: loop ordinal 'two' is not an int"),
    ("final_spec", [_legacy("requires", "requires x >= 0;", kind="function",
                            function=None)],
     "TypeError: anchor function None is not a string"),
    # the array form
    ("final_spec", [["requires"]], "TypeError: a stored annotation holds 2 to 4 items, not 1"),
    ("final_spec", [[*_INVARIANT, 2]], "TypeError: a stored annotation holds 2 to 4 items, not 5"),
    ("final_spec", [["requires", 5, "f"]], "TypeError: annotation text 5 is not a string"),
    ("final_spec", [["requires", "requires x >= 0;", 7]],
     "TypeError: anchor function 7 is not a string"),
    ("final_spec", [["requires", "requires x >= 0;"]],
     "ValueError: requires annotations must anchor to a function"),
    ("final_spec", [[*_INVARIANT[:3], "two"]], "TypeError: loop ordinal 'two' is not an int"),
    # after an equal annotation with ordinal 1, whose stored key these equal
    ("final_spec", [_INVARIANT, [*_INVARIANT[:3], True]],
     "TypeError: loop ordinal True is not an int"),
    ("final_spec", [_INVARIANT, [*_INVARIANT[:3], 1.0]],
     "TypeError: loop ordinal 1.0 is not an int"),
])
def test_a_stored_value_of_the_wrong_type_raises_naming_its_line(tmp_path, field,
                                                                 value, error):
    good = _stored(Annotation(ConstructKind.LOOP_INVARIANT, _INVARIANT[1],
                              Loop("f", 1))).to_dict()
    path = tmp_path / "records.jsonl"
    path.write_text(JSON_LINE.encode(good) + "\n"
                    + JSON_LINE.encode(good | {field: value}) + "\n")
    with pytest.raises(CorruptRecords) as info:
        RecordStore(path).load()
    assert str(info.value).startswith(f"{path}, line 2: not a run record ({error}")


_RECORDS = st.builds(
    RunRecord,
    program_id=st.text(max_size=8),
    config_name=st.sampled_from(["CB", "CV", "CA", "CF"]),
    paradigm=st.sampled_from(Paradigm),
    run_index=st.integers(1, 9),
    compliant=st.booleans(),
    outcome=st.sampled_from(RunOutcome),
    tool_calls=st.integers(0, 20),
    # rounded as the store rounds it
    elapsed=st.floats(0, 1e4).map(lambda t: round(t, 6)),
    iterations=st.integers(0, 20),
    final_spec=strategies.specs(),
    error=st.none() | st.text(max_size=8),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_RECORDS, st.booleans()), max_size=6))
def test_stored_records_load_equal_sharing_equal_annotations(drawn):
    calls = [{"attempt": 0, "status": "Verified"}]
    with tempfile.TemporaryDirectory() as tmp:
        store = RecordStore(Path(tmp) / "records.jsonl")
        with store.path.open("a") as older:   # lines as older writers left them
            for record, legacy in drawn:
                if legacy:
                    older.write(_legacy_line(record, calls))
        for record, legacy in drawn:
            if not legacy:
                store.append(record, calls)
        store.close()
        loaded = store.load()
    want = ([r for r, legacy in drawn if legacy]
            + [r for r, legacy in drawn if not legacy])
    assert loaded == want
    for got, record in zip(loaded, want):
        assert got.final_spec.annotations == record.final_spec.annotations
        assert [a.span for a in got.final_spec] == [UNPLACED] * len(got.final_spec)
    annotations = [a for r in loaded for a in r.final_spec]
    assert len({id(a) for a in annotations}) == len(set(annotations))


#: a record's run key, as it is stored
_RUN_OF = operator.attrgetter("program_id", "config_name", "paradigm.value", "run_index")


#: a toy-corpus grid (CB and CV, both paradigms, one run per cell) and its
#: summary, as written before annotations were stored as arrays and
#: verifier calls as a JSON string; never rewritten
OLDER_RECORDS = Path(__file__).parent / "fixtures" / "records"


def test_an_older_records_file_loads_to_a_fresh_grids_records(toy_corpus,
                                                              replay_oracle,
                                                              rule_verifier):
    plan = ExperimentPlan(configs=("CB", "CV"), runs_per_cell=1)
    fresh = run_experiment(plan, toy_corpus, replay_oracle, rule_verifier)
    older = RecordStore(OLDER_RECORDS / "records.jsonl").load()

    def timeless(records):
        return {_RUN_OF(r): replace(r, elapsed=0.0) for r in records}

    assert len(older) == len(fresh) == 40
    assert timeless(older) == timeless(fresh)


def test_an_older_records_file_reports_its_checked_in_summary(tmp_path):
    assert cli_main(["report", "--records", str(OLDER_RECORDS / "records.jsonl"),
                     "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report" / "summary.json").read_bytes() == \
        (OLDER_RECORDS / "report" / "summary.json").read_bytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_older_lines_then_a_torn_grid_resume_appending_only_missing_cells(
        data, finished_grid, toy_corpus, replay_oracle):
    plan, written = finished_grid
    lines = written.splitlines(keepends=True)
    old = data.draw(st.integers(0, len(lines)))
    older = "".join(
        _legacy_line(RunRecord.from_dict(stored), json.loads(stored["verifier_calls"]))
        for stored in map(json.loads, lines[:old])).encode()
    rest = b"".join(lines[old:])
    cut = data.draw(st.integers(0, len(rest)))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "records.jsonl").write_bytes(older + rest[:cut])
        records = run_experiment(plan, toy_corpus, replay_oracle,
                                 MockVerifier(always_failing=toyworld.ALWAYS_FAILING),
                                 out)
        after = (out / "records.jsonl").read_bytes()
        stored = RecordStore(out / "records.jsonl").load()
    assert after.startswith(older)
    assert sorted(map(_RUN_OF, stored)) == sorted(map(_RUN_OF, records))
    assert len(after.splitlines()) == len(lines)
    # the lines this resume appended, and the whole lines the crash left
    # after the older ones, are in the array form
    for line in after[len(older):].splitlines():
        newer = json.loads(line)
        assert isinstance(newer["verifier_calls"], str)
        assert all(isinstance(a, list) for a in newer["final_spec"])


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_store_lines_are_sorted_key_json_dumps(value):
    assert JSON_LINE.encode(value) == json.dumps(value, sort_keys=True)


_RUN_KEY = ("program_id", "config", "paradigm", "run_index")


def _calls_by_run(path: Path) -> dict[tuple, list[dict]]:
    """Each stored run's verifier calls, decoded from the JSON string its
    line holds, after checking that no run is stored twice."""
    runs: dict[tuple, list[dict]] = {}
    for line in path.read_text().splitlines():
        stored = json.loads(line)
        key = tuple(stored[k] for k in _RUN_KEY)
        assert key not in runs, f"run {key} is stored twice"
        runs[key] = json.loads(stored["verifier_calls"])
    return runs


def test_events_written_per_run(toy_corpus, replay_oracle, rule_verifier,
                                tmp_path):
    plan = little_plan(configs=("CB",), runs_per_cell=1)
    out = tmp_path / "out"
    records = run_experiment(plan, toy_corpus, replay_oracle, rule_verifier, out)
    assert [p.name for p in out.iterdir()] == ["records.jsonl"]
    runs = _calls_by_run(out / "records.jsonl")
    assert set(runs) == {(r.program_id, r.config_name, r.paradigm.value,
                          r.run_index) for r in records}
    for call in (call for calls in runs.values() for call in calls):
        assert set(call) == {"attempt", "cache_hit", "status", "goals_proved",
                             "goals_total", "spec_size", "elapsed"}


def test_events_hold_every_verifier_call_in_attempt_order(toy_corpus,
                                                          replay_oracle,
                                                          tmp_path):
    out = tmp_path / "out"
    records = run_experiment(little_plan(workers=4), toy_corpus, replay_oracle,
                             MockVerifier(always_failing=toyworld.ALWAYS_FAILING),
                             out)
    runs = _calls_by_run(out / "records.jsonl")
    assert len(runs) == len(records)
    for record in records:
        key = (record.program_id, record.config_name, record.paradigm.value,
               record.run_index)
        assert [c["attempt"] for c in runs[key]] == list(range(record.tool_calls))


def test_resume_with_nothing_pending_leaves_the_records_file_unchanged(
        toy_corpus, replay_oracle, rule_verifier, tmp_path):
    plan = little_plan(runs_per_cell=1)
    out = tmp_path / "out"
    run_experiment(plan, toy_corpus, replay_oracle, rule_verifier, out)
    before = (out / "records.jsonl").read_bytes()
    run_experiment(plan, toy_corpus, replay_oracle, rule_verifier, out)
    assert [p.name for p in out.iterdir()] == ["records.jsonl"]
    assert (out / "records.jsonl").read_bytes() == before


def test_an_older_output_directory_resumes_and_keeps_its_events_file(
        toy_corpus, replay_oracle, rule_verifier, tmp_path):
    plan = little_plan(runs_per_cell=1)
    out = tmp_path / "out"
    first = run_experiment(plan, toy_corpus, replay_oracle, rule_verifier, out)
    # the layout written before the calls moved into the record line, with
    # the last run not yet stored
    lines = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
    (out / "records.jsonl").write_text("".join(
        JSON_LINE.encode({k: v for k, v in line.items() if k != "verifier_calls"}) + "\n"
        for line in lines[:-1]))
    (out / "events.jsonl").write_text('{"attempt": 0}\n')
    again = run_experiment(plan, toy_corpus, replay_oracle, rule_verifier, out)
    assert [r.final_spec for r in again] == [r.final_spec for r in first]
    stored = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
    assert ["verifier_calls" in line for line in stored] == \
        [False] * (len(lines) - 1) + [True]
    assert (out / "events.jsonl").read_text() == '{"attempt": 0}\n'


@pytest.mark.parametrize("workers", [1, 2])
def test_cells_run_in_run_major_order(toy_corpus, replay_oracle, tmp_path,
                                      workers):
    plan = little_plan(paradigms=(Paradigm.MODIFICATION, Paradigm.DELETION),
                       workers=workers)
    out = tmp_path / "out"
    records = run_experiment(plan, toy_corpus, replay_oracle,
                             MockVerifier(always_failing=toyworld.ALWAYS_FAILING),
                             out)
    assert [(r.program_id, r.config_name, r.paradigm, r.run_index)
            for r in records] == [(p.id, *rest) for p, *rest in plan.cells(toy_corpus)]
    if workers == 1:
        lines = map(json.loads, (out / "records.jsonl").read_text().splitlines())
        finished = [(line["run_index"], plan.paradigms.index(Paradigm(line["paradigm"])))
                    for line in lines]
        assert finished == sorted(finished)


@pytest.fixture(scope="module")
def finished_grid(toy_corpus, replay_oracle, tmp_path_factory):
    """A finished one-run-per-cell grid: its plan, and the bytes of its
    records file, one line per run in the order they were written."""
    plan = little_plan(runs_per_cell=1)
    out = tmp_path_factory.mktemp("finished")
    run_experiment(plan, toy_corpus, replay_oracle,
                   MockVerifier(always_failing=toyworld.ALWAYS_FAILING), out)
    return plan, (out / "records.jsonl").read_bytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_resume_after_a_crash_at_any_byte(data, finished_grid, toy_corpus,
                                          replay_oracle):
    plan, written = finished_grid
    # a crash leaves a prefix of the file, cut at any byte
    left = data.draw(st.integers(0, len(written)))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "records.jsonl").write_bytes(written[:left])
        records = run_experiment(plan, toy_corpus, replay_oracle,
                                 MockVerifier(always_failing=toyworld.ALWAYS_FAILING),
                                 out)
        stored = RecordStore(out / "records.jsonl").load()
        runs = _calls_by_run(out / "records.jsonl")
    keys = [(r.program_id, r.config_name, r.paradigm.value, r.run_index)
            for r in stored]
    assert sorted(keys) == sorted((r.program_id, r.config_name, r.paradigm.value,
                                   r.run_index) for r in records)
    assert len(runs) == len(keys)
    for key, record in zip(keys, stored):
        assert [c["attempt"] for c in runs[key]] == list(range(record.tool_calls))


def test_parallel_execution_matches_serial(toy_corpus, replay_oracle):
    verifier = MockVerifier(always_failing=toyworld.ALWAYS_FAILING)
    serial = run_experiment(little_plan(workers=1), toy_corpus, replay_oracle,
                            verifier)
    parallel = run_experiment(little_plan(workers=4), toy_corpus,
                              replay_oracle, verifier)

    def fingerprint(records):
        return sorted(
            (r.program_id, r.config_name, r.paradigm.value, r.run_index,
             r.outcome.value, r.tool_calls, r.compliant, r.final_spec.keys())
            for r in records)

    assert fingerprint(serial) == fingerprint(parallel)


@pytest.mark.parametrize("processors", [1, 2, 8])
def test_worker_count_follows_the_oracle_and_verifier(monkeypatch, replay_oracle,
                                                      processors):
    monkeypatch.setattr("os.cpu_count", lambda: processors)
    http = HttpChatOracle(HttpOracleSettings(base_url="http://oracle.invalid",
                                             model="m"), session=object())
    mock = MockVerifier()
    framac = FramaCVerifier(FramaCSettings(max_processes=4))
    plan = ExperimentPlan()
    assert plan.worker_count(replay_oracle, mock) == 1
    assert plan.worker_count(replay_oracle, framac) == min(4, processors)
    assert plan.worker_count(http, mock) == processors
    assert ExperimentPlan(workers=3).worker_count(replay_oracle, mock) == 3
    assert plan.worker_count() == processors


def test_in_process_grid_builds_no_thread_pool(monkeypatch, toy_corpus,
                                               replay_oracle, rule_verifier):
    def no_pool(*args, **kwargs):
        raise AssertionError("an in-process grid needs no thread pool")
    monkeypatch.setattr("specloop.runner.ThreadPoolExecutor", no_pool)
    records = run_experiment(ExperimentPlan(runs_per_cell=1), toy_corpus,
                             replay_oracle, rule_verifier)
    assert len(records) == len(toy_corpus) * 4 * 2


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

@pytest.fixture()
def mock_rules_file(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"always_failing": list(toyworld.ALWAYS_FAILING)}))
    return path


def test_cli_run_clean_exit(persona_dir, mock_rules_file, tmp_path, capsys):
    corpus = Path(__file__).parent / "fixtures" / "toy_corpus"
    out = tmp_path / "cli-out"
    code = cli_main([
        "run",
        "--dataset", str(corpus),
        "--configs", "CB,CV",
        "--paradigms", "delete",
        "--runs", "2",
        "--oracle", str(persona_dir),
        "--verifier", "mock",
        "--mock-fixtures", str(mock_rules_file),
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "records.jsonl").is_file()
    assert (out / "report" / "summary.json").is_file()
    assert (out / "report" / "sample_distribution.json").is_file()
    assert "40 records" in capsys.readouterr().out


def test_cli_exit_one_on_errored_records(persona_dir, mock_rules_file,
                                         tmp_path):
    # break one fixture so a run errors out
    import shutil
    broken = tmp_path / "persona-broken"
    shutil.copytree(persona_dir, broken)
    victim = broken / "abs_val" / "CB" / "generate-0.txt"
    victim.write_text("prose with no annotations at all\n")
    corpus = Path(__file__).parent / "fixtures" / "toy_corpus"
    code = cli_main([
        "run",
        "--dataset", str(corpus),
        "--configs", "CB",
        "--paradigms", "delete",
        "--runs", "1",
        "--oracle", str(broken),
        "--verifier", "mock",
        "--mock-fixtures", str(mock_rules_file),
        "--out", str(tmp_path / "cli-out"),
    ])
    assert code == 1


@pytest.mark.parametrize("workers", ["0", "4"])
def test_cli_report_subcommand(persona_dir, mock_rules_file, tmp_path, workers):
    # with four workers the records file is written in completion order, so
    # `report` reads the records in another order than `run` held them
    corpus = Path(__file__).parent / "fixtures" / "toy_corpus"
    out = tmp_path / "out"
    assert cli_main([
        "run", "--dataset", str(corpus), "--configs", "CB,CV,CA",
        "--paradigms", "delete,modify", "--runs", "2",
        "--oracle", str(persona_dir), "--verifier", "mock",
        "--mock-fixtures", str(mock_rules_file), "--out", str(out),
        "--workers", workers,
    ]) == 0
    redo = tmp_path / "redo"
    assert cli_main([
        "report", "--records", str(out / "records.jsonl"),
        "--configs", "CB,CV,CA", "--out", str(redo),
    ]) == 0
    # table.txt is left out: its row label differs between `run` and `report`
    for name in ("summary.json", "venn.json", "optimal_nvtc.json", "optimal_rt.json",
                 "sample_distribution.json"):
        assert (redo / "report" / name).read_bytes() == \
            (out / "report" / name).read_bytes(), name
    assert (redo / "report" / "table.txt").is_file()


def test_cli_report_on_a_torn_records_file(persona_dir, mock_rules_file,
                                           tmp_path):
    corpus = Path(__file__).parent / "fixtures" / "toy_corpus"
    out = tmp_path / "out"
    assert cli_main([
        "run", "--dataset", str(corpus), "--configs", "CB,CV,CA",
        "--paradigms", "delete", "--runs", "2",
        "--oracle", str(persona_dir), "--verifier", "mock",
        "--mock-fixtures", str(mock_rules_file), "--out", str(out),
    ]) == 0
    path = out / "records.jsonl"
    torn_path = tmp_path / "torn.jsonl"
    text = path.read_text()
    # an interrupted append of a cell outside the reported configurations
    extra = json.loads(text.splitlines()[0]) | {"config": "CF"}
    torn_path.write_text(text + torn(json.dumps(extra, sort_keys=True)))
    for records, report in ((path, "intact"), (torn_path, "torn")):
        assert cli_main([
            "report", "--records", str(records), "--configs", "CB,CV,CA",
            "--out", str(tmp_path / report),
        ]) == 0
    for name in ("summary.json", "venn.json", "sample_distribution.json"):
        assert ((tmp_path / "torn" / "report" / name).read_bytes()
                == (tmp_path / "intact" / "report" / name).read_bytes())


@pytest.fixture()
def cb_records(persona_dir, mock_rules_file, tmp_path):
    """records.jsonl of a one-configuration, two-paradigm toy-corpus run."""
    corpus = Path(__file__).parent / "fixtures" / "toy_corpus"
    out = tmp_path / "cb"
    assert cli_main([
        "run", "--dataset", str(corpus), "--configs", "CB", "--runs", "1",
        "--oracle", str(persona_dir), "--verifier", "mock",
        "--mock-fixtures", str(mock_rules_file), "--out", str(out),
    ]) == 0
    return out / "records.jsonl"


def test_cli_report_defaults_to_the_configurations_the_records_hold(
        cb_records, tmp_path):
    out = tmp_path / "redo"
    assert cli_main(["report", "--records", str(cb_records), "--out", str(out)]) == 0
    summary = json.loads((out / "report" / "summary.json").read_text())
    assert {cell["config"] for cell in summary["cells"]} == {"CB"}
    assert "CB" in (out / "report" / "table.txt").read_text()


@pytest.mark.parametrize("configs,bad", [
    ("CB,CX", "'CX'"),
    ("CB,CV", "no records for CV under delete"),
    (",", "no configurations to report"),
    ("CB,CB", "report repeats 'CB'"),
])
def test_cli_report_rejects_configurations_before_writing(cb_records, tmp_path,
                                                          capsys, configs, bad):
    out = tmp_path / "redo"
    code = cli_main(["report", "--records", str(cb_records), "--configs", configs,
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad in err
    assert not out.exists()


def test_cli_report_on_an_empty_records_file_writes_nothing(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    records.write_text("")
    out = tmp_path / "redo"
    assert cli_main(["report", "--records", str(records), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no records to report" in err
    assert not out.exists()


def _record_lines(rule_verifier, toy_corpus, replay_oracle):
    plan = little_plan(configs=("CB",), runs_per_cell=1)
    records = run_experiment(plan, toy_corpus[:2], replay_oracle, rule_verifier)
    return [JSON_LINE.encode(r.to_dict()) for r in records]


@pytest.mark.parametrize("bad, last, error", [
    ("garbage", False, "line 2: not JSON (Expecting value"),
    ('{"a": "\xff"}', False, "line 2: not JSON ('utf-8' codec can't decode byte 0xff"),
    ("{}", False, "line 2: not a run record (KeyError: 'program_id')"),
    ("[1, 2]", False, "line 2: not a run record (TypeError"),
    # a last line that decodes is not a torn append, even without a newline
    ("5", True, "line 3: not a run record (TypeError"),
])
def test_a_line_that_is_not_a_record_raises_naming_it(
        tmp_path, rule_verifier, toy_corpus, replay_oracle, bad, last, error):
    first, second = _record_lines(rule_verifier, toy_corpus, replay_oracle)
    path = tmp_path / "records.jsonl"
    text = f"{first}\n{second}\n{bad}" if last else f"{first}\n{bad}\n{second}\n"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(CorruptRecords) as info:
        RecordStore(path).load()
    assert str(info.value).startswith(f"{path}, {error}")


def test_a_record_of_the_wrong_shape_raises_naming_its_line(
        tmp_path, rule_verifier, toy_corpus, replay_oracle):
    first, second = _record_lines(rule_verifier, toy_corpus, replay_oracle)
    path = tmp_path / "records.jsonl"
    for field, value, error in (("paradigm", "sideways", "ValueError"),
                                ("final_spec", 5, "TypeError"),
                                ("final_spec", [{"construct": "requires",
                                                 "text": "t", "anchor": 1}],
                                 "TypeError")):
        line = json.loads(second) | {field: value}
        path.write_text(first + "\n" + json.dumps(line) + "\n")
        with pytest.raises(CorruptRecords,
                           match=f"line 2: not a run record \\({error}"):
            RecordStore(path).load()


@pytest.mark.parametrize("text", [
    b"{}\n", b"garbage\n{}\n", b'{"a": "\xff"}\n',
    # a resume would not find this run's cell and would run it again
    pytest.param(JSON_LINE.encode(_stored(Annotation(
        ConstructKind.REQUIRES, "requires x >= 0;", FunctionContract("abs_val")))
        .to_dict() | {"program_id": "abs_val", "run_index": "1"}).encode() + b"\n",
        id="run-index-a-string"),
])
def test_cli_report_and_resume_refuse_a_corrupt_records_file(
        persona_dir, mock_rules_file, tmp_path, capsys, text):
    out = tmp_path / "out"
    out.mkdir()
    (out / "records.jsonl").write_bytes(text)
    corpus = Path(__file__).parent / "fixtures" / "toy_corpus"
    for argv in (["report", "--records", str(out / "records.jsonl"),
                  "--out", str(tmp_path / "redo")],
                 ["run", "--dataset", str(corpus), "--runs", "1",
                  "--oracle", str(persona_dir), "--verifier", "mock",
                  "--mock-fixtures", str(mock_rules_file), "--out", str(out)]):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'records.jsonl'}, line 1: ")
    assert (out / "records.jsonl").read_bytes() == text
    assert not (tmp_path / "redo").exists()


def test_cli_bad_oracle_persona(tmp_path):
    corpus = Path(__file__).parent / "fixtures" / "toy_corpus"
    code = cli_main([
        "run", "--dataset", str(corpus), "--oracle", "nonexistent-dir",
        "--verifier", "mock", "--out", str(tmp_path / "o"),
    ])
    assert code == 2


def test_cli_refuses_a_replay_fixture_that_is_not_utf8_before_any_run(
        persona_dir, mock_rules_file, tmp_path, capsys):
    persona = Path(shutil.copytree(persona_dir, tmp_path / "persona"))
    fixture = sorted(persona.glob("*/CB/generate-0.txt"))[0]
    fixture.write_bytes(b"\xff\xfe")
    corpus = Path(__file__).parent / "fixtures" / "toy_corpus"
    out = tmp_path / "out"
    code = cli_main([
        "run", "--dataset", str(corpus), "--runs", "1",
        "--oracle", str(persona), "--verifier", "mock",
        "--mock-fixtures", str(mock_rules_file), "--out", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: replay fixture {fixture}: ")
    assert not out.exists()


@pytest.mark.parametrize("option,value,bad", [
    ("--configs", "CB,CX", "'CX'"),
    ("--paradigms", "delete,modfy", "'modfy'"),
    ("--configs", ",", "plan needs configs, paradigms"),
    ("--paradigms", ",", "plan needs configs, paradigms"),
    ("--runs", "0", "positive run count"),
    ("--max-iters", "0", "run limits must be positive"),
    ("--run-wall-budget", "0", "run limits must be positive"),
    ("--run-wall-budget", "nan", "run limits must be positive"),
    ("--workers", "-3", "workers must not be negative"),
])
def test_cli_rejects_a_bad_grid_before_any_run(persona_dir, mock_rules_file,
                                               tmp_path, capsys, option, value, bad):
    corpus = Path(__file__).parent / "fixtures" / "toy_corpus"
    out = tmp_path / "out"
    code = cli_main([
        "run", "--dataset", str(corpus), "--runs", "1", option, value,
        "--oracle", str(persona_dir), "--verifier", "mock",
        "--mock-fixtures", str(mock_rules_file), "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad in err
    assert not out.exists()


@pytest.mark.parametrize("option,value,names,bad", [
    ("--configs", "CB,CV,CB", dict(configs=("CB", "CV", "CB")),
     "plan repeats 'CB'"),
    ("--paradigms", "delete,delete",
     dict(paradigms=(Paradigm.DELETION, Paradigm.DELETION)),
     "plan repeats 'delete'"),
])
def test_a_repeated_configuration_or_paradigm_is_refused_before_any_run(
        persona_dir, mock_rules_file, tmp_path, capsys, option, value, names, bad):
    with pytest.raises(ValueError, match=re.escape(bad)):
        ExperimentPlan(**names)
    corpus = Path(__file__).parent / "fixtures" / "toy_corpus"
    out = tmp_path / "out"
    code = cli_main([
        "run", "--dataset", str(corpus), "--runs", "1", option, value,
        "--oracle", str(persona_dir), "--verifier", "mock",
        "--mock-fixtures", str(mock_rules_file), "--out", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {bad}\n"
    assert not out.exists()


def test_cli_refuses_a_template_with_an_unknown_field_before_any_run(
        persona_dir, mock_rules_file, tmp_path, capsys):
    templates = _bundled_templates_copy(tmp_path)
    (templates / "repair-CB.txt").write_text("{program} {oops}\n", encoding="utf-8")
    corpus = Path(__file__).parent / "fixtures" / "toy_corpus"
    out = tmp_path / "out"
    code = cli_main([
        "run", "--dataset", str(corpus), "--runs", "1", "--configs", "CB",
        "--oracle", str(persona_dir), "--verifier", "mock",
        "--mock-fixtures", str(mock_rules_file), "--templates", str(templates),
        "--out", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error: template {templates / 'repair-CB.txt'}: unknown field 'oops'")
    assert not out.exists()


def test_cli_refuses_a_template_that_is_not_utf8_before_any_run(
        persona_dir, mock_rules_file, tmp_path, capsys):
    templates = _bundled_templates_copy(tmp_path)
    (templates / "generate-CB.txt").write_bytes(b"\xff")
    corpus = Path(__file__).parent / "fixtures" / "toy_corpus"
    out = tmp_path / "out"
    code = cli_main([
        "run", "--dataset", str(corpus), "--runs", "1", "--configs", "CB",
        "--oracle", str(persona_dir), "--verifier", "mock",
        "--mock-fixtures", str(mock_rules_file), "--templates", str(templates),
        "--out", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error: template {templates / 'generate-CB.txt'}: 'utf-8' codec can't decode")
    assert not out.exists()


_FIXTURES_FILES = {
    "not-json.json": "verdicts: none\n",
    "list.json": "[]\n",
    "rules-not-strings.json": '{"always_failing": ["x", 1]}\n',
    "rules-a-string.json": '{"always_failing": "x"}\n',
    "wall-time-text.json": '{"wall_time": "fast"}\n',
    "wall-time-nan.json": '{"wall_time": NaN}\n',
    "wall-time-infinite.json": '{"wall_time": Infinity}\n',
    "wall-time-negative.json": '{"wall_time": -5}\n',
    "verdicts.json": '{"verdicts": {}}\n',
    "misspelt-rules.json": '{"always_fail": ["x"]}\n',
}


@pytest.mark.parametrize("fixtures,bad", [
    ("missing.json", "No such file or directory"),
    ("not-json.json", "Expecting value"),
    ("list.json", "mock fixtures must be a JSON object"),
    ("rules-not-strings.json", "always_failing must be a list of strings"),
    ("rules-a-string.json", "always_failing must be a list of strings"),
    ("wall-time-text.json", "wall_time must be a number"),
    ("wall-time-nan.json", "wall_time must be a finite number >= 0, not nan"),
    ("wall-time-infinite.json", "wall_time must be a finite number >= 0, not inf"),
    ("wall-time-negative.json", "wall_time must be a finite number >= 0, not -5"),
    ("verdicts.json", "unknown mock fixtures field 'verdicts'"),
    ("misspelt-rules.json", "unknown mock fixtures field 'always_fail'"),
])
def test_cli_rejects_an_unreadable_mock_fixtures_file_before_any_run(
        persona_dir, tmp_path, capsys, fixtures, bad):
    for name, text in _FIXTURES_FILES.items():
        (tmp_path / name).write_text(text)
    corpus = Path(__file__).parent / "fixtures" / "toy_corpus"
    out = tmp_path / "out"
    code = cli_main([
        "run", "--dataset", str(corpus), "--runs", "1",
        "--oracle", str(persona_dir), "--verifier", "mock",
        "--mock-fixtures", str(tmp_path / fixtures), "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad in err
    assert not out.exists()


@pytest.mark.parametrize("args,env,bad", [
    (["--verifier-processes", "-1"], {}, "verifier processes must be at least 1"),
    (["--verifier-wall-budget", "nan"], {}, "wall budget finite"),
    (["--verifier-wall-budget", "inf"], {}, "wall budget finite"),
    (["--oracle", "http"], {"ORACLE_BASE_URL": "http://localhost:9",
                            "ORACLE_TEMPERATURE": "warm"},
     "ORACLE_TEMPERATURE is not a number"),
    (["--oracle", "http"], {"ORACLE_BASE_URL": "http://localhost:9",
                            "ORACLE_TEMPERATURE": "nan"}, "a finite temperature"),
    (["--oracle", "http"], {"ORACLE_BASE_URL": "http://localhost:9",
                            "ORACLE_TEMPERATURE": "inf"}, "a finite temperature"),
])
def test_cli_rejects_bad_verifier_and_oracle_settings_before_any_run(
        persona_dir, wp_stub, tmp_path, capsys, monkeypatch, args, env, bad):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    corpus = Path(__file__).parent / "fixtures" / "toy_corpus"
    out = tmp_path / "out"
    code = cli_main([
        "run", "--dataset", str(corpus), "--runs", "1",
        "--oracle", str(persona_dir), "--verifier", "framac",
        "--framac-path", str(wp_stub), *args, "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad in err
    assert not out.exists()


def test_cli_run_defaults_are_the_dataclass_defaults(persona_dir, tmp_path,
                                                     monkeypatch, capsys):
    built = []

    def capture(plan, corpus, oracle, verifier, out_dir):
        built.extend((plan, verifier))
        raise SpecloopError("captured")

    monkeypatch.setattr(specloop.cli, "run_experiment", capture)
    corpus = Path(__file__).parent / "fixtures" / "toy_corpus"
    assert cli_main(["run", "--dataset", str(corpus), "--oracle", str(persona_dir),
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: captured\n"
    plan, verifier = built
    assert plan == ExperimentPlan()
    assert plan.limits == RunLimits()
    assert verifier.settings == FramaCSettings()


def test_a_plan_s_repr_names_its_template_root(tmp_path):
    root = _bundled_templates_copy(tmp_path)
    bundled = Path(specloop.__file__).parent / "templates"
    for templates, named in [(BUNDLED_TEMPLATES, bundled), (TemplateStore(root), root)]:
        text = repr(ExperimentPlan(configs=("CB",), templates=templates))
        assert f"templates=TemplateStore({str(named)!r})" in text
        assert " at 0x" not in text


def test_plan_rejects_an_unknown_configuration():
    with pytest.raises(UnknownConfiguration, match="'CX'"):
        ExperimentPlan(configs=("CB", "CX"))
