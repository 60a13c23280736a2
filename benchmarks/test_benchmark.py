"""Tests of the benchmark itself: generator, stub verifier, prediction check,
tracer and guards. Run with ``python3 -m pytest benchmarks``."""

from __future__ import annotations

import dataclasses
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpusgen
import run as bench
import spans
import specloop
from specloop import (ExperimentPlan, FramaCSettings, FramaCVerifier,
                      MockVerifier, ReplayOracle, ReportStatus, extract_spec,
                      load_dataset, map_failures_to_annotations,
                      parse_annotations, run_experiment, weave)
from specloop.verifier import parse_wp_output

HERE = Path(__file__).resolve().parent


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    first = bench.generate(workload, 7, tmp_path / "a")
    second = bench.generate(workload, 7, tmp_path / "b")
    bench.generate(workload, 8, tmp_path / "c")
    assert tree(tmp_path / "a") == tree(tmp_path / "b")
    assert first.cells == second.cells
    assert tree(tmp_path / "a") != tree(tmp_path / "c")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_replay_grid_calls_per_run_in_paper_range(tmp_path, seed):
    prediction = bench.generate("grid-replay", seed, tmp_path)
    assert 2.1 <= prediction.calls_per_run() <= 4.9


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_grid_work_is_the_same_for_every_seed(tmp_path, workload):
    totals = {sum(e.tool_calls for e in
                  bench.generate(workload, seed, tmp_path / str(seed)).cells.values())
              for seed in (1, 2, 3)}
    assert len(totals) == 1


def test_every_planted_case_occurs(tmp_path):
    rng = random.Random("cases")
    programs = corpusgen.small_corpus(rng, 40)
    plans = corpusgen.plan_cells(rng, programs)
    texts = [c.text for plan in plans.values() for c in plan.initial if c.bad]
    assert any(t.startswith("ensures") for t in texts)
    assert any(t.startswith("loop invariant") for t in texts)
    assert any(t.startswith("predicate tight_") for t in texts)
    fixes = {plan.fix_attempt for plan in plans.values() if plan.repairs}
    assert fixes == set(corpusgen.FIX_ATTEMPTS)


# --------------------------------------------------------------------------
# stub frama-c
# --------------------------------------------------------------------------

@pytest.fixture()
def stub(tmp_path) -> Path:
    path = tmp_path / "bin" / "frama-c"
    path.parent.mkdir()
    shutil.copyfile(HERE / "stub" / "frama-c", path)
    path.chmod(0o755)
    return path


def planted_cell(config: str = "CF"):
    """A loop program whose CF proposal has a bad ensures, a bad loop
    invariant and a bad predicate with its dependent lemma."""
    rng = random.Random("stub")
    program = corpusgen.small_program(rng, 0, "two_loops")
    clauses = corpusgen.clean_clauses(program, config)
    for kind in ("ensures+invariant", "predicate"):
        clauses = corpusgen.plant(rng, program, config, clauses, kind)
    return program, clauses


def run_stub(stub: Path, tmp_path: Path, woven: str) -> str:
    path = tmp_path / "woven.c"
    path.write_text(woven, encoding="utf-8")
    return subprocess.run(
        [str(stub), "-wp", "-wp-prover", "alt-ergo",
         "-stub-fail-marker", corpusgen.MARKER, str(path)],
        capture_output=True, text=True, check=True, timeout=30).stdout


def test_stub_output_parses_to_predicted_goals(stub, tmp_path):
    program, clauses = planted_cell()
    spec = extract_spec(corpusgen.completion(program, clauses))
    woven = weave(program.bare(), spec)
    goals, summary = parse_wp_output(run_stub(stub, tmp_path, woven))

    with_goal = [c for c in clauses if c.kind != "axiom"]
    bad = [c for c in with_goal if c.bad]
    assert len(goals) == len(with_goal)
    assert summary == (len(with_goal) - len(bad), len(with_goal))
    lines = woven.splitlines()
    failing = [g for g in goals if g.status.value != "Proved"]
    assert sorted(corpusgen.MARKER in lines[g.source_line - 1] for g in failing) \
        == [True] * len(bad)


def test_stub_verdicts_and_blame_match_the_mock(stub, tmp_path):
    program, clauses = planted_cell()
    spec = extract_spec(corpusgen.completion(program, clauses))
    target = type("P", (), {"id": program.id, "source": program.bare()})()
    framac = FramaCVerifier(FramaCSettings(
        executable=str(stub), extra_args=("-stub-fail-marker", corpusgen.MARKER)))
    mock = MockVerifier(always_failing=(corpusgen.MARKER,))

    stub_report, mock_report = framac.verify(target, spec), mock.verify(target, spec)
    assert stub_report.status is mock_report.status is ReportStatus.FAILED
    blamed = {a.text for a in map_failures_to_annotations(stub_report, spec)}
    assert blamed == {a.text for a in map_failures_to_annotations(mock_report, spec)}
    assert blamed == {c.text for c in clauses if c.bad}

    clean = extract_spec(corpusgen.completion(
        program, corpusgen.clean_clauses(program, "CF")))
    report = framac.verify(target, clean)
    assert report.status is ReportStatus.VERIFIED
    assert "[wp] [Valid]" in report.raw_output
    assert len(report.goals) == len(mock.verify(target, clean).goals)


# --------------------------------------------------------------------------
# prediction check, tracer, guards
# --------------------------------------------------------------------------

def small_grid(tmp_path):
    rng = random.Random("grid")
    programs = corpusgen.small_corpus(rng, 5)
    prediction = corpusgen.write(tmp_path, programs,
                                 corpusgen.plan_cells(rng, programs))
    corpus = load_dataset(tmp_path / "corpus")
    oracle = ReplayOracle(tmp_path / "persona")
    verifier = MockVerifier(always_failing=(corpusgen.MARKER,))
    return prediction, corpus, oracle, verifier


def test_prediction_check_flags_a_wrong_record(tmp_path):
    prediction, corpus, oracle, verifier = small_grid(tmp_path)
    records = run_experiment(ExperimentPlan(runs_per_cell=1, workers=1),
                             corpus, oracle, verifier)
    assert [prediction.mismatches(r) for r in records] == [[]] * len(records)

    record = records[0]
    wrong_calls = dataclasses.replace(record, tool_calls=record.tool_calls + 1)
    assert any("tool_calls" in m for m in prediction.mismatches(wrong_calls))
    errored = dataclasses.replace(record, outcome=specloop.RunOutcome.ERRORED)
    assert any("outcome" in m for m in prediction.mismatches(errored))


def test_tracer_records_layers_and_restores_names(tmp_path):
    prediction, corpus, oracle, verifier = small_grid(tmp_path)
    tracer = spans.Tracer()
    spans.install(tracer)
    spans.install_instances(tracer, oracle, verifier)
    try:
        with tracer.span("runner.run_experiment") as grid:
            records = run_experiment(ExperimentPlan(runs_per_cell=1, workers=2),
                                     corpus, oracle, verifier, tmp_path / "out")
    finally:
        tracer.uninstall()
    layers = spans.layer_metrics(tracer.spans, grid)
    assert layers["verifier.verify.calls"] == sum(r.tool_calls for r in records)
    assert layers["refine.calls_per_run"] == pytest.approx(prediction.calls_per_run())
    assert layers["runner.record_append.calls"] == len(records)
    assert 0 <= layers["runner.self_s"] <= grid.duration
    assert specloop.oracle.parse_annotations is parse_annotations
    assert specloop.runner.run_once is specloop.refine.run_once
    assert "verify" not in vars(verifier) and "complete" not in vars(oracle)
    assert "__init__" in vars(specloop.refine.RunLogger)


def test_self_time_subtracts_the_union_of_children():
    parent = spans.Span(1, "p", None, None, 0.0, 10.0)
    kids = [spans.Span(2, "a", 1, None, 1.0, 4.0),
            spans.Span(3, "b", 1, None, 3.0, 6.0),     # overlaps a
            spans.Span(4, "c", 1, None, 9.0, 12.0)]    # runs past the parent
    assert spans.self_time(parent, kids) == pytest.approx(10 - 5 - 1)


def test_worker_guard_trips_when_count_exceeds_nproc(monkeypatch, capsys):
    with pytest.raises(bench.WorkerCountError):
        bench.check_workers(3, 2)
    bench.check_workers(2, 2)
    monkeypatch.setattr(bench, "available_cpus", lambda: 0)
    assert bench.main(["--workload", "grid-stub-wp", "--seed", "1",
                       "--seconds", "1"]) != 0
    assert "worker_count" in capsys.readouterr().err


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "grid-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
