"""Golden report files: ``emit_reports`` must write exactly the committed
bytes for fixed, seeded record sets.

The inputs are two reference models from ``synth`` whose compliance,
outcome (Errored included), tool calls and elapsed seconds are redrawn by a
seeded ``random.Random``. Each is emitted twice: with all four
configurations under both paradigms, and with CB/CV/CA under deletion only
(no table). A refactor of the metric code that changes any report byte
fails here. To regenerate after a deliberate format change, run
``PYTHONPATH=src python tests/test_report_golden.py`` from the repository
root and review the diff.
"""

from __future__ import annotations

import dataclasses
import os
import random
from pathlib import Path

import pytest

from specloop import Paradigm, emit_reports
from specloop.refine import RunOutcome

import synth

GOLDEN = Path(__file__).parent / "fixtures" / "reports"
MODELS = ("GPT-4o", "Gemini-2.5-Pro")
VARIANTS = ("all", "deletion-3")


def perturbed_records(model: str) -> list:
    rng = random.Random(f"golden-{model}")
    records = [
        dataclasses.replace(
            r,
            compliant=rng.random() < 0.6,
            outcome=rng.choices(
                (RunOutcome.VERIFIED, RunOutcome.EXHAUSTED, RunOutcome.ERRORED),
                weights=(5, 4, 1))[0],
            tool_calls=rng.randint(1, 6),
            elapsed=rng.uniform(0.05, 90.0),
        )
        for r in synth.make_reference_records()[model]
    ]
    rng.shuffle(records)
    return records


def emit(model: str, variant: str, out_dir: Path) -> Path:
    records = perturbed_records(model)
    if variant == "all":
        emit_reports(records, out_dir, persona=model)
    else:
        emit_reports([r for r in records if r.paradigm is Paradigm.DELETION],
                     out_dir, persona=model, configs=("CB", "CV", "CA"))
    return out_dir / "report"


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("model", MODELS)
def test_report_files_match_golden(model, variant, tmp_path):
    got = emit(model, variant, tmp_path)
    want = GOLDEN / model / variant
    assert sorted(p.name for p in got.iterdir()) == sorted(
        p.name for p in want.iterdir())
    for path in sorted(want.iterdir()):
        assert (got / path.name).read_bytes() == path.read_bytes(), path.name


def test_emit_again_rewrites_only_changed_files(tmp_path):
    """A second emit over an existing report directory leaves files that
    already hold their bytes untouched and rewrites the rest."""
    got = emit("GPT-4o", "all", tmp_path)
    old = 1_000_000_000
    for path in got.iterdir():
        os.utime(path, ns=(old, old))
    (got / "table.txt").write_text("stale\n", encoding="utf-8")
    (got / "venn.json").write_bytes(b"\xff\xfe")
    emit("GPT-4o", "all", tmp_path)
    want = GOLDEN / "GPT-4o" / "all"
    for path in sorted(want.iterdir()):
        assert (got / path.name).read_bytes() == path.read_bytes(), path.name
        unchanged = path.name not in ("table.txt", "venn.json")
        assert (got / path.name).stat().st_mtime_ns == old or not unchanged, path.name
    # another record set over the same directory gives that set's files
    emit("Gemini-2.5-Pro", "all", tmp_path)
    for path in sorted((GOLDEN / "Gemini-2.5-Pro" / "all").iterdir()):
        assert (got / path.name).read_bytes() == path.read_bytes(), path.name


if __name__ == "__main__":
    import shutil
    import tempfile

    for model in MODELS:
        for variant in VARIANTS:
            with tempfile.TemporaryDirectory() as tmp:
                target = GOLDEN / model / variant
                shutil.rmtree(target, ignore_errors=True)
                shutil.copytree(emit(model, variant, Path(tmp)), target)
