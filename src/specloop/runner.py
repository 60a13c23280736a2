"""Experiment runner: load a program corpus and execute the full grid of
configurations x paradigms x N runs, persisting one record per run.

Each finished run appends one line, its record and its verifier calls, to
a line-delimited file, so an interrupted experiment resumes by skipping
already-persisted cells. A resume decodes only what it reads: the calls
are stored as one JSON-encoded string that loading leaves undecoded, and
each annotation of a final specification as a flat array.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence

from .acsl import declared_functions
from .config import BUNDLED_TEMPLATES, CANONICAL_NAMES, TemplateStore, canonical_config
from .errors import (AcslError, CorpusError, CorruptRecords, DuplicateId,
                     EmptyCorpus, MissingTargetFunction)
from .oracle import Oracle
from .refine import JSON_LINE, Paradigm, RunLimits, RunLogger, RunRecord, run_once
from .verifier import Verifier


@dataclass(frozen=True)
class Program:
    """A C program and the function its specification is for; an empty
    target_function names the last function the source defines."""
    id: str
    source: str
    target_function: str
    category: str

    def __post_init__(self) -> None:
        functions = declared_functions(self.source)
        if not self.target_function:
            if not functions:
                raise MissingTargetFunction(
                    f"program {self.id!r}: no function definition found")
            object.__setattr__(self, "target_function", functions[-1])
        elif self.target_function not in functions:
            raise MissingTargetFunction(
                f"program {self.id!r}: function {self.target_function!r} "
                f"is not defined in the source")


def load_dataset(directory: str | Path) -> list[Program]:
    """Load a corpus laid out as <root>/<category>/<program-id>.c.

    An optional sibling <program-id>.json manifest may name the target
    function; by default the last function defined in the file is the
    target. Programs are ordered by id.
    """
    root = Path(directory)
    programs: dict[str, Program] = {}
    for path in sorted(root.glob("*/*.c")):
        program_id = path.stem
        if program_id in programs:
            raise DuplicateId(
                f"program id {program_id!r} appears in category "
                f"{programs[program_id].category!r} and {path.parent.name!r}")
        try:
            source = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(f"program {path}: {exc}") from None
        manifest = path.with_suffix(".json")
        if manifest.is_file():
            try:
                data = json.loads(manifest.read_text(encoding="utf-8"))
            except ValueError as exc:   # not JSON, or not UTF-8
                raise CorpusError(f"manifest {manifest}: {exc}") from None
            target = data.get("target_function") if isinstance(data, dict) else None
            if not isinstance(target, str) or not target:
                raise MissingTargetFunction(
                    f"manifest {manifest} has no \"target_function\" string")
        else:
            target = ""   # the last function defined
        try:
            programs[program_id] = Program(
                id=program_id, source=source,
                target_function=target, category=path.parent.name,
            )
        except AcslError as exc:   # the layout scan rejects the text
            raise CorpusError(f"program {path}: {exc}") from None
    if not programs:
        raise EmptyCorpus(f"no .c files under {root}")
    return [programs[k] for k in sorted(programs)]


@dataclass(frozen=True)
class ExperimentPlan:
    """A grid and the prompt templates its runs fill. Building one raises,
    before any cell runs, for an empty or repeated configuration or
    paradigm, an unknown configuration, or a template the runs need that
    the store lacks (a repair template only if modification is planned)."""
    configs: tuple[str, ...] = CANONICAL_NAMES
    paradigms: tuple[Paradigm, ...] = tuple(Paradigm)
    runs_per_cell: int = 5
    limits: RunLimits = field(default_factory=RunLimits)
    workers: int = 0  # 0 = as many as the oracle and verifier can use
    templates: TemplateStore = BUNDLED_TEMPLATES

    def __post_init__(self) -> None:
        if not self.configs or not self.paradigms or self.runs_per_cell < 1:
            raise ValueError("plan needs configs, paradigms and a positive run count")
        if self.workers < 0:
            raise ValueError("workers must not be negative (0 sizes the pool)")
        for names in (self.configs, [p.value for p in self.paradigms]):
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise ValueError(f"plan repeats {name!r}")
        for name in self.configs:
            canonical_config(name)   # an unknown name raises before any cell
            self.templates.load("generate", name)
            if Paradigm.MODIFICATION in self.paradigms:
                self.templates.load("repair", name)

    def worker_count(self, *components: Oracle | Verifier) -> int:
        """`workers` if set, else the components' largest `concurrency`
        capped at the processor count (the cap alone with no components)."""
        processors = os.cpu_count() or 1
        return self.workers if self.workers > 0 else min(
            processors, max((c.concurrency for c in components), default=processors))

    def cells(self, corpus: Sequence[Program]) -> list[tuple[Program, str, Paradigm, int]]:
        return [
            (program, config, paradigm, run_index)
            for program in corpus
            for config in self.configs
            for paradigm in self.paradigms
            for run_index in range(1, self.runs_per_cell + 1)
        ]


class RecordStore:
    """Append-only JSONL persistence with a single serialized writer.

    Each append writes one line per run: the record's fields and a
    `verifier_calls` string, the JSON encoding of a list with one entry per
    verifier call in attempt order. A final specification is a list of
    arrays: `[construct, text]` at file scope, `[construct, text, function]`
    in a function contract, `[construct, text, function, ordinal]` on a
    loop. The first append opens the file; it stays open until `close`, and
    each line is flushed as it is written.

    An undecodable last line without its newline is an interrupted append:
    `load` skips it and the first `append` cuts it off, so its cell re-runs.
    Any other line that does not decode, or is not a run record of the
    stored shape, raises CorruptRecords naming its number. `load` does not
    decode `verifier_calls`.

    Lines written before these forms still load: annotations stored as
    `{"construct", "text", "anchor"}` objects and `verifier_calls` stored
    as a nested list, or not stored at all. A file mixing both forms
    resumes, and no line is rewritten.

    One `load` builds each distinct stored annotation once: records it
    returns share one `Annotation` object per equal stored annotation. An
    unknown construct still raises at `load`."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._file: IO[str] | None = None

    def load(self) -> list[RunRecord]:
        if not self.path.is_file():
            return []
        records = []
        built: dict = {}   # stored fields -> annotation, for this load only
        with self.path.open("rb") as fh:
            for number, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    records.append(RunRecord.from_dict(
                        json.loads(line.decode("utf-8")), built))
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    # only the last line can lack its newline
                    if not line.endswith(b"\n"):
                        break
                    raise CorruptRecords(
                        f"{self.path}, line {number}: not JSON ({exc})") from None
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise CorruptRecords(
                        f"{self.path}, line {number}: not a run record "
                        f"({type(exc).__name__}: {exc})") from None
        return records

    def append(self, record: RunRecord, calls: list[dict]) -> None:
        """Persist one run: its record and its verifier calls (as
        `RunLogger.close` returns them), the calls as one JSON string."""
        line = JSON_LINE.encode({**record.to_dict(),
                                 "verifier_calls": JSON_LINE.encode(calls)})
        with self._lock:
            if self._file is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                _end_last_line(self.path)
                self._file = self.path.open("a", encoding="utf-8")
            self._file.write(line + "\n")
            self._file.flush()

    def close(self) -> None:
        """Close the append handle; a later append opens it again."""
        with self._lock:
            fh, self._file = self._file, None
        if fh is not None:
            fh.close()


def _end_last_line(path: Path) -> None:
    """End a complete last line that lacks its newline, or cut off an
    interrupted append, so that the next write starts a line."""
    with path.open("a+b") as fh:  # creates the file, writes at its end
        fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
        if fh.read(1) in (b"", b"\n"):
            return
        fh.seek(0)
        data = fh.read()
        start = data.rfind(b"\n") + 1
        try:
            json.loads(data[start:])
        except ValueError:
            fh.truncate(start)
        else:
            fh.write(b"\n")


def run_experiment(plan: ExperimentPlan, corpus: Sequence[Program],
                   oracle: Oracle, verifier: Verifier,
                   out_dir: str | Path | None = None) -> list[RunRecord]:
    """Execute every (program, config, paradigm, run) cell of the plan.

    With an out_dir, each finished run appends its record and its verifier
    calls to records.jsonl (see `RecordStore`); cells already there are
    skipped on restart. Individual run errors become Errored records, never
    exceptions.
    """
    if not corpus:
        raise EmptyCorpus("experiment needs a non-empty corpus")

    store = RecordStore(Path(out_dir) / "records.jsonl") if out_dir else None
    done: dict[tuple, RunRecord] = {
        (r.program_id, r.config_name, r.paradigm, r.run_index): r
        for r in (store.load() if store else ())}

    cells = plan.cells(corpus)
    pending = [cell for cell in cells if (cell[0].id, *cell[1:]) not in done]
    # run-major: every cell's run 1 (paradigms in plan order) before any
    # run 2, so a verifier input repeated across runs and paradigms arrives
    # after its first call has finished and can be answered from a cache
    pending.sort(key=lambda cell: (cell[3], plan.paradigms.index(cell[2])))

    def execute(cell) -> RunRecord:
        program, config_name, paradigm, run_index = cell
        logger = RunLogger()
        record = run_once(
            program, canonical_config(config_name), paradigm,
            oracle, verifier, plan.limits,
            run_index=run_index, templates=plan.templates, logger=logger,
        )
        if store:
            store.append(record, logger.close())
        return record

    workers = plan.worker_count(oracle, verifier)
    try:
        if workers > 1 and pending:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                fresh = list(pool.map(execute, pending))
        else:
            fresh = [execute(cell) for cell in pending]
    finally:
        if store:
            store.close()

    for (program, *rest), record in zip(pending, fresh):
        done[(program.id, *rest)] = record
    return [done[(program.id, *rest)] for program, *rest in cells]
