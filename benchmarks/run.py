#!/usr/bin/env python3
"""specloop benchmark: experiment grids driven through the public API.

    python3 benchmarks/run.py --workload grid-replay --seed 1 --seconds 30 --trace 0

Generates a seeded corpus and replay persona (``corpusgen``), builds the
oracle and verifier, and runs ``run_experiment`` over the full grid again and
again for ``--seconds`` seconds: a closed loop from one process with
``ExperimentPlan().worker_count()`` threads. Every record is checked against
the generator's prediction, every report against the predicted cell metrics,
and every resume against the first pass. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced episodes and
reports the per-layer metrics (``spans``). The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` (grid runs) and
``metrics``. See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import corpusgen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# the benchmark measures the sources of its own checkout; without them the
# import fails and the run ends before measuring anything
sys.path.insert(0, str(SRC))
import specloop as sl  # noqa: E402
from specloop.acsl import parse_annotations  # noqa: E402

#: set-up (load_dataset + oracle + verifier construction) repetitions before
#: the first episode; each untraced episode adds one more
SETUP_REPS = 4
#: emit_reports and resume repetitions per episode; their timings are pooled
REPORT_REPS = 5
RESUME_REPS = 3
MIN_EPISODES = 2
#: parse_annotations sizes for acsl.parse_scale_4x, and repetitions of each
SCALE_BYTES = 10 * 1024
SCALE_REPS = 3


@dataclass(frozen=True)
class Workload:
    programs: Callable[[random.Random], list]
    runs_per_cell: int
    stub_verifier: bool = False


# Why each workload exists is in BENCHMARK.json and NOTES.md. Program sizes
# within a workload are equal or stratified, so the repair attempts a seed
# assigns to programs do not change the grid's total work.
WORKLOADS = {
    # the oracle and verifier cost nearly nothing: the harness does the work
    "grid-replay": Workload(lambda rng: corpusgen.small_corpus(rng, 100),
                            runs_per_cell=5),
    # every completion is a whole 32 KB program: the layout scan dominates
    "grid-large-src": Workload(
        lambda rng: corpusgen.large_corpus(rng, (32 * 1024, 32 * 1024)),
        runs_per_cell=1),
    # verifier-bound: a subprocess per verifier call, sleep as prover time
    "grid-stub-wp": Workload(lambda rng: corpusgen.small_corpus(rng, 6),
                             runs_per_cell=2, stub_verifier=True),
}

END_TO_END_UNITS = {
    "runs_per_s": "1/s", "cpu_ms_per_run": "ms", "report_s": "s",
    "resume_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}


class WorkerCountError(RuntimeError):
    pass


def available_cpus() -> int:
    """Processors this process may run on (what `nproc` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def check_workers(count: int, cpus: int) -> None:
    """The benchmark's load is a closed loop of `count` threads; more
    threads than processors would measure contention, not the harness."""
    if count > cpus:
        raise WorkerCountError(
            f"ExperimentPlan().worker_count() is {count} but only {cpus} "
            f"processors are available")


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("kb_per_s"):
        return "KB/s"
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if name.endswith("calls_per_run"):
        return "calls/run"
    return "ratio"


def generate(name: str, seed: int, root: Path) -> corpusgen.Prediction:
    """Write the workload's corpus and persona for a seed under root."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    programs = workload.programs(rng)
    plans = corpusgen.plan_cells(rng, programs)
    return corpusgen.write(root, programs, plans)


# --------------------------------------------------------------------------
# One workload instance
# --------------------------------------------------------------------------

class Bench:
    def __init__(self, name: str, seed: int, work: Path):
        self.workload = WORKLOADS[name]
        self.work = work
        self.prediction = generate(name, seed, work)
        self.plan = sl.ExperimentPlan(runs_per_cell=self.workload.runs_per_cell)
        self.cells = len(self.prediction.cells) * self.workload.runs_per_cell
        self.episodes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stub = None
        if self.workload.stub_verifier:
            # a working copy, so the exec bit does not depend on the checkout
            self.stub = work / "bin" / "frama-c"
            self.stub.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(HERE / "stub" / "frama-c", self.stub)
            self.stub.chmod(0o755)

    def setup(self):
        """load_dataset plus oracle and verifier construction: setup_s."""
        started = time.perf_counter()
        corpus = sl.load_dataset(self.work / "corpus")
        oracle, verifier = self.oracle_and_verifier()
        return corpus, oracle, verifier, time.perf_counter() - started

    def oracle_and_verifier(self):
        oracle = sl.ReplayOracle(self.work / "persona")
        if self.stub is None:
            return oracle, sl.MockVerifier(always_failing=(corpusgen.MARKER,))
        return oracle, sl.FramaCVerifier(sl.FramaCSettings(
            executable=str(self.stub), wall_budget=60.0,
            extra_args=("-stub-fail-marker", corpusgen.MARKER)))

    def warm_up(self, corpus, oracle, verifier) -> None:
        plan = sl.ExperimentPlan(runs_per_cell=1)
        records = sl.run_experiment(plan, corpus[:2], oracle, verifier)
        for record in records:
            self.problems.extend(self.prediction.mismatches(record))

    def episode(self, corpus, oracle, verifier, tracer=None) -> dict:
        """Grid, reports and resume on a fresh output directory."""
        out = self.work / "out" / f"ep{self.episodes}"
        self.episodes += 1
        self.attempted += self.cells
        grid_span = None
        try:
            gc.collect()
            cpu0, t0 = time.process_time(), time.perf_counter()
            if tracer is None:
                records = sl.run_experiment(self.plan, corpus, oracle, verifier, out)
            else:
                with tracer.span("runner.run_experiment") as grid_span:
                    records = sl.run_experiment(self.plan, corpus, oracle, verifier, out)
            grid_s = time.perf_counter() - t0
            cpu_s = time.process_time() - cpu0
        except Exception:
            self.failed += self.cells
            raise
        self.check_records(records)

        report_times = []
        for _ in range(REPORT_REPS):
            gc.collect()
            t0 = time.perf_counter()
            if tracer is None:
                summary = sl.emit_reports(records, out)
            else:
                with tracer.span("metrics.emit_reports"):
                    summary = sl.emit_reports(records, out)
            report_times.append(time.perf_counter() - t0)
        self.check_summary(summary)

        resume_times = []
        for _ in range(RESUME_REPS):
            gc.collect()
            t0 = time.perf_counter()
            again = sl.run_experiment(self.plan, corpus, oracle, verifier, out)
            resume_times.append(time.perf_counter() - t0)
            self.check_resume(records, again, out / "records.jsonl")
        shutil.rmtree(out)
        return {"grid_s": grid_s, "cpu_s": cpu_s, "report_s": report_times,
                "resume_s": resume_times, "grid_span": grid_span}

    # -- correctness --------------------------------------------------------

    def check_records(self, records) -> None:
        bad = 0
        seen = set()
        for record in records:
            problems = self.prediction.mismatches(record)
            seen.add((record.program_id, record.config_name,
                      record.paradigm.value, record.run_index))
            if problems:
                bad += 1
                self.problems.extend(problems)
        missing = self.cells - len(seen)
        if missing:
            self.problems.extend([f"{missing} grid cells have no record"])
        self.failed += bad + missing

    def check_summary(self, summary: dict) -> None:
        cells = summary.get("cells", [])
        if len(cells) != len(corpusgen.CONFIGS) * 2:
            self.problems.extend([f"report has {len(cells)} cells, expected 8"])
        for cell in cells:
            want = self.prediction.cell_summary(cell["config"], cell["paradigm"])
            got = {k: cell[k] for k in want}
            if got != want:
                self.problems.extend([f"report cell {cell['config']}/{cell['paradigm']}: "
                           f"{got} != predicted {want}"])

    def check_resume(self, first, again, records_path: Path) -> None:
        def key(r):
            return (r.program_id, r.config_name, r.paradigm.value, r.run_index,
                    r.outcome.value, r.tool_calls)
        if [key(r) for r in first] != [key(r) for r in again]:
            self.problems.extend(["resume returned different records"])
        with records_path.open(encoding="utf-8") as fh:
            lines = sum(1 for line in fh if line.strip())
        if lines != self.cells:
            self.problems.extend([f"records.jsonl has {lines} lines after resume, "
                       f"expected {self.cells}"])

    # -- traced episode ----------------------------------------------------

    def traced_episode(self) -> dict:
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            with tracer.span("runner.load_dataset"):
                corpus = sl.load_dataset(self.work / "corpus")
            oracle, verifier = self.oracle_and_verifier()
            spans.install_instances(tracer, oracle, verifier)
            result = self.episode(corpus, oracle, verifier, tracer)
        finally:
            tracer.uninstall()
        result["layers"] = spans.layer_metrics(tracer.spans, result["grid_span"])
        return result


def parse_scale_4x(seed: int) -> float:
    """parse_annotations time at 4x the input size over time at 1x."""
    rng = random.Random(f"scale:{seed}")
    timings = []
    for size in (SCALE_BYTES, 4 * SCALE_BYTES):
        program = corpusgen.large_program(rng, 0, size)
        text = program.annotated(corpusgen.clean_clauses(program, "CF"))
        reps = []
        for _ in range(SCALE_REPS):
            t0 = time.perf_counter()
            parse_annotations(text)
            reps.append(time.perf_counter() - t0)
        timings.append(statistics.median(reps))
    return timings[1] / timings[0]


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------

def measure(bench: Bench, seconds: float, trace: bool, seed: int) -> tuple[dict, dict]:
    """Returns (metrics, sample counts)."""
    setups = []

    def setup():
        gc.collect()
        *made, setup_s = bench.setup()
        setups.append(setup_s)
        return made

    for _ in range(SETUP_REPS):
        made = setup()
    bench.warm_up(*made)

    plain: list[dict] = []
    traced: list[dict] = []
    lengths: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        if trace and len(plain) > len(traced):
            traced.append(bench.traced_episode())
        else:
            # one more set-up sample per episode spreads them over the run
            plain.append(bench.episode(*setup()))
        lengths.append(time.perf_counter() - started)
        # at least two untraced episodes, or one of each kind when traced;
        # after that, stop before an episode that would overrun the
        # deadline, so a run lasts about --seconds whatever the episode length
        enough = traced if trace else len(plain) >= MIN_EPISODES
        if enough and time.perf_counter() + statistics.median(lengths) > deadline:
            break

    if not trace:
        metrics = {
            "runs_per_s": statistics.median(bench.cells / e["grid_s"] for e in plain),
            "cpu_ms_per_run": statistics.median(
                1000 * e["cpu_s"] / bench.cells for e in plain),
            "report_s": statistics.median(t for e in plain for t in e["report_s"]),
            "resume_s": statistics.median(t for e in plain for t in e["resume_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        counts = {name: len(plain) for name in metrics}
        counts.update(report_s=len(plain) * REPORT_REPS,
                      resume_s=len(plain) * RESUME_REPS, setup_s=len(setups))
        counts["peak_rss_mb"] = 1
        return metrics, counts

    names = traced[0]["layers"].keys()
    # median_low keeps counts whole
    metrics = {name: statistics.median_low(e["layers"][name] for e in traced)
               for name in names}
    metrics["acsl.parse_scale_4x"] = parse_scale_4x(seed)
    metrics["trace.overhead_ratio"] = (
        statistics.median(e["grid_s"] for e in traced)
        / statistics.median(e["grid_s"] for e in plain))
    counts = {name: len(traced) for name in metrics}
    counts["acsl.parse_scale_4x"] = SCALE_REPS
    return metrics, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if Path(sl.__file__).resolve().parent != (SRC / "specloop").resolve():
        print(f"error: imported specloop from {sl.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workers = sl.ExperimentPlan().worker_count()
    try:
        check_workers(workers, available_cpus())
    except WorkerCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        crashed = False
        try:
            metrics, counts = measure(bench, args.seconds, bool(args.trace), args.seed)
        except Exception:
            traceback.print_exc()
            crashed = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload} seed {args.seed} workers {workers} "
          f"grid {bench.cells} runs x {bench.episodes} episodes "
          f"({'traced' if args.trace else 'untraced'})")
    for problem in bench.problems[:20]:
        print(f"MISMATCH {problem}")
    if len(bench.problems) > 20:
        print(f"... {len(bench.problems) - 20} more mismatches")
    print(f"failed_ratio {bench.failed / max(bench.attempted, 1):.6f} ratio "
          f"({bench.failed} of {bench.attempted} runs)")
    if crashed:
        print(json.dumps({"correct": False, "attempted": max(bench.attempted, 1),
                          "failed": max(bench.failed, 1), "metrics": {}}))
        return 1
    units = (END_TO_END_UNITS if not args.trace
             else {name: layer_unit(name) for name in metrics})
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]} (n={counts[name]})")
    if args.workload == "grid-stub-wp":
        print("note: verifier time on grid-stub-wp comes from the stub frama-c "
              "(fixed sleep per call), not from a real prover")
    correct = bench.failed == 0 and not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
