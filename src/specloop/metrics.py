"""Metric suite over run records: compliance ratio, verification counts,
tool-call and runtime costs, plus the derived quantities (reduction rate,
improvement ratio, verified-set intersections, optimal-configuration
proportions) and report emission.

Conventions, matching the reference results these metrics mirror:

* the compliance ratio is computed over samples (program x run); a strict
  per-program variant (all runs compliant) is emitted alongside;
* tool-call and runtime metrics are the mean over runs of the per-run
  dataset total;
* errored runs count as not verified, keep their real tool calls and
  elapsed time in the cost metrics, and are tallied separately.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import IncompleteGrid, UndefinedMetric
from .refine import Paradigm, RunOutcome, RunRecord

_CONFIG_ORDER = ("CB", "CV", "CA", "CF")
_METRIC_COLUMNS = ("nvp", "nsvp", "nvtc", "rt")


# --------------------------------------------------------------------------
# Cell aggregation: one validated pass computes everything the reports use
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CellMetrics:
    config_name: str
    paradigm: Paradigm
    csccr: float
    csccr_per_program: float
    nvp: int
    nsvp: int
    nvtc: float
    rt: float
    reduction_rate: float
    verified_program_set: frozenset[str]
    errored: int
    distribution: Mapping[str, int] = field(hash=False)
    # per-program means over runs in program order, for the optimal shares
    mean_tool_calls: Mapping[str, float] = field(hash=False, repr=False)
    mean_elapsed: Mapping[str, float] = field(hash=False, repr=False)

    def value(self, column: str) -> float:
        return getattr(self, column)

    def to_dict(self, distribution: dict | None = None) -> dict:
        data = {
            "config": self.config_name,
            "paradigm": self.paradigm.value,
            "csccr": round(self.csccr, 4),
            "csccr_per_program": round(self.csccr_per_program, 4),
            "nvp": self.nvp,
            "nsvp": self.nsvp,
            "nvtc": round(self.nvtc, 4),
            "rt": round(self.rt, 4),
            "reduction_rate": round(self.reduction_rate, 4),
            "verified_programs": sorted(self.verified_program_set),
            "errored": self.errored,
        }
        if distribution is not None:
            data["distribution"] = distribution
        return data


def compute_cell(records: Sequence[RunRecord]) -> CellMetrics:
    """Validate that records are one (config, paradigm) cell over a full
    program x run grid without duplicates, and compute all of its metrics
    in the same pass."""
    if not records:
        raise IncompleteGrid("no records in cell")
    cells: set[tuple[str, Paradigm]] = set()
    duplicate: RunRecord | None = None
    runs_by_program: dict[str, set[int]] = defaultdict(set)
    noncompliant: set[str] = set()
    wins: dict[str, int] = defaultdict(int)
    elapsed_by_run: dict[int, float] = defaultdict(float)
    calls_by_program: dict[str, int] = defaultdict(int)
    elapsed_by_program: dict[str, float] = defaultdict(float)
    dist = dict.fromkeys(("compliant_verified", "compliant_failed",
                          "noncompliant_verified", "noncompliant_failed", "errored"), 0)
    for r in records:
        cells.add((r.config_name, r.paradigm))
        seen = runs_by_program[r.program_id]
        if r.run_index in seen and duplicate is None:
            duplicate = r
        seen.add(r.run_index)
        verified = r.outcome is RunOutcome.VERIFIED
        if verified:
            wins[r.program_id] += 1
        if not r.compliant:
            noncompliant.add(r.program_id)
        side = "compliant" if r.compliant else "noncompliant"
        dist[f"{side}_{'verified' if verified else 'failed'}"] += 1
        dist["errored"] += r.outcome is RunOutcome.ERRORED
        elapsed_by_run[r.run_index] += r.elapsed
        calls_by_program[r.program_id] += r.tool_calls
        elapsed_by_program[r.program_id] += r.elapsed
    if len(cells) != 1:
        raise IncompleteGrid(f"records span {len(cells)} cells, expected exactly 1")
    if duplicate is not None:
        raise IncompleteGrid(
            f"duplicate record for {duplicate.program_id!r} run {duplicate.run_index}")
    index_sets = {frozenset(v) for v in runs_by_program.values()}
    if len(index_sets) != 1:
        raise IncompleteGrid("programs cover different run indexes")
    runs = sorted(next(iter(index_sets)))
    programs = sorted(runs_by_program)
    config_name, paradigm = next(iter(cells))
    stable = sum(1 for count in wins.values() if count >= 2)
    return CellMetrics(
        config_name=config_name,
        paradigm=paradigm,
        csccr=(dist["compliant_verified"] + dist["compliant_failed"]) / len(records),
        csccr_per_program=(len(programs) - len(noncompliant)) / len(programs),
        nvp=len(wins),
        nsvp=stable,
        nvtc=sum(calls_by_program.values()) / len(runs),
        rt=sum(elapsed_by_run[i] for i in runs) / len(runs),
        reduction_rate=reduction_rate(len(wins), stable),
        verified_program_set=frozenset(wins),
        errored=dist["errored"],
        distribution=dist,
        mean_tool_calls={p: calls_by_program[p] / len(runs) for p in programs},
        mean_elapsed={p: elapsed_by_program[p] / len(runs) for p in programs},
    )


def csccr(records: Sequence[RunRecord]) -> float:
    """Share of samples whose initially proposed specification complied
    with the configuration's construct constraints."""
    return compute_cell(records).csccr


def csccr_per_program(records: Sequence[RunRecord]) -> float:
    """Strict per-program variant: share of programs compliant in every run."""
    return compute_cell(records).csccr_per_program


def verified_program_set(records: Sequence[RunRecord]) -> frozenset[str]:
    """Programs verified in at least one run."""
    return compute_cell(records).verified_program_set


def nvp(records: Sequence[RunRecord]) -> int:
    """Number of programs verified in at least one of the N runs."""
    return compute_cell(records).nvp


def nsvp(records: Sequence[RunRecord]) -> int:
    """Number of programs verified in at least two of the N runs."""
    return compute_cell(records).nsvp


def nvtc(records: Sequence[RunRecord]) -> float:
    """Mean over runs of the total verifier calls across the dataset,
    including the initial check of every guess-verify-refine loop."""
    return compute_cell(records).nvtc


def rt(records: Sequence[RunRecord]) -> float:
    """Mean over runs of the total elapsed seconds across the dataset
    (generation start through verification end, per program)."""
    return compute_cell(records).rt


def sample_distribution(records: Sequence[RunRecord]) -> dict[str, int]:
    """Quadrant counts over samples: compliance x verification outcome.
    Errored samples land in the failed quadrants and are also tallied."""
    return dict(compute_cell(records).distribution)


def reduction_rate(nvp_value: float, nsvp_value: float) -> float:
    """Relative loss when requiring stable verification: (NVP-NSVP)/NVP."""
    if nvp_value < nsvp_value or nsvp_value < 0:
        raise ValueError("expected nvp >= nsvp >= 0")
    if nvp_value == 0:
        return 0.0
    return (nvp_value - nsvp_value) / nvp_value

def improvement_ratio(modify_value: float, delete_value: float) -> float:
    """Relative change of the modification paradigm over deletion."""
    if delete_value == 0:
        raise UndefinedMetric("improvement ratio undefined for a zero baseline")
    return (modify_value - delete_value) / delete_value


def _split_cells(records: Iterable[RunRecord]) -> dict[tuple[str, Paradigm], list[RunRecord]]:
    cells: dict[tuple[str, Paradigm], list[RunRecord]] = defaultdict(list)
    for r in records:
        cells[(r.config_name, r.paradigm)].append(r)
    return dict(cells)


def _compute_cells(records: Iterable[RunRecord]) -> dict[tuple[str, Paradigm], CellMetrics]:
    return {key: compute_cell(cell) for key, cell in _split_cells(records).items()}


# --------------------------------------------------------------------------
# Verified-set algebra and optimal-configuration proportions
# --------------------------------------------------------------------------

def _named_cells(records: Iterable[RunRecord], configs: Sequence[str],
                 paradigm: Paradigm) -> dict[str, CellMetrics]:
    cells = _split_cells(records)
    for name in configs:
        if (name, paradigm) not in cells:
            raise IncompleteGrid(f"no records for {name} under {paradigm.value}")
    return {name: compute_cell(cells[(name, paradigm)]) for name in configs}


def _venn(named: Mapping[str, CellMetrics], paradigm: Paradigm) -> dict:
    configs = list(named)
    sets = {name: cell.verified_program_set for name, cell in named.items()}
    regions: dict[str, int] = {}
    for k in range(1, len(configs) + 1):
        for members in itertools.combinations(configs, k):
            inside = frozenset.intersection(*(sets[m] for m in members))
            outside = frozenset().union(*(sets[m] for m in configs if m not in members))
            regions["&".join(members)] = len(inside - outside)
    return {
        "configs": configs,
        "paradigm": paradigm.value,
        "sets": {name: sorted(programs) for name, programs in sets.items()},
        "regions": regions,
    }


def venn_sets(records: Iterable[RunRecord],
              configs: Sequence[str] = ("CB", "CV", "CA"),
              paradigm: Paradigm = Paradigm.DELETION) -> dict:
    """Exclusive region cardinalities of the verified-program sets for the
    named configurations under one paradigm, plus the raw sets."""
    return _venn(_named_cells(records, configs, paradigm), paradigm)


def _optimal(named: Mapping[str, CellMetrics], metric: str) -> dict[str, float]:
    means = {name: (cell.mean_tool_calls if metric == "nvtc" else cell.mean_elapsed)
             for name, cell in named.items()}
    programs = list(next(iter(means.values())))
    if any(list(m) != programs for m in means.values()):
        raise IncompleteGrid("configurations cover different program sets")
    shares = {name: 0.0 for name in named}
    for p in programs:
        best = min(m[p] for m in means.values())
        winners = [name for name, m in means.items() if m[p] == best]
        for name in winners:
            shares[name] += 1.0 / len(winners)
    return {name: shares[name] / len(programs) for name in named}


def optimal_config_proportions(records: Iterable[RunRecord],
                               metric: str = "nvtc",
                               configs: Sequence[str] = ("CB", "CV", "CA"),
                               paradigm: Paradigm = Paradigm.DELETION) -> dict[str, float]:
    """For each program, the configuration minimizing the per-program mean
    of the metric wins; ties split fractionally. Proportions sum to 1."""
    if metric not in ("nvtc", "rt"):
        raise ValueError("metric must be 'nvtc' or 'rt'")
    return _optimal(_named_cells(records, configs, paradigm), metric)


# --------------------------------------------------------------------------
# Benchmark-table assembly (per-persona rows, Average, Improvement Ratio)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricsTable:
    personas: tuple[str, ...]
    configs: tuple[str, ...]
    # cells[persona][(config, paradigm)] -> CellMetrics
    cells: Mapping[str, Mapping[tuple[str, Paradigm], CellMetrics]]
    average_exclude: tuple[str, ...] = ()

    def average(self, config: str, paradigm: Paradigm, column: str) -> float:
        rows = [
            self.cells[p][(config, paradigm)].value(column)
            for p in self.personas if p not in self.average_exclude
        ]
        if not rows:
            raise UndefinedMetric("no personas contribute to the average")
        return sum(rows) / len(rows)

    def improvement(self, config: str, column: str) -> float:
        return improvement_ratio(
            self.average(config, Paradigm.MODIFICATION, column),
            self.average(config, Paradigm.DELETION, column),
        )


def build_table(persona_records: Mapping[str, Iterable[RunRecord]],
                configs: Sequence[str] = _CONFIG_ORDER,
                average_exclude: Sequence[str] = ()) -> MetricsTable:
    return MetricsTable(
        personas=tuple(persona_records),
        configs=tuple(configs),
        cells={persona: _compute_cells(records)
               for persona, records in persona_records.items()},
        average_exclude=tuple(average_exclude),
    )


def render_table(table: MetricsTable) -> str:
    """Human-readable table: one section per paradigm with per-persona rows
    and an Average row, then the modification-over-deletion improvement."""
    label_w = max([len(p) for p in table.personas] + [len("Improvement Ratio")]) + 2
    col_w = 10

    def fmt(value: float, column: str) -> str:
        return f"{value:g}" if column in ("nvp", "nsvp") else f"{value:.2f}"

    def improvement(config: str, column: str) -> str:
        try:
            return f"{table.improvement(config, column) * 100:.2f}%"
        except UndefinedMetric:
            return "-"

    def line(label: str, groups) -> str:
        return label.ljust(label_w) + "".join(
            "|" + "".join(text.rjust(col_w) for text in group) + " " for group in groups)

    out: list[str] = []
    for paradigm in (Paradigm.DELETION, Paradigm.MODIFICATION):
        out.append(f"=== {paradigm.name.title()} paradigm ===")
        out.append(" " * label_w + "".join(
            ("| " + name).ljust(2 + 4 * col_w) for name in table.configs))
        out.append(line("", [[c.upper() for c in _METRIC_COLUMNS]] * len(table.configs)))
        for persona in table.personas:
            cells = [table.cells[persona].get((config, paradigm)) for config in table.configs]
            out.append(line(persona, [
                ["-"] * 4 if cell is None else [fmt(cell.value(c), c) for c in _METRIC_COLUMNS]
                for cell in cells]))
        out.append(line("Average", [
            [fmt(table.average(config, paradigm, c), c) for c in _METRIC_COLUMNS]
            for config in table.configs]))
        out.append("")
    out.append(line("Improvement Ratio", [
        [improvement(config, c) for c in _METRIC_COLUMNS] for config in table.configs]))
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# Report emission
# --------------------------------------------------------------------------

def summarize(records: Sequence[RunRecord],
              configs: Sequence[str] = _CONFIG_ORDER) -> dict:
    """Machine-readable consolidated summary: one object per cell plus
    verified-set algebra and optimal-configuration proportions where the
    three comparison configurations are present."""
    return _summary(_compute_cells(r for r in records if r.config_name in configs),
                    configs)


def _summary(cells: Mapping[tuple[str, Paradigm], CellMetrics],
             configs: Sequence[str]) -> dict:
    summary: dict = {"cells": [
        cells[(config, paradigm)].to_dict(dict(cells[(config, paradigm)].distribution))
        for paradigm in (Paradigm.DELETION, Paradigm.MODIFICATION)
        for config in configs if (config, paradigm) in cells
    ]}
    venn_configs = [c for c in ("CB", "CV", "CA") if c in configs]
    for paradigm in (Paradigm.DELETION, Paradigm.MODIFICATION):
        if len(venn_configs) == 3 and all(
                (c, paradigm) in cells for c in venn_configs):
            named = {c: cells[(c, paradigm)] for c in venn_configs}
            summary.setdefault("venn", {})[paradigm.value] = _venn(named, paradigm)
            for metric in ("nvtc", "rt"):
                summary.setdefault(f"optimal_{metric}", {})[paradigm.value] = {
                    k: round(v, 4) for k, v in _optimal(named, metric).items()}
    return summary


def _write_text(path: Path, text: str) -> None:
    """Write `text` unless the file already holds exactly it. Emitting the
    same reports again (a resumed, finished grid) then costs a read: a
    truncate-and-rewrite would make ext4 start writeback on close, and the
    next rewrite wait for that disk I/O."""
    data = text.encode("utf-8")
    try:
        if path.read_bytes() == data:
            return
    except FileNotFoundError:
        pass
    path.write_bytes(data)


def _write_json(path: Path, data) -> None:
    _write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def emit_reports(records: Sequence[RunRecord], out_dir: str | Path,
                 persona: str = "oracle",
                 configs: Sequence[str] = _CONFIG_ORDER) -> dict:
    """Write the consolidated summary, the human-readable table and the
    plotting data files under out_dir/report. Returns the summary dict.

    Raises IncompleteGrid, before writing any file, when a configuration in
    `configs` has no records under a paradigm the records hold."""
    cells = _compute_cells(records)
    held = {paradigm for _, paradigm in cells}
    for config, paradigm in itertools.product(configs, Paradigm):
        if paradigm in held and (config, paradigm) not in cells:
            raise IncompleteGrid(f"no records for {config} under {paradigm.value}")
    out = Path(out_dir) / "report"
    out.mkdir(parents=True, exist_ok=True)
    summary = _summary(cells, configs)
    _write_json(out / "summary.json", summary)

    if len(held) == 2:
        table = MetricsTable(personas=(persona,), configs=tuple(configs),
                             cells={persona: cells})
        _write_text(out / "table.txt", render_table(table))

    for name in ("venn", "optimal_nvtc", "optimal_rt"):
        if name in summary:
            _write_json(out / f"{name}.json", summary[name])
    _write_json(out / "sample_distribution.json", {
        f"{config}/{paradigm.value}": dict(metrics.distribution)
        for (config, paradigm), metrics in cells.items()
    })
    return summary
