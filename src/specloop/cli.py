"""Command line entry point.

``specloop run`` executes an experiment grid over a corpus directory;
``specloop report`` recomputes the report files from persisted records.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import BUNDLED_TEMPLATES, CANONICAL_NAMES, TemplateStore, canonical_config
from .errors import SpecloopError
from .metrics import emit_reports
from .oracle import HttpChatOracle, HttpOracleSettings, Oracle, ReplayOracle
from .refine import Paradigm, RunLimits, RunOutcome
from .runner import ExperimentPlan, RecordStore, load_dataset, run_experiment
from .verifier import FramaCSettings, FramaCVerifier, MockVerifier, Verifier


def _build_oracle(persona: str) -> Oracle:
    if persona == "http":
        return HttpChatOracle(HttpOracleSettings.from_env())
    path = Path(persona)
    if path.is_dir():
        return ReplayOracle(path)
    raise SpecloopError(
        f"oracle persona {persona!r} is neither 'http' nor a replay directory")


def _build_verifier(args: argparse.Namespace) -> Verifier:
    if args.verifier == "framac":
        return FramaCVerifier(FramaCSettings(
            executable=args.framac_path,
            prover=args.prover,
            prover_timeout=args.prover_timeout,
            wall_budget=args.verifier_wall_budget,
            max_processes=args.verifier_processes,
        ))
    if args.mock_fixtures:
        return MockVerifier.from_file(args.mock_fixtures)
    return MockVerifier()


def _add_run_parser(subparsers) -> None:
    p = subparsers.add_parser("run", help="execute an experiment grid")
    p.add_argument("--dataset", required=True, help="corpus directory")
    p.add_argument("--configs", default=",".join(ExperimentPlan.configs),
                   help="comma-separated configuration names")
    p.add_argument("--paradigms",
                   default=",".join(d.value for d in ExperimentPlan.paradigms),
                   help="comma-separated refinement paradigms (delete, modify)")
    p.add_argument("--runs", type=int, default=ExperimentPlan.runs_per_cell,
                   help="independent runs per cell")
    p.add_argument("--oracle", required=True,
                   help="'http' (settings from ORACLE_* env vars) or a replay "
                        "fixture directory")
    p.add_argument("--verifier", choices=("framac", "mock"), default="framac")
    p.add_argument("--max-iters", type=int, default=RunLimits.max_repair_iterations,
                   help="repair iteration budget (modification paradigm)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--run-wall-budget", type=float, default=RunLimits.wall_budget,
                   help="per-run wall budget in seconds")
    p.add_argument("--workers", type=int, default=ExperimentPlan.workers,
                   help="concurrent runs (0 = sized by the oracle and verifier)")
    p.add_argument("--templates", default=None,
                   help="directory overriding the bundled prompt templates")
    p.add_argument("--mock-fixtures", default=None,
                   help="JSON rule file for the mock verifier")
    p.add_argument("--framac-path", default=FramaCSettings.executable)
    p.add_argument("--prover", default=FramaCSettings.prover)
    p.add_argument("--prover-timeout", type=int, default=FramaCSettings.prover_timeout)
    p.add_argument("--verifier-wall-budget", type=float, default=FramaCSettings.wall_budget)
    p.add_argument("--verifier-processes", type=int, default=FramaCSettings.max_processes)


def _add_report_parser(subparsers) -> None:
    p = subparsers.add_parser("report", help="recompute reports from records")
    p.add_argument("--records", required=True, help="records.jsonl file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--configs", default=None,
                   help="comma-separated configuration names (default: those "
                        "the records hold)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="specloop")
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(subparsers)
    _add_report_parser(subparsers)
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_report(args)
    except SpecloopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        paradigms = tuple(Paradigm(p.strip())
                          for p in args.paradigms.split(",") if p.strip())
    except ValueError as exc:   # "'modfy' is not a valid Paradigm"
        raise SpecloopError(f"{exc}; expected delete or modify") from None
    try:
        # building the plan loads every template its grid fills, so a bad
        # grid or template raises here, before `--out` exists
        plan = ExperimentPlan(
            configs=tuple(n.strip() for n in args.configs.split(",") if n.strip()),
            paradigms=paradigms,
            runs_per_cell=args.runs,
            limits=RunLimits(max_repair_iterations=args.max_iters,
                             wall_budget=args.run_wall_budget),
            workers=args.workers,
            templates=TemplateStore(args.templates) if args.templates else BUNDLED_TEMPLATES,
        )
        verifier = _build_verifier(args)
        oracle = _build_oracle(args.oracle)
    except (ValueError, OSError) as exc:
        # an empty or repeated list, a count, budget or temperature out of
        # range, or a fixtures file that cannot be read, decoded or used
        raise SpecloopError(str(exc)) from None
    corpus = load_dataset(args.dataset)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(oracle, HttpChatOracle):
        # decoding parameters belong with the results for reproducibility
        (out / "oracle_settings.json").write_text(
            json.dumps(oracle.settings.record(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    records = run_experiment(plan, corpus, oracle, verifier, out_dir=args.out)
    emit_reports(records, args.out, persona=args.oracle, configs=plan.configs)

    errored = sum(1 for r in records if r.outcome is RunOutcome.ERRORED)
    verified = sum(1 for r in records if r.outcome is RunOutcome.VERIFIED)
    print(f"{len(records)} records: {verified} verified, {errored} errored; "
          f"reports in {Path(args.out) / 'report'}")
    return 1 if errored else 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = RecordStore(args.records)
    if not store.path.is_file():
        raise SpecloopError(f"no records file at {store.path}")
    records = store.load()
    if args.configs is None:
        held = {r.config_name for r in records}
        configs = tuple(name for name in CANONICAL_NAMES if name in held)
    else:   # an unknown name raises before any file is written
        configs = tuple(canonical_config(name.strip()).name
                        for name in args.configs.split(",") if name.strip())
    emit_reports(records, args.out, configs=configs)
    print(f"reports in {Path(args.out) / 'report'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
