"""Acceptance criteria, one test per criterion. Each prints a PASS line on
success (run with ``pytest tests/test_acceptance.py -v -s``); stated runtime
budgets are asserted inside the tests themselves.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import time
from pathlib import Path

import pytest

from specloop import (
    Annotation,
    ConstructKind,
    FunctionContract,
    MockVerifier,
    Paradigm,
    Program,
    ReportStatus,
    RunLimits,
    ScriptedOracle,
    SpecificationSet,
    build_table,
    canonical_config,
    check_compliance,
    compute_cell,
    map_failures_to_annotations,
    optimal_config_proportions,
    parse_annotations,
    reduction_rate,
    run_once,
    strip_annotations,
    venn_sets,
    weave,
)
from specloop.metrics import emit_reports
from specloop.refine import RunLogger, RunOutcome
from specloop.runner import ExperimentPlan, run_experiment
from specloop.verifier import FramaCVerifier

import synth
import toyworld
from test_metrics import (
    brute_force_proportions,
    brute_force_regions,
    records_for_sets,
    records_with_costs,
)

K = ConstructKind
FIXTURES = Path(__file__).parent / "fixtures"


def ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE C{criterion:02d} PASS - {message}")


# --------------------------------------------------------------------------
# 1. metrics fixture equivalence with the reference table
# --------------------------------------------------------------------------

def test_c01_metrics_fixture_equivalence():
    started = time.perf_counter()
    table = build_table(synth.make_reference_records(),
                        average_exclude=synth.EXCLUDED_FROM_AVERAGE)
    checked = 0
    for paradigm, per_config in synth.REFERENCE_AVERAGES.items():
        for config, expected in per_config.items():
            for column, value in zip(("nvp", "nsvp", "nvtc", "rt"), expected):
                assert table.average(config, paradigm, column) == pytest.approx(
                    value, abs=0.01), (paradigm.value, config, column)
                checked += 1
    for config, columns in synth.REFERENCE_IMPROVEMENT.items():
        for column, expected in columns.items():
            assert table.improvement(config, column) == pytest.approx(
                expected, abs=0.01), (config, column)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    ok(1, f"{checked} reference Average/Improvement values reproduced "
          f"within 0.01 in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 2. reduction-rate reproduction
# --------------------------------------------------------------------------

def test_c02_reduction_rate_reproduction():
    pairs = {"CB": (31.8, 29.4), "CV": (34.6, 30.0),
             "CA": (33.4, 26.8), "CF": (37.0, 33.6)}
    for config, pair in pairs.items():
        expected = synth.REFERENCE_REDUCTION[Paradigm.DELETION][config]
        assert reduction_rate(*pair) == pytest.approx(expected, abs=0.01)
    ok(2, "deletion-paradigm reduction rates 7.55/13.29/19.76/9.19% reproduced")


# --------------------------------------------------------------------------
# 3. compliance-ratio reproduction
# --------------------------------------------------------------------------

def test_c03_csccr_reproduction():
    for compliant, expected in ((70, 0.2857), (117, 0.4776), (188, 0.7673)):
        records = synth.make_compliance_records(compliant)
        assert len(records) == 245
        assert compute_cell(records).csccr == pytest.approx(expected, abs=0.01)
    ok(3, "245-sample fixtures yield 28.57/47.76/76.73% compliance ratios")


# --------------------------------------------------------------------------
# 4. compliance exhaustiveness over all construct subsets
# --------------------------------------------------------------------------

def test_c04_compliance_exhaustive():
    started = time.perf_counter()
    kinds = sorted(ConstructKind, key=lambda k: k.value)
    configs = [canonical_config(name) for name in ("CB", "CV", "CA", "CF")]

    class FixedConstr:
        """check_compliance only reads constr(); feed subsets directly."""
        def __init__(self, used):
            self._used = frozenset(used)

        def constr(self):
            return self._used

    cases = 0
    for r in range(len(kinds) + 1):
        for subset in itertools.combinations(kinds, r):
            used = frozenset(subset)
            spec = FixedConstr(used)
            for config in configs:
                verdict = check_compliance(spec, config)
                expected = used <= config.permitted and (
                    not config.mandatory or bool(used & config.mandatory))
                assert verdict.compliant == expected
                assert verdict.forbidden_used == used - config.permitted
                cases += 1
    elapsed = time.perf_counter() - started
    assert cases == 2 ** 11 * 4 == 8192
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    ok(4, f"all 8192 subset x configuration cases agree with brute force "
          f"in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 5. parser round-trip over the annotated corpus
# --------------------------------------------------------------------------

def test_c05_parser_roundtrip_corpus():
    corpus = sorted((FIXTURES / "annotated").glob("*.c"))
    assert len(corpus) >= 30
    names = {p.name for p in corpus}
    assert {"digit_sum_verifiable.c", "digit_sum_axiomatic.c"} <= names

    covered: set[ConstructKind] = set()
    for path in corpus:
        src = path.read_text()
        spec = parse_annotations(src, file=path.name)
        covered |= set(spec.constr())
        bare = strip_annotations(src)
        assert len(parse_annotations(bare)) == 0, path.name
        assert parse_annotations(weave(bare, spec)) == spec, path.name
    assert covered == set(ConstructKind)

    va = parse_annotations((FIXTURES / "annotated" / "digit_sum_verifiable.c").read_text())
    assert sum(1 for a in va if a.kind is K.LEMMA) == 2
    assert any(a.kind is K.LOGIC for a in va)
    ax = parse_annotations((FIXTURES / "annotated" / "digit_sum_axiomatic.c").read_text())
    assert sum(1 for a in ax if a.kind is K.AXIOM) == 2
    assert any(a.kind is K.LOGIC for a in ax)
    ok(5, f"parse-weave identity on {len(corpus)} files covering all 11 "
          f"constructs")


# --------------------------------------------------------------------------
# 6. deletion-paradigm properties over randomized scenarios
# --------------------------------------------------------------------------

def _random_spec(rng: random.Random) -> SpecificationSet:
    from test_refine import BAD_POOL, GOOD_POOL, make_spec
    rows = []
    for i in range(rng.randint(1, 4)):
        kind, template = rng.choice(GOOD_POOL)
        rows.append((kind, template.format(i)))
    for i in range(rng.randint(0, 3)):
        kind, template = rng.choice(BAD_POOL)
        rows.append((kind, template.format(i)))
    rng.shuffle(rows)
    return make_spec(*rows)


def test_c06_deletion_properties_randomized():
    from test_refine import FakeProgram, spec_completion
    rng = random.Random(1234)
    program = FakeProgram()
    scenarios = 1000
    for _ in range(scenarios):
        spec = _random_spec(rng)
        good = {a for a in spec if "9090" not in a.text}
        oracle = ScriptedOracle(
            lambda request, s=spec: spec_completion(program, s))
        verifier = MockVerifier(always_failing=["9090"])
        logger = RunLogger()
        record = run_once(program, canonical_config("CF"), Paradigm.DELETION,
                          oracle, verifier, RunLimits(), logger=logger)
        assert record.tool_calls <= len(spec) + 1
        sizes = [call["spec_size"] for call in logger.close()]
        assert sizes == sorted(sizes, reverse=True)
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert good <= record.final_spec.keys()
    ok(6, f"{scenarios} randomized deletion runs: bounded calls, strictly "
          f"shrinking sets, good annotations preserved")


# --------------------------------------------------------------------------
# 7. modification-paradigm budget exactness
# --------------------------------------------------------------------------

def test_c07_modification_budget_randomized():
    from test_refine import FakeProgram, make_spec, spec_completion
    from test_refine import GOOD_POOL
    rng = random.Random(777)
    program = FakeProgram()
    for budget in range(1, 11):
        for _ in range(10):
            rows = [(k, t.format(rng.randint(0, 9)))
                    for k, t in rng.sample(GOOD_POOL, rng.randint(1, 3))]
            rows.append((K.ENSURES, f"ensures \\result == 9090 + {rng.randint(0, 9)};"))
            spec = make_spec(*rows)
            oracle = ScriptedOracle(
                lambda request, s=spec: spec_completion(program, s))
            verifier = MockVerifier(always_failing=["9090"])
            record = run_once(program, canonical_config("CB"),
                              Paradigm.MODIFICATION, oracle, verifier,
                              RunLimits(max_repair_iterations=budget))
            assert record.outcome is RunOutcome.EXHAUSTED
            assert record.tool_calls == budget + 1
            assert record.iterations == budget
    ok(7, "never-verifying chains hit exactly budget+1 verifier calls for "
          "budgets 1..10")


# --------------------------------------------------------------------------
# 8. end-to-end determinism with replay oracle and mock verifier
# --------------------------------------------------------------------------

def _strip_time_derived(node):
    if isinstance(node, dict):
        return {k: _strip_time_derived(v) for k, v in node.items()
                if k not in ("rt", "optimal_rt", "elapsed")}
    if isinstance(node, list):
        return [_strip_time_derived(v) for v in node]
    return node


def test_c08_end_to_end_determinism(toy_corpus, persona_dir, tmp_path):
    started = time.perf_counter()
    plan = ExperimentPlan(runs_per_cell=2,
                          limits=RunLimits(max_repair_iterations=5))
    summaries = []
    for tag in ("one", "two"):
        from specloop import ReplayOracle
        out = tmp_path / tag
        records = run_experiment(
            plan, toy_corpus, ReplayOracle(persona_dir),
            MockVerifier(always_failing=toyworld.ALWAYS_FAILING), out_dir=out)
        assert len(records) == 10 * 4 * 2 * 2
        emit_reports(records, out)
        summaries.append(json.loads((out / "report" / "summary.json").read_text()))
    first = json.dumps(_strip_time_derived(summaries[0]), sort_keys=True)
    second = json.dumps(_strip_time_derived(summaries[1]), sort_keys=True)
    assert first == second
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    ok(8, f"two executions produced byte-identical summaries "
          f"(time-derived fields excluded) in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 9. real-verifier smoke (skipped when the verifier is absent)
# --------------------------------------------------------------------------

@pytest.mark.skipif(shutil.which("frama-c") is None,
                    reason="frama-c executable not installed")
def test_c09_real_verifier_smoke():
    program = Program(id="id_fn", source="int id(int x) { return x; }\n",
                      target_function="id", category="smoke")
    fn = FunctionContract("id")
    good = SpecificationSet([
        Annotation(K.REQUIRES, "requires \\true;", fn),
        Annotation(K.ENSURES, "ensures \\result == x;", fn),
        Annotation(K.ASSIGNS, "assigns \\nothing;", fn),
    ])
    verifier = FramaCVerifier()
    report = verifier.verify(program, good)
    assert report.status is ReportStatus.VERIFIED

    bad_ensures = Annotation(K.ENSURES, "ensures \\result == x + 1;", fn)
    bad = SpecificationSet([
        Annotation(K.REQUIRES, "requires \\true;", fn),
        bad_ensures,
        Annotation(K.ASSIGNS, "assigns \\nothing;", fn),
    ])
    report = verifier.verify(program, bad)
    assert report.status is ReportStatus.FAILED
    mapped = map_failures_to_annotations(report, bad)
    assert bad_ensures in mapped
    ok(9, "pinned fixtures verified/failed as expected against frama-c")


# --------------------------------------------------------------------------
# 10. venn and optimal-proportion oracle equivalence
# --------------------------------------------------------------------------

def test_c10_venn_and_proportions_oracle_equivalence():
    rng = random.Random(2026)
    configs = ("CB", "CV", "CA")
    for _ in range(100):
        sets = {c: {f"p{i}" for i in range(10) if rng.random() < 0.5}
                for c in configs}
        result = venn_sets(records_for_sets(sets))
        assert result["regions"] == brute_force_regions(sets, configs)

        costs = {c: {f"p{i}": rng.randint(1, 5) for i in range(10)}
                 for c in configs}
        got = optimal_config_proportions(records_with_costs(costs))
        assert got == pytest.approx(brute_force_proportions(costs, configs))
    ok(10, "100 randomized record sets: venn regions and optimal proportions "
           "match brute-force enumeration")
