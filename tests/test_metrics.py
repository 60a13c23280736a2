from __future__ import annotations

import itertools
import random

import pytest

from specloop import (
    Paradigm,
    RunRecord,
    SpecificationSet,
    build_table,
    compute_cell,
    emit_reports,
    csccr,
    improvement_ratio,
    nsvp,
    nvp,
    nvtc,
    optimal_config_proportions,
    reduction_rate,
    render_table,
    rt,
    sample_distribution,
    summarize,
    venn_sets,
    verified_program_set,
)
from specloop.errors import IncompleteGrid, UndefinedMetric
from specloop.refine import RunOutcome

import synth


def record(program_id, run_index, *, config="CB", paradigm=Paradigm.DELETION,
           verified=False, compliant=True, tool_calls=1, elapsed=1.0,
           errored=False):
    outcome = (RunOutcome.ERRORED if errored
               else RunOutcome.VERIFIED if verified else RunOutcome.EXHAUSTED)
    return RunRecord(
        program_id=program_id, config_name=config, paradigm=paradigm,
        run_index=run_index, compliant=compliant, outcome=outcome,
        tool_calls=tool_calls, elapsed=elapsed, iterations=0,
        final_spec=SpecificationSet(),
    )


def full_grid(n_programs=4, n_runs=5, **kw):
    return [record(f"p{i}", r, **kw)
            for i in range(n_programs) for r in range(1, n_runs + 1)]


# --------------------------------------------------------------------------
# csccr
# --------------------------------------------------------------------------

@pytest.mark.parametrize("compliant,expected", [
    (70, 0.2857), (117, 0.4776), (188, 0.7673),
])
def test_csccr_reproduces_reference_ratios(compliant, expected):
    records = synth.make_compliance_records(compliant)
    assert len(records) == 245
    assert csccr(records) == pytest.approx(expected, abs=5e-5)


def test_csccr_upper_bound():
    assert csccr(full_grid(compliant=True)) == 1.0


def test_csccr_permutation_invariant():
    records = synth.make_compliance_records(117)
    shuffled = records[:]
    random.Random(7).shuffle(shuffled)
    assert csccr(shuffled) == csccr(records)


def test_csccr_incomplete_grid():
    records = full_grid()
    with pytest.raises(IncompleteGrid):
        csccr(records[:-1])
    with pytest.raises(IncompleteGrid):
        csccr([])
    with pytest.raises(IncompleteGrid):
        csccr(records + [records[0]])


# --------------------------------------------------------------------------
# nvp / nsvp
# --------------------------------------------------------------------------

def test_nvp_saturation():
    records = synth.make_cell_records("CB", Paradigm.DELETION, 49, 49, 102.2, 10.0)
    assert nvp(records) == 49


def test_nvp_counts_single_run_verification():
    records = [record("p0", r, verified=(r == 3)) for r in range(1, 6)]
    records += [record("p1", r) for r in range(1, 6)]
    assert nvp(records) == 1
    assert verified_program_set(records) == {"p0"}


def test_nvp_gemini_cb_deletion_cell():
    values = synth.REFERENCE_TABLE[Paradigm.DELETION]["Gemini-2.5-Pro"]["CB"]
    records = synth.make_cell_records("CB", Paradigm.DELETION, *values)
    assert nvp(records) == 42


def test_nsvp_two_of_five_counts():
    records = [record("p0", r, verified=(r in (1, 4))) for r in range(1, 6)]
    records += [record("p1", r, verified=(r == 3)) for r in range(1, 6)]
    assert nsvp(records) == 1


def test_nsvp_gpt5_cf_deletion_cell():
    values = synth.REFERENCE_TABLE[Paradigm.DELETION]["GPT-5"]["CF"]
    records = synth.make_cell_records("CF", Paradigm.DELETION, *values)
    assert nsvp(records) == 39


def test_nsvp_never_exceeds_nvp():
    rng = random.Random(99)
    for _ in range(50):
        records = [record(f"p{i}", r, verified=rng.random() < 0.4)
                   for i in range(6) for r in range(1, 6)]
        assert nsvp(records) <= nvp(records) <= 6


# --------------------------------------------------------------------------
# nvtc / rt
# --------------------------------------------------------------------------

def test_nvtc_constant_two_calls():
    records = full_grid(n_programs=49, n_runs=5, tool_calls=2)
    assert nvtc(records) == 98.0


def test_nvtc_minimal_case():
    assert nvtc([record("p0", 1, tool_calls=1)]) == 1.0


def test_nvtc_gpt4o_cb_deletion_cell():
    values = synth.REFERENCE_TABLE[Paradigm.DELETION]["GPT-4o"]["CB"]
    records = synth.make_cell_records("CB", Paradigm.DELETION, *values)
    assert nvtc(records) == pytest.approx(104.4, abs=1e-9)


def test_rt_constant_elapsed():
    records = full_grid(n_programs=49, n_runs=5, elapsed=10.0)
    assert rt(records) == pytest.approx(490.0)


def test_rt_gpt5_cf_deletion_cell():
    values = synth.REFERENCE_TABLE[Paradigm.DELETION]["GPT-5"]["CF"]
    records = synth.make_cell_records("CF", Paradigm.DELETION, *values)
    assert rt(records) == pytest.approx(632.47, abs=1e-6)


def test_rt_empty_cell_is_incomplete():
    with pytest.raises(IncompleteGrid):
        rt([])


# --------------------------------------------------------------------------
# reduction rate / improvement ratio
# --------------------------------------------------------------------------

@pytest.mark.parametrize("pair,expected", [
    ((31.8, 29.4), 0.0755), ((34.6, 30.0), 0.1329),
    ((33.4, 26.8), 0.1976), ((37.0, 33.6), 0.0919),
])
def test_reduction_rate_deletion_averages(pair, expected):
    assert reduction_rate(*pair) == pytest.approx(expected, abs=5e-5)


def test_reduction_rate_equal_inputs_and_zero():
    assert reduction_rate(7, 7) == 0
    assert reduction_rate(0, 0) == 0


@pytest.mark.parametrize("pair,expected", [
    ((37.4, 31.8), 0.1761), ((39.4, 37.0), 0.0649),
])
def test_improvement_ratio_reference_cells(pair, expected):
    assert improvement_ratio(*pair) == pytest.approx(expected, abs=5e-5)


def test_improvement_ratio_no_change_and_undefined():
    assert improvement_ratio(5.0, 5.0) == 0
    with pytest.raises(UndefinedMetric):
        improvement_ratio(1.0, 0.0)


# --------------------------------------------------------------------------
# errored-run accounting
# --------------------------------------------------------------------------

def test_errored_runs_cost_but_do_not_verify():
    records = [record("p0", r, verified=True, tool_calls=1) for r in (1, 2)]
    records += [record("p0", r, errored=True, tool_calls=3, elapsed=9.0)
                for r in (3, 4, 5)]
    assert nvp(records) == 1 and nsvp(records) == 1
    assert nvtc(records) == pytest.approx((1 + 1 + 3 + 3 + 3) / 5)
    cell = compute_cell(records)
    assert cell.errored == 3
    dist = sample_distribution(records)
    assert dist["errored"] == 3
    assert dist["compliant_verified"] == 2
    assert dist["compliant_failed"] == 3


# --------------------------------------------------------------------------
# venn regions against brute force
# --------------------------------------------------------------------------

def brute_force_regions(sets, configs):
    regions = {}
    for k in range(1, len(configs) + 1):
        for members in itertools.combinations(configs, k):
            count = 0
            universe = set().union(*sets.values())
            for p in universe:
                inside = {c for c in configs if p in sets[c]}
                if inside == set(members):
                    count += 1
            regions["&".join(members)] = count
    return regions


def records_for_sets(sets, n_programs=12, paradigm=Paradigm.DELETION):
    records = []
    for config, verified in sets.items():
        for i in range(n_programs):
            pid = f"p{i}"
            for r in range(1, 3):
                records.append(record(pid, r, config=config, paradigm=paradigm,
                                      verified=(pid in verified and r == 1)))
    return records


def test_venn_identical_sets():
    sets = {c: {"p0", "p1", "p2"} for c in ("CB", "CV", "CA")}
    result = venn_sets(records_for_sets(sets))
    assert result["regions"]["CB&CV&CA"] == 3
    assert sum(v for k, v in result["regions"].items() if k != "CB&CV&CA") == 0


def test_venn_disjoint_sets():
    sets = {"CB": {"p0"}, "CV": {"p1"}, "CA": {"p2"}}
    result = venn_sets(records_for_sets(sets))
    assert result["regions"]["CB"] == 1
    assert result["regions"]["CV"] == 1
    assert result["regions"]["CA"] == 1
    assert all(v == 0 for k, v in result["regions"].items() if "&" in k)


def test_venn_random_against_brute_force():
    rng = random.Random(4242)
    for _ in range(30):
        sets = {c: {f"p{i}" for i in range(12) if rng.random() < 0.5}
                for c in ("CB", "CV", "CA")}
        result = venn_sets(records_for_sets(sets))
        assert result["regions"] == brute_force_regions(sets, ("CB", "CV", "CA"))
        union = set().union(*sets.values())
        assert sum(result["regions"].values()) == len(union)


def test_venn_requires_all_configs():
    sets = {"CB": {"p0"}, "CV": {"p1"}}
    with pytest.raises(IncompleteGrid):
        venn_sets(records_for_sets(sets))


# --------------------------------------------------------------------------
# optimal-configuration proportions against brute force
# --------------------------------------------------------------------------

def records_with_costs(costs, n_runs=2, paradigm=Paradigm.DELETION):
    """costs: {config: {program: per-run tool calls}}"""
    records = []
    for config, table in costs.items():
        for program, calls in table.items():
            for r in range(1, n_runs + 1):
                records.append(record(program, r, config=config,
                                      paradigm=paradigm, tool_calls=calls,
                                      elapsed=float(calls)))
    return records


def brute_force_proportions(costs, configs):
    programs = sorted(next(iter(costs.values())))
    shares = {c: 0.0 for c in configs}
    for p in programs:
        best = min(costs[c][p] for c in configs)
        winners = [c for c in configs if costs[c][p] == best]
        for c in winners:
            shares[c] += 1 / len(winners)
    return {c: shares[c] / len(programs) for c in configs}


def test_proportions_dominance():
    costs = {"CB": {"p0": 1, "p1": 1}, "CV": {"p0": 2, "p1": 2},
             "CA": {"p0": 3, "p1": 3}}
    assert optimal_config_proportions(records_with_costs(costs)) == {
        "CB": 1.0, "CV": 0.0, "CA": 0.0}


def test_proportions_three_way_tie():
    costs = {c: {"p0": 2, "p1": 2} for c in ("CB", "CV", "CA")}
    result = optimal_config_proportions(records_with_costs(costs))
    assert result == pytest.approx({"CB": 1 / 3, "CV": 1 / 3, "CA": 1 / 3})


def test_proportions_random_against_brute_force():
    rng = random.Random(31337)
    for _ in range(30):
        costs = {c: {f"p{i}": rng.randint(1, 4) for i in range(9)}
                 for c in ("CB", "CV", "CA")}
        got = optimal_config_proportions(records_with_costs(costs))
        want = brute_force_proportions(costs, ("CB", "CV", "CA"))
        assert got == pytest.approx(want)
        assert sum(got.values()) == pytest.approx(1.0, abs=1e-9)
        rt_got = optimal_config_proportions(records_with_costs(costs),
                                            metric="rt")
        assert rt_got == pytest.approx(want)


# --------------------------------------------------------------------------
# table assembly
# --------------------------------------------------------------------------

def test_average_rows_match_reference_table():
    table = build_table(synth.make_reference_records(),
                        average_exclude=synth.EXCLUDED_FROM_AVERAGE)
    for paradigm, per_config in synth.REFERENCE_AVERAGES.items():
        for config, expected in per_config.items():
            for column, value in zip(("nvp", "nsvp", "nvtc", "rt"), expected):
                assert table.average(config, paradigm, column) == pytest.approx(
                    value, abs=0.01), (paradigm, config, column)


def test_improvement_row_matches_reference_table():
    table = build_table(synth.make_reference_records(),
                        average_exclude=synth.EXCLUDED_FROM_AVERAGE)
    for config, columns in synth.REFERENCE_IMPROVEMENT.items():
        for column, expected in columns.items():
            assert table.improvement(config, column) == pytest.approx(
                expected, abs=0.01), (config, column)


def test_render_table_mentions_everything():
    table = build_table(synth.make_reference_records(),
                        average_exclude=synth.EXCLUDED_FROM_AVERAGE)
    text = render_table(table)
    for model in synth.MODELS:
        assert model in text
    assert "Average" in text and "Improvement Ratio" in text
    assert "117.44" in text  # deletion CB NVTC average as tabulated


def test_summarize_shape():
    records = []
    for k, config in enumerate(("CB", "CV", "CA")):
        for paradigm in (Paradigm.DELETION, Paradigm.MODIFICATION):
            records += synth.make_cell_records(config, paradigm,
                                               nvp=6 + k, nsvp=4,
                                               nvtc_mean=22.0, rt_mean=30.0,
                                               n_programs=10, n_runs=2)
    summary = summarize(records, configs=("CB", "CV", "CA"))
    assert len(summary["cells"]) == 6
    assert set(summary["venn"]) == {"delete", "modify"}
    assert set(summary["optimal_nvtc"]["delete"]) == {"CB", "CV", "CA"}
    cell = summary["cells"][0]
    assert {"config", "paradigm", "csccr", "nvp", "nsvp", "nvtc", "rt",
            "reduction_rate", "verified_programs", "errored",
            "distribution"} <= set(cell)


@pytest.mark.parametrize("configs,missing", [
    (("CB", "CV"), "no records for CV under modify"),
    (("CB", "CF"), "no records for CF under delete"),
])
def test_emit_reports_names_a_missing_cell_before_writing(tmp_path, configs, missing):
    """A requested configuration lacking records under a paradigm the
    records hold fails the report, where the table would need its cell."""
    records = (full_grid(config="CB") + full_grid(config="CB", paradigm=Paradigm.MODIFICATION)
               + full_grid(config="CV"))
    with pytest.raises(IncompleteGrid, match=missing):
        emit_reports(records, tmp_path / "out", configs=configs)
    assert not (tmp_path / "out").exists()
    emit_reports(records, tmp_path / "out", configs=("CB",))
    assert (tmp_path / "out" / "report" / "table.txt").is_file()
