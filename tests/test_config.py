from __future__ import annotations

import itertools
import re
from pathlib import Path
from string import Formatter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specloop
from specloop import (
    Annotation,
    ConstructKind,
    Configuration,
    FunctionContract,
    SpecificationSet,
    TemplateStore,
    build_generation_prompt,
    build_repair_prompt,
    canonical_config,
    check_compliance,
)
from specloop.errors import ConfigError, MissingTemplate, UnknownConfiguration
from specloop.verifier import GoalResult, GoalStatus, ReportStatus, VerifierReport

K = ConstructKind
ALL = frozenset(ConstructKind)
BASIC = frozenset({K.REQUIRES, K.ENSURES, K.ASSIGNS, K.LOOP_INVARIANT,
                   K.LOOP_VARIANT, K.LOOP_ASSIGNS, K.BEHAVIOR})


class FakeProgram:
    def __init__(self, source="int f(int x) { return x; }", id="prog"):
        self.source = source
        self.id = id


def spec_of(*kinds: ConstructKind) -> SpecificationSet:
    """Specification set whose constr() is exactly the given kinds."""
    anns = []
    fn = FunctionContract("f")
    for i, kind in enumerate(kinds):
        if kind in (K.REQUIRES, K.ENSURES, K.ASSIGNS, K.BEHAVIOR):
            text = {K.REQUIRES: f"requires x > {i};",
                    K.ENSURES: f"ensures \\result > {i};",
                    K.ASSIGNS: "assigns \\nothing;",
                    K.BEHAVIOR: f"behavior b{i}:"}[kind]
            anns.append(Annotation(kind, text, fn))
        elif kind in (K.LOOP_INVARIANT, K.LOOP_VARIANT, K.LOOP_ASSIGNS):
            from specloop import Loop
            text = {K.LOOP_INVARIANT: f"loop invariant i >= {i};",
                    K.LOOP_VARIANT: f"loop variant n - {i};",
                    K.LOOP_ASSIGNS: "loop assigns i;"}[kind]
            anns.append(Annotation(kind, text, Loop("f", 1)))
        else:
            text = {K.PREDICATE: f"predicate p{i}(integer v) = v > 0;",
                    K.LOGIC: f"logic integer l{i}(integer v) = v;",
                    K.LEMMA: f"lemma m{i}: 1 == 1;",
                    K.AXIOM: f"axiom a{i}: 1 == 1;"}[kind]
            anns.append(Annotation(kind, text))
    return SpecificationSet(anns)


# --------------------------------------------------------------------------
# canonical configurations
# --------------------------------------------------------------------------

def test_cb_definition():
    cb = canonical_config("CB")
    assert len(cb.permitted) == 7
    assert cb.permitted == BASIC
    assert cb.mandatory == frozenset()


def test_cv_definition():
    cv = canonical_config("CV")
    assert cv.mandatory == {K.PREDICATE, K.LOGIC, K.LEMMA}
    assert cv.permitted == BASIC | cv.mandatory


def test_ca_definition():
    ca = canonical_config("CA")
    assert ca.mandatory == {K.AXIOM}
    assert ca.permitted == BASIC | {K.PREDICATE, K.LOGIC, K.AXIOM}


def test_cf_definition():
    cf = canonical_config("CF")
    assert cf.permitted == ALL
    assert len(cf.permitted) == 11
    assert cf.mandatory == frozenset()
    cv, ca = canonical_config("CV"), canonical_config("CA")
    assert cf.permitted == cv.permitted | ca.permitted


def test_unknown_configuration():
    with pytest.raises(UnknownConfiguration):
        canonical_config("CX")


def test_mandatory_must_be_permitted():
    with pytest.raises(ValueError):
        Configuration("bad", frozenset({K.REQUIRES}), frozenset({K.AXIOM}))


def test_custom_configuration_is_supported_mechanically():
    custom = Configuration("mine", frozenset({K.REQUIRES, K.LEMMA}),
                           frozenset({K.LEMMA}))
    verdict = check_compliance(spec_of(K.REQUIRES, K.LEMMA), custom)
    assert verdict.compliant


# --------------------------------------------------------------------------
# compliance
# --------------------------------------------------------------------------

def test_forbidden_lemma_under_cb():
    verdict = check_compliance(spec_of(K.REQUIRES, K.ENSURES, K.LEMMA),
                               canonical_config("CB"))
    assert not verdict.compliant
    assert verdict.forbidden_used == {K.LEMMA}
    assert not verdict.mandatory_missing


def test_avoiding_logical_constructs_fails_cv():
    verdict = check_compliance(spec_of(K.REQUIRES, K.ENSURES),
                               canonical_config("CV"))
    assert not verdict.compliant
    assert verdict.mandatory_missing
    assert verdict.forbidden_used == frozenset()


def test_omitting_only_axioms_fails_ca():
    verdict = check_compliance(spec_of(K.REQUIRES, K.PREDICATE, K.LOGIC),
                               canonical_config("CA"))
    assert not verdict.compliant
    assert verdict.mandatory_missing


def test_empty_set_rule():
    empty = SpecificationSet()
    assert check_compliance(empty, canonical_config("CB")).compliant
    assert check_compliance(empty, canonical_config("CF")).compliant
    assert not check_compliance(empty, canonical_config("CV")).compliant
    assert not check_compliance(empty, canonical_config("CA")).compliant


def test_cv_and_ca_are_incomparable():
    lemma_spec = spec_of(K.REQUIRES, K.LEMMA)
    axiom_spec = spec_of(K.REQUIRES, K.AXIOM)
    cv, ca = canonical_config("CV"), canonical_config("CA")
    assert check_compliance(lemma_spec, cv).compliant
    assert not check_compliance(lemma_spec, ca).compliant
    assert check_compliance(axiom_spec, ca).compliant
    assert not check_compliance(axiom_spec, cv).compliant


_subset = st.sets(st.sampled_from(sorted(ALL, key=lambda k: k.value)), max_size=11)


@settings(max_examples=200, deadline=None)
@given(_subset)
def test_monotonicity_cb_implies_cf(kinds):
    spec = spec_of(*kinds)
    cb = check_compliance(spec, canonical_config("CB"))
    cf = check_compliance(spec, canonical_config("CF"))
    if cb.compliant:
        assert cf.compliant
    for name in ("CV", "CA"):
        if check_compliance(spec, canonical_config(name)).compliant:
            assert not cf.forbidden_used


def test_exhaustive_compliance_against_brute_force():
    kinds = sorted(ALL, key=lambda k: k.value)
    configs = [canonical_config(n) for n in ("CB", "CV", "CA", "CF")]
    checked = 0
    for r in range(len(kinds) + 1):
        for subset in itertools.combinations(kinds, r):
            spec = spec_of(*subset)
            used = set(subset)
            for config in configs:
                verdict = check_compliance(spec, config)
                expected = used <= set(config.permitted) and (
                    not config.mandatory or bool(used & set(config.mandatory)))
                assert verdict.compliant == expected
                checked += 1
    assert checked == 2 ** 11 * 4


# --------------------------------------------------------------------------
# prompts
# --------------------------------------------------------------------------

def test_cb_prompt_contains_all_basic_keywords_and_no_logical_ones():
    prompt = build_generation_prompt(FakeProgram(), canonical_config("CB"))
    for keyword in ("requires", "ensures", "assigns", "loop invariant",
                    "loop variant", "loop assigns", "behavior"):
        assert keyword in prompt
    assert "lemma" not in prompt
    assert "axiom" not in prompt
    assert "int f(int x)" in prompt


def test_cv_prompt_instructs_mandatory_use():
    prompt = build_generation_prompt(FakeProgram(), canonical_config("CV"))
    assert "MUST" in prompt
    assert "predicate" in prompt and "logic" in prompt and "lemma" in prompt
    assert "axiom" not in prompt.replace("axioms", "")  # permitted list stops at lemma


def test_prompts_are_deterministic():
    program = FakeProgram()
    config = canonical_config("CA")
    assert build_generation_prompt(program, config) == \
        build_generation_prompt(program, config)


def test_permitted_keywords_are_built_once_per_configuration():
    config = Configuration("X", frozenset({K.LEMMA, K.REQUIRES}))
    first = config.permitted_keywords
    assert first == "requires, lemma"
    assert config.permitted_keywords is first
    assert config == Configuration("X", frozenset({K.LEMMA, K.REQUIRES}))


def test_missing_template(tmp_path):
    store = TemplateStore(tmp_path)
    with pytest.raises(MissingTemplate):
        build_generation_prompt(FakeProgram(), canonical_config("CB"), store)
    with pytest.raises(MissingTemplate, match=r"generate-CB\.txt.*" + re.escape(str(tmp_path))):
        store.load("generate", "CB")


def test_missing_template_directory_fails_at_construction(tmp_path):
    with pytest.raises(MissingTemplate, match="no-such-dir"):
        TemplateStore(tmp_path / "no-such-dir")


def test_templates_are_read_once_at_construction(tmp_path):
    path = tmp_path / "generate-CB.txt"
    path.write_text("first {program}{permitted_keywords}{mandatory_instruction}",
                    encoding="utf-8")
    store = TemplateStore(tmp_path)
    path.write_text("second", encoding="utf-8")
    assert store.load("generate", "CB").startswith("first")
    assert TemplateStore(tmp_path).load("generate", "CB") == "second"


def test_bundled_templates_match_the_package_files():
    root = Path(specloop.__file__).parent / "templates"
    store = TemplateStore()
    generate = {"program", "permitted_keywords", "mandatory_instruction"}
    for path in sorted(root.glob("*.txt")):
        phase, _, config = path.stem.partition("-")
        assert store.load(phase, config) == path.read_text(encoding="utf-8")
        # each uses every field its phase fills
        fields = {f for _, f, _, _ in Formatter().parse(store.load(phase, config))
                  if f is not None}
        assert fields == (generate if phase == "generate" else
                          generate | {"current_spec", "verifier_feedback"}), path
    assert TemplateStore(root).load("repair", "CA") == store.load("repair", "CA")


@pytest.mark.parametrize("name,text,bad", [
    ("repair-CB.txt", "{program} {oops}", "unknown field 'oops'"),
    ("generate-CB.txt", "{program} {current_spec}", "unknown field 'current_spec'"),
    ("generate-CB.txt", "{}", "unknown field ''"),
    ("generate-CB.txt", "{program.upper}", "unknown field 'program.upper'"),
    ("repair-CV.txt", "{program} }", "Single '}' encountered"),
    ("repair-CV.txt", "{program", "expected '}' before end of string"),
    ("generate-CA.txt", "{program:d}", "field 'program' takes no conversion"),
    ("generate-CA.txt", "{program!x}", "field 'program' takes no conversion"),
])
def test_a_template_with_a_bad_placeholder_fails_at_construction(tmp_path, name,
                                                                 text, bad):
    (tmp_path / name).write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(bad)) as caught:
        TemplateStore(tmp_path)
    assert str(caught.value).startswith(f"template {tmp_path / name}: ")


def test_template_override_directory(tmp_path):
    (tmp_path / "generate-CB.txt").write_text(
        "{{P}}={program} K={permitted_keywords} M={mandatory_instruction}",
        encoding="utf-8")
    # a file that is no phase's template is read, never filled
    (tmp_path / "notes.txt").write_text("{anything} }", encoding="utf-8")
    prompt = build_generation_prompt(FakeProgram(source="XYZ"),
                                     canonical_config("CB"),
                                     TemplateStore(tmp_path))
    assert prompt.startswith("{P}=XYZ K=requires")
    assert prompt.endswith("M=")


def test_repair_prompt_embeds_spec_and_failures():
    spec = spec_of(K.REQUIRES, K.ENSURES)
    report = VerifierReport(
        ReportStatus.FAILED,
        (GoalResult("typed_f_ensures_2", GoalStatus.UNKNOWN),
         GoalResult("typed_f_requires_1", GoalStatus.PROVED)),
        raw_output="[wp] Proved goals: 1 / 2",
    )
    prompt = build_repair_prompt(FakeProgram(), spec, report,
                                 canonical_config("CB"))
    for ann in spec:
        assert ann.text in prompt
    assert "failed goal: typed_f_ensures_2" in prompt
    assert "failed goal: typed_f_requires_1" not in prompt  # proved goals not listed
    assert "Proved goals: 1 / 2" in prompt
