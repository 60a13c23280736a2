from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specloop import (
    BASIC_CONSTRUCTS,
    GLOBAL,
    LOGICAL_CONSTRUCTS,
    Annotation,
    ConstructKind,
    FunctionContract,
    Loop,
    SourceSpan,
    SpecificationSet,
    classify_construct,
    constr,
    parse_annotations,
    strip_annotations,
    weave,
)
from specloop.errors import (
    AnchorNotFound,
    ClassificationError,
    MalformedAnnotation,
)


# --------------------------------------------------------------------------
# classify_construct
# --------------------------------------------------------------------------

SUPPORTED = {
    "requires": ConstructKind.REQUIRES,
    "ensures": ConstructKind.ENSURES,
    "assigns": ConstructKind.ASSIGNS,
    "loop invariant": ConstructKind.LOOP_INVARIANT,
    "loop variant": ConstructKind.LOOP_VARIANT,
    "loop assigns": ConstructKind.LOOP_ASSIGNS,
    "behavior": ConstructKind.BEHAVIOR,
    "predicate": ConstructKind.PREDICATE,
    "logic": ConstructKind.LOGIC,
    "lemma": ConstructKind.LEMMA,
    "axiom": ConstructKind.AXIOM,
}

# clause keywords from the ACSL language beyond the supported eleven
UNSUPPORTED = [
    "ghost", "assert", "check", "admit", "assumes", "terminates", "decreases",
    "allocates", "frees", "loop allocates", "loop frees", "exits", "breaks",
    "continues", "returns", "complete behaviors", "disjoint behaviors",
    "axiomatic", "inductive", "invariant", "global invariant", "type invariant",
    "model", "reads", "volatile", "type",
]


def test_classify_direct_keyword():
    assert classify_construct("requires") is ConstructKind.REQUIRES


def test_classify_loop_variant_tokens():
    assert classify_construct(("loop", "variant")) is ConstructKind.LOOP_VARIANT


def test_classify_ghost_is_an_error():
    with pytest.raises(ClassificationError):
        classify_construct("ghost")


def test_classifier_is_total_over_the_acsl_clause_list():
    # brute force: exactly the eleven studied keywords classify, the rest error
    for keyword, kind in SUPPORTED.items():
        assert classify_construct(keyword) is kind
    for keyword in UNSUPPORTED:
        with pytest.raises(ClassificationError):
            classify_construct(keyword)


def test_exactly_eleven_kinds_partitioned():
    assert len(ConstructKind) == 11
    assert len(BASIC_CONSTRUCTS) == 7
    assert len(LOGICAL_CONSTRUCTS) == 4
    assert BASIC_CONSTRUCTS | LOGICAL_CONSTRUCTS == frozenset(ConstructKind)
    assert not BASIC_CONSTRUCTS & LOGICAL_CONSTRUCTS


# --------------------------------------------------------------------------
# domain value invariants
# --------------------------------------------------------------------------

def test_span_ordering_enforced():
    with pytest.raises(ValueError):
        SourceSpan("f.c", 5, 4)


def test_annotation_anchor_rules():
    with pytest.raises(ValueError):
        Annotation(ConstructKind.LEMMA, "lemma l: 1 == 1;",
                   FunctionContract("f"))
    with pytest.raises(ValueError):
        Annotation(ConstructKind.LOOP_INVARIANT, "loop invariant \\true;", GLOBAL)
    with pytest.raises(ValueError):
        Annotation(ConstructKind.REQUIRES, "requires \\true;", GLOBAL)
    with pytest.raises(ValueError):
        Annotation(ConstructKind.ENSURES, "   ", FunctionContract("f"))


def test_specification_set_collapses_duplicates():
    a = Annotation(ConstructKind.REQUIRES, "requires x > 0;", FunctionContract("f"))
    b = Annotation(ConstructKind.REQUIRES, "requires x > 0;", FunctionContract("f"),
                   SourceSpan("f.c", 3, 3))
    c = Annotation(ConstructKind.ENSURES, "ensures \\result > 0;", FunctionContract("f"))
    spec = SpecificationSet([a, b, c, a])
    assert len(spec) == 2
    assert spec == SpecificationSet([c, b])  # order and spans do not matter


def test_constr_examples():
    f = FunctionContract("f")
    spec = SpecificationSet([
        Annotation(ConstructKind.REQUIRES, "requires a;", f),
        Annotation(ConstructKind.REQUIRES, "requires b;", f),
        Annotation(ConstructKind.ENSURES, "ensures c;", f),
    ])
    assert constr(spec) == {ConstructKind.REQUIRES, ConstructKind.ENSURES}
    assert constr(SpecificationSet()) == frozenset()


# --------------------------------------------------------------------------
# parse_annotations
# --------------------------------------------------------------------------

def test_loop_scan_skips_a_non_ascii_letter():
    src = """
int f(int n) {
  int i = 0;
  /*@ loop invariant 0 <= i; */
  while \u00c0(i < n) { i++; }
  return i;
}
"""
    [ann] = parse_annotations(src)
    assert ann.anchor == Loop("f", 1)


def test_parse_loop_block_two_clauses():
    src = """
int f(int n) {
  int i = 0;
  /*@ loop invariant 0 <= i; loop assigns i; */
  while (i < n) { i++; }
  return i;
}
"""
    spec = parse_annotations(src)
    assert [a.kind for a in spec] == [ConstructKind.LOOP_INVARIANT,
                                      ConstructKind.LOOP_ASSIGNS]
    assert all(a.anchor == Loop("f", 1) for a in spec)


def test_parse_no_annotations_is_empty():
    src = "int f(void) { /* plain */ return 0; }\n"
    assert len(parse_annotations(src)) == 0


def test_parse_digit_sum_verifiable_inventory(annotated_dir):
    spec = parse_annotations((annotated_dir / "digit_sum_verifiable.c").read_text())
    kinds = [a.kind for a in spec]
    assert kinds.count(ConstructKind.LOGIC) >= 1
    assert kinds.count(ConstructKind.LEMMA) == 2
    assert constr(spec) >= {
        ConstructKind.LOGIC, ConstructKind.LEMMA, ConstructKind.REQUIRES,
        ConstructKind.ENSURES, ConstructKind.ASSIGNS,
        ConstructKind.LOOP_INVARIANT, ConstructKind.LOOP_ASSIGNS,
        ConstructKind.LOOP_VARIANT,
    }
    names = {a.declared_name() for a in spec if a.kind is ConstructKind.LEMMA}
    assert names == {"digit_sum_zero", "digit_sum_step"}


def test_parse_digit_sum_axiomatic_inventory(annotated_dir):
    spec = parse_annotations((annotated_dir / "digit_sum_axiomatic.c").read_text())
    kinds = [a.kind for a in spec]
    assert kinds.count(ConstructKind.LOGIC) >= 1
    assert kinds.count(ConstructKind.AXIOM) == 2
    assert {ConstructKind.AXIOM, ConstructKind.LOGIC} <= constr(spec)


def test_parse_line_annotations(annotated_dir):
    spec = parse_annotations((annotated_dir / "line_annotations.c").read_text())
    assert len(spec) == 6
    assert constr(spec) == {
        ConstructKind.REQUIRES, ConstructKind.ENSURES, ConstructKind.ASSIGNS,
        ConstructKind.LOOP_INVARIANT, ConstructKind.LOOP_ASSIGNS,
        ConstructKind.LOOP_VARIANT,
    }


def test_parse_behavior_absorbs_assumes():
    src = """
/*@ behavior pos:
      assumes x > 0;
      ensures \\result == x; */
int f(int x) { return x > 0 ? x : 0; }
"""
    spec = parse_annotations(src)
    behavior = [a for a in spec if a.kind is ConstructKind.BEHAVIOR][0]
    assert behavior.text == "behavior pos: assumes x > 0;"
    assert behavior.declared_name() == "pos"
    assert any(a.kind is ConstructKind.ENSURES for a in spec)


def test_parse_assumes_outside_behavior_is_classification_error():
    with pytest.raises(ClassificationError):
        parse_annotations("/*@ assumes x > 0; */\nint f(int x) { return x; }\n")


def test_parse_unknown_clause_keyword():
    with pytest.raises(ClassificationError):
        parse_annotations("/*@ terminates \\true; */\nint f(int x) { return x; }\n")


def test_parse_unterminated_comment():
    with pytest.raises(MalformedAnnotation):
        parse_annotations("/*@ requires x > 0;\nint f(int x) { return x; }\n")


def test_parse_missing_semicolon():
    with pytest.raises(MalformedAnnotation):
        parse_annotations("/*@ requires x > 0 */\nint f(int x) { return x; }\n")


def test_parse_quantifier_inside_parentheses():
    src = """
/*@ requires n > 0;
    ensures (\\forall integer k; 0 <= k < n ==> k < n) && \\result == n;
    assigns \\nothing; */
int f(int n) { return n; }
"""
    spec = parse_annotations(src)
    assert len(spec) == 3
    texts = {a.kind: a.text for a in spec}
    assert texts[ConstructKind.ENSURES].endswith("\\result == n;")


def test_parse_nested_binders():
    src = """
/*@ lemma pairs: \\forall integer i; (\\exists integer j; i <= j) && i <= i; */
int f(int n) { return n; }
"""
    spec = parse_annotations(src)
    assert len(spec) == 1
    assert spec.annotations[0].kind is ConstructKind.LEMMA


def test_parse_spans_are_per_clause():
    src = "/*@ requires a >= 0;\n    ensures \\result >= 0; */\nint f(int a) { return a; }\n"
    spec = parse_annotations(src, file="spans.c")
    by_kind = {a.kind: a for a in spec}
    assert by_kind[ConstructKind.REQUIRES].span == SourceSpan("spans.c", 1, 1)
    assert by_kind[ConstructKind.ENSURES].span == SourceSpan("spans.c", 2, 2)


def test_parse_totality_no_silent_drops(annotated_dir):
    # every fixture either parses all its clauses or raises; count clauses
    # crudely by keyword occurrences in annotation comments
    import re
    for path in sorted(annotated_dir.glob("*.c")):
        src = path.read_text()
        spec = parse_annotations(src, file=path.name)
        crude = 0
        for m in re.finditer(r"/\*@(.*?)\*/|//@(.*)", src, re.DOTALL):
            body = (m.group(1) or m.group(2) or "")
            crude += len(re.findall(
                r"\b(requires|ensures|assigns|behavior|predicate|logic|lemma|axiom)\b"
                r"|\bloop\s+(invariant|variant|assigns)\b", body))
        # 'assumes' merges into behaviors and 'loop assigns'/'assigns' both
        # count once each; the crude count must equal parsed annotations
        assert crude == len(spec.annotations), path.name


def test_basic_logical_partition(annotated_dir):
    for path in sorted(annotated_dir.glob("*.c")):
        spec = parse_annotations(path.read_text())
        uses_logical = bool(constr(spec) & LOGICAL_CONSTRUCTS)
        heads_only_basic = all(a.kind in BASIC_CONSTRUCTS for a in spec)
        assert uses_logical == (not heads_only_basic) or not spec.annotations


def test_string_literals_do_not_confuse_the_scanner(annotated_dir):
    spec = parse_annotations((annotated_dir / "string_guard.c").read_text())
    assert len(spec) == 3
    assert all(isinstance(a.anchor, FunctionContract) for a in spec)


def test_do_while_counts_once():
    src = (annotated := Path(__file__).parent / "fixtures" / "annotated" / "three_loops.c").read_text()
    spec = parse_annotations(src)
    ordinals = sorted(a.anchor.ordinal for a in spec if isinstance(a.anchor, Loop))
    assert ordinals == [1, 1, 1, 2, 2, 2, 3, 3, 3]


# --------------------------------------------------------------------------
# weave
# --------------------------------------------------------------------------

def test_weave_empty_is_identity():
    src = "int f(int x) { return x; }\n"
    assert weave(src, SpecificationSet()) == src


def test_weave_roundtrip_three_annotations():
    src = "int f(int x) {\n  int i = 0;\n  while (i < x) { i++; }\n  return i;\n}\n"
    spec = SpecificationSet([
        Annotation(ConstructKind.REQUIRES, "requires x >= 0;", FunctionContract("f")),
        Annotation(ConstructKind.ENSURES, "ensures \\result >= 0;", FunctionContract("f")),
        Annotation(ConstructKind.LOOP_INVARIANT, "loop invariant i >= 0;", Loop("f", 1)),
    ])
    assert parse_annotations(weave(src, spec)) == spec


def test_weave_missing_loop_ordinal():
    src = "int f(int x) {\n  while (x > 0) { x--; }\n  return x;\n}\n"
    spec = SpecificationSet([
        Annotation(ConstructKind.LOOP_INVARIANT, "loop invariant x >= 0;", Loop("f", 2)),
    ])
    with pytest.raises(AnchorNotFound):
        weave(src, spec)


def test_weave_missing_function():
    spec = SpecificationSet([
        Annotation(ConstructKind.REQUIRES, "requires \\true;", FunctionContract("g")),
    ])
    with pytest.raises(AnchorNotFound):
        weave("int f(void) { return 0; }\n", spec)


def test_weave_globals_before_first_function():
    src = "int f(int x) { return x; }\n"
    spec = SpecificationSet([
        Annotation(ConstructKind.LEMMA, "lemma one: 1 == 1;"),
        Annotation(ConstructKind.REQUIRES, "requires x >= 0;", FunctionContract("f")),
    ])
    woven = weave(src, spec)
    assert woven.index("lemma one") < woven.index("requires") < woven.index("int f")
    assert parse_annotations(woven) == spec


def test_weave_axioms_grouped_into_axiomatic_block():
    src = "int f(int x) { return x; }\n"
    spec = SpecificationSet([
        Annotation(ConstructKind.LOGIC, "logic integer m(integer x);"),
        Annotation(ConstructKind.AXIOM, "axiom a1: \\forall integer x; m(x) == x;"),
        Annotation(ConstructKind.LEMMA, "lemma l1: m(0) == 0;"),
    ])
    woven = weave(src, spec)
    assert "axiomatic" in woven
    assert parse_annotations(woven) == spec


def test_strip_then_parse_is_empty(annotated_dir):
    for path in sorted(annotated_dir.glob("*.c")):
        bare = strip_annotations(path.read_text())
        assert len(parse_annotations(bare)) == 0, path.name


def test_full_corpus_roundtrip(annotated_dir):
    for path in sorted(annotated_dir.glob("*.c")):
        src = path.read_text()
        spec = parse_annotations(src, file=path.name)
        bare = strip_annotations(src)
        assert parse_annotations(weave(bare, spec)) == spec, path.name


# --------------------------------------------------------------------------
# property: random specification sets round-trip over a fixed bare program
# --------------------------------------------------------------------------

_BARE = """\
int alpha(int x) {
  int i = 0;
  while (i < x) { i++; }
  for (int j = 0; j < 4; j++) { i += j; }
  return i;
}

int beta(int y) {
  return y * 2;
}
"""

_contract_kinds = st.sampled_from([
    (ConstructKind.REQUIRES, "requires {} > {};"),
    (ConstructKind.ENSURES, "ensures \\result > {} + {};"),
    (ConstructKind.ASSIGNS, "assigns \\nothing;"),
])
_loop_kinds = st.sampled_from([
    (ConstructKind.LOOP_INVARIANT, "loop invariant {} <= {};"),
    (ConstructKind.LOOP_VARIANT, "loop variant {} - {};"),
    (ConstructKind.LOOP_ASSIGNS, "loop assigns i;"),
])
_small = st.integers(min_value=0, max_value=9)


@st.composite
def _random_annotation(draw):
    flavor = draw(st.integers(min_value=0, max_value=2))
    a, b = draw(_small), draw(_small)
    if flavor == 0:
        kind, template = draw(_contract_kinds)
        fn = draw(st.sampled_from(["alpha", "beta"]))
        return Annotation(kind, template.format(a, b), FunctionContract(fn))
    if flavor == 1:
        kind, template = draw(_loop_kinds)
        ordinal = draw(st.sampled_from([1, 2]))
        return Annotation(kind, template.format(a, b), Loop("alpha", ordinal))
    name = f"g{a}{b}"
    pick = draw(st.integers(min_value=0, max_value=2))
    if pick == 0:
        return Annotation(ConstructKind.LEMMA, f"lemma {name}: {a} <= {a} + {b};")
    if pick == 1:
        return Annotation(ConstructKind.PREDICATE,
                          f"predicate {name}(integer v) = v > {a};")
    return Annotation(ConstructKind.AXIOM,
                      f"axiom {name}: \\forall integer v; v + {a} >= v;")


@settings(max_examples=60, deadline=None)
@given(st.lists(_random_annotation(), max_size=12))
def test_roundtrip_property(annotations):
    spec = SpecificationSet(annotations)
    assert parse_annotations(weave(_BARE, spec)) == spec
