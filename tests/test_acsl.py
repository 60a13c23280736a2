from __future__ import annotations

import functools
import re
import time
from dataclasses import replace
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
    parse_annotations,
    strip_annotations,
    weave,
)
from specloop import acsl
from specloop.acsl import declared_functions
from specloop.errors import (
    AnchorNotFound,
    ClassificationError,
    MalformedAnnotation,
)

import strategies


# --------------------------------------------------------------------------
# construct classification: the clause split maps each clause keyword to its
# kind through KIND_OF_KEYWORD
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


def _classify(keyword):
    """The kind of the first clause the split reads from a clause headed by
    keyword; a behavior header ends at the ':' and takes the clause after."""
    return acsl._split_clauses(f"{keyword} b: requires x;")[0].kind


def test_classify_direct_keyword():
    assert _classify("requires") is ConstructKind.REQUIRES


def test_classify_loop_variant_tokens():
    assert _classify("loop \n\t variant") is ConstructKind.LOOP_VARIANT


def test_classify_ghost_is_an_error():
    with pytest.raises(ClassificationError):
        _classify("ghost")


def test_classifier_is_total_over_the_acsl_clause_list():
    # brute force: exactly the eleven studied keywords classify, the rest
    # error; `axiomatic` opens a block, whose own errors are tested below
    for keyword, kind in SUPPORTED.items():
        assert _classify(keyword) is kind
    for keyword in UNSUPPORTED:
        if keyword != "axiomatic":
            with pytest.raises(ClassificationError):
                _classify(keyword)


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


def _key(a: Annotation) -> tuple:
    return (a.kind, a.text, a.anchor)


@settings(max_examples=200, deadline=None)
@given(strategies.annotations(), strategies.annotations())
def test_annotation_value_ignores_the_computed_name(a, other):
    """Equality and hash are those of (kind, text, anchor), whatever the
    span and whether or not declared_name() has filled its slot; repr
    shows the four fields."""
    twin = Annotation(*_key(a), other.span)
    a.declared_name()
    assert twin == a and hash(twin) == hash(a) == hash(_key(a))
    assert (a == other) == (_key(a) == _key(other))
    for ann in (a, twin):
        assert repr(ann) == (
            f"Annotation(kind={ann.kind!r}, text={ann.text!r}, "
            f"anchor={ann.anchor!r}, span={ann.span!r})")


@settings(max_examples=200, deadline=None)
@given(strategies.annotations(), strategies.annotations())
def test_declared_name_follows_the_text_through_replace(a, other):
    assert a.declared_name() == acsl._declared_name(a.kind, a.text)
    assert a.declared_name() == acsl._declared_name(a.kind, a.text)
    b = replace(a, kind=other.kind, text=other.text, anchor=other.anchor)
    assert b.declared_name() == acsl._declared_name(b.kind, b.text)
    assert replace(a, span=other.span).declared_name() == a.declared_name()


def test_specification_set_collapses_duplicates():
    a = Annotation(ConstructKind.REQUIRES, "requires x > 0;", FunctionContract("f"))
    b = Annotation(ConstructKind.REQUIRES, "requires x > 0;", FunctionContract("f"),
                   SourceSpan("f.c", 3, 3))
    c = Annotation(ConstructKind.ENSURES, "ensures \\result > 0;", FunctionContract("f"))
    spec = SpecificationSet([a, b, c, a])
    assert len(spec) == 2
    assert spec == SpecificationSet([c, b])  # order and spans do not matter


def _ref_annotations(annotations) -> tuple:
    """Reference: the first annotation of each (kind, text, anchor)."""
    first: dict[tuple, Annotation] = {}
    for ann in annotations:
        first.setdefault(_key(ann), ann)
    return tuple(first.values())


def _ref_without(spec: SpecificationSet, removed) -> tuple:
    gone = {_key(a) for a in removed}
    return _ref_annotations(a for a in spec.annotations if _key(a) not in gone)


def _ref_equal(x: SpecificationSet, y: SpecificationSet) -> bool:
    return {_key(a) for a in x} == {_key(a) for a in y}


def _same_objects(xs, ys) -> bool:
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


@settings(max_examples=300, deadline=None)
@given(strategies.specs(), strategies.specs(), st.data())
def test_specification_set_matches_the_key_tuple_reference(spec, other, data):
    """Construction, `without` and equality keep, drop and compare the same
    annotation objects as the (kind, text, anchor) tuple reference, with
    spans redrawn and duplicates injected."""
    anns = data.draw(st.permutations(
        [*spec, *data.draw(strategies.respanned(spec)), *other]))
    built = SpecificationSet(anns)
    assert _same_objects(built.annotations, _ref_annotations(anns))
    removed = data.draw(strategies.respanned(built))
    assert _same_objects(built.without(removed).annotations,
                         _ref_without(built, removed))
    twin = SpecificationSet(data.draw(st.permutations(
        [replace(a, span=data.draw(strategies.spans())) for a in built])))
    part = SpecificationSet(data.draw(strategies.respanned(built)))
    for x, y in ((built, twin), (built, part), (built, spec), (spec, other)):
        assert (x == y) == _ref_equal(x, y)
        assert x != y or hash(x) == hash(y)


def test_constr_examples():
    f = FunctionContract("f")
    spec = SpecificationSet([
        Annotation(ConstructKind.REQUIRES, "requires a;", f),
        Annotation(ConstructKind.REQUIRES, "requires b;", f),
        Annotation(ConstructKind.ENSURES, "ensures c;", f),
    ])
    assert spec.constr() == {ConstructKind.REQUIRES, ConstructKind.ENSURES}
    assert SpecificationSet().constr() == frozenset()


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
    assert spec.constr() >= {
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
    assert {ConstructKind.AXIOM, ConstructKind.LOGIC} <= spec.constr()


def test_parse_line_annotations(annotated_dir):
    spec = parse_annotations((annotated_dir / "line_annotations.c").read_text())
    assert len(spec) == 6
    assert spec.constr() == {
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


@pytest.mark.parametrize("header", [
    "axiomatic A requires x > 0; ensures y; {", "axiomatic A B {", "axiomatic 9 {",
    "axiomatic A", "axiomatic",
])
def test_only_a_name_stands_between_axiomatic_and_its_brace(header):
    src = f"/*@ {header} axiom a: \\true; }} */\nint f(int x) {{ return x; }}\n"
    with pytest.raises(MalformedAnnotation, match="no '{' after its name"):
        parse_annotations(src)


@pytest.mark.parametrize("header", ["axiomatic A {", "axiomatic{", "axiomatic\n  A\t{"])
def test_an_axiomatic_block_named_or_not_holds_its_members(header):
    (axiom,) = parse_annotations(f"/*@ {header} axiom a: \\true; }} */\n")
    assert axiom.kind is ConstructKind.AXIOM and axiom.text == "axiom a: \\true;"


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


def test_a_behavior_span_ends_at_its_last_assumes():
    # the line numbers of the clause after it are counted back from there
    spec = parse_annotations("/*@ behavior b:\n ensures y;\n assumes x > 0;\n"
                             " requires z; */\nint f(int x) { return x; }\n")
    assert [(a.kind, a.span.start_line, a.span.end_line) for a in spec] == [
        (ConstructKind.BEHAVIOR, 1, 3), (ConstructKind.ENSURES, 2, 2),
        (ConstructKind.REQUIRES, 4, 4)]


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
        uses_logical = bool(spec.constr() & LOGICAL_CONSTRUCTS)
        heads_only_basic = all(a.kind in BASIC_CONSTRUCTS for a in spec)
        assert uses_logical == (not heads_only_basic) or not spec.annotations


def test_string_literals_do_not_confuse_the_scanner(annotated_dir):
    spec = parse_annotations((annotated_dir / "string_guard.c").read_text())
    assert len(spec) == 3
    assert all(isinstance(a.anchor, FunctionContract) for a in spec)


def test_a_quote_left_open_in_a_body_leaves_the_body_open():
    # the lexer masks `'}` to the end of the text, so no '}' closes f
    for scan in (declared_functions, parse_annotations):
        with pytest.raises(MalformedAnnotation, match="unbalanced '{' at offset 13"):
            scan("int f(int n) {'}")


def test_literals_in_a_body_neither_close_it_nor_count_as_loops():
    src = ('int g(int n) {\n    const char *s = "}";\n    char c = \'{\';\n'
           '    const char *w = "do";\n    int i = 0;\n'
           '    /*@ loop invariant 0 <= i <= n; */\n    while (i < n) i++;\n'
           '    return i;\n}\nint h(void) { return 0; }\n')
    assert declared_functions(src) == ["g", "h"]
    [ann] = parse_annotations(src)
    assert ann.anchor == Loop("g", 1)
    assert (ann.span.start_line, ann.span.end_line) == (6, 6)


def test_a_do_left_open_in_one_body_takes_no_while_of_the_next():
    src = ("int f(int x) { do x--; }\n"
           "int g(int y) {\n  /*@ loop invariant y >= 0; */\n  while (y) y--;\n}\n")
    [ann] = parse_annotations(src)
    assert ann.anchor == Loop("g", 1)


def test_do_while_counts_once():
    src = (annotated := Path(__file__).parent / "fixtures" / "annotated" / "three_loops.c").read_text()
    spec = parse_annotations(src)
    ordinals = sorted(a.anchor.ordinal for a in spec if isinstance(a.anchor, Loop))
    assert ordinals == [1, 1, 1, 2, 2, 2, 3, 3, 3]


@pytest.mark.parametrize("head", [
    "int f(int x) __attribute__((pure)) {",
    "int f(int x)__attribute__ ((pure)) __attribute((const))\n{",
])
def test_trailing_attributes_do_not_name_the_function(head):
    src = f"/*@ requires x >= 0; */\n{head}\n  return x;\n}}\n"
    assert acsl.declared_functions(src) == ["f"]
    (requires,) = parse_annotations(src)
    assert requires.anchor == FunctionContract("f")


@pytest.mark.parametrize("comment, kind, text", [
    ("/*@ ensures \\result != ';'; */", ConstructKind.ENSURES,
     "ensures \\result != ';';"),
    ("/*@ requires c != '}'; */", ConstructKind.REQUIRES, "requires c != '}';"),
    ("/*@ axiomatic A {\n      predicate p(char c) = c != '}';\n    } */",
     ConstructKind.PREDICATE, "predicate p(char c) = c != '}';"),
])
def test_character_constants_in_clauses(comment, kind, text):
    src = f"{comment}\nint f(char c) {{\n  return c;\n}}\n"
    spec = parse_annotations(src)
    assert [(a.kind, a.text) for a in spec] == [(kind, text)]
    assert parse_annotations(weave(strip_annotations(src), spec)) == spec


def test_parenthesised_function_name_is_named():
    assert acsl.declared_functions("int (f)(int x) { return x; }") == ["f"]
    src = "/*@ requires x >= 0; */\nint ( f )\n(int x) {\n  return x;\n}\n"
    assert acsl.declared_functions(src) == ["f"]
    (requires,) = parse_annotations(src)
    assert requires.anchor == FunctionContract("f")
    # a group holding more than one name is no parenthesised name
    assert acsl.declared_functions("int (struct s)(int x) { return x; }") == []
    assert acsl.declared_functions("int *(f)(int x) { return 0; }") == ["f"]


@pytest.mark.parametrize("declaration", [
    "T v = (T)(struct s){1};", "T a = 0, b = (T)(struct s){1};",
    "T *p = &(T)(struct s){1};", "int v = 2 * (T)(struct s){1};",
    "int v = (2) * (T)(struct s){1};", "int v = 2 *\n(T)(struct s){1};",
])
def test_cast_of_a_compound_literal_names_no_function(declaration):
    src = (f"typedef struct s T;\n/*@ requires n >= 0; */\n{declaration}\n"
           "int g(int n) { return n; }\n")
    assert acsl.declared_functions(src) == ["g"]
    (requires,) = parse_annotations(src)
    assert requires.anchor == FunctionContract("g")


def test_compound_literal_names_no_function():
    src = ("struct s { int a; };\nstruct s v = (struct s){1};\n"
           "/*@ requires n >= 0; */\nint g(int n) { return n; }\n")
    assert acsl.declared_functions(src) == ["g"]
    (requires,) = parse_annotations(src)
    assert requires.anchor == FunctionContract("g")


@pytest.mark.parametrize("head", [
    "int (*pick(int s))(int) {",
    "int (*(*pick(int s))(int))(char)\n{",
    "int (*pick(int s) __attribute__((pure)))(int) {",
])
def test_function_returning_a_function_pointer_is_named(head):
    src = (f"/*@ requires s >= 0; */\n{head}\n  return 0;\n}}\n"
           "int g(void) { return 1; }\n")
    assert acsl.declared_functions(src) == ["pick", "g"]
    (requires,) = parse_annotations(src)
    assert requires.anchor == FunctionContract("pick")


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
    (ConstructKind.REQUIRES, "requires {} != ';' && '}}' != {};"),
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
    pick = draw(st.integers(min_value=0, max_value=3))
    if pick == 0:
        return Annotation(ConstructKind.LEMMA, f"lemma {name}: {a} <= {a} + {b};")
    if pick == 1:
        return Annotation(ConstructKind.PREDICATE,
                          f"predicate {name}(integer v) = v > {a};")
    if pick == 2:
        return Annotation(ConstructKind.PREDICATE,
                          f"predicate {name}(char c) = c != '}}' && c != '{a}';")
    return Annotation(ConstructKind.AXIOM,
                      f"axiom {name}: \\forall integer v; v + {a} >= v;")


#: the _BARE line each anchor's `//@` lines go before
_LINE_OF_ANCHOR = {GLOBAL: 0, FunctionContract("alpha"): 0,
                   Loop("alpha", 1): 2, Loop("alpha", 2): 3,
                   FunctionContract("beta"): 7}


def _as_line_comments(spec, closer_in=None):
    """_BARE with each annotation of spec on a `//@` line before its anchor;
    annotation number `closer_in` gets a `*/` before its ';'."""
    lines = _BARE.splitlines(keepends=True)
    # bottom up, so each insertion leaves the lines above it in place
    for at, i, ann in sorted(((_LINE_OF_ANCHOR[a.anchor], i, a)
                              for i, a in enumerate(spec)), reverse=True):
        text = ann.text[:-1] + " */;" if i == closer_in else ann.text
        indent = lines[at][:len(lines[at]) - len(lines[at].lstrip())]
        lines.insert(at, f"{indent}//@ {text}\n")
    return "".join(lines)


@settings(max_examples=60, deadline=None)
@given(st.lists(_random_annotation(), max_size=12),
       st.sampled_from(["/*@ blocks", "//@ lines", "//@ lines with */"]),
       st.integers(min_value=0, max_value=11))
def test_roundtrip_property(annotations, form, closer_in):
    spec = SpecificationSet(annotations)
    assert parse_annotations(weave(_BARE, spec)) == spec
    if form != "/*@ blocks":
        closer_in = closer_in % len(spec) if form.endswith("*/") and spec else None
        try:
            parsed = parse_annotations(_as_line_comments(spec, closer_in))
        except MalformedAnnotation:
            # weave would end its `/*@` block at that `*/`
            assert closer_in is not None
            return
        assert closer_in is None and parsed == spec


# --------------------------------------------------------------------------
# layout scan: differential check against the character-stepping scanner
# --------------------------------------------------------------------------
# The reference below is the scanner the brace-pair one replaced: it steps
# one character at a time and finds each declaration start by searching the
# whole prefix. Both must give the same masked text, comments, functions and
# anchors, or raise the same error with the same message. Both sides were
# changed together on purpose where the behaviour changed: a function
# returning a function pointer, a name alone in parentheses (`int (f)(int)`)
# and character literals in the brace matcher.
#
# The layout scan is compared on masked text only, which is all its callers
# pass. On raw text the reference skips literals when it looks for a body's
# end but not when it collects loops or declaration marks, so no scan that
# treats them alike can agree with it there (`int f(int n) {'}`). The brace
# matcher, which closes axiomatic blocks in clause content, is still
# compared on raw text.

def _ref_lex(source):
    n = len(source)
    masked = list(source)
    comments = []
    i = 0

    def blank(a, b):
        for k in range(a, b):
            if masked[k] != "\n":
                masked[k] = " "

    while i < n:
        ch = source[i]
        if ch == "/" and source.startswith("/*", i):
            is_acsl = source.startswith("/*@", i)
            open_len = 3 if is_acsl else 2
            end = source.find("*/", i + open_len)
            if end < 0:
                raise MalformedAnnotation(f"unterminated comment at offset {i}")
            if is_acsl:
                comments.append(acsl._AcslComment(
                    content=_ref_blank_decorations(source[i + open_len:end]),
                    content_offset=i + open_len,
                    start_offset=i,
                    end_offset=end + 2,
                ))
            blank(i, end + 2)
            i = end + 2
        elif ch == "/" and source.startswith("//", i):
            is_acsl = source.startswith("//@", i)
            open_len = 3 if is_acsl else 2
            end = source.find("\n", i)
            if end < 0:
                end = n
            if is_acsl:
                comments.append(acsl._AcslComment(
                    content=source[i + open_len:end],
                    content_offset=i + open_len,
                    start_offset=i,
                    end_offset=end,
                ))
            blank(i, end)
            i = end
        elif ch == '"' or ch == "'":
            quote = ch
            j = i + 1
            while j < n:
                if source[j] == "\\":
                    j += 2
                    continue
                if source[j] == quote:
                    break
                j += 1
            blank(i, min(j + 1, n))
            i = min(j + 1, n)
        else:
            i += 1
    return "".join(masked), comments


def _ref_match_block(content, open_pos):
    depth = 0
    i = open_pos
    n = len(content)
    while i < n:
        c = content[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
        elif c in "\"'":
            i += 1
            while i < n and content[i] != c:
                i += 2 if content[i] == "\\" else 1
        i += 1
    raise MalformedAnnotation(f"unbalanced '{{' at offset {open_pos}")


def _ref_function_at_brace(masked, brace_pos):
    j = brace_pos - 1
    name = None
    while True:
        while j >= 0 and masked[j].isspace():
            j -= 1
        if j < 0 or masked[j] != ")":
            return None
        depth = 0
        while j >= 0:
            if masked[j] == ")":
                depth += 1
            elif masked[j] == "(":
                depth -= 1
                if depth == 0:
                    break
            j -= 1
        if j < 0:
            return None
        j -= 1
        while j >= 0 and masked[j].isspace():
            j -= 1
        # a ')' before the parameters closes a group holding the name alone,
        # as in `int (f)(int x)`, or the name and its own parameters, as in
        # `int (*pick(int s))(int)`
        if j < 0 or masked[j] != ")":
            break
        close, depth = j, 0
        while j >= 0:
            depth += {")": 1, "(": -1}.get(masked[j], 0)
            if depth == 0:
                break
            j -= 1
        lone = re.fullmatch(r"\s*(\w+)\s*", masked[j + 1:close]) if j >= 0 else None
        # the name alone follows a type's last word, perhaps with `*`s after
        # it; a cast, as in `v = (T)(struct s){1}` or `v = 2 * (T)(U){1}`,
        # follows something else
        k = j - 1
        while k >= 0 and (masked[k].isspace() or masked[k] == "*"):
            k -= 1
        word_end = k + 1
        while k >= 0 and (masked[k].isalnum() or masked[k] == "_"):
            k -= 1
        word = masked[k + 1:word_end]
        typed = (word != "" and not word[0].isdigit()
                 and word not in acsl._C_KEYWORDS)
        if lone and typed:
            name = lone.group(1)
            j -= 1
            break
        j = close - 1
    if name is None:
        name_end = j + 1
        while j >= 0 and (masked[j].isalnum() or masked[j] == "_"):
            j -= 1
        name = masked[j + 1:name_end]
    if not name or name[0].isdigit() or name in acsl._C_KEYWORDS:
        return None
    decl_start = _ref_decl_start(masked, j + 1)
    while decl_start < brace_pos and masked[decl_start].isspace():
        decl_start += 1
    return name, decl_start


def _ref_decl_start(masked, name_start):
    """Just after the last ';', '}', '{' or preprocessor line before
    name_start, a line running past name_start cut there."""
    head = masked[:name_start]
    anchor = max(head.rfind(";"), head.rfind("}"), head.rfind("{"))
    for m in re.finditer(r"(?m)^[ \t]*#[^\n]*$", head):
        anchor = max(anchor, m.end() - 1)
    return anchor + 1


def _ref_openers(masked):
    """')' offset -> offset of the '(' a forward stack pairs it with, -1
    for a ')' that closes nothing."""
    openers, stack = {}, []
    for i, ch in enumerate(masked):
        if ch == "(":
            stack.append(i)
        elif ch == ")":
            openers[i] = stack.pop() if stack else -1
    return openers


def _ref_collect_loops(masked, body_start, body_end):
    loops = []
    pending_do = []
    depth = 0
    i = body_start
    while i < body_end:
        c = masked[i]
        if c == "{":
            depth += 1
            i += 1
        elif c == "}":
            depth -= 1
            while pending_do and pending_do[-1] > depth:
                pending_do.pop()
            i += 1
        elif c == "_" or (c.isascii() and c.isalpha()):
            m = re.compile(r"[A-Za-z_]\w*").match(masked, i)
            word = m.group(0)
            if word == "for":
                loops.append(i)
            elif word == "do":
                loops.append(i)
                pending_do.append(depth)
            elif word == "while":
                if pending_do and pending_do[-1] == depth:
                    pending_do.pop()
                else:
                    loops.append(i)
            i = m.end()
        else:
            i += 1
    return loops


def _ref_scan_layout(masked):
    functions = []
    depth = 0
    i = 0
    n = len(masked)
    while i < n:
        c = masked[i]
        if c == "{":
            if depth == 0:
                hit = _ref_function_at_brace(masked, i)
                if hit is not None:
                    name, decl_start = hit
                    body_end = _ref_match_block(masked, i)
                    info = acsl._FunctionInfo(name, decl_start, i, body_end)
                    info.loop_offsets = _ref_collect_loops(masked, i + 1, body_end)
                    functions.append(info)
                    i = body_end + 1
                    continue
            depth += 1
        elif c == "}":
            depth -= 1
        i += 1
    return functions


def _ref_resolve_anchor(kind, comment, functions):
    if kind in acsl._LOOP_KINDS:
        for f in functions:
            if f.body_start < comment.start_offset < f.body_end:
                for ordinal, off in enumerate(f.loop_offsets, start=1):
                    if off >= comment.end_offset:
                        return Loop(f.name, ordinal)
                raise MalformedAnnotation(
                    f"loop annotation at offset {comment.start_offset} has no "
                    f"following loop in function '{f.name}'")
        raise MalformedAnnotation(
            f"loop annotation at offset {comment.start_offset} is outside any function body")
    for f in functions:
        if f.body_start > comment.start_offset:
            return FunctionContract(f.name)
    raise MalformedAnnotation(
        f"contract annotation at offset {comment.start_offset} precedes no function")


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same_layout(text):
    lexed = _outcome(acsl._lex, text)
    assert lexed == _outcome(_ref_lex, text)
    if isinstance(lexed[0], str):
        masked, comments = lexed
        functions = _outcome(acsl._scan_layout, masked)
        assert functions == _outcome(_ref_scan_layout, masked)
        if isinstance(functions, list):
            # one layout for every comment, as in a parse, so the pairs one
            # comment read are reused by the next
            layout = acsl._Layout(masked)
            for comment in comments:
                for kind in (ConstructKind.LOOP_INVARIANT, ConstructKind.REQUIRES):
                    assert (_outcome(acsl._resolve_anchor, kind, comment, layout)
                            == _outcome(_ref_resolve_anchor, kind, comment, functions))
    # on raw text quotes reach the brace matcher, which must skip literals
    for m in re.finditer(r"\{", text):
        assert (_outcome(acsl._match_block, text, m.start())
                == _outcome(_ref_match_block, text, m.start()))


_HEADS = [
    "int f(int n) {", "void g(void)\n{", "static int h_1(int *p, char c) {",
    "/*@ requires n > 0;\n    ensures \\result >= 0; */\nint k(int n) {",
    "\n#define M(x) { x; }\nint m(int a, int b) {", "int (*pick(int s))(int) {",
    "int À(int n) {", "int é_x(int y) {", "名前(v) {", "int 9bad(int n) {",
    "while (x) {", "\n#define F int d(void) {", "int\nw\t(int n)\n{",
    "int arr[] = {1, 2, {3}};\nint q() {", "int (f)(int x) {", "int ( g2 )\n(void) {",
    "int (struct s)(int x) {", "int *(f)(int x) {", "(f)(int x) {",
    "T v = (T)(struct s){1};\nint h(void) {", "x = a, (T)(U){",
    "return (T)(U){", "int v = 2 * (T)(T){1};\nint g(void) {", "x = (a) * (T)(U){",
    "T **(f)(int x) {", "T * * (f)(int x) {",
    # no ';' before the name: the declaration starts after a brace or a
    # preprocessor line, or at the start of the text
    "int f(void){", "}int g(void){", "\n#define N 1\nint n(void){",
]

_STATEMENTS = [
    "for (i = 0; i < n; i++) { s += i; }", "while (x) { x--; }",
    "do { x++; } while (x < 3);", "do x++; while (x < 3);",
    "do { do { } while (a); } while (b);", "while (a) do b; while (c);",
    "/*@ loop invariant i >= 0;\n    loop variant n - i; */\nfor (;;) {}",
    "//@ loop assigns x;\nwhile (x) x--;", "/*@ loop invariant x >= 0; */while (x) x--;",
    "if (a) { b; } else { c; }",
    "{ for (;;) { } }", "Àfor (;;) {}", "9while (z) {}", "_while = forx + dofor;",
    "_9for (;;) {}", "xéfor (;;) {}", "é9do {} while (1);",
    's = "{ ; } while";', "c = '}';", "c = '\\'';", "// } while\n", "/* { do */",
    "return f(x);", "x = (a + (b));",
]

_C_FRAGMENTS = [
    # stray braces and parentheses, top-level braces that open no function
    "}", "{", "};", ";", "(", ")", "struct S { int a; };", "enum E { A, B };",
    "int (*fp)(int) = 0;", "do {", "} while (y);", "for (;;) {",
    "= (struct s){1};", "(T)(struct s){1};",
    # functions with no ';' anywhere, back to back or after a directive
    "int f(void){}", "int g(void){}int h(void){}", "\n#define M 1\nint d(void){}",
    "#define E\nvoid e(){}", "{}int k(){}",
    # comments holding braces, quotes and annotations
    "/* { ; } */", "/* \" ' */", "/*@ requires x > 0; */",
    "/*@ loop invariant i >= 0; */", "//@ ensures \\result >= 0;\n",
    "// } { \" \n", "/*@ @ assigns \\nothing; @*/", "/*", "*/", "//",
    # annotations over several lines: a behavior whose `assumes` follows
    # its `ensures`, so its span ends past the next clause's start, and an
    # axiomatic block
    "/*@ behavior b:\n    ensures y;\n    assumes x > 0;\n    requires z; */",
    "/*@ axiomatic A {\n    predicate p(integer x) = x > 0;\n\n    axiom a: p(1);\n  } */",
    # comments closed by a run of '*', or holding '*' and '/' apart
    "/***/", "/*@*/", "/*@ a **/", "/* * / */", "/*@ x */ */",
    # string and char literals, escaped quotes, unterminated ones
    '"{ ; }"', '"a\\"b{"', "'{'", "'\\''", '"\\\\"', '"}\\\n{"', '"', "'", "\\",
    # preprocessor lines
    "\n#define M(x) { x; }\n", "\n  # if (a)\n", "#", "\n#include <x.h>\n",
    "\n\t#pragma once\n",
    # whitespace, Unicode whitespace included
    " ", "\n", "\t", "\x0b", "\u00a0", "\u2028",
]

_noise = st.one_of(st.sampled_from(_C_FRAGMENTS),
                   st.text(alphabet="{}();#\"'/*@\\ \n\tfordowhileÀ9_", max_size=8))
_function = st.builds(
    lambda head, body: head + "\n".join(body) + "}",
    st.sampled_from(_HEADS),
    st.lists(st.one_of(st.sampled_from(_STATEMENTS), _noise), max_size=8))
_c_like_text = st.lists(st.one_of(_function, _noise), max_size=12).map("".join)


@settings(max_examples=400, deadline=None)
@given(_c_like_text)
def test_layout_scan_matches_the_reference(text):
    _assert_same_layout(text)


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).parent / "fixtures").rglob("*.c")),
    ids=lambda p: f"{p.parent.name}/{p.name}")
def test_layout_scan_matches_the_reference_on_fixtures(path):
    _assert_same_layout(path.read_text())


_marks_text = st.lists(st.sampled_from(
    ["(", ")", "{", "}", ";", "#", "\n", " ", "\t", "a", "fn", "x_1"]),
    max_size=60).map("".join)


@settings(max_examples=400, deadline=None)
@given(_marks_text, st.data())
def test_declaration_marks_match_the_reference(text, data):
    # the scan floor and the line-start lookup depend on the order of the
    # questions, so hypothesis draws it; each is asked twice
    openers = _ref_openers(text)
    questions = [("opener", c) for c in openers]
    questions += [("decl_start", m.start()) for m in re.finditer(r"\w+", text)]
    marks = acsl._DeclarationMarks(text)
    for method, offset in data.draw(st.permutations(questions * 2)):
        expected = (openers[offset] if method == "opener"
                    else _ref_decl_start(text, offset))
        assert getattr(marks, method)(offset) == expected, (method, offset)


def _ref_parse(source, file):
    """parse_annotations built from the reference lexer, layout scan, anchor
    resolution and clause splitter: (kind, text, anchor, span) of each
    annotation, the first of equal ones kept."""
    masked, comments = _ref_lex(source)
    functions = _ref_scan_layout(masked)
    annotations = {}
    for comment in comments:
        content, base = comment.content, comment.content_offset
        for clause in _ref_split_clauses(content):
            anchor = (GLOBAL if clause.kind in LOGICAL_CONSTRUCTS
                      else _ref_resolve_anchor(clause.kind, comment, functions))
            text = _ref_clause_text(clause, content)
            end = max([clause.end] + [b for _, b in clause.extra_spans])
            span = SourceSpan(file, source.count("\n", 0, base + clause.start) + 1,
                              source.count("\n", 0, base + end - 1) + 1)
            annotations.setdefault((clause.kind, text, anchor), span)
    return [(*key, span) for key, span in annotations.items()]


def _assert_same_parse(text):
    parsed = _outcome(parse_annotations, text, "t.c")
    if isinstance(parsed, SpecificationSet):
        parsed = [(a.kind, a.text, a.anchor, a.span) for a in parsed]
    assert parsed == _outcome(_ref_parse, text, "t.c")


@settings(max_examples=400, deadline=None)
@given(_c_like_text)
def test_parse_matches_the_reference_parse(text):
    _assert_same_parse(text)


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).parent / "fixtures").rglob("*.c")),
    ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parse_matches_the_reference_parse_on_fixtures(path):
    _assert_same_parse(path.read_text())


def test_a_parse_reads_only_the_functions_its_annotations_anchor_to(monkeypatch):
    helpers = "".join(f"static int h{i}(int n) {{ for (;;) {{ }} return n; }}\n"
                      for i in range(100))
    text = helpers + ("/*@ requires n >= 0; */\nint target(int n) {\n"
                      "    //@ loop invariant n >= 0;\n    while (n) n--;\n"
                      "    return n;\n}\n")
    braces = []
    at_brace = acsl._function_at_brace
    monkeypatch.setattr(acsl, "_function_at_brace",
                        lambda masked, i, marks: braces.append(i) or at_brace(masked, i, marks))
    spec = parse_annotations(text)
    assert [a.anchor for a in spec] == [FunctionContract("target"), Loop("target", 1)]
    assert len(braces) <= 2
    # a caller asking for every function still reads every brace pair
    braces.clear()
    assert len(declared_functions(text)) == 101 and len(braces) == 101


# --------------------------------------------------------------------------
# weave: differential check against the grouping weave
# --------------------------------------------------------------------------
# The reference below is the weave the one-pass one replaced: it sorts the
# spec into globals, contracts by function and loops by (function, ordinal)
# before it places anything. Both must give the same woven bytes, or raise
# the same error with the same message.

def _ref_render_block(clause_texts, indent):
    if len(clause_texts) == 1:
        return f"/*@ {clause_texts[0]} */\n{indent}"
    inner = f"\n{indent}    ".join(clause_texts)
    return f"/*@ {inner} */\n{indent}"


def _ref_weave(bare_source, spec):
    if not spec:
        return bare_source

    masked, _ = acsl._lex(bare_source)
    functions = {f.name: f for f in acsl._scan_layout(masked)}
    ordered_functions = sorted(functions.values(), key=lambda f: f.decl_start)

    globals_ = []
    contracts = {}
    loops = {}
    for ann in spec:
        if isinstance(ann.anchor, acsl.Global):
            globals_.append(ann)
        elif isinstance(ann.anchor, FunctionContract):
            fn = ann.anchor.function
            if fn not in functions:
                raise AnchorNotFound(f"function '{fn}' not found in source")
            contracts.setdefault(fn, []).append(ann)
        else:
            fn, ordinal = ann.anchor.function, ann.anchor.ordinal
            f = functions.get(fn)
            if f is None:
                raise AnchorNotFound(f"function '{fn}' not found in source")
            if not 1 <= ordinal <= len(f.loop_offsets):
                raise AnchorNotFound(
                    f"function '{fn}' has {len(f.loop_offsets)} loops, "
                    f"no ordinal {ordinal}")
            loops.setdefault((fn, ordinal), []).append(ann)

    insertions = {}

    def plan(offset, block):
        insertions.setdefault(offset, []).append(block)

    if globals_:
        offset = ordered_functions[0].decl_start if ordered_functions else 0
        indent = acsl._line_indent(bare_source, offset)
        plan(offset, acsl._render_globals(globals_, indent))

    for fn, anns in contracts.items():
        f = functions[fn]
        indent = acsl._line_indent(bare_source, f.decl_start)
        plan(f.decl_start, _ref_render_block([a.text for a in anns], indent))

    for (fn, ordinal), anns in loops.items():
        f = functions[fn]
        offset = f.loop_offsets[ordinal - 1]
        indent = acsl._line_indent(bare_source, offset)
        plan(offset, _ref_render_block([a.text for a in anns], indent))

    out = bare_source
    for offset in sorted(insertions, reverse=True):
        text = "".join(insertions[offset])
        out = out[:offset] + text + out[offset:]
    return out


_ANNOTATED = sorted((Path(__file__).parent / "fixtures" / "annotated").glob("*.c"))


@functools.lru_cache(maxsize=None)
def _weave_pool(path):
    """A fixture's bare text; its annotations with each of its contract and
    loop texts anchored to every function and to every loop of each; and
    those texts anchored to a function it lacks and to loop ordinals 0 and
    one past the last."""
    src = path.read_text()
    bare = strip_annotations(src)
    loop_counts = {f.name: len(f.loop_offsets)
                   for f in acsl._scan_layout(acsl._lex(bare)[0])}
    placed, unplaced = list(parse_annotations(src)), []
    for ann in list(placed):
        if isinstance(ann.anchor, FunctionContract):
            placed += [replace(ann, anchor=FunctionContract(fn)) for fn in loop_counts]
            unplaced.append(replace(ann, anchor=FunctionContract("absent")))
        elif isinstance(ann.anchor, Loop):
            for fn, n in [*loop_counts.items(), ("absent", 0)]:
                anchors = [Loop(fn, k) for k in range(n + 2)]
                placed += [replace(ann, anchor=a) for a in anchors[1:-1]]
                unplaced += [replace(ann, anchor=a) for a in (anchors[0], anchors[-1])]
    return bare, tuple(placed), tuple(unplaced)


@st.composite
def _fixture_weave(draw):
    """A fixture's bare text and a spec of any subset and order of its pool,
    with at most one annotation that cannot be placed."""
    bare, placed, unplaced = _weave_pool(draw(st.sampled_from(_ANNOTATED)))
    anns = draw(st.lists(st.sampled_from(placed), max_size=12))
    if unplaced:
        anns += draw(st.lists(st.sampled_from(unplaced), max_size=1))
    return bare, SpecificationSet(draw(st.permutations(anns)))


@settings(max_examples=500, deadline=None)
@given(_fixture_weave())
def test_weave_matches_the_reference(case):
    bare, spec = case
    assert _outcome(weave, bare, spec) == _outcome(_ref_weave, bare, spec)


@pytest.mark.parametrize("path", _ANNOTATED, ids=lambda p: p.name)
def test_weave_matches_the_reference_on_whole_fixtures(path):
    src = path.read_text()
    bare, spec = strip_annotations(src), parse_annotations(src)
    for order in (spec, SpecificationSet(reversed(spec.annotations))):
        assert weave(bare, order) == _ref_weave(bare, order)


# --------------------------------------------------------------------------
# clause split: differential check against the character-stepping scanner
# --------------------------------------------------------------------------
# The references below are the clause scanner and decoration blanking the
# regex-stepped ones replaced: the scanner steps one character at a time.
# Both must give the same blanked content and the same clauses (kinds,
# spans, texts), or raise the same error with the same message. Both sides
# were changed together on purpose where the behaviour changed: only the
# block's name may stand between `axiomatic` and its '{' (both took the
# first '{' anywhere after the keyword, and dropped the clauses before it).

def _ref_blank_decorations(content):
    def spaces(m):
        return m.group(0).replace("@", " ")

    content = re.sub(r"\A(@+)", spaces, content)
    content = re.sub(r"(@+)[ \t]*\Z", spaces, content)
    return re.sub(r"(?m)^[ \t]*(@+)", spaces, content)


def _ref_find_terminator(content, start, what):
    depth = 0
    pending_binders = 0
    i = start
    n = len(content)
    while i < n:
        c = content[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c in "\"'":
            i += 1
            while i < n and content[i] != c:
                i += 2 if content[i] == "\\" else 1
        elif c == "\\":
            for binder in ("\\forall", "\\exists", "\\let", "\\lambda"):
                end = i + len(binder)
                if content.startswith(binder, i) and not (
                        end < n and (content[end].isalnum() or content[end] == "_")):
                    pending_binders += 1
                    i = end
                    break
            else:
                i += 1
            continue
        elif c == ";":
            if pending_binders:
                pending_binders -= 1
            elif depth == 0:
                return i
        i += 1
    raise MalformedAnnotation(f"{what} clause has no terminating ';'")


def _ref_skip_ws(text, i):
    while i < len(text) and text[i].isspace():
        i += 1
    return i


_REF_WORD = re.compile(r"[A-Za-z_]\w*")
_REF_SIMPLE = {"requires": ConstructKind.REQUIRES, "ensures": ConstructKind.ENSURES,
               "assigns": ConstructKind.ASSIGNS, "predicate": ConstructKind.PREDICATE,
               "logic": ConstructKind.LOGIC, "lemma": ConstructKind.LEMMA,
               "axiom": ConstructKind.AXIOM}
_REF_LOOP = {"invariant": ConstructKind.LOOP_INVARIANT,
             "variant": ConstructKind.LOOP_VARIANT, "assigns": ConstructKind.LOOP_ASSIGNS}


def _ref_split_clauses(content):
    clauses = []
    open_behavior = None
    i = 0
    n = len(content)
    while i < n:
        if content[i].isspace():
            i += 1
            continue
        m = _REF_WORD.match(content, i)
        if not m:
            raise MalformedAnnotation(
                f"unexpected {content[i]!r} at start of clause in annotation")
        word = m.group(0)
        after = m.end()
        if word == "loop":
            m2 = _REF_WORD.match(content, _ref_skip_ws(content, after))
            sub = m2.group(0) if m2 else ""
            if sub not in _REF_LOOP:
                raise ClassificationError(f"not a supported construct keyword: 'loop {sub}'")
            end = _ref_find_terminator(content, m2.end(), f"loop {sub}")
            clauses.append(acsl._Clause(_REF_LOOP[sub], i, end + 1))
            i = end + 1
        elif word == "behavior":
            colon = content.find(":", after)
            if colon < 0:
                raise MalformedAnnotation("behavior header has no ':'")
            open_behavior = acsl._Clause(ConstructKind.BEHAVIOR, i, colon + 1)
            clauses.append(open_behavior)
            i = colon + 1
        elif word == "assumes":
            if open_behavior is None:
                raise ClassificationError(
                    "not a supported construct keyword: 'assumes' (outside behavior)")
            end = _ref_find_terminator(content, after, "assumes")
            open_behavior.extra_spans.append((i, end + 1))
            i = end + 1
        elif word == "axiomatic":
            brace = _ref_skip_ws(content, after)
            name = _REF_WORD.match(content, brace)
            if name:
                brace = _ref_skip_ws(content, name.end())
            if not content.startswith("{", brace):
                raise MalformedAnnotation("axiomatic block has no '{' after its name")
            close = _ref_match_block(content, brace)
            for c in _ref_split_clauses(content[brace + 1:close]):
                if c.kind not in LOGICAL_CONSTRUCTS:
                    raise ClassificationError(
                        f"'{c.kind.value}' is not valid inside an axiomatic block")
                clauses.append(acsl._Clause(
                    c.kind, c.start + brace + 1, c.end + brace + 1,
                    [(a + brace + 1, b + brace + 1) for a, b in c.extra_spans]))
            i = close + 1
        elif word in _REF_SIMPLE:
            end = _ref_find_terminator(content, after, word)
            clauses.append(acsl._Clause(_REF_SIMPLE[word], i, end + 1))
            i = end + 1
        else:
            raise ClassificationError(f"not a supported construct keyword: {word!r}")
    return clauses


def _ref_clause_text(clause, content):
    pieces = [content[clause.start:clause.end]]
    pieces += [content[a:b] for a, b in clause.extra_spans]
    text = re.sub(r"\s+", " ", " ".join(pieces)).strip()
    if "*/" in text:
        raise MalformedAnnotation(f"{clause.kind.value} clause contains '*/'")
    return text


_CLAUSE_HEADS = [
    "requires ", "ensures ", "assigns ", "loop invariant ", "loop variant ",
    "loop\t assigns ", "predicate p(integer x) = ", "logic integer f(integer x) = ",
    "lemma l: ", "axiom a: ",
]
_BAD_HEADS = [
    "loop frees ", "loop", "behavior b ", "assumes ", "terminates ", "ghost ",
    "é ", "9 ", "axiomatic A ", "} ", "@ ", "\n  @ ",
]
_CLAUSE_TERMS = [
    "x > 0", "\\result", "(a)", "[i]", "{b}", "(c[(i)])",
    # binders, nested or not, and backslash words that are no binders
    "\\forall integer i; ", "\\exists integer j; ", "\\let y = 1; ",
    "\\lambda integer k; ", "\\forallx ", "\\letter ", "\\lambda_",
    # string and char literals with escaped quotes
    '"a;b"', '"\\";"', "'c'", "';'", "'\\''", "'}'", "'{'",
    "@", " ", "\n", "\t", " ", " ", "\x1c",
]
# unbalanced brackets, unterminated literals, stray ';', '*/' and '\'
_BAD_TERMS = ["(", ")", "[", "]", "{", "}", '"', "'", ";", "*/", "\\\\", "\\"]



def _clauses(heads):
    clause = st.builds(
        lambda head, terms, end: head + "".join(terms) + end,
        st.sampled_from(heads * (60 // len(heads)) + _BAD_HEADS),
        st.lists(st.sampled_from(_CLAUSE_TERMS * 10 + _BAD_TERMS), max_size=6),
        st.sampled_from([";"] * 6 + [" ;", ";\n", "", "; @"]))
    return st.lists(clause, min_size=1, max_size=3).map("".join)


_comment_content = st.builds(
    lambda head, body, tail: head + "".join(body) + tail,
    st.sampled_from(["", "@", "@@ ", " @ ", "@ @", "\n@"]),
    st.lists(st.one_of(
        _clauses(_CLAUSE_HEADS),
        _clauses(["assumes "]).map(lambda body: "behavior b:\n  " + body),
        _clauses(_CLAUSE_HEADS[6:]).map(lambda body: "axiomatic A {\n" + body + "}"),
    ), max_size=4),
    st.sampled_from(["", "@", " @ \t", "@@", "\n  @"]))


@settings(max_examples=600, deadline=None)
@given(_comment_content)
def test_clause_split_matches_the_reference(raw):
    content = acsl._blank_decorations(raw)
    assert content == _ref_blank_decorations(raw)
    clauses = _outcome(acsl._split_clauses, content)
    assert clauses == _outcome(_ref_split_clauses, content)
    if isinstance(clauses, list):
        assert ([_outcome(c.text, content) for c in clauses]
                == [_outcome(_ref_clause_text, c, content) for c in clauses])


# --------------------------------------------------------------------------
# layout scan: cost grows linearly with the input
# --------------------------------------------------------------------------

def _large_annotated_program(size: int) -> str:
    """Helpers with a loop, braces in a comment and in a string, and a
    directive every 17th, then an annotated target; at least size bytes."""
    parts = ["#include <limits.h>\n\n/*@ predicate pos(integer v) = v > 0; */\n\n"]
    length = len(parts[0])
    h = 0
    while length < size:
        define = f"#define K_{h} {h}\n" if h % 17 == 0 else ""
        helper = (f"{define}/* helper {h}: a stray brace {{ in a comment */\n"
                  f"static int h{h}(int n) {{\n"
                  f"    int acc = {h % 7};\n"
                  f"    const char *tag = \"h{h}: {{ ; }} // not a comment\";\n"
                  f"    for (int i = 0; i < n; i++) {{\n"
                  f"        acc += (i * {h % 5 + 2}) % 9;\n"
                  f"    }}\n"
                  f"    return acc + (tag[0] == '{{');\n"
                  f"}}\n\n")
        parts.append(helper)
        length += len(helper)
        h += 1
    parts.append("/*@ requires n >= 0;\n    ensures \\result >= 0; */\n"
                 "int target(int n) {\n    int s = 0;\n"
                 "    /*@ loop invariant 0 <= i1 <= n; */\n"
                 "    for (int i1 = 0; i1 < n; i1++) {\n        s += i1;\n    }\n"
                 "    return s;\n}\n")
    return "".join(parts)


def _best_cost(scan, text, times=5):
    """(least process time of `times` scan(text) calls, what the scan returned)"""
    best = float("inf")
    for _ in range(times):
        started = time.process_time()
        result = scan(text)
        best = min(best, time.process_time() - started)
    return best, result


def test_parse_cost_grows_linearly():
    def cost(text):
        best, spec = _best_cost(parse_annotations, text)
        assert len(spec) == 4
        return best

    small = cost(_large_annotated_program(16 * 1024))
    large = cost(_large_annotated_program(128 * 1024))
    assert large <= 12 * small, f"8x the input took {large / small:.1f}x the time"


def test_contract_lookup_cost_grows_linearly_past_pairs_that_open_no_function():
    # every contract comment comes before every struct: the search for the
    # next function reads each struct's braces once per parse, not once per
    # comment
    def cost(n):
        text = ("/*@ requires x > 0; */\n" * n + "struct S { int a; };\n" * n
                + "int f(int x) { return x; }\n")
        best, spec = _best_cost(parse_annotations, text)
        assert [a.anchor for a in spec] == [FunctionContract("f")]
        return best

    small = cost(500)
    large = cost(4000)
    assert large <= 12 * small, f"8x the input took {large / small:.1f}x the time"


def _contracted_program(n: int) -> str:
    """n functions, each with a two-clause contract and an annotated loop."""
    return "".join(
        f"/*@ requires n >= 0;\n    ensures \\result >= 0; */\n"
        f"int f{i}(int n) {{\n    int s = 0;\n"
        f"    /*@ loop invariant 0 <= k <= n; */\n"
        f"    for (int k = 0; k < n; k++) {{ s += k; }}\n    return s;\n}}\n\n"
        for i in range(n))


def test_strip_cost_grows_linearly():
    def cost(n):
        best, bare = _best_cost(strip_annotations, _contracted_program(n), 15)
        assert "/*@" not in bare and bare.count("for (") == n
        return best

    small = cost(125)
    large = cost(1000)
    assert large <= 12 * small, f"8x the input took {large / small:.1f}x the time"


def test_weave_cost_grows_linearly():
    def cost(n):
        text = _contracted_program(n)
        spec = parse_annotations(text)
        best, woven = _best_cost(functools.partial(weave, spec=spec),
                                 strip_annotations(text), 15)
        assert len(spec) == 3 * n and woven.count("/*@") == 2 * n
        return best

    small = cost(125)
    large = cost(1000)
    assert large <= 12 * small, f"8x the input took {large / small:.1f}x the time"


def test_layout_cost_grows_linearly_without_semicolons():
    # each declaration start is found by reading back to the '}' before it
    def cost(size):
        functions = "".join(f"int h{i}(void){{}}\n" for i in range(size // 16))
        text = functions[:size].rpartition("\n")[0]
        best, names = _best_cost(declared_functions, text)
        assert names[0] == "h0" and len(names) == text.count("}")
        return best

    small = cost(16 * 1024)
    large = cost(128 * 1024)
    assert large <= 12 * small, f"8x the input took {large / small:.1f}x the time"


def test_head_cost_grows_linearly_past_parentheses_that_close_nothing():
    # no ')' before a brace closes a '(', so each scan for one reads back to
    # where the last such scan began, not over every group before it
    def cost(n):
        text = ("/*@ requires x > 0; */\n" + "g(x)) {}\n" * n
                + "int f(int x) { return x; }\n")
        best, spec = _best_cost(parse_annotations, text)
        assert [a.anchor for a in spec] == [FunctionContract("f")]
        return best

    small = cost(500)
    large = cost(4000)
    assert large <= 12 * small, f"8x the input took {large / small:.1f}x the time"


@pytest.mark.parametrize("scan", [declared_functions, parse_annotations],
                         ids=lambda scan: scan.__name__)
def test_head_cost_grows_linearly_with_deep_parentheses(scan):
    # a loop clause in every body, so a parse reads every head too
    def cost(n):
        text = "".join(
            f"int h{i}(int a, int (*g)(int (*)(int (*)(int))), int b) {{\n"
            f"    //@ loop invariant a >= 0;\n    while (a) a--;\n    return b;\n}}\n"
            for i in range(n))
        best, found = _best_cost(scan, text)
        assert len(found) == n
        return best

    small = cost(500)
    large = cost(4000)
    assert large <= 12 * small, f"8x the input took {large / small:.1f}x the time"


@pytest.mark.parametrize("line", [
    # '#'s in the middle of the line between each bound and the name
    lambda i: f"a # b # c # d\nint f{i}(void) {{}}\n",
    # one line: every bound lies on it, and so does every name
    lambda i: f"int f{i}(void) {{}}" + " " * 1000,
], ids=["hash-mid-line", "one-line"])
def test_declaration_start_cost_grows_linearly(line):
    def cost(n):
        best, names = _best_cost(declared_functions, "".join(map(line, range(n))))
        assert names == [f"f{i}" for i in range(n)]
        return best

    small = cost(500)
    large = cost(4000)
    assert large <= 12 * small, f"8x the input took {large / small:.1f}x the time"
