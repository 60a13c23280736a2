"""Hypothesis strategies shared by the property tests. Kept apart from
`toyworld`, which the demos import without the test dependencies.

`completions` draws adversarial oracle completions for the properties that
must hold whatever an oracle returns; `annotations` and `specs` draw
annotation values of every kind, with and without declared names, and
`respanned` copies them to other spans;
`wp_outputs` draws console output in the formats Frama-C/WP prints.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import strategies as st

from specloop import (
    GLOBAL,
    LOGICAL_CONSTRUCTS,
    Annotation,
    ConstructKind,
    FunctionContract,
    Loop,
    SourceSpan,
    SpecificationSet,
)

COMPLETION_CLAUSES = [
    "requires x >= 0;", "ensures \\result >= 0;", "assigns \\nothing;",
    "behavior b: assumes x > 0; ensures \\result > 0;", "decreases x;",
    "assert x > 0;", "requires x >= 0", "ensures", ";", "@", "{", "}",
    "*/", "/*@", "predicate p(integer v) = v > 0;", "lemma l: p(1);",
    "axiomatic A { axiom a: \\true; }", "axiomatic A {",
    "loop invariant 0 <= x;", "loop variant x;",
    "ensures \\result >= 0 */ ;",
]


@st.composite
def completions(draw):
    """Arbitrary text, or a fenced program whose `/*@` comment or `//@` line
    holds drawn clauses, valid or not, with one more character spliced in."""
    if draw(st.booleans()):
        return draw(st.text(max_size=60))
    clauses = " ".join(draw(st.lists(st.sampled_from(COMPLETION_CLAUSES),
                                      max_size=4)))
    comment = f"/*@ {clauses} */" if draw(st.booleans()) else f"//@ {clauses}"
    text = (f"```c\n{comment}\nint f(int x) {{\n"
            f"  while (x > 0) {{ x--; }}\n  return x;\n}}\n```")
    at = draw(st.integers(0, len(text)))
    # any code point, and often a lone surrogate, which a JSON reply's
    # `\ud800` escape decodes to
    spliced = draw(st.text(st.characters(blacklist_categories=())
                           | st.sampled_from(["\ud800", "\udfff"]), max_size=1))
    return text[:at] + spliced + text[at:]


#: declared names, some of them parts of others, and what may follow one
_NAMES = ["f", "fact", "first_fact", "second_fact", "typed_f", "L2", "pos"]
_AFTER_NAME = [":", " :", "(integer n) = n;", "{L}(integer n)", " ", ""]
_BODIES = ["\\true;", "x >= 0;", "\\result == fact(n);", "assumes x > 0;",
           "MARK", "MARKER;", " "]


@st.composite
def annotations(draw):
    """An annotation of any kind on an anchor its kind allows. Its text is
    the kind's keyword, perhaps a type and a declared name, and a body, so
    a named kind may declare a name or not."""
    kind = draw(st.sampled_from(ConstructKind))
    if kind in LOGICAL_CONSTRUCTS:
        anchor = GLOBAL
    elif kind.keyword.startswith("loop"):
        anchor = Loop(draw(st.sampled_from(["f", "fact"])), draw(st.integers(1, 3)))
    else:
        anchor = FunctionContract(draw(st.sampled_from(["f", "fact"])))
    text = "".join([
        draw(st.sampled_from(["", " ", "\n"])), kind.keyword,
        draw(st.sampled_from([" ", "  ", " integer "])),
        draw(st.sampled_from(["", *_NAMES])),
        draw(st.sampled_from(_AFTER_NAME)),
        draw(st.sampled_from(_BODIES) | st.text(max_size=6)),
    ])
    return Annotation(kind, text, anchor, draw(spans()))


def spans():
    return st.builds(lambda line, extra: SourceSpan("s.c", line, line + extra),
                     st.integers(1, 40), st.integers(0, 3))


def specs():
    return st.lists(annotations(), max_size=8).map(SpecificationSet)


@st.composite
def respanned(draw, annotations):
    """Copies of some of `annotations`, each perhaps more than once, with
    spans drawn anew: values equal to the originals in other objects."""
    if not annotations:
        return []
    picks = draw(st.lists(st.sampled_from(tuple(annotations)), max_size=10))
    return [replace(a, span=draw(spans())) for a in picks]


#: every status word WP prints, and goal names built on the declared names
#: above; the pool is small, so several lines report the same goal
_WP_WORDS = ["Valid", "Unsuccess", "Timeout", "Unknown", "Failed", "Stuck"]
_WP_GOALS = ["typed_f_ensures", "typed_fact_assigns", "typed_lemma_fact",
             "typed_lemma_first_fact", "typed_L2_requires", "typed_pos"]


def wp_outputs():
    """Lines WP prints (bracket and prover lines for every status word,
    goal blocks with and without a location, prover verdicts, summaries
    with any counts), mixed with arbitrary text, joined by newlines."""
    word = st.sampled_from(_WP_WORDS)
    goal = st.sampled_from(_WP_GOALS)
    place = st.builds(str.format, st.sampled_from(
        ["", " (file woven.c, line {})", " (file woven.c, line {}) in 'f'"]),
        st.integers(0, 45))
    line = st.one_of(
        st.builds("[wp] [{}] {} (Alt-Ergo)".format, word, goal),
        st.builds("[wp] [Alt-Ergo] Goal {} : {} (12ms)".format, goal, word),
        st.builds("Goal {}{}:".format,
                  st.sampled_from(["Post-condition", "Lemma fact", "Loop assigns pos",
                                   *_WP_GOALS]), place),
        st.just("Prove: true."),
        st.builds("Prover Alt-Ergo returns {}".format, word | st.just("garbage")),
        st.builds("[wp] Proved goals: {} / {}".format, st.integers(0, 9), st.integers(0, 9)),
        st.text(max_size=20),
    )
    return st.lists(line, max_size=16).map("\n".join)
