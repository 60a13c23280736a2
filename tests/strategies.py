"""Hypothesis strategies shared by the property tests. Kept apart from
`toyworld`, which the demos import without the test dependencies.

`completions` draws adversarial oracle completions for the properties that
must hold whatever an oracle returns.
"""

from __future__ import annotations

from hypothesis import strategies as st

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
    return text[:at] + draw(st.text(max_size=1)) + text[at:]
