"""Deterministic toy scenario shared across tests: a 10-program corpus,
replay-oracle personas derived from it, and mock-verifier failure rules.

Program roles are assigned by sorted-id index:

* index 0, 3, 6, 9  -> the initial proposal contains a bad ensures clause
                       (always failing under the mock rules);
* index 6, CV only  -> additionally proposes a bad lemma;
* index 9           -> repair attempts never drop the bad clause, so the
                       modification paradigm exhausts its budget;
* index 2, CV only  -> proposes no logical construct (non-compliant).

Everything else verifies on the first call.
"""

from __future__ import annotations

from pathlib import Path

from specloop import (
    Annotation,
    ConstructKind,
    FunctionContract,
    Loop,
    Program,
    SpecificationSet,
    weave,
)
from specloop.acsl import declared_functions

BAD_ENSURES = "ensures \\result == 424242;"
BAD_LEMMA = "lemma toy_never: \\forall integer z; z > z;"
ALWAYS_FAILING = (BAD_ENSURES, BAD_LEMMA)

#: toy programs whose body contains a loop
LOOPY = {
    "gauss_sum", "count_even", "collatz_steps", "digit_count",
    "first_index_of", "array_max",
}

CONFIG_NAMES = ("CB", "CV", "CA", "CF")


def toy_annotations(program: Program, config_name: str, *,
                    bad: bool = False, omit_logical: bool = False,
                    bad_lemma: bool = False) -> SpecificationSet:
    """Deterministic specification set for a toy program under a config."""
    name = declared_functions(program.source)[-1]
    fn = FunctionContract(name)
    anns = [
        Annotation(ConstructKind.REQUIRES, "requires \\true;", fn),
        Annotation(ConstructKind.ENSURES,
                   "ensures \\result >= 0 || \\result < 0;", fn),
        Annotation(ConstructKind.ASSIGNS, "assigns \\nothing;", fn),
    ]
    if program.id in LOOPY:
        loop = Loop(name, 1)
        anns += [
            Annotation(ConstructKind.LOOP_INVARIANT, "loop invariant \\true;", loop),
            Annotation(ConstructKind.LOOP_ASSIGNS, "loop assigns \\nothing;", loop),
        ]
    if not omit_logical:
        if config_name == "CV":
            anns += [
                Annotation(ConstructKind.PREDICATE,
                           f"predicate ok_{program.id}(integer x) = x == x;"),
                Annotation(ConstructKind.LOGIC,
                           f"logic integer id_{program.id}(integer x) = x;"),
                Annotation(ConstructKind.LEMMA,
                           f"lemma keep_{program.id}: \\forall integer x; "
                           f"id_{program.id}(x) == x;"),
            ]
        elif config_name == "CA":
            anns += [
                Annotation(ConstructKind.LOGIC,
                           f"logic integer model_{program.id}(integer x);"),
                Annotation(ConstructKind.AXIOM,
                           f"axiom fix_{program.id}: \\forall integer x; "
                           f"model_{program.id}(x) == x;"),
            ]
        elif config_name == "CF":
            anns += [
                Annotation(ConstructKind.LEMMA,
                           f"lemma keep_{program.id}: \\forall integer x; x == x;"),
                Annotation(ConstructKind.LOGIC,
                           f"logic integer model_{program.id}(integer x);"),
                Annotation(ConstructKind.AXIOM,
                           f"axiom fix_{program.id}: \\forall integer x; "
                           f"model_{program.id}(x) == x;"),
            ]
    if bad:
        anns.append(Annotation(ConstructKind.ENSURES, BAD_ENSURES, fn))
    if bad_lemma:
        anns.append(Annotation(ConstructKind.LEMMA, BAD_LEMMA))
    return SpecificationSet(anns)


def toy_completion(program: Program, spec: SpecificationSet) -> str:
    woven = weave(program.source, spec)
    return (
        f"Here is the annotated program for {program.id}:\n\n"
        f"```c\n{woven}\n```\n"
    )


def roles(corpus: list[Program]) -> dict[str, dict[str, bool]]:
    """Per-program scenario flags, keyed by program id."""
    out = {}
    for index, program in enumerate(sorted(corpus, key=lambda p: p.id)):
        out[program.id] = {
            "bad": index % 3 == 0,
            "never_fixed": index == 9,
            "index": index,
        }
    return out


def build_persona(root: Path, corpus: list[Program],
                  configs=CONFIG_NAMES, max_iters: int = 5) -> Path:
    """Write a complete replay-oracle fixture tree for the toy scenario."""
    flags = roles(corpus)
    for program in corpus:
        info = flags[program.id]
        for config_name in configs:
            cell_dir = root / program.id / config_name
            cell_dir.mkdir(parents=True, exist_ok=True)
            omit_logical = config_name == "CV" and info["index"] == 2
            bad_lemma = config_name == "CV" and info["index"] == 6
            initial = toy_annotations(
                program, config_name, bad=info["bad"],
                omit_logical=omit_logical, bad_lemma=bad_lemma)
            (cell_dir / "generate-0.txt").write_text(
                toy_completion(program, initial), encoding="utf-8")
            if info["bad"] or bad_lemma:
                fixed = toy_annotations(program, config_name,
                                        bad=info["never_fixed"],
                                        omit_logical=omit_logical)
                for attempt in range(1, max_iters + 1):
                    (cell_dir / f"repair-{attempt}.txt").write_text(
                        toy_completion(program, fixed), encoding="utf-8")
    return root
