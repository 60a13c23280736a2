"""Drive complete guess-verify-refine runs with a scripted oracle and the
rule-based mock verifier, comparing the two refinement paradigms on a
specification that starts out partially wrong.

Run from the repository root:  python3 demos/03_refinement_loop.py
"""

from specloop import (
    Annotation,
    ConstructKind,
    FunctionContract,
    Loop,
    MockVerifier,
    Paradigm,
    RunLimits,
    ScriptedOracle,
    SpecificationSet,
    canonical_config,
    run_once,
    weave,
)
from specloop.refine import RunLogger

K = ConstructKind


class Count:
    id = "count"
    source = (
        "int count(int n) {\n"
        "  int c = 0;\n"
        "  while (n > 0) { n--; c++; }\n"
        "  return c;\n"
        "}\n"
    )


FN = FunctionContract("count")
LOOP = Loop("count", 1)
BAD = "ensures \\result == n - 1;"  # wrong by one: the mock marks it failing

initial = SpecificationSet([
    Annotation(K.REQUIRES, "requires n >= 0;", FN),
    Annotation(K.ENSURES, "ensures \\result >= 0;", FN),
    Annotation(K.ENSURES, BAD, FN),
    Annotation(K.LOOP_INVARIANT, "loop invariant c >= 0;", LOOP),
    Annotation(K.LOOP_ASSIGNS, "loop assigns n, c;", LOOP),
])
fixed = initial.without([a for a in initial if a.text == BAD])


def oracle_script(request):
    spec = initial if request.attempt_index == 0 else fixed
    return f"```c\n{weave(Count.source, spec)}\n```"


oracle = ScriptedOracle(oracle_script)

for paradigm in (Paradigm.DELETION, Paradigm.MODIFICATION):
    print(f"=== {paradigm.name.lower()} paradigm ===")
    verifier = MockVerifier(always_failing=[BAD])
    logger = RunLogger()
    record = run_once(Count(), canonical_config("CB"), paradigm, oracle,
                      verifier, RunLimits(max_repair_iterations=5),
                      logger=logger)
    for call in logger.close():
        print(f"call {call['attempt']}: {call['status']} "
              f"{call['goals_proved']}/{call['goals_total']} goals proved, "
              f"{call['spec_size']} annotations")
    print(f"outcome={record.outcome.value} tool_calls={record.tool_calls} "
          f"iterations={record.iterations} compliant={record.compliant}")
    print("final specification:")
    for ann in record.final_spec:
        print(f"  {ann.text}")
    print()
