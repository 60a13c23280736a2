"""Seeded generator of benchmark corpora, replay fixtures and predictions.

For one seed it writes a corpus laid out as ``<root>/<category>/<id>.c`` and
a replay-oracle persona ``<persona>/<id>/<config>/<phase>-<attempt>.txt``.
Completions are rendered here, by inserting annotation comments at slots the
generator placed in the C text itself; nothing in specloop is used to build
the inputs or to predict the results.

Every (program, configuration) cell gets a plan: the clauses of the initial
proposal, which of them were planted as bad, and on which repair attempt the
oracle hands back a clean set (or never). A planted clause is bad because its
text contains ``MARKER``, which the mock verifier and the stub ``frama-c``
both reject, so the outcome and the verifier-call count of every run follow
from the plan alone (``Prediction``).

The mix is stratified rather than drawn independently per cell, so the total
work of a grid is nearly the same for every seed: exactly ``BAD_SHARE`` of
the cells are bad, and the repair attempt that fixes them cycles through
1..5 and "never".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

#: substring that makes a clause fail under both verifiers of the benchmark
MARKER = "bad_witness"
CONFIGS = ("CB", "CV", "CA", "CF")
#: specloop's default ``RunLimits.max_repair_iterations``
MAX_REPAIRS = 5
#: share of (program, config) cells whose initial proposal has a bad clause;
#: with the fix attempts below this gives about 2.6 verifier calls per run,
#: inside the 2.1-4.9 range of the paper's NVTC column per program
BAD_SHARE = 0.75
#: repair attempt at which modification gets a clean set; None = never
FIX_ATTEMPTS = (1, 2, 3, 4, 5, None)
#: share of CB/CV/CA cells whose proposal breaks the configuration
NONCOMPLIANT_SHARE = 0.08

_BASIC = frozenset({"requires", "ensures", "assigns", "loop invariant",
                    "loop variant", "loop assigns", "behavior"})
_PERMITTED = {
    "CB": _BASIC,
    "CV": _BASIC | {"predicate", "logic", "lemma"},
    "CA": _BASIC | {"predicate", "logic", "axiom"},
    "CF": _BASIC | {"predicate", "logic", "lemma", "axiom"},
}
_MANDATORY = {"CV": frozenset({"predicate", "logic", "lemma"}),
              "CA": frozenset({"axiom"})}

SHAPES = ("straight", "for", "while", "do_while", "two_loops")
_LOOPS = {"straight": 0, "for": 1, "while": 1, "do_while": 1, "two_loops": 2}


@dataclass(frozen=True)
class Clause:
    kind: str      # ACSL keyword(s): "requires", "loop invariant", ...
    text: str      # one line, terminated by ';' (behavior: header + assumes)
    where: str     # "global", "contract" or "loop<j>"

    @property
    def bad(self) -> bool:
        return MARKER in self.text


@dataclass
class ProgramPlan:
    id: str
    category: str
    parts: list  # str pieces and slot names ("global", "contract", "loop<j>")
    loops: int

    def bare(self) -> str:
        return "".join(p for p in self.parts if not _is_slot(p))

    def annotated(self, clauses: list[Clause]) -> str:
        out = []
        for part in self.parts:
            if _is_slot(part):
                out.append(_render_slot(part, [c for c in clauses if c.where == part]))
            else:
                out.append(part)
        return "".join(out)


def _is_slot(part: str) -> bool:
    return part in ("global", "contract") or part.startswith("loop")


def _render_slot(slot: str, clauses: list[Clause]) -> str:
    if not clauses:
        return ""
    if slot == "global":
        if any(c.kind == "axiom" for c in clauses):
            body = "\n".join(f"  {c.text}" for c in clauses)
            return f"/*@ axiomatic Model {{\n{body}\n  }} */\n"
        return "".join(f"/*@ {c.text} */\n" for c in clauses)
    if slot == "contract":
        return "/*@ " + "\n  @ ".join(c.text for c in clauses) + "\n  @*/\n"
    body = "\n        ".join(c.text for c in clauses)
    return f"/*@ {body} */\n    "


@dataclass(frozen=True)
class CellPlan:
    initial: tuple[Clause, ...]
    repairs: tuple[tuple[Clause, ...], ...]   # repair-1, repair-2, ...
    fix_attempt: int | None                   # None: never; 0: clean proposal


@dataclass
class Expected:
    outcome: str        # RunOutcome value: "Verified" / "Exhausted"
    tool_calls: int
    iterations: int
    compliant: bool
    final_size: int


@dataclass
class Prediction:
    """Per (program id, config, paradigm value) expected record fields."""
    cells: dict

    def mismatches(self, record) -> list[str]:
        """Fields of a RunRecord that differ from the prediction."""
        key = (record.program_id, record.config_name, record.paradigm.value)
        want = self.cells.get(key)
        if want is None:
            return [f"unexpected cell {key}"]
        got = Expected(record.outcome.value, record.tool_calls,
                       record.iterations, record.compliant,
                       len(record.final_spec))
        return [f"{key} r{record.run_index} {name}: got {getattr(got, name)!r}, "
                f"predicted {getattr(want, name)!r}"
                for name in ("outcome", "tool_calls", "iterations",
                             "compliant", "final_size")
                if getattr(got, name) != getattr(want, name)]

    def cell_summary(self, config: str, paradigm: str) -> dict:
        """Predicted NVP / NVTC / CSCCR of one report cell (all runs of a
        cell replay the same fixtures, so they agree)."""
        rows = [e for (_, c, p), e in self.cells.items()
                if c == config and p == paradigm]
        return {
            "nvp": sum(1 for e in rows if e.outcome == "Verified"),
            "nvtc": round(sum(e.tool_calls for e in rows), 4),
            "csccr": round(sum(1 for e in rows if e.compliant) / len(rows), 4),
        }

    def calls_per_run(self) -> float:
        return sum(e.tool_calls for e in self.cells.values()) / len(self.cells)


# --------------------------------------------------------------------------
# C programs
# --------------------------------------------------------------------------

def _small_helper(rng: random.Random, name: str) -> str:
    a, b = rng.randint(2, 9), rng.randint(1, 50)
    return (f"static int {name}(int x) {{\n"
            f"    return x * {a} - {b};\n"
            f"}}\n\n")


def _large_helper(rng: random.Random, name: str, index: int) -> str:
    """A helper with a loop, a comment holding braces and a string holding
    braces and semicolons, so the lexer and layout scan see real text."""
    a, b = rng.randint(2, 9), rng.randint(1, 99)
    loop = rng.choice(("for", "while"))
    if loop == "for":
        body = (f"    for (int i = 0; i < n; i++) {{\n"
                f"        acc += (i * {a}) % {b + 1};\n"
                f"    }}\n")
    else:
        body = (f"    int i = n;\n"
                f"    while (i > 0) {{\n"
                f"        acc ^= i + {b};\n"
                f"        i = i - 1;\n"
                f"    }}\n")
    define = f"#define K_{name.upper()} {b}\n" if index % 17 == 0 else ""
    return (f"{define}/* helper {index}: folds 0..n into acc; a stray brace {{ "
            f"in a comment is ignored */\n"
            f"static int {name}(int n) {{\n"
            f"    int acc = {a};\n"
            f"    const char *tag = \"{name}: {{ ; }} // not a comment\";\n"
            f"{body}"
            f"    return acc + (tag[0] == '{{');\n"
            f"}}\n\n")


def _target(rng: random.Random, name: str, shape: str) -> list:
    a, b = rng.randint(2, 9), rng.randint(1, 50)
    head = ["contract", f"int {name}(int n) {{\n"]
    if shape == "straight":
        return head + [f"    int r = n * {a} + {b};\n"
                       "    if (r < 0) {\n        r = -r;\n    }\n"
                       "    return r;\n}\n"]
    if shape == "for":
        return head + ["    int s = 0;\n    ", "loop1",
                       f"for (int i1 = 0; i1 < n; i1++) {{\n"
                       f"        s += i1 % {a};\n    }}\n"
                       "    return s;\n}\n"]
    if shape == "while":
        return head + [f"    int i1 = 0;\n    int s = {b};\n    ", "loop1",
                       f"while (i1 < n) {{\n        s = s + {a};\n"
                       f"        i1 = i1 + 1;\n    }}\n"
                       "    return s;\n}\n"]
    if shape == "do_while":
        return head + ["    int i1 = 0;\n    int s = 0;\n    ", "loop1",
                       f"do {{\n        s += {a};\n        i1++;\n"
                       f"    }} while (i1 < n);\n"
                       "    return s;\n}\n"]
    return head + ["    int s = 0;\n    ", "loop1",
                   f"for (int i1 = 0; i1 < n; i1++) {{\n"
                   f"        s += i1;\n    }}\n"
                   f"    int i2 = n;\n    ", "loop2",
                   f"while (i2 > 0) {{\n        s -= {a};\n"
                   f"        i2--;\n    }}\n"
                   "    return s;\n}\n"]


def small_program(rng: random.Random, index: int, shape: str) -> ProgramPlan:
    pid = f"p{index:03d}_{shape}"
    parts: list = [f"/* generated program {pid} */\n#include <limits.h>\n\n",
                   "global"]
    for h in range(rng.randint(0, 2)):
        parts.append(_small_helper(rng, f"{pid}_h{h}"))
    parts += _target(rng, pid, shape)
    return ProgramPlan(pid, shape, parts, _LOOPS[shape])


def large_program(rng: random.Random, index: int, size: int,
                  shape: str = "two_loops") -> ProgramPlan:
    """A program of at least `size` bytes: helpers first, target last."""
    pid = f"big{index:02d}_{size // 1024}k"
    parts: list = [f"/* generated program {pid} */\n#include <limits.h>\n\n",
                   "global"]
    length = sum(len(p) for p in parts if not _is_slot(p))
    h = 0
    while length < size:
        helper = _large_helper(rng, f"{pid}_h{h}", h)
        parts.append(helper)
        length += len(helper)
        h += 1
    parts += _target(rng, pid, shape)
    return ProgramPlan(pid, "large", parts, _LOOPS[shape])


# --------------------------------------------------------------------------
# Specifications
# --------------------------------------------------------------------------

def clean_clauses(p: ProgramPlan, config: str) -> list[Clause]:
    """The set an oracle proposes when it gets everything right."""
    t = p.id
    logical = config in ("CV", "CF")
    out = [Clause("requires", f"requires inrange_{t}(n);" if logical
                  else "requires 0 <= n <= 1000;", "contract"),
           Clause("ensures", "ensures \\result >= INT_MIN;", "contract"),
           Clause("assigns", "assigns \\nothing;", "contract")]
    for j in range(1, p.loops + 1):
        where = f"loop{j}"
        out += [Clause("loop invariant", f"loop invariant 0 <= i{j} <= n;", where),
                Clause("loop assigns", f"loop assigns i{j}, s;", where),
                Clause("loop variant", f"loop variant n - i{j};", where)]
    if logical:
        out += [Clause("predicate",
                       f"predicate inrange_{t}(integer x) = 0 <= x <= 1000;", "global"),
                Clause("logic", f"logic integer twice_{t}(integer x) = 2 * x;", "global"),
                Clause("lemma", f"lemma twice_mono_{t}: \\forall integer x, y; "
                       f"x <= y ==> twice_{t}(x) <= twice_{t}(y);", "global")]
    if config in ("CA", "CF"):
        out += [Clause("logic", f"logic integer model_{t}(integer x);", "global"),
                Clause("axiom", f"axiom model_def_{t}: \\forall integer x; "
                       f"model_{t}(x) == x;", "global")]
    if config == "CF":
        out.append(Clause("behavior", f"behavior small_{t}: assumes n < 10;",
                          "contract"))
    return out


def _noncompliant(p: ProgramPlan, config: str, clauses: list[Clause]) -> list[Clause]:
    t = p.id
    if config == "CB":   # a forbidden predicate
        return clauses + [Clause("predicate",
                                 f"predicate small_{t}(integer x) = x < 10;", "global")]
    if config == "CV":   # the mandatory logic constructs are missing
        return [c for c in clauses if c.where != "global"] + [
            Clause("requires", "requires n <= 1000;", "contract")]
    if config == "CA":   # a forbidden lemma
        return clauses + [Clause("lemma", f"lemma model_fix_{t}: \\forall integer x; "
                                 f"model_{t}(x) == x;", "global")]
    raise ValueError(f"no non-compliant variant for {config}")


def _bad_kinds(p: ProgramPlan, config: str) -> list[str]:
    kinds = ["ensures"]
    if p.loops:
        kinds += ["invariant", "ensures+invariant"]
    if config in ("CV", "CF"):
        kinds.append("predicate")
    return kinds


def plant(rng: random.Random, p: ProgramPlan, config: str,
          clauses: list[Clause], kind: str) -> list[Clause]:
    """Add the bad clauses of one planted case to a proposal."""
    t = p.id
    out = list(clauses)
    if kind in ("ensures", "ensures+invariant"):
        out.append(Clause("ensures", f"ensures \\result == {MARKER} + {rng.randint(1, 99)};",
                          "contract"))
    if kind in ("invariant", "ensures+invariant"):
        j = rng.randint(1, p.loops)
        out.append(Clause("loop invariant", f"loop invariant i{j} <= {MARKER};",
                          f"loop{j}"))
    if kind == "predicate":
        # the lemma is sound on its own but names the bad predicate, so
        # deletion removes it through dependent closure
        out += [Clause("predicate", f"predicate tight_{t}(integer x) = x < {MARKER};",
                       "global"),
                Clause("lemma", f"lemma tight_step_{t}: \\forall integer x; "
                       f"tight_{t}(x) ==> tight_{t}(x - 1);", "global")]
    return out


def _repair_wrong(p: ProgramPlan, config: str, attempt: int) -> tuple[Clause, ...]:
    return tuple(clean_clauses(p, config)) + (
        Clause("ensures", f"ensures \\result == {MARKER} - {attempt};", "contract"),)


def _stratified(rng: random.Random, n: int, share: float) -> list[bool]:
    hits = round(n * share)
    flags = [True] * hits + [False] * (n - hits)
    rng.shuffle(flags)
    return flags


def plan_cells(rng: random.Random, programs: list[ProgramPlan]) -> dict:
    cells = [(p, c) for p in programs for c in CONFIGS]
    bad = _stratified(rng, len(cells), BAD_SHARE)
    restricted = [i for i, (_, c) in enumerate(cells) if c != "CF"]
    nc_flags = _stratified(rng, len(restricted), NONCOMPLIANT_SHARE)
    noncompliant = {i for i, f in zip(restricted, nc_flags) if f}
    fixes = [FIX_ATTEMPTS[i % len(FIX_ATTEMPTS)] for i in range(sum(bad))]
    rng.shuffle(fixes)

    plans = {}
    for i, (p, config) in enumerate(cells):
        clauses = clean_clauses(p, config)
        if i in noncompliant:
            clauses = _noncompliant(p, config, clauses)
        if not bad[i]:
            plans[(p.id, config)] = CellPlan(tuple(clauses), (), 0)
            continue
        kind = rng.choice(_bad_kinds(p, config))
        initial = tuple(plant(rng, p, config, clauses, kind))
        fix = fixes.pop()
        last = fix if fix is not None else MAX_REPAIRS
        repairs = tuple(
            tuple(clean_clauses(p, config)) if attempt == fix
            else _repair_wrong(p, config, attempt)
            for attempt in range(1, last + 1))
        plans[(p.id, config)] = CellPlan(initial, repairs, fix)
    return plans


# --------------------------------------------------------------------------
# Prediction (from the plan only)
# --------------------------------------------------------------------------

def _compliant(clauses, config: str) -> bool:
    used = {c.kind for c in clauses}
    mandatory = _MANDATORY.get(config, frozenset())
    return used <= _PERMITTED[config] and (not mandatory or bool(used & mandatory))


def _declared(c: Clause) -> str:
    head = c.text.split("(", 1)[0].split(":", 1)[0].split()
    return head[-1]


def predict(plans: dict) -> dict:
    out = {}
    for (pid, config), plan in plans.items():
        initial = plan.initial
        compliant = _compliant(initial, config)
        bad = [c for c in initial if c.bad]
        if not bad:
            for paradigm in ("delete", "modify"):
                out[(pid, config, paradigm)] = Expected(
                    "Verified", 1, 0, compliant, len(initial))
            continue
        # deletion: every failing goal maps to its clause and goes in one
        # step, with the lemmas and axioms naming a removed predicate
        gone = {c.text for c in bad}
        names = {_declared(c) for c in bad if c.kind in ("predicate", "logic")}
        for c in initial:
            if c.kind in ("lemma", "axiom") and any(
                    f"{n}(" in c.text for n in names):
                gone.add(c.text)
        left = [c for c in initial if c.text not in gone]
        if not any(c.kind != "axiom" for c in left):
            raise ValueError(f"{pid}/{config}: deletion would leave no goal")
        out[(pid, config, "delete")] = Expected("Verified", 2, 1, compliant, len(left))
        if plan.fix_attempt is None:
            out[(pid, config, "modify")] = Expected(
                "Exhausted", MAX_REPAIRS + 1, MAX_REPAIRS, compliant,
                len(plan.repairs[-1]))
        else:
            k = plan.fix_attempt
            out[(pid, config, "modify")] = Expected(
                "Verified", k + 1, k, compliant, len(plan.repairs[k - 1]))
    return out


# --------------------------------------------------------------------------
# Writing a workload to disk
# --------------------------------------------------------------------------

def completion(p: ProgramPlan, clauses) -> str:
    return (f"Here is the annotated program for {p.id}:\n\n"
            f"```c\n{p.annotated(list(clauses))}```\n")


def write(root: Path, programs: list[ProgramPlan], plans: dict) -> Prediction:
    """Write corpus/ and persona/ under root; return the prediction."""
    for p in programs:
        path = root / "corpus" / p.category / f"{p.id}.c"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(p.bare(), encoding="utf-8")
    by_id = {p.id: p for p in programs}
    for (pid, config), plan in plans.items():
        cell = root / "persona" / pid / config
        cell.mkdir(parents=True, exist_ok=True)
        (cell / "generate-0.txt").write_text(
            completion(by_id[pid], plan.initial), encoding="utf-8")
        for attempt, clauses in enumerate(plan.repairs, start=1):
            (cell / f"repair-{attempt}.txt").write_text(
                completion(by_id[pid], clauses), encoding="utf-8")
    return Prediction(predict(plans))


def small_corpus(rng: random.Random, count: int) -> list[ProgramPlan]:
    """`count` small programs, shapes in equal shares (with and without loops)."""
    shapes = [SHAPES[i % len(SHAPES)] for i in range(count)]
    rng.shuffle(shapes)
    return [small_program(rng, i, shape) for i, shape in enumerate(shapes)]


def large_corpus(rng: random.Random, sizes) -> list[ProgramPlan]:
    return [large_program(rng, i, size) for i, size in enumerate(sizes)]
