"""ACSL annotation model: parse annotations out of C source, classify them,
and weave them back in.

Only clause heads are interpreted; clause bodies are carried as opaque text
(the external verifier owns their semantics). Eleven construct kinds are
supported; any other clause keyword raises ClassificationError.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Sequence, Union

from .errors import AnchorNotFound, ClassificationError, MalformedAnnotation


class ConstructKind(Enum):
    REQUIRES = "requires"
    ENSURES = "ensures"
    ASSIGNS = "assigns"
    LOOP_INVARIANT = "loop invariant"
    LOOP_VARIANT = "loop variant"
    LOOP_ASSIGNS = "loop assigns"
    BEHAVIOR = "behavior"
    PREDICATE = "predicate"
    LOGIC = "logic"
    LEMMA = "lemma"
    AXIOM = "axiom"

    @property
    def keyword(self) -> str:
        """The ACSL keyword that heads clauses of this kind."""
        return self.value


#: Constructs describing direct input/output and loop properties.
BASIC_CONSTRUCTS = frozenset({
    ConstructKind.REQUIRES,
    ConstructKind.ENSURES,
    ConstructKind.ASSIGNS,
    ConstructKind.LOOP_INVARIANT,
    ConstructKind.LOOP_VARIANT,
    ConstructKind.LOOP_ASSIGNS,
    ConstructKind.BEHAVIOR,
})

#: Constructs raising the abstraction level of specifications.
LOGICAL_CONSTRUCTS = frozenset({
    ConstructKind.PREDICATE,
    ConstructKind.LOGIC,
    ConstructKind.LEMMA,
    ConstructKind.AXIOM,
})

ALL_CONSTRUCTS = BASIC_CONSTRUCTS | LOGICAL_CONSTRUCTS

#: Logical constructs that live inside an axiomatic block.
AXIOMATIC_CONSTRUCTS = frozenset({
    ConstructKind.PREDICATE,
    ConstructKind.LOGIC,
    ConstructKind.AXIOM,
})

_LOOP_KINDS = frozenset({
    ConstructKind.LOOP_INVARIANT,
    ConstructKind.LOOP_VARIANT,
    ConstructKind.LOOP_ASSIGNS,
})

_CONTRACT_KINDS = frozenset({
    ConstructKind.REQUIRES,
    ConstructKind.ENSURES,
    ConstructKind.ASSIGNS,
    ConstructKind.BEHAVIOR,
})

_SIMPLE_KEYWORDS = {
    "requires": ConstructKind.REQUIRES,
    "ensures": ConstructKind.ENSURES,
    "assigns": ConstructKind.ASSIGNS,
    "predicate": ConstructKind.PREDICATE,
    "logic": ConstructKind.LOGIC,
    "lemma": ConstructKind.LEMMA,
    "axiom": ConstructKind.AXIOM,
}

_LOOP_KEYWORDS = {
    "invariant": ConstructKind.LOOP_INVARIANT,
    "variant": ConstructKind.LOOP_VARIANT,
    "assigns": ConstructKind.LOOP_ASSIGNS,
}


def classify_construct(clause_keyword: Union[str, Sequence[str]]) -> ConstructKind:
    """Map the keyword tokens heading a clause to its construct kind.

    Accepts a string ("loop invariant") or a token sequence
    (("loop", "invariant")). Raises ClassificationError for any keyword
    outside the eleven supported kinds (ghost, assert, terminates, ...).
    """
    if not isinstance(clause_keyword, str):
        clause_keyword = " ".join(clause_keyword)
    tokens = clause_keyword.split()
    if len(tokens) == 1 and tokens[0] in _SIMPLE_KEYWORDS:
        return _SIMPLE_KEYWORDS[tokens[0]]
    if len(tokens) == 2 and tokens[0] == "loop" and tokens[1] in _LOOP_KEYWORDS:
        return _LOOP_KEYWORDS[tokens[1]]
    if tokens == ["behavior"]:
        return ConstructKind.BEHAVIOR
    raise ClassificationError(f"not a supported construct keyword: {clause_keyword!r}")


# --------------------------------------------------------------------------
# Domain values
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceSpan:
    file: str
    start_line: int
    end_line: int

    def __post_init__(self) -> None:
        if self.start_line < 1 or self.end_line < self.start_line:
            raise ValueError(f"invalid span {self.start_line}..{self.end_line}")

    def contains_line(self, line: int) -> bool:
        return self.start_line <= line <= self.end_line


#: Span used for annotations constructed in memory rather than parsed.
UNPLACED = SourceSpan("<unplaced>", 1, 1)


@dataclass(frozen=True)
class FunctionContract:
    """Anchor for requires/ensures/assigns/behavior clauses of a function."""
    function: str


@dataclass(frozen=True)
class Loop:
    """Anchor for loop clauses: ordinal counts for/while/do statements in
    textual order within the function, starting at 1."""
    function: str
    ordinal: int


@dataclass(frozen=True)
class Global:
    """Anchor for file-scope logic declarations."""


GLOBAL = Global()

Anchor = Union[FunctionContract, Loop, Global]


@dataclass(frozen=True)
class Annotation:
    kind: ConstructKind
    text: str
    anchor: Anchor = GLOBAL
    span: SourceSpan = UNPLACED

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("annotation text must be non-empty")
        if self.kind in LOGICAL_CONSTRUCTS and not isinstance(self.anchor, Global):
            raise ValueError(f"{self.kind.keyword} annotations must be global")
        if self.kind in _LOOP_KINDS and not isinstance(self.anchor, Loop):
            raise ValueError(f"{self.kind.keyword} annotations must anchor to a loop")
        if self.kind in _CONTRACT_KINDS and not isinstance(self.anchor, FunctionContract):
            raise ValueError(f"{self.kind.keyword} annotations must anchor to a function")

    def key(self) -> tuple:
        """Identity triple; spans are deliberately excluded."""
        return (self.kind, self.text, self.anchor)

    def declared_name(self) -> str | None:
        """Name introduced by a named construct (lemma foo:, predicate p(...),
        logic integer f(...), axiom a:, behavior b:), if any."""
        return _declared_name(self.kind, self.text)


_NAME_AFTER_KEYWORD = re.compile(r"^\s*(\w+)")


def _declared_name(kind: ConstructKind, text: str) -> str | None:
    body = text.strip()
    if kind in (ConstructKind.LEMMA, ConstructKind.AXIOM, ConstructKind.PREDICATE,
                ConstructKind.BEHAVIOR):
        rest = body[len(kind.keyword):]
        m = _NAME_AFTER_KEYWORD.match(rest)
        return m.group(1) if m else None
    if kind is ConstructKind.LOGIC:
        # logic <type> <name>{labels}(...) — last identifier before '(',
        # ignoring label braces
        head = re.sub(r"\{[^}]*\}", "", body.split("(", 1)[0])
        idents = re.findall(r"\w+", head)
        return idents[-1] if len(idents) >= 2 else None
    return None


class SpecificationSet:
    """Ordered, duplicate-free collection of annotations.

    Duplicates (same kind, text, anchor) are collapsed at construction,
    keeping the first occurrence. Equality and hashing compare the set of
    identity triples, so spans and ordering do not participate.
    """

    __slots__ = ("annotations",)

    def __init__(self, annotations: Iterable[Annotation] = ()):
        seen = set()
        kept = []
        for ann in annotations:
            k = ann.key()
            if k not in seen:
                seen.add(k)
                kept.append(ann)
        self.annotations: tuple[Annotation, ...] = tuple(kept)

    def constr(self) -> frozenset[ConstructKind]:
        """Deduplicated set of construct kinds used by the set."""
        return frozenset(a.kind for a in self.annotations)

    def keys(self) -> frozenset[tuple]:
        return frozenset(a.key() for a in self.annotations)

    def without(self, removed: Iterable[Annotation]) -> "SpecificationSet":
        gone = {a.key() for a in removed}
        return SpecificationSet(a for a in self.annotations if a.key() not in gone)

    def __len__(self) -> int:
        return len(self.annotations)

    def __iter__(self) -> Iterator[Annotation]:
        return iter(self.annotations)

    def __bool__(self) -> bool:
        return bool(self.annotations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpecificationSet):
            return NotImplemented
        return self.keys() == other.keys()

    def __hash__(self) -> int:
        return hash(self.keys())

    def __repr__(self) -> str:
        kinds = ", ".join(sorted(k.keyword for k in self.constr()))
        return f"SpecificationSet({len(self.annotations)} annotations; {{{kinds}}})"


# --------------------------------------------------------------------------
# Lexing: locate ACSL comments and mask non-code text
# --------------------------------------------------------------------------

@dataclass
class _AcslComment:
    content: str          # delimiter-free text, decorations blanked, offsets align with source
    content_offset: int   # offset of content[0] in the original source
    start_offset: int     # offset of the comment opener
    end_offset: int       # offset one past the comment closer


_LINE_DECOR = re.compile(r"(?m)^[ \t]*(@+)")
_HEAD_DECOR = re.compile(r"\A(@+)")
_TAIL_DECOR = re.compile(r"(@+)[ \t]*\Z")


def _blank_decorations(content: str) -> str:
    """Replace leading/trailing '@' decorations with spaces, length-preserving."""
    def spaces(m: re.Match) -> str:
        return m.group(0).replace("@", " ")

    content = _HEAD_DECOR.sub(spaces, content)
    content = _TAIL_DECOR.sub(spaces, content)
    content = _LINE_DECOR.sub(spaces, content)
    return content


_LEX_OPENER = re.compile(r"/\*|//|[\"']")

#: the body of a literal after its opening quote: up to the closing quote
#: or the end of the text; a backslash escapes the next character
_QUOTED_REST = {q: re.compile(rf"[^{q}\\]*(?:\\.[^{q}\\]*)*", re.S) for q in "\"'"}


def _blank(text: str) -> str:
    """Spaces in place of every character of text except newlines."""
    return "\n".join(" " * len(line) for line in text.split("\n"))


def _lex(source: str) -> tuple[str, list[_AcslComment]]:
    """Single pass over C text producing (masked, acsl_comments).

    In the masked text every comment, string literal and char literal is
    blanked to spaces (newlines preserved) so structural scanning sees only
    code. ACSL comments (/*@ ... * / and //@ ...) are collected.
    """
    n = len(source)
    pieces: list[str] = []
    comments: list[_AcslComment] = []
    done = 0   # source[:done] is in pieces
    m = _LEX_OPENER.search(source)
    while m:
        i = m.start()
        opener = m.group()
        if opener == "/*":
            open_len = 3 if source.startswith("@", i + 2) else 2
            close = source.find("*/", i + open_len)
            if close < 0:
                raise MalformedAnnotation(f"unterminated comment at offset {i}")
            end = close + 2
            if open_len == 3:
                comments.append(_AcslComment(
                    content=_blank_decorations(source[i + 3:close]),
                    content_offset=i + 3,
                    start_offset=i,
                    end_offset=end,
                ))
        elif opener == "//":
            end = source.find("\n", i)
            if end < 0:
                end = n
            if source.startswith("@", i + 2):
                comments.append(_AcslComment(
                    content=source[i + 3:end],
                    content_offset=i + 3,
                    start_offset=i,
                    end_offset=end,
                ))
        else:
            close = _QUOTED_REST[opener].match(source, i + 1).end()
            end = close + 1 if close < n and source[close] == opener else n
        pieces.append(source[done:i])
        pieces.append(_blank(source[i:end]))
        done = end
        m = _LEX_OPENER.search(source, end)
    pieces.append(source[done:])
    return "".join(pieces), comments


# --------------------------------------------------------------------------
# Structural scan: functions and loops (on masked text)
# --------------------------------------------------------------------------

_C_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "return", "sizeof",
    "case", "default", "goto", "break", "continue",
}
_ATTRIBUTE_WORDS = {"__attribute__", "__attribute"}

_WORD = re.compile(r"[A-Za-z_]\w*")
_BRACE = re.compile(r"[{}]")
_NON_SPACE = re.compile(r"\S")
_LOOP_TOKEN = re.compile(r"[{}]|[A-Za-z_]\w*")
_DECL_BOUND = re.compile(r"[;{}]")
_DIRECTIVE = re.compile(r"^[ \t]*#[^\n]*", re.M)
_PAREN = re.compile(r"[()]")


@dataclass
class _FunctionInfo:
    name: str
    decl_start: int   # offset where the declaration (return type) begins
    body_start: int   # offset of the opening '{'
    body_end: int     # offset of the matching '}'
    loop_offsets: list[int] = field(default_factory=list)


class _DeclarationMarks:
    """Forward passes over masked text recording where a declaration can
    start and which '(' each ')' closes."""

    def __init__(self, masked: str):
        #: offsets of ';', '{' and '}'
        self.bounds = [m.start() for m in _DECL_BOUND.finditer(masked)]
        #: (start, end) of each preprocessor line, end at its newline
        self.directives = [m.span() for m in _DIRECTIVE.finditer(masked)]
        #: ')' offset -> offset of the '(' it closes
        self.opener: dict[int, int] = {}
        open_parens: list[int] = []
        for m in _PAREN.finditer(masked):
            if m.group() == "(":
                open_parens.append(m.start())
            elif open_parens:
                self.opener[m.start()] = open_parens.pop()

    def decl_start(self, name_start: int) -> int:
        """Offset just after the last ';', '}', '{' or preprocessor line
        before name_start; a preprocessor line running on past name_start
        counts as ending there."""
        k = bisect.bisect_left(self.bounds, name_start)
        anchor = self.bounds[k - 1] if k else -1
        k = bisect.bisect_left(self.directives, (name_start,))
        if k:
            anchor = max(anchor, min(self.directives[k - 1][1], name_start) - 1)
        return anchor + 1


def _function_at_brace(masked: str, brace_pos: int,
                       marks: _DeclarationMarks) -> tuple[str, int] | None:
    """If the top-level '{' at brace_pos opens a function body, return
    (name, decl_start); otherwise None."""
    j = brace_pos - 1
    while True:
        while j >= 0 and masked[j].isspace():
            j -= 1
        if j < 0 or masked[j] != ")":
            return None
        j = marks.opener.get(j, -1)
        if j < 0:
            return None
        j -= 1
        while j >= 0 and masked[j].isspace():
            j -= 1
        if j >= 0 and masked[j] == ")":
            # `int (*pick(int s))(int)`: the group holds name and parameters
            j -= 1
            continue
        name_end = j + 1
        while j >= 0 and (masked[j].isalnum() or masked[j] == "_"):
            j -= 1
        name = masked[j + 1:name_end]
        # a trailing __attribute__((...)) group: the parameters precede it
        if name not in _ATTRIBUTE_WORDS:
            break
    if not name or name[0].isdigit() or name in _C_KEYWORDS:
        return None
    code = _NON_SPACE.search(masked, marks.decl_start(j + 1), brace_pos)
    return name, code.start() if code else brace_pos


def _collect_loops(masked: str, body_start: int, body_end: int) -> list[int]:
    """Offsets of loop statements inside a function body, textual order.
    The 'while' of a do-while is not counted as a separate loop."""
    loops: list[int] = []
    pending_do: list[int] = []
    depth = 0
    for m in _LOOP_TOKEN.finditer(masked, body_start, body_end):
        token = m.group()
        if token == "{":
            depth += 1
        elif token == "}":
            depth -= 1
            while pending_do and pending_do[-1] > depth:
                pending_do.pop()
        elif token == "for":
            loops.append(m.start())
        elif token == "do":
            loops.append(m.start())
            pending_do.append(depth)
        elif token == "while":
            if pending_do and pending_do[-1] == depth:
                pending_do.pop()
            else:
                loops.append(m.start())
    return loops


def _scan_layout(masked: str) -> list[_FunctionInfo]:
    marks = _DeclarationMarks(masked)
    functions: list[_FunctionInfo] = []
    depth = 0
    m = _BRACE.search(masked)
    while m:
        i = m.start()
        if m.group() == "}":
            depth -= 1
        elif depth == 0 and (hit := _function_at_brace(masked, i, marks)):
            name, decl_start = hit
            body_end = _match_block(masked, i)
            functions.append(_FunctionInfo(name, decl_start, i, body_end,
                                           _collect_loops(masked, i + 1, body_end)))
            i = body_end
        else:
            depth += 1
        m = _BRACE.search(masked, i + 1)
    return functions


def declared_functions(source: str) -> list[str]:
    """Names of function definitions, in textual order."""
    masked, _ = _lex(source)
    return [f.name for f in _scan_layout(masked)]


# --------------------------------------------------------------------------
# Clause splitting
# --------------------------------------------------------------------------

@dataclass
class _Clause:
    kind: ConstructKind
    start: int   # offset of the clause head within the comment content
    end: int     # offset one past the clause terminator
    extra_spans: list[tuple[int, int]] = field(default_factory=list)

    def text(self, content: str) -> str:
        pieces = [content[self.start:self.end]]
        pieces += [content[a:b] for a, b in self.extra_spans]
        text = _normalize_clause(" ".join(pieces))
        # only a `//@` line can hold it, and weave would end its block there
        if "*/" in text:
            raise MalformedAnnotation(
                f"{self.kind.keyword} clause contains '*/'")
        return text


def _normalize_clause(raw: str) -> str:
    return re.sub(r"\s+", " ", raw).strip()


_OPENERS = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = {")", "]", "}"}


#: term-level binders whose binder list ends with a ';' of its own
_BINDERS = ("\\forall", "\\exists", "\\let", "\\lambda")


def _find_terminator(content: str, start: int, what: str) -> int:
    """Offset of the ';' ending the clause starting before `start`.

    Skips nesting and string literals; each term-level binder
    (\\forall, \\exists, \\let, \\lambda) consumes one semicolon of its own.
    """
    depth = 0
    pending_binders = 0
    i = start
    n = len(content)
    while i < n:
        c = content[i]
        if c in _OPENERS:
            depth += 1
        elif c in _CLOSERS:
            depth -= 1
        elif c == '"':
            i += 1
            while i < n and content[i] != '"':
                i += 2 if content[i] == "\\" else 1
        elif c == "\\":
            for binder in _BINDERS:
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
            # binder semicolons are the only ones legal inside a term, at
            # any nesting depth; the clause ends at the first free ';'
            if pending_binders:
                pending_binders -= 1
            elif depth == 0:
                return i
        i += 1
    raise MalformedAnnotation(f"{what} clause has no terminating ';'")


def _split_clauses(content: str) -> list[_Clause]:
    """Split annotation-comment content into classified clauses.

    behavior headers absorb their `assumes` clauses; axiomatic blocks
    contribute one clause per member declaration.
    """
    clauses: list[_Clause] = []
    open_behavior: _Clause | None = None
    i = 0
    n = len(content)
    while i < n:
        if content[i].isspace():
            i += 1
            continue
        m = _WORD.match(content, i)
        if not m:
            raise MalformedAnnotation(
                f"unexpected {content[i]!r} at start of clause in annotation")
        word = m.group(0)
        after = m.end()

        if word == "loop":
            m2 = _WORD.match(content, _skip_ws(content, after))
            sub = m2.group(0) if m2 else ""
            if sub not in _LOOP_KEYWORDS:
                raise ClassificationError(f"not a supported construct keyword: 'loop {sub}'")
            end = _find_terminator(content, m2.end(), f"loop {sub}")
            clauses.append(_Clause(_LOOP_KEYWORDS[sub], i, end + 1))
            i = end + 1
        elif word == "behavior":
            colon = content.find(":", after)
            if colon < 0:
                raise MalformedAnnotation("behavior header has no ':'")
            clause = _Clause(ConstructKind.BEHAVIOR, i, colon + 1)
            clauses.append(clause)
            open_behavior = clause
            i = colon + 1
        elif word == "assumes":
            if open_behavior is None:
                raise ClassificationError(
                    "not a supported construct keyword: 'assumes' (outside behavior)")
            end = _find_terminator(content, after, "assumes")
            open_behavior.extra_spans.append((i, end + 1))
            i = end + 1
        elif word == "axiomatic":
            brace = content.find("{", after)
            if brace < 0:
                raise MalformedAnnotation("axiomatic block has no '{'")
            close = _match_block(content, brace)
            inner = _split_clauses(content[brace + 1:close])
            for c in inner:
                if c.kind not in LOGICAL_CONSTRUCTS:
                    raise ClassificationError(
                        f"'{c.kind.keyword}' is not valid inside an axiomatic block")
                shifted = _Clause(c.kind, c.start + brace + 1, c.end + brace + 1,
                                  [(a + brace + 1, b + brace + 1) for a, b in c.extra_spans])
                clauses.append(shifted)
            i = close + 1
        elif word in _SIMPLE_KEYWORDS:
            end = _find_terminator(content, after, word)
            clauses.append(_Clause(_SIMPLE_KEYWORDS[word], i, end + 1))
            i = end + 1
        else:
            raise ClassificationError(f"not a supported construct keyword: {word!r}")
    return clauses


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


_BLOCK_TOKEN = re.compile(r'[{}"]')


def _match_block(content: str, open_pos: int) -> int:
    """Offset of the '}' closing the '{' at open_pos, skipping string
    literals."""
    depth = 0
    m = _BLOCK_TOKEN.search(content, open_pos)
    while m:
        i = m.start()
        c = m.group()
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
        else:
            # i lands on the closing quote; without one nothing follows
            i = _QUOTED_REST['"'].match(content, i + 1).end()
        m = _BLOCK_TOKEN.search(content, i + 1)
    raise MalformedAnnotation(f"unbalanced '{{' at offset {open_pos}")


# --------------------------------------------------------------------------
# parse / strip / weave
# --------------------------------------------------------------------------

def parse_annotations(annotated_source: str, file: str = "<source>") -> SpecificationSet:
    """Extract every ACSL annotation from C text.

    Loop clauses anchor to the next loop of the enclosing function, contract
    clauses to the next function definition, logic declarations to file
    scope. Non-annotation comments are ignored.
    """
    masked, comments = _lex(annotated_source)
    functions = _scan_layout(masked)
    body_starts = [f.body_start for f in functions]
    line_of = _LineIndex(annotated_source)
    annotations = []
    for comment in comments:
        for clause in _split_clauses(comment.content):
            abs_start = comment.content_offset + clause.start
            abs_end = comment.content_offset + clause.end
            if clause.extra_spans:
                abs_end = comment.content_offset + max(b for _, b in clause.extra_spans + [(0, clause.end)])
            anchor = _resolve_anchor(clause.kind, comment, functions, body_starts)
            span = SourceSpan(file, line_of(abs_start), line_of(abs_end - 1))
            annotations.append(Annotation(
                kind=clause.kind,
                text=clause.text(comment.content),
                anchor=anchor,
                span=span,
            ))
    return SpecificationSet(annotations)


class _LineIndex:
    def __init__(self, source: str):
        self._starts = [0]
        for m in re.finditer(r"\n", source):
            self._starts.append(m.end())

    def __call__(self, offset: int) -> int:
        return bisect.bisect_right(self._starts, offset)


def _resolve_anchor(kind: ConstructKind, comment: _AcslComment,
                    functions: list[_FunctionInfo], body_starts: list[int]) -> Anchor:
    """functions are disjoint and in textual order; body_starts lists their
    body_start offsets."""
    if kind in LOGICAL_CONSTRUCTS:
        return GLOBAL
    if kind in _LOOP_KINDS:
        # the only function that can hold the comment opens last before it
        k = bisect.bisect_left(body_starts, comment.start_offset) - 1
        if k >= 0 and comment.start_offset < functions[k].body_end:
            f = functions[k]
            ordinal = bisect.bisect_left(f.loop_offsets, comment.end_offset) + 1
            if ordinal <= len(f.loop_offsets):
                return Loop(f.name, ordinal)
            raise MalformedAnnotation(
                f"loop annotation at offset {comment.start_offset} has no "
                f"following loop in function '{f.name}'")
        raise MalformedAnnotation(
            f"loop annotation at offset {comment.start_offset} is outside any function body")
    # contract clause: next function whose body opens after the comment
    k = bisect.bisect_right(body_starts, comment.start_offset)
    if k < len(functions):
        return FunctionContract(functions[k].name)
    raise MalformedAnnotation(
        f"contract annotation at offset {comment.start_offset} precedes no function")


def strip_annotations(annotated_source: str) -> str:
    """Remove every ACSL comment; lines left fully blank are dropped."""
    _, comments = _lex(annotated_source)
    out = annotated_source
    for c in sorted(comments, key=lambda c: c.start_offset, reverse=True):
        out = out[:c.start_offset] + out[c.end_offset:]
    lines = out.split("\n")
    kept = [ln for ln in lines if ln.strip() or not ln]
    # collapse runs of blank lines introduced by removal
    cleaned: list[str] = []
    for ln in kept:
        if not ln.strip() and cleaned and not cleaned[-1].strip():
            continue
        cleaned.append(ln)
    return "\n".join(cleaned)


def weave(bare_source: str, spec: SpecificationSet) -> str:
    """Embed a specification set into bare C source.

    Global annotations are emitted before the first function (grouped into
    one axiomatic block when the set contains axioms); contract clauses go
    before their function, loop clauses before their loop. Round trip:
    parse_annotations(weave(src, S)) == S.
    """
    if not spec:
        return bare_source

    masked, _ = _lex(bare_source)
    functions = {f.name: f for f in _scan_layout(masked)}
    ordered_functions = sorted(functions.values(), key=lambda f: f.decl_start)

    globals_: list[Annotation] = []
    contracts: dict[str, list[Annotation]] = {}
    loops: dict[tuple[str, int], list[Annotation]] = {}
    for ann in spec:
        if isinstance(ann.anchor, Global):
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

    insertions: dict[int, list[str]] = {}

    def plan(offset: int, block: str) -> None:
        insertions.setdefault(offset, []).append(block)

    if globals_:
        offset = ordered_functions[0].decl_start if ordered_functions else 0
        indent = _line_indent(bare_source, offset)
        plan(offset, _render_globals(globals_, indent))

    for fn, anns in contracts.items():
        f = functions[fn]
        indent = _line_indent(bare_source, f.decl_start)
        plan(f.decl_start, _render_block([a.text for a in anns], indent))

    for (fn, ordinal), anns in loops.items():
        f = functions[fn]
        offset = f.loop_offsets[ordinal - 1]
        indent = _line_indent(bare_source, offset)
        plan(offset, _render_block([a.text for a in anns], indent))

    out = bare_source
    for offset in sorted(insertions, reverse=True):
        text = "".join(insertions[offset])
        out = out[:offset] + text + out[offset:]
    return out


def _line_indent(source: str, offset: int) -> str:
    start = source.rfind("\n", 0, offset) + 1
    prefix = source[start:offset]
    return prefix if prefix.strip() == "" else ""


def _render_block(clause_texts: list[str], indent: str) -> str:
    if len(clause_texts) == 1:
        return f"/*@ {clause_texts[0]} */\n{indent}"
    inner = f"\n{indent}    ".join(clause_texts)
    return f"/*@ {inner} */\n{indent}"


def _render_globals(annotations: list[Annotation], indent: str) -> str:
    has_axiom = any(a.kind is ConstructKind.AXIOM for a in annotations)
    if not has_axiom:
        return "".join(_render_block([a.text], indent) for a in annotations)
    members = [a for a in annotations if a.kind in AXIOMATIC_CONSTRUCTS]
    rest = [a for a in annotations if a.kind not in AXIOMATIC_CONSTRUCTS]
    body = f"\n{indent}      ".join(a.text for a in members)
    block = (f"/*@ axiomatic Spec {{\n{indent}      {body}\n{indent}    }} */\n{indent}")
    return block + "".join(_render_block([a.text], indent) for a in rest)
