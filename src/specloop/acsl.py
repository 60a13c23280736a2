"""ACSL annotation model: parse annotations out of C source, classify them,
and weave them back in.

Only clause heads are interpreted; clause bodies are carried as opaque text
(the external verifier owns their semantics). Eleven construct kinds are
supported; any other clause keyword raises ClassificationError.
"""

from __future__ import annotations

import bisect
import functools
import re
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
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

    # members are singletons compared by identity: hash them so, in C
    __hash__ = object.__hash__

    def __init__(self, keyword: str) -> None:
        #: the ACSL keyword that heads clauses of this kind
        self.keyword = keyword


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

#: the construct kind each clause keyword heads, "loop invariant" as one key
KIND_OF_KEYWORD = {kind.keyword: kind for kind in ConstructKind}


def classify_construct(clause_keyword: Union[str, Sequence[str]]) -> ConstructKind:
    """Map the keyword tokens heading a clause to its construct kind.

    Accepts a string ("loop invariant") or a token sequence
    (("loop", "invariant")). Raises ClassificationError for any keyword
    outside the eleven supported kinds (ghost, assert, terminates, ...).
    """
    if not isinstance(clause_keyword, str):
        clause_keyword = " ".join(clause_keyword)
    kind = KIND_OF_KEYWORD.get(" ".join(clause_keyword.split()))
    if kind is None:
        raise ClassificationError(f"not a supported construct keyword: {clause_keyword!r}")
    return kind


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

#: spans are immutable values from few (file, first line, last line)
#: triples, so the parser shares them rather than building one per clause
_shared_span = functools.lru_cache(maxsize=256)(SourceSpan)


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


@dataclass(frozen=True, slots=True)
class Annotation:
    kind: ConstructKind
    text: str
    anchor: Anchor = GLOBAL
    span: SourceSpan = UNPLACED
    #: declared_name() once computed, "" for none; not part of the value
    _declared: str | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("annotation text must be non-empty")
        anchor_type, message = _ANCHOR_RULES[self.kind]
        if not isinstance(self.anchor, anchor_type):
            raise ValueError(message)

    def key(self) -> tuple:
        """Identity triple; spans are deliberately excluded."""
        return (self.kind, self.text, self.anchor)

    def declared_name(self) -> str | None:
        """Name introduced by a named construct (lemma foo:, predicate p(...),
        logic integer f(...), axiom a:, behavior b:), if any."""
        name = self._declared
        if name is None:
            name = _declared_name(self.kind, self.text) or ""
            object.__setattr__(self, "_declared", name)
        return name or None


#: each kind's anchor type, and the error for any other anchor
_ANCHOR_RULES = {kind: (anchor, f"{kind.keyword} annotations must {rule}")
                 for kinds, anchor, rule in ((LOGICAL_CONSTRUCTS, Global, "be global"),
                                             (_LOOP_KINDS, Loop, "anchor to a loop"),
                                             (_CONTRACT_KINDS, FunctionContract,
                                              "anchor to a function"))
                 for kind in kinds}

_NAME_AFTER_KEYWORD = re.compile(r"\s*(\w+)")
_NAMED_KINDS = frozenset({ConstructKind.LEMMA, ConstructKind.AXIOM,
                          ConstructKind.PREDICATE, ConstructKind.BEHAVIOR})
_LABELS = re.compile(r"\{[^}]*\}")
_IDENTIFIER = re.compile(r"\w+")


def _declared_name(kind: ConstructKind, text: str) -> str | None:
    body = text.strip()
    if kind in _NAMED_KINDS:
        m = _NAME_AFTER_KEYWORD.match(body, len(kind.keyword))
        return m.group(1) if m else None
    if kind is ConstructKind.LOGIC:
        # logic <type> <name>{labels}(...) — last identifier before '(',
        # ignoring label braces
        head = _LABELS.sub("", body.split("(", 1)[0])
        idents = _IDENTIFIER.findall(head)
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
        first: dict[tuple, Annotation] = {}   # hashes each key once
        for ann in annotations:
            first.setdefault(ann.key(), ann)
        self.annotations: tuple[Annotation, ...] = tuple(first.values())

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


#: '@' decorations: the run opening the content, with the run after it on
#: the first line; the run after the indent of a later line; and the run
#: closing the content before trailing spaces and tabs
_HEAD_DECORATION = re.compile(r"@*[ \t]*@+")
_DECORATION = re.compile(r"(\n[ \t]*@+|@+(?=[ \t]*\Z))")


def _blank_decorations(content: str) -> str:
    """Replace leading/trailing '@' decorations with spaces, length-preserving."""
    if "@" not in content:
        return content
    head = _HEAD_DECORATION.match(content)
    k = head.end() if head else 0
    parts = _DECORATION.split(content[k:])
    parts[1::2] = [run.replace("@", " ") for run in parts[1::2]]
    return content[:k].replace("@", " ") + "".join(parts)


#: a block comment (group 1: the '@' of an ACSL one, 2: its content), an
#: unterminated one (3), a line comment (4, 5), or a string or char literal
#: (to the end if unclosed); branches open with literals, which scan fast
_LEX_TOKEN = re.compile(r"""
    /\*(@?)(.*?)\*/ | /(\*)
  | //(@?)([^\n]*)
  | "[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)
  | '[^'\\]*(?:\\.[^'\\]*)*(?:'|\\?\Z)
""", re.S | re.X)


def _blank(text: str) -> str:
    """Spaces in place of every character of text except newlines."""
    return "\n".join([" " * len(line) for line in text.split("\n")])


def _lex(source: str) -> tuple[str, list[_AcslComment]]:
    """Single pass over C text producing (masked, acsl_comments).

    In the masked text every comment, string literal and char literal is
    blanked to spaces (newlines preserved) so structural scanning sees only
    code. ACSL comments (/*@ ... * / and //@ ...) are collected.
    """
    pieces: list[str] = []
    comments: list[_AcslComment] = []
    done = 0   # source[:done] is in pieces
    for m in _LEX_TOKEN.finditer(source):
        start, end = m.span()
        if m.group(3):
            raise MalformedAnnotation(f"unterminated comment at offset {start}")
        if m.group(1):
            comments.append(_AcslComment(
                _blank_decorations(m.group(2)), start + 3, start, end))
        elif m.group(4):
            comments.append(_AcslComment(m.group(5), start + 3, start, end))
        pieces.append(source[done:start])
        pieces.append(_blank(m.group()))
        done = end
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

_NON_SPACE = re.compile(r"\S")
_SPACE = re.compile(r"\s*")
#: the keyword heading a clause, after the whitespace before it
_CLAUSE_HEAD = re.compile(r"\s*([A-Za-z_]\w*)?")
_WORD_CHARS = re.compile(r"\w*")
#: what `axiomatic` is followed by: the block's name, if any, and its '{'
_AXIOMATIC_HEAD = re.compile(r"\s*(?:[A-Za-z_]\w*\s*)?\{")
#: a group holding one name only, as in `int (f)(int x)`
_LONE_NAME = re.compile(r"\s*(\w+)\s*")
#: on reversed text, what ends before such a group: a type's last word,
#: perhaps with `*`s after it; a cast, as in `v = (T)(struct s){1}` or
#: `v = 2 * (T)(struct s){1}`, follows something else
_TYPE_END = re.compile(r"[\s*]*(\w+)")
#: what the layout scan reads: ';', a brace, a parenthesis, or a loop
#: keyword ending a word (`_starts_word` tells whether it starts one)
_LAYOUT_TOKEN = re.compile(r"[;{}()]|for(?!\w)|do(?!\w)|while(?!\w)")
#: a preprocessor line at the start of the text, and one after a newline
_FIRST_DIRECTIVE = re.compile(r"[ \t]*#[^\n]*")
_DIRECTIVE = re.compile(r"\n[ \t]*#[^\n]*")


@dataclass
class _FunctionInfo:
    name: str
    decl_start: int   # offset where the declaration (return type) begins
    body_start: int   # offset of the opening '{'
    body_end: int     # offset of the matching '}'
    loop_offsets: list[int] = field(default_factory=list)


class _DeclarationMarks:
    """Where a declaration can start and which '(' each ')' closes, in the
    masked text before the '{' being read; `_scan_layout` appends the marks
    as its pass goes."""

    def __init__(self, masked: str):
        #: the masked text reversed, for regex steps backwards
        self.reverse = masked[::-1]
        #: (start, end) of each preprocessor line, end at its newline; a later
        #: line starts at the newline before it, where no name can start
        first = _FIRST_DIRECTIVE.match(masked)
        self.directives = [first.span()] if first else []
        self.directives += [m.span() for m in _DIRECTIVE.finditer(masked)]
        #: offsets of ';', '{' and '}'
        self.bounds: list[int] = []
        #: ')' offset -> offset of the '(' it closes
        self.opener: dict[int, int] = {}

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
    # a run ending at offset j is a match at last - j in the reversed text
    rev = marks.reverse
    last = len(masked) - 1
    j = brace_pos - 1
    while True:
        j = last - _SPACE.match(rev, last - j).end()
        if j < 0 or masked[j] != ")":
            return None
        j = marks.opener.get(j, -1)
        if j < 0:
            return None
        j = last - _SPACE.match(rev, last - j + 1).end()
        if j >= 0 and masked[j] == ")":
            group = marks.opener.get(j, -1)
            lone = group >= 0 and _LONE_NAME.fullmatch(masked, group + 1, j)
            typed = lone and _TYPE_END.match(rev, last - group + 1)
            if (typed and not typed[1][-1].isdigit()
                    and typed[1][::-1] not in _C_KEYWORDS):
                name, j = lone.group(1), group - 1
                break
            # `int (*pick(int s))(int)`: the group holds name and parameters
            j -= 1
            continue
        name_end = j + 1
        j = last - _WORD_CHARS.match(rev, last - j).end()
        name = masked[j + 1:name_end]
        # a trailing __attribute__((...)) group: the parameters precede it
        if name not in _ATTRIBUTE_WORDS:
            break
    if not name or name[0].isdigit() or name in _C_KEYWORDS:
        return None
    code = _NON_SPACE.search(masked, marks.decl_start(j + 1), brace_pos)
    return name, code.start() if code else brace_pos


def _starts_word(text: str, i: int) -> bool:
    """Whether a word starts at offset i: at the first ASCII letter or '_'
    of a run of word characters, so in `9for`, not in `_9for` or `xéfor`."""
    i -= 1
    while i >= 0 and text[i].isalnum() and not (text[i].isascii() and text[i].isalpha()):
        i -= 1
    return i < 0 or not (text[i] == "_" or text[i].isalnum())


def _scan_layout(masked: str) -> list[_FunctionInfo]:
    """The function definitions of masked C text, with the loops of each,
    in one forward pass. A file-scope '{' opens a body when
    `_function_at_brace` names a function there; the body closes at its
    matching '}'. The 'while' of a do-while is not counted as a loop."""
    marks = _DeclarationMarks(masked)
    open_parens: list[int] = []
    functions: list[_FunctionInfo] = []
    body = None   # the function whose body is open
    depth = 0     # brace depth at file scope, or within the open body
    pending_do: list[int] = []   # body depth of each 'do' awaiting its 'while'
    for m in _LAYOUT_TOKEN.finditer(masked):
        token, i = m.group(), m.start()
        if token == "(":
            open_parens.append(i)
        elif token == ")":
            if open_parens:
                marks.opener[i] = open_parens.pop()
        elif token == ";":
            marks.bounds.append(i)
        elif token == "{":
            marks.bounds.append(i)
            if body is None and depth == 0 and (
                    hit := _function_at_brace(masked, i, marks)):
                body = _FunctionInfo(*hit, i, -1)
            else:
                depth += 1
        elif token == "}":
            marks.bounds.append(i)
            if body is not None and depth == 0:
                body.body_end = i
                functions.append(body)
                body = None
                pending_do.clear()
            else:
                depth -= 1
                while pending_do and pending_do[-1] > depth:
                    pending_do.pop()
        elif body is None or not _starts_word(masked, i):
            continue
        elif token == "while" and pending_do and pending_do[-1] == depth:
            pending_do.pop()   # the while of a do-while
        else:
            body.loop_offsets.append(i)
            if token == "do":
                pending_do.append(depth)
    if body is not None:
        raise MalformedAnnotation(f"unbalanced '{{' at offset {body.body_start}")
    return functions


def declared_functions(source: str) -> list[str]:
    """Names of function definitions, in textual order."""
    masked, _ = _lex(source)
    return [f.name for f in _scan_layout(masked)]


# --------------------------------------------------------------------------
# Clause splitting
# --------------------------------------------------------------------------

@dataclass(slots=True)
class _Clause:
    kind: ConstructKind
    start: int   # offset of the clause head within the comment content
    end: int     # offset one past the clause terminator
    extra_spans: list[tuple[int, int]] = field(default_factory=list)

    def text(self, content: str) -> str:
        words = content[self.start:self.end].split()
        for a, b in self.extra_spans:
            words += content[a:b].split()
        text = " ".join(words)
        # only a `//@` line can hold it, and weave would end its block there
        if "*/" in text:
            raise MalformedAnnotation(
                f"{self.kind.keyword} clause contains '*/'")
        return text


#: what a clause scan stops at: ';', a bracket, a string or char literal
#: (to the end if unclosed), or a term-level binder; branches open with
#: literals, not a class, which scan fast
_CLAUSE_TOKEN = re.compile(r"""
    ; | \( | \) | \[ | \] | \{ | \}
  | "[^"\\]*(?:\\.[^"\\]*)*"? | '[^'\\]*(?:\\.[^'\\]*)*'?
  | \\(?:forall|exists|let|lambda)(?!\w)
""", re.S | re.X)
_DEPTH_STEP = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}


def _find_terminator(content: str, start: int, what: str) -> int:
    """Offset of the ';' ending the clause starting before `start`.

    Skips nesting and string and character literals; each term-level binder
    consumes one semicolon of its own.
    """
    depth = 0
    pending_binders = 0
    for m in _CLAUSE_TOKEN.finditer(content, start):
        token = m.group()
        if token == ";":
            # binder semicolons are the only ones legal inside a term, at
            # any nesting depth; the clause ends at the first free ';'
            if pending_binders:
                pending_binders -= 1
            elif depth == 0:
                return m.start()
        elif token in _DEPTH_STEP:
            depth += _DEPTH_STEP[token]
        elif token[0] == "\\":
            pending_binders += 1
    raise MalformedAnnotation(f"{what} clause has no terminating ';'")


def _split_clauses(content: str) -> list[_Clause]:
    """Split annotation-comment content into classified clauses.

    behavior headers absorb their `assumes` clauses; axiomatic blocks
    contribute one clause per member declaration.
    """
    clauses: list[_Clause] = []
    open_behavior: _Clause | None = None
    i = 0
    while True:
        m = _CLAUSE_HEAD.match(content, i)
        word = m.group(1)
        if word is None:
            if m.end() == len(content):
                return clauses
            raise MalformedAnnotation(
                f"unexpected {content[m.end()]!r} at start of clause in annotation")
        i, after = m.span(1)
        if word == "loop":
            m = _CLAUSE_HEAD.match(content, after)
            word, after = f"loop {m.group(1) or ''}", m.end()
        kind = KIND_OF_KEYWORD.get(word)
        if kind is ConstructKind.BEHAVIOR:
            colon = content.find(":", after)
            if colon < 0:
                raise MalformedAnnotation("behavior header has no ':'")
            clause = _Clause(ConstructKind.BEHAVIOR, i, colon + 1)
            clauses.append(clause)
            open_behavior = clause
            i = colon + 1
        elif kind is not None:
            end = _find_terminator(content, after, word)
            clauses.append(_Clause(kind, i, end + 1))
            i = end + 1
        elif word == "assumes":
            if open_behavior is None:
                raise ClassificationError(
                    "not a supported construct keyword: 'assumes' (outside behavior)")
            end = _find_terminator(content, after, "assumes")
            open_behavior.extra_spans.append((i, end + 1))
            i = end + 1
        elif word == "axiomatic":
            head = _AXIOMATIC_HEAD.match(content, after)
            if head is None:
                raise MalformedAnnotation("axiomatic block has no '{' after its name")
            brace = head.end() - 1
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
        else:
            raise ClassificationError(f"not a supported construct keyword: {word!r}")


def _match_block(content: str, open_pos: int) -> int:
    """Offset of the '}' closing the '{' at open_pos, stepping over the
    clause tokens, so over string and character literals."""
    depth = 0
    for m in _CLAUSE_TOKEN.finditer(content, open_pos):
        token = m.group()
        if token == "{":
            depth += 1
        elif token == "}":
            depth -= 1
            if depth == 0:
                return m.start()
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
    # where each line starts (and one past the end): the line of an offset
    # is the count of starts at or before it
    line_starts = list(accumulate(
        map((1).__add__, map(len, annotated_source.split("\n"))), initial=0))
    annotations = []
    for comment in comments:
        content, base = comment.content, comment.content_offset
        anchors: dict[type, Anchor] = {}   # the comment's anchor of each type
        for clause in _split_clauses(content):
            kind = clause.kind
            end = clause.end
            if clause.extra_spans:
                end = max(end, *(b for _, b in clause.extra_spans))
            anchor_type = _ANCHOR_RULES[kind][0]
            anchor = anchors.get(anchor_type)
            if anchor is None:
                anchor = anchors[anchor_type] = _resolve_anchor(
                    kind, comment, functions, body_starts)
            span = _shared_span(file, bisect.bisect_right(line_starts, base + clause.start),
                                bisect.bisect_right(line_starts, base + end - 1))
            annotations.append(Annotation(kind, clause.text(content), anchor, span))
    return SpecificationSet(annotations)


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
    globals_: list[Annotation] = []
    blocks: dict[int, list[str]] = {}   # insertion offset -> its clause texts
    for ann in spec:
        anchor = ann.anchor
        if isinstance(anchor, Global):
            globals_.append(ann)
            continue
        f = functions.get(anchor.function)
        if f is None:
            raise AnchorNotFound(f"function '{anchor.function}' not found in source")
        if isinstance(anchor, FunctionContract):
            offset = f.decl_start
        elif 1 <= anchor.ordinal <= len(f.loop_offsets):
            offset = f.loop_offsets[anchor.ordinal - 1]
        else:
            raise AnchorNotFound(
                f"function '{anchor.function}' has {len(f.loop_offsets)} loops, "
                f"no ordinal {anchor.ordinal}")
        blocks.setdefault(offset, []).append(ann.text)

    out = bare_source
    for offset in sorted(blocks, reverse=True):
        block = _render_block(blocks[offset], _line_indent(bare_source, offset))
        out = out[:offset] + block + out[offset:]
    if globals_:
        # last, so that it lands before a contract at the same offset
        offset = min((f.decl_start for f in functions.values()), default=0)
        block = _render_globals(globals_, _line_indent(bare_source, offset))
        out = out[:offset] + block + out[offset:]
    return out


def _line_indent(source: str, offset: int) -> str:
    start = source.rfind("\n", 0, offset) + 1
    prefix = source[start:offset]
    return prefix if prefix.strip() == "" else ""


def _render_block(clause_texts: list[str], indent: str) -> str:
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
