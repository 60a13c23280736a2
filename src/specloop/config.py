"""Syntactic-construct configurations and compliance checking.

A configuration names a permitted construct set and an optional mandatory
set. Four canonical configurations ship (CB, CV, CA, CF); arbitrary
(permitted, mandatory) pairs are accepted mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from string import Formatter

from .acsl import (
    ALL_CONSTRUCTS,
    AXIOMATIC_CONSTRUCTS,
    BASIC_CONSTRUCTS,
    ConstructKind,
    SpecificationSet,
)
from .errors import ConfigError, MissingTemplate, UnknownConfiguration

_VERIFIABLE_LOGIC = frozenset({
    ConstructKind.PREDICATE,
    ConstructKind.LOGIC,
    ConstructKind.LEMMA,
})


@dataclass(frozen=True)
class Configuration:
    """A named pair of permitted and mandatory construct sets."""
    name: str
    permitted: frozenset[ConstructKind]
    mandatory: frozenset[ConstructKind] = frozenset()

    def __post_init__(self) -> None:
        if not self.mandatory <= self.permitted:
            raise ValueError("mandatory constructs must be permitted")

    @cached_property
    def permitted_keywords(self) -> str:
        """Comma-separated ACSL keywords of the permitted constructs, in
        declaration order; built on first use, once per configuration."""
        return ", ".join(k.keyword for k in ConstructKind if k in self.permitted)


_CANONICAL = {
    "CB": Configuration("CB", BASIC_CONSTRUCTS),
    "CV": Configuration("CV", BASIC_CONSTRUCTS | _VERIFIABLE_LOGIC, _VERIFIABLE_LOGIC),
    "CA": Configuration("CA", BASIC_CONSTRUCTS | AXIOMATIC_CONSTRUCTS,
                        frozenset({ConstructKind.AXIOM})),
    "CF": Configuration("CF", ALL_CONSTRUCTS),
}

CANONICAL_NAMES = ("CB", "CV", "CA", "CF")


def canonical_config(name: str) -> Configuration:
    """One of the four canonical configurations by name."""
    try:
        return _CANONICAL[name]
    except KeyError:
        raise UnknownConfiguration(
            f"unknown configuration {name!r}; expected one of {CANONICAL_NAMES}") from None


@dataclass(frozen=True)
class ComplianceVerdict:
    compliant: bool
    forbidden_used: frozenset[ConstructKind]
    mandatory_missing: bool


def check_compliance(spec: SpecificationSet, config: Configuration) -> ComplianceVerdict:
    """Decide whether a specification set respects a configuration.

    Compliant iff every used construct is permitted and, when the
    configuration has a mandatory set, at least one mandatory construct is
    used. An empty set is therefore compliant under CB/CF but not CV/CA.
    """
    used = spec.constr()
    forbidden = frozenset(used - config.permitted)
    mandatory_missing = bool(config.mandatory) and not (used & config.mandatory)
    return ComplianceVerdict(
        compliant=not forbidden and not mandatory_missing,
        forbidden_used=forbidden,
        mandatory_missing=mandatory_missing,
    )


# --------------------------------------------------------------------------
# Prompt templates
# --------------------------------------------------------------------------

_MANDATORY_INSTRUCTIONS = {
    "CV": ("Your specification MUST define at least one of: a predicate, a "
           "logic function, or a lemma. Abstract the function's semantics "
           "into predicates/logic functions and state helper lemmas that the "
           "verifier can discharge."),
    "CA": ("Your specification MUST state at least one axiom (inside an "
           "axiomatic block). Axioms are admitted without proof, so state "
           "only properties you are certain hold."),
}


def mandatory_instruction(config: Configuration) -> str:
    """Instruction text enforcing the mandatory construct set, if any."""
    if not config.mandatory:
        return ""
    canned = _MANDATORY_INSTRUCTIONS.get(config.name)
    if canned is not None:
        return canned
    keywords = ", ".join(sorted(k.keyword for k in config.mandatory))
    return f"Your specification MUST use at least one of: {keywords}."


_GENERATE_FIELDS = frozenset({"program", "permitted_keywords", "mandatory_instruction"})
#: the placeholders each phase's prompt fills
_FIELDS = {"generate": _GENERATE_FIELDS,
           "repair": _GENERATE_FIELDS | {"current_spec", "verifier_feedback"}}


class TemplateStore:
    """Prompt templates, one file per configuration per phase.

    Files are named `<phase>-<config>.txt` (phase is `generate` or
    `repair`). The root is the given directory, or the templates bundled
    with the package; every `*.txt` under it is read once, at construction.
    A template that is not UTF-8, has a lone brace, or a placeholder other
    than a plain `{<field>}` its phase fills, raises ConfigError naming the
    file.
    """

    def __init__(self, directory: str | Path | None = None):
        self._root = (Path(directory) if directory is not None
                      else resources.files("specloop") / "templates")
        if not self._root.is_dir():
            raise MissingTemplate(f"no template directory {self._root}")
        self._templates: dict[str, str] = {}
        for entry in self._root.iterdir():
            if not (entry.name.endswith(".txt") and entry.is_file()):
                continue
            try:
                text = self._templates[entry.name] = entry.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"template {entry}: {exc}") from None
            fields = _FIELDS.get(entry.name.split("-", 1)[0])
            if fields is not None:
                _check_placeholders(entry, text, fields)

    def __repr__(self) -> str:
        return f"TemplateStore({str(self._root)!r})"

    def load(self, phase: str, config_name: str) -> str:
        filename = f"{phase}-{config_name}.txt"
        try:
            return self._templates[filename]
        except KeyError:
            raise MissingTemplate(
                f"no template file {filename} under {self._root}") from None


def _check_placeholders(path, text: str, fields: frozenset[str]) -> None:
    try:
        parsed = list(Formatter().parse(text))
    except ValueError as exc:   # a lone brace
        raise ConfigError(f"template {path}: {exc}") from None
    for _, field, spec, conversion in parsed:
        if field is not None and field not in fields:
            raise ConfigError(f"template {path}: unknown field {field!r}; it "
                              f"may use {', '.join(sorted(fields))}")
        if spec or conversion:
            raise ConfigError(f"template {path}: field {field!r} takes no "
                              f"conversion or format spec")


#: the templates bundled with the package, read once at import
BUNDLED_TEMPLATES = TemplateStore()


def build_generation_prompt(program, config: Configuration,
                            template_store: TemplateStore = BUNDLED_TEMPLATES) -> str:
    """Instantiate the generation prompt for a program under a configuration.

    Deterministic for fixed inputs: the template's {program},
    {permitted_keywords} and {mandatory_instruction} placeholders are filled
    from the program source and the configuration.
    """
    return _fill("generate", program, config, template_store)


def build_repair_prompt(program, spec: SpecificationSet, report,
                        config: Configuration,
                        template_store: TemplateStore = BUNDLED_TEMPLATES) -> str:
    """Instantiate the repair prompt from the current specification set and
    the verifier feedback (failing goal names and raw output excerpt)."""
    return _fill("repair", program, config, template_store,
                 current_spec="\n".join(a.text for a in spec),
                 verifier_feedback=_render_feedback(report))


def _fill(phase: str, program, config: Configuration,
          template_store: TemplateStore, **fields: str) -> str:
    return template_store.load(phase, config.name).format(
        program=program.source,
        permitted_keywords=config.permitted_keywords,
        mandatory_instruction=mandatory_instruction(config),
        **fields,
    )


def _render_feedback(report) -> str:
    lines = [f"verification status: {report.status.value}"]
    for goal in report.failing_goals():
        lines.append(f"failed goal: {goal.goal_name} ({goal.status.value})")
    excerpt = (report.raw_output or "").strip()
    if excerpt:
        lines.append("verifier output (excerpt):")
        lines.append(excerpt[-2000:])
    return "\n".join(lines)
