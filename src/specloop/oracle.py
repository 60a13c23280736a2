"""Oracle gateway: generate and repair specifications through a pluggable
interface.

Three implementations: a live HTTP chat-completion client, a deterministic
replay oracle backed by fixture files, and a scripted oracle wrapping a
callable (handy for tests and demos).
"""

from __future__ import annotations

import os
import re
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable

from .acsl import SpecificationSet, parse_annotations
from .errors import (
    AcslError,
    EmptyCompletion,
    FixtureMissing,
    OracleError,
    OracleUnavailable,
    UnparseableCompletion,
)


class OraclePhase(Enum):
    GENERATE = "generate"
    REPAIR = "repair"


@dataclass(frozen=True)
class OracleRequest:
    phase: OraclePhase
    program_id: str
    config_name: str
    attempt_index: int  # 0 for the initial proposal, then 1, 2, ... per repair
    prompt: str


@dataclass(frozen=True)
class OracleResponse:
    raw_completion: str
    extracted: SpecificationSet
    latency: float

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("latency must be non-negative")


class Oracle(ABC):
    """Completion source for both phases. Implementations must be safe for
    concurrent in-flight requests; per-run sequencing (attempt ordering) is
    the caller's job."""

    #: calls worth running at once; in-process work holds the GIL
    concurrency = 1

    @abstractmethod
    def complete(self, request: OracleRequest) -> str:
        """Return the raw completion for a request."""

    def ask(self, request: OracleRequest) -> OracleResponse:
        """Complete a request, timing the call, and parse the completion."""
        started = time.perf_counter()
        raw = self.complete(request)
        latency = time.perf_counter() - started
        return OracleResponse(raw, self._parse(raw), latency)

    def _parse(self, raw: str) -> SpecificationSet:
        """The spec a completion holds: a fresh `extract_spec`."""
        return extract_spec(raw)


# --------------------------------------------------------------------------
# Completion -> SpecificationSet
# --------------------------------------------------------------------------

#: the line opening a fenced code block; its block runs to the next "```"
_FENCE_OPEN = re.compile(r"```[^\n`]*\n")


def _fenced_blocks(raw: str) -> list[str]:
    """The texts of the fenced code blocks of raw, in order."""
    blocks = []
    pos = 0
    while opener := _FENCE_OPEN.search(raw, pos):
        close = raw.find("```", opener.end())
        if close < 0:
            break   # a later opener ends later still: nothing can close it
        blocks.append(raw[opener.end():close])
        pos = close + 3
    return blocks


def extract_spec(raw_completion: str) -> SpecificationSet:
    """Pull the specification out of an oracle completion.

    Fenced code blocks are concatenated and parsed; absent any fence, the
    whole completion is parsed if it contains annotation comments.
    Annotations outside recognized regions are ignored. Raises
    EmptyCompletion if there are none, and UnparseableCompletion for text
    that is not UTF-8 or annotations that do not parse.
    """
    try:
        # a lone surrogate (a JSON `\ud800` escape) cannot be written out
        raw_completion.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise UnparseableCompletion(f"not UTF-8: {exc}") from None
    blocks = _fenced_blocks(raw_completion)
    if blocks:
        text = "\n".join(blocks)
    elif "/*@" in raw_completion or "//@" in raw_completion:
        text = raw_completion
    else:
        raise EmptyCompletion("completion contains no annotation region")
    try:
        spec = parse_annotations(text, file="<completion>")
    except AcslError as exc:
        raise UnparseableCompletion(f"{type(exc).__name__}: {exc}") from exc
    if not spec:
        raise EmptyCompletion("no annotations found in completion")
    return spec


# --------------------------------------------------------------------------
# Implementations
# --------------------------------------------------------------------------

class ReplayOracle(Oracle):
    """Deterministic oracle replaying stored completions.

    Fixture layout (one root directory per persona):

        <root>/<program_id>/<config>/<phase>-<attempt>.txt

    e.g. ``prog1/CB/generate-0.txt``, ``prog1/CB/repair-1.txt``; an
    attempt is written in ASCII digits without leading zeros. Other names
    (``generate-00.txt`` among them), and files outside a program and
    config directory, are ignored.
    Files are read eagerly, so the fixtures are read-only afterwards and
    safe to share across threads. Each fixture text is parsed on first use
    and its spec kept, at most one per file; a text that does not parse is
    not kept, so it raises on every call.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._fixtures: dict[tuple[str, str, str, int], str] = {}
        for program in _entries(self.root):
            for config in _entries(program.path) if program.is_dir() else ():
                for entry in _entries(config.path) if config.is_dir() else ():
                    fixture = _FIXTURE_NAME.fullmatch(entry.name)
                    if fixture is None:
                        continue
                    try:
                        with open(entry.path, encoding="utf-8") as fh:
                            text = fh.read()
                    except UnicodeDecodeError as exc:
                        raise OracleError(
                            f"replay fixture {entry.path}: {exc}") from None
                    self._fixtures[(program.name, config.name, fixture[1],
                                    int(fixture[2]))] = text
        self._specs: dict[str, SpecificationSet] = {}

    def complete(self, request: OracleRequest) -> str:
        key = (request.program_id, request.config_name,
               request.phase.value, request.attempt_index)
        try:
            return self._fixtures[key]
        except KeyError:
            raise FixtureMissing(
                f"no replay fixture for {key} under {self.root}") from None

    def _parse(self, raw: str) -> SpecificationSet:
        spec = self._specs.get(raw)
        if spec is None:
            spec = self._specs[raw] = extract_spec(raw)
        return spec


# one spelling per attempt number, so each key comes from exactly one file
_FIXTURE_NAME = re.compile(r"(generate|repair)-(0|[1-9][0-9]*)\.txt")


def _entries(path) -> list[os.DirEntry]:
    """The entries of a directory in name order; none if it is missing."""
    try:
        with os.scandir(path) as entries:
            return sorted(entries, key=lambda e: e.name)
    except FileNotFoundError:
        return []


class ScriptedOracle(Oracle):
    """Oracle backed by a callable request -> completion text."""

    def __init__(self, script: Callable[[OracleRequest], str]):
        self._script = script

    def complete(self, request: OracleRequest) -> str:
        return self._script(request)


@dataclass
class HttpOracleSettings:
    base_url: str
    model: str
    api_key: str = ""
    temperature: float = 0.0  # finite: NaN or inf makes every request body invalid JSON
    max_tokens: int = 4096
    timeout: float = 120.0
    retries: int = 3          # attempts on transient failures before OracleUnavailable
    backoff: float = 1.0      # initial backoff, doubled per retry

    def __post_init__(self) -> None:
        if not (self.retries >= 1 and self.backoff >= 0 and self.max_tokens >= 1
                and self.timeout > 0 and abs(self.temperature) < float("inf")):
            raise ValueError("oracle settings need retries >= 1, backoff >= 0, "
                             "max_tokens >= 1, timeout > 0 and a finite temperature")

    @classmethod
    def from_env(cls) -> "HttpOracleSettings":
        base_url = os.environ.get("ORACLE_BASE_URL", "")
        if not base_url:
            raise OracleUnavailable("ORACLE_BASE_URL is not set")
        try:
            temperature = float(os.environ.get("ORACLE_TEMPERATURE", "0"))
        except ValueError:
            raise OracleUnavailable("ORACLE_TEMPERATURE is not a number") from None
        return cls(
            base_url=base_url,
            model=os.environ.get("ORACLE_MODEL", ""),
            api_key=os.environ.get("ORACLE_API_KEY", ""),
            temperature=temperature,
        )

    def record(self) -> dict:
        """Decoding parameters worth persisting with the results (no secrets)."""
        return {
            "base_url": self.base_url,
            "model": self.model,
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }


class HttpChatOracle(Oracle):
    """Chat-completion client for an OpenAI-style endpoint.

    Transient failures (transport errors, HTTP 429 and 5xx) are retried
    with exponential backoff, with no sleep after the last attempt; after
    the retry budget the request fails with OracleUnavailable so the run is
    recorded as errored rather than failed-verification. Any other 4xx and
    a body without `choices[0].message.content` fail at once.
    """

    def __init__(self, settings: HttpOracleSettings, session=None):
        self.settings = settings
        if session is None:
            import requests
            session = requests.Session()
        self._session = session
        self.concurrency = os.cpu_count() or 1  # it waits on the network

    def complete(self, request: OracleRequest) -> str:
        url = self.settings.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.settings.api_key:
            headers["Authorization"] = f"Bearer {self.settings.api_key}"
        payload = {
            "model": self.settings.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": self.settings.temperature,
            "max_tokens": self.settings.max_tokens,
        }
        retries = self.settings.retries
        failure = "no attempt made"
        for attempt in range(1, retries + 1):
            try:
                resp = self._session.post(url, json=payload, headers=headers,
                                          timeout=self.settings.timeout)
            except Exception as exc:  # transport trouble, transient
                failure = f"{type(exc).__name__}: {exc}"
            else:
                if resp.status_code < 400:
                    return _chat_content(resp, request)
                failure = f"HTTP {resp.status_code}"
                if resp.status_code != 429 and resp.status_code < 500:
                    raise OracleUnavailable(f"oracle refused the request: {failure}")
            if attempt < retries:
                time.sleep(self.settings.backoff * 2 ** (attempt - 1))
        raise OracleUnavailable(
            f"oracle unavailable after {retries} attempts: {failure}")


def _chat_content(resp, request: OracleRequest) -> str:
    """The completion text of a chat response; a body without it is not
    worth retrying."""
    try:
        content = resp.json()["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError) as exc:
        raise OracleUnavailable(
            f"malformed oracle response: {type(exc).__name__}: {exc}") from None
    if not isinstance(content, str):
        raise OracleUnavailable("malformed oracle response: content is "
                                f"{type(content).__name__}, not text")
    if not content.strip():
        raise EmptyCompletion(f"empty completion for {request.program_id}")
    return content
