from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from specloop import MockVerifier, ReplayOracle, load_dataset

import toyworld

FIXTURES = Path(__file__).parent / "fixtures"
WP_STUB = Path(__file__).parent.parent / "benchmarks" / "stub" / "frama-c"


@pytest.fixture(scope="session")
def annotated_dir() -> Path:
    return FIXTURES / "annotated"


@pytest.fixture(scope="session")
def toy_corpus():
    return load_dataset(FIXTURES / "toy_corpus")


@pytest.fixture(scope="session")
def persona_dir(tmp_path_factory, toy_corpus) -> Path:
    root = tmp_path_factory.mktemp("persona-default")
    return toyworld.build_persona(root, toy_corpus)


@pytest.fixture(scope="session")
def replay_oracle(persona_dir) -> ReplayOracle:
    return ReplayOracle(persona_dir)


@pytest.fixture()
def rule_verifier() -> MockVerifier:
    return MockVerifier(always_failing=toyworld.ALWAYS_FAILING)


@pytest.fixture(scope="session")
def wp_stub(tmp_path_factory) -> Path:
    """A working copy of the benchmark's `frama-c -wp` stand-in, so the exec
    bit does not depend on the checkout: one goal per woven clause, failing
    iff the clause holds the `-stub-fail-marker` text."""
    stub = tmp_path_factory.mktemp("wp-stub") / "frama-c"
    shutil.copyfile(WP_STUB, stub)
    stub.chmod(0o755)
    return stub
