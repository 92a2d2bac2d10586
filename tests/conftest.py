from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from scanforge.cli import main

# Property tests draw the same examples on every run, so a failure reproduces
# and tier-1 results do not vary; no example database is written.
settings.register_profile("scanforge", derandomize=True, database=None, deadline=None)
settings.load_profile("scanforge")

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def chain10_path() -> Path:
    return FIXTURES / "chain10.snl"


@pytest.fixture
def chain10_patterns_path() -> Path:
    return FIXTURES / "chain10.pat"


def run_cli(capsys, *argv):
    """Run ``scantool`` in process: its exit code, stdout and stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err
