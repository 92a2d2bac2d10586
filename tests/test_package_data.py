"""The package data that an install ships.

The suite runs from ``PYTHONPATH=src``, where every file under
``src/scanforge/data`` is in reach whether or not ``pyproject.toml`` lists
it; an installed package has only the files that
``[tool.setuptools.package-data]`` matches.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scanforge"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_package_data_covers_every_data_file():
    import tomllib

    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    patterns = config["tool"]["setuptools"]["package-data"]["scanforge"]
    shipped = {path for pattern in patterns for path in PACKAGE.glob(pattern)}
    data = {path for path in (PACKAGE / "data").rglob("*") if path.is_file()}
    assert data, "no data files found"
    assert sorted(map(str, data - shipped)) == []
