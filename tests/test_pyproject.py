"""The pytest settings in pyproject.toml match the package they configure."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11 or later")

ROOT = Path(__file__).resolve().parent.parent


def test_ignored_warnings_are_still_raised():
    # an ignore filter whose message the package no longer emits hides
    # nothing today but would silence a future warning of the same text
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    filters = config["tool"]["pytest"]["ini_options"]["filterwarnings"]
    source = "".join(path.read_text() for path in sorted((ROOT / "src").rglob("*.py")))
    messages = [entry.split(":")[1] for entry in filters if entry.startswith("ignore:")]
    assert [message for message in messages if message not in source] == []
