"""Docs stay in sync with the CLI (the tier-1 mirror of the CI
``docs-consistency`` job, which runs ``tools/check_docs.py``)."""

import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_cli_surface_documented(capsys):
    sys.path.insert(0, str(TOOLS))
    try:
        import check_docs
    finally:
        sys.path.remove(str(TOOLS))
    assert check_docs.main() == 0, capsys.readouterr().err


def test_checker_flags_missing_names(monkeypatch):
    sys.path.insert(0, str(TOOLS))
    try:
        import check_docs
    finally:
        sys.path.remove(str(TOOLS))
    monkeypatch.setattr(check_docs, "_read", lambda files: "")
    assert check_docs.main() == 1


def test_checker_flags_stale_api_members(monkeypatch, tmp_path):
    sys.path.insert(0, str(TOOLS))
    try:
        import check_docs
    finally:
        sys.path.remove(str(TOOLS))
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "API.md").write_text(
        "| `Telemetry(sink=None)` | the live hub: `.inc`, "
        "`.metrics`, `.span(name)` |\n"
        "| `NullTelemetry` / `NULL` | `.metrics` |\n")
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    missing = []
    assert check_docs.check_api_members(missing) == 4
    assert missing == [
        "API.md lists `Telemetry.inc`, which does not exist",
        "API.md row: `MetricsRegistry`"]
