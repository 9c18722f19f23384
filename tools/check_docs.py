#!/usr/bin/env python
"""Docs-consistency check: the CLI + service surface must be documented.

Five cross-checks, all driven by introspection so the docs cannot
drift from the code:

1. Every subcommand (nested ones included, e.g. ``client push``) and
   every option string of ``repro.cli.build_parser()`` must be
   mentioned somewhere in the documentation set (``README.md`` +
   ``docs/*.md``).
2. Options of the service-facing subcommands (``serve``, ``client``)
   must additionally appear in the service docs proper
   (``docs/SERVICE.md`` or ``docs/API.md``) — a service flag
   documented only in passing elsewhere still fails.
3. ``docs/SERVICE.md`` must name every wire message type, query kind,
   and error code that ``repro.service.protocol`` defines (codes by
   symbolic name *and* numeric value).
4. ``docs/OBSERVABILITY.md`` must state the live-metrics constants it
   documents — the metrics schema version, every histogram bucket
   bound of ``LATENCY_BUCKETS``, and the flight recorder's default
   ring capacity — so the documented numbers cannot drift from
   ``repro.observability``.
5. Every ``.member`` that ``docs/API.md`` lists for ``Telemetry``,
   ``NullTelemetry`` and ``MetricsRegistry`` must exist on an instance
   of that class, so a row naming a removed method fails.

Usage::

    PYTHONPATH=src python tools/check_docs.py

Exit status 0 when everything is covered, 1 otherwise (missing names
are listed on stderr).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Documentation files searched for mentions.
DOC_FILES = ("README.md",) + tuple(
    str(path.relative_to(REPO)) for path in sorted((REPO / "docs").glob("*.md")))

#: Files that count as the service documentation proper (check 2).
SERVICE_DOC_FILES = ("docs/SERVICE.md", "docs/API.md")

#: Subcommands whose options must appear in SERVICE_DOC_FILES.
SERVICE_SUBCOMMANDS = ("serve", "client")

#: Option strings that need no documentation (argparse built-ins).
IGNORED_OPTIONS = {"-h", "--help"}


def _walk_subparsers(parser, prefix=""):
    """Yield ``(dotted_name, subparser)`` for every (nested) subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                dotted = f"{prefix}{name}"
                yield dotted, subparser
                yield from _walk_subparsers(subparser, f"{dotted} ")


def cli_surface():
    """(subcommands, options, service_options) of ``build_parser()``.

    ``subcommands`` are space-joined paths (``"client push"``);
    ``service_options`` maps each serve/client option to the
    subcommand path that owns it.
    """
    from repro.cli import build_parser
    parser = build_parser()
    subcommands = []
    options = set()
    service_options = {}
    for dotted, subparser in _walk_subparsers(parser):
        subcommands.append(dotted)
        for sub_action in subparser._actions:
            for option in sub_action.option_strings:
                if option in IGNORED_OPTIONS:
                    continue
                options.add(option)
                if dotted.split()[0] in SERVICE_SUBCOMMANDS:
                    service_options.setdefault(option, dotted)
    return subcommands, sorted(options), service_options


def _read(files):
    chunks = []
    for rel in files:
        path = REPO / rel
        if path.exists():
            chunks.append(path.read_text())
    return "\n".join(chunks)


def check_cli(missing):
    subcommands, options, service_options = cli_surface()
    text = _read(DOC_FILES)
    service_text = _read(SERVICE_DOC_FILES)
    for name in subcommands:
        # Subcommands must appear as an invocation, e.g. "repro profile"
        # or "repro client push".
        if not re.search(rf"repro {re.escape(name)}\b", text):
            missing.append(f"subcommand: {name}")
    for option in options:
        if option not in text:
            missing.append(f"option: {option}")
    for option, dotted in sorted(service_options.items()):
        if option not in service_text:
            missing.append(
                f"service option: {option} (of `repro {dotted}`, "
                f"absent from {' / '.join(SERVICE_DOC_FILES)})")
    return len(subcommands), len(options)


def check_service_protocol(missing):
    """SERVICE.md must name the whole wire vocabulary of protocol.py."""
    from repro.service import protocol
    path = REPO / "docs" / "SERVICE.md"
    if not path.exists():
        missing.append("file: docs/SERVICE.md (service protocol "
                       "documentation)")
        return 0
    text = path.read_text()
    checked = 0
    for kind in protocol.MESSAGE_TYPES:
        checked += 1
        if not re.search(rf"`{re.escape(kind)}`", text):
            missing.append(f"SERVICE.md message type: `{kind}`")
    for kind in protocol.QUERY_KINDS:
        checked += 1
        if not re.search(rf"`{re.escape(kind)}`", text):
            missing.append(f"SERVICE.md query kind: `{kind}`")
    for name, code in protocol.ERROR_CODES.items():
        checked += 1
        if name not in text:
            missing.append(f"SERVICE.md error code name: {name}")
        elif not re.search(rf"\b{re.escape(name)}\b[^\n]*\b{code}\b|"
                           rf"\b{code}\b[^\n]*\b{re.escape(name)}\b",
                           text):
            missing.append(f"SERVICE.md error code value: {name} "
                           f"must be listed with its code {code}")
    return checked


def _number_pattern(value) -> str:
    """Regex matching a numeric literal for ``value`` in prose.

    Accepts both spellings of a float (``0.0001`` and ``1e-04`` are
    not interchanged — docs are expected to use the repr) but keeps
    integers exact (``4096`` must not match inside ``14096``).
    """
    text = repr(value)
    if text.endswith(".0"):
        # 1.0 in code may reasonably appear as "1.0" in a table.
        return rf"\b{re.escape(text)}\b"
    return rf"(?<![\d.]){re.escape(text)}(?![\d.])"


def check_metrics_constants(missing):
    """OBSERVABILITY.md must quote the live-metrics constants."""
    from repro.observability import (DEFAULT_CAPACITY, LATENCY_BUCKETS,
                                     METRICS_SCHEMA)
    path = REPO / "docs" / "OBSERVABILITY.md"
    if not path.exists():
        missing.append("file: docs/OBSERVABILITY.md (metrics "
                       "documentation)")
        return 0
    text = path.read_text()
    checked = 0
    for bound in LATENCY_BUCKETS:
        checked += 1
        if not re.search(_number_pattern(bound), text):
            missing.append(f"OBSERVABILITY.md histogram bucket bound: "
                           f"{bound!r}")
    for label, value in (("metrics schema version", METRICS_SCHEMA),
                         ("flight recorder default capacity",
                          DEFAULT_CAPACITY)):
        checked += 1
        if not re.search(_number_pattern(value), text):
            missing.append(f"OBSERVABILITY.md {label}: {value}")
    return checked


#: API.md rows checked by :func:`check_api_members`: the first cell's
#: leading text, and the class whose instance must carry the members.
API_MEMBER_ROWS = (("`Telemetry(", "Telemetry"),
                   ("`NullTelemetry`", "NullTelemetry"),
                   ("`MetricsRegistry(", "MetricsRegistry"))


def check_api_members(missing):
    """API.md's `.member` names must exist on the classes they describe."""
    from repro import observability
    instances = {
        "Telemetry": observability.Telemetry(
            sink=observability.MemorySink()),
        "NullTelemetry": observability.NullTelemetry(),
        "MetricsRegistry": observability.MetricsRegistry(),
    }
    rows = {}
    for line in (REPO / "docs" / "API.md").read_text().splitlines():
        for prefix, name in API_MEMBER_ROWS:
            if line.startswith(f"| {prefix}"):
                rows[name] = line.split("|")[2]
    checked = 0
    for _prefix, name in API_MEMBER_ROWS:
        if name not in rows:
            missing.append(f"API.md row: `{name}`")
            continue
        for member in re.findall(r"`\.([A-Za-z_]\w*)", rows[name]):
            checked += 1
            if not hasattr(instances[name], member):
                missing.append(f"API.md lists `{name}.{member}`, "
                               f"which does not exist")
    return checked


def main() -> int:
    missing = []
    n_sub, n_opt = check_cli(missing)
    n_proto = check_service_protocol(missing)
    n_metrics = check_metrics_constants(missing)
    n_members = check_api_members(missing)
    if missing:
        print("surface missing from the docs "
              f"({', '.join(DOC_FILES)}):", file=sys.stderr)
        for entry in missing:
            print(f"  {entry}", file=sys.stderr)
        return 1
    print(f"docs cover {n_sub} subcommands, {n_opt} options, "
          f"{n_proto} service protocol names, {n_metrics} metrics "
          f"constants, and {n_members} API members")
    return 0


if __name__ == "__main__":
    sys.exit(main())
