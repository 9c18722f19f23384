"""The bloat report: one set of computed sections, two views.

§3.2 notes the analyses "could be easily migrated to an offline heap
analysis tool"; saved profiles travel (format v2 carries the tracker
state), and this module turns one into the document a developer acts
on — without touching the Python API:

.. code-block:: text

    python -m repro profile prog.mj --save-graph g.json --self-profile
    python -m repro report g.json prog.mj -o bloat.md

Sections: run summary (graph size, CR), the top cost-benefit
offenders (§3.1's ranking), the HRAC / HRAB field tables
(Definitions 5-6), dead-value metrics (Table 1c), and the tracker
overhead summary when the profile was taken with ``--self-profile``.
:class:`BloatReport` computes each section once, on first use, as raw
values; the Markdown view (:func:`render_bloat_report`), the JSON view
(:func:`bloat_report_data`) and the daemon's ``report``/``rac``/
``rab``/``bloat`` queries all format those same values, so a query
that needs one section computes only that section.  All analysis
answers come from the batched slicing engine
(:func:`repro.analyses.batch.engine_for`), so the report renders in
one pass even on merged multi-shard graphs.
"""

from __future__ import annotations

from functools import cached_property

_INF = float("inf")

#: JSON rounding per section (the ranked sections are cut to ``top``).
_JSON_DIGITS = {"summary": 6, "cost_benefit": 4, "hrac": 4, "hrab": 4,
                "dead_values": 6}


def _md(value, digits: int = 1) -> str:
    """Markdown cell rendering with the paper's ``inf`` convention."""
    if value is None:
        return "—"
    if isinstance(value, float):
        if value == _INF:
            return "inf"
        return f"{value:.{digits}f}"
    return str(value)


def _table(headers, rows) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def _json(value, digits: int):
    """JSON view of a raw section value: floats rounded to ``digits``,
    infinity as the string ``"inf"`` (JSON has no infinity literal)."""
    if isinstance(value, dict):
        return {key: _json(item, digits) for key, item in value.items()}
    if isinstance(value, list):
        return [_json(item, digits) for item in value]
    if isinstance(value, float):
        return "inf" if value == _INF else round(value, digits)
    return value


class BloatReport:
    """The sections of one profile's bloat report, as raw values.

    ``graph``/``meta``/``state`` are exactly what
    :func:`repro.profiler.load_profile` returns; ``state`` may be
    ``None`` for v1 (graph-only) profiles.  ``program`` is needed only
    by the sections that name allocation sites (``cost_benefit``,
    ``hrac``, ``hrab``).  Each section is a cached property, so it is
    computed at most once per report and only when asked for; the
    ranked sections hold every row and the views cut them to ``top``.
    """

    def __init__(self, graph, meta, state, program, top: int = 10):
        self.graph = graph
        self.meta = meta
        self.state = state
        self.program = program
        self.top = top

    @cached_property
    def engine(self):
        from ..analyses.batch import engine_for
        return engine_for(self.graph)

    @cached_property
    def summary(self) -> dict:
        graph, meta = self.graph, self.meta
        self.engine             # memory_bytes counts the frozen CSR too
        return {
            "label": meta.get("label", ""),
            "instructions": meta.get("instructions", 0) or None,
            "slots": graph.slots,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "ref_edges": len(graph.ref_edges),
            "memory_bytes": graph.memory_bytes(),
            "conflict_ratio": (self.state.conflict_ratio(graph)
                               if self.state is not None else None),
            "runs": meta.get("runs"),
        }

    @cached_property
    def cost_benefit(self) -> list:
        """§3.1's per-site ranking, worst offenders first."""
        from ..analyses import analyze_cost_benefit
        return [{"rank": rank, "site": report.what,
                 "method": report.method, "line": report.line,
                 "n_rac": report.n_rac, "n_rab": report.n_rab,
                 "ratio": report.ratio, "contexts": report.contexts}
                for rank, report in enumerate(
                    analyze_cost_benefit(self.graph, self.program),
                    start=1)]

    @cached_property
    def hrac(self) -> list:
        """Costliest fields first (Definition 5)."""
        return self._fields(self.engine.field_racs(), reverse=True)

    @cached_property
    def hrab(self) -> list:
        """Least-beneficial fields first (Definition 6)."""
        return self._fields(self.engine.field_rabs(), reverse=False)

    def _fields(self, field_map, reverse: bool) -> list:
        """Field rows from a ``(alloc_key, field) -> value`` map, summed
        over context slots per ``(site, field)``."""
        from ..analyses.costbenefit import _site_descriptions
        descriptions = _site_descriptions(self.program)
        merged = {}
        for (alloc_key, field), value in field_map.items():
            entry = merged.setdefault((alloc_key[0], field), [0, 0])
            entry[0] += value               # inf absorbs any sum
            entry[1] += 1
        ranked = sorted(merged.items(),
                        key=lambda item: (item[1][0] == _INF, item[1][0]),
                        reverse=reverse)
        rows = []
        for (iid, field), (value, contexts) in ranked:
            what, method, line = descriptions.get(iid, ("?", "?", 0))
            rows.append({"field": f"{what}.{field}", "method": method,
                         "line": line, "contexts": contexts,
                         "value": value})
        return rows

    @cached_property
    def dead_values(self):
        """Table 1c's IPD/IPP/NLD fractions, or None without an
        instruction count."""
        instructions = self.meta.get("instructions", 0)
        if not instructions:
            return None
        from ..analyses import measure_bloat
        metrics = measure_bloat(self.graph, instructions)
        return {"ipd": metrics.ipd, "ipp": metrics.ipp, "nld": metrics.nld}

    # -- JSON view ------------------------------------------------------------

    def section_data(self, name: str):
        """One section in its JSON form (``name`` is a key of
        :meth:`data`, overhead and trace aside)."""
        section = getattr(self, name)
        if isinstance(section, list):
            section = section[:self.top]
        return _json(section, _JSON_DIGITS[name])

    def data(self) -> dict:
        """The whole report as a machine-readable dict."""
        data = {name: self.section_data(name) for name in _JSON_DIGITS}
        overhead = self.meta.get("overhead")
        data["overhead"] = dict(overhead) if overhead else None
        if self.meta.get("trace"):
            data["trace"] = dict(self.meta["trace"])
        return data

    # -- Markdown view --------------------------------------------------------

    def markdown(self) -> str:
        """The whole report as a Markdown document."""
        from .overhead import overhead_from_dict

        meta, top, summary = self.meta, self.top, self.summary
        out = ["# Bloat report", ""]
        if summary["label"]:
            out += [f"Profile `{summary['label']}`", ""]
        if meta.get("output") is not None:
            out += [f"Program output: "
                    f"`{meta['output'].strip() or '(none)'}`", ""]

        cr = summary["conflict_ratio"]
        rows = [
            ("instructions executed", summary["instructions"] or "n/a"),
            ("context slots (s)", summary["slots"]),
            ("Gcost nodes", summary["nodes"]),
            ("Gcost edges", summary["edges"]),
            ("reference edges", summary["ref_edges"]),
            ("graph memory (approx.)",
             f"{summary['memory_bytes'] / 1024:.1f} KiB"),
            ("context conflict ratio (CR)",
             f"{cr:.3f}" if cr is not None else
             "n/a (v1 profile — re-profile to capture tracker state)"),
        ]
        if summary["runs"]:
            rows.insert(1, ("aggregated runs", summary["runs"]))
        out += ["## Run summary", "", _table(("metric", "value"), rows), ""]

        out += ["## Top cost-benefit offenders", ""]
        if self.cost_benefit:
            out += [_table(
                ("#", "site", "where", "n-RAC", "n-RAB", "C/B",
                 "contexts"),
                [(row["rank"], f"`{row['site']}`",
                  f"{row['method']} (line {row['line']})",
                  _md(row["n_rac"]), _md(row["n_rab"]), _md(row["ratio"]),
                  row["contexts"]) for row in self.cost_benefit[:top]]),
                "", "High C/B means expensive to build relative to the "
                "benefit its consumers ever extract (C/B `inf` = no "
                "benefit at all; n-RAB `inf` = the structure reaches "
                "program output, so its benefit is unbounded)."]
        else:
            out.append("*(no data-structure activity observed)*")
        out.append("")

        for title, rows, column, note, empty in (
                ("Costliest fields (HRAC, Definition 5)", self.hrac,
                 "RAC", [], "*(no tracked field stores)*"),
                ("Least-beneficial fields (HRAB, Definition 6)",
                 self.hrab, "RAB",
                 ["", "RAB 0 fields are pure cost; `inf` fields reach "
                  "program output and are untouchable."],
                 "*(no tracked field loads)*")):
            out += [f"## {title}", ""]
            if rows:
                out += [_table(("field", "written in", "contexts", column),
                               [(f"`{row['field']}`",
                                 f"{row['method']} (line {row['line']})",
                                 row["contexts"], _md(row["value"]))
                                for row in rows[:top]]), *note]
            else:
                out.append(empty)
            out.append("")

        out += ["## Dead-value metrics (Table 1c analogues)", ""]
        dead = self.dead_values
        if dead is not None:
            out.append(_table(("metric", "value", "meaning"), [
                (name.upper(), f"{dead[name] * 100:.1f}%", meaning)
                for name, meaning in (
                    ("ipd", "instructions producing ultimately-dead values"),
                    ("ipp", "instructions feeding only predicates"),
                    ("nld", "allocation sites whose objects carry dead "
                            "values"))]))
        else:
            out.append("*(profile meta lacks the instruction count — "
                       "re-save with `--save-graph` from `profile`)*")
        out.append("")

        out += ["## Tracker overhead", ""]
        if meta.get("overhead"):
            report = overhead_from_dict(meta["overhead"])
            out += [_table(
                ("metric", "value"),
                [("untracked wall", f"{report.untracked_wall:.3f} s"),
                 ("tracked wall", f"{report.tracked_wall:.3f} s"),
                 ("overhead", f"{report.overhead:.1f}x"),
                 ("instructions", report.instructions),
                 ("measurement repeats", report.repeats)]),
                "", "The reproduction's analogue of the paper's Table-1 "
                "overhead column: wall time under the cost tracker "
                "relative to the bare interpreter."]
        else:
            out.append("*(not recorded — profile with `--self-profile` to "
                       "capture the tracked/untracked ratio)*")
        out.append("")
        return "\n".join(out)


def bloat_report_data(graph, meta, state, program, top: int = 10) -> dict:
    """The bloat report as a machine-readable dict (``report --format
    json``): :meth:`BloatReport.data`."""
    return BloatReport(graph, meta, state, program, top).data()


def render_bloat_report(graph, meta, state, program, top: int = 10) -> str:
    """The full Markdown bloat report for one saved profile
    (:meth:`BloatReport.markdown`); a v1 profile's ``None`` state makes
    the CR line say so instead of failing."""
    return BloatReport(graph, meta, state, program, top).markdown()
