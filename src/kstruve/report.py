"""Serialization of verification reports: NDJSON, CSV and aligned tables.

All emitters are deterministic (no timestamps, no machine identifiers, dict
order fixed by construction) so repeated runs with identical inputs produce
byte-identical output.  Floats are rendered with ``repr``, i.e. the shortest
string that round-trips, and integral values are printed without a trailing
``.0`` in human-facing output.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

from .results import IdentityReport, Verdict

_FIELDS = (
    "lhs",
    "lhs_err",
    "rhs_paper",
    "rhs_corrected",
    "rel_dev_paper",
    "rel_dev_corrected",
)

# verdicts that count as success for exit-code purposes
PASSING = frozenset({Verdict.BOTH_AGREE, Verdict.CONFIRMED_CORRECTED})


def format_number(value: float) -> str:
    """Shortest faithful rendering; integral doubles drop the '.0'."""
    if isinstance(value, float) and math.isfinite(value) and value == int(value):
        if abs(value) < 1e16:
            return str(int(value))
    return repr(value)


def record(identity: str, params: Mapping[str, float], report: IdentityReport) -> dict:
    """Flatten one report into the wire schema used by every emitter."""
    rec = {
        "identity": identity,
        "params": {key: float(val) for key, val in params.items()},
        "lhs": report.lhs_value,
        "lhs_err": report.lhs_error_estimate,
        "rhs_paper": report.rhs_paper,
        "rhs_corrected": report.rhs_corrected,
        "rel_dev_paper": report.rel_dev_paper,
        "rel_dev_corrected": report.rel_dev_corrected,
        "verdict": report.verdict.value,
        "strict": report.strict_hypotheses,
    }
    if report.error is not None:
        rec["error"] = report.error
    return rec


def summarize(records: Iterable[dict]) -> dict:
    """Verdict tally plus the overall pass flag."""
    counts: dict[str, int] = {}
    total = 0
    passed = 0
    for rec in records:
        total += 1
        verdict = rec["verdict"]
        counts[verdict] = counts.get(verdict, 0) + 1
        if Verdict(verdict) in PASSING:
            passed += 1
    return {
        "total": total,
        "verdicts": {k: counts[k] for k in sorted(counts)},
        "all_confirmed": total > 0 and passed == total,
    }


def emit_json(records: list[dict], stream) -> None:
    """One compact JSON object per record, then a summary line."""
    import json  # here, not at the top: only --format json reads it

    for rec in records:
        stream.write(json.dumps(rec, separators=(", ", ": ")) + "\n")
    stream.write(json.dumps({"summary": summarize(records)}, separators=(", ", ": ")) + "\n")


def emit_csv(records: list[dict], stream) -> None:
    """Flat CSV with one row per record; params are spread into columns."""
    if not records:
        return
    import csv  # here, not at the top: only --format csv reads it

    param_keys = list(records[0]["params"].keys())
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["identity", *param_keys, *_FIELDS, "verdict", "strict", "error"])
    for rec in records:
        row = [rec["identity"]]
        row += [format_number(rec["params"][key]) for key in param_keys]
        for field in _FIELDS:
            value = rec[field]
            row.append("" if value is None else repr(value))
        row += [rec["verdict"], str(rec["strict"]), rec.get("error", "")]
        writer.writerow(row)


def emit_table(records: list[dict], stream) -> None:
    """Human-oriented aligned table with a trailing summary line."""
    if not records:
        stream.write("no records\n")
        return
    param_keys = list(records[0]["params"].keys())
    header = ["identity", *param_keys, "lhs", "dev_paper", "dev_corrected", "verdict"]
    rows = []
    for rec in records:
        cells = [rec["identity"]]
        cells += [format_number(rec["params"][key]) for key in param_keys]
        for field in ("lhs", "rel_dev_paper", "rel_dev_corrected"):
            value = rec[field]
            cells.append("-" if value is None else f"{value:.6e}")
        cells.append(rec["verdict"] if rec.get("error") is None else f"{rec['verdict']}!")
        rows.append(cells)
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    stream.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    for cells in rows:
        stream.write("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip() + "\n")
    summary = summarize(records)
    tally = ", ".join(f"{k}={v}" for k, v in summary["verdicts"].items())
    flag = "ok" if summary["all_confirmed"] else "FAILED"
    stream.write(f"summary: {summary['total']} points ({tally}) -> {flag}\n")
