"""Machine-readable report emission: CSV and JSON, byte-stable for fixed inputs.

All floating-point values are serialized with 17 significant digits, enough to
round-trip IEEE doubles.  The ``runtime_ms`` column is serialized as 0 so that
re-running a suite with the same seeds produces byte-identical files; measured
wall-clock lives on the in-memory verdict objects and in the CLI's stderr log.
"""

from __future__ import annotations

import io
import json

from .runner import ComparisonVerdict

CSV_COLUMNS = [
    "scenario",
    "theorem",
    "hypothesis_flags",
    "conclusion_held",
    "worst_violation",
    "witness",
    "depth",
    "seed",
    "runtime_ms",
]
# JSON numbers and booleans, emitted unquoted
_RAW_JSON = {"conclusion_held", "worst_violation", "depth", "seed", "runtime_ms"}


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _rows(verdicts: list[ComparisonVerdict]) -> list[dict[str, str]]:
    rows = []
    for v in sorted(verdicts, key=lambda v: v.scenario):
        rows.append(
            {
                "scenario": v.scenario,
                "theorem": v.theorem,
                "hypothesis_flags": v.hypotheses.flags_string(),
                "conclusion_held": "true" if v.conclusion_held else "false",
                "worst_violation": _fmt_float(v.worst_violation),
                "witness": v.witness,
                "depth": str(v.depth),
                "seed": str(v.seed),
                "runtime_ms": _fmt_float(0.0),
            }
        )
    return rows


def render_report(verdicts: list[ComparisonVerdict], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(",".join(CSV_COLUMNS) + "\n")
        for row in _rows(verdicts):
            cells = []
            for col in CSV_COLUMNS:
                cell = row[col]
                if "," in cell or '"' in cell:
                    cell = '"' + cell.replace('"', '""') + '"'
                cells.append(cell)
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()
    if fmt == "json":
        out = []
        for row in _rows(verdicts):
            parts = []
            for col in CSV_COLUMNS:
                if col in _RAW_JSON:
                    parts.append(f'"{col}": {row[col]}')
                else:
                    parts.append(f'"{col}": {json.dumps(row[col])}')
            out.append("  {" + ", ".join(parts) + "}")
        return "[\n" + ",\n".join(out) + "\n]\n"
    raise ValueError(f"unknown report format {fmt!r}")


def emit_report(verdicts: list[ComparisonVerdict], fmt: str, path: str) -> None:
    if not verdicts:
        raise ValueError("nothing to report")
    text = render_report(verdicts, fmt)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
