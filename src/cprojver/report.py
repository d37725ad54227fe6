"""Check records and the JSON report schema (cproj-report/1).

Reports are deterministic for identical inputs up to the timestamp field:
records keep insertion order, values are rendered to canonical strings.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from . import __version__

SCHEMA = "cproj-report/1"


@dataclass
class Check:
    """One report record.  It passes when `computed` equals `expected`; only
    a record whose verdict is not that equality gives `passed` itself."""

    check: str
    anchor: str
    expected: object
    computed: object
    passed: bool = None
    provenance: str = "definition"
    note: str = ""

    def __post_init__(self):
        if self.passed is None:
            self.passed = self.expected == self.computed

    def as_record(self):
        rec = {
            "check": self.check,
            "anchor": self.anchor,
            "expected": _render(self.expected),
            "computed": _render(self.computed),
            "pass": bool(self.passed),
            "provenance": self.provenance,
        }
        if self.note:
            rec["note"] = self.note
        return rec


def _render(v):
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, int):
        return v
    if isinstance(v, (list, tuple)):
        return [_render(x) for x in v]
    return str(v)


def make_report(command, checks, started):
    return {
        "schema": SCHEMA,
        "tool_version": __version__,
        "command": command,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_time_s": round(time.time() - started, 3),
        "pass": all(c.passed for c in checks),
        "checks": [c.as_record() for c in checks],
    }


def write_report(report, path):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


def print_report(report, stream=None):
    import sys

    stream = stream or sys.stdout
    for rec in report["checks"]:
        status = "PASS" if rec["pass"] else "FAIL"
        line = f"  {status}  {rec['check']}: expected {rec['expected']}, got {rec['computed']}"
        if rec.get("note"):
            line += f"  [{rec['note']}]"
        stream.write(line + "\n")
    stream.write(
        f"{'OK' if report['pass'] else 'FAILED'}: "
        f"{sum(1 for r in report['checks'] if r['pass'])}/{len(report['checks'])} checks "
        f"in {report['wall_time_s']}s\n"
    )
