"""Structured pass/fail reports shared by the verification and MC suites.

A report is a named collection of cases; every case carries the value it
measured, the target it was measured against, the deviation between the
two, and the tolerance the deviation must stay under.  A report passes
exactly when every case does.  Serialization is deterministic: identical
inputs produce byte-identical JSON (wall time is kept out of the payload
unless explicitly requested).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


def scaled_gap(value: float, target: float) -> float:
    """|value - target| / max(1, |value|, |target|)."""
    return abs(value - target) / max(1.0, abs(value), abs(target))


@dataclass(frozen=True)
class CaseResult:
    """One measured quantity compared against its target."""

    name: str
    target: float
    value: float
    deviation: float
    tolerance: float
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance

    def to_json_dict(self) -> dict:
        d = {
            "name": self.name,
            "target": self.target,
            "value": self.value,
            "deviation": self.deviation,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        for key in sorted(self.extra):
            d[key] = self.extra[key]
        return d


def scaled_case(name: str, value: float, target: float,
                tolerance: float) -> CaseResult:
    """Case whose deviation is the magnitude-scaled gap to the target."""
    return CaseResult(name, float(target), float(value),
                      scaled_gap(float(value), float(target)), float(tolerance))


def absolute_case(name: str, value: float, target: float,
                  tolerance: float, **extra) -> CaseResult:
    """Case whose deviation is the absolute gap (MC bands are absolute)."""
    return CaseResult(name, float(target), float(value),
                      abs(float(value) - float(target)),
                      float(tolerance), dict(extra))


@dataclass(frozen=True)
class RunReport:
    """Outcome of one suite: ordered cases plus the seed that drove them."""

    suite: str
    cases: tuple[CaseResult, ...]
    seed: int
    wall_time: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cases", tuple(self.cases))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def max_deviation(self) -> float:
        return max((c.deviation for c in self.cases), default=0.0)

    def to_json_dict(self, timing: bool = False) -> dict:
        d = {
            "suite": self.suite,
            "seed": self.seed,
            "pass": self.passed,
            "max_deviation": self.max_deviation,
            "cases": [c.to_json_dict() for c in self.cases],
        }
        if timing and self.wall_time is not None:
            d["wall_time"] = self.wall_time
        return d


def combine_reports(reports: list[RunReport], seed: int,
                    timing: bool = False) -> dict:
    """Multi-suite payload, suites ordered by name."""
    ordered = sorted(reports, key=lambda r: r.suite)
    return {
        "seed": seed,
        "pass": all(r.passed for r in ordered),
        "suites": [r.to_json_dict(timing) for r in ordered],
    }


def to_json(payload: dict) -> str:
    """Strict RFC 8259 JSON: a NaN or infinite number raises ValueError."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "PASS" if x else "FAIL"
    if isinstance(x, float):
        return format(x, ".6g")
    return str(x)


def align_columns(rows) -> list[str]:
    """Each row with its cells padded to the width of their column, two
    spaces apart, trailing blanks dropped; a row may be short of cells."""
    widths = [max(len(r[k]) for r in rows if k < len(r))
              for k in range(max(map(len, rows)))]
    return ["  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip()
            for r in rows]


def render_pretty(payload: dict) -> str:
    """Human-readable table for a single- or multi-suite payload."""
    suites = payload.get("suites", [payload]) if "suite" not in payload \
        else [payload]
    lines = []
    for s in suites:
        lines.append(f"suite {s['suite']}  seed {s['seed']}  "
                     f"{_fmt(bool(s['pass']))}")
        rows = [("case", "value", "target", "deviation", "tolerance", "status")]
        for c in s["cases"]:
            rows.append((c["name"], _fmt(c["value"]), _fmt(c["target"]),
                         _fmt(c["deviation"]), _fmt(c["tolerance"]),
                         _fmt(bool(c["pass"]))))
        lines.extend("  " + line for line in align_columns(rows))
        if "wall_time" in s:
            lines.append(f"  wall_time {s['wall_time']:.3f}s")
        lines.append("")
    if "suites" in payload:
        lines.append(f"overall {_fmt(bool(payload['pass']))}")
        lines.append("")
    return "\n".join(lines)
