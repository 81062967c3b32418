"""Scheme signatures, comparison-table rendering, and well-behavedness.

A signature places a transformation on the comparison axes: symmetry,
update representation per direction, trace representation per direction,
and how the consistency relation is given.  Symmetry is derived from the
representation classes, never declared.  The report renderer prints one row
per transformation with ASCII arrows: ``->`` when a law holds forward,
``<-`` backward, ``<->`` both, ``~>``/``<~`` for weak variants, and a
blank cell when a law fails or cannot be expressed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .frameworks import Bx
from .scheme import Traceability, Update
from .verdict import Verdict

if TYPE_CHECKING:
    from .laws import LawReport


@dataclass(frozen=True)
class SchemeSignature:
    symmetry: str
    upd_to: type[Update]
    upd_from: type[Update]
    trace_to: type[Traceability]
    trace_from: type[Traceability]
    consistency_kind: str

    def cells(self) -> tuple[str, ...]:
        """The six axes as text: symmetry, the paper's letters of the four
        representations, and the consistency kind."""
        representations = (self.upd_to, self.upd_from, self.trace_to, self.trace_from)
        return (self.symmetry, *(cls.symbol for cls in representations), self.consistency_kind)

    def format(self) -> str:
        symmetry, upd_to, upd_from, trace_to, trace_from, kind = self.cells()
        return f"{symmetry} | {upd_to},{upd_from} | {trace_to},{trace_from} | {kind}"


def classify(bx: Bx) -> SchemeSignature:
    """Read a transformation's signature off its declared representations."""
    return SchemeSignature(
        symmetry=bx.symmetry,
        upd_to=bx.upd_to,
        upd_from=bx.upd_from,
        trace_to=bx.trace_to,
        trace_from=bx.trace_from,
        consistency_kind=bx.consistency_kind,
    )


_REPORT_LAWS = (
    ("stability", "Stable"),
    ("invertibility", "Invert"),
    ("convergence", "Converg"),
    ("undoability", "Undo"),
    ("history_ignorance", "HistIgn"),
    ("correctness", "Correct"),
    ("hippocraticness", "Hippocr"),
    ("least_update", "Least"),
    ("totality", "Total"),
    ("safety", "Safe"),
)


def _arrow_cell(report: "LawReport", law: str) -> str:
    def mark(direction: str) -> str:
        verdict = report.verdicts.get((law, direction))
        if verdict is None:
            return ""
        if verdict.kind == Verdict.HOLDS:
            return "strong"
        if verdict.kind == Verdict.WEAKLY_HOLDS:
            return "weak"
        return ""

    forward, backward = mark("to"), mark("from")
    if forward == "strong" and backward == "strong":
        return "<->"
    if forward and backward:
        return "<~>"
    if forward == "strong":
        return "->"
    if forward == "weak":
        return "~>"
    if backward == "strong":
        return "<-"
    if backward == "weak":
        return "<~"
    return ""


def render_report(entries: Iterable[tuple[str, SchemeSignature, "LawReport"]]) -> str:
    """Fixed-width comparison table, one row per transformation."""
    headers = ["name", "sym", "U>", "U<", "T>", "T<", "R"] + [label for _, label in _REPORT_LAWS]
    rows: list[list[str]] = []
    for name, signature, report in entries:
        row = [name, *signature.cells()]
        row.extend(_arrow_cell(report, law) for law, _ in _REPORT_LAWS)
        rows.append(row)
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))).rstrip(),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


WELL_BEHAVED = "well-behaved"
VERY_WELL_BEHAVED = "very-well-behaved"
NOT_WELL_BEHAVED = "not-well-behaved"
NOT_GRADED = "not-graded"


def well_behaved(report: "LawReport") -> str:
    """Classify a transformation from its law report.

    Well-behaved means at least stable and correct.  Where stability is
    not expressible, hippocraticness (its stronger form) stands in; a
    stand-in caps the grade at well-behaved even when history-ignorance
    also holds, since the genuinely stable-and-history-ignorant reading
    is what earns very-well-behaved.  A report with no verdict in either
    direction for a law the grade reads (stability and correctness, the
    stand-in where it stands in, then history ignorance once those hold)
    is not graded: a law left unchecked neither holds nor fails.
    """

    def kinds(law: str) -> list[str]:
        verdicts = (report.verdicts.get((law, direction)) for direction in ("to", "from"))
        return [verdict.kind for verdict in verdicts if verdict is not None]

    def satisfied(law: str) -> tuple[bool, bool]:
        """(no failures among expressible directions, holds somewhere)"""
        ks = kinds(law)
        expressible = [k for k in ks if k != Verdict.NOT_EXPRESSIBLE]
        failed = any(k == Verdict.FAILS for k in expressible)
        held = any(k == Verdict.HOLDS for k in expressible)
        return (not failed, held)

    if not (kinds("stability") and kinds("correctness")):
        return NOT_GRADED
    stable_ok, stable_held = satisfied("stability")
    if all(k == Verdict.NOT_EXPRESSIBLE for k in kinds("stability")):
        if not kinds("hippocraticness"):
            return NOT_GRADED
        stable_ok, _ = satisfied("hippocraticness")  # a stand-in never counts as genuine stability
    correct_ok, correct_held = satisfied("correctness")
    if not (stable_ok and correct_ok and correct_held):
        return NOT_WELL_BEHAVED
    if not kinds("history_ignorance"):
        return NOT_GRADED
    history_ok, history_held = satisfied("history_ignorance")
    if stable_held and history_ok and history_held:
        return VERY_WELL_BEHAVED
    return WELL_BEHAVED
