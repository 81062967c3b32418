"""Signatures, the comparison table, and well-behavedness grades."""
import pytest

from bxkit.catalog import catalog, catalog_entries
from bxkit.classify import (
    NOT_WELL_BEHAVED,
    VERY_WELL_BEHAVED,
    WELL_BEHAVED,
    classify,
    render_report,
    well_behaved,
)
from bxkit.cli import EXIT_OK, main
from bxkit.laws import LawReport, run_suite
from bxkit.scheme import NoTrace, PostState
from bxkit.verdict import Counterexample, Fails, Holds, NotExpressible, WeaklyHolds

GOLDEN_SIGNATURES = {
    "mapping": ("S", "S", "S", "N", "N", "T"),
    "lens": ("A", "S", "S", "S", "N", "T"),
    "maintainer": ("S", "S", "S", "S", "S", "E"),
    "trigonal": ("S", "\U0001d54a", "\U0001d54a", "S", "S", "E"),
    "symmetric-lens": ("S", "S", "S", "C", "C", "I"),
    "edit-lens": ("S", "E", "E", "C", "C", "I"),
    "sdelta-lens": ("S", "D", "D", "D", "D", "E"),
}


def test_signature_golden_set():
    for entry in catalog_entries().values():
        if not entry.canonical:
            continue
        sig = classify(entry.bx)
        assert sig.cells() == GOLDEN_SIGNATURES[entry.framework], entry.bx.name


def test_the_arrows_mirror_each_other_and_the_signature():
    for name, entry in catalog_entries().items():
        arrows = entry.bx.arrows
        to, from_ = arrows["to"], arrows["from"]
        assert (to.name, from_.name) == ("to", "from"), name
        assert arrows[to.back] is from_ and arrows[from_.back] is to, name
        assert to.trace_in is from_.trace_out and to.trace_out is from_.trace_in, name
        assert to.upd_in is from_.upd_out and to.upd_out is from_.upd_in, name
        assert to.domain_in is from_.domain_out and to.domain_out is from_.domain_in, name
        assert to.pair("in", "out") == ("in", "out") and from_.pair("in", "out") == ("out", "in"), name
        sig = classify(entry.bx)
        assert (sig.upd_to, sig.upd_from, sig.trace_to, sig.trace_from) == (
            to.upd_in, from_.upd_in, to.trace_out, from_.trace_out
        ), name


def test_symmetry_is_derived_not_declared():
    sig = classify(catalog("fst-lens").bx)
    assert sig.symmetry == "A"
    assert sig.upd_to is PostState and sig.trace_from is NoTrace
    sig = classify(catalog("key-maintainer").bx)
    assert sig.symmetry == "S"


def test_signature_format_examples():
    assert classify(catalog("key-maintainer").bx).format() == "S | S,S | S,S | E"
    assert classify(catalog("fst-lens").bx).format() == "A | S,S | S,N | T"
    assert classify(catalog("trigonal-key").bx).format() == "S | \U0001d54a,\U0001d54a | S,S | E"


def _entries(names):
    out = []
    for name in names:
        entry = catalog(name)
        out.append((name, classify(entry.bx), run_suite(entry.bx)))
    return out


def test_render_report_arrows():
    table = render_report(_entries(["fst-lens", "uppercase-mapping"]))
    lines = table.splitlines()
    header = lines[0]
    assert header.startswith("name")
    fst_row = next(l for l in lines if l.startswith("fst-lens"))
    # backward stability (the classic GetPut) shows as a left arrow
    columns = fst_row.split()
    stable_index = header.split().index("Stable")
    assert columns[stable_index] == "<-"
    mapping_row = next(l for l in lines if l.startswith("uppercase-mapping"))
    # mappings cannot express stability: blank cell, so fewer columns
    assert " <-> " in mapping_row  # invertibility both ways


_STRONG, _WEAK, _NONE = Holds(1), WeaklyHolds("post-state equality", 1), NotExpressible("none")


@pytest.mark.parametrize(
    "forward, backward, cell",
    [
        (_STRONG, _STRONG, "<->"),
        (_WEAK, _WEAK, "<~>"),
        (_STRONG, _WEAK, "<~>"),
        (_WEAK, _STRONG, "<~>"),
        (_STRONG, _NONE, "->"),
        (_WEAK, _NONE, "~>"),
        (_NONE, _STRONG, "<-"),
        (_NONE, _WEAK, "<~"),
        (_WEAK, None, "~>"),
        (None, _WEAK, "<~"),
        (None, None, ""),
    ],
)
def test_render_report_cell_per_pair_of_verdicts(forward, backward, cell):
    # ``None`` stands for a direction the report has no verdict for.
    given = {("stability", "to"): forward, ("stability", "from"): backward}
    report = LawReport("toy", {key: verdict for key, verdict in given.items() if verdict is not None})
    table = render_report([("toy", classify(catalog("fst-lens").bx), report)])
    header, _, row = table.splitlines()
    start = header.index("Stable")
    assert row[start:start + len("Stable")].strip() == cell


def test_report_of_one_law_fills_only_its_column(capsys):
    assert main(["report", "--laws", "stability"]) == EXIT_OK
    table, grades = capsys.readouterr().out.split("\n\n")
    header, _, *rows = table.splitlines()
    stable = header.index("Stable")
    cells = {row.split()[0]: row[stable:].strip() for row in rows}
    assert cells == {
        name: {"fst-lens": "<-", "const-lens": "<-", "broken-put-lens": "<-"}.get(name, "")
        for name in catalog_entries()
    } | {"trigonal-key": "<->", "list-edit-lens": "<->", "rename-sync": "<->"}
    assert len(grades.splitlines()) == len(catalog_entries())


def test_well_behaved_reads_a_report_missing_laws_and_directions():
    stable = {("stability", "to"): Holds(1), ("stability", "from"): Holds(1)}
    correct = {("correctness", "to"): Holds(1)}
    history = {("history_ignorance", "from"): Holds(1)}
    assert well_behaved(LawReport("toy", stable)) == NOT_WELL_BEHAVED
    assert well_behaved(LawReport("toy", stable | correct)) == WELL_BEHAVED
    assert well_behaved(LawReport("toy", stable | correct | history)) == VERY_WELL_BEHAVED
    counterexample = Counterexample("correctness", "from", "toy", "", "", "", "")
    failed = {("correctness", "from"): Fails(counterexample)}
    assert well_behaved(LawReport("toy", stable | correct | failed)) == NOT_WELL_BEHAVED


def test_render_report_deterministic_and_distinct():
    names = ["fst-lens", "broken-put-lens"]
    once = render_report(_entries(names))
    twice = render_report(_entries(names))
    assert once == twice
    only_good = render_report(_entries(["fst-lens"]))
    only_bad = render_report(_entries(["broken-put-lens"]))
    assert only_good != only_bad


def test_render_report_empty_is_header_only():
    table = render_report([])
    assert len(table.splitlines()) == 2  # header and rule


def test_well_behaved_grades():
    def grade(name):
        entry = catalog(name)
        return well_behaved(run_suite(entry.bx))

    assert grade("fst-lens") == VERY_WELL_BEHAVED
    assert grade("key-maintainer") == WELL_BEHAVED
    assert grade("broken-put-lens") == NOT_WELL_BEHAVED
    assert grade("constant-maintainer") == NOT_WELL_BEHAVED
    assert grade("uppercase-mapping") == WELL_BEHAVED
    assert grade("trigonal-key") == VERY_WELL_BEHAVED
