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
from bxkit.laws import run_suite
from bxkit.scheme import NoTrace, PostState

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
