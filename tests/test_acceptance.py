"""Acceptance criteria, one test per criterion.

Each test prints a single pass line once its assertions went through, so
``pytest -s tests/test_acceptance.py`` reads as a checklist.  Everything
is bounded-exhaustive over the catalog's finite domains and the whole
module is expected to finish in well under a minute.
"""
import time

import pytest

from bxkit.values import (
    atoms,
    diff,
    enumerate_values,
    pairs_of,
    seqs_of,
)
from bxkit.scheme import (
    BothStates,
    DeltaUpdate,
    Edits,
    StateEdits,
    apply_ops,
    compose_updates,
    delta_of,
    enumerate_op_sequences,
    identity_update,
    invert_update,
    rho_of,
)
from bxkit.catalog import catalog, catalog_entries, catalog_names
from bxkit.classify import classify
from bxkit.cli import EXIT_LAW_FAILURE, EXIT_OK, EXIT_UNDEFINED, main as cli_main
from bxkit.grammar import parse_trace, parse_update, parse_value, render_trace, render_update, render_value
from bxkit.laws import (
    LawSuiteConfig,
    audit_incidence,
    consistent_cases,
    run_suite,
    _Run,
    _realize_arrow,
)
from bxkit.verdict import Fails, Verdict

_START = time.monotonic()

HOLDS = Verdict.HOLDS
NE = Verdict.NOT_EXPRESSIBLE


def _passed(number: int, message: str) -> None:
    elapsed = time.monotonic() - _START
    print(f"[acceptance] criterion {number}: PASS ({message}; {elapsed:.1f}s elapsed)")


@pytest.fixture(scope="module")
def reports():
    return {name: run_suite(catalog(name).bx) for name in catalog_names()}


def test_criterion_1_law_suite_golden_verdicts(reports):
    expectations = {
        "fst-lens": {
            ("stability", "from"): HOLDS,        # GetPut
            ("invertibility", "from"): HOLDS,    # PutGet
            ("history_ignorance", "from"): HOLDS,  # PutPut
            ("undoability", "from"): HOLDS,
            ("totality", "to"): HOLDS,
            ("totality", "from"): HOLDS,
        },
        "uppercase-mapping": {
            ("invertibility", "to"): HOLDS,
            ("invertibility", "from"): HOLDS,
            ("stability", "to"): NE,
            ("stability", "from"): NE,
            ("undoability", "to"): NE,
            ("undoability", "from"): NE,
            ("hippocraticness", "to"): NE,
            ("hippocraticness", "from"): NE,
            ("history_ignorance", "to"): HOLDS,
            ("history_ignorance", "from"): HOLDS,
        },
        "key-maintainer": {
            ("correctness", "to"): HOLDS,
            ("correctness", "from"): HOLDS,
            ("hippocraticness", "to"): HOLDS,
            ("hippocraticness", "from"): HOLDS,
            ("stability", "to"): NE,
            ("stability", "from"): NE,
        },
        "trigonal-key": {
            (law, direction): HOLDS
            for law in (
                "stability",
                "invertibility",
                "undoability",
                "history_ignorance",
                "correctness",
                "hippocraticness",
            )
            for direction in ("to", "from")
        },
        "list-edit-lens": {
            ("stability", "to"): HOLDS,
            ("stability", "from"): HOLDS,
            ("convergence", "to"): HOLDS,
            ("convergence", "from"): HOLDS,
        },
    }
    for name, table in expectations.items():
        report = reports[name]
        for (law, direction), expected_kind in table.items():
            got = report.kind(law, direction)
            assert got == expected_kind, (name, law, direction, got, expected_kind)
    _passed(1, "golden verdicts across the five pinned catalog entries")


def test_criterion_2_incidence_conditions_zero_failures():
    total = 0
    for name in catalog_names():
        verdict = audit_incidence(catalog(name).bx, LawSuiteConfig())
        assert not isinstance(verdict, Fails), (name, verdict)
        total += getattr(verdict, "cases_checked", 0)
    assert total > 500
    _passed(2, f"{total} defined invocations audited with zero endpoint violations")


def test_criterion_3_degeneracy_for_transformation_consistency(reports):
    checked = 0
    for name in catalog_names():
        entry = catalog(name)
        if entry.bx.consistency_kind != "T":
            continue
        report = reports[name]
        for direction in ("to", "from"):
            assert report.kind("correctness", direction) == report.kind("invertibility", direction)
            assert report.kind("hippocraticness", direction) == report.kind("stability", direction)
            checked += 1
    assert checked >= 10  # five transformation-valued entries, two directions
    _passed(3, f"degeneracy verified on {checked} entry-directions")


def test_criterion_4_entailment_theorems(reports):
    for name, report in reports.items():
        assert report.meta_errors == (), (name, report.meta_errors)
        for direction in ("to", "from"):
            stab = report.kind("stability", direction)
            hist = report.kind("history_ignorance", direction)
            undo = report.kind("undoability", direction)
            if stab == HOLDS and hist == HOLDS:
                assert undo == HOLDS, (name, direction)
            least = report.kind("least_update", direction)
            hip = report.kind("hippocraticness", direction)
            if least == HOLDS:
                assert hip != Verdict.FAILS, (name, direction)
    _passed(4, "stability+history entail undoability; least-update subsumes hippocraticness")


def test_criterion_5_classifier_golden_set():
    golden = {
        "mapping": "S | S,S | N,N | T",
        "lens": "A | S,S | S,N | T",
        "maintainer": "S | S,S | S,S | E",
        "trigonal": "S | \U0001d54a,\U0001d54a | S,S | E",
        "symmetric-lens": "S | S,S | C,C | I",
        "edit-lens": "S | E,E | C,C | I",
        "sdelta-lens": "S | D,D | D,D | E",
    }
    seen = {}
    for entry in catalog_entries().values():
        if entry.canonical:
            seen[entry.framework] = classify(entry.bx).format()
    assert seen == golden
    _passed(5, "all seven framework signatures reproduced exactly")


def test_criterion_6_algebra_suite():
    pair_domain = pairs_of(atoms(0, 1, 2, 3), atoms(0, 1, 2, 3))
    seq_domain = seqs_of(atoms(0, 1, 2), 2)
    values = enumerate_values(pair_domain)

    both = [BothStates(a, b) for a in values for b in values]
    deltas = [DeltaUpdate(a, b, diff(a, b)) for a in values for b in values]
    edits = []
    state_edits = []
    for start in enumerate_values(seq_domain):
        for ops in enumerate_op_sequences(start, seq_domain, 2):
            edits.append((start, Edits(ops)))
            state_edits.append(StateEdits(start, ops))
    for universe in (both, deltas, edits, state_edits):
        assert len(universe) >= 100

    # involution
    for u in both + deltas + state_edits:
        assert invert_update(invert_update(u)) == u
    for start, u in edits:
        assert invert_update(invert_update(u)) == u
        after = apply_ops(u.ops, start)
        assert apply_ops(invert_update(u).ops, after) == start

    # seam laws over all composable chains
    seams = 0
    for u1 in both:
        for c in values:
            composite = compose_updates(BothStates(rho_of(u1), c), u1)
            assert delta_of(composite) == delta_of(u1) and rho_of(composite) == c
            seams += 1
    for u1 in deltas[: len(values) * 4]:
        for c in values[:4]:
            second = DeltaUpdate(rho_of(u1), c, diff(rho_of(u1), c))
            composite = compose_updates(second, u1)
            assert delta_of(composite) == delta_of(u1) and rho_of(composite) == c

    # identity laws
    for u in both:
        assert compose_updates(u, identity_update(delta_of(u), BothStates)) == u
        assert compose_updates(identity_update(rho_of(u), BothStates), u) == u
    for u in deltas:
        assert compose_updates(u, identity_update(delta_of(u), DeltaUpdate)) == u
        assert compose_updates(identity_update(rho_of(u), DeltaUpdate), u) == u
    for _start, u in edits:
        assert compose_updates(u, Edits(())) == u
        assert compose_updates(Edits(()), u) == u

    # null updates project equally on both ends
    for v in values[:8]:
        for repr in (BothStates, DeltaUpdate, StateEdits):
            null = identity_update(v, repr)
            assert delta_of(null) == rho_of(null) == v

    sizes = (len(both), len(deltas), len(edits), len(state_edits))
    _passed(6, f"involution/seam/identity over universes of sizes {sizes}, {seams} seams")


def _replay(capsys, bx_name: str, counterexample) -> None:
    argv = [
        "apply",
        "--bx", bx_name,
        "--dir", counterexample.direction,
        "--update", counterexample.update,
        "--trace", counterexample.trace,
    ]
    code = cli_main(argv)
    captured = capsys.readouterr()
    if counterexample.observed == "undefined":
        assert code == EXIT_UNDEFINED
    else:
        assert code == EXIT_OK
        update_line, trace_line = captured.out.strip().splitlines()
        assert f"{update_line} | {trace_line}" == counterexample.observed
        assert counterexample.observed != counterexample.expected


def test_criterion_7_negative_examples_and_exit_codes(capsys):
    # broken put: invertibility failure, exit 3, replayable
    code = cli_main(["check", "--bx", "broken-put-lens", "--laws", "invertibility"])
    capsys.readouterr()
    assert code == EXIT_LAW_FAILURE
    report = run_suite(catalog("broken-put-lens").bx, LawSuiteConfig(laws=("invertibility",)))
    (cex,) = [v.counterexample for v in report.verdicts.values() if isinstance(v, Fails)]
    _replay(capsys, "broken-put-lens", cex)

    # constant repair: hippocraticness failure
    code = cli_main(["check", "--bx", "constant-maintainer", "--laws", "hippocraticness"])
    capsys.readouterr()
    assert code == EXIT_LAW_FAILURE
    report = run_suite(
        catalog("constant-maintainer").bx, LawSuiteConfig(laws=("hippocraticness",))
    )
    failures = [v.counterexample for v in report.verdicts.values() if isinstance(v, Fails)]
    assert failures
    _replay(capsys, "constant-maintainer", failures[0])

    # oscillating toy: convergence failure
    code = cli_main(["check", "--bx", "oscillating-toy", "--laws", "convergence"])
    capsys.readouterr()
    assert code == EXIT_LAW_FAILURE
    report = run_suite(catalog("oscillating-toy").bx, LawSuiteConfig(laws=("convergence",)))
    failures = [v.counterexample for v in report.verdicts.values() if isinstance(v, Fails)]
    assert failures
    _replay(capsys, "oscillating-toy", failures[0])

    # embed mapping: fails totality, passes safety, undefined input exits 2
    code = cli_main(["check", "--bx", "embed-mapping", "--laws", "totality"])
    capsys.readouterr()
    assert code == EXIT_LAW_FAILURE
    code = cli_main(["check", "--bx", "embed-mapping", "--laws", "safety"])
    capsys.readouterr()
    assert code == EXIT_OK
    code = cli_main(
        ["apply", "--bx", "embed-mapping", "--dir", "from", "--update", 'state{post="C"}']
    )
    capsys.readouterr()
    assert code == EXIT_UNDEFINED

    _passed(7, "all four negative examples detected with contract exit codes and replays")


def test_criterion_8_round_trip_serialization():
    config = LawSuiteConfig()
    checked = 0
    for name in catalog_names():
        bx = catalog(name).bx
        run = _Run(bx, config)
        for domain in (bx.domain_a, bx.domain_b, bx.complement_domain):
            if domain is None:
                continue
            for v in enumerate_values(domain):
                assert parse_value(render_value(v)) == v
                checked += 1
        for direction, arrow in bx.arrows.items():
            for case in consistent_cases(bx, direction):
                trace = _realize_arrow(bx, bx.arrows[arrow.back], case)
                if trace is not None:
                    assert parse_trace(render_trace(trace)) == trace
                    checked += 1
                for update in run.updates(arrow, arrow.pair(case.a, case.b)[0]):
                    assert parse_update(render_update(update)) == update
                    checked += 1
                    if trace is None:
                        continue
                    try:
                        out_u, out_t = bx.apply(direction, update, trace)
                    except Exception:
                        continue
                    assert parse_update(render_update(out_u)) == out_u
                    assert parse_trace(render_trace(out_t)) == out_t
                    checked += 2
    assert checked > 2000
    _passed(8, f"{checked} serialized forms round-tripped exactly")


def test_acceptance_runs_fast_enough():
    elapsed = time.monotonic() - _START
    assert elapsed < 60.0, f"acceptance suite took {elapsed:.1f}s"
    print(f"[acceptance] total wall time {elapsed:.1f}s (budget 60s)")
