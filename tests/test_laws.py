"""Law checkers: per-framework verdicts, counterexamples, weak variants,
vacuity accounting, determinism, and the entailment meta-theorems."""
import dataclasses
import gc
import hashlib
import inspect
import itertools
import logging
import tracemalloc
from types import SimpleNamespace

import pytest

from bxkit.values import CapExceeded, SamenessRelation, Seq, atom, atoms, diff, enumerate_values, pair, pairs_of, rec, seqs_of
from bxkit.scheme import (
    BothStates,
    ComplementTrace,
    DeltaTrace,
    DeltaUpdate,
    Edits,
    NO_TRACE,
    NoTrace,
    Opaque,
    PostState,
    ReprMismatch,
    StateEdits,
    StateTrace,
    Traceability,
    Update,
    apply_ops,
    compose_updates,
)
from bxkit.frameworks import Arrow, BoundaryMismatch, Bx, Undefined, make_lens, make_mapping, make_maintainer, make_trigonal
from bxkit.grammar import parse_trace, parse_update, render_trace, render_update, render_value
from bxkit.catalog import catalog, catalog_entries
import bxkit.laws
from bxkit.laws import (
    ALL_LAWS,
    CONVERGENCE,
    CORRECTNESS,
    DIRECTIONS,
    HIPPOCRATICNESS,
    HIPPOCRATICNESS_LITERAL,
    HISTORY_IGNORANCE,
    INVERTIBILITY,
    LEAST_UPDATE,
    SAFETY,
    STABILITY,
    TOTALITY,
    UNDOABILITY,
    FREE_CASE,
    LawSuiteConfig,
    audit_incidence,
    check_convergence,
    check_correctness,
    check_hippocraticness,
    check_history_ignorance,
    check_invertibility,
    check_least_update,
    check_safety,
    check_stability,
    check_totality,
    check_undoability,
    consistent_cases,
    run_suite,
)
from bxkit.verdict import Counterexample, Fails, Holds, NotExpressible, Vacuous, Verdict, WeaklyHolds


def bx(name):
    return catalog(name).bx


# -- stability ------------------------------------------------------------------

def test_stability_lens_get_put():
    v = check_stability(bx("fst-lens"), "from")
    assert isinstance(v, Holds) and v.cases_checked == 9


def test_stability_not_expressible_for_mappings():
    for direction in ("to", "from"):
        v = check_stability(bx("uppercase-mapping"), direction)
        assert isinstance(v, NotExpressible)


def test_stability_not_expressible_for_maintainers():
    assert isinstance(check_stability(bx("key-maintainer"), "from"), NotExpressible)


def test_stability_edit_lens_empty_sequence():
    for direction in ("to", "from"):
        v = check_stability(bx("list-edit-lens"), direction)
        assert isinstance(v, Holds)


def test_stability_trigonal():
    assert isinstance(check_stability(bx("trigonal-key"), "from"), Holds)


# -- invertibility ----------------------------------------------------------------

def test_invertibility_fst_lens_put_get():
    v = check_invertibility(bx("fst-lens"), "from")
    assert isinstance(v, Holds)
    # 9 consistent traces x 3 view updates
    assert v.cases_checked == 27


def test_invertibility_broken_put_reports_counterexample():
    v = check_invertibility(bx("broken-put-lens"), "from")
    assert isinstance(v, Fails)
    c = v.counterexample
    assert c.law == INVERTIBILITY
    assert c.observed != c.expected
    # the counterexample replays: parse its inputs and re-run the call
    from bxkit.grammar import parse_trace, parse_update, render_trace, render_update

    update = parse_update(c.update)
    trace = parse_trace(c.trace)
    out = bx("broken-put-lens").apply(c.direction, update, trace)
    assert f"{render_update(out[0])} | {render_trace(out[1])}" == c.observed


def test_invertibility_mapping_both_directions():
    for direction in ("to", "from"):
        assert isinstance(check_invertibility(bx("uppercase-mapping"), direction), Holds)


def test_invertibility_discharges_a_round_trip_whose_way_back_is_undefined():
    def back(b):
        if b == atom(2):
            raise Undefined("no way back from 2")
        return b

    mapping = make_mapping("partial-back", lambda a: a, back, atoms(0, 1, 2), atoms(0, 1, 2))
    # A mapping has no trace, so one free anchor and 3 updates: "to" is
    # defined on all 3 and its way back on the 2 that do not end at 2;
    # "from" is undefined at 2 itself.
    assert check_invertibility(mapping, "to") == Holds(2)
    assert check_invertibility(mapping, "from") == Holds(2)


def test_invertibility_not_expressible_forward_for_lenses():
    assert isinstance(check_invertibility(bx("fst-lens"), "to"), NotExpressible)


# -- undoability ------------------------------------------------------------------

def test_undoability_trigonal_and_lens():
    assert isinstance(check_undoability(bx("trigonal-key"), "from"), Holds)
    assert isinstance(check_undoability(bx("fst-lens"), "from"), Holds)


def test_undoability_not_expressible_for_mappings():
    assert isinstance(check_undoability(bx("uppercase-mapping"), "from"), NotExpressible)


def test_undoability_maintainer_holds():
    assert isinstance(check_undoability(bx("key-maintainer"), "from"), Holds)


# -- history ignorance ----------------------------------------------------------------

def test_history_ignorance_put_put():
    assert isinstance(check_history_ignorance(bx("fst-lens"), "from"), Holds)


def test_history_ignorance_trivial_for_mappings():
    v = check_history_ignorance(bx("uppercase-mapping"), "from")
    assert isinstance(v, Holds) and v.cases_checked >= 1


def test_history_ignorance_stale_maintainer_fails():
    v = check_history_ignorance(bx("stale-maintainer"), "from")
    assert isinstance(v, Fails)


# -- correctness ------------------------------------------------------------------------

def test_correctness_maintainer():
    assert isinstance(check_correctness(bx("key-maintainer"), "from"), Holds)


def test_correctness_degenerates_to_invertibility_for_lenses():
    for name in ("fst-lens", "broken-put-lens", "uppercase-mapping"):
        for direction in ("to", "from"):
            corr = check_correctness(bx(name), direction)
            inv = check_invertibility(bx(name), direction)
            assert corr.kind == inv.kind
    failing = check_correctness(bx("broken-put-lens"), "from")
    assert isinstance(failing, Fails)
    assert failing.counterexample.law == CORRECTNESS


def test_correctness_fails_for_wrong_repair():
    wrong = make_maintainer(
        "wrong-key",
        lambda a, b: a.get("k") == b.get("k"),
        lambda a_post, b_pre: b_pre,  # never repairs
        lambda b_post, a_pre: a_pre,
        bx("key-maintainer").domain_a,
        bx("key-maintainer").domain_b,
    )
    assert isinstance(check_correctness(wrong, "from"), Fails)


def test_correctness_judges_the_transformations_own_result():
    # The repairs return records with a private field of 9, outside the
    # declared domains but consistent under key equality.  Correctness asks
    # the relation about that result itself, not whether it lies in a
    # partner row scanned over the domain; least update compares against
    # the in-domain alternatives and finds a smaller one.
    key = bx("key-maintainer")
    nine = make_maintainer(
        "nine-maintainer",
        key.consistency,
        lambda a_post, b_pre: rec(k=a_post.get("k"), v=atom(9)),
        lambda b_post, a_pre: rec(k=b_post.get("k"), u=atom(9)),
        key.domain_a,
        key.domain_b,
    )
    expected = {
        "to": (
            "state{post={k = 1, u = 7}}",
            "state{{k = 1, v = 7}}",
            "state{post={k = 1, v = 9}} | state{{k = 1, u = 7}}",
            "state{post={k = 1, v = 7}}",
        ),
        "from": (
            "state{post={k = 1, v = 7}}",
            "state{{k = 1, u = 7}}",
            "state{post={k = 1, u = 9}} | state{{k = 1, v = 7}}",
            "state{post={k = 1, u = 7}}",
        ),
    }
    for direction, (update, trace, observed, smaller) in expected.items():
        assert check_correctness(nine, direction) == Holds(32)
        least = check_least_update(nine, direction)
        assert isinstance(least, Fails), direction
        c = least.counterexample
        assert (c.update, c.trace, c.observed) == (update, trace, observed)
        assert c.expected == f"an update no larger than {smaller}"


# -- hippocraticness -----------------------------------------------------------------------

def test_hippocraticness_maintainer():
    assert isinstance(check_hippocraticness(bx("key-maintainer"), "from"), Holds)


def test_hippocraticness_constant_repair_fails():
    v = check_hippocraticness(bx("constant-maintainer"), "from")
    assert isinstance(v, Fails)
    assert v.counterexample.law == HIPPOCRATICNESS


def test_hippocraticness_not_expressible_for_mappings():
    assert isinstance(check_hippocraticness(bx("uppercase-mapping"), "from"), NotExpressible)


def test_hippocraticness_literal_reading_reported_for_edit_lens():
    report = run_suite(bx("list-edit-lens"))
    strengthened = report.verdicts[(HIPPOCRATICNESS, "from")]
    literal = report.verdicts[(HIPPOCRATICNESS_LITERAL, "from")]
    assert strengthened.kind == Verdict.HOLDS
    assert literal.kind == Verdict.FAILS


# -- least update ------------------------------------------------------------------------------

def test_least_update_key_maintainer_minimal():
    assert isinstance(check_least_update(bx("key-maintainer"), "from"), Holds)


def test_least_update_resetting_repair_fails():
    v = check_least_update(bx("constant-maintainer"), "from")
    assert isinstance(v, Fails)
    assert "smaller" in v.counterexample.detail


def test_least_update_matches_manual_search():
    # independent oracle: for every defined backward call, search all
    # consistent alternatives and compare changed-path counts by hand
    from bxkit.values import all_paths, diff
    from bxkit.scheme import StateTrace

    maintainer = bx("key-maintainer")
    values_a = enumerate_values(maintainer.domain_a)
    values_b = enumerate_values(maintainer.domain_b)

    def changed(a_pre, a_post):
        return len(all_paths(a_post)) - len(diff(a_pre, a_post))

    violations = []
    for a_pre in values_a:
        for b_post in values_b:
            out, _ = maintainer.from_(PostState(b_post), StateTrace(a_pre))
            alternatives = [a for a in values_a if maintainer.consistency(a, b_post)]
            for alt in alternatives:
                if changed(a_pre, out.post) > changed(a_pre, alt):
                    violations.append((a_pre, b_post, alt))
    assert violations == []
    assert isinstance(check_least_update(maintainer, "from"), Holds)


# -- totality and safety ---------------------------------------------------------------------------

def test_totality_fst_lens_both_directions():
    for direction in ("to", "from"):
        assert isinstance(check_totality(bx("fst-lens"), direction), Holds)


def test_totality_embed_mapping_fails_with_witness():
    v = check_totality(bx("embed-mapping"), "from")
    assert isinstance(v, Fails)
    assert v.counterexample.update == 'state{post="C"}'


def test_safety_embed_mapping_holds():
    assert isinstance(check_safety(bx("embed-mapping"), "from"), Holds)


def test_totality_const_lens_fails_with_view_one():
    v = check_totality(bx("const-lens"), "from")
    assert isinstance(v, Fails)
    assert v.counterexample.update == "state{post=1}"
    assert isinstance(check_safety(bx("const-lens"), "from"), Holds)


# -- convergence -------------------------------------------------------------------------------------

def test_convergence_pair_sync_one_round_trip():
    assert isinstance(check_convergence(bx("pair-sync"), "from"), Holds)


def test_convergence_fst_lens_independent_of_invertibility():
    assert isinstance(check_convergence(bx("fst-lens"), "from"), Holds)


def test_convergence_oscillating_toy_fails():
    v = check_convergence(bx("oscillating-toy"), "from")
    assert isinstance(v, Fails)
    assert v.counterexample.law == CONVERGENCE


# -- vacuity -------------------------------------------------------------------------------------------

def test_empty_relation_makes_checks_vacuous():
    never = make_maintainer(
        "never-consistent",
        lambda a, b: False,
        lambda a_post, b_pre: b_pre,
        lambda b_post, a_pre: a_pre,
        atoms(0, 1),
        atoms(0, 1),
    )
    for checker in (check_correctness, check_hippocraticness, check_totality):
        v = checker(never, "from")
        assert isinstance(v, Vacuous), checker


def test_always_undefined_bx_is_not_trivially_lawful():
    def no_get(a):
        raise Undefined("never")

    def no_put(b, a):
        raise Undefined("never")

    dead = make_lens("dead-lens", no_get, no_put, pairs_of(atoms(0), atoms(0)), atoms(0))
    assert isinstance(check_stability(dead, "from"), Vacuous)
    assert isinstance(check_invertibility(dead, "from"), Vacuous)


# -- weak variants ---------------------------------------------------------------------------------------

def _sorting_lens():
    """View is the multiset of a two-element sequence rendered sorted;
    put writes the view back sorted, so op-level equality fails while
    post-states match after sorting."""
    from bxkit.values import seqs_of

    def normalize(v):
        if isinstance(v, Seq):
            return Seq(sorted(v.elements, key=lambda e: e.value))
        return v

    def get(a):
        return normalize(a)

    def put(b, a):
        return normalize(b)

    return (
        make_lens(
            "sorting-lens",
            get,
            put,
            seqs_of(atoms(1, 2), 2),
            seqs_of(atoms(1, 2), 2),
        ),
        normalize,
    )


def test_weak_variant_under_normalizer():
    lens, normalize = _sorting_lens()
    strict = check_invertibility(lens, "from", LawSuiteConfig(weak_variants=False))
    assert isinstance(strict, Fails)
    weak = check_invertibility(
        lens, "from", LawSuiteConfig(weak_variants=True, normalizer=normalize)
    )
    assert isinstance(weak, WeaklyHolds)
    assert weak.variant == "post-state equality"


def _raised_counterexamples(report):
    """The counterexamples of ``report`` whose call raised, by law and direction."""
    return {
        key: verdict.counterexample
        for key, verdict in report.verdicts.items()
        if isinstance(verdict, Fails) and verdict.counterexample.observed.startswith("raised")
    }


def test_a_normalizer_that_raises_fails_the_law_that_called_it():
    # The normalizer is user code: its exception is a counterexample of each
    # law whose comparison reaches it, and the rest of the report stands.
    def missing(value):
        raise KeyError("missing")

    report = run_suite(bx("oscillating-toy"), LawSuiteConfig(normalizer=missing))
    raised = _raised_counterexamples(report)
    assert set(raised) == {
        (law, direction) for law in (HIPPOCRATICNESS, INVERTIBILITY, UNDOABILITY) for direction in DIRECTIONS
    }
    for (law, _), counterexample in raised.items():
        assert counterexample.law == law
        assert counterexample.observed == "raised KeyError('missing')"
        assert counterexample.expected == "a normal form of each post-state"
    assert report.kind(CONVERGENCE, "to") == Verdict.FAILS
    assert report.kind(TOTALITY, "to") == Verdict.HOLDS


# -- suite and meta-theorems --------------------------------------------------------------------------------

def test_run_suite_is_deterministic():
    from bxkit.grammar import render_value

    first = run_suite(bx("key-maintainer"))
    second = run_suite(bx("key-maintainer"))
    assert render_value(first.to_value()) == render_value(second.to_value())


def test_run_suite_fst_lens_summary():
    report = run_suite(bx("fst-lens"))
    assert report.kind(STABILITY, "from") == Verdict.HOLDS
    assert report.kind(INVERTIBILITY, "from") == Verdict.HOLDS
    assert report.kind(HISTORY_IGNORANCE, "from") == Verdict.HOLDS
    assert report.kind(UNDOABILITY, "from") == Verdict.HOLDS
    assert report.kind(TOTALITY, "to") == Verdict.HOLDS
    assert report.kind(TOTALITY, "from") == Verdict.HOLDS
    assert report.meta_errors == ()


def test_run_suite_uppercase_mapping_summary():
    report = run_suite(bx("uppercase-mapping"))
    for direction in ("to", "from"):
        assert report.kind(INVERTIBILITY, direction) == Verdict.HOLDS
        assert report.kind(STABILITY, direction) == Verdict.NOT_EXPRESSIBLE
        assert report.kind(HISTORY_IGNORANCE, direction) == Verdict.HOLDS


def test_run_suite_key_maintainer_summary():
    report = run_suite(bx("key-maintainer"))
    assert report.kind(CORRECTNESS, "from") == Verdict.HOLDS
    assert report.kind(HIPPOCRATICNESS, "from") == Verdict.HOLDS
    assert report.kind(STABILITY, "from") == Verdict.NOT_EXPRESSIBLE


def test_meta_theorems_hold_across_catalog():
    for name in catalog_entries():
        report = run_suite(bx(name))
        assert report.meta_errors == (), (name, report.meta_errors)


_FIXED = {
    Verdict.HOLDS: Holds(1),
    Verdict.FAILS: Fails(Counterexample("law", "to", "fixed", "u", "t", "observed", "expected")),
    Verdict.WEAKLY_HOLDS: WeaklyHolds("weak", 1),
    Verdict.NOT_EXPRESSIBLE: NotExpressible("fixed"),
    Verdict.VACUOUS: Vacuous("fixed"),
}


def _meta_errors(monkeypatch, kinds):
    """The suite's meta-check errors on fst-lens when every law's checker
    answers, in both directions, the fixed verdict of its kind in ``kinds``,
    by default one that holds."""
    for law in ALL_LAWS:
        verdict = _FIXED[kinds.get(law, Verdict.HOLDS)]
        monkeypatch.setitem(bxkit.laws.CHECKERS, law, lambda run, direction, verdict=verdict: verdict)
    return run_suite(bx("fst-lens")).meta_errors


def test_the_undoability_entailment_errs_only_when_its_premises_hold(monkeypatch):
    for *premises, undo in itertools.product(_FIXED, repeat=4):
        kinds = dict(zip((TOTALITY, STABILITY, HISTORY_IGNORANCE, UNDOABILITY), (*premises, undo)))
        errors = _meta_errors(monkeypatch, kinds)
        if undo != Verdict.HOLDS and set(premises) == {Verdict.HOLDS}:
            assert errors == tuple(
                f"fst-lens/{d}: totality, stability and history-ignorance hold but undoability is {undo}"
                for d in DIRECTIONS
            ), kinds
        else:
            assert errors == (), kinds


def test_the_least_update_entailment_errs_only_when_hippocraticness_fails(monkeypatch):
    for least, hip in itertools.product(_FIXED, repeat=2):
        errors = _meta_errors(monkeypatch, {LEAST_UPDATE: least, HIPPOCRATICNESS: hip})
        if (least, hip) == (Verdict.HOLDS, Verdict.FAILS):
            assert errors == tuple(
                f"fst-lens/{d}: least-update holds but hippocraticness fails" for d in DIRECTIONS
            )
        else:
            assert errors == (), (least, hip)


def _tiny_partial_lens():
    """A = B = {0, 1}, get is constantly 1, and put is defined only on
    (0, 0) and (1, 1), where it returns 1."""

    def put(b, a):
        if b == a:
            return atom(1)
        raise Undefined("put is defined only where the view equals the source")

    return make_lens("tiny", lambda a: atom(1), put, atoms(0, 1), atoms(0, 1))


def test_undoability_is_entailed_only_where_totality_holds():
    # Backward, the lens keeps stability and history ignorance but fails
    # undoability and totality: the entailment's premise does not hold.
    report = run_suite(_tiny_partial_lens())
    assert report.kind(STABILITY, "from") == Verdict.HOLDS
    assert report.kind(HISTORY_IGNORANCE, "from") == Verdict.HOLDS
    assert report.kind(UNDOABILITY, "from") == Verdict.FAILS
    assert report.kind(TOTALITY, "from") == Verdict.FAILS
    assert report.meta_errors == ()
    # Without totality in the suite the entailment is not checked either.
    partial = LawSuiteConfig(laws=(STABILITY, HISTORY_IGNORANCE, UNDOABILITY))
    assert run_suite(_tiny_partial_lens(), partial).meta_errors == ()


def test_an_empty_law_selection_is_refused():
    with pytest.raises(ValueError, match="selects no law"):
        LawSuiteConfig(laws=())


@pytest.mark.parametrize(
    "knob,least", [("edit_ops_per_update", 0), ("max_convergence_rounds", 1), ("value_cap", 1)]
)
def test_each_numeric_knob_is_refused_just_below_its_least_value(knob, least):
    assert getattr(LawSuiteConfig(**{knob: least}), knob) == least
    with pytest.raises(ValueError, match="nonsensical law suite configuration"):
        LawSuiteConfig(**{knob: least - 1})


def test_failures_are_filtered_by_law():
    report = run_suite(bx("list-edit-lens"))
    selected = report.failures((HIPPOCRATICNESS,))
    assert [(c.law, c.direction) for c in selected] == [(HIPPOCRATICNESS, "to")]
    everything = [(c.law, c.direction) for c in report.failures()]
    assert [law for law, _ in everything if law.startswith(HIPPOCRATICNESS)] == [
        HIPPOCRATICNESS, HIPPOCRATICNESS_LITERAL, HIPPOCRATICNESS_LITERAL,
    ]
    assert len(everything) == sum(v.kind == Verdict.FAILS for v in report.verdicts.values())


def test_an_unknown_direction_is_refused():
    # A direction that names no arrow is the caller's error, not a verdict
    # on the transformation.
    calls = [getattr(bxkit.laws, f"check_{law}") for law in ALL_LAWS]
    calls += [consistent_cases, lambda lens, direction: lens.apply(direction, PostState(atom(1)), NO_TRACE)]
    for call in calls:
        with pytest.raises(ValueError, match="direction must be 'to' or 'from'"):
            call(bx("fst-lens"), "sideways")


def test_the_literal_reading_is_not_selectable():
    # It is reported beside hippocraticness, and read back under its name.
    with pytest.raises(ValueError, match="hippocraticness_literal"):
        LawSuiteConfig(laws=("hippocraticness_literal",))
    report = run_suite(bx("list-edit-lens"), LawSuiteConfig(laws=(HIPPOCRATICNESS,)))
    assert report.verdict("hippocraticness-literal", "from").kind == Verdict.FAILS


def test_suite_respects_law_selection():
    config = LawSuiteConfig(laws=("invertibility",))
    report = run_suite(bx("broken-put-lens"), config)
    assert set(law for law, _ in report.verdicts) == {"invertibility"}
    assert report.failures() != []


def test_no_checker_fails_on_undefined_cases():
    # the conditioned reading: a partial lens never turns undefinedness
    # into a law failure
    report = run_suite(bx("const-lens"))
    for (law, _direction), verdict in report.verdicts.items():
        if law in (TOTALITY, SAFETY):
            continue
        assert verdict.kind != Verdict.FAILS, law


def test_value_cap_bounds_the_consistent_case_scan():
    # fst-lens/from enumerates its 3-value target for updates but scans
    # the 9-value source for consistent cases.
    with pytest.raises(CapExceeded):
        check_totality(bx("fst-lens"), "from", LawSuiteConfig(value_cap=4))


@pytest.mark.parametrize("check", [check_totality, check_history_ignorance])
def test_the_value_cap_does_not_bound_an_edit_search(check):
    # Edit updates come from the op-sequence search from each pre-state, so
    # the 21-value source domain of the edit lens is not enumerated for them.
    lens = bx("list-edit-lens")
    for direction in DIRECTIONS:
        assert check(lens, direction, LawSuiteConfig(value_cap=10)) == check(lens, direction)


def test_consistent_cases_feed_only_testifying_traces():
    maintainer = bx("key-maintainer")
    for case in consistent_cases(maintainer, "from"):
        assert maintainer.consistency(case.a, case.b)


def test_opaque_updates_excluded_from_law_checking():
    from bxkit.frameworks import Bx

    ghost = Bx(
        name="ghost",
        upd_to=Opaque,
        upd_from=Opaque,
        trace_to=NoTrace,
        trace_from=NoTrace,
        consistency_kind="T",
        consistency=lambda a, b: True,
        to_fn=lambda u, t: (u, t),
        from_fn=lambda u, t: (u, t),
        domain_a=atoms(0),
        domain_b=atoms(0),
    )
    for checker in (check_stability, check_undoability, check_history_ignorance):
        assert isinstance(checker(ghost, "from"), NotExpressible)
    assert isinstance(check_least_update(ghost, "from"), NotExpressible)


def test_trigonal_laws_by_independent_loops():
    # hand-rolled oracle: quantify exactly as the per-framework readings
    # state, without going through the checkers
    from bxkit.scheme import BothStates, StateTrace
    from bxkit.frameworks import Undefined

    tri = bx("trigonal-key")
    values_a = enumerate_values(tri.domain_a)
    values_b = enumerate_values(tri.domain_b)
    pairs = [(a, b) for a in values_a for b in values_b if tri.consistency(a, b)]
    assert pairs

    for a, b in pairs:
        # stability: a null update leaves the source untouched
        out, _ = tri.from_(BothStates(b, b), StateTrace(a))
        assert out == BothStates(a, a)
        for b1 in values_b:
            out, _ = tri.from_(BothStates(b, b1), StateTrace(a))
            a1 = out.post
            # correctness: the result is consistent with the new target
            assert tri.consistency(a1, b1)
            # invertibility: pushing the translated update back restores b1
            back, _ = tri.to(BothStates(a, a1), StateTrace(b))
            assert back.post == b1
            # undoability: the inverse update returns to the original source
            undone, _ = tri.from_(BothStates(b1, b), StateTrace(a1))
            assert undone.post == a
            # hippocraticness: consistency-preserving updates are ignored
            if tri.consistency(a, b1):
                assert a1 == a
            # history ignorance: two steps equal the composite step
            for b2 in values_b:
                mid, _ = tri.from_(BothStates(b1, b2), StateTrace(a1))
                combined, _ = tri.from_(BothStates(b, b2), StateTrace(a))
                assert combined.post == mid.post


def test_maintainer_invertibility_matches_direct_quantification():
    # the generalized reading quantifies over every consistent partner:
    # compare the checker's verdict against a direct evaluation
    from bxkit.scheme import PostState, StateTrace

    maintainer = bx("key-maintainer")
    values_a = enumerate_values(maintainer.domain_a)
    values_b = enumerate_values(maintainer.domain_b)
    violations = []
    for a in values_a:
        for b in values_b:
            if not maintainer.consistency(a, b):
                continue
            for b1 in values_b:
                a1, _ = maintainer.from_(PostState(b1), StateTrace(a))
                back, _ = maintainer.to(a1, StateTrace(b))
                if back != PostState(b1):
                    violations.append((a, b, b1))
    assert violations  # private data loss: strict invertibility cannot hold
    assert isinstance(check_invertibility(maintainer, "from"), Fails)


def test_edit_lens_pinned_verdicts_stable_at_depth_two():
    report = run_suite(bx("list-edit-lens"), LawSuiteConfig(edit_ops_per_update=2))
    for direction in ("to", "from"):
        assert report.kind("stability", direction) == Verdict.HOLDS
        assert report.kind("convergence", direction) == Verdict.HOLDS
    assert report.meta_errors == ()
    # Every verdict and counterexample of the run, byte for byte.
    rendered = render_value(report.to_value()).encode("utf-8")
    assert hashlib.sha256(rendered).hexdigest() == (
        "22fcc04e6ae3392d820e6d3ac341ca3941e886f8c44929733e8efeb4de43e3b0"
    )


def test_attached_preorder_overrides_the_default():
    # under an everything-is-equal order, even a resetting repair is minimal
    from bxkit.values import AtomInt, rec as record

    def resetting(b_post, a_pre):
        return record(k=b_post.get("k"), u=AtomInt(7))

    def forward(a_post, b_pre):
        return b_pre.set("k", a_post.get("k"))

    domain_a = bx("key-maintainer").domain_a
    domain_b = bx("key-maintainer").domain_b

    def keyed(a, b):
        return a.get("k") == b.get("k")

    strict = make_maintainer("resetter", keyed, forward, resetting, domain_a, domain_b)
    assert isinstance(check_least_update(strict, "from"), Fails)
    indifferent = make_maintainer("resetter-flat", keyed, forward, resetting, domain_a, domain_b)
    indifferent.preorder = lambda u: 0
    assert isinstance(check_least_update(indifferent, "from"), Holds)


# -- one run per call -------------------------------------------------------------

def _counting(monkeypatch, name):
    """Count the calls the law checkers make to ``bxkit.laws.<name>``."""
    calls = []
    original = getattr(bxkit.laws, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bxkit.laws, name, counted)
    return calls


def test_a_suite_run_builds_the_consistent_cases_once_per_direction(monkeypatch):
    calls = _counting(monkeypatch, "consistent_cases")
    run_suite(bx("key-maintainer"))
    assert sorted(direction for _, direction, _ in calls) == ["from", "to"]


def test_history_ignorance_enumerates_second_updates_once_per_pre_state(monkeypatch):
    edit_lens = bx("list-edit-lens")
    for direction, domain in (("to", edit_lens.domain_a), ("from", edit_lens.domain_b)):
        calls = _counting(monkeypatch, "enumerate_op_sequences")
        check_history_ignorance(edit_lens, direction)
        assert len(calls) == len(enumerate_values(domain)), direction


def _counting_calls(lens, calls):
    """``lens`` with every call into its ``to`` and ``from`` functions recorded."""

    def counted(fn):
        def call(update, trace):
            calls.append((update, trace))
            return fn(update, trace)

        return call

    return dataclasses.replace(lens, to_fn=counted(lens.to_fn), from_fn=counted(lens.from_fn))


def test_history_ignorance_calls_each_second_input_once():
    # A plain triple loop makes 4,195 (to) and 1,011 (from) calls on 1,339
    # and 225 distinct inputs; reusing second results within the check
    # leaves the first and combined calls and one call per second input.
    # Edit composites are called plainly: keeping their results per anchor
    # would leave 2,219 and 515 calls here, but made the depth-2 benchmark
    # check slower and larger in every measured run.
    edit_lens = bx("list-edit-lens")
    for direction, count in (("to", 2399), ("from", 587)):
        calls = []
        verdict = check_history_ignorance(_counting_calls(edit_lens, calls), direction)
        assert verdict.kind == Verdict.HOLDS
        assert len(calls) == count, direction


def test_history_ignorance_calls_each_state_based_composite_once_per_anchor():
    # 32 first calls, 32 second calls and 128 combined calls per direction
    # without kept results.  A post-state composite names only its last
    # post-state, so on each of the 8 anchors the 16 combined calls cover 4
    # distinct composites, and kept combined results leave 96 calls.  A lone
    # check is one run, which keeps its state-based calls: the 8 anchors
    # carry 4 distinct traces, so the first calls are 16 distinct inputs,
    # and every second and combined call repeats one of them.
    key = bx("key-maintainer")
    for direction in DIRECTIONS:
        calls = []
        verdict = check_history_ignorance(_counting_calls(key, calls), direction)
        assert verdict == Holds(128)
        assert len(calls) == 16, direction


def test_a_suite_run_calls_each_state_based_input_once():
    # Every law of the run reuses the state-based calls an earlier law made:
    # 808 calls when each check made its own.
    key, calls = bx("key-maintainer"), []
    assert run_suite(_counting_calls(key, calls)).verdicts == run_suite(key).verdicts
    assert len(calls) == 32
    assert len(set(calls)) == 32


def test_a_suite_run_calls_the_edit_lens_plainly():
    # Edit calls are not kept, so the run makes every call it made when
    # each check made its own.
    calls = []
    run_suite(_counting_calls(bx("list-edit-lens"), calls))
    assert len(calls) == 5607


def test_history_ignorance_survives_an_unhashable_complement():
    # A trace that cannot be hashed cannot key a group of second results;
    # its second calls are made plainly, and here they are undefined, since
    # a list is no complement of the lens's domain.
    edit_lens = bx("list-edit-lens")

    def to(update, trace):
        u_out, t_out = edit_lens.to_fn(update, trace)
        return u_out, ComplementTrace(list(t_out.payload.elements))

    listing = dataclasses.replace(edit_lens, name="listing-edit-lens", to_fn=to)
    assert check_history_ignorance(listing, "to") == Vacuous("no chained premise is defined")
    assert check_history_ignorance(listing, "from") == Holds(365)


def test_each_law_check_logs_its_start_and_verdict(caplog):
    fst = bx("fst-lens")
    quiet = render_value(run_suite(fst).to_value())
    with caplog.at_level(logging.DEBUG, logger="bxkit.laws"):
        report = run_suite(fst)
    assert render_value(report.to_value()) == quiet
    records = [r for r in caplog.records if r.name == "bxkit.laws"]
    assert all(r.levelno == logging.DEBUG for r in records)
    expected = []
    for law in ALL_LAWS:
        for direction in DIRECTIONS:
            expected.append(("fst-lens", law, direction))
            expected.append(("fst-lens", law, direction, report.kind(law, direction)))
    assert [r.args[:4] for r in records] == expected
    assert all(isinstance(r.args[4], float) for r in records[1::2])


def test_a_run_does_not_outlive_its_call():
    # A fresh mapping, so that no cached catalog entry is changed.
    def up(a):
        return atom(a.value.upper())

    def down(b):
        if b.value not in ("A", "B"):
            raise Undefined("no source")
        return atom(b.value.lower())

    mapping = make_mapping("letters", up, down, atoms("a", "b"), atoms("A", "B", "C"))
    calls = []

    def consistency(a, b):
        calls.append((a, b))
        return mapping.consistency(a, b)

    counted = dataclasses.replace(mapping, consistency=consistency)
    counts = []
    for _ in range(2):
        calls.clear()
        assert isinstance(check_safety(counted, "from"), Holds)
        counts.append(len(calls))
    assert counts == [6, 6]


def test_least_update_scans_rows_not_pairs():
    # The consistent cases and the partner rows each ask the relation about
    # every (a, b) pair at most once, however many alternatives there are.
    key = bx("key-maintainer")
    calls = []

    def consistency(a, b):
        calls.append((a, b))
        return key.consistency(a, b)

    counted = dataclasses.replace(key, consistency=consistency)
    pairs = len(enumerate_values(key.domain_a)) * len(enumerate_values(key.domain_b))
    for direction in ("to", "from"):
        calls.clear()
        assert isinstance(check_least_update(counted, direction), Holds)
        assert len(calls) <= 2 * pairs, direction


def test_least_update_sizes_updates_without_aligning_them():
    # The default preorders count paths and alignment links; no alignment
    # is built, so ``diff`` is not consulted and its cache does not grow.
    key = bx("key-maintainer")
    for direction in DIRECTIONS:
        before = diff.cache_info()
        assert isinstance(check_least_update(key, direction), Holds)
        after = diff.cache_info()
        assert after.currsize == before.currsize, direction
        assert after.hits + after.misses == before.hits + before.misses, direction


def test_least_update_builds_state_based_alternatives_from_the_partner_row(monkeypatch):
    # The projection lens of the wide benchmark, narrowed: each view value
    # has two sources, so two of the eight source updates restore
    # consistency, and they are built from the row instead of being found
    # among every update of the opposite direction.
    lens = make_lens(
        "first-projection",
        lambda source: source.left,
        lambda target, source: pair(target, source.right),
        pairs_of(atoms(0, 1, 2, 3), atoms(0, 1)),
        atoms(0, 1, 2, 3),
    )
    enumerated = []
    original = bxkit.laws._Run.updates

    def updates(run, arrow, pre):
        enumerated.append(arrow.name)
        return original(run, arrow, pre)

    monkeypatch.setattr(bxkit.laws._Run, "updates", updates)
    for direction in DIRECTIONS:
        enumerated.clear()
        assert isinstance(check_least_update(lens, direction), Holds)
        assert enumerated and set(enumerated) == {direction}


def _raising_preorder(error):
    def size(update):
        raise error

    return dataclasses.replace(bx("key-maintainer"), preorder=size)


def test_an_attached_preorder_that_raises_fails_least_update():
    raising = _raising_preorder(KeyError("missing"))
    run = bxkit.laws._Run(raising, None)
    for direction in DIRECTIONS:
        check = bxkit.laws._Check(run, LEAST_UPDATE, raising.arrows[direction], "")
        _, trace_in, u_in, _, _, _ = next(check.anchored_inputs())
        verdict = check_least_update(raising, direction)
        assert isinstance(verdict, Fails), direction
        c = verdict.counterexample
        assert (c.law, c.direction, c.observed) == (LEAST_UPDATE, direction, "raised KeyError('missing')")
        assert (c.update, c.trace) == (render_update(u_in), render_trace(trace_in))
    report = run_suite(raising)
    assert [report.kind(LEAST_UPDATE, d) for d in DIRECTIONS] == [Verdict.FAILS, Verdict.FAILS]


def test_an_attached_preorder_that_blows_the_cap_ends_the_run():
    with pytest.raises(CapExceeded):
        check_least_update(_raising_preorder(CapExceeded(10, 1)), "to")


def test_a_boundary_mismatch_ends_the_run_only_when_it_is_the_checked_bx_own():
    # A preorder is user code under the same rule as the transformation: the
    # checked Bx's own boundary check is a fault of its declaration, another
    # Bx's is a counterexample.
    other = bx("fst-lens")
    raising = _raising_preorder(BoundaryMismatch("result: expected update representation S", other))
    verdict = check_least_update(raising, "to")
    assert isinstance(verdict, Fails)
    assert verdict.counterexample.observed.startswith("raised BoundaryMismatch('result:")
    own = dataclasses.replace(bx("key-maintainer"))
    own.preorder = lambda update: own.apply("to", update, NO_TRACE)
    with pytest.raises(BoundaryMismatch) as raised:
        check_least_update(own, "to")
    assert raised.value.bx is own


def test_every_enumerated_input_update_has_a_post_state():
    # The laws read an input update's post-state on its input base with no
    # discharge for a missing one: an enumerated edit sequence applies.
    runs = [(entry.bx, LawSuiteConfig()) for entry in catalog_entries().values()]
    runs.append((bx("list-edit-lens"), LawSuiteConfig(edit_ops_per_update=2)))
    count = 0
    for checked, config in runs:
        run = bxkit.laws._Run(checked, config)
        for arrow in checked.arrows.values():
            check = bxkit.laws._Check(run, TOTALITY, arrow, "")
            for _, _, update, in_base, _, _ in check.anchored_inputs():
                assert update.post_state(in_base) is not None, (checked.name, arrow.name, update)
                count += 1
    assert count == 3091


def test_public_checkers_keep_their_signatures():
    plain = "(bx: 'Bx', direction: 'str', config: 'LawSuiteConfig | None' = None) -> 'Verdict'"
    for law in ALL_LAWS:
        checker = getattr(bxkit.laws, f"check_{law}")
        expected = plain
        if law == HIPPOCRATICNESS:
            expected = plain.replace("= None)", "= None, literal: 'bool' = False)")
        assert str(inspect.signature(checker)) == expected, law
        assert checker.__name__ == f"check_{law}"
        assert checker.__doc__


def _identity_trigonal(size):
    """A ``size``-atom identity trigonal, once the domain's enumeration is in
    the module cache."""
    values = atoms(*range(size))
    identity = make_trigonal(
        "identity", lambda a, b: a == b, lambda u, b: u[1], lambda u, a: u[1], values, values
    )
    consistent_cases(identity, "to")
    return identity


def _totality_peak(size):
    """Traced peak of ``check_totality`` on a ``size``-atom identity trigonal,
    once the domain's enumeration is in the module cache."""
    identity = _identity_trigonal(size)
    tracemalloc.start()
    try:
        verdict = check_totality(identity, "to")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == Holds(size * size)
    return peak


def test_a_run_keeps_no_both_states_updates_per_pre_state():
    # Both-states updates are rebuilt per anchor, so a run's peak grows
    # with |A| (the cases and one anchor's updates), not with |A| x |A|
    # (every anchor's updates kept until the run ends).  Doubling |A|
    # about doubles the peak; keeping the updates about quadruples it.
    assert _totality_peak(100) < 2.5 * _totality_peak(50)


_PREMISE_LAWS = (CORRECTNESS, TOTALITY, SAFETY)


def _premise_suite_peak(size):
    """Traced peak of a suite run of the premise laws on a ``size``-atom
    identity trigonal, whose |A| x |A| state-based calls are all distinct."""
    identity = _identity_trigonal(size)
    tracemalloc.start()
    try:
        report = run_suite(identity, LawSuiteConfig(laws=_PREMISE_LAWS))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdicts == {
        (law, direction): Holds(size * size) for law in _PREMISE_LAWS for direction in DIRECTIONS
    }
    return peak


def test_a_suite_run_keeps_a_bounded_number_of_calls():
    # The run keeps at most 2 ** 9 call results, so its peak grows with |A|
    # as a lone check's does; keeping every call would about quadruple it.
    assert _premise_suite_peak(100) < 2.5 * _premise_suite_peak(50)


def _history_ignorance_peak(size):
    """Traced peak of ``check_history_ignorance`` on a ``size``-atom
    trigonal that relates every state to one state and repairs to it."""
    values = atoms(*range(size))
    zero = enumerate_values(values)[0]
    fixed = make_trigonal(
        "fixed", lambda a, b: b == zero, lambda u, b: zero, lambda u, a: zero, values, values
    )
    consistent_cases(fixed, "to")
    gc.collect()
    tracemalloc.start()
    try:
        verdict = check_history_ignorance(fixed, "to")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == Holds(size ** 3)
    return peak


def test_history_ignorance_keeps_combined_results_for_one_anchor():
    # Each of the |A| anchors has |A| distinct both-states composites, so
    # keeping their combined results for one anchor holds |A| entries, and
    # keeping them for the whole check |A| x |A|.  Going from 24 to 36
    # atoms multiplies the peak by about 1.5 in the first case and by
    # about 2.25 in the second.
    assert _history_ignorance_peak(36) < 1.9 * _history_ignorance_peak(24)


def test_without_traces_both_states_updates_have_no_anchor():
    # A transformation without traces is checked on one anchor with no
    # pre-state, from which no both-states update starts: its combined
    # results cannot pile up across anchors because there are none.
    values = atoms(*range(4))
    identity = make_trigonal(
        "identity", lambda a, b: a == b, lambda u, b: u[1], lambda u, a: u[1], values, values
    )

    def echo(update, trace):
        return BothStates(update.pre, update.post), NO_TRACE

    untraced = dataclasses.replace(
        identity, trace_to=NoTrace, trace_from=NoTrace, to_fn=echo, from_fn=echo
    )
    assert consistent_cases(untraced, "to") == (FREE_CASE,)
    assert check_history_ignorance(untraced, "to") == Vacuous("no chained premise is defined")


# -- exceptions of the user's code ----------------------------------------------------

def _raising_maintainer():
    """The key maintainer, except that its backward repair raises on key 2."""
    key = bx("key-maintainer")

    def repair_a(b_post, a_pre):
        if b_post.get("k") == atom(2):
            raise KeyError("missing")
        return a_pre.set("k", b_post.get("k"))

    return make_maintainer(
        "raising-maintainer",
        key.consistency,
        lambda a_post, b_pre: b_pre.set("k", a_post.get("k")),
        repair_a,
        key.domain_a,
        key.domain_b,
    )


def test_an_exception_of_the_users_code_is_a_replayable_counterexample():
    raising = _raising_maintainer()
    report = run_suite(raising)
    assert report.kind(TOTALITY, "to") == Verdict.HOLDS
    totality = report.verdict(TOTALITY, "from")
    assert isinstance(totality, Fails)
    assert totality.counterexample.observed == "raised KeyError('missing')"
    raised = [c for c in report.failures() if c.observed.startswith("raised")]
    assert len(raised) == 9
    for counterexample in raised:
        assert counterexample.direction == "from"
        update = parse_update(counterexample.update)
        trace = parse_trace(counterexample.trace)
        with pytest.raises(KeyError):
            raising.apply("from", update, trace)


def test_an_exception_on_one_input_fails_each_law_that_reaches_it():
    # The run keeps no call that raised, so every law whose loop reaches the
    # input calls it again and fails under its own name.
    key = bx("key-maintainer")
    b_post, a_pre = rec({"k": atom(2), "v": atom(8)}), rec({"k": atom(1), "u": atom(7)})

    def repair_a(post, pre):
        if (post, pre) == (b_post, a_pre):
            raise KeyError("boom")
        return pre.set("k", post.get("k"))

    raising = make_maintainer(
        "boom-maintainer",
        key.consistency,
        lambda a_post, b_pre: b_pre.set("k", a_post.get("k")),
        repair_a,
        key.domain_a,
        key.domain_b,
    )
    report = run_suite(raising)
    raised = _raised_counterexamples(report)
    assert sorted(raised) == [
        (CONVERGENCE, "from"), (CONVERGENCE, "to"), (CORRECTNESS, "from"), (HISTORY_IGNORANCE, "from"),
        (LEAST_UPDATE, "from"), (SAFETY, "from"), (TOTALITY, "from"), (UNDOABILITY, "from"),
    ]
    for (law, _), counterexample in raised.items():
        assert (counterexample.law, counterexample.direction) == (law, "from")
        assert counterexample.observed == "raised KeyError('boom')"
        assert counterexample.update == render_update(PostState(b_post))
        assert counterexample.trace == render_trace(StateTrace(a_pre))
    assert report.kind(TOTALITY, "to") == Verdict.HOLDS


def test_a_repr_mismatch_inside_the_users_code_is_a_replayable_counterexample():
    # Only Bx.apply's own check of inputs and results ends the run.  The same
    # error raised by the transformation's code is a bug in that code.
    trigonal = bx("trigonal-key")

    def to(update, trace):
        compose_updates(PostState(update.post), update)
        return trigonal.to_fn(update, trace)

    composing = dataclasses.replace(trigonal, name="composing-trigonal", to_fn=to)
    totality = check_totality(composing, "to")
    assert isinstance(totality, Fails)
    counterexample = totality.counterexample
    assert counterexample.observed.startswith("raised ReprMismatch('cannot compose")
    with pytest.raises(ReprMismatch, match="cannot compose"):
        composing.apply("to", parse_update(counterexample.update), parse_trace(counterexample.trace))


def test_a_boundary_check_of_another_bx_inside_the_users_code_is_a_counterexample():
    # A transformation that calls another Bx, as a composed lens would, and
    # meets that Bx's boundary check has a bug in its own code; only the
    # checked Bx's boundary check ends the run.
    trigonal = bx("trigonal-key")
    key = bx("key-maintainer")

    def to(update, trace):
        key.apply("to", update, trace)
        return trigonal.to_fn(update, trace)

    composing = dataclasses.replace(trigonal, name="calling-trigonal", to_fn=to)
    totality = check_totality(composing, "to")
    assert isinstance(totality, Fails)
    assert totality.counterexample.observed.startswith(
        "raised BoundaryMismatch('input: expected update representation"
    )


def test_a_result_of_the_wrong_representation_ends_the_run():
    # Bx.apply checks the representations of its inputs and of its result.
    # A result of the wrong representation is a fault of the
    # transformation's declaration, not a counterexample, so it propagates.
    key = bx("key-maintainer")

    def to(update, trace):
        u_out, t_out = key.to_fn(update, trace)
        return BothStates(u_out.post, u_out.post), t_out

    wrong = dataclasses.replace(key, name="wrong-result", to_fn=to)
    with pytest.raises(ReprMismatch, match="expected update representation"):
        check_invertibility(wrong, "to")


@pytest.mark.parametrize("law", ALL_LAWS)
@pytest.mark.parametrize("wrong", ["not-an-update", "post-state"])
def test_every_law_ends_the_run_on_a_result_of_the_wrong_representation(law, wrong):
    # Every law is expressible on the trigonal system in both directions,
    # so each makes a forward call and meets the bad result.
    trigonal = bx("trigonal-key")

    def to(update, trace):
        u_out, t_out = trigonal.to_fn(update, trace)
        return ("not-an-update" if wrong == "not-an-update" else PostState(u_out.post)), t_out

    broken = dataclasses.replace(trigonal, name="wrong-result", to_fn=to)
    with pytest.raises(ReprMismatch, match="expected update representation"):
        run_suite(broken, LawSuiteConfig(laws=(law,)))


def test_a_result_with_a_trace_of_the_wrong_representation_ends_the_run():
    mapping = make_mapping("traced-mapping", lambda a: a, lambda b: b, atoms(0, 1), atoms(0, 1))
    traced = dataclasses.replace(mapping, to_fn=lambda update, trace: (update, StateTrace(update.post)))
    with pytest.raises(ReprMismatch, match="expected trace representation"):
        check_totality(traced, "to")


def test_a_blown_cap_still_ends_the_run():
    def blow(b_post, a_pre):
        raise CapExceeded(2, 1)

    key = bx("key-maintainer")
    capped = make_maintainer("capped", key.consistency, lambda a, b: b, blow, key.domain_a, key.domain_b)
    with pytest.raises(CapExceeded):
        check_totality(capped, "from")


def test_an_unrenderable_result_fails_the_law_instead_of_raising():
    # A trace whose payload is a list, not a value, has no form in the
    # grammar; the counterexample shows it by its repr.
    edit_lens = bx("list-edit-lens")

    def to(update, trace):
        u_out, t_out = edit_lens.to_fn(update, trace)
        if update.ops:
            return u_out, t_out
        return u_out, ComplementTrace(list(t_out.payload.elements))

    listing = dataclasses.replace(edit_lens, name="listing-edit-lens", to_fn=to)
    verdict = check_history_ignorance(listing, "to")
    assert isinstance(verdict, Fails)
    counterexample = verdict.counterexample
    assert (counterexample.update, counterexample.trace) == ("edits[del(0, (0, 0))]", "compl{[0, 0]}")
    assert counterexample.expected == "edits[del(0, 0)] | ComplementTrace(payload=[AtomInt(value=0)])"
    assert run_suite(listing).failures()


# -- pre-state-plus-edits updates ----------------------------------------------
# No framework adapter produces them, so these transformations are built by hand.

def _state_edits_mirror(name, keep_to=lambda ops: ops):
    """Equal lists on both sides, updated by a pre-state plus edits and traced
    by the state the call starts from, which must be the update's pre-state.
    ``keep_to`` chooses the edits ``to`` passes on."""

    def translate(keep):
        def step(update, trace):
            if trace.state != update.pre:
                raise Undefined("the trace's state is not the update's pre-state")
            ops = keep(update.ops)
            return StateEdits(update.pre, ops), StateTrace(apply_ops(ops, update.pre))

        return step

    return Bx(
        name=name,
        upd_to=StateEdits,
        upd_from=StateEdits,
        trace_to=StateTrace,
        trace_from=StateTrace,
        consistency_kind="E",
        consistency=lambda a, b: a == b,
        to_fn=translate(keep_to),
        from_fn=translate(lambda ops: ops),
        domain_a=seqs_of(atoms(0, 1), 2),
        domain_b=seqs_of(atoms(0, 1), 2),
    )


def test_a_state_edits_mirror_holds_every_law():
    mirror = _state_edits_mirror("state-edits-mirror")
    with pytest.raises(Undefined):
        mirror.apply("to", StateEdits(Seq([atom(0)])), StateTrace(Seq()))
    report = run_suite(mirror)
    counts = {STABILITY: 7, HIPPOCRATICNESS: 7, HISTORY_IGNORANCE: 207}
    expected = {(law, direction): Holds(counts.get(law, 37)) for law in ALL_LAWS for direction in DIRECTIONS}
    assert report.verdicts == expected
    assert report.meta_errors == ()
    assert audit_incidence(mirror) == Holds(74)


def test_the_audit_fails_a_call_whose_output_trace_contradicts_its_output_update():
    # The output update ends at the new state; the output delta trace claims
    # the old one as its target.
    def mirror(update, trace):
        claimed = DeltaTrace(update.post, update.pre, SamenessRelation())
        return BothStates(update.pre, update.post), claimed

    lying = Bx(
        name="lying-mirror",
        upd_to=BothStates,
        upd_from=BothStates,
        trace_to=DeltaTrace,
        trace_from=DeltaTrace,
        consistency_kind="E",
        consistency=lambda a, b: a == b,
        to_fn=mirror,
        from_fn=mirror,
        domain_a=atoms(0, 1),
        domain_b=atoms(0, 1),
    )
    verdict = audit_incidence(lying)
    assert isinstance(verdict, Fails)
    c = verdict.counterexample
    assert (c.law, c.direction, c.bx_name) == ("incidence", "to", "lying-mirror")
    assert c.detail == "condition failed: post(out-update) = tgt(out-trace)"
    assert (c.observed, c.expected) == ("1 vs 0", "post(out-update) = tgt(out-trace)")
    assert c.update == render_update(BothStates(atom(0), atom(1)))


def test_a_lossy_state_edits_mirror_fails_only_history_ignorance():
    # At one edit per update, keeping the first edit loses nothing; only the
    # composite of two updates shows the loss.
    lossy = _state_edits_mirror("lossy-state-edits-mirror", keep_to=lambda ops: ops[:1])
    report = run_suite(lossy)
    failing = [key for key, verdict in report.verdicts.items() if isinstance(verdict, Fails)]
    assert failing == [(HISTORY_IGNORANCE, "to")]
    counterexample = report.verdicts[HISTORY_IGNORANCE, "to"].counterexample
    assert counterexample.update == "stateedits{pre=[], edits=[ins(0, 0), ins(0, 0)]}"
    assert counterexample.trace == "state{[]}"


# -- expressibility against the rules as stated by representation name --------


_UPDATES = (PostState, BothStates, DeltaUpdate, Edits, StateEdits, Opaque)
_TRACES = (NoTrace, StateTrace, ComplementTrace, DeltaTrace)


def _inexpressible_by_name(kind, law, arrow):
    """The seven expressibility rules written over representation names, in
    their order, with their reasons; ``kind`` is the consistency kind."""
    repr_in, trace_in, trace_out = arrow.upd_in, arrow.trace_in, arrow.trace_out
    carrying = (StateTrace, DeltaTrace)
    pre_recoverable = trace_in is DeltaTrace or (
        arrow.name == "from" and trace_in is StateTrace and kind == "T"
    )
    if repr_in is Opaque and law not in (TOTALITY, SAFETY):
        return "function-valued updates are excluded from law checking"
    if law == STABILITY and repr_in is PostState and not pre_recoverable:
        return "a null update cannot be identified: no pre-state is recoverable"
    if law in (INVERTIBILITY, CONVERGENCE) and trace_in is NoTrace and trace_out in carrying:
        return "the reversed trace is not representable for the opposite direction"
    if law == UNDOABILITY and repr_in is PostState and trace_in not in carrying:
        return "update inversion is not representable without a state-carrying trace"
    if law in (HIPPOCRATICNESS, HIPPOCRATICNESS_LITERAL):
        if kind == "I" and repr_in is not Edits:
            return "a consistency-preserving update cannot be recognized under an implicit relation"
        if trace_in is NoTrace:
            return "no testifying pair is available to anchor the null update"
    if law == LEAST_UPDATE and arrow.upd_out is Opaque:
        return "no preorder is available for function-valued updates"
    return None


def test_expressibility_agrees_with_the_rules_by_name_on_every_representation():
    # Every law, every pair of update and of trace representations, every
    # consistency kind and both directions: far more combinations than the
    # catalog's entries reach.
    assert set(_UPDATES) == set(Update.__subclasses__())
    assert set(_TRACES) == set(Traceability.__subclasses__())
    domain = atoms(0)
    checked = 0
    for kind in ("T", "E", "I"):
        stub = SimpleNamespace(consistency_kind=kind)
        for upd_in, upd_out in itertools.product(_UPDATES, repeat=2):
            for trace_in, trace_out in itertools.product(_TRACES, repeat=2):
                for name, back in (("to", "from"), ("from", "to")):
                    arrow = Arrow(name, back, None, upd_in, upd_out, trace_in, trace_out, domain, domain)
                    for law in ALL_LAWS + (HIPPOCRATICNESS_LITERAL,):
                        expected = _inexpressible_by_name(kind, law, arrow)
                        assert bxkit.laws._inexpressible(stub, law, arrow) == expected, (kind, law, arrow)
                        checked += 1
    assert checked == 38016


def test_undoability_discharges_an_input_whose_result_has_no_inverse():
    # The forward results are function-valued, so the expected reverting
    # update does not exist; the input is discharged instead of ending the run.
    bx = Bx(
        name="opaque-results",
        upd_to=BothStates,
        upd_from=Opaque,
        trace_to=DeltaTrace,
        trace_from=DeltaTrace,
        consistency_kind="E",
        consistency=lambda a, b: True,
        to_fn=lambda u, t: (Opaque("f"), DeltaTrace(u.post, t.src, SamenessRelation())),
        from_fn=lambda u, t: (BothStates(t.src, t.src), t),
        domain_a=atoms(0, 1),
        domain_b=atoms(0),
    )
    assert check_undoability(bx, "to") == Vacuous("no premise call is defined")
    assert run_suite(bx).kind(UNDOABILITY, "to") == Verdict.VACUOUS
