"""Differential validation of the generic checkers.

Each classic framework family has well-known concrete law readings
(get/put round trips for lenses, repair quantifications for
maintainers).  This module evaluates those readings directly, with
plain loops over the finite domains and no law-checker machinery, and
then asserts that the generic representation-driven checkers reach the
same verdict kind on every applicable catalog entry.  A disagreement
here means the harness's trace realization or expressibility logic
drifted from the concrete semantics.

History ignorance and least update also keep their plain loops here,
as the references for the checkers that reuse second results, combined
results and passed scans.
"""
import dataclasses

import pytest

import bxkit.laws
from bxkit.values import Seq, atom, atoms, enumerate_values, seqs_of
from bxkit.scheme import (
    BothStates,
    ComplementTrace,
    NoTrace,
    PostState,
    SchemeError,
    StateTrace,
    compose_updates,
)
from bxkit.frameworks import Undefined, make_maintainer
from bxkit.grammar import render_update
from bxkit.catalog import catalog, catalog_entries
from bxkit.laws import (
    HISTORY_IGNORANCE,
    LEAST_UPDATE,
    LawSuiteConfig,
    check_correctness,
    check_hippocraticness,
    check_history_ignorance,
    check_invertibility,
    check_least_update,
    check_stability,
    check_undoability,
)
from bxkit.verdict import Verdict

LENSES = ["fst-lens", "const-lens", "broken-put-lens"]
MAINTAINERS = ["key-maintainer", "constant-maintainer", "stale-maintainer", "oscillating-toy"]


def _lens_ops(bx):
    def get(a):
        out, _ = bx.to(PostState(a), NoTrace())
        return out.post

    def put(b, a):
        out, _ = bx.from_(PostState(b), StateTrace(a))
        return out.post

    return get, put


def _try(thunk):
    try:
        return thunk()
    except Undefined:
        return None


def _verdict_kind(ok_cases: int, failed: bool) -> str:
    if failed:
        return Verdict.FAILS
    return Verdict.HOLDS if ok_cases else Verdict.VACUOUS


# -- lenses: the get/put readings -------------------------------------------------


def _lens_get_put(bx) -> str:
    get, put = _lens_ops(bx)
    ok, failed = 0, False
    for a in enumerate_values(bx.domain_a):
        b = _try(lambda: get(a))
        if b is None:
            continue
        restored = _try(lambda: put(b, a))
        if restored is None:
            continue
        if restored == a:
            ok += 1
        else:
            failed = True
            break
    return _verdict_kind(ok, failed)


def _lens_put_get(bx) -> str:
    get, put = _lens_ops(bx)
    ok, failed = 0, False
    for a in enumerate_values(bx.domain_a):
        if _try(lambda: get(a)) is None:
            continue
        for b in enumerate_values(bx.domain_b):
            a1 = _try(lambda: put(b, a))
            if a1 is None:
                continue
            seen = _try(lambda: get(a1))
            if seen is None:
                continue
            if seen == b:
                ok += 1
            else:
                failed = True
                break
        if failed:
            break
    return _verdict_kind(ok, failed)


def _lens_put_put(bx) -> str:
    get, put = _lens_ops(bx)
    ok, failed = 0, False
    for a in enumerate_values(bx.domain_a):
        if _try(lambda: get(a)) is None:
            continue
        for b1 in enumerate_values(bx.domain_b):
            a1 = _try(lambda: put(b1, a))
            if a1 is None:
                continue
            for b2 in enumerate_values(bx.domain_b):
                a2 = _try(lambda: put(b2, a1))
                if a2 is None:
                    continue
                direct = _try(lambda: put(b2, a))
                if direct is None:
                    continue
                if direct == a2:
                    ok += 1
                else:
                    failed = True
                    break
            if failed:
                break
        if failed:
            break
    return _verdict_kind(ok, failed)


def _lens_undo(bx) -> str:
    get, put = _lens_ops(bx)
    ok, failed = 0, False
    for a in enumerate_values(bx.domain_a):
        b0 = _try(lambda: get(a))
        if b0 is None:
            continue
        for b1 in enumerate_values(bx.domain_b):
            a1 = _try(lambda: put(b1, a))
            if a1 is None:
                continue
            undone = _try(lambda: put(b0, a1))
            if undone is None:
                continue
            if undone == a:
                ok += 1
            else:
                failed = True
                break
        if failed:
            break
    return _verdict_kind(ok, failed)


@pytest.mark.parametrize("name", LENSES)
def test_lens_checkers_match_direct_readings(name):
    bx = catalog(name).bx
    assert check_stability(bx, "from").kind == _lens_get_put(bx)
    assert check_invertibility(bx, "from").kind == _lens_put_get(bx)
    assert check_history_ignorance(bx, "from").kind == _lens_put_put(bx)
    assert check_undoability(bx, "from").kind == _lens_undo(bx)
    # the transformation-valued consistency makes these two coincide
    assert check_correctness(bx, "from").kind == _lens_put_get(bx)
    assert check_hippocraticness(bx, "from").kind == _lens_get_put(bx)


# -- maintainers: the repair readings ------------------------------------------------


def _maintainer_ops(bx):
    def repair_a(b_post, a_pre):
        out, _ = bx.from_(PostState(b_post), StateTrace(a_pre))
        return out.post

    def repair_b(a_post, b_pre):
        out, _ = bx.to(PostState(a_post), StateTrace(b_pre))
        return out.post

    return repair_a, repair_b


def _consistent_pairs(bx):
    return [
        (a, b)
        for a in enumerate_values(bx.domain_a)
        for b in enumerate_values(bx.domain_b)
        if bx.consistency(a, b)
    ]


def _maintainer_correct(bx) -> str:
    repair_a, _ = _maintainer_ops(bx)
    ok, failed = 0, False
    for a, _b in _consistent_pairs(bx):
        for b1 in enumerate_values(bx.domain_b):
            a1 = _try(lambda: repair_a(b1, a))
            if a1 is None:
                continue
            if bx.consistency(a1, b1):
                ok += 1
            else:
                failed = True
                break
        if failed:
            break
    return _verdict_kind(ok, failed)


def _maintainer_hippocratic(bx) -> str:
    repair_a, _ = _maintainer_ops(bx)
    ok, failed = 0, False
    for a, b in _consistent_pairs(bx):
        a1 = _try(lambda: repair_a(b, a))
        if a1 is None:
            continue
        if a1 == a:
            ok += 1
        else:
            failed = True
            break
    return _verdict_kind(ok, failed)


def _maintainer_invertible(bx) -> str:
    repair_a, repair_b = _maintainer_ops(bx)
    ok, failed = 0, False
    for a, b in _consistent_pairs(bx):
        for b1 in enumerate_values(bx.domain_b):
            a1 = _try(lambda: repair_a(b1, a))
            if a1 is None:
                continue
            back = _try(lambda: repair_b(a1, b))
            if back is None:
                continue
            if back == b1:
                ok += 1
            else:
                failed = True
                break
        if failed:
            break
    return _verdict_kind(ok, failed)


def _maintainer_undoable(bx) -> str:
    repair_a, _ = _maintainer_ops(bx)
    ok, failed = 0, False
    for a, b in _consistent_pairs(bx):
        for b1 in enumerate_values(bx.domain_b):
            a1 = _try(lambda: repair_a(b1, a))
            if a1 is None:
                continue
            undone = _try(lambda: repair_a(b, a1))
            if undone is None:
                continue
            if undone == a:
                ok += 1
            else:
                failed = True
                break
        if failed:
            break
    return _verdict_kind(ok, failed)


def _maintainer_history(bx) -> str:
    repair_a, _ = _maintainer_ops(bx)
    ok, failed = 0, False
    values_b = enumerate_values(bx.domain_b)
    anchors = {a for a, _ in _consistent_pairs(bx)}
    for a in sorted(anchors, key=repr):
        for b1 in values_b:
            a1 = _try(lambda: repair_a(b1, a))
            if a1 is None:
                continue
            for b2 in values_b:
                a2 = _try(lambda: repair_a(b2, a1))
                if a2 is None:
                    continue
                direct = _try(lambda: repair_a(b2, a))
                if direct is None:
                    continue
                if direct == a2:
                    ok += 1
                else:
                    failed = True
                    break
            if failed:
                break
        if failed:
            break
    return _verdict_kind(ok, failed)


@pytest.mark.parametrize("name", MAINTAINERS)
def test_maintainer_checkers_match_direct_readings(name):
    bx = catalog(name).bx
    assert check_correctness(bx, "from").kind == _maintainer_correct(bx)
    assert check_hippocraticness(bx, "from").kind == _maintainer_hippocratic(bx)
    assert check_invertibility(bx, "from").kind == _maintainer_invertible(bx)
    assert check_undoability(bx, "from").kind == _maintainer_undoable(bx)
    assert check_history_ignorance(bx, "from").kind == _maintainer_history(bx)
    assert check_stability(bx, "from").kind == Verdict.NOT_EXPRESSIBLE


def test_every_transformation_valued_entry_keeps_degeneracy():
    for name, entry in catalog_entries().items():
        if entry.bx.consistency_kind != "T":
            continue
        for direction in ("to", "from"):
            assert (
                check_correctness(entry.bx, direction).kind
                == check_invertibility(entry.bx, direction).kind
            ), name
            assert (
                check_hippocraticness(entry.bx, direction).kind
                == check_stability(entry.bx, direction).kind
            ), name


# -- history ignorance: the plain triple loop ------------------------------------------


def _plain_history_ignorance(check, bx, arrow):
    """The checker's body without reuse: every second call is made."""
    for _, trace_in, u1, in_base, out_base, _ in check.anchored_inputs():
        first = check.call(arrow, u1, trace_in)
        if first is None:
            continue
        out1, s1 = first
        trace2 = arrow.trace_in.reversing(s1, out1.post_state(out_base))
        if trace2 is None:
            continue
        for u2 in check.run.updates(arrow, u1.post_state(in_base)):
            second = check.call(arrow, u2, trace2)
            if second is None:
                continue
            out2, s2 = second
            try:
                u12 = compose_updates(u2, u1)
                expected_u = compose_updates(out2, out1)
            except SchemeError:
                continue
            combined = check.call(arrow, u12, trace_in)
            if combined is None:
                continue
            check.compare(
                u12, trace_in, combined, expected_u, s2, out_base,
                detail="translating the composite differs from composing the translations",
            )


class _Loose(Seq):
    """A sequence that cannot be hashed."""

    __hash__ = None


def _loose_complements(on_null_only):
    """The list edit lens with unhashable complements in ``to`` results:
    always, or only for the empty update, so that a hashable group meets an
    unhashable second result."""
    lens = catalog("list-edit-lens").bx

    def to(update, trace):
        u_out, t_out = lens.to_fn(update, trace)
        if on_null_only and update.ops:
            return u_out, t_out
        return u_out, ComplementTrace(_Loose(t_out.payload.elements))

    return dataclasses.replace(lens, name="loose-edit-lens", to_fn=to)


def _assert_matches_plain_loop(monkeypatch, bx, direction, config=None, law=HISTORY_IGNORANCE):
    checker, plain_body = _PLAIN_LOOPS[law]
    reusing = checker(bx, direction, config)
    _, reason = bxkit.laws._BODIES[law]
    with monkeypatch.context() as patched:
        patched.setitem(bxkit.laws._BODIES, law, (plain_body, reason))
        plain = checker(bx, direction, config)
    assert reusing.kind == plain.kind
    if plain.kind == Verdict.FAILS:
        assert dataclasses.asdict(reusing.counterexample) == dataclasses.asdict(plain.counterexample)
    assert reusing == plain
    return reusing


@pytest.mark.parametrize("direction", ["to", "from"])
@pytest.mark.parametrize("name", tuple(catalog_entries()))
def test_history_ignorance_matches_the_plain_loop(monkeypatch, name, direction):
    _assert_matches_plain_loop(monkeypatch, catalog(name).bx, direction)


def test_history_ignorance_matches_the_plain_loop_at_depth_two(monkeypatch):
    depth_two = LawSuiteConfig(edit_ops_per_update=2)
    verdict = _assert_matches_plain_loop(monkeypatch, catalog("list-edit-lens").bx, "from", depth_two)
    assert verdict.cases_checked == 2645


def test_history_ignorance_matches_the_plain_loop_where_it_fails(monkeypatch):
    verdict = _assert_matches_plain_loop(monkeypatch, catalog("stale-maintainer").bx, "from")
    assert verdict.kind == Verdict.FAILS


@pytest.mark.parametrize("on_null_only", [False, True])
def test_history_ignorance_matches_the_plain_loop_on_unhashable_traces(monkeypatch, on_null_only):
    # Always: every second trace is unhashable.  Only on the empty update: a
    # group with a hashable trace meets an unhashable second result.
    verdict = _assert_matches_plain_loop(monkeypatch, _loose_complements(on_null_only), "to")
    assert verdict.kind == (Verdict.FAILS if on_null_only else Verdict.HOLDS)


# -- least update: the plain scan of every input -----------------------------------------


def _plain_least_update(check, bx, arrow):
    """The checker's body without reuse: every defined input scans all its
    consistency-restoring alternatives."""
    post = lambda update, base: update.post_state(base)
    repr_out = arrow.upd_out
    for _, trace_in, u_in, in_base, out_base, _ in check.anchored_inputs():
        result = check.call(arrow, u_in, trace_in)
        if result is None:
            continue
        post_in = post(u_in, in_base)
        if post_in is None:
            continue
        partners = check.run.partners(arrow, post_in)
        for alt in check.run.updates(bx.arrows[arrow.back], out_base):
            if post(alt, out_base) not in partners:
                continue
            if bx.preorder is None and repr_out is PostState and out_base is not None:
                size = BothStates.size
                smaller = size(BothStates(out_base, post(result[0], out_base))) <= size(
                    BothStates(out_base, post(alt, out_base))
                )
            else:
                size = bx.preorder or repr_out.size
                smaller = size(result[0]) <= size(alt)
            if not smaller:
                check.fail(
                    u_in, trace_in,
                    observed=bxkit.laws._render_result(result),
                    expected=f"an update no larger than {render_update(alt)}",
                    detail="a strictly smaller consistency-restoring update exists",
                )
        check.checked += 1


_PLAIN_LOOPS = {
    HISTORY_IGNORANCE: (check_history_ignorance, _plain_history_ignorance),
    LEAST_UPDATE: (check_least_update, _plain_least_update),
}


@pytest.mark.parametrize("direction", ["to", "from"])
@pytest.mark.parametrize("name", tuple(catalog_entries()))
def test_least_update_matches_the_plain_scan(monkeypatch, name, direction):
    _assert_matches_plain_loop(monkeypatch, catalog(name).bx, direction, law=LEAST_UPDATE)


@pytest.mark.parametrize(
    "name, direction",
    [("constant-maintainer", "to"), ("constant-maintainer", "from"), ("stale-maintainer", "from")],
)
def test_least_update_matches_the_plain_scan_where_it_fails(monkeypatch, name, direction):
    verdict = _assert_matches_plain_loop(monkeypatch, catalog(name).bx, direction, law=LEAST_UPDATE)
    assert verdict.kind == Verdict.FAILS


def _loose_resizer(trim):
    """A maintainer of sequences at least as long as a count, whose backward
    repair pads the old sequence to the count and, when ``trim``, cuts it to
    the count.  Under the attached post-size order only the trimmed repair is
    least.  Repairs to an even count are unhashable."""

    def repair_a(b_post, a_pre):
        count = b_post.value
        elements = a_pre.elements + (atom(0),) * count
        kept = elements[:count] if trim else elements[: max(count, len(a_pre.elements))]
        return (_Loose if count % 2 == 0 else Seq)(kept)

    resizer = make_maintainer(
        "loose-resizer",
        lambda a, b: len(a.elements) >= b.value,
        lambda a_post, b_pre: b_pre,
        repair_a,
        seqs_of(atoms(0, 1), 2),
        atoms(0, 1, 2),
    )
    return dataclasses.replace(resizer, preorder=PostState.size)


@pytest.mark.parametrize("trim", [True, False])
def test_least_update_matches_the_plain_scan_on_unhashable_results(monkeypatch, trim):
    verdict = _assert_matches_plain_loop(monkeypatch, _loose_resizer(trim), "from", law=LEAST_UPDATE)
    assert verdict.kind == (Verdict.HOLDS if trim else Verdict.FAILS)


@pytest.mark.parametrize("trim", [True, False])
def test_least_update_compares_unhashable_results_by_changed_paths(monkeypatch, trim):
    # Without an attached order, post-state results are lifted to both-state
    # updates and compared by their changed paths, counted by ``diff_size``
    # along ``diff``'s alignment rules, which needs no hash.  The
    # unhashable empty repair is not equal to the empty sequence, so it
    # changes the root where the alternative changes nothing.
    resizer = dataclasses.replace(_loose_resizer(trim), preorder=None)
    verdict = _assert_matches_plain_loop(monkeypatch, resizer, "from", law=LEAST_UPDATE)
    assert verdict.kind == Verdict.FAILS
