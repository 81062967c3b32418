"""Framework adapters: interface conformance, partiality, trace synthesis."""
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bxkit.frameworks

from bxkit.values import (
    GoField,
    SamenessRelation,
    atom,
    atoms,
    contains,
    diff,
    enumerate_values,
    pair,
    rec,
    recs_of,
    seq,
    seqs_of,
)
from bxkit.scheme import (
    BothStates,
    ComplementTrace,
    Delete,
    DeltaTrace,
    DeltaUpdate,
    EditUnapplicable,
    Edits,
    Insert,
    NO_TRACE,
    NoTrace,
    Opaque,
    PostState,
    ReprMismatch,
    StateEdits,
    StateTrace,
    Traceability,
    Update,
)
from bxkit.frameworks import (
    BoundaryMismatch,
    Undefined,
    UnknownName,
    make_edit_lens,
    make_maintainer,
    make_symmetric_lens,
)
from bxkit.catalog import build_list_edit_lens, catalog, catalog_entries, catalog_names
from bxkit.grammar import render_trace, render_update
from bxkit.laws import LawSuiteConfig, audit_incidence, check_history_ignorance
from bxkit.verdict import Fails, Verdict

from test_differential import _Loose, _loose_resizer


def test_catalog_lookup():
    assert catalog("fst-lens").framework == "lens"
    assert catalog("key-maintainer").framework == "maintainer"
    with pytest.raises(UnknownName):
        catalog("nope")


def test_catalog_has_every_framework():
    canon = {e.framework for e in catalog_entries().values() if e.canonical}
    assert canon == {
        "mapping",
        "lens",
        "maintainer",
        "trigonal",
        "symmetric-lens",
        "edit-lens",
        "sdelta-lens",
    }


# -- mappings -----------------------------------------------------------------

def test_uppercase_mapping_is_bijective_on_domains():
    bx = catalog("uppercase-mapping").bx
    for a in enumerate_values(bx.domain_a):
        b, trace = bx.to(PostState(a), NO_TRACE)
        assert trace == NO_TRACE
        back, _ = bx.from_(b, NO_TRACE)
        assert back == PostState(a)


def test_embed_mapping_backward_partial():
    bx = catalog("embed-mapping").bx
    with pytest.raises(Undefined):
        bx.from_(PostState(atom("C")), NO_TRACE)
    out, _ = bx.from_(PostState(atom("A")), NO_TRACE)
    assert out == PostState(atom("a"))


# -- lenses --------------------------------------------------------------------

def test_fst_lens_calls():
    bx = catalog("fst-lens").bx
    out, trace = bx.to(PostState(pair(atom(2), atom(5))), NO_TRACE)
    assert out == PostState(atom(2))
    assert trace == StateTrace(pair(atom(2), atom(5)))
    back, back_trace = bx.from_(PostState(atom(9)), StateTrace(pair(atom(2), atom(5))))
    assert back == PostState(pair(atom(9), atom(5)))
    assert back_trace == NO_TRACE


def test_fst_lens_get_put_laws_by_hand():
    # independent oracle: loop the definitions, no law checker involved
    bx = catalog("fst-lens").bx
    sources = enumerate_values(bx.domain_a)
    views = enumerate_values(bx.domain_b)
    assert len(sources) == 9
    for a in sources:
        b, _ = bx.to(PostState(a), NO_TRACE)
        restored, _ = bx.from_(b, StateTrace(a))
        assert restored == PostState(a)  # GetPut
    for a in sources:
        for b in views:
            put_result, _ = bx.from_(PostState(b), StateTrace(a))
            got, _ = bx.to(put_result, NO_TRACE)
            assert got == PostState(b)  # PutGet


# One input of every representation, keyed by its class.
_UPDATE_OF = {
    PostState: PostState(atom(1)),
    BothStates: BothStates(atom(1), atom(2)),
    DeltaUpdate: DeltaUpdate(atom(1), atom(2), SamenessRelation()),
    Edits: Edits(()),
    StateEdits: StateEdits(atom(1)),
    Opaque: Opaque("f"),
}
_TRACE_OF = {
    NoTrace: NO_TRACE,
    StateTrace: StateTrace(atom(1)),
    ComplementTrace: ComplementTrace(atom(1)),
    DeltaTrace: DeltaTrace(atom(1), atom(2), SamenessRelation()),
}


@pytest.mark.parametrize("direction", ("to", "from"))
@pytest.mark.parametrize("name", catalog_names())
def test_repr_mismatch_is_reported(name, direction):
    assert set(_UPDATE_OF) == set(Update.__subclasses__())
    assert set(_TRACE_OF) == set(Traceability.__subclasses__())
    bx = catalog(name).bx
    upd, trace = bx.arrows[direction].upd_in, bx.arrows[direction].trace_in
    for other, update in _UPDATE_OF.items():
        if other is not upd:
            with pytest.raises(ReprMismatch, match="expected update representation"):
                bx.apply(direction, update, _TRACE_OF[trace])
    for other, wrong_trace in _TRACE_OF.items():
        if other is not trace:
            with pytest.raises(ReprMismatch, match="expected trace representation"):
                bx.apply(direction, _UPDATE_OF[upd], wrong_trace)


def _returning(result):
    """The fst lens with a forward arrow that answers ``result`` to every call."""
    return dataclasses.replace(catalog("fst-lens").bx, to_fn=lambda update, trace: result)


# Each boundary refusal of ``Bx.apply`` on the fst lens's forward arrow, which
# reads S updates and N traces and answers S updates and S traces.
_BOUNDARY = [
    (catalog("fst-lens").bx, BothStates(atom(1), atom(1)), NO_TRACE,
     "input: expected update representation S, got BothStates"),
    (catalog("fst-lens").bx, PostState(atom(1)), StateTrace(atom(1)),
     "input: expected trace representation N, got StateTrace"),
    (_returning((PostState(atom(1)), StateTrace(atom(1)), NO_TRACE)), PostState(atom(1)), NO_TRACE,
     "result: expected update representation S, got tuple"),
    (_returning(PostState(atom(1))), PostState(atom(1)), NO_TRACE,
     "result: expected trace representation S, got NoneType"),
    (_returning((PostState(atom(1)), NO_TRACE)), PostState(atom(1)), NO_TRACE,
     "result: expected trace representation S, got NoTrace"),
]


@pytest.mark.parametrize("bx,update,trace,message", _BOUNDARY)
def test_boundary_mismatch_messages(bx, update, trace, message):
    with pytest.raises(BoundaryMismatch) as raised:
        bx.apply("to", update, trace)
    assert str(raised.value) == message
    assert raised.value.bx is bx


def test_undefined_default_reason():
    assert Undefined().reason == str(Undefined()) == "transformation undefined"
    assert Undefined("no source").reason == str(Undefined("no source")) == "no source"


def test_const_lens_partial_put():
    bx = catalog("const-lens").bx
    out, _ = bx.from_(PostState(atom(0)), StateTrace(atom(1)))
    assert out == PostState(atom(1))
    with pytest.raises(Undefined):
        bx.from_(PostState(atom(1)), StateTrace(atom(0)))


# -- maintainers ------------------------------------------------------------------

def test_key_maintainer_repair_example():
    bx = catalog("key-maintainer").bx
    out, trace = bx.from_(
        PostState(rec(k=atom(2), v=atom(8))), StateTrace(rec(k=atom(1), u=atom(7)))
    )
    assert out == PostState(rec(k=atom(2), u=atom(7)))
    assert trace == StateTrace(rec(k=atom(2), v=atom(8)))


def test_key_maintainer_repair_is_unique_minimal_by_search():
    # independent oracle: exhaustive search over consistent repairs
    bx = catalog("key-maintainer").bx
    b_post = rec(k=atom(2), v=atom(8))
    a_pre = rec(k=atom(1), u=atom(7))
    consistent = [a for a in enumerate_values(bx.domain_a) if bx.consistency(a, b_post)]

    def changed_paths(a_new):
        from bxkit.values import all_paths

        return len(all_paths(a_new)) - len(diff(a_pre, a_new))

    best = min(changed_paths(a) for a in consistent)
    minimal = [a for a in consistent if changed_paths(a) == best]
    assert minimal == [rec(k=atom(2), u=atom(7))]
    out, _ = bx.from_(PostState(b_post), StateTrace(a_pre))
    assert out == PostState(minimal[0])


def _reason(call):
    with pytest.raises(Undefined) as raised:
        call()
    return raised.value.reason


_A0, _B0 = rec(k=atom(1), u=atom(7)), rec(k=atom(1), v=atom(7))
_P0, _R0 = rec(p=atom(0), q=atom(1)), rec(r=atom(0), s=atom(1))
_P1, _R1 = rec(p=atom(1), q=atom(1)), rec(r=atom(1), s=atom(1))


def _delta(pre, post):
    return DeltaUpdate(pre, post, diff(pre, post))


def _delta_trace(src, tgt):
    return DeltaTrace(src, tgt, diff(src, tgt))


# Each direction's reasons for refusing a trace, by entry; ids name the
# entry where it is not the maintainer.
_REFUSED = [
    ("key-maintainer", "to", PostState(rec(k=atom(2), u=atom(8))), StateTrace(atom(5)),
     "trace outside target domain"),
    ("key-maintainer", "from", PostState(rec(k=atom(2), v=atom(8))), StateTrace(atom(5)),
     "trace outside source domain"),
    ("trigonal-key", "to", BothStates(_A0, _A0), StateTrace(atom(5)), "trace outside target domain"),
    ("trigonal-key", "from", BothStates(_B0, _B0), StateTrace(atom(5)), "trace outside source domain"),
    ("trigonal-key", "to", BothStates(_A0, _A0), StateTrace(rec(k=atom(2), v=atom(7))),
     "trace state does not match the update's pre-state"),
    ("trigonal-key", "from", BothStates(_B0, _B0), StateTrace(rec(k=atom(2), u=atom(7))),
     "trace state does not match the update's pre-state"),
    ("rename-sync", "to", _delta(_P0, _P0), _delta_trace(_R0, _P1),
     "update pre-state differs from trace target"),
    ("rename-sync", "from", _delta(_R0, _R0), _delta_trace(_P0, _R1),
     "update pre-state differs from trace target"),
    ("rename-sync", "to", _delta(_P0, _P0), _delta_trace(_R1, _P0),
     "trace does not testify the consistency relation"),
    ("rename-sync", "from", _delta(_R0, _R0), _delta_trace(_P1, _R0),
     "trace does not testify the consistency relation"),
]


@pytest.mark.parametrize(
    "name, direction, update, trace, reason",
    [
        pytest.param(
            name, direction, update, trace, reason,
            id=f"{direction}-{reason}" if name == "key-maintainer" else f"{name}-{direction}-{reason}",
        )
        for name, direction, update, trace, reason in _REFUSED
    ],
)
def test_maintainer_rejects_trace_outside_its_domain(name, direction, update, trace, reason):
    bx = catalog(name).bx
    for _ in range(2):
        assert _reason(lambda: bx.apply(direction, update, trace)) == reason


def _same_key(a, b):
    return a.get("k") == b.get("k")


def _partial_keys(consistency=_same_key):
    # Key 3 exists only on the target side, so {k = 3} has no partner.
    def copy_key(post, pre):
        return pre.set("k", post.get("k"))

    return make_maintainer(
        "partial-keys", consistency, copy_key, copy_key, recs_of(k=atoms(1, 2)), recs_of(k=atoms(1, 2, 3))
    )


def test_maintainer_rejects_untestifying_trace():
    bx = _partial_keys()
    for _ in range(2):
        assert (
            _reason(lambda: bx.to(PostState(rec(k=atom(1))), StateTrace(rec(k=atom(3)))))
            == "trace does not testify the consistency relation"
        )


def _identity_symmetric_lens():
    bit = atoms(0, 1)
    zero = atom(0)
    return make_symmetric_lens(
        "identity-sync", lambda a, c: (a, c), lambda b, c: (b, c), bit, bit, bit, ((zero, zero, zero),)
    )


@pytest.mark.parametrize(
    "build, update, inside, outside",
    [
        (_identity_symmetric_lens, PostState(atom(1)), atom(1), atom(2)),
        (build_list_edit_lens, Edits(()), seq(atom(1)), seq(atom(2))),
    ],
    ids=["symmetric-lens", "edit-lens"],
)
def test_complement_lenses_check_each_complement_once(monkeypatch, build, update, inside, outside):
    checked = []

    def counted(domain, value):
        checked.append(value)
        return contains(domain, value)

    monkeypatch.setattr(bxkit.frameworks, "contains", counted)
    bx = build()
    for call in (bx.to, bx.from_, bx.to):
        assert call(update, ComplementTrace(inside))[1] == ComplementTrace(inside)
    # A complement outside the domain is never remembered, so it stays outside.
    for _ in range(2):
        assert _reason(lambda: bx.to(update, ComplementTrace(outside))) == "complement outside its domain"
    assert checked == [inside, outside, outside]


def test_maintainer_scans_for_partners_once_per_trace_state():
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return _same_key(a, b)

    bx = _partial_keys(counted)
    orphan = StateTrace(rec(k=atom(3)))
    for _ in range(2):
        assert _reason(lambda: bx.to(PostState(rec(k=atom(1))), orphan)) == (
            "trace does not testify the consistency relation"
        )
        assert len(calls) == 2
    for _ in range(2):
        assert bx.from_(PostState(rec(k=atom(2))), StateTrace(rec(k=atom(1))))[0] == PostState(rec(k=atom(2)))
        assert len(calls) == 3
    # A value outside the domain is never remembered, so it stays "outside".
    for _ in range(2):
        assert _reason(lambda: bx.to(PostState(rec(k=atom(1))), StateTrace(atom(5)))) == (
            "trace outside target domain"
        )
    assert len(calls) == 3


def test_maintainer_partner_scan_that_raised_is_not_remembered():
    raised = []

    def flaky(a, b):
        if not raised:
            raised.append(True)
            raise RuntimeError("flaky consistency")
        return _same_key(a, b)

    bx = _partial_keys(flaky)
    trace = StateTrace(rec(k=atom(1)))
    with pytest.raises(RuntimeError):
        bx.to(PostState(rec(k=atom(2))), trace)
    assert bx.to(PostState(rec(k=atom(2))), trace) == (PostState(rec(k=atom(2))), StateTrace(rec(k=atom(2))))


def test_maintainer_remembers_testimony_per_side():
    # On shared domains, state 1 has a partner as a target but none as a source.
    bit = atoms(0, 1)
    bx = make_maintainer("zero-source", lambda a, b: a == atom(0), lambda a, b: b, lambda b, a: a, bit, bit)
    one = StateTrace(atom(1))
    for _ in range(2):
        assert bx.to(PostState(atom(0)), one) == (PostState(atom(1)), StateTrace(atom(0)))
        assert _reason(lambda: bx.from_(PostState(atom(0)), one)) == "trace does not testify the consistency relation"


def test_maintainer_testifies_an_unhashable_trace_state():
    # The testimony memo cannot key the state, so its partners are scanned
    # on every call instead of the call raising ``TypeError``.
    resizer = _loose_resizer(True)
    for _ in range(2):
        u_out, t_out = resizer.apply("from", PostState(atom(1)), StateTrace(_Loose((atom(0),))))
        assert f"{render_update(u_out)} | {render_trace(t_out)}" == "state{post=[0]} | state{1}"


def test_history_ignorance_fails_on_a_genuine_counterexample_through_unhashable_states():
    # The resizer's repairs to an even count are unhashable, and the second
    # calls take them as trace states.
    verdict = check_history_ignorance(_loose_resizer(True), "from")
    assert verdict.kind == Verdict.FAILS
    found = verdict.counterexample
    assert (found.update, found.trace, found.observed, found.expected) == (
        "state{post=1}", "state{[1]}", "state{post=[1]} | state{1}", "state{post=[0]} | state{1}"
    )


# -- trigonal -----------------------------------------------------------------------

def test_trigonal_identity_update_returns_source():
    bx = catalog("trigonal-key").bx
    b = rec(k=atom(1), v=atom(7))
    a = rec(k=atom(1), u=atom(7))
    out, trace = bx.from_(BothStates(b, b), StateTrace(a))
    assert out == BothStates(a, a)
    assert trace == StateTrace(b)


def test_trigonal_propagates_only_changes():
    bx = catalog("trigonal-key").bx
    b0 = rec(k=atom(1), v=atom(7))
    b1 = rec(k=atom(2), v=atom(7))
    a = rec(k=atom(1), u=atom(7))
    out, _ = bx.from_(BothStates(b0, b1), StateTrace(a))
    assert out == BothStates(a, rec(k=atom(2), u=atom(7)))


def test_trigonal_rejects_seam_violating_trace():
    bx = catalog("trigonal-key").bx
    b0 = rec(k=atom(1), v=atom(7))
    wrong_a = rec(k=atom(2), u=atom(7))  # not consistent with b0
    with pytest.raises(Undefined):
        bx.from_(BothStates(b0, b0), StateTrace(wrong_a))


# -- symmetric lens ------------------------------------------------------------------

def test_pair_sync_round_trip_preserves_hidden_halves():
    bx = catalog("pair-sync").bx
    # a = (x, y); b = (x, z); complement remembers (y, z)
    complement = ComplementTrace(pair(atom(1), atom(0)))
    out, c1 = bx.to(PostState(pair(atom(0), atom(1))), complement)
    assert out == PostState(pair(atom(0), atom(0)))  # z restored from complement
    assert c1 == ComplementTrace(pair(atom(1), atom(0)))
    back, c2 = bx.from_(out, c1)
    assert back == PostState(pair(atom(0), atom(1)))  # y restored
    assert c2 == c1


def test_pair_sync_rejects_complement_outside_domain():
    bx = catalog("pair-sync").bx
    with pytest.raises(Undefined):
        bx.to(PostState(pair(atom(0), atom(0))), ComplementTrace(atom(7)))


def test_pair_sync_replay_closure_covers_all_matching_pairs():
    bx = catalog("pair-sync").bx
    for a, b, c in bx.replay:
        assert a.left == b.left  # shared component agrees
        assert c == pair(a.right, b.right)  # complement mirrors the hidden halves
    assert len(bx.replay) == 8


@st.composite
def _tabulated_symmetric_lenses(draw):
    """A symmetric lens whose directions are partial tables ``(state,
    complement) -> (state, complement)``, with its seeds and both tables."""
    domain_a, domain_b = atoms(0, 1, 2), atoms(0, 1)
    complement_domain = draw(st.sampled_from((atoms(0, 1), atoms(0, 1, 2))))
    a_values, b_values, c_values = (enumerate_values(d) for d in (domain_a, domain_b, complement_domain))

    def table(inputs, outputs):
        rows = [(y, c) for y in outputs for c in c_values]
        return {(x, c): draw(st.sampled_from(rows)) for x in inputs for c in c_values if draw(st.booleans())}

    def lookup(rows):
        def run(x, c):
            try:
                return rows[x, c]
            except KeyError:
                raise Undefined("no table entry") from None

        return run

    to_table, from_table = table(a_values, b_values), table(b_values, a_values)
    triples = st.tuples(*(st.sampled_from(values) for values in (a_values, b_values, c_values)))
    seeds = tuple(draw(st.lists(triples, min_size=1, max_size=2)))
    bx = make_symmetric_lens(
        "tabulated", lookup(to_table), lookup(from_table), domain_a, domain_b, complement_domain, seeds
    )
    return bx, seeds, to_table, from_table


def _closure(seeds, to_table, from_table):
    # A step from any triple reads only its complement, so iterate over
    # the complements reached until no triple is added.
    reached = set(seeds)
    while True:
        complements = {c for _, _, c in reached}
        grown = reached | {(a, b, c1) for (a, c), (b, c1) in to_table.items() if c in complements}
        grown |= {(a, b, c1) for (b, c), (a, c1) in from_table.items() if c in complements}
        if grown == reached:
            return reached
        reached = grown


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_tabulated_symmetric_lenses())
def test_symmetric_lens_replay_is_the_closure_of_its_seeds(drawn):
    bx, seeds, to_table, from_table = drawn
    closure = _closure(seeds, to_table, from_table)
    assert len(bx.replay) == len(closure) and set(bx.replay) == closure
    pairs = {(a, b) for a, b, _ in closure}
    for a in enumerate_values(bx.domain_a):
        for b in enumerate_values(bx.domain_b):
            assert bx.consistency(a, b) == ((a, b) in pairs), (a, b)


# -- edit lens --------------------------------------------------------------------------

def test_edit_lens_insert_translation_example():
    bx = catalog("list-edit-lens").bx
    ops = Edits([Insert(0, pair(atom(1), atom(0)))])
    out, c1 = bx.to(ops, ComplementTrace(seq()))
    assert out == Edits([Insert(0, atom(1))])
    assert c1 == ComplementTrace(seq(atom(0)))  # complement gains the hidden half


def test_edit_lens_empty_sequence_is_fixed():
    bx = catalog("list-edit-lens").bx
    c = ComplementTrace(seq(atom(1)))
    assert bx.to(Edits(()), c) == (Edits(()), c)
    assert bx.from_(Edits(()), c) == (Edits(()), c)


def test_edit_lens_delete_out_of_range_undefined():
    bx = catalog("list-edit-lens").bx
    with pytest.raises(Undefined):
        bx.from_(Edits([Delete(3, atom(0))]), ComplementTrace(seq(atom(0))))


def test_edit_lens_fresh_backward_insert_undefined():
    bx = catalog("list-edit-lens").bx
    with pytest.raises(Undefined):
        bx.from_(Edits([Insert(0, atom(1))]), ComplementTrace(seq()))


def test_edit_lens_build_raises_where_a_translated_edit_does_not_apply():
    # Inserting into the empty source translates to a delete from the empty target.
    lists = seqs_of(atoms(1), 1)

    def translate(ops, c):
        return (Delete(0, atom(1)),), c

    with pytest.raises(EditUnapplicable, match="delete at 0"):
        make_edit_lens("unapplicable", translate, translate, lists, lists, atoms(0), ((seq(), seq(), atom(0)),))


def test_edit_lens_replay_coherence():
    # applying source edits and their translations preserves the projection
    bx = catalog("list-edit-lens").bx
    from bxkit.scheme import apply_ops, enumerate_op_sequences

    for a, b, c in bx.replay:
        assert b == seq(*(el.left for el in a.elements))
        for ops in enumerate_op_sequences(a, bx.domain_a, 2):
            try:
                translated, _c1 = bx.to(Edits(ops), ComplementTrace(c))
            except Undefined:
                continue
            a1 = apply_ops(ops, a)
            b1 = apply_ops(translated.ops, b)
            assert b1 == seq(*(el.left for el in a1.elements))


def test_edit_lens_longer_lists_replay_coherence():
    from bxkit.catalog import build_list_edit_lens
    from bxkit.scheme import apply_ops, enumerate_op_sequences

    bx = build_list_edit_lens(3)
    count = 0
    for a, b, c in bx.replay:
        assert b == seq(*(el.left for el in a.elements))
        for ops in enumerate_op_sequences(a, bx.domain_a, 3):
            try:
                translated, _ = bx.to(Edits(ops), ComplementTrace(c))
            except Undefined:
                continue
            a1 = apply_ops(ops, a)
            b1 = apply_ops(translated.ops, b)
            assert b1 == seq(*(el.left for el in a1.elements))
            count += 1
        if count > 4000:
            break
    assert count > 0


# -- symmetric delta-lens ------------------------------------------------------------------

def _rename_case():
    a0 = rec(p=atom(0), q=atom(1))
    b0 = rec(r=atom(0), s=atom(1))
    bx = catalog("rename-sync").bx
    trace = DeltaTrace(a0, b0, bx.default_align(a0, b0))
    return bx, a0, b0, trace


def test_rename_sync_propagates_value_change():
    bx, a0, b0, trace = _rename_case()
    a1 = rec(p=atom(1), q=atom(1))
    upd = DeltaUpdate(a0, a1, diff(a0, a1))
    out, new_trace = bx.to(upd, DeltaTrace(b0, a0, bx.default_align(a0, b0).invert()))
    assert out.pre == b0 and out.post == rec(r=atom(1), s=atom(1))
    # q was unchanged, so its correspondence survives into the new delta
    assert ((GoField("s"),), (GoField("s"),)) in out.same.links
    assert ((GoField("r"),), (GoField("r"),)) not in out.same.links
    assert new_trace.src == a1 and new_trace.tgt == out.post


def test_rename_sync_relinking_delta_propagates_relink():
    bx, a0, b0, _ = _rename_case()
    # move the value of p into q: link p -> q instead of p -> p
    a1 = rec(p=atom(1), q=atom(0))
    relink = SamenessRelation([((GoField("p"),), (GoField("q"),))])
    upd = DeltaUpdate(a0, a1, relink)
    out, _trace = bx.to(upd, DeltaTrace(b0, a0, bx.default_align(a0, b0).invert()))
    assert ((GoField("r"),), (GoField("s"),)) in out.same.links


def test_rename_sync_identity_delta_is_stable():
    bx, a0, b0, _ = _rename_case()
    upd = DeltaUpdate(a0, a0, diff(a0, a0))
    out, trace = bx.to(upd, DeltaTrace(b0, a0, bx.default_align(a0, b0).invert()))
    assert out == DeltaUpdate(b0, b0, diff(b0, b0))
    assert trace == DeltaTrace(a0, b0, bx.default_align(a0, b0))


def test_rename_sync_seam_mismatch_undefined():
    bx, a0, b0, _ = _rename_case()
    other = rec(p=atom(1), q=atom(0))
    upd = DeltaUpdate(other, other, diff(other, other))
    with pytest.raises(Undefined):
        bx.to(upd, DeltaTrace(b0, a0, bx.default_align(a0, b0).invert()))


def test_delta_update_rejects_invalid_relation_paths():
    a0 = rec(p=atom(0), q=atom(1))
    bogus = SamenessRelation([((GoField("zzz"),), ())])
    with pytest.raises(ValueError):
        DeltaUpdate(a0, a0, bogus)


# -- incidence audit across the whole catalog ----------------------------------------------

@pytest.mark.parametrize("name", catalog_names())
def test_incidence_audit_clean(name):
    verdict = audit_incidence(catalog(name).bx, LawSuiteConfig())
    assert not isinstance(verdict, Fails), verdict


def test_symmetry_derivation():
    assert catalog("fst-lens").bx.symmetry == "A"
    assert catalog("key-maintainer").bx.symmetry == "S"


def test_transformation_valued_consistency_coherence():
    # for entries whose consistency relation is the forward run itself,
    # the predicate agrees with that run on the whole domain product
    for name in ("uppercase-mapping", "embed-mapping", "fst-lens", "const-lens"):
        bx = catalog(name).bx
        assert bx.consistency_kind == "T"
        for a in enumerate_values(bx.domain_a):
            try:
                forward, _ = bx.to(PostState(a), NO_TRACE)
            except Undefined:
                forward = None
            for b in enumerate_values(bx.domain_b):
                expected = forward is not None and forward == PostState(b)
                assert bx.consistency(a, b) == expected, (name, a, b)
