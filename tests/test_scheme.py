"""Update/traceability algebra: projections, identity, composition,
inversion, trace operators, endpoint agreement, preorders."""
import pytest

from bxkit.values import (
    GoField,
    LEFT,
    RIGHT,
    SamenessRelation,
    atom,
    atoms,
    diff,
    enumerate_values,
    pair,
    pairs_of,
    rec,
    recs_of,
    seq,
    seqs_of,
)
from bxkit.scheme import (
    GREATER,
    LESS_OR_EQUAL,
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
    NotExpressibleError,
    Opaque,
    PostState,
    ReplaceAt,
    ReplaceRoot,
    ReprMismatch,
    SchemeError,
    SeamMismatch,
    SetField,
    StateEdits,
    StateNotRepresented,
    StateTrace,
    Traceability,
    Update,
    apply_ops,
    compose_updates,
    default_preorder,
    enumerate_op_sequences,
    enumerate_ops,
    identity_update,
    incidence_failure,
)
import bxkit.grammar


# -- projections ---------------------------------------------------------------

def test_projection_examples():
    assert PostState(atom(5)).post_state() == atom(5)
    assert BothStates(atom(3), atom(4)).pre_state() == atom(3)
    assert BothStates(atom(3), atom(4)).post_state() == atom(4)


def test_post_only_update_has_no_pre_state():
    assert PostState(atom(5)).pre_state() is None


def test_state_edits_post_state_is_computed():
    u = StateEdits(seq(atom(1)), [Insert(1, atom(2))])
    assert u.post_state() == seq(atom(1), atom(2))
    assert u.pre_state() == seq(atom(1))


def test_edit_only_update_has_neither_state():
    u = Edits([Insert(0, atom(1))])
    assert u.pre_state() is None
    assert u.post_state() is None


def test_trace_endpoints():
    assert StateTrace(pair(atom(1), atom(5))).source() == pair(atom(1), atom(5))
    t = DeltaTrace(atom(1), atom(2), SamenessRelation())
    assert t.source() == atom(1) and t.target() == atom(2)
    for missing in (NoTrace(), ComplementTrace(atom(1))):
        assert missing.source() is None
    assert StateTrace(atom(1)).target() is None


# -- identity ------------------------------------------------------------------

def test_identity_update_forms():
    b = rec(k=atom(1), v=atom(7))
    assert identity_update(b, BothStates) == BothStates(b, b)
    assert identity_update(b, Edits) == Edits(())
    d = identity_update(b, DeltaUpdate)
    assert isinstance(d, DeltaUpdate) and d.same == diff(b, b)
    assert identity_update(b, StateEdits) == StateEdits(b, ())


@pytest.mark.parametrize("cls", [PostState, Opaque])
def test_identity_not_expressible(cls):
    with pytest.raises(NotExpressibleError):
        identity_update(atom(1), cls)


def test_identity_has_equal_endpoints():
    v = pair(atom(1), atom(2))
    for cls in (BothStates, DeltaUpdate, StateEdits):
        u = identity_update(v, cls)
        assert u.pre_state() == u.post_state() == v


# -- composition and inversion ---------------------------------------------------

def test_compose_examples():
    b1, b2, b3 = atom(1), atom(2), atom(3)
    assert compose_updates(BothStates(b2, b3), BothStates(b1, b2)) == BothStates(b1, b3)
    assert compose_updates(Edits([Delete(0, atom(1))]), Edits([Insert(0, atom(1))])) == Edits(
        [Insert(0, atom(1)), Delete(0, atom(1))]
    )
    assert compose_updates(PostState(atom("x")), PostState(atom("y"))) == PostState(atom("x"))


def test_compose_seam_and_repr_errors():
    with pytest.raises(SeamMismatch):
        compose_updates(BothStates(atom(5), atom(6)), BothStates(atom(1), atom(2)))
    with pytest.raises(ReprMismatch):
        compose_updates(PostState(atom(1)), BothStates(atom(1), atom(2)))
    with pytest.raises(NotExpressibleError):
        compose_updates(Opaque("f"), Opaque("f"))


def test_invert_examples():
    assert BothStates(atom(1), atom(2)).inverse() == BothStates(atom(2), atom(1))
    assert Edits([Insert(0, atom(5))]).inverse() == Edits([Delete(0, atom(5))])
    ops = [Insert(0, atom(1)), Insert(1, atom(2))]
    assert Edits(ops).inverse() == Edits([Delete(1, atom(2)), Delete(0, atom(1))])
    for repr_violation in (PostState(atom(1)), Opaque("f")):
        assert repr_violation.inverse() is None


def _both_universe(domain):
    values = enumerate_values(domain)
    return [BothStates(a, b) for a in values for b in values]


def _delta_universe(domain):
    values = enumerate_values(domain)
    return [DeltaUpdate(a, b, diff(a, b)) for a in values for b in values]


def _edits_universe(domain, length=2):
    out = []
    for start in enumerate_values(domain):
        for ops in enumerate_op_sequences(start, domain, length):
            out.append((start, Edits(ops)))
    return out


PAIR_DOMAIN = pairs_of(atoms(0, 1, 2, 3), atoms(0, 1, 2, 3))
SEQ_DOMAIN = seqs_of(atoms(0, 1, 2), 2)


def test_involution_bounded_exhaustive():
    both = _both_universe(PAIR_DOMAIN)
    assert len(both) >= 100
    for u in both:
        assert u.inverse().inverse() == u
    deltas = _delta_universe(PAIR_DOMAIN)
    assert len(deltas) >= 100
    for u in deltas:
        assert u.inverse().inverse() == u
    edits = _edits_universe(SEQ_DOMAIN)
    assert len(edits) >= 100
    for _, u in edits:
        assert u.inverse().inverse() == u
    state_edits = [StateEdits(start, u.ops) for start, u in edits]
    for u in state_edits:
        assert u.inverse().inverse() == u


def test_edit_soundness_apply_then_undo():
    for start, u in _edits_universe(SEQ_DOMAIN):
        after = apply_ops(u.ops, start)
        assert apply_ops(u.inverse().ops, after) == start


def test_seam_laws_bounded_exhaustive():
    values = enumerate_values(pairs_of(atoms(0, 1, 2), atoms(0, 1)))
    for a in values:
        for b in values:
            for c in values:
                composite = compose_updates(BothStates(b, c), BothStates(a, b))
                assert composite.pre_state() == a
                assert composite.post_state() == c
                d = compose_updates(
                    DeltaUpdate(b, c, diff(b, c)), DeltaUpdate(a, b, diff(a, b))
                )
                assert d.pre_state() == a and d.post_state() == c


def test_identity_laws_bounded_exhaustive():
    for u in _both_universe(pairs_of(atoms(0, 1, 2), atoms(0, 1, 2))):
        assert compose_updates(u, identity_update(u.pre_state(), BothStates)) == u
        assert compose_updates(identity_update(u.post_state(), BothStates), u) == u
    for u in _delta_universe(pairs_of(atoms(0, 1), atoms(0, 1, 2))):
        assert compose_updates(u, identity_update(u.pre_state(), DeltaUpdate)) == u
        assert compose_updates(identity_update(u.post_state(), DeltaUpdate), u) == u
    for _, u in _edits_universe(SEQ_DOMAIN, length=1):
        assert compose_updates(u, Edits(())) == u
        assert compose_updates(Edits(()), u) == u


# -- edit operations ------------------------------------------------------------

def test_apply_op_preconditions():
    s = seq(atom(1), atom(2))
    assert Insert(2, atom(3)).apply(s) == seq(atom(1), atom(2), atom(3))
    with pytest.raises(EditUnapplicable):
        Insert(5, atom(3)).apply(s)
    with pytest.raises(EditUnapplicable):
        Delete(0, atom(9)).apply(s)  # displaced value mismatch
    with pytest.raises(EditUnapplicable):
        SetField("k", atom(0), atom(1)).apply(rec(k=atom(9)))
    with pytest.raises(EditUnapplicable):
        ReplaceRoot(atom(0), atom(1)).apply(atom(5))


def test_invert_op_is_involutive():
    ops = [
        Insert(0, atom(1)),
        Delete(2, atom(3)),
        ReplaceAt(1, atom(0), atom(1)),
        SetField("k", atom(1), atom(2)),
        ReplaceRoot(atom(1), atom(2)),
    ]
    for op in ops:
        assert op.inverse().inverse() == op


def test_state_edits_construction_checks_applicability():
    with pytest.raises(EditUnapplicable):
        StateEdits(seq(), [Delete(0, atom(1))])


def test_enumerate_ops_respects_domain():
    domain = seqs_of(atoms(0, 1), 1)
    full = seq(atom(0))
    ops = enumerate_ops(full, domain)
    assert all(not isinstance(op, Insert) for op in ops)  # already at max length
    empty_ops = enumerate_ops(seq(), domain)
    assert {op for op in empty_ops} == {Insert(0, atom(0)), Insert(0, atom(1))}


def test_enumerate_ops_names_a_field_missing_from_the_record():
    with pytest.raises(ValueError, match="'u'"):
        enumerate_ops(rec(k=atom(1)), recs_of(k=atoms(1, 2), u=atoms(7, 8)))


@pytest.mark.parametrize(
    "domain",
    [
        seqs_of(atoms(0, 1), 2),
        recs_of(k=atoms(1, 2), u=atoms(7, 8)),
        pairs_of(atoms(0, 1), atoms(0, 1)),
        atoms(0, 1, 2),
    ],
)
def test_enumerate_ops_never_offers_an_edit_that_changes_nothing(domain):
    for value in enumerate_values(domain):
        ops = enumerate_ops(value, domain)
        assert ops, value
        for op in ops:
            assert op.apply(value) != value, op


@pytest.mark.parametrize(
    "value,domain",
    [
        (atom(0), seqs_of(atoms(0, 1), 1)),
        (seq(atom(0)), atoms(0, 1)),
        (pair(atom(1), atom(7)), recs_of(k=atoms(1, 2), u=atoms(7))),
        (rec(k=atom(1)), atoms(0, 1)),
    ],
)
def test_a_value_of_another_shape_is_only_replaced_whole(value, domain):
    expected = tuple(ReplaceRoot(value, alt) for alt in enumerate_values(domain))
    assert enumerate_ops(value, domain) == expected


# -- traces ----------------------------------------------------------------------

def test_invert_trace_examples():
    c = ComplementTrace(atom(3))
    assert c.reversed() == c
    rel = SamenessRelation([((LEFT,), (RIGHT,))])
    t = DeltaTrace(pair(atom(1), atom(2)), pair(atom(3), atom(1)), rel)
    back = t.reversed()
    assert back == DeltaTrace(pair(atom(3), atom(1)), pair(atom(1), atom(2)), rel.invert())
    assert back.reversed() == t
    assert NO_TRACE.reversed() == NO_TRACE
    assert StateTrace(atom(1)).reversed() == StateTrace(atom(1))


def test_compose_trace_update_examples():
    a, b = atom(1), atom(2)
    rel = SamenessRelation([((), ())])
    t = DeltaTrace(a, b, SamenessRelation())
    # identity update leaves a delta trace unchanged up to its own links
    same_again = DeltaTrace(a, b, rel).extended(BothStates(b, b))
    assert same_again == DeltaTrace(a, b, compose_relations_check(rel, b))
    # stored-state traces keep their payload
    st = StateTrace(a).extended(PostState(atom(9)))
    assert st == StateTrace(a)
    with pytest.raises(NotExpressibleError):
        NO_TRACE.extended(PostState(atom(1)))
    with pytest.raises(NotExpressibleError):
        ComplementTrace(atom(1)).extended(PostState(atom(1)))
    with pytest.raises(SeamMismatch):
        t.extended(BothStates(atom(7), atom(8)))
    with pytest.raises(StateNotRepresented) as err:
        t.extended(Edits(()))  # an edit-only update has no post-state
    assert err.value.end == "post"


def compose_relations_check(rel, b):
    # identity step over b composed with rel is rel itself
    from bxkit.values import compose_relations

    return compose_relations(diff(b, b), rel)


def test_compose_trace_update_with_delta_update():
    a = rec(k=atom(1), u=atom(7))
    b0 = rec(k=atom(1), v=atom(7))
    b1 = rec(k=atom(2), v=atom(7))
    trace_rel = SamenessRelation([((GoField("k"),), (GoField("k"),))])
    upd = DeltaUpdate(b0, b1, diff(b0, b1))
    out = DeltaTrace(a, b0, trace_rel).extended(upd)
    assert out.src == a and out.tgt == b1
    # k changed, so the composite relation loses the k link
    assert out.same == SamenessRelation()


@pytest.mark.parametrize("cls", [DeltaUpdate, DeltaTrace])
@pytest.mark.parametrize(
    "first,second", [(pair(atom(1), atom(2)), atom(1)), (atom(1), pair(atom(1), atom(2)))]
)
def test_a_link_valid_on_one_side_only_is_refused(cls, first, second):
    with pytest.raises(ValueError, match="valid paths"):
        cls(first, second, SamenessRelation([((LEFT,), (LEFT,))]))


# -- endpoint agreement ------------------------------------------------------------

def test_incidence_lens_example():
    call = (
        PostState(pair(atom(2), atom(5))),
        NO_TRACE,
        PostState(atom(2)),
        StateTrace(pair(atom(2), atom(5))),
    )
    assert incidence_failure(*call) is None


def test_incidence_all_four_checkable():
    a0, a1 = atom(1), atom(2)
    b0, b1 = atom(1), atom(2)
    whole, none, moved = SamenessRelation([((), ())]), SamenessRelation(), atom(0)
    call = [
        DeltaUpdate(a0, a1, diff(a0, a1)),
        DeltaTrace(b0, a0, whole),
        DeltaUpdate(b0, b1, diff(b0, b1)),
        DeltaTrace(a1, b1, whole),
    ]
    assert incidence_failure(*call) is None
    # Moving one end of a trace breaks the one condition that reads it.
    for position, trace, failure in [
        (1, DeltaTrace(b0, moved, none), ("pre(in-update) = tgt(in-trace)", a0, moved)),
        (1, DeltaTrace(moved, a0, none), ("pre(out-update) = src(in-trace)", b0, moved)),
        (3, DeltaTrace(moved, b1, none), ("post(in-update) = src(out-trace)", a1, moved)),
        (3, DeltaTrace(a1, moved, none), ("post(out-update) = tgt(out-trace)", b1, moved)),
    ]:
        broken = list(call)
        broken[position] = trace
        assert incidence_failure(*broken) == failure


def test_incidence_fabricated_mismatch():
    # output trace claims a target the output update does not reach
    failure = incidence_failure(
        PostState(pair(atom(2), atom(5))),
        NO_TRACE,
        PostState(atom(3)),
        DeltaTrace(pair(atom(2), atom(5)), atom(4), SamenessRelation()),
    )
    assert failure == ("post(out-update) = tgt(out-trace)", atom(3), atom(4))


def test_incidence_vacuous_when_nothing_representable():
    # No condition has both operands represented, so none can fail.
    assert incidence_failure(Edits(()), NO_TRACE, Edits(()), ComplementTrace(atom(1))) is None


# -- preorder ----------------------------------------------------------------------

def test_preorder_identity_minimal():
    a = rec(k=atom(1), u=atom(7))
    a1 = rec(k=atom(1), u=atom(8))
    order = default_preorder(BothStates)
    assert order.compare(BothStates(a, a), BothStates(a, a1)) == LESS_OR_EQUAL
    assert order.compare(BothStates(a, a1), BothStates(a, a)) == GREATER


def test_preorder_edit_length():
    order = default_preorder(Edits)
    assert order.compare(Edits([Insert(0, atom(1))]), Edits([])) == GREATER
    assert order.compare(Edits([]), Edits([Insert(0, atom(1))])) == LESS_OR_EQUAL


def test_preorder_delta_unlinked_targets():
    a = rec(k=atom(1), u=atom(7))
    # full relation minus the root: one unlinked target path
    s_full = SamenessRelation(
        [((GoField("k"),), (GoField("k"),)), ((GoField("u"),), (GoField("u"),))]
    )
    # only the key linked: two unlinked target paths
    b1 = rec(k=atom(1), u=atom(8))
    s_partial = SamenessRelation([((GoField("k"),), (GoField("k"),))])
    order = default_preorder(DeltaUpdate)
    u_small = DeltaUpdate(a, a, s_full)
    u_large = DeltaUpdate(a, b1, s_partial)
    assert order.size(u_small) == 1
    assert order.size(u_large) == 2
    assert order.compare(u_small, u_large) == LESS_OR_EQUAL
    assert order.compare(u_large, u_small) == GREATER


def test_preorder_not_expressible_for_opaque():
    with pytest.raises(NotExpressibleError):
        default_preorder(Opaque)


def _assert_total_preorder(order, updates):
    for u in updates:
        assert order.compare(u, u) == LESS_OR_EQUAL
    for u1 in updates:
        for u2 in updates:
            first = order.compare(u1, u2)
            second = order.compare(u2, u1)
            assert LESS_OR_EQUAL in (first, second)  # totality
            if first == LESS_OR_EQUAL:
                for u3 in updates:
                    if order.compare(u2, u3) == LESS_OR_EQUAL:
                        assert order.compare(u1, u3) == LESS_OR_EQUAL


def test_preorder_total_reflexive_transitive_each_representation():
    domain = recs_of(k=atoms(1, 2), u=atoms(7, 8))
    _assert_total_preorder(default_preorder(BothStates), _both_universe(domain))
    _assert_total_preorder(default_preorder(DeltaUpdate), _delta_universe(domain))
    seq_domain = seqs_of(atoms(0, 1), 1)
    edit_updates = [u for _, u in _edits_universe(seq_domain, length=2)]
    _assert_total_preorder(default_preorder(Edits), edit_updates)
    posts = [PostState(v) for v in enumerate_values(domain)]
    _assert_total_preorder(default_preorder(PostState), posts)


def test_representation_tables_cover_each_other():
    # A representation is one class with its letter and one grammar form;
    # the update classes other than opaque ones can be built.
    for base in (Update, Traceability):
        classes = base.__subclasses__()
        assert all(cls.__module__ == "bxkit.scheme" for cls in classes), classes
        symbols = [cls.symbol for cls in classes]
        assert len(set(symbols)) == len(symbols), classes
        for cls in classes:
            assert cls in bxkit.grammar._FORMS, cls
    constructors = [cls for cls in Update.__subclasses__() if cls.algebraic]
    assert set(constructors) == set(Update.__subclasses__()) - {Opaque}
    pre, post = seq(atom(0)), seq(atom(0), atom(1))
    for constructor in constructors:
        step = (Insert(1, atom(1)),) if constructor.edits else post
        update = constructor.build(pre, step)
        assert type(update) is constructor
        assert type(constructor.null(pre)) is constructor
        assert update.post_state(pre) == post
    # Each class's declared capabilities agree with its operators on a sample.
    updates = [cls.build(pre, (Insert(1, atom(1)),) if cls.edits else post) for cls in constructors]
    for update in updates + [Opaque("f")]:
        cls = type(update)
        assert cls.carries_pre == (update.pre_state() is not None), cls
        assert cls.invertible == (update.inverse() is not None), cls
        assert cls.identifiable == _null_is_told_apart(cls, pre, post), cls
        assert cls.algebraic == _answers(default_preorder, cls), cls
    traces = [NO_TRACE, StateTrace(pre), ComplementTrace(pre), DeltaTrace(pre, post, diff(pre, post))]
    assert {type(trace) for trace in traces} == set(Traceability.__subclasses__())
    for trace in traces:
        cls = type(trace)
        assert cls.carries_state == (trace.source() is not None), cls
        assert cls.carries_both == (trace.target() is not None), cls
        assert cls.anchored == (cls.testifying(None, None, None) is None), cls


def _null_is_told_apart(cls, v, w) -> bool:
    # The null update on ``v`` names ``v`` as its pre-state or leaves
    # another state ``w`` unchanged; a post-state ``v`` does neither.
    null = cls.null(v)
    return null is not None and (null.pre_state() == v or null.post_state(w) == w)


def _answers(operator, *args) -> bool:
    try:
        operator(*args)
    except SchemeError:
        return False
    return True


def test_each_representation_class_carries_the_papers_letter():
    updates = {
        PostState: "S", BothStates: "\U0001d54a", DeltaUpdate: "D",
        Edits: "E", StateEdits: "\U0001d53c", Opaque: "F",
    }
    traces = {NoTrace: "N", StateTrace: "S", ComplementTrace: "C", DeltaTrace: "D"}
    for base, symbols in ((Update, updates), (Traceability, traces)):
        assert set(base.__subclasses__()) == set(symbols)
        assert {cls: cls.symbol for cls in symbols} == symbols
    assert BothStates(atom(1), atom(2)).symbol == "\U0001d54a" and NO_TRACE.symbol == "N"
