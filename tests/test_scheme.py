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
    apply_op,
    apply_ops,
    check_incidence,
    compose_trace_update,
    compose_updates,
    default_preorder,
    delta_of,
    enumerate_op_sequences,
    enumerate_ops,
    identity_update,
    invert_op,
    invert_trace,
    invert_update,
    rho_of,
    src_of,
    tgt_of,
)
from bxkit.verdict import Fails, Holds, Vacuous
import bxkit.grammar


# -- projections ---------------------------------------------------------------

def test_projection_examples():
    assert rho_of(PostState(atom(5))) == atom(5)
    assert delta_of(BothStates(atom(3), atom(4))) == atom(3)
    assert rho_of(BothStates(atom(3), atom(4))) == atom(4)


def test_post_only_update_has_no_pre_state():
    with pytest.raises(StateNotRepresented) as err:
        delta_of(PostState(atom(5)))
    assert err.value.end == "pre"


def test_state_edits_post_state_is_computed():
    u = StateEdits(seq(atom(1)), [Insert(1, atom(2))])
    assert rho_of(u) == seq(atom(1), atom(2))
    assert delta_of(u) == seq(atom(1))


def test_edit_only_update_has_neither_state():
    u = Edits([Insert(0, atom(1))])
    with pytest.raises(StateNotRepresented):
        delta_of(u)
    with pytest.raises(StateNotRepresented):
        rho_of(u)


def test_trace_endpoints():
    assert src_of(StateTrace(pair(atom(1), atom(5)))) == pair(atom(1), atom(5))
    t = DeltaTrace(atom(1), atom(2), SamenessRelation())
    assert src_of(t) == atom(1) and tgt_of(t) == atom(2)
    for missing in (NoTrace(), ComplementTrace(atom(1))):
        with pytest.raises(StateNotRepresented):
            src_of(missing)
    with pytest.raises(StateNotRepresented):
        tgt_of(StateTrace(atom(1)))


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
        assert delta_of(u) == rho_of(u) == v


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
    assert invert_update(BothStates(atom(1), atom(2))) == BothStates(atom(2), atom(1))
    assert invert_update(Edits([Insert(0, atom(5))])) == Edits([Delete(0, atom(5))])
    ops = [Insert(0, atom(1)), Insert(1, atom(2))]
    assert invert_update(Edits(ops)) == Edits([Delete(1, atom(2)), Delete(0, atom(1))])
    for repr_violation in (PostState(atom(1)), Opaque("f")):
        with pytest.raises(NotExpressibleError):
            invert_update(repr_violation)


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
        assert invert_update(invert_update(u)) == u
    deltas = _delta_universe(PAIR_DOMAIN)
    assert len(deltas) >= 100
    for u in deltas:
        assert invert_update(invert_update(u)) == u
    edits = _edits_universe(SEQ_DOMAIN)
    assert len(edits) >= 100
    for _, u in edits:
        assert invert_update(invert_update(u)) == u
    state_edits = [StateEdits(start, u.ops) for start, u in edits]
    for u in state_edits:
        assert invert_update(invert_update(u)) == u


def test_edit_soundness_apply_then_undo():
    for start, u in _edits_universe(SEQ_DOMAIN):
        after = apply_ops(u.ops, start)
        assert apply_ops(invert_update(u).ops, after) == start


def test_seam_laws_bounded_exhaustive():
    values = enumerate_values(pairs_of(atoms(0, 1, 2), atoms(0, 1)))
    for a in values:
        for b in values:
            for c in values:
                composite = compose_updates(BothStates(b, c), BothStates(a, b))
                assert delta_of(composite) == a
                assert rho_of(composite) == c
                d = compose_updates(
                    DeltaUpdate(b, c, diff(b, c)), DeltaUpdate(a, b, diff(a, b))
                )
                assert delta_of(d) == a and rho_of(d) == c


def test_identity_laws_bounded_exhaustive():
    for u in _both_universe(pairs_of(atoms(0, 1, 2), atoms(0, 1, 2))):
        assert compose_updates(u, identity_update(delta_of(u), BothStates)) == u
        assert compose_updates(identity_update(rho_of(u), BothStates), u) == u
    for u in _delta_universe(pairs_of(atoms(0, 1), atoms(0, 1, 2))):
        assert compose_updates(u, identity_update(delta_of(u), DeltaUpdate)) == u
        assert compose_updates(identity_update(rho_of(u), DeltaUpdate), u) == u
    for _, u in _edits_universe(SEQ_DOMAIN, length=1):
        assert compose_updates(u, Edits(())) == u
        assert compose_updates(Edits(()), u) == u


# -- edit operations ------------------------------------------------------------

def test_apply_op_preconditions():
    s = seq(atom(1), atom(2))
    assert apply_op(Insert(2, atom(3)), s) == seq(atom(1), atom(2), atom(3))
    with pytest.raises(EditUnapplicable):
        apply_op(Insert(5, atom(3)), s)
    with pytest.raises(EditUnapplicable):
        apply_op(Delete(0, atom(9)), s)  # displaced value mismatch
    with pytest.raises(EditUnapplicable):
        apply_op(SetField("k", atom(0), atom(1)), rec(k=atom(9)))
    with pytest.raises(EditUnapplicable):
        apply_op(ReplaceRoot(atom(0), atom(1)), atom(5))


def test_invert_op_is_involutive():
    ops = [
        Insert(0, atom(1)),
        Delete(2, atom(3)),
        ReplaceAt(1, atom(0), atom(1)),
        SetField("k", atom(1), atom(2)),
        ReplaceRoot(atom(1), atom(2)),
    ]
    for op in ops:
        assert invert_op(invert_op(op)) == op


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


# -- traces ----------------------------------------------------------------------

def test_invert_trace_examples():
    c = ComplementTrace(atom(3))
    assert invert_trace(c) == c
    rel = SamenessRelation([((LEFT,), (RIGHT,))])
    t = DeltaTrace(pair(atom(1), atom(2)), pair(atom(3), atom(1)), rel)
    back = invert_trace(t)
    assert back == DeltaTrace(pair(atom(3), atom(1)), pair(atom(1), atom(2)), rel.invert())
    assert invert_trace(back) == t
    assert invert_trace(NO_TRACE) == NO_TRACE
    assert invert_trace(StateTrace(atom(1))) == StateTrace(atom(1))


def test_compose_trace_update_examples():
    a, b = atom(1), atom(2)
    rel = SamenessRelation([((), ())])
    t = DeltaTrace(a, b, SamenessRelation())
    # identity update leaves a delta trace unchanged up to its own links
    same_again = compose_trace_update(BothStates(b, b), DeltaTrace(a, b, rel))
    assert same_again == DeltaTrace(a, b, compose_relations_check(rel, b))
    # stored-state traces keep their payload
    st = compose_trace_update(PostState(atom(9)), StateTrace(a))
    assert st == StateTrace(a)
    with pytest.raises(NotExpressibleError):
        compose_trace_update(PostState(atom(1)), NO_TRACE)
    with pytest.raises(NotExpressibleError):
        compose_trace_update(PostState(atom(1)), ComplementTrace(atom(1)))
    with pytest.raises(SeamMismatch):
        compose_trace_update(BothStates(atom(7), atom(8)), t)


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
    out = compose_trace_update(upd, DeltaTrace(a, b0, trace_rel))
    assert out.src == a and out.tgt == b1
    # k changed, so the composite relation loses the k link
    assert out.same == SamenessRelation()


# -- endpoint agreement ------------------------------------------------------------

def test_incidence_lens_example():
    v = check_incidence(
        PostState(pair(atom(2), atom(5))),
        NO_TRACE,
        PostState(atom(2)),
        StateTrace(pair(atom(2), atom(5))),
        "to",
    )
    assert isinstance(v, Holds) and v.cases_checked == 1


def test_incidence_all_four_checkable():
    a0, a1 = atom(1), atom(2)
    b0, b1 = atom(1), atom(2)
    v = check_incidence(
        DeltaUpdate(a0, a1, diff(a0, a1)),
        DeltaTrace(b0, a0, SamenessRelation([((), ())])),
        DeltaUpdate(b0, b1, diff(b0, b1)),
        DeltaTrace(a1, b1, SamenessRelation([((), ())])),
        "to",
    )
    assert isinstance(v, Holds) and v.cases_checked == 4


def test_incidence_fabricated_mismatch():
    # output trace claims a target the output update does not reach
    v = check_incidence(
        PostState(pair(atom(2), atom(5))),
        NO_TRACE,
        PostState(atom(3)),
        DeltaTrace(pair(atom(2), atom(5)), atom(4), SamenessRelation()),
        "to",
    )
    assert isinstance(v, Fails)
    assert "post(out-update) = tgt(out-trace)" in v.counterexample.detail


def test_incidence_vacuous_when_nothing_representable():
    v = check_incidence(Edits(()), NO_TRACE, Edits(()), ComplementTrace(atom(1)), "from")
    assert isinstance(v, Vacuous)


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
        assert _post_of(update, pre) == post
    # Each class's declared capabilities agree with its operators on a sample.
    updates = [cls.build(pre, (Insert(1, atom(1)),) if cls.edits else post) for cls in constructors]
    for update in updates + [Opaque("f")]:
        cls = type(update)
        assert cls.carries_pre == _answers(delta_of, update), cls
        assert cls.invertible == _answers(invert_update, update), cls
        assert cls.identifiable == _null_is_told_apart(cls, pre, post), cls
        assert cls.algebraic == _answers(default_preorder, cls), cls
    traces = [NO_TRACE, StateTrace(pre), ComplementTrace(pre), DeltaTrace(pre, post, diff(pre, post))]
    assert {type(trace) for trace in traces} == set(Traceability.__subclasses__())
    for trace in traces:
        cls = type(trace)
        assert cls.carries_state == _answers(src_of, trace), cls
        assert cls.carries_both == _answers(tgt_of, trace), cls
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


def _post_of(update, pre):
    try:
        return rho_of(update)
    except StateNotRepresented:
        return apply_ops(update.ops, pre)


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
