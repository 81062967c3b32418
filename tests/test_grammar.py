"""Textual grammar: golden strings, parse errors, and round trips."""
import pytest

from bxkit.values import GoField, GoIndex, LEFT, RIGHT, SamenessRelation, atom, pair, rec, seq
from bxkit.scheme import (
    BothStates,
    ComplementTrace,
    Delete,
    DeltaTrace,
    DeltaUpdate,
    EditUnapplicable,
    Edits,
    Insert,
    NoTrace,
    Opaque,
    PostState,
    ReplaceAt,
    ReplaceRoot,
    SetField,
    StateEdits,
    StateTrace,
)
from bxkit.grammar import (
    ParseError,
    parse_path,
    parse_trace,
    parse_update,
    parse_value,
    render_path,
    render_trace,
    render_update,
    render_value,
)
from bxkit.values import diff


def test_value_golden_strings():
    assert render_value(pair(atom(1), atom("x"))) == '(1, "x")'
    assert render_value(seq(atom(1), atom(0))) == "[1, 0]"
    assert render_value(seq()) == "[]"
    assert render_value(rec(u=atom(7), k=atom(2))) == "{k = 2, u = 7}"
    assert render_value(rec()) == "{}"
    assert render_value(atom(-3)) == "-3"
    assert render_value(atom('say "hi" \\ there')) == '"say \\"hi\\" \\\\ there"'


def test_parse_record_example():
    assert parse_value("{k = 2, u = 7}") == rec(k=atom(2), u=atom(7))


def test_whitespace_insignificant():
    assert parse_value(" (  1 ,\n\t2 ) ") == pair(atom(1), atom(2))


@pytest.mark.parametrize(
    "text",
    ["[1, ]", "(1, 2", "{k = }", '"unterminated', "1 2", "{k: 1}", "[,]", '"bad \\n escape"'],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_value(text)


def test_parse_error_carries_position_and_expectation():
    with pytest.raises(ParseError) as err:
        parse_value("[1, ]")
    assert err.value.position == 4
    assert "value" in err.value.expected


def test_path_golden_strings():
    p = (LEFT, RIGHT, GoIndex(3), GoField("name"))
    assert render_path(p) == "/left/right/3/.name"
    assert parse_path("/left/right/3/.name") == p
    assert render_path(()) == ""
    assert parse_path("") == ()
    for step in (True, 1.5):
        with pytest.raises(TypeError):
            render_path((step,))


def test_update_golden_strings():
    assert render_update(PostState(atom(9))) == "state{post=9}"
    assert render_update(BothStates(atom(1), atom(2))) == "states{pre=1, post=2}"
    assert (
        render_update(Edits([Insert(0, atom(5)), Delete(1, atom(2))]))
        == "edits[ins(0, 5), del(1, 2)]"
    )
    assert render_update(Edits([])) == "edits[]"
    se = StateEdits(seq(atom(0)), [ReplaceAt(0, atom(0), atom(1))])
    assert render_update(se) == "stateedits{pre=[0], edits=[rep(0, 0, 1)]}"
    assert render_update(Opaque("shuffle")) == 'opaque{tag="shuffle"}'


def test_delta_update_golden_string():
    a = pair(atom(1), atom(5))
    b = pair(atom(2), atom(5))
    u = DeltaUpdate(a, b, diff(a, b))
    text = render_update(u)
    assert text == "delta{pre=(1, 5), post=(2, 5), same=[(/right, /right)]}"
    assert parse_update(text) == u


def test_trace_golden_strings():
    assert render_trace(NoTrace()) == "none"
    assert render_trace(StateTrace(pair(atom(2), atom(5)))) == "state{(2, 5)}"
    assert render_trace(ComplementTrace(seq(atom(1)))) == "compl{[1]}"
    t = DeltaTrace(atom(1), atom(1), SamenessRelation([((), ())]))
    assert render_trace(t) == "delta{src=1, tgt=1, same=[(, )]}"
    assert parse_trace(render_trace(t)) == t


@pytest.mark.parametrize(
    "text,expected",
    [
        ("edits[set(k, 1, 2)]", Edits([SetField("k", atom(1), atom(2))])),
        ("edits[root(1, 2)]", Edits([ReplaceRoot(atom(1), atom(2))])),
        ("state{post=(9, 5)}", PostState(pair(atom(9), atom(5)))),
        ("opaque{tag=\"f\"}", Opaque("f")),
    ],
)
def test_parse_update_forms(text, expected):
    assert parse_update(text) == expected


def test_update_roundtrips():
    updates = [
        PostState(rec(k=atom(1), u=atom(7))),
        BothStates(seq(), seq(atom(0))),
        Edits([Insert(0, pair(atom(1), atom(0))), SetField("k", atom(1), atom(2))]),
        StateEdits(seq(atom(1)), [Delete(0, atom(1))]),
        Opaque('weird "tag"'),
    ]
    for u in updates:
        assert parse_update(render_update(u)) == u


def test_trace_roundtrips():
    a, b = rec(k=atom(1), u=atom(7)), rec(k=atom(1), v=atom(8))
    traces = [
        NoTrace(),
        StateTrace(a),
        ComplementTrace(pair(atom(0), atom(1))),
        DeltaTrace(a, b, SamenessRelation([((GoField("k"),), (GoField("k"),))])),
    ]
    for t in traces:
        assert parse_trace(render_trace(t)) == t


def test_parse_update_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_update("state{post=9} extra")


def test_parse_trace_rejects_unknown_head():
    with pytest.raises(ParseError):
        parse_trace("mystery{1}")


@pytest.mark.parametrize(
    "parse,text,position,expected",
    [
        (parse_update, "states{post=1, pre=2}", 7, "pre"),
        (parse_update, "edits[ins(0 5)]", 12, ","),
        (parse_update, "edits[mv(0, 1)]", 6, "ins or del or rep or set or root"),
        (parse_trace, "compl{}", 6, "a value"),
        (parse_update, "opaque{tag=1}", 11, "a tag string"),
        (parse_update, "state{post=1", 12, "}"),
        (parse_trace, "state{post=1}", 6, "a value"),
        (parse_update, "stateedits{pre=[0], edits=[del(0, 0)], x=1}", 37, "}"),
        (parse_trace, "delta{src=1, tgt=1}", 18, ","),
        (parse_update, "edits[set(1, 2, 3)]", 10, "field name"),
        (parse_update, "edits[ins(x, 1)]", 10, "an index"),
        (parse_trace, "none{}", 4, "end of input"),
        (parse_value, "{k = 1, }", 8, "field name"),
        (parse_value, "{k = 1 u = 2}", 7, "}"),
        (parse_value, "[1 2]", 3, "]"),
        (parse_update, "edits[ins(0, 1), ]", 17, "ins or del or rep or set or root"),
        (parse_update, "edits[ins(0, 1) del(0, 1)]", 16, "]"),
        (parse_update, "delta{pre=(1, 1), post=(1, 1), same=[(/left, /left), ]}", 53, "("),
        (parse_update, "delta{pre=(1, 1), post=(1, 1), same=[(/left, /left) (/right, /right)]}", 52, "]"),
        # Text that no renderer produces: a repeated field or link, and an
        # integer with a leading zero or a minus zero.
        (parse_value, "{k = 1, k = 2}", 8, "a field name not given before"),
        (parse_value, "[{u = 1, k = 2, u = 1}]", 16, "a field name not given before"),
        (parse_update, "delta{pre=(1, 1), post=(1, 1), same=[(/left, /left), (/left, /left)]}", 53,
         "a link not given before"),
        (parse_trace, "delta{src=[0], tgt=[0], same=[(/0, /0), (, ), (/0, /0)]}", 46, "a link not given before"),
        (parse_value, "007", 0, "canonical integer 7"),
        (parse_value, "-0", 0, "canonical integer 0"),
        (parse_value, "[1, -05]", 4, "canonical integer -5"),
        (parse_path, "/-0/007", 1, "canonical integer 0"),
        (parse_path, "/0/007", 3, "canonical integer 7"),
        (parse_update, "edits[ins(00, 1)]", 10, "canonical integer 0"),
        # Text the grammar reads but a constructor refuses, at the form's head.
        (parse_update, "delta{pre=(1, 1), post=(1, 1), same=[(/left, /left), (/left, /right)]}", 0,
         "delta that its constructor accepts: sameness relation must be a partial bijection on paths"),
        (parse_update, "delta{pre=1, post=1, same=[(/left, /left)]}", 0,
         "delta that its constructor accepts: delta links must address valid paths of pre/post"),
        (parse_update, "stateedits{pre=[0], edits=[del(1, 0)]}", 0,
         "stateedits that its constructor accepts: delete at 1"),
        (parse_trace, "delta{src=1, tgt=1, same=[(/left, /left)]}", 0,
         "delta that its constructor accepts: trace links must address valid paths of src/tgt"),
    ],
)
def test_update_and_trace_parse_errors(parse, text, position, expected):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.position, err.value.expected) == (position, expected)


def test_a_constructor_refusal_is_kept_as_the_parse_errors_cause():
    with pytest.raises(ParseError) as err:
        parse_update("stateedits{pre=[0], edits=[del(1, 0)]}")
    assert isinstance(err.value.__cause__, EditUnapplicable)
    with pytest.raises(ParseError) as err:
        parse_trace("delta{src=1, tgt=1, same=[(/left, /left)]}")
    assert type(err.value.__cause__) is ValueError


def test_render_rejects_unserializable_field_names():
    with pytest.raises(ValueError):
        render_value(rec({"not a name": atom(1)}))
    with pytest.raises(ValueError):
        render_update(Edits([SetField("not a name", atom(1), atom(2))]))


# -- randomized round trips over updates and traces ---------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

from bxkit.values import Rec as _Rec, Seq as _Seq, atom as _atom


def _rand_values():
    base = st.one_of(
        st.integers(-20, 20).map(_atom),
        st.text(alphabet="abc\\\"", max_size=3).map(_atom),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda lr: pair(*lr)),
            st.lists(children, max_size=2).map(_Seq),
            st.dictionaries(st.sampled_from(["k", "u"]), children, max_size=2).map(_Rec),
        )

    return st.recursive(base, extend, max_leaves=6)


def _rand_ops():
    v = _rand_values()
    return st.one_of(
        st.builds(Insert, st.integers(0, 3), v),
        st.builds(Delete, st.integers(0, 3), v),
        st.builds(ReplaceAt, st.integers(0, 3), v, v),
        st.builds(SetField, st.sampled_from(["k", "u"]), v, v),
        st.builds(ReplaceRoot, v, v),
    )


def _rand_updates():
    v = _rand_values()
    return st.one_of(
        st.builds(PostState, v),
        st.builds(BothStates, v, v),
        st.builds(lambda x: DeltaUpdate(x, x, diff(x, x)), v),
        st.builds(lambda x, y: DeltaUpdate(x, y, diff(x, y)), v, v),
        st.builds(lambda x: StateEdits(x, ()), v),
        st.builds(lambda x, y: StateEdits(x, (ReplaceRoot(x, y),)), v, v),
        st.lists(_rand_ops(), max_size=3).map(Edits),
        st.builds(Opaque, st.text(alphabet="abc\\\"", max_size=5)),
    )


def _rand_traces():
    v = _rand_values()
    return st.one_of(
        st.just(NoTrace()),
        st.builds(StateTrace, v),
        st.builds(ComplementTrace, v),
        st.builds(lambda x, y: DeltaTrace(x, y, diff(x, y)), v, v),
    )


@settings(max_examples=120, deadline=None)
@given(_rand_updates())
def test_update_roundtrip_random(u):
    assert parse_update(render_update(u)) == u


@settings(max_examples=120, deadline=None)
@given(_rand_traces())
def test_trace_roundtrip_random(t):
    assert parse_trace(render_trace(t)) == t
