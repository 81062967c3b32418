"""Generated transformations as a second oracle for the law checkers' memos.

History ignorance and least update reuse second results, combined results
and consistency-restoring alternatives.  Here they are compared with their
plain loops of ``test_differential.py`` on tabulated transformations drawn
by hypothesis: maintainers with a random relation and partial repairs, and
lenses with a random ``get`` and a partial ``put``.  A third family draws
from sequence domains and sometimes returns an unhashable copy of a
result, which is inside the domain but equal to no enumerated value, so
the memos meet keys they cannot hash.  Trigonal systems, a random relation
with partial repairs that read both states of the update, are drawn
apart: least update builds their both-states alternatives from the
partner row, where the plain loop scans every update.  The examples are
fixed: the search is derandomized and keeps no database.
"""
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bxkit.frameworks import Undefined, make_lens, make_maintainer, make_trigonal
from bxkit.grammar import render_value
from bxkit.laws import DIRECTIONS, HISTORY_IGNORANCE, LEAST_UPDATE
from bxkit.values import atoms, enumerate_values, seqs_of

from test_differential import _Loose, _assert_matches_plain_loop

ATOM_DOMAINS = (atoms(0, 1, 2), atoms(0, 1))
# Three and two values, as above, but sequences, which ``_Loose`` can copy.
SEQ_DOMAINS = (seqs_of(atoms(0, 1), 1), seqs_of(atoms(0), 1))
# Three sequences a side, whose both-states updates differ in size, so an
# input often has several strictly smaller alternatives and their order
# decides the counterexample.
TRIGONAL_SEQ_DOMAINS = (seqs_of(atoms(0, 1), 1),) * 2


def _key(*values):
    # Tables are keyed by rendering, which an unhashable copy shares with
    # the value it copies.
    return tuple(render_value(v) for v in values)


@st.composite
def _cells(draw, keys, outputs, loose):
    """A partial table from ``keys`` to ``outputs``; with ``loose``, an
    output is sometimes an unhashable copy."""
    table = {}
    for key in keys:
        index = draw(st.none() | st.integers(0, len(outputs) - 1))
        if index is not None:
            value = outputs[index]
            table[key] = _Loose(value.elements) if loose and draw(st.booleans()) else value
    return table


def _lookup(table, *values):
    try:
        return table[_key(*values)]
    except KeyError:
        raise Undefined("no table entry") from None


@st.composite
def _maintainers(draw, domains, loose=False):
    a_values, b_values = (enumerate_values(d) for d in domains)
    pairs = [_key(a, b) for a in a_values for b in b_values]
    relation = {pair for pair in pairs if draw(st.booleans())}
    to_table = draw(_cells(pairs, b_values, loose))
    from_table = draw(_cells([_key(b, a) for b in b_values for a in a_values], a_values, loose))
    return make_maintainer(
        "generated-maintainer",
        lambda a, b: _key(a, b) in relation,
        lambda a_post, b_pre: _lookup(to_table, a_post, b_pre),
        lambda b_post, a_pre: _lookup(from_table, b_post, a_pre),
        *domains,
    )


@st.composite
def _lenses(draw, domains, loose=False):
    a_values, b_values = (enumerate_values(d) for d in domains)
    get_table = {}
    for a in a_values:
        b = draw(st.sampled_from(b_values))
        get_table[_key(a)] = _Loose(b.elements) if loose and draw(st.booleans()) else b
    put_table = draw(_cells([_key(b, a) for b in b_values for a in a_values], a_values, loose))
    return make_lens(
        "generated-lens",
        lambda a: _lookup(get_table, a),
        lambda b, a: _lookup(put_table, b, a),
        *domains,
    )


@st.composite
def _trigonals(draw, domains, loose=False):
    """A random relation with partial repairs keyed by both states of the
    update and the trace state."""
    a_values, b_values = (enumerate_values(d) for d in domains)
    relation = {_key(a, b) for a in a_values for b in b_values if draw(st.booleans())}
    to_keys = [_key(a, a2, b) for a in a_values for a2 in a_values for b in b_values]
    to_table = draw(_cells(to_keys, b_values, loose))
    from_keys = [_key(b, b2, a) for b in b_values for b2 in b_values for a in a_values]
    from_table = draw(_cells(from_keys, a_values, loose))
    return make_trigonal(
        "generated-trigonal",
        lambda a, b: _key(a, b) in relation,
        lambda states, b_pre: _lookup(to_table, *states, b_pre),
        lambda states, a_pre: _lookup(from_table, *states, a_pre),
        *domains,
    )


TRANSFORMATIONS = (
    _maintainers(ATOM_DOMAINS)
    | _lenses(ATOM_DOMAINS)
    | _maintainers(SEQ_DOMAINS, loose=True)
    | _lenses(SEQ_DOMAINS, loose=True)
)


@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    # The fixture is only patched inside the helper's own context.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(TRANSFORMATIONS)
def test_memoized_laws_match_their_plain_loops(monkeypatch, bx):
    for law in (HISTORY_IGNORANCE, LEAST_UPDATE):
        for direction in DIRECTIONS:
            _assert_matches_plain_loop(monkeypatch, bx, direction, law=law)


@settings(
    max_examples=30,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_trigonals(ATOM_DOMAINS) | _trigonals(TRIGONAL_SEQ_DOMAINS, loose=True))
def test_memoized_laws_match_their_plain_loops_on_both_states(monkeypatch, bx):
    for law in (HISTORY_IGNORANCE, LEAST_UPDATE):
        for direction in DIRECTIONS:
            _assert_matches_plain_loop(monkeypatch, bx, direction, law=law)
