"""The catalog's list edit lens: its translators thread the complement as one
list and agree with the slice-based definition they replaced.  Also the
relations of the record entries, on records and on values of other shapes."""
import dataclasses
from collections import Counter
from importlib import import_module

import pytest

from bxkit.catalog import catalog
from bxkit.frameworks import Undefined
from bxkit.scheme import Delete, Insert, ReplaceAt, ReplaceRoot, enumerate_op_sequences, enumerate_ops
from bxkit.values import Pair, Seq, atom, atoms, enumerate_values, pair, pairs_of, rec, seq, seqs_of

_BIT = atoms(0, 1)
_SOURCES = seqs_of(pairs_of(_BIT, _BIT), 2)
_TARGETS = seqs_of(_BIT, 2)


def _shaped(condition):
    if not condition:
        raise Undefined("value has the wrong shape for this transformation")


def _halves(s, side):
    _shaped(isinstance(s, Seq) and all(isinstance(el, Pair) for el in s.elements))
    return Seq(getattr(el, side) for el in s.elements)


def _reference_to(ops, c):
    """``translate_to`` as first written: a new complement after each edit,
    spliced from slices of the last one."""
    _shaped(isinstance(c, Seq))
    out = []
    for op in ops:
        els = c.elements
        if isinstance(op, Insert) and isinstance(op.element, Pair):
            if not 0 <= op.index <= len(els):
                raise Undefined("insert outside the tracked range")
            out.append(Insert(op.index, op.element.left))
            c = Seq(els[:op.index] + (op.element.right,) + els[op.index:])
        elif isinstance(op, Delete) and isinstance(op.removed, Pair):
            if not 0 <= op.index < len(els) or els[op.index] != op.removed.right:
                raise Undefined("delete does not match the tracked hidden half")
            out.append(Delete(op.index, op.removed.left))
            c = Seq(els[:op.index] + els[op.index + 1:])
        elif isinstance(op, ReplaceAt) and isinstance(op.old, Pair) and isinstance(op.new, Pair):
            if not 0 <= op.index < len(els) or els[op.index] != op.old.right:
                raise Undefined("replacement does not match the tracked hidden half")
            out.append(ReplaceAt(op.index, op.old.left, op.new.left))
            c = Seq(els[:op.index] + (op.new.right,) + els[op.index + 1:])
        elif isinstance(op, ReplaceRoot) and isinstance(op.old, Seq) and isinstance(op.new, Seq):
            if c != _halves(op.old, "right"):
                raise Undefined("root replacement disagrees with the complement")
            out.append(ReplaceRoot(_halves(op.old, "left"), _halves(op.new, "left")))
            c = _halves(op.new, "right")
        else:
            raise Undefined("edit cannot be translated")
    return tuple(out), c


def _reference_from(ops, c):
    """``translate_from`` as first written."""
    _shaped(isinstance(c, Seq))
    out = []
    for op in ops:
        els = c.elements
        if isinstance(op, Insert):
            raise Undefined("insert is untranslatable: no hidden half is tracked for it")
        elif isinstance(op, Delete):
            if not 0 <= op.index < len(els):
                raise Undefined("delete outside the tracked range")
            out.append(Delete(op.index, Pair(op.removed, els[op.index])))
            c = Seq(els[:op.index] + els[op.index + 1:])
        elif isinstance(op, ReplaceAt):
            if not 0 <= op.index < len(els):
                raise Undefined("replacement outside the tracked range")
            hidden = els[op.index]
            out.append(ReplaceAt(op.index, Pair(op.old, hidden), Pair(op.new, hidden)))
        elif isinstance(op, ReplaceRoot) and isinstance(op.old, Seq) and isinstance(op.new, Seq):
            if len(els) != len(op.old.elements):
                raise Undefined("root replacement disagrees with the complement")
            if len(op.new.elements) > len(els):
                raise Undefined("root replacement grows the list: hidden halves unknown")
            old_pairs = Seq(Pair(x, y) for x, y in zip(op.old.elements, els))
            new_hidden = els[: len(op.new.elements)]
            new_pairs = Seq(Pair(x, y) for x, y in zip(op.new.elements, new_hidden))
            out.append(ReplaceRoot(old_pairs, new_pairs))
            c = Seq(new_hidden)
        else:
            raise Undefined("edit cannot be translated")
    return tuple(out), c


@pytest.fixture
def translators(monkeypatch):
    """The two translators that ``build_list_edit_lens`` hands to its adapter."""
    handed = {}

    def capture(name, translate_to, translate_from, **domains):
        handed.update(to=translate_to, from_=translate_from)

    catalog = import_module("bxkit.catalog")  # the package's ``catalog`` is a function
    monkeypatch.setattr(catalog, "make_edit_lens", capture)
    catalog.build_list_edit_lens(2)
    return handed["to"], handed["from_"]


def _outcome(translate, ops, c):
    """The translated edits and complement, or the reason they are undefined."""
    try:
        return translate(ops, c)
    except Undefined as undefined:
        return undefined.reason


def _sequences(domain):
    """Every sequence of up to three edits offered from a state of ``domain``."""
    return {ops for state in enumerate_values(domain) for ops in enumerate_op_sequences(state, domain, 3)}


def _root_replacements(domain):
    """Every replacement of one state of ``domain`` by another, alone or
    followed by one edit of the new state."""
    states = enumerate_values(domain)
    return {
        (ReplaceRoot(x, y), *tail)
        for x in states
        for y in states
        if x != y
        for tail in ((), *((op,) for op in enumerate_ops(y, domain)))
    }


def _negative_indices(domain):
    """Every single positional edit offered from a state of ``domain``, moved
    to index -1: no enumeration offers it, so only a bound from below refuses it."""
    return {
        (dataclasses.replace(op, index=-1),)
        for state in enumerate_values(domain)
        for op in enumerate_ops(state, domain)
        if isinstance(op, (Insert, Delete, ReplaceAt))
    }


def test_the_translators_agree_with_their_slice_based_definition(translators):
    translate_to, translate_from = translators
    # Edits of a bit are root replacements that neither translator takes.
    untranslatable = _sequences(_BIT)
    complements = enumerate_values(_TARGETS)
    reasons = Counter()
    for translate, reference, inputs in (
        (translate_to, _reference_to, _sequences(_SOURCES) | _root_replacements(_SOURCES) | _sequences(_TARGETS)),
        (translate_from, _reference_from, _sequences(_TARGETS) | _root_replacements(_TARGETS)),
    ):
        inputs |= _negative_indices(_SOURCES) | _negative_indices(_TARGETS)
        for ops in inputs | untranslatable:
            for c in complements:
                got, expected = _outcome(translate, ops, c), _outcome(reference, ops, c)
                assert got == expected, (ops, c)
                if isinstance(expected, str):
                    reasons[expected] += 1
                else:
                    assert type(got[1]) is Seq and hash(got) == hash(expected), (ops, c)
                    reasons["defined"] += 1
    # Every branch of both translators is reached, defined or not.
    assert set(reasons) == {
        "defined",
        "insert outside the tracked range",
        "delete does not match the tracked hidden half",
        "replacement does not match the tracked hidden half",
        "root replacement disagrees with the complement",
        "edit cannot be translated",
        "insert is untranslatable: no hidden half is tracked for it",
        "delete outside the tracked range",
        "replacement outside the tracked range",
        "root replacement grows the list: hidden halves unknown",
    }


def test_a_later_edit_reads_the_complement_that_an_insert_shifted(translators):
    translate_to, translate_from = translators
    one, zero = atom(1), atom(0)
    ops = (Insert(0, pair(zero, one)), ReplaceAt(1, pair(one, zero), pair(zero, one)), Delete(0, pair(zero, one)))
    assert translate_to(ops, seq(zero)) == (
        (Insert(0, zero), ReplaceAt(1, one, zero), Delete(0, zero)),
        seq(one),
    )
    with pytest.raises(Undefined, match="delete outside the tracked range"):
        translate_from((Delete(0, one), Delete(1, zero)), seq(zero, one))


@pytest.mark.parametrize(
    "direction, op, reason",
    [
        ("to", Delete(-1, pair(atom(0), atom(1))), "delete does not match the tracked hidden half"),
        (
            "to",
            ReplaceAt(-1, pair(atom(0), atom(1)), pair(atom(1), atom(1))),
            "replacement does not match the tracked hidden half",
        ),
        ("from", Delete(-1, atom(0)), "delete outside the tracked range"),
        ("from", ReplaceAt(-1, atom(0), atom(1)), "replacement outside the tracked range"),
    ],
    ids=["to-delete", "to-replace", "from-delete", "from-replace"],
)
def test_a_negative_index_is_refused_not_read_from_the_end(translators, direction, op, reason):
    translate = dict(zip(("to", "from"), translators))[direction]
    with pytest.raises(Undefined, match=reason):
        translate((op,), seq(atom(0), atom(1)))


_ONE, _ZERO = atom(1), atom(0)


@pytest.mark.parametrize(
    "name, a, b, expected",
    [
        ("key-maintainer", _ONE, _ONE, False),
        ("key-maintainer", rec(k=_ONE), rec(k=_ONE), True),
        ("key-maintainer", rec(k=_ONE, u=_ZERO), rec(k=_ZERO, v=_ZERO), False),
        ("key-maintainer", rec(u=_ONE), rec(k=_ONE), False),
        ("trigonal-key", _ONE, _ONE, False),
        ("trigonal-key", rec(k=_ONE, u=_ZERO), rec(k=_ONE, v=_ZERO), True),
        ("trigonal-key", rec(k=_ONE, u=_ZERO), rec(k=_ONE, v=_ONE), False),
        ("trigonal-key", rec(k=_ONE), rec(k=_ONE, v=_ZERO), False),
        ("trigonal-key", rec(k=_ONE, u=_ZERO), rec(k=_ONE), False),
        ("rename-sync", _ONE, _ONE, False),
        ("rename-sync", rec(p=_ZERO, q=_ONE), rec(r=_ZERO, s=_ONE), True),
        ("rename-sync", rec(p=_ZERO, q=_ONE), rec(r=_ONE, s=_ZERO), False),
        ("rename-sync", rec(p=_ZERO), rec(r=_ZERO, s=_ONE), False),
        ("rename-sync", rec(p=_ZERO, q=_ONE), rec(s=_ONE), False),
    ],
)
def test_a_record_relation_refuses_values_of_another_shape(name, a, b, expected):
    assert catalog(name).bx.consistency(a, b) is expected
