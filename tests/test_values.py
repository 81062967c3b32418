"""Value model: enumeration, paths, selection, the diff oracle, and the
hashes kept by values, edits, updates and traces."""
import copy
import dataclasses
import inspect
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bxkit
from bxkit.scheme import (
    BothStates,
    default_preorder,
    ComplementTrace,
    Delete,
    DeltaTrace,
    DeltaUpdate,
    Edits,
    NoTrace,
    Opaque,
    PostState,
    ReplaceAt,
    StateEdits,
    StateTrace,
    enumerate_ops,
)
from bxkit.values import (
    AtomInt,
    ENUMERATION_CAP,
    CapExceeded,
    GoField,
    GoIndex,
    InvalidPath,
    LEFT,
    RIGHT,
    Rec,
    SamenessRelation,
    Seq,
    Value,
    all_paths,
    atom,
    atoms,
    cardinality,
    close_relation,
    compose_relations,
    contains,
    diff,
    diff_size,
    enumerate_values,
    identity_relation,
    node_count,
    pair,
    pairs_of,
    rec,
    recs_of,
    select,
    seq,
    seqs_of,
)


# -- enumeration -------------------------------------------------------------

def test_atom_universe():
    assert enumerate_values(atoms(0, 1)) == (AtomInt(0), AtomInt(1))


def test_pair_universe_is_lexicographic():
    got = enumerate_values(pairs_of(atoms(0, 1), atoms(0, 1)))
    assert got == (
        pair(atom(0), atom(0)),
        pair(atom(0), atom(1)),
        pair(atom(1), atom(0)),
        pair(atom(1), atom(1)),
    )


def test_sequence_universe_and_cardinality():
    domain = seqs_of(atoms(0), 2)
    # geometric sum 1 + 1 + 1 over lengths 0..2
    assert cardinality(domain) == 3
    got = enumerate_values(domain)
    assert got == (seq(), seq(atom(0)), seq(atom(0), atom(0)))
    assert len(set(got)) == cardinality(domain)


@pytest.mark.parametrize(
    "domain",
    [
        atoms(1, 2, 3),
        pairs_of(atoms(0, 1), atoms("x", "y")),
        seqs_of(atoms(0, 1), 3),
        recs_of(k=atoms(1, 2), u=atoms(7, 8)),
        recs_of(outer=pairs_of(atoms(0), atoms(0, 1))),
    ],
)
def test_enumeration_matches_cardinality_and_membership(domain):
    values = enumerate_values(domain)
    assert len(values) == cardinality(domain)
    assert len(set(values)) == len(values)
    for v in values:
        assert contains(domain, v)


def test_enumeration_cap():
    wide = seqs_of(atoms(*range(10)), 6)  # 1 + 10 + ... + 10^6 values
    with pytest.raises(CapExceeded) as err:
        enumerate_values(wide)
    assert err.value.cardinality == sum(10 ** k for k in range(7))
    assert enumerate_values(wide, cap=err.value.cardinality)  # cap raised: fine


@pytest.mark.parametrize("as_component", [False, True], ids=["direct", "pair-component"])
def test_enumerations_above_the_cap_are_not_retained(as_component):
    wide = seqs_of(atoms(*range(10)), 5)  # 111,111 values
    assert cardinality(wide) > ENUMERATION_CAP
    domain = pairs_of(wide, atoms(0)) if as_component else wide
    tracemalloc.start()
    try:
        assert len(enumerate_values(domain, cap=200_000)) == cardinality(wide)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Pinning the 111,111 values would keep well over 10 MB alive.
    assert retained < 1_000_000


def test_diff_cache_is_bounded():
    assert diff.cache_info().maxsize is not None


def test_atom_domain_dedupes_preserving_order():
    assert enumerate_values(atoms(3, 1, 3, 2)) == (AtomInt(3), AtomInt(1), AtomInt(2))


# -- selection ---------------------------------------------------------------

def test_select_examples():
    assert select(pair(atom(1), atom(5)), (RIGHT,)) == atom(5)
    assert select(rec(k=atom(2), u=atom(7)), (GoField("k"),)) == atom(2)
    assert select(atom(3), ()) == atom(3)


def test_select_out_of_bounds_reports_failing_step():
    with pytest.raises(InvalidPath) as err:
        select(seq(atom(8), atom(9)), (GoIndex(2),))
    assert err.value.step_index == 0


@pytest.mark.parametrize(
    "value, path, step_index, reason",
    [
        (seq(atom(1)), (LEFT,), 0, "left on non-pair"),
        (pair(seq(atom(1)), atom(2)), (LEFT, RIGHT), 1, "right on non-pair"),
        (pair(atom(1), atom(2)), (GoIndex(0),), 0, "index on non-sequence"),
        (seq(atom(1)), (GoIndex(1),), 0, "index out of bounds"),
        (rec(k=atom(1)), (GoField("u"),), 0, "no field u"),
        (pair(atom(1), atom(2)), (RIGHT, GoField("k")), 1, "no field k"),
        (seq(atom(1)), (None,), 0, "unknown step"),
        (seq(atom(1)), (1.5,), 0, "unknown step"),
        (seq(atom(8), atom(9)), (True,), 0, "unknown step"),
        (pair(atom(1), atom(2)), (LEFT, False), 1, "unknown step"),
    ],
)
def test_select_reports_each_invalid_step(value, path, step_index, reason):
    with pytest.raises(InvalidPath) as err:
        select(value, path)
    assert err.value.step_index == step_index
    assert str(err.value) == f"path invalid at step {step_index} ({reason})"


def test_select_reports_first_failing_step_in_deep_path():
    v = pair(seq(atom(1)), atom(2))
    with pytest.raises(InvalidPath) as err:
        select(v, (LEFT, GoIndex(0), LEFT))
    assert err.value.step_index == 2


def test_all_paths_preorder():
    v = pair(atom(1), seq(atom(2)))
    assert all_paths(v) == ((), (LEFT,), (RIGHT,), (RIGHT, GoIndex(0)))


# -- sameness relations -------------------------------------------------------

def test_relation_rejects_non_bijection():
    with pytest.raises(ValueError):
        SamenessRelation([((), ()), ((), (LEFT,))])
    with pytest.raises(ValueError):
        SamenessRelation([((LEFT,), ()), ((RIGHT,), ())])


def test_relation_inversion_and_composition():
    r = SamenessRelation([((LEFT,), (RIGHT,)), ((RIGHT,), (LEFT,))])
    assert r.invert().invert() == r
    s = SamenessRelation([((RIGHT,), ()), ((LEFT,), (LEFT, LEFT))])
    composed = compose_relations(s, r)
    assert composed == SamenessRelation([((LEFT,), ()), ((RIGHT,), (LEFT, LEFT))])


def test_identity_relation_covers_all_paths():
    v = rec(k=atom(1), u=pair(atom(2), atom(3)))
    assert identity_relation(v) == SamenessRelation((p, p) for p in all_paths(v))


# -- diff --------------------------------------------------------------------

def test_diff_self_links_every_path():
    for domain in (recs_of(k=atoms(1, 2), u=atoms(7, 8)), seqs_of(atoms(0, 1), 2)):
        for v in enumerate_values(domain):
            rel = diff(v, v)
            assert rel == identity_relation(v)
            assert ((), ()) in rel.links


def test_diff_pair_example():
    rel = diff(pair(atom(1), atom(5)), pair(atom(2), atom(5)))
    # only the right components align; the root stays unlinked
    assert rel == SamenessRelation([((RIGHT,), (RIGHT,))])


def test_diff_against_empty_sequence():
    rel = diff(seq(rec(k=atom(1), u=atom(7))), seq())
    assert len(rel) == 0


def test_diff_sequence_alignment_prefers_leftmost():
    s1 = seq(atom(1), atom(1))
    s2 = seq(atom(1))
    rel = diff(s1, s2)
    assert (((GoIndex(0),), (GoIndex(0),))) in rel.links
    assert len(rel) == 1


def test_diff_sequence_lcs_skips_unequal():
    s1 = seq(atom(1), atom(2), atom(3))
    s2 = seq(atom(2), atom(9), atom(3))
    rel = dict(diff(s1, s2).links)
    assert rel[(GoIndex(1),)] == ((GoIndex(0),))
    assert rel[(GoIndex(2),)] == ((GoIndex(2),))
    assert (GoIndex(0),) not in rel


def test_diff_links_are_equal_components_bounded_exhaustive():
    domain = recs_of(k=atoms(1, 2), u=seqs_of(atoms(0, 1), 2))
    values = enumerate_values(domain)
    for a in values:
        for b in values:
            for src, tgt in diff(a, b).links:
                assert select(a, src) == select(b, tgt)


def test_diff_records_align_by_field_name():
    a = rec(k=atom(1), u=atom(7))
    b = rec(k=atom(2), u=atom(7))
    rel = diff(a, b)
    assert rel == SamenessRelation([((GoField("u"),), (GoField("u"),))])


def test_close_relation_adds_composite_links():
    a = rec(k=atom(1), u=atom(7))
    fields_only = SamenessRelation(
        [((GoField("k"),), (GoField("k"),)), ((GoField("u"),), (GoField("u"),))]
    )
    closed = close_relation(a, a, fields_only)
    assert ((), ()) in closed.links
    # a different partner value never gains a composite link
    b = rec(k=atom(2), u=atom(7))
    partial = SamenessRelation([((GoField("u"),), (GoField("u"),))])
    assert ((), ()) not in close_relation(a, b, partial).links


# -- hypothesis property: random values round-trip through render/parse ------

def _values(max_depth: int = 3):
    base = st.one_of(
        st.integers(-50, 50).map(atom),
        st.text(alphabet="abxyz\"\\", max_size=4).map(atom),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda lr: pair(*lr)),
            st.lists(children, max_size=3).map(Seq),
            st.dictionaries(
                st.sampled_from(["k", "u", "v", "name"]), children, max_size=3
            ).map(Rec),
        )

    return st.recursive(base, extend, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_values())
def test_render_parse_roundtrip_random(v):
    from bxkit.grammar import parse_value, render_value

    assert parse_value(render_value(v)) == v


@settings(max_examples=60, deadline=None)
@given(_values(), _values())
def test_diff_property_random(a, b):
    rel = diff(a, b)
    for src, tgt in rel.links:
        assert select(a, src) == select(b, tgt)


# -- counting without building: node_count and diff_size ---------------------

class _Loose(Seq):
    """A sequence that cannot be hashed, so ``diff`` aligns it uncached."""

    __hash__ = None


def _counted_values():
    """Values of several shapes: pairs, records with different field sets,
    sequences up to length 3, atoms, nested mixes, and unhashable copies."""
    domains = (
        atoms(0, "a"),
        pairs_of(atoms(0, 1), seqs_of(atoms(0, 1), 1)),
        recs_of(k=atoms(1, 2), u=atoms(7)),
        recs_of(k=atoms(1, 2), v=atoms(7)),
        seqs_of(atoms(0, 1), 3),
        seqs_of(pairs_of(atoms(0, 1), atoms(0)), 2),
        recs_of(k=seqs_of(atoms(0), 2), u=pairs_of(atoms(0, 1), atoms(0))),
    )
    values = [v for domain in domains for v in enumerate_values(domain)]
    loose = [_Loose(v.elements) for v in values if isinstance(v, Seq) and len(v.elements) > 1]
    return values + loose + [pair(x, atom(0)) for x in loose[:3]]


def test_counting_matches_the_paths_and_alignments_it_replaces():
    values = _counted_values()
    assert any(isinstance(v, _Loose) for v in values)
    for x in values:
        assert node_count(x) == len(all_paths(x))
        for y in values:
            assert diff_size(x, y) == len(diff(x, y)), (x, y)


def test_default_preorders_match_their_path_definitions():
    both = default_preorder(BothStates).size
    delta = default_preorder(DeltaUpdate).size
    post = default_preorder(PostState).size
    values = _counted_values()
    for x in values:
        assert post(PostState(x)) == len(all_paths(x))
        for y in values:
            aligned = diff(x, y)
            assert both(BothStates(x, y)) == len(all_paths(y)) - len(aligned)
            for same in (aligned, SamenessRelation()):
                assert delta(DeltaUpdate(x, y, same)) == len(all_paths(y)) - len({t for _, t in same.links})


# -- hashes kept after the first use -----------------------------------------

_STATES = pairs_of(recs_of(name=atoms("x", "y")), seqs_of(atoms(0, "a"), 2))


def _hashed_objects():
    """Enumerated values with their components, every edit of them in their
    domain, and updates and traces built from both."""
    values = enumerate_values(_STATES)
    parts = [select(v, p) for v in values[:4] for p in all_paths(v)]
    ops = [
        op
        for v in values[:4]
        for part, domain in ((v, _STATES), (v.left, _STATES.left), (v.right, _STATES.right))
        for op in enumerate_ops(part, domain)
    ]
    pre, post = values[1], values[-1]
    updates = [
        PostState(post),
        BothStates(pre, post),
        DeltaUpdate(pre, post, diff(pre, post)),
        Edits(ops[:2]),
        StateEdits(pre, enumerate_ops(pre, _STATES)[:1]),
        Opaque("f"),
    ]
    traces = [NoTrace(), StateTrace(pre), ComplementTrace(post), DeltaTrace(pre, post, diff(pre, post))]
    return [*values, *parts, *ops, *updates, *traces]


def _fields(x):
    return tuple(getattr(x, f.name) for f in dataclasses.fields(x))


def _fresh(x):
    """An object equal to ``x``, built again from fresh parts."""
    if isinstance(x, tuple):
        return tuple(_fresh(el) for el in x)
    if isinstance(x, SamenessRelation):
        return SamenessRelation(x.links)
    if dataclasses.is_dataclass(x):
        return type(x)(*_fresh(_fields(x)))
    return x


def test_every_kind_of_value_edit_update_and_trace_is_hashed_here():
    kinds = {type(x).__name__ for x in _hashed_objects()}
    assert kinds == {
        "AtomInt", "AtomStr", "Pair", "Seq", "Rec",
        "Insert", "Delete", "ReplaceAt", "SetField", "ReplaceRoot",
        "PostState", "BothStates", "DeltaUpdate", "Edits", "StateEdits", "Opaque",
        "NoTrace", "StateTrace", "ComplementTrace", "DeltaTrace",
    }


def test_a_kept_hash_is_the_field_hash_of_a_fresh_equal_object():
    for x in _hashed_objects():
        first = hash(x)
        fresh = _fresh(x)
        assert fresh == x
        assert hash(x) == first == hash(fresh) == hash(_fields(x)), x


def test_copies_and_replacements_hash_like_fresh_objects():
    objects = _hashed_objects()
    by_class: dict[type, list] = {}
    for x in objects:
        hash(x)
        by_class.setdefault(type(x), []).append(x)
    for same_class in by_class.values():
        for x, other in zip(same_class, same_class[1:] + same_class[:1]):
            assert hash(copy.copy(x)) == hash(copy.deepcopy(x)) == hash(_fresh(x))
            replaced = dataclasses.replace(x, **{f.name: getattr(other, f.name) for f in dataclasses.fields(x)})
            assert replaced == other
            assert hash(replaced) == hash(_fresh(other))


def test_a_subclass_that_drops_the_hash_stays_unhashable():
    representatives = {type(x): x for x in _hashed_objects()}
    for cls, x in representatives.items():
        assert cls.__hash__ is not object.__hash__
        loose = type("Loose" + cls.__name__, (cls,), {"__hash__": None})(*_fields(x))
        with pytest.raises(TypeError):
            hash(loose)
        if isinstance(loose, Value):
            holder = pair(loose, atom(0))
            for _ in range(2):  # a failed hash is not kept
                with pytest.raises(TypeError):
                    hash(holder)


def test_records_are_frozen_and_built_by_position_or_by_keyword():
    for x in _hashed_objects():
        cls, values = type(x), _fields(x)
        names = [f.name for f in dataclasses.fields(x)]
        # ``dataclasses.replace`` passes every field by its name.
        assert list(inspect.signature(cls).parameters) == names, cls
        assert cls(*values) == cls(**dict(zip(names, values))) == x
        for name in [*names, "extra"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, atom(0))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, name)
        assert _fields(x) == values


def test_record_reprs_name_every_field_and_not_the_kept_hash():
    pinned = {
        ReplaceAt(0, atom(0), atom(1)): "ReplaceAt(index=0, old=AtomInt(value=0), new=AtomInt(value=1))",
        seq(atom(0), atom("a")): "Seq(elements=(AtomInt(value=0), AtomStr(value='a')))",
        rec(k=atom(1)): "Rec(fields=(('k', AtomInt(value=1)),))",
        Edits([Delete(1, pair(atom(0), atom(1)))]): (
            "Edits(ops=(Delete(index=1, removed=Pair(left=AtomInt(value=0), right=AtomInt(value=1))),))"
        ),
        StateEdits(seq(), ()): "StateEdits(pre=Seq(elements=()), ops=())",
        NoTrace(): "NoTrace()",
    }
    for x, text in pinned.items():  # building the dict hashed every key
        assert repr(x) == text


def test_a_delta_refuses_a_link_outside_its_states_however_it_is_built():
    bad = SamenessRelation([((LEFT,), ())])
    for cls, reason in ((DeltaUpdate, "delta links"), (DeltaTrace, "trace links")):
        args = (atom(0), atom(1), bad)
        names = [f.name for f in dataclasses.fields(cls)]
        with pytest.raises(ValueError, match=reason):
            cls(*args)
        with pytest.raises(ValueError, match=reason):
            cls(**dict(zip(names, args)))
        with pytest.raises(ValueError, match=reason):
            dataclasses.replace(cls(atom(0), atom(1), SamenessRelation()), same=bad)


_PICKLED = """
import pickle, sys
from bxkit.values import atom, diff, pair, rec, seq
from bxkit.scheme import ComplementTrace, DeltaUpdate, Edits, SetField, StateEdits

a = rec(name=atom("x"), tags=seq(atom("a"), atom(1)))
b = a.set("name", atom("y"))
objects = [
    atom("x"), a, pair(a, atom("z")), SetField("name", atom("x"), atom("y")),
    Edits([SetField("name", atom("x"), atom("y"))]), StateEdits(a, [SetField("name", atom("x"), atom("y"))]),
    DeltaUpdate(a, b, diff(a, b)), ComplementTrace(seq(atom("c"))),
    DeltaUpdate(pair(a, atom("z")), pair(b, atom("z")), diff(pair(a, atom("z")), pair(b, atom("z")))),
]
if sys.argv[1] == "dump":
    for x in objects:
        hash(x)
    sys.stdout.buffer.write(pickle.dumps(objects))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    assert loaded == objects
    wrong = [repr(x) for x, fresh in zip(loaded, objects) if hash(x) != hash(fresh)]
    assert not wrong, wrong
"""


def test_a_pickled_hash_is_not_carried_to_another_process():
    src = str(Path(bxkit.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(stage, seed, stdin=b""):
        env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=seed)
        return subprocess.run(
            [sys.executable, "-c", _PICKLED, stage], input=stdin, env=env, capture_output=True, timeout=60
        )

    dumped = run("dump", "1")
    assert dumped.returncode == 0, dumped.stderr.decode()
    loaded = run("load", "2", dumped.stdout)
    assert loaded.returncode == 0, loaded.stderr.decode()


# -- records ------------------------------------------------------------------

def _dict_has(record, name):
    return any(field_name == name for field_name, _ in record.fields)


def _dict_set(record, name, value):
    if not _dict_has(record, name):
        raise KeyError(name)
    return Rec(dict(record.fields) | {name: value})


def test_record_has_and_set_match_their_dict_definitions():
    records = enumerate_values(recs_of(a=atoms(0, 1), c=atoms("x"), b=seqs_of(atoms(0), 1))) + (rec(),)
    for record in records:
        for name in ("a", "b", "c", "d", ""):
            assert record.has(name) == _dict_has(record, name)
            for value in (atom(7), seq(), record):
                try:
                    expected = _dict_set(record, name, value)
                except KeyError as missing:
                    with pytest.raises(KeyError) as raised:
                        record.set(name, value)
                    assert raised.value.args == missing.args
                    continue
                got = record.set(name, value)
                assert type(got) is Rec
                assert got.fields == expected.fields
                assert got == expected and hash(got) == hash(expected)
