"""Named, executable example transformations, one or more per framework.

The canonical seven demonstrate each interface family; the rest are
deliberate negatives whose law failures the checker must detect: a lens
whose put ignores the view, a maintainer that repairs by resetting, a
maintainer consulting stale trace data, a two-state toy that oscillates
under round-tripping, and a mapping that is partial backward.  Names are
stable identifiers used by the command-line interface.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

from .values import (
    AtomInt,
    AtomStr,
    DomainDescriptor,
    Pair,
    Rec,
    SamenessRelation,
    Seq,
    Value,
    atom,
    atoms,
    close_relation,
    compose_relations,
    pairs_of,
    rec,
    recs_of,
    restrict_to_equal,
    seqs_of,
)
from .scheme import (
    Delete,
    DeltaTrace,
    DeltaUpdate,
    EditOp,
    Insert,
    ReplaceAt,
    ReplaceRoot,
)
from .frameworks import (
    Bx,
    Consistency,
    Undefined,
    UnknownName,
    _oriented,
    make_edit_lens,
    make_lens,
    make_maintainer,
    make_mapping,
    make_sdelta_lens,
    make_symmetric_lens,
    make_trigonal,
)


@dataclass(eq=False)
class CatalogEntry:
    bx: Bx
    framework: str
    canonical: bool
    expected_laws: dict[tuple[str, str], str] = field(default_factory=dict)
    description: str = ""


def _shaped(condition: bool) -> None:
    if not condition:
        raise Undefined("value has the wrong shape for this transformation")


# ---------------------------------------------------------------------------
# Mappings
# ---------------------------------------------------------------------------

def _letter_mapping(name: str, codomain: DomainDescriptor) -> Bx:
    """Upper-case ``a`` and ``b``; backward it is undefined on any other
    letter of ``codomain``."""
    table = {"a": "A", "b": "B"}
    inverse = {v: k for k, v in table.items()}

    def up(a: Value) -> Value:
        _shaped(isinstance(a, AtomStr) and a.value in table)
        return atom(table[a.value])

    def down(b: Value) -> Value:
        _shaped(isinstance(b, AtomStr))
        if b.value not in inverse:
            raise Undefined(f"no source for {b.value}")
        return atom(inverse[b.value])

    return make_mapping(name, up, down, atoms("a", "b"), codomain)


# ---------------------------------------------------------------------------
# Lenses
# ---------------------------------------------------------------------------

_TRIPLE = atoms(0, 1, 2)


def _left(a: Value) -> Value:
    _shaped(isinstance(a, Pair))
    return a.left


def _fst_lens() -> Bx:
    def put(b: Value, a: Value) -> Value:
        _shaped(isinstance(a, Pair))
        return Pair(b, a.right)

    return make_lens("fst-lens", _left, put, pairs_of(_TRIPLE, _TRIPLE), _TRIPLE)


def _broken_put_lens() -> Bx:
    def put(b: Value, a: Value) -> Value:
        return a  # ignores the view update: breaks the round trip

    return make_lens("broken-put-lens", _left, put, pairs_of(_TRIPLE, _TRIPLE), _TRIPLE)


def _const_lens() -> Bx:
    def get(a: Value) -> Value:
        return AtomInt(0)

    def put(b: Value, a: Value) -> Value:
        if b != AtomInt(0):
            raise Undefined("view has no preimage")
        return a

    return make_lens("const-lens", get, put, atoms(0, 1), atoms(0, 1))


# ---------------------------------------------------------------------------
# Records that agree on a field correspondence
# ---------------------------------------------------------------------------

# (field, partner) pairs: an entry's relation reads them from A to B, and
# each direction from its input side to its output side.
Correspondence = tuple[tuple[str, str], ...]

_KEY: Correspondence = (("k", "k"),)
_REC_A = recs_of(k=atoms(1, 2), u=atoms(7, 8))
_REC_B = recs_of(k=atoms(1, 2), v=atoms(7, 8))


def _agree(pairs: Correspondence) -> Consistency:
    """The relation: both values are records, and each field named first in
    ``pairs`` equals its partner."""

    def consistency(a: Value, b: Value) -> bool:
        if not (isinstance(a, Rec) and isinstance(b, Rec)):
            return False
        return all(a.has(name) and b.has(partner) and a.get(name) == b.get(partner) for name, partner in pairs)

    return consistency


# ---------------------------------------------------------------------------
# Maintainers
# ---------------------------------------------------------------------------

def _copy_key(post: Value, pre: Value) -> Value:
    _shaped(isinstance(post, Rec) and post.has("k") and isinstance(pre, Rec))
    return pre.set("k", post.get("k"))


def _key_maintainer() -> Bx:
    return make_maintainer("key-maintainer", _agree(_KEY), _copy_key, _copy_key, _REC_A, _REC_B)


def _constant_maintainer() -> Bx:
    # Repairs by resetting the private field to a default: still correct,
    # but touches already-consistent states and over-changes.
    def reset(private: str) -> Callable[[Value, Value], Value]:
        def repair(post: Value, pre: Value) -> Value:
            _shaped(isinstance(post, Rec) and post.has("k"))
            return rec({"k": post.get("k"), private: AtomInt(7)})

        return repair

    return make_maintainer(
        "constant-maintainer", _agree(_KEY), reset("v"), reset("u"), _REC_A, _REC_B
    )


def _stale_maintainer() -> Bx:
    # The backward repair copies the *old* key into the private field,
    # so two small steps disagree with their composite.
    domain_a = recs_of(k=atoms(1, 2), u=atoms(1, 2))

    def repair_a(b_post: Value, a_pre: Value) -> Value:
        _shaped(isinstance(b_post, Rec) and b_post.has("k") and isinstance(a_pre, Rec) and a_pre.has("k"))
        return rec(k=b_post.get("k"), u=a_pre.get("k"))

    return make_maintainer("stale-maintainer", _agree(_KEY), _copy_key, repair_a, domain_a, _REC_B)


def _oscillating_toy() -> Bx:
    # Everything is consistent with everything, the backward direction
    # copies and the forward one negates: round trips cycle forever.
    bit = atoms(0, 1)

    def negate(a_post: Value, b_pre: Value) -> Value:
        _shaped(isinstance(a_post, AtomInt) and a_post.value in (0, 1))
        return AtomInt(1 - a_post.value)

    def copy(b_post: Value, a_pre: Value) -> Value:
        return b_post

    return make_maintainer("oscillating-toy", lambda a, b: True, negate, copy, bit, bit)


# ---------------------------------------------------------------------------
# Trigonal system
# ---------------------------------------------------------------------------

def _trigonal_key() -> Bx:
    pairs = (("k", "k"), ("u", "v"))

    def propagate(pairs: Correspondence) -> Callable[[tuple[Value, Value], Value], Value]:
        """The repair that copies each field the update changed to its partner."""

        def repair(update: tuple[Value, Value], pre: Value) -> Value:
            old, new = update
            _shaped(isinstance(old, Rec) and isinstance(new, Rec) and isinstance(pre, Rec))
            _shaped(all(new.has(name) for name, _ in pairs))
            for name, partner in pairs:
                if old.get(name) != new.get(name):
                    pre = pre.set(partner, new.get(name))
            return pre

        return repair

    back = tuple((partner, name) for name, partner in pairs)
    return make_trigonal("trigonal-key", _agree(pairs), propagate(pairs), propagate(back), _REC_A, _REC_B)


# ---------------------------------------------------------------------------
# Symmetric lens
# ---------------------------------------------------------------------------

def _pair_sync() -> Bx:
    # Each side is a (shared, private) pair; the complement holds both
    # private halves, A's on the left.
    bit = atoms(0, 1)
    zero = AtomInt(0)

    def sync(direction: str) -> Callable[[Value, Value], tuple[Value, Value]]:
        """Copy the shared half across; keep the output side's private half."""

        def run(post: Value, c: Value) -> tuple[Value, Value]:
            _shaped(isinstance(post, Pair) and isinstance(c, Pair))
            _, kept = _oriented(direction, c.left, c.right)
            return Pair(post.left, kept), Pair(*_oriented(direction, post.right, kept))

        return run

    seed = (Pair(zero, zero), Pair(zero, zero), Pair(zero, zero))
    return make_symmetric_lens(
        "pair-sync",
        sync("to"),
        sync("from"),
        domain_a=pairs_of(bit, bit),
        domain_b=pairs_of(bit, bit),
        complement_domain=pairs_of(bit, bit),
        seeds=(seed,),
    )


# ---------------------------------------------------------------------------
# Edit lens
# ---------------------------------------------------------------------------

def build_list_edit_lens(max_length: int = 2) -> Bx:
    """Source lists hold (shared, hidden) pairs, target lists only the
    shared halves; the complement remembers the hidden halves.

    The catalog entry uses lists of at most two elements; longer ones
    serve deeper replay tests.  Each call builds a fresh lens."""
    bit = atoms(0, 1)

    def halves(s: Value, side: str) -> Seq:
        _shaped(isinstance(s, Seq) and all(isinstance(el, Pair) for el in s.elements))
        return Seq(getattr(el, side) for el in s.elements)

    def translate_to(ops: tuple[EditOp, ...], c: Value) -> tuple[tuple[EditOp, ...], Value]:
        _shaped(isinstance(c, Seq))
        hidden = list(c.elements)  # edited in place, one Seq at the end
        out: list[EditOp] = []
        for op in ops:
            # The kinds in the order of their frequency in a law check; they
            # exclude one another, so any order gives the same result.
            if isinstance(op, ReplaceAt) and isinstance(old := op.old, Pair) and isinstance(new := op.new, Pair):
                index = op.index
                if not 0 <= index < len(hidden) or hidden[index] != old.right:
                    raise Undefined("replacement does not match the tracked hidden half")
                out.append(ReplaceAt(index, old.left, new.left))
                hidden[index] = new.right
            elif isinstance(op, Delete) and isinstance(removed := op.removed, Pair):
                index = op.index
                if not 0 <= index < len(hidden) or hidden[index] != removed.right:
                    raise Undefined("delete does not match the tracked hidden half")
                out.append(Delete(index, removed.left))
                del hidden[index]
            elif isinstance(op, Insert) and isinstance(element := op.element, Pair):
                index = op.index
                if not 0 <= index <= len(hidden):
                    raise Undefined("insert outside the tracked range")
                out.append(Insert(index, element.left))
                hidden.insert(index, element.right)
            elif isinstance(op, ReplaceRoot) and isinstance(op.old, Seq) and isinstance(op.new, Seq):
                if tuple(hidden) != halves(op.old, "right").elements:
                    raise Undefined("root replacement disagrees with the complement")
                out.append(ReplaceRoot(halves(op.old, "left"), halves(op.new, "left")))
                hidden = list(halves(op.new, "right").elements)
            else:
                raise Undefined("edit cannot be translated")
        return tuple(out), Seq(hidden)

    def translate_from(ops: tuple[EditOp, ...], c: Value) -> tuple[tuple[EditOp, ...], Value]:
        _shaped(isinstance(c, Seq))
        hidden = list(c.elements)  # edited in place, one Seq at the end
        out: list[EditOp] = []
        for op in ops:
            if isinstance(op, Insert):
                # A fresh element has no tracked hidden half, so there is
                # no faithful source edit to emit.
                raise Undefined("insert is untranslatable: no hidden half is tracked for it")
            elif isinstance(op, Delete):
                if not 0 <= op.index < len(hidden):
                    raise Undefined("delete outside the tracked range")
                out.append(Delete(op.index, Pair(op.removed, hidden[op.index])))
                del hidden[op.index]
            elif isinstance(op, ReplaceAt):
                if not 0 <= op.index < len(hidden):
                    raise Undefined("replacement outside the tracked range")
                half = hidden[op.index]
                out.append(ReplaceAt(op.index, Pair(op.old, half), Pair(op.new, half)))
            elif isinstance(op, ReplaceRoot) and isinstance(op.old, Seq) and isinstance(op.new, Seq):
                if len(hidden) != len(op.old.elements):
                    raise Undefined("root replacement disagrees with the complement")
                if len(op.new.elements) > len(hidden):
                    raise Undefined("root replacement grows the list: hidden halves unknown")
                old_pairs = Seq(Pair(x, y) for x, y in zip(op.old.elements, hidden))
                del hidden[len(op.new.elements):]
                new_pairs = Seq(Pair(x, y) for x, y in zip(op.new.elements, hidden))
                out.append(ReplaceRoot(old_pairs, new_pairs))
            else:
                raise Undefined("edit cannot be translated")
        return tuple(out), Seq(hidden)

    empty = Seq()
    return make_edit_lens(
        "list-edit-lens",
        translate_to,
        translate_from,
        domain_a=seqs_of(pairs_of(bit, bit), max_length),
        domain_b=seqs_of(bit, max_length),
        complement_domain=seqs_of(bit, max_length),
        seeds=((empty, empty, empty),),
    )


# ---------------------------------------------------------------------------
# Symmetric delta-lens
# ---------------------------------------------------------------------------

def _rename_sync() -> Bx:
    """Two-field records whose fields are renamed across the sides:
    p mirrors r and q mirrors s.  Deltas are conjugated through the
    field correspondence, so a delta that relinks one field to the
    other propagates as the corresponding relink."""
    bit = atoms(0, 1)
    pairs = (("p", "r"), ("q", "s"))
    corr = SamenessRelation(((name,), (partner,)) for name, partner in pairs)

    def conjugate(renaming: SamenessRelation) -> Callable[[DeltaUpdate, DeltaTrace], tuple[DeltaUpdate, DeltaTrace]]:
        """The direction that renames each field to its partner in ``renaming``,
        whose links run from one-field paths of the input side to the output side."""

        def run(update: DeltaUpdate, trace: DeltaTrace) -> tuple[DeltaUpdate, DeltaTrace]:
            # trace runs from the output side's pre-state to the input side's
            pre, post = trace.src, update.post
            _shaped(isinstance(post, Rec) and all(post.has(name) for (name,), _ in renaming.links))
            new = rec({partner: post.get(name) for (name,), (partner,) in renaming.links})
            raw = compose_relations(renaming, compose_relations(update.same, trace.same))
            propagated = close_relation(pre, new, restrict_to_equal(pre, new, raw))
            return DeltaUpdate(pre, new, propagated), DeltaTrace(post, new, restrict_to_equal(post, new, renaming))

        return run

    def align(a: Value, b: Value) -> SamenessRelation:
        return restrict_to_equal(a, b, corr)

    return make_sdelta_lens(
        "rename-sync", _agree(pairs), conjugate(corr), conjugate(corr.invert()),
        recs_of(p=bit, q=bit), recs_of(r=bit, s=bit), align,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_HOLDS = "holds"
_FAILS = "fails"
_NE = "not-expressible"


@cache
def catalog_entries() -> dict[str, CatalogEntry]:
    """Every entry by name, built once per process."""
    entries = [
        CatalogEntry(
            _letter_mapping("uppercase-mapping", atoms("A", "B")),
            "mapping",
            canonical=True,
            description="bijective rename between two-letter alphabets",
            expected_laws={
                ("invertibility", "to"): _HOLDS,
                ("invertibility", "from"): _HOLDS,
                ("stability", "to"): _NE,
                ("stability", "from"): _NE,
                ("history_ignorance", "to"): _HOLDS,
                ("history_ignorance", "from"): _HOLDS,
            },
        ),
        CatalogEntry(
            _letter_mapping("embed-mapping", atoms("A", "B", "C")),
            "mapping",
            canonical=False,
            description="injective embedding; backward direction is partial",
            expected_laws={
                ("totality", "from"): _FAILS,
                ("safety", "from"): _HOLDS,
                ("totality", "to"): _HOLDS,
            },
        ),
        CatalogEntry(
            _fst_lens(),
            "lens",
            canonical=True,
            description="left projection of a pair with the classic put",
            expected_laws={
                ("stability", "from"): _HOLDS,
                ("invertibility", "from"): _HOLDS,
                ("history_ignorance", "from"): _HOLDS,
                ("undoability", "from"): _HOLDS,
                ("totality", "to"): _HOLDS,
                ("totality", "from"): _HOLDS,
            },
        ),
        CatalogEntry(
            _const_lens(),
            "lens",
            canonical=False,
            description="constant view; put only defined at the constant",
            expected_laws={("totality", "from"): _FAILS, ("safety", "from"): _HOLDS},
        ),
        CatalogEntry(
            _broken_put_lens(),
            "lens",
            canonical=False,
            description="put ignores the view update",
            expected_laws={("invertibility", "from"): _FAILS},
        ),
        CatalogEntry(
            _key_maintainer(),
            "maintainer",
            canonical=True,
            description="records agree on a shared key; repair copies the key",
            expected_laws={
                ("correctness", "to"): _HOLDS,
                ("correctness", "from"): _HOLDS,
                ("hippocraticness", "to"): _HOLDS,
                ("hippocraticness", "from"): _HOLDS,
                ("stability", "to"): _NE,
                ("stability", "from"): _NE,
                ("least_update", "from"): _HOLDS,
            },
        ),
        CatalogEntry(
            _constant_maintainer(),
            "maintainer",
            canonical=False,
            description="repairs by resetting the private field to a default",
            expected_laws={
                ("hippocraticness", "from"): _FAILS,
                ("least_update", "from"): _FAILS,
                ("correctness", "from"): _HOLDS,
            },
        ),
        CatalogEntry(
            _stale_maintainer(),
            "maintainer",
            canonical=False,
            description="repair depends on stale trace data",
            expected_laws={("history_ignorance", "from"): _FAILS},
        ),
        CatalogEntry(
            _oscillating_toy(),
            "maintainer",
            canonical=False,
            description="round trips oscillate between two states",
            expected_laws={
                ("convergence", "from"): _FAILS,
                ("correctness", "from"): _HOLDS,
            },
        ),
        CatalogEntry(
            _trigonal_key(),
            "trigonal",
            canonical=True,
            description="field synchronizer fed both states; propagates only changes",
            expected_laws={
                (law, direction): _HOLDS
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
        ),
        CatalogEntry(
            _pair_sync(),
            "symmetric-lens",
            canonical=True,
            description="shared first component; each side keeps a private half",
            expected_laws={
                ("convergence", "to"): _HOLDS,
                ("convergence", "from"): _HOLDS,
                ("correctness", "from"): _HOLDS,
            },
        ),
        CatalogEntry(
            build_list_edit_lens(),
            "edit-lens",
            canonical=True,
            description="list edits translated under a hidden-half complement",
            expected_laws={
                ("stability", "to"): _HOLDS,
                ("stability", "from"): _HOLDS,
                ("convergence", "to"): _HOLDS,
                ("convergence", "from"): _HOLDS,
            },
        ),
        CatalogEntry(
            _rename_sync(),
            "sdelta-lens",
            canonical=True,
            description="renamed record fields synchronized by conjugated deltas",
            expected_laws={
                ("stability", "from"): _HOLDS,
                ("invertibility", "from"): _HOLDS,
                ("correctness", "from"): _HOLDS,
            },
        ),
    ]
    return {entry.bx.name: entry for entry in entries}


def catalog(name: str) -> CatalogEntry:
    entries = catalog_entries()
    if name not in entries:
        raise UnknownName(f"no catalog entry named {name!r}")
    return entries[name]
