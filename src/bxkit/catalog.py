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

from .values import (
    AtomInt,
    AtomStr,
    DomainDescriptor,
    GoField,
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
    Undefined,
    UnknownName,
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


def _fst_lens() -> Bx:
    def get(a: Value) -> Value:
        _shaped(isinstance(a, Pair))
        return a.left

    def put(b: Value, a: Value) -> Value:
        _shaped(isinstance(a, Pair))
        return Pair(b, a.right)

    return make_lens("fst-lens", get, put, pairs_of(_TRIPLE, _TRIPLE), _TRIPLE)


def _broken_put_lens() -> Bx:
    def get(a: Value) -> Value:
        _shaped(isinstance(a, Pair))
        return a.left

    def put(b: Value, a: Value) -> Value:
        return a  # ignores the view update: breaks the round trip

    return make_lens("broken-put-lens", get, put, pairs_of(_TRIPLE, _TRIPLE), _TRIPLE)


def _const_lens() -> Bx:
    def get(a: Value) -> Value:
        return AtomInt(0)

    def put(b: Value, a: Value) -> Value:
        if b != AtomInt(0):
            raise Undefined("view has no preimage")
        return a

    return make_lens("const-lens", get, put, atoms(0, 1), atoms(0, 1))


# ---------------------------------------------------------------------------
# Maintainers
# ---------------------------------------------------------------------------

_REC_A = recs_of(k=atoms(1, 2), u=atoms(7, 8))
_REC_B = recs_of(k=atoms(1, 2), v=atoms(7, 8))


def _key_equal(a: Value, b: Value) -> bool:
    if not (isinstance(a, Rec) and a.has("k") and isinstance(b, Rec) and b.has("k")):
        return False
    return a.get("k") == b.get("k")


def _key_maintainer() -> Bx:
    def repair_b(a_post: Value, b_pre: Value) -> Value:
        _shaped(isinstance(a_post, Rec) and a_post.has("k") and isinstance(b_pre, Rec))
        return b_pre.set("k", a_post.get("k"))

    def repair_a(b_post: Value, a_pre: Value) -> Value:
        _shaped(isinstance(b_post, Rec) and b_post.has("k") and isinstance(a_pre, Rec))
        return a_pre.set("k", b_post.get("k"))

    return make_maintainer("key-maintainer", _key_equal, repair_b, repair_a, _REC_A, _REC_B)


def _constant_maintainer() -> Bx:
    # Repairs by resetting the private field to a default: still correct,
    # but touches already-consistent states and over-changes.
    def repair_b(a_post: Value, b_pre: Value) -> Value:
        _shaped(isinstance(a_post, Rec) and a_post.has("k"))
        return rec(k=a_post.get("k"), v=AtomInt(7))

    def repair_a(b_post: Value, a_pre: Value) -> Value:
        _shaped(isinstance(b_post, Rec) and b_post.has("k"))
        return rec(k=b_post.get("k"), u=AtomInt(7))

    return make_maintainer(
        "constant-maintainer", _key_equal, repair_b, repair_a, _REC_A, _REC_B
    )


def _stale_maintainer() -> Bx:
    # The backward repair copies the *old* key into the private field,
    # so two small steps disagree with their composite.
    domain_a = recs_of(k=atoms(1, 2), u=atoms(1, 2))

    def repair_b(a_post: Value, b_pre: Value) -> Value:
        _shaped(isinstance(a_post, Rec) and a_post.has("k") and isinstance(b_pre, Rec))
        return b_pre.set("k", a_post.get("k"))

    def repair_a(b_post: Value, a_pre: Value) -> Value:
        _shaped(isinstance(b_post, Rec) and b_post.has("k") and isinstance(a_pre, Rec) and a_pre.has("k"))
        return rec(k=b_post.get("k"), u=a_pre.get("k"))

    return make_maintainer("stale-maintainer", _key_equal, repair_b, repair_a, domain_a, _REC_B)


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
    def consistency(a: Value, b: Value) -> bool:
        if not (isinstance(a, Rec) and isinstance(b, Rec)):
            return False
        if not (a.has("k") and a.has("u") and b.has("k") and b.has("v")):
            return False
        return a.get("k") == b.get("k") and a.get("u") == b.get("v")

    def propagate_b(update: tuple[Value, Value], b_pre: Value) -> Value:
        a0, a1 = update
        _shaped(isinstance(a0, Rec) and isinstance(a1, Rec) and isinstance(b_pre, Rec))
        _shaped(a1.has("k") and a1.has("u"))
        b = b_pre
        if a0.get("k") != a1.get("k"):
            b = b.set("k", a1.get("k"))
        if a0.get("u") != a1.get("u"):
            b = b.set("v", a1.get("u"))
        return b

    def propagate_a(update: tuple[Value, Value], a_pre: Value) -> Value:
        b0, b1 = update
        _shaped(isinstance(b0, Rec) and isinstance(b1, Rec) and isinstance(a_pre, Rec))
        _shaped(b1.has("k") and b1.has("v"))
        a = a_pre
        if b0.get("k") != b1.get("k"):
            a = a.set("k", b1.get("k"))
        if b0.get("v") != b1.get("v"):
            a = a.set("u", b1.get("v"))
        return a

    return make_trigonal("trigonal-key", consistency, propagate_b, propagate_a, _REC_A, _REC_B)


# ---------------------------------------------------------------------------
# Symmetric lens
# ---------------------------------------------------------------------------

def _pair_sync() -> Bx:
    bit = atoms(0, 1)
    zero = AtomInt(0)

    def to_fn(a1: Value, c: Value) -> tuple[Value, Value]:
        _shaped(isinstance(a1, Pair) and isinstance(c, Pair))
        x, y = a1.left, a1.right
        z = c.right
        return Pair(x, z), Pair(y, z)

    def from_fn(b1: Value, c: Value) -> tuple[Value, Value]:
        _shaped(isinstance(b1, Pair) and isinstance(c, Pair))
        x, z = b1.left, b1.right
        y = c.left
        return Pair(x, y), Pair(y, z)

    seed = (Pair(zero, zero), Pair(zero, zero), Pair(zero, zero))
    return make_symmetric_lens(
        "pair-sync",
        to_fn,
        from_fn,
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

    def fsts(s: Value) -> Seq:
        _shaped(isinstance(s, Seq) and all(isinstance(el, Pair) for el in s.elements))
        return Seq(el.left for el in s.elements)

    def snds(s: Value) -> Seq:
        _shaped(isinstance(s, Seq) and all(isinstance(el, Pair) for el in s.elements))
        return Seq(el.right for el in s.elements)

    def translate_to(ops: tuple[EditOp, ...], c: Value) -> tuple[tuple[EditOp, ...], Value]:
        _shaped(isinstance(c, Seq))
        hidden = list(c.elements)  # edited in place, one Seq at the end
        out: list[EditOp] = []
        for op in ops:
            if isinstance(op, Insert) and isinstance(op.element, Pair):
                if not 0 <= op.index <= len(hidden):
                    raise Undefined("insert outside the tracked range")
                out.append(Insert(op.index, op.element.left))
                hidden.insert(op.index, op.element.right)
            elif isinstance(op, Delete) and isinstance(op.removed, Pair):
                if not 0 <= op.index < len(hidden) or hidden[op.index] != op.removed.right:
                    raise Undefined("delete does not match the tracked hidden half")
                out.append(Delete(op.index, op.removed.left))
                del hidden[op.index]
            elif isinstance(op, ReplaceAt) and isinstance(op.old, Pair) and isinstance(op.new, Pair):
                if not 0 <= op.index < len(hidden) or hidden[op.index] != op.old.right:
                    raise Undefined("replacement does not match the tracked hidden half")
                out.append(ReplaceAt(op.index, op.old.left, op.new.left))
                hidden[op.index] = op.new.right
            elif isinstance(op, ReplaceRoot) and isinstance(op.old, Seq) and isinstance(op.new, Seq):
                if tuple(hidden) != snds(op.old).elements:
                    raise Undefined("root replacement disagrees with the complement")
                out.append(ReplaceRoot(fsts(op.old), fsts(op.new)))
                hidden = list(snds(op.new).elements)
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
    domain_a = recs_of(p=bit, q=bit)
    domain_b = recs_of(r=bit, s=bit)
    corr_ab = SamenessRelation(
        [((GoField("p"),), (GoField("r"),)), ((GoField("q"),), (GoField("s"),))]
    )
    corr_ba = corr_ab.invert()

    def consistency(a: Value, b: Value) -> bool:
        if not (isinstance(a, Rec) and isinstance(b, Rec)):
            return False
        if not (a.has("p") and a.has("q") and b.has("r") and b.has("s")):
            return False
        return a.get("p") == b.get("r") and a.get("q") == b.get("s")

    def mirror_b(a: Value) -> Rec:
        _shaped(isinstance(a, Rec) and a.has("p") and a.has("q"))
        return rec(r=a.get("p"), s=a.get("q"))

    def mirror_a(b: Value) -> Rec:
        _shaped(isinstance(b, Rec) and b.has("r") and b.has("s"))
        return rec(p=b.get("r"), q=b.get("s"))

    def align(a: Value, b: Value) -> SamenessRelation:
        return restrict_to_equal(a, b, corr_ab)

    def to_fn(update: DeltaUpdate, trace: DeltaTrace) -> tuple[DeltaUpdate, DeltaTrace]:
        # trace runs b0 -> a0; update runs a0 -> a1
        b0, a1 = trace.src, update.post
        b1 = mirror_b(a1)
        raw = compose_relations(corr_ab, compose_relations(update.same, trace.same))
        propagated = close_relation(b0, b1, restrict_to_equal(b0, b1, raw))
        return (
            DeltaUpdate(b0, b1, propagated),
            DeltaTrace(a1, b1, align(a1, b1)),
        )

    def from_fn(update: DeltaUpdate, trace: DeltaTrace) -> tuple[DeltaUpdate, DeltaTrace]:
        # trace runs a0 -> b0; update runs b0 -> b1
        a0, b1 = trace.src, update.post
        a1 = mirror_a(b1)
        raw = compose_relations(corr_ba, compose_relations(update.same, trace.same))
        propagated = close_relation(a0, a1, restrict_to_equal(a0, a1, raw))
        return (
            DeltaUpdate(a0, a1, propagated),
            DeltaTrace(b1, a1, align(a1, b1).invert()),
        )

    return make_sdelta_lens(
        "rename-sync", consistency, to_fn, from_fn, domain_a, domain_b, align
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


def catalog_names() -> tuple[str, ...]:
    return tuple(catalog_entries())


def catalog(name: str) -> CatalogEntry:
    entries = catalog_entries()
    if name not in entries:
        raise UnknownName(f"no catalog entry named {name!r}")
    return entries[name]
