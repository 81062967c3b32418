"""Universal immutable value model: trees of atoms, pairs, sequences, records.

Everything downstream (updates, traces, law checking) works over these
values.  They are frozen and hashable, compared structurally, and every
component of a value is addressable by a path.  Finite domains describe
universes of values with computable cardinality and a deterministic
enumeration order, which is what makes bounded-exhaustive law checking
reproducible.  ``diff`` is the alignment oracle: given two values it
returns a partial bijection between paths of equal components, kept in a
bounded cache for delta updates, delta traces and aligners.  Sizing an
update needs only counts, so ``node_count`` and ``diff_size`` count the
paths of a value and the links of its alignment without building either.

Values, and the edits, updates and traces of ``scheme.py`` built from
them, are built and keyed into dicts and sets at every step of a law
check, so each is a ``frozen`` record: its constructor stores the fields
straight into the instance, it keeps its field hash after the first use,
and its ``==`` and ``!=`` test identity first and then each field in
turn.  ``repr``, the hash value and the truth value of equality are
those of the plain frozen dataclass.  Every memo of a law check or an
adapter is filled through ``remember``.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, fields as dataclass_fields
from functools import lru_cache
from typing import Iterable, Mapping

ENUMERATION_CAP = 100_000


class CapExceeded(Exception):
    """Raised when a domain is too large to enumerate exhaustively."""

    def __init__(self, cardinality: int, cap: int):
        super().__init__(f"domain has {cardinality} values, exceeds cap {cap}")
        self.cardinality = cardinality
        self.cap = cap


class InvalidPath(Exception):
    """Raised by ``select`` when a path step does not resolve.

    ``step_index`` is the position of the first failing step.
    """

    def __init__(self, step_index: int, reason: str = ""):
        detail = f" ({reason})" if reason else ""
        super().__init__(f"path invalid at step {step_index}{detail}")
        self.step_index = step_index


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

_HASH = "_hash"
_GENERATED = "<values.frozen>"  # the file name of the code ``frozen`` generates

# The methods ``frozen`` gives a record, made by a factory that takes the
# record's field names; ``same`` compares the fields of two instances of one
# class in order, each by identity first.
_RECORD_METHODS = """\
def methods({names}):
    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.__dict__, other.__dict__
        return {same}

    def __ne__(self, other):
        if self is other:
            return False
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.__dict__, other.__dict__
        return not ({same})

    def __hash__(self):
        d = self.__dict__
        kept = d.get({kept!r})
        if kept is None:
            kept = d[{kept!r}] = hash(({fields}))
        return kept

    return __eq__, __ne__, __hash__
"""


@lru_cache(maxsize=None)
def _record_methods(arity: int):
    """The factory of ``_RECORD_METHODS`` for ``arity`` fields, compiled once
    for all records of that many fields."""
    names = [f"f{i}" for i in range(arity)]
    same = " and ".join(f"((x := a[{name}]) is (y := b[{name}]) or x == y)" for name in names)
    fields = "".join(f"d[{name}], " for name in names)
    source = _RECORD_METHODS.format(names=", ".join(names), same=same or "True", fields=fields, kept=_HASH)
    namespace: dict = {}
    exec(compile(source, _GENERATED, "exec"), {}, namespace)
    return namespace["methods"]


def frozen(cls):
    """Make ``cls`` a frozen dataclass whose constructor writes the instance
    ``__dict__``, whose equality tests identity first and which keeps its
    field hash after the first use.

    Unless ``cls`` defines ``__init__``, it gets one that takes every field
    in order, stores each without the frozen ``__setattr__`` and then calls
    ``__post_init__`` where the class has one; a hand-written ``__init__``
    stores the same way.  Such an instance holds its ``__dict__`` from the
    start, as a hashed one does anyway.  ``==`` and ``!=`` answer at once
    for the same object, leave another class to ``NotImplemented`` and
    otherwise compare the fields in order, each by identity first: the
    truth value of the dataclass's tuple equality, without its tuples and,
    for ``!=``, without the detour through ``object.__ne__``.  The kept
    hash is the dataclass's field hash, ``hash`` of the tuple of fields; it
    is left out of pickled state, since a string's hash differs between
    processes.  A subclass that sets ``__hash__ = None`` stays unhashable.
    """
    own_init = "__init__" in cls.__dict__
    cls = dataclass(frozen=True, init=False, eq=False)(cls)
    names = [f.name for f in dataclass_fields(cls)]
    methods = list(_record_methods(len(names))(*names))
    if not own_init:
        lines = [f"def __init__(self, {', '.join(names)}):", "    d = self.__dict__"]
        lines += [f"    d[{name!r}] = {name}" for name in names]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        namespace: dict = {}
        exec(compile("\n".join(lines), _GENERATED, "exec"), namespace)
        methods.append(namespace["__init__"])
    for fn in methods:
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop(_HASH, None)
        return state

    cls.__getstate__ = __getstate__
    return cls


def remember(memo: dict, key, compute, *args):
    """``memo[key]``, filled by the first ``compute(*args)``.

    Nothing is kept when ``compute`` raises, and a key that cannot be
    hashed is computed on every use.  This is the one reuse rule of every
    memo a law check or an adapter keeps.
    """
    try:
        return memo[key]
    except KeyError:
        hashable = True
    except TypeError:
        hashable = False
    value = compute(*args)
    if hashable:
        memo[key] = value
    return value


@dataclass(frozen=True)
class Value:
    """Base class for value constructors; all instances are immutable."""
    __slots__ = ()


@frozen
class AtomInt(Value):
    value: int


@frozen
class AtomStr(Value):
    value: str


@frozen
class Pair(Value):
    left: Value
    right: Value


@frozen
class Seq(Value):
    elements: tuple[Value, ...]

    def __init__(self, elements: Iterable[Value] = ()):
        self.__dict__["elements"] = tuple(elements)


@frozen
class Rec(Value):
    """Record with a finite field map; fields are kept sorted by name."""

    fields: tuple[tuple[str, Value], ...]

    def __init__(self, fields: Mapping[str, Value] | Iterable[tuple[str, Value]] = ()):
        self.__dict__["fields"] = tuple(sorted(dict(fields).items()))

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fields)

    def get(self, name: str) -> Value:
        for field_name, value in self.fields:
            if field_name == name:
                return value
        raise KeyError(name)

    def has(self, name: str) -> bool:
        for field_name, _ in self.fields:
            if field_name == name:
                return True
        return False

    def set(self, name: str, value: Value) -> "Rec":
        """This record with field ``name`` replaced; the fields stay sorted."""
        fields = self.fields
        for i, (field_name, _) in enumerate(fields):
            if field_name == name:
                updated = object.__new__(Rec)
                updated.__dict__["fields"] = fields[:i] + ((name, value),) + fields[i + 1:]
                return updated
        raise KeyError(name)


def atom(x: int | str) -> Value:
    """Wrap a raw int or str into the corresponding atom value."""
    if isinstance(x, bool):
        raise TypeError("bool atoms are not part of the value model")
    if isinstance(x, int):
        return AtomInt(x)
    if isinstance(x, str):
        return AtomStr(x)
    raise TypeError(f"not an atom: {x!r}")


def pair(left: Value, right: Value) -> Pair:
    return Pair(left, right)


def seq(*elements: Value) -> Seq:
    return Seq(elements)


def rec(fields: Mapping[str, Value] | None = None, **kw: Value) -> Rec:
    merged: dict[str, Value] = dict(fields or {})
    merged.update(kw)
    return Rec(merged)


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

class Side(enum.Enum):
    """A pair's two halves; each hashes by its name and pickles by value."""

    LEFT = "left"
    RIGHT = "right"


LEFT = Side.LEFT
RIGHT = Side.RIGHT

# A path step is plain data: a side of a pair, the ``int`` index of a
# sequence element (never a ``bool``), or the ``str`` name of a record
# field.  ``GoIndex(2) == 2`` and ``GoField("k") == "k"``.
GoIndex = int
GoField = str
Step = Side | int | str
Path = tuple[Step, ...]
ROOT: Path = ()


def step_key(step: Step) -> tuple:
    if type(step) is Side:
        return (0, step.value)
    if type(step) is int:
        return (1, step)
    return (2, step)


def path_key(path: Path) -> tuple:
    """Deterministic sort key for paths (used for stable rendering)."""
    return tuple(step_key(s) for s in path)


def select(value: Value, path: Path) -> Value:
    """Resolve ``path`` inside ``value``; the empty path is the value itself."""
    current = value
    for i, step in enumerate(path):
        if type(step) is Side:
            if not isinstance(current, Pair):
                raise InvalidPath(i, f"{step.value} on non-pair")
            current = current.left if step is LEFT else current.right
        elif type(step) is int:
            if not isinstance(current, Seq):
                raise InvalidPath(i, "index on non-sequence")
            if not 0 <= step < len(current.elements):
                raise InvalidPath(i, "index out of bounds")
            current = current.elements[step]
        elif isinstance(step, str):
            if not isinstance(current, Rec) or not current.has(step):
                raise InvalidPath(i, f"no field {step}")
            current = current.get(step)
        else:
            raise InvalidPath(i, "unknown step")
    return current


def path_valid(value: Value, path: Path) -> bool:
    try:
        select(value, path)
    except InvalidPath:
        return False
    return True


def all_paths(value: Value) -> tuple[Path, ...]:
    """Every path of ``value`` in preorder, root first."""
    out: list[Path] = []

    def walk(v: Value, prefix: Path) -> None:
        out.append(prefix)
        if isinstance(v, Pair):
            walk(v.left, prefix + (LEFT,))
            walk(v.right, prefix + (RIGHT,))
        elif isinstance(v, Seq):
            for i, el in enumerate(v.elements):
                walk(el, prefix + (i,))
        elif isinstance(v, Rec):
            for name, fv in v.fields:
                walk(fv, prefix + (name,))

    walk(value, ROOT)
    return tuple(out)


# ---------------------------------------------------------------------------
# Sameness relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamenessRelation:
    """A partial bijection between paths of a source and a target value.

    No path may appear twice on either side; this keeps inversion and
    relational composition total and unambiguous.
    """

    links: frozenset[tuple[Path, Path]]

    def __init__(self, links: Iterable[tuple[Path, Path]] = ()):
        frozen = frozenset((tuple(src), tuple(tgt)) for src, tgt in links)
        sources = [src for src, _ in frozen]
        targets = [tgt for _, tgt in frozen]
        if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
            raise ValueError("sameness relation must be a partial bijection on paths")
        object.__setattr__(self, "links", frozen)

    def __len__(self) -> int:
        return len(self.links)

    def invert(self) -> "SamenessRelation":
        return SamenessRelation((tgt, src) for src, tgt in self.links)

    def sorted_links(self) -> tuple[tuple[Path, Path], ...]:
        return tuple(sorted(self.links, key=lambda l: (path_key(l[0]), path_key(l[1]))))


def compose_relations(second: SamenessRelation, first: SamenessRelation) -> SamenessRelation:
    """Relational composition: first, then second (both partial bijections)."""
    by_source = {src: tgt for src, tgt in second.links}
    return SamenessRelation(
        (src, by_source[mid]) for src, mid in first.links if mid in by_source
    )


def restrict_to_equal(source: Value, target: Value, rel: SamenessRelation) -> SamenessRelation:
    """Drop links whose endpoints are not structurally equal components."""
    kept = []
    for src, tgt in rel.links:
        try:
            if select(source, src) == select(target, tgt):
                kept.append((src, tgt))
        except InvalidPath:
            continue
    return SamenessRelation(kept)


def close_relation(source: Value, target: Value, rel: SamenessRelation) -> SamenessRelation:
    """Add links for composite nodes whose children are all linked.

    A composite (pair, sequence, record) is linked to a partner of the
    same shape and equal content once every immediate child is linked to
    the corresponding child.  This recovers links that relational
    composition through a leaf-level correspondence cannot express.
    """
    links = set(rel.links)
    linked_src = {s for s, _ in links}
    linked_tgt = {t for _, t in links}
    src_paths = sorted(all_paths(source), key=len, reverse=True)
    tgt_by_depth = sorted(all_paths(target), key=path_key)

    def children_steps(v: Value) -> Iterable[Step] | None:
        if isinstance(v, Pair):
            return (LEFT, RIGHT)
        if isinstance(v, Seq):
            return range(len(v.elements))
        if isinstance(v, Rec):
            return v.names()
        return None

    for sp in src_paths:
        if sp in linked_src:
            continue
        sv = select(source, sp)
        steps = children_steps(sv)
        if steps is None:
            continue
        for tp in tgt_by_depth:
            if tp in linked_tgt:
                continue
            if select(target, tp) != sv:
                continue
            if all((sp + (st,), tp + (st,)) in links for st in steps):
                links.add((sp, tp))
                linked_src.add(sp)
                linked_tgt.add(tp)
                break
    return SamenessRelation(links)


# ---------------------------------------------------------------------------
# Finite domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainDescriptor:
    __slots__ = ()


@dataclass(frozen=True)
class AtomDomain(DomainDescriptor):
    atoms: tuple[Value, ...]

    def __init__(self, atoms: Iterable[int | str | Value]):
        seen: list[Value] = []
        for a in atoms:
            v = a if isinstance(a, Value) else atom(a)
            if not isinstance(v, (AtomInt, AtomStr)):
                raise TypeError("atom domain must contain atoms only")
            if v not in seen:
                seen.append(v)
        object.__setattr__(self, "atoms", tuple(seen))


@dataclass(frozen=True)
class PairDomain(DomainDescriptor):
    left: DomainDescriptor
    right: DomainDescriptor


@dataclass(frozen=True)
class SeqDomain(DomainDescriptor):
    element: DomainDescriptor
    max_length: int


@dataclass(frozen=True)
class RecDomain(DomainDescriptor):
    fields: tuple[tuple[str, DomainDescriptor], ...]

    def __init__(self, fields: Mapping[str, DomainDescriptor] | Iterable[tuple[str, DomainDescriptor]] = ()):
        object.__setattr__(self, "fields", tuple(sorted(dict(fields).items())))


def atoms(*xs: int | str) -> AtomDomain:
    return AtomDomain(xs)


def pairs_of(left: DomainDescriptor, right: DomainDescriptor) -> PairDomain:
    return PairDomain(left, right)


def seqs_of(element: DomainDescriptor, max_length: int) -> SeqDomain:
    return SeqDomain(element, max_length)


def recs_of(fields: Mapping[str, DomainDescriptor] | None = None, **kw: DomainDescriptor) -> RecDomain:
    merged: dict[str, DomainDescriptor] = dict(fields or {})
    merged.update(kw)
    return RecDomain(merged)


def cardinality(domain: DomainDescriptor) -> int:
    if isinstance(domain, AtomDomain):
        return len(domain.atoms)
    if isinstance(domain, PairDomain):
        return cardinality(domain.left) * cardinality(domain.right)
    if isinstance(domain, SeqDomain):
        n = cardinality(domain.element)
        return sum(n ** k for k in range(domain.max_length + 1))
    if isinstance(domain, RecDomain):
        total = 1
        for _, sub in domain.fields:
            total *= cardinality(sub)
        return total
    raise TypeError(f"unknown domain {domain!r}")


def _enumerate(domain: DomainDescriptor) -> tuple[Value, ...]:
    # Only domains within ENUMERATION_CAP are cached, at most 256 of them
    # (a benchmark workload uses 16); a larger one is built on each call.
    if cardinality(domain) > ENUMERATION_CAP:
        return _build.__wrapped__(domain)
    return _build(domain)


@lru_cache(maxsize=256)
def _build(domain: DomainDescriptor) -> tuple[Value, ...]:
    if isinstance(domain, AtomDomain):
        return domain.atoms
    if isinstance(domain, PairDomain):
        # Each side is enumerated once, not once per value of the other.
        pools = (_enumerate(domain.left), _enumerate(domain.right))
        return tuple(Pair(l, r) for l, r in itertools.product(*pools))
    if isinstance(domain, SeqDomain):
        element_values = _enumerate(domain.element)
        out: list[Value] = []
        for k in range(domain.max_length + 1):
            for combo in itertools.product(element_values, repeat=k):
                out.append(Seq(combo))
        return tuple(out)
    if isinstance(domain, RecDomain):
        names = [name for name, _ in domain.fields]
        pools = [_enumerate(sub) for _, sub in domain.fields]
        return tuple(
            Rec(zip(names, combo)) for combo in itertools.product(*pools)
        )
    raise TypeError(f"unknown domain {domain!r}")


def enumerate_values(domain: DomainDescriptor, cap: int = ENUMERATION_CAP) -> tuple[Value, ...]:
    """All values of the domain, each exactly once, in deterministic order.

    Order is lexicographic over the schema: atom declaration order, then
    left-major pairs, length-then-content sequences, and sorted-name-major
    records.
    """
    size = cardinality(domain)
    if size > cap:
        raise CapExceeded(size, cap)
    return _enumerate(domain)


def contains(domain: DomainDescriptor, value: Value) -> bool:
    """Structural membership test, without enumerating the domain."""
    if isinstance(domain, AtomDomain):
        return value in domain.atoms
    if isinstance(domain, PairDomain):
        return (
            isinstance(value, Pair)
            and contains(domain.left, value.left)
            and contains(domain.right, value.right)
        )
    if isinstance(domain, SeqDomain):
        return (
            isinstance(value, Seq)
            and len(value.elements) <= domain.max_length
            and all(contains(domain.element, el) for el in value.elements)
        )
    if isinstance(domain, RecDomain):
        if not isinstance(value, Rec):
            return False
        if value.names() != tuple(name for name, _ in domain.fields):
            return False
        return all(contains(sub, value.get(name)) for name, sub in domain.fields)
    raise TypeError(f"unknown domain {domain!r}")


# ---------------------------------------------------------------------------
# Diff
# ---------------------------------------------------------------------------

def _lcs_matches(xs: tuple[Value, ...], ys: tuple[Value, ...]) -> list[tuple[int, int]]:
    # Classic DP; reconstruction prefers the leftmost match on ties.
    m, n = len(xs), len(ys)
    lengths = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        for j in range(n - 1, -1, -1):
            if xs[i] == ys[j]:
                lengths[i][j] = lengths[i + 1][j + 1] + 1
            else:
                lengths[i][j] = max(lengths[i + 1][j], lengths[i][j + 1])
    matches: list[tuple[int, int]] = []
    i = j = 0
    while i < m and j < n:
        if xs[i] == ys[j] and lengths[i][j] == lengths[i + 1][j + 1] + 1:
            matches.append((i, j))
            i += 1
            j += 1
        elif lengths[i + 1][j] >= lengths[i][j + 1]:
            i += 1
        else:
            j += 1
    return matches


@lru_cache(maxsize=2 ** 14)  # bounded; the catalog report keeps 32 alignments
def _align(pre: Value, post: Value) -> SamenessRelation:
    links: list[tuple[Path, Path]] = []

    def link_subtree(p: Path, q: Path, v: Value) -> None:
        for rel in all_paths(v):
            links.append((p + rel, q + rel))

    def walk(p: Path, q: Path, x: Value, y: Value) -> None:
        if x == y:
            link_subtree(p, q, x)
            return
        if isinstance(x, Pair) and isinstance(y, Pair):
            walk(p + (LEFT,), q + (LEFT,), x.left, y.left)
            walk(p + (RIGHT,), q + (RIGHT,), x.right, y.right)
        elif isinstance(x, Rec) and isinstance(y, Rec):
            for name in x.names():
                if y.has(name):
                    walk(p + (name,), q + (name,), x.get(name), y.get(name))
        elif isinstance(x, Seq) and isinstance(y, Seq):
            for i, j in _lcs_matches(x.elements, y.elements):
                link_subtree(p + (i,), q + (j,), x.elements[i])

    walk(ROOT, ROOT, pre, post)
    return SamenessRelation(links)


def diff(pre: Value, post: Value) -> SamenessRelation:
    """Align two values and link the paths of components that are equal.

    Alignment rules: pairs align positionally, records by field name,
    sequences by a longest common subsequence of equal elements with ties
    broken leftmost.  A composite node is linked only when it is equal to
    its partner, and a linked equal subtree links all descendant paths.
    The result is the canonical sameness relation used to build delta
    updates from state pairs.  Results are kept in a bounded cache; a pair
    with a value that cannot be hashed is aligned on every call.
    """
    try:
        return _align(pre, post)
    except TypeError:
        return _align.__wrapped__(pre, post)


diff.cache_info = _align.cache_info


def node_count(value: Value) -> int:
    """The number of paths of ``value``, ``len(all_paths(value))``, counted."""
    if isinstance(value, Pair):
        return 1 + node_count(value.left) + node_count(value.right)
    if isinstance(value, Seq):
        return 1 + sum(map(node_count, value.elements))
    if isinstance(value, Rec):
        return 1 + sum(node_count(fv) for _, fv in value.fields)
    return 1


def diff_size(pre: Value, post: Value) -> int:
    """``len(diff(pre, post))``, counted along the same alignment rules;
    nothing is built or cached."""
    if pre == post:
        return node_count(pre)
    if isinstance(pre, Pair) and isinstance(post, Pair):
        return diff_size(pre.left, post.left) + diff_size(pre.right, post.right)
    if isinstance(pre, Rec) and isinstance(post, Rec):
        return sum(diff_size(fv, post.get(name)) for name, fv in pre.fields if post.has(name))
    if isinstance(pre, Seq) and isinstance(post, Seq):
        xs = pre.elements
        return sum(node_count(xs[i]) for i, _ in _lcs_matches(xs, post.elements))
    return 0
