"""The generic update/traceability scheme and its algebra.

Updates come in six representations: post-state only, both states, delta
(states plus a sameness relation), edit sequence, pre-state plus edits,
and opaque function tags.  Traceabilities come in four: none, one stored
state, a complement, and a delta.  A representation is its class: the
class carries the paper's letter for it in ``symbol``, states what it can
do in class attributes, and carries the operators the laws are written
with: an update its construction, null update, pre/post projection,
composition, inversion and default-preorder size; a trace its endpoints,
reversal and extension by an update; an edit its application and
inverse.  A method is the only spelling of its operator; the module
functions add edit enumeration, composition with its seam checks and
endpoint agreement.

A traceability value is directionless data; whether a stored state is
the A side or the B side is decided by the call site (the direction of
the transformation it was passed to or returned from).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, ClassVar, Iterable

from .values import (
    DomainDescriptor,
    RecDomain,
    SeqDomain,
    Rec,
    SamenessRelation,
    Seq,
    Value,
    compose_relations,
    diff,
    diff_size,
    enumerate_values,
    frozen,
    node_count,
    path_valid,
)


class SchemeError(Exception):
    """Base class for representation-level errors."""


class StateNotRepresented(SchemeError):
    """The requested endpoint is not carried by this representation."""

    def __init__(self, end: str):
        super().__init__(f"state not represented: {end}")
        self.end = end


class NotExpressibleError(SchemeError):
    """The operation has no definition for this representation."""

    def __init__(self, what: str):
        super().__init__(f"not expressible: {what}")
        self.what = what


class ReprMismatch(SchemeError):
    pass


class SeamMismatch(SchemeError):
    """Post-state of the earlier update disagrees with the pre-state of the later."""


class EditUnapplicable(SchemeError):
    """An edit operation's positional or field precondition failed."""


# ---------------------------------------------------------------------------
# Edit operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EditOp:
    """Base class for edit operations; each records enough of the
    pre-state (the displaced value) to be locally invertible."""
    __slots__ = ()

    def inverse(self) -> "EditOp":
        """The edit that undoes this one; by default ``old`` and ``new`` swap."""
        return replace(self, old=self.new, new=self.old)


def _spliced(value: Value, index: int, old: tuple, new: tuple, what: str) -> Seq:
    """The sequence ``value`` with its elements ``old`` at ``index`` replaced
    by the elements ``new``."""
    end = index + len(old)
    els = value.elements if isinstance(value, Seq) else None
    if els is None or not 0 <= index <= end <= len(els) or els[index:end] != old:
        raise EditUnapplicable(f"{what} at {index}")
    return Seq(els[:index] + new + els[end:])


@frozen
class Insert(EditOp):
    index: int
    element: Value

    def apply(self, value: Value) -> Value:
        return _spliced(value, self.index, (), (self.element,), "insert")

    def inverse(self) -> EditOp:
        return Delete(self.index, self.element)


@frozen
class Delete(EditOp):
    index: int
    removed: Value

    def apply(self, value: Value) -> Value:
        return _spliced(value, self.index, (self.removed,), (), "delete")

    def inverse(self) -> EditOp:
        return Insert(self.index, self.removed)


@frozen
class ReplaceAt(EditOp):
    index: int
    old: Value
    new: Value

    def apply(self, value: Value) -> Value:
        return _spliced(value, self.index, (self.old,), (self.new,), "replace")


@frozen
class SetField(EditOp):
    name: str
    old: Value
    new: Value

    def apply(self, value: Value) -> Value:
        if not isinstance(value, Rec) or not value.has(self.name) or value.get(self.name) != self.old:
            raise EditUnapplicable(f"set field {self.name}")
        return value.set(self.name, self.new)


@frozen
class ReplaceRoot(EditOp):
    old: Value
    new: Value

    def apply(self, value: Value) -> Value:
        if value != self.old:
            raise EditUnapplicable("root replacement old value mismatch")
        return self.new


def apply_ops(ops: Iterable[EditOp], value: Value) -> Value:
    current = value
    for op in ops:
        current = op.apply(current)
    return current


def enumerate_ops(value: Value, domain: DomainDescriptor) -> tuple[EditOp, ...]:
    """All single edits applicable to ``value`` that stay inside ``domain``."""
    ops: list[EditOp] = []
    if isinstance(domain, SeqDomain) and isinstance(value, Seq):
        element_values = enumerate_values(domain.element)
        if len(value.elements) < domain.max_length:
            for i in range(len(value.elements) + 1):
                for el in element_values:
                    ops.append(Insert(i, el))
        for i, current in enumerate(value.elements):
            ops.append(Delete(i, current))
            for el in element_values:
                if el != current:
                    ops.append(ReplaceAt(i, current, el))
    elif isinstance(domain, RecDomain) and isinstance(value, Rec):
        try:
            for name, sub in domain.fields:
                current = value.get(name)
                for alt in enumerate_values(sub):
                    if alt != current:
                        ops.append(SetField(name, current, alt))
        except KeyError as missing:
            raise ValueError(f"record lacks field {missing.args[0]!r} of its domain") from None
    else:
        for alt in enumerate_values(domain):
            if alt != value:
                ops.append(ReplaceRoot(value, alt))
    return tuple(ops)


def enumerate_op_sequences(
    value: Value, domain: DomainDescriptor, max_ops: int
) -> tuple[tuple[EditOp, ...], ...]:
    """All applicable edit sequences of length <= max_ops, shortest first."""
    out: list[tuple[EditOp, ...]] = [()]
    frontier: list[tuple[tuple[EditOp, ...], Value]] = [((), value)]
    for _ in range(max_ops):
        next_frontier: list[tuple[tuple[EditOp, ...], Value]] = []
        for ops, state in frontier:
            for op in enumerate_ops(state, domain):
                extended = ops + (op,)
                out.append(extended)
                next_frontier.append((extended, op.apply(state)))
        frontier = next_frontier
    return tuple(out)


# ---------------------------------------------------------------------------
# Updates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Update:
    """An update and its algebra.  The readers, ``null`` and ``inverse``
    answer ``None`` where the update has no such state or operator.  ``size``
    is the default "fewest changed components" preorder: the edit count, or
    the post-state paths not aligned to an equal pre-state component (both
    states, or a post-state anchored at ``base``) or not linked (delta).  It
    counts (``node_count``, ``diff_size``) and builds no path or alignment."""

    __slots__ = ()
    symbol: ClassVar[str]  # the paper's letter for the representation
    algebraic: ClassVar[bool] = True  # function-valued updates have no operator
    edits: ClassVar[bool] = False  # built by an edit sequence, not by its post-state
    carries_pre: ClassVar[bool] = False
    invertible: ClassVar[bool] = False
    identifiable: ClassVar[bool] = False  # a null update is told from the others

    @classmethod
    def build(cls, pre: Value, step: Any) -> "Update":
        """The update from ``pre`` by ``step``: the post-state it ends at or,
        where ``edits`` is set, the edit sequence it applies.  Where
        ``carries_pre`` is unset, ``pre`` is ignored."""
        return cls(pre, step) if cls.carries_pre else cls(step)

    @classmethod
    def null(cls, value: Value | None) -> "Update | None":
        """The update from ``value`` to ``value``, or the empty edit sequence;
        ``None`` for opaque updates and where an unknown ``value`` is needed."""
        if not cls.algebraic or (value is None and (cls.carries_pre or not cls.edits)):
            return None
        return cls.build(value, () if cls.edits else value)

    def pre_state(self) -> Value | None:
        return self.pre if self.carries_pre else None

    def post_state(self, base: Value | None = None) -> Value | None:
        """The post-state.  Edits reach it from the pre-state or, where they
        carry none, from ``base``; there is none where an edit does not apply."""
        if not self.edits:
            return self.post if self.algebraic else None
        start = self.pre if self.carries_pre else base
        try:
            return None if start is None else apply_ops(self.ops, start)
        except SchemeError:
            return None

    def then(self, second: "Update") -> "Update":
        """This update followed by ``second``, an update of the same class
        that starts where this one ends."""
        if not self.algebraic:
            raise NotExpressibleError("composition of opaque updates")
        return self.build(self.pre_state(), self.ops + second.ops if self.edits else second.post)

    def inverse(self, base: Value | None = None) -> "Update | None":
        """The update that reverts this one; ``base`` is its pre-state, which
        a post-state update reverts to by naming it again."""
        if not self.algebraic:
            return None
        if self.edits:
            return self.build(self.post_state(), (op.inverse() for op in reversed(self.ops)))
        return self.build(self.post, self.pre)

    def size(self, base: Value | None = None) -> int:
        return len(self.ops)


@frozen
class PostState(Update):
    symbol = "S"
    post: Value

    def then(self, second: Update) -> Update:
        return second

    def inverse(self, base: Value | None = None) -> Update | None:
        return None if base is None else PostState(base)

    def size(self, base: Value | None = None) -> int:
        # Anchored at ``base``, the paths not aligned to an equal component of it.
        return node_count(self.post) - (0 if base is None else diff_size(base, self.post))


@frozen
class BothStates(Update):
    symbol = "\U0001d54a"  # blackboard S: pre- and post-state
    carries_pre = invertible = identifiable = True
    pre: Value
    post: Value

    def size(self, base: Value | None = None) -> int:
        return node_count(self.post) - diff_size(self.pre, self.post)


@frozen
class DeltaUpdate(Update):
    symbol = "D"
    carries_pre = invertible = identifiable = True
    pre: Value
    post: Value
    same: SamenessRelation

    def __post_init__(self):
        for src, tgt in self.same.links:
            if not path_valid(self.pre, src) or not path_valid(self.post, tgt):
                raise ValueError("delta links must address valid paths of pre/post")

    @classmethod
    def build(cls, pre: Value, post: Value) -> Update:
        return cls(pre, post, diff(pre, post))

    def then(self, second: Update) -> Update:
        return DeltaUpdate(self.pre, second.post, compose_relations(second.same, self.same))

    def inverse(self, base: Value | None = None) -> Update:
        return DeltaUpdate(self.post, self.pre, self.same.invert())

    def size(self, base: Value | None = None) -> int:
        # A sameness relation is a partial bijection: one link per linked target.
        return node_count(self.post) - len(self.same)


@frozen
class Edits(Update):
    symbol = "E"
    edits = invertible = identifiable = True
    ops: tuple[EditOp, ...]

    def __init__(self, ops: Iterable[EditOp] = ()):
        self.__dict__["ops"] = tuple(ops)

    def then(self, second: Update) -> Update:
        # Built directly: history ignorance composes edit sequences most often.
        return Edits(self.ops + second.ops)


@frozen
class StateEdits(Update):
    symbol = "\U0001d53c"  # blackboard E: pre-state plus edits
    edits = carries_pre = invertible = identifiable = True
    pre: Value
    ops: tuple[EditOp, ...]

    def __init__(self, pre: Value, ops: Iterable[EditOp] = ()):
        ops = tuple(ops)
        apply_ops(ops, pre)  # construction-time applicability check
        state = self.__dict__
        state["pre"] = pre
        state["ops"] = ops


@frozen
class Opaque(Update):
    """Function-valued update carrier; algebraic operators reject it."""
    symbol = "F"
    algebraic = False
    tag: str

    def size(self, base: Value | None = None) -> int:
        raise NotExpressibleError("no preorder for opaque updates")


def compose_updates(second: Update, first: Update) -> Update:
    """Sequential composite: ``first`` then ``second``.

    The composite's pre-state is the first update's and its post-state
    the second's.  For post-state-only updates the composite is just the
    second update; edit sequences concatenate.
    """
    if type(first) is not type(second):
        raise ReprMismatch(f"cannot compose {first.symbol} with {second.symbol}")
    if first.carries_pre and first.post_state() != second.pre_state():
        raise SeamMismatch("post-state of first update differs from pre-state of second")
    return first.then(second)


# ---------------------------------------------------------------------------
# Traceability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Traceability:
    """A trace and its operators.  ``source`` and ``target`` answer ``None``
    for an endpoint the trace does not carry; ``testifying`` builds the
    trace a call produces on an anchor, ``reversing`` the one that the
    opposite call reads after it."""

    __slots__ = ()
    symbol: ClassVar[str]  # the paper's letter for the representation
    anchored: ClassVar[bool] = True  # a none-trace stands for no testifying pair
    carries_state: ClassVar[bool] = False
    carries_both: ClassVar[bool] = False

    @classmethod
    def reversing(cls, trace: "Traceability", source: Value | None) -> "Traceability | None":
        """``trace`` reversed into this class, ``None`` where it cannot be; a
        stored state holds ``source``, the output-side post-state of the call."""
        return trace.reversed() if isinstance(trace, cls) else None

    def source(self) -> Value | None:
        return None

    def target(self) -> Value | None:
        return None

    def reversed(self) -> "Traceability":
        """The opposite direction: a delta swaps its ends; the others are kept."""
        return self

    def extended(self, update: Update) -> "Traceability":
        """This trace with ``update`` on its target side; a stored state keeps
        its source."""
        if not self.carries_state:
            raise NotExpressibleError(f"trace/update composition for representation {self.symbol}")
        return self


@frozen
class NoTrace(Traceability):
    symbol = "N"
    anchored = False

    @classmethod
    def testifying(cls, *anchor) -> Traceability:
        return NO_TRACE

    reversing = testifying


@frozen
class StateTrace(Traceability):
    symbol = "S"
    carries_state = True
    state: Value

    @classmethod
    def testifying(cls, ends, complement, align) -> Traceability | None:
        return None if ends is None else cls(ends[0])

    @classmethod
    def reversing(cls, trace: Traceability, source: Value | None) -> Traceability | None:
        return None if source is None else cls(source)

    def source(self) -> Value:
        return self.state


@frozen
class ComplementTrace(Traceability):
    symbol = "C"
    payload: Value

    @classmethod
    def testifying(cls, ends, complement, align) -> Traceability | None:
        return None if complement is None else cls(complement)


@frozen
class DeltaTrace(Traceability):
    symbol = "D"
    carries_state = carries_both = True
    src: Value
    tgt: Value
    same: SamenessRelation

    def __post_init__(self):
        for s, t in self.same.links:
            if not path_valid(self.src, s) or not path_valid(self.tgt, t):
                raise ValueError("trace links must address valid paths of src/tgt")

    @classmethod
    def testifying(cls, ends, complement, align) -> Traceability | None:
        return None if ends is None else cls(*ends, align())

    def source(self) -> Value:
        return self.src

    def target(self) -> Value:
        return self.tgt

    def reversed(self) -> Traceability:
        return DeltaTrace(self.tgt, self.src, self.same.invert())

    def extended(self, update: Update) -> Traceability:
        update_pre = update.pre_state()
        if update_pre is not None and update_pre != self.tgt:
            raise SeamMismatch("update pre-state differs from trace target")
        new_tgt = update.post_state()
        if new_tgt is None:  # an edit-only update
            raise StateNotRepresented("post")
        step = update.same if isinstance(update, DeltaUpdate) else diff(self.tgt, new_tgt)
        return DeltaTrace(self.src, new_tgt, compose_relations(step, self.same))


NO_TRACE = NoTrace()


# ---------------------------------------------------------------------------
# Endpoint agreement after a transformation call
# ---------------------------------------------------------------------------

def incidence_failure(
    u_in: Update, t_in: Traceability, u_out: Update, t_out: Traceability
) -> tuple[str, Value, Value] | None:
    """The first endpoint condition of a call that fails, as ``(condition,
    lhs, rhs)``, or ``None`` where none does.

    The input update starts where the input trace ends, the output update
    starts at the input trace's source, the input update ends at the output
    trace's source, and the output update ends where the output trace ends.
    The conditions read alike in both directions, since a trace's ends are
    relative to its own arrow.  A condition with an unrepresented operand
    cannot fail.
    """
    for condition, lhs, rhs in (
        ("pre(in-update) = tgt(in-trace)", u_in.pre_state(), t_in.target()),
        ("pre(out-update) = src(in-trace)", u_out.pre_state(), t_in.source()),
        ("post(in-update) = src(out-trace)", u_in.post_state(), t_out.source()),
        ("post(out-update) = tgt(out-trace)", u_out.post_state(), t_out.target()),
    ):
        if lhs is not None and rhs is not None and lhs != rhs:
            return condition, lhs, rhs
    return None
