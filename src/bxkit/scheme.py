"""The generic update/traceability scheme and its algebra.

Updates come in six representations: post-state only, both states, delta
(states plus a sameness relation), edit sequence, pre-state plus edits,
and opaque function tags.  Traceabilities come in four: none, one stored
state, a complement, and a delta.  Each class names its representation
in its ``repr`` class attribute; ``UPDATE_CONSTRUCTORS`` states how each
non-opaque update representation is built.  This module gives the
representation types and the operators the laws are written with:
pre/post projection, null updates, sequential composition, inversion,
trace reversal and trace/update composition, plus endpoint-agreement
checking for a transformation call and the default size preorder on updates.

A traceability value is directionless data; whether a stored state is
the A side or the B side is decided by the call site (the direction of
the transformation it was passed to or returned from).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterable, NamedTuple

from .values import (
    DomainDescriptor,
    RecDomain,
    SeqDomain,
    Rec,
    SamenessRelation,
    Seq,
    Value,
    all_paths,
    compose_relations,
    diff,
    enumerate_values,
    path_valid,
)
from .verdict import Counterexample, Fails, Holds, Vacuous, Verdict


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


class UpdateRepr(enum.Enum):
    POST = "S"
    BOTH = "\U0001d54a"        # blackboard S: pre- and post-state
    DELTA = "D"
    EDITS = "E"
    STATE_EDITS = "\U0001d53c"  # blackboard E: pre-state plus edits
    OPAQUE = "F"

    @classmethod
    def from_symbol(cls, text: str) -> "UpdateRepr":
        """The member whose value is ``text``; ``SS`` and ``EE`` spell the
        blackboard letters.  Raises ``ValueError`` for any other text."""
        return {"SS": cls.BOTH, "EE": cls.STATE_EDITS}.get(text) or cls(text)


class TraceRepr(enum.Enum):
    NONE = "N"
    STATE = "S"
    COMPLEMENT = "C"
    DELTA = "D"

    @classmethod
    def from_symbol(cls, text: str) -> "TraceRepr":
        return cls(text)


# ---------------------------------------------------------------------------
# Edit operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EditOp:
    """Base class for edit operations; each records enough of the
    pre-state (the displaced value) to be locally invertible."""
    __slots__ = ()


@dataclass(frozen=True)
class Insert(EditOp):
    index: int
    element: Value


@dataclass(frozen=True)
class Delete(EditOp):
    index: int
    removed: Value


@dataclass(frozen=True)
class ReplaceAt(EditOp):
    index: int
    old: Value
    new: Value


@dataclass(frozen=True)
class SetField(EditOp):
    name: str
    old: Value
    new: Value


@dataclass(frozen=True)
class ReplaceRoot(EditOp):
    old: Value
    new: Value


def invert_op(op: EditOp) -> EditOp:
    if isinstance(op, Insert):
        return Delete(op.index, op.element)
    if isinstance(op, Delete):
        return Insert(op.index, op.removed)
    if isinstance(op, ReplaceAt):
        return ReplaceAt(op.index, op.new, op.old)
    if isinstance(op, SetField):
        return SetField(op.name, op.new, op.old)
    if isinstance(op, ReplaceRoot):
        return ReplaceRoot(op.new, op.old)
    raise TypeError(f"unknown edit op {op!r}")


def apply_op(op: EditOp, value: Value) -> Value:
    """Apply one edit; raises EditUnapplicable when the precondition fails."""
    if isinstance(op, Insert):
        if not isinstance(value, Seq) or not 0 <= op.index <= len(value.elements):
            raise EditUnapplicable(f"insert at {op.index}")
        els = value.elements
        return Seq(els[: op.index] + (op.element,) + els[op.index:])
    if isinstance(op, Delete):
        if (
            not isinstance(value, Seq)
            or not 0 <= op.index < len(value.elements)
            or value.elements[op.index] != op.removed
        ):
            raise EditUnapplicable(f"delete at {op.index}")
        els = value.elements
        return Seq(els[: op.index] + els[op.index + 1:])
    if isinstance(op, ReplaceAt):
        if (
            not isinstance(value, Seq)
            or not 0 <= op.index < len(value.elements)
            or value.elements[op.index] != op.old
        ):
            raise EditUnapplicable(f"replace at {op.index}")
        els = value.elements
        return Seq(els[: op.index] + (op.new,) + els[op.index + 1:])
    if isinstance(op, SetField):
        if not isinstance(value, Rec) or not value.has(op.name) or value.get(op.name) != op.old:
            raise EditUnapplicable(f"set field {op.name}")
        return value.set(op.name, op.new)
    if isinstance(op, ReplaceRoot):
        if value != op.old:
            raise EditUnapplicable("root replacement old value mismatch")
        return op.new
    raise TypeError(f"unknown edit op {op!r}")


def apply_ops(ops: Iterable[EditOp], value: Value) -> Value:
    current = value
    for op in ops:
        current = apply_op(op, current)
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
                next_frontier.append((extended, apply_op(op, state)))
        frontier = next_frontier
    return tuple(out)


# ---------------------------------------------------------------------------
# Updates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Update:
    __slots__ = ()
    repr: ClassVar[UpdateRepr]


@dataclass(frozen=True)
class PostState(Update):
    repr = UpdateRepr.POST
    post: Value


@dataclass(frozen=True)
class BothStates(Update):
    repr = UpdateRepr.BOTH
    pre: Value
    post: Value


@dataclass(frozen=True)
class DeltaUpdate(Update):
    repr = UpdateRepr.DELTA
    pre: Value
    post: Value
    same: SamenessRelation

    def __post_init__(self):
        for src, tgt in self.same.links:
            if not path_valid(self.pre, src) or not path_valid(self.post, tgt):
                raise ValueError("delta links must address valid paths of pre/post")


@dataclass(frozen=True)
class Edits(Update):
    repr = UpdateRepr.EDITS
    ops: tuple[EditOp, ...]

    def __init__(self, ops: Iterable[EditOp] = ()):
        object.__setattr__(self, "ops", tuple(ops))


@dataclass(frozen=True)
class StateEdits(Update):
    repr = UpdateRepr.STATE_EDITS
    pre: Value
    ops: tuple[EditOp, ...]

    def __init__(self, pre: Value, ops: Iterable[EditOp] = ()):
        object.__setattr__(self, "pre", pre)
        ops = tuple(ops)
        apply_ops(ops, pre)  # construction-time applicability check
        object.__setattr__(self, "ops", ops)


@dataclass(frozen=True)
class Opaque(Update):
    """Function-valued update carrier; algebraic operators reject it."""
    repr = UpdateRepr.OPAQUE
    tag: str


def update_repr(u: Update) -> UpdateRepr:
    if isinstance(u, Update):
        return u.repr
    raise TypeError(f"not an update: {u!r}")


class UpdateConstructor(NamedTuple):
    """How one update representation builds the update from ``pre`` by a step:
    the post-state it ends at, or, where ``edits`` is set, the edit sequence
    it applies.  Where ``carries_pre`` is unset, ``pre`` is ignored."""

    edits: bool
    carries_pre: bool
    build: Callable[[Value, Any], Update]

    def null(self, value: Value) -> Update:
        """The update from ``value`` to ``value``, or the empty edit sequence."""
        return self.build(value, () if self.edits else value)


UPDATE_CONSTRUCTORS: dict[UpdateRepr, UpdateConstructor] = {
    UpdateRepr.POST: UpdateConstructor(False, False, lambda pre, post: PostState(post)),
    UpdateRepr.BOTH: UpdateConstructor(False, True, BothStates),
    UpdateRepr.DELTA: UpdateConstructor(
        False, True, lambda pre, post: DeltaUpdate(pre, post, diff(pre, post))
    ),
    UpdateRepr.EDITS: UpdateConstructor(True, False, lambda pre, ops: Edits(ops)),
    UpdateRepr.STATE_EDITS: UpdateConstructor(True, True, StateEdits),
}


def delta_of(u: Update) -> Value:
    """Pre-state of an update; undefined for post-only, edit-only and
    opaque representations (recover it through a traceability instead)."""
    if isinstance(u, (BothStates, DeltaUpdate, StateEdits)):
        return u.pre
    raise StateNotRepresented("pre")


def rho_of(u: Update) -> Value:
    """Post-state of an update; for pre-state plus edits it is computed
    by applying the edits."""
    if isinstance(u, PostState):
        return u.post
    if isinstance(u, (BothStates, DeltaUpdate)):
        return u.post
    if isinstance(u, StateEdits):
        return apply_ops(u.ops, u.pre)
    raise StateNotRepresented("post")


def identity_update(value: Value, repr: UpdateRepr) -> Update:
    """The null update on ``value`` in the given representation.

    Post-state-only updates carry no pre-state, so a null update cannot
    be distinguished there; same for opaque updates.
    """
    constructor = UPDATE_CONSTRUCTORS.get(repr)
    if constructor is None or not (constructor.edits or constructor.carries_pre):
        raise NotExpressibleError(f"null update for representation {repr.value}")
    return constructor.null(value)


def compose_updates(second: Update, first: Update) -> Update:
    """Sequential composite: ``first`` then ``second``.

    The composite's pre-state is the first update's and its post-state
    the second's.  For post-state-only updates the composite is just the
    second update; edit sequences concatenate.
    """
    r1, r2 = update_repr(first), update_repr(second)
    if r1 is not r2:
        raise ReprMismatch(f"cannot compose {r1.value} with {r2.value}")
    if r1 is UpdateRepr.POST:
        return second
    if r1 is UpdateRepr.OPAQUE:
        raise NotExpressibleError("composition of opaque updates")
    if r1 is UpdateRepr.EDITS:
        return Edits(first.ops + second.ops)
    if rho_of(first) != delta_of(second):
        raise SeamMismatch("post-state of first update differs from pre-state of second")
    if r1 is UpdateRepr.BOTH:
        return BothStates(delta_of(first), rho_of(second))
    if r1 is UpdateRepr.DELTA:
        return DeltaUpdate(first.pre, second.post, compose_relations(second.same, first.same))
    return StateEdits(first.pre, first.ops + second.ops)


def invert_update(u: Update) -> Update:
    """Swap the endpoints of an update; an involution where defined."""
    if isinstance(u, BothStates):
        return BothStates(u.post, u.pre)
    if isinstance(u, DeltaUpdate):
        return DeltaUpdate(u.post, u.pre, u.same.invert())
    if isinstance(u, Edits):
        return Edits(tuple(invert_op(op) for op in reversed(u.ops)))
    if isinstance(u, StateEdits):
        return StateEdits(rho_of(u), tuple(invert_op(op) for op in reversed(u.ops)))
    raise NotExpressibleError(f"inversion for representation {update_repr(u).value}")


# ---------------------------------------------------------------------------
# Traceability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Traceability:
    __slots__ = ()
    repr: ClassVar[TraceRepr]


@dataclass(frozen=True)
class NoTrace(Traceability):
    repr = TraceRepr.NONE


@dataclass(frozen=True)
class StateTrace(Traceability):
    repr = TraceRepr.STATE
    state: Value


@dataclass(frozen=True)
class ComplementTrace(Traceability):
    repr = TraceRepr.COMPLEMENT
    payload: Value


@dataclass(frozen=True)
class DeltaTrace(Traceability):
    repr = TraceRepr.DELTA
    src: Value
    tgt: Value
    same: SamenessRelation

    def __post_init__(self):
        for s, t in self.same.links:
            if not path_valid(self.src, s) or not path_valid(self.tgt, t):
                raise ValueError("trace links must address valid paths of src/tgt")


NO_TRACE = NoTrace()


def trace_repr(t: Traceability) -> TraceRepr:
    if isinstance(t, Traceability):
        return t.repr
    raise TypeError(f"not a traceability: {t!r}")


def src_of(t: Traceability) -> Value:
    """Source endpoint of a trace, read in the trace's own direction.
    A stored-state trace holds exactly its source; the opposite endpoint
    must be recovered through the endpoint-agreement conditions."""
    if isinstance(t, StateTrace):
        return t.state
    if isinstance(t, DeltaTrace):
        return t.src
    raise StateNotRepresented("src")


def tgt_of(t: Traceability) -> Value:
    if isinstance(t, DeltaTrace):
        return t.tgt
    raise StateNotRepresented("tgt")


def invert_trace(t: Traceability) -> Traceability:
    """Reverse a trace's direction.  Complements are symmetric; a stored
    state keeps its payload and is reinterpreted by the caller."""
    if isinstance(t, (NoTrace, StateTrace, ComplementTrace)):
        return t
    if isinstance(t, DeltaTrace):
        return DeltaTrace(t.tgt, t.src, t.same.invert())
    raise TypeError(f"not a traceability: {t!r}")


def compose_trace_update(update: Update, trace: Traceability) -> Traceability:
    """Extend a trace with an update on its target side.

    The stored-state case keeps its payload (the source endpoint is
    untouched); the delta case advances the target endpoint and composes
    the relations.  There is no definition for the none or complement
    representations.
    """
    if isinstance(trace, (NoTrace, ComplementTrace)):
        raise NotExpressibleError(
            f"trace/update composition for representation {trace_repr(trace).value}"
        )
    if isinstance(trace, StateTrace):
        return trace
    assert isinstance(trace, DeltaTrace)
    try:
        update_pre = delta_of(update)
    except StateNotRepresented:
        update_pre = None
    if update_pre is not None and update_pre != trace.tgt:
        raise SeamMismatch("update pre-state differs from trace target")
    if isinstance(update, DeltaUpdate):
        step = update.same
        new_tgt = update.post
    else:
        new_tgt = rho_of(update)  # may raise StateNotRepresented for edit-only
        step = diff(trace.tgt, new_tgt)
    return DeltaTrace(trace.src, new_tgt, compose_relations(step, trace.same))


# ---------------------------------------------------------------------------
# Endpoint agreement after a transformation call
# ---------------------------------------------------------------------------

def _try(thunk):
    try:
        return thunk()
    except StateNotRepresented:
        return None


def check_incidence(
    u_in: Update,
    t_in: Traceability,
    u_out: Update,
    t_out: Traceability,
    direction: str,
) -> Verdict:
    """Check that updates and traces agree on their endpoints.

    For a forward call the conditions are: the input update starts where
    the input trace ends, the output update starts at the input trace's
    source, the input update ends at the output trace's source, and the
    output update ends where the output trace ends.  The backward call is
    dual.  Conditions with an unrepresented operand are skipped rather
    than failed.
    """
    if direction not in ("to", "from"):
        raise ValueError(f"direction must be 'to' or 'from', got {direction!r}")
    # The four equations read identically in both directions because a
    # trace's src/tgt accessors are already relative to its own arrow.
    conditions = [
        ("pre(in-update) = tgt(in-trace)", _try(lambda: delta_of(u_in)), _try(lambda: tgt_of(t_in))),
        ("pre(out-update) = src(in-trace)", _try(lambda: delta_of(u_out)), _try(lambda: src_of(t_in))),
        ("post(in-update) = src(out-trace)", _try(lambda: rho_of(u_in)), _try(lambda: src_of(t_out))),
        ("post(out-update) = tgt(out-trace)", _try(lambda: rho_of(u_out)), _try(lambda: tgt_of(t_out))),
    ]

    checked = 0
    for name, lhs, rhs in conditions:
        if lhs is None or rhs is None:
            continue  # skipped: operand not representable
        checked += 1
        if lhs != rhs:
            from .grammar import render_trace, render_update, render_value

            return Fails(
                Counterexample(
                    law="incidence",
                    direction=direction,
                    bx_name="",
                    update=render_update(u_in),
                    trace=render_trace(t_in),
                    observed=f"{render_value(lhs)} vs {render_value(rhs)}",
                    expected=name,
                    detail=f"condition failed: {name}",
                )
            )
    if checked == 0:
        return Vacuous("no endpoint condition has both operands represented")
    return Holds(checked)


# ---------------------------------------------------------------------------
# Update preorder
# ---------------------------------------------------------------------------

LESS_OR_EQUAL = "LessOrEqual"
GREATER = "Greater"


@dataclass(frozen=True)
class UpdatePreorder:
    """A total preorder on updates of one representation, given by a size."""

    name: str
    size: "callable"

    def compare(self, u1: Update, u2: Update) -> str:
        return LESS_OR_EQUAL if self.size(u1) <= self.size(u2) else GREATER


def _changed_paths_both(u: BothStates) -> int:
    return len(all_paths(u.post)) - len(diff(u.pre, u.post))


def _changed_paths_delta(u: DeltaUpdate) -> int:
    return len(all_paths(u.post)) - len(u.same.targets())


def _post_size(u: PostState) -> int:
    return len(all_paths(u.post))


def default_preorder(repr: UpdateRepr) -> UpdatePreorder:
    """The default "fewest changed components" preorder.

    Both-state updates count post-state paths not aligned to an equal
    pre-state component; delta updates use their carried relation; edit
    updates compare sequence length.  Post-state-only updates fall back
    to comparing post-state size, since no pre-state is available.
    """
    if repr is UpdateRepr.BOTH:
        return UpdatePreorder("changed-paths", _changed_paths_both)
    if repr is UpdateRepr.DELTA:
        return UpdatePreorder("unlinked-paths", _changed_paths_delta)
    if repr in (UpdateRepr.EDITS, UpdateRepr.STATE_EDITS):
        return UpdatePreorder("edit-count", lambda u: len(u.ops))
    if repr is UpdateRepr.POST:
        return UpdatePreorder("post-size", _post_size)
    raise NotExpressibleError("no preorder for opaque updates")
