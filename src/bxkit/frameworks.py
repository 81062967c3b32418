"""Concrete bidirectional-transformation shapes as adapters over the scheme.

Seven constructors cover the classic interface families: plain mappings,
lenses (get/put), maintainers, trigonal systems (maintainers fed both
states), symmetric lenses (complement threading), edit lenses (edit
sequences under a complement), and symmetric delta-lenses.  Each factory
declares its representations once, on the ``Bx`` it returns, and wraps
user functions into a uniform partial transformation
``(update, trace) -> (update, trace)`` that rejects traces that do not
testify the consistency relation and always returns an output trace,
synthesizing it when the classic interface would omit it as redundant.
Every factory but ``make_lens`` states one direction: a closure factory
builds each arrow from its direction's name and user function, and
``_oriented`` turns the arrow's (input, output) sides into (A, B) sides.  The
symmetric and edit lenses share one core, ``_complement_lens``.
``Bx.apply`` checks inputs and results against the declared representations.
Partiality always surfaces as ``Undefined``, never as a crash.
A maintainer's testimony check scans the opposite domain once per trace
state, and a complement lens checks each complement's membership once; both
memos are filled through ``values.remember`` and bounded by the domains.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Iterable, NamedTuple

from .values import (
    DomainDescriptor,
    SamenessRelation,
    Value,
    contains,
    diff,
    enumerate_values,
    remember,
)
from .scheme import (
    BothStates,
    ComplementTrace,
    DeltaTrace,
    DeltaUpdate,
    EditOp,
    Edits,
    NO_TRACE,
    NoTrace,
    PostState,
    ReprMismatch,
    StateTrace,
    Traceability,
    Update,
    apply_ops,
    enumerate_ops,
)


class Undefined(Exception):
    """The transformation is not defined at this input."""

    def __init__(self, reason: str = ""):
        super().__init__(reason or "transformation undefined")
        self.reason = reason or "transformation undefined"


class UnknownName(Exception):
    pass


class BoundaryMismatch(ReprMismatch):
    """``Bx.apply``'s own check found an input or a result of ``bx`` that is
    not of the declared representations: a fault of ``bx``'s declaration.  A
    ``ReprMismatch`` raised inside the user's transformation is not one."""

    def __init__(self, message: str, bx: "Bx"):
        super().__init__(message)
        self.bx = bx


Transform = Callable[[Update, Traceability], tuple[Update, Traceability]]
Consistency = Callable[[Value, Value], bool]
Aligner = Callable[[Value, Value], SamenessRelation]
Triple = tuple[Value, Value, Value]


def _oriented(direction: str, x, y) -> tuple:
    """Order the (input side, output side) pair of the arrow named ``direction``
    as an (A, B) pair; being its own inverse, it also reads an (A, B) pair's
    (input, output) ends."""
    return (x, y) if direction == "to" else (y, x)


class Arrow(NamedTuple):
    """One direction of a ``Bx``: ``to`` runs from the A side to the B side,
    ``from`` back; ``back`` names the opposite direction."""

    name: str
    back: str
    fn: Transform
    upd_in: type[Update]
    upd_out: type[Update]
    trace_in: type[Traceability]
    trace_out: type[Traceability]
    domain_in: DomainDescriptor
    domain_out: DomainDescriptor

    def pair(self, x, y):
        """``_oriented`` for this arrow: (input, output) to (A, B), and back."""
        return _oriented(self.name, x, y)


@dataclass(eq=False)
class Bx:
    """A named bidirectional transformation over finite domains.

    ``upd_to``/``trace_to`` are the classes of the forward-direction update
    and trace representations (source-side updates, traces produced by the
    forward run and consumed by the backward one); ``upd_from`` and
    ``trace_from`` are their duals.  ``arrows`` holds each direction as
    one ``Arrow``, built from these fields once: ``arrows["to"]`` reads
    ``trace_from`` traces and produces ``trace_to`` ones, ``arrows["from"]``
    the reverse.  ``apply`` runs a direction by its name.
    """

    name: str
    upd_to: type[Update]
    upd_from: type[Update]
    trace_to: type[Traceability]
    trace_from: type[Traceability]
    consistency_kind: str
    consistency: Consistency
    to_fn: Transform
    from_fn: Transform
    domain_a: DomainDescriptor
    domain_b: DomainDescriptor
    preorder: Callable[[Update], int] | None = None  # a size that replaces ``Update.size``
    align: Aligner | None = None
    replay: tuple[Triple, ...] = field(default_factory=tuple)
    arrows: dict[str, Arrow] = field(init=False, repr=False)

    def __post_init__(self):
        self.arrows = {
            name: Arrow(
                name, back, fn,
                *_oriented(name, self.upd_to, self.upd_from),
                *_oriented(name, self.trace_from, self.trace_to),
                *_oriented(name, self.domain_a, self.domain_b),
            )
            for name, back, fn in (("to", "from", self.to_fn), ("from", "to", self.from_fn))
        }

    def to(self, update: Update, trace: Traceability) -> tuple[Update, Traceability]:
        return self.apply("to", update, trace)

    def from_(self, update: Update, trace: Traceability) -> tuple[Update, Traceability]:
        return self.apply("from", update, trace)

    def arrow(self, direction: str) -> Arrow:
        """The arrow named ``direction``; any other name is a ``ValueError``."""
        try:
            return self.arrows[direction]
        except KeyError:
            raise ValueError(f"direction must be 'to' or 'from', got {direction!r}") from None

    def apply(self, direction: str, update: Update, trace: Traceability) -> tuple[Update, Traceability]:
        """Run the arrow named ``direction``.  The inputs and the result must
        be an update and a trace of exactly the arrow's classes; anything
        else raises ``BoundaryMismatch``."""
        arrow = self.arrows.get(direction) or self.arrow(direction)  # the second raises the ValueError
        if type(update) is not arrow.upd_in or type(trace) is not arrow.trace_in:
            raise _mismatch(self, "input", (update, trace), arrow.upd_in, arrow.trace_in)
        result = arrow.fn(update, trace)
        try:
            u_out, t_out = result
            declared = type(u_out) is arrow.upd_out and type(t_out) is arrow.trace_out
        except (TypeError, ValueError):
            declared = False
        if not declared:
            raise _mismatch(self, "result", result, arrow.upd_out, arrow.trace_out)
        return result

    def default_align(self, a: Value, b: Value) -> SamenessRelation:
        if self.align is not None:
            return self.align(a, b)
        return diff(a, b)


def _mismatch(bx: Bx, role: str, pair, upd: type[Update], trc: type[Traceability]) -> BoundaryMismatch:
    """The error for a call of ``bx`` whose ``role``, its inputs or its result,
    is not a pair of an update of class ``upd`` and a trace of class ``trc``."""
    update, trace = pair if isinstance(pair, tuple) and len(pair) == 2 else (pair, None)
    if type(update) is not upd:
        return BoundaryMismatch(
            f"{role}: expected update representation {upd.symbol}, got {type(update).__name__}", bx
        )
    return BoundaryMismatch(
        f"{role}: expected trace representation {trc.symbol}, got {type(trace).__name__}", bx
    )


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise Undefined(reason)


def _graph_of(forward: Callable[[Value], Value]) -> Consistency:
    """The relation ``forward(a) == b``, false wherever ``forward`` is undefined."""

    def consistency(a: Value, b: Value) -> bool:
        try:
            return forward(a) == b
        except Undefined:
            return False

    return consistency


def _symmetric(
    name: str,
    upd: type[Update],
    trace: type[Traceability],
    consistency_kind: str,
    consistency: Consistency,
    arrow_fn: Callable[[str, Callable], Transform],
    to_fn: Callable,
    from_fn: Callable,
    domain_a: DomainDescriptor,
    domain_b: DomainDescriptor,
    **extra,
) -> Bx:
    """The ``Bx`` whose directions share the update class ``upd`` and the
    trace class ``trace``; ``arrow_fn(direction, fn)`` builds the
    function of each direction around the user's ``fn``."""
    return Bx(
        name=name,
        upd_to=upd,
        upd_from=upd,
        trace_to=trace,
        trace_from=trace,
        consistency_kind=consistency_kind,
        consistency=consistency,
        to_fn=arrow_fn("to", to_fn),
        from_fn=arrow_fn("from", from_fn),
        domain_a=domain_a,
        domain_b=domain_b,
        **extra,
    )


# ---------------------------------------------------------------------------
# Mappings and lenses (consistency is the forward transformation)
# ---------------------------------------------------------------------------

def make_mapping(
    name: str,
    to_fn: Callable[[Value], Value],
    from_fn: Callable[[Value], Value],
    domain_a: DomainDescriptor,
    domain_b: DomainDescriptor,
) -> Bx:
    """State-to-state mapping with no traceability on either side."""

    def arrow_fn(direction: str, fn: Callable[[Value], Value]) -> Transform:
        def run(update: PostState, trace: Traceability) -> tuple[Update, Traceability]:
            return PostState(fn(update.post)), NO_TRACE

        return run

    return _symmetric(
        name, PostState, NoTrace, "T", _graph_of(to_fn), arrow_fn,
        to_fn, from_fn, domain_a, domain_b,
    )


def make_lens(
    name: str,
    get: Callable[[Value], Value],
    put: Callable[[Value, Value], Value],
    domain_a: DomainDescriptor,
    domain_b: DomainDescriptor,
) -> Bx:
    """Asymmetric lens: forward is get, backward is put over the old source."""

    def to(update: PostState, trace: Traceability) -> tuple[Update, Traceability]:
        return PostState(get(update.post)), StateTrace(update.post)

    def from_(update: PostState, trace: StateTrace) -> tuple[Update, Traceability]:
        old_source = trace.state
        try:
            get(old_source)
        except Undefined:
            raise Undefined("trace does not testify the consistency relation")
        return PostState(put(update.post, old_source)), NO_TRACE

    return Bx(
        name=name,
        upd_to=PostState,
        upd_from=PostState,
        trace_to=StateTrace,
        trace_from=NoTrace,
        consistency_kind="T",
        consistency=_graph_of(get),
        to_fn=to,
        from_fn=from_,
        domain_a=domain_a,
        domain_b=domain_b,
    )


# ---------------------------------------------------------------------------
# Maintainers and trigonal systems (explicit consistency relation)
# ---------------------------------------------------------------------------

def make_maintainer(
    name: str,
    consistency: Consistency,
    to_fn: Callable[[Value, Value], Value],
    from_fn: Callable[[Value, Value], Value],
    domain_a: DomainDescriptor,
    domain_b: DomainDescriptor,
) -> Bx:
    """Symmetric repair pair: each direction sees the opposite pre-state.

    ``to_fn(a_post, b_pre)`` returns the repaired target, ``from_fn``
    dually.  The repair functions are supplied, not inferred from the
    relation.

    Whether a trace state has a consistent partner is decided once per
    state, on first use, by scanning the opposite domain, and remembered
    in a per-side memo.  Only members of the state's own domain are
    remembered, so the memos hold at most |A| + |B| entries.
    """

    def arrow_fn(direction: str, repair: Callable[[Value, Value], Value]) -> Transform:
        scanned, within = _oriented(direction, domain_a, domain_b)
        outside = f"trace outside {_oriented(direction, 'source', 'target')[1]} domain"
        testified: dict[Value, bool] = {}

        def partnered(state: Value) -> bool:
            _require(contains(within, state), outside)
            return any(consistency(*_oriented(direction, x, state)) for x in enumerate_values(scanned))

        def run(update: PostState, trace: StateTrace) -> tuple[Update, Traceability]:
            known = remember(testified, trace.state, partnered, trace.state)
            _require(known, "trace does not testify the consistency relation")
            return PostState(repair(update.post, trace.state)), StateTrace(update.post)

        return run

    return _symmetric(
        name, PostState, StateTrace, "E", consistency, arrow_fn,
        to_fn, from_fn, domain_a, domain_b,
    )


def make_trigonal(
    name: str,
    consistency: Consistency,
    to_fn: Callable[[tuple[Value, Value], Value], Value],
    from_fn: Callable[[tuple[Value, Value], Value], Value],
    domain_a: DomainDescriptor,
    domain_b: DomainDescriptor,
) -> Bx:
    """Maintainer variant whose updates carry both pre- and post-state,
    enabling incremental repair of only the changed parts."""

    def arrow_fn(direction: str, repair: Callable[[tuple[Value, Value], Value], Value]) -> Transform:
        _, within = _oriented(direction, domain_a, domain_b)
        outside = f"trace outside {_oriented(direction, 'source', 'target')[1]} domain"

        def run(update: BothStates, trace: StateTrace) -> tuple[Update, Traceability]:
            _require(contains(within, trace.state), outside)
            _require(
                consistency(*_oriented(direction, update.pre, trace.state)),
                "trace state does not match the update's pre-state",
            )
            repaired = repair((update.pre, update.post), trace.state)
            return BothStates(trace.state, repaired), StateTrace(update.post)

        return run

    return _symmetric(
        name, BothStates, StateTrace, "E", consistency, arrow_fn,
        to_fn, from_fn, domain_a, domain_b,
    )


# ---------------------------------------------------------------------------
# Complement-based frameworks (implicit consistency via replay)
# ---------------------------------------------------------------------------

def _complement_lens(
    name: str,
    upd: type[Update],
    to_fn: Callable[[Any, Value], tuple[Any, Value]],
    from_fn: Callable[[Any, Value], tuple[Any, Value]],
    domain_a: DomainDescriptor,
    domain_b: DomainDescriptor,
    complement_domain: DomainDescriptor,
    seeds: tuple[Triple, ...],
) -> Bx:
    """A lens whose user functions map a step of one side, the post-state of a
    ``PostState`` or the edits of an ``Edits`` (``upd``), and a complement to a
    step of the other side and a new complement.  Its replay is the triples
    ``(a, b, complement)`` that the user functions, called directly, reach
    from the seeds, sorted by rendering.  The arrows check each complement
    once, in one memo for both directions."""
    from .grammar import render_value

    # A step of an edit lens is one edit of the state; of a symmetric lens, any state.
    if upd.edits:
        def steps(state: Value, domain: DomainDescriptor) -> Iterable:
            return ((op,) for op in enumerate_ops(state, domain))

        reach = apply_ops
    else:
        def steps(state: Value, domain: DomainDescriptor) -> Iterable:
            return enumerate_values(domain)

        def reach(step: Value, base: Value) -> Value:
            return step

    triples = set(seeds)
    worklist = list(seeds)
    while worklist:
        a, b, c = worklist.pop()
        for direction, fn in (("to", to_fn), ("from", from_fn)):
            x, y = _oriented(direction, a, b)
            scanned, _ = _oriented(direction, domain_a, domain_b)
            for step in steps(x, scanned):
                try:
                    out, c1 = fn(step, c)
                    triple = (*_oriented(direction, reach(step, x), reach(out, y)), c1)
                except Undefined:
                    continue
                if triple not in triples:
                    triples.add(triple)
                    worklist.append(triple)
    replay = tuple(sorted(triples, key=lambda t: tuple(render_value(v) for v in t)))
    reachable_pairs = frozenset((a, b) for a, b, _ in replay)
    inside: dict[Value, None] = {}
    read = attrgetter("ops" if upd.edits else "post")

    def consistency(a: Value, b: Value) -> bool:
        return (a, b) in reachable_pairs

    def require_inside(payload: Value) -> None:
        _require(contains(complement_domain, payload), "complement outside its domain")

    def arrow_fn(direction: str, fn: Callable[[Any, Value], tuple[Any, Value]]) -> Transform:
        def run(update: Update, trace: ComplementTrace) -> tuple[Update, Traceability]:
            payload = trace.payload
            try:
                inside[payload]
            except (KeyError, TypeError):  # not yet checked, or unhashable and checked on every call
                remember(inside, payload, require_inside, payload)
            out, c1 = fn(read(update), payload)
            return upd(out), ComplementTrace(c1)

        return run

    return _symmetric(
        name, upd, ComplementTrace, "I", consistency, arrow_fn,
        to_fn, from_fn, domain_a, domain_b, replay=replay,
    )


def make_symmetric_lens(
    name: str,
    to_fn: Callable[[Value, Value], tuple[Value, Value]],
    from_fn: Callable[[Value, Value], tuple[Value, Value]],
    domain_a: DomainDescriptor,
    domain_b: DomainDescriptor,
    complement_domain: DomainDescriptor,
    seeds: tuple[tuple[Value, Value, Value], ...],
) -> Bx:
    """Symmetric lens threading a complement value through both directions.

    The consistency relation is implicit: the pairs reachable from the
    seed states by any run of the transformations.  The reachable triples
    are precomputed so law checking can feed only testifying traces.
    """
    return _complement_lens(name, PostState, to_fn, from_fn, domain_a, domain_b, complement_domain, seeds)


def make_edit_lens(
    name: str,
    translate_to: Callable[[tuple[EditOp, ...], Value], tuple[tuple[EditOp, ...], Value]],
    translate_from: Callable[[tuple[EditOp, ...], Value], tuple[tuple[EditOp, ...], Value]],
    domain_a: DomainDescriptor,
    domain_b: DomainDescriptor,
    complement_domain: DomainDescriptor,
    seeds: tuple[tuple[Value, Value, Value], ...],
) -> Bx:
    """Operation-based symmetric lens: edit sequences in, edit sequences out.

    Translators may reject an edit that does not make sense under the
    current complement; that surfaces as ``Undefined``.
    """
    return _complement_lens(
        name, Edits, translate_to, translate_from, domain_a, domain_b, complement_domain, seeds
    )


# ---------------------------------------------------------------------------
# Symmetric delta-lenses
# ---------------------------------------------------------------------------

def make_sdelta_lens(
    name: str,
    consistency: Consistency,
    to_fn: Callable[[DeltaUpdate, DeltaTrace], tuple[DeltaUpdate, DeltaTrace]],
    from_fn: Callable[[DeltaUpdate, DeltaTrace], tuple[DeltaUpdate, DeltaTrace]],
    domain_a: DomainDescriptor,
    domain_b: DomainDescriptor,
    align: Aligner,
) -> Bx:
    """Delta-everywhere framework: updates and traces carry sameness relations."""

    def arrow_fn(direction: str, fn: Transform) -> Transform:
        def run(update: DeltaUpdate, trace: DeltaTrace) -> tuple[Update, Traceability]:
            # The input trace runs from the output side (its src) to the input side.
            _require(trace.tgt == update.pre, "update pre-state differs from trace target")
            _require(
                consistency(*_oriented(direction, trace.tgt, trace.src)),
                "trace does not testify the consistency relation",
            )
            return fn(update, trace)

        return run

    return _symmetric(
        name, DeltaUpdate, DeltaTrace, "E", consistency, arrow_fn,
        to_fn, from_fn, domain_a, domain_b, align=align,
    )
