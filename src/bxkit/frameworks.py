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
``Bx.apply`` checks inputs and results against the declared representations.
Partiality always surfaces as ``Undefined``, never as a crash.
A maintainer's testimony check scans the opposite domain once per trace
state, and a complement lens checks each complement's membership once; both
memos are filled through ``values.remember`` and bounded by the domains.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

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
    PostState,
    ReprMismatch,
    StateTrace,
    Traceability,
    TraceRepr,
    Update,
    UpdatePreorder,
    UpdateRepr,
    apply_op,
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


class Arrow(NamedTuple):
    """One direction of a ``Bx``: ``to`` runs from the A side to the B side,
    ``from`` back; ``back`` names the opposite direction."""

    name: str
    back: str
    fn: Transform
    upd_in: UpdateRepr
    upd_out: UpdateRepr
    trace_in: TraceRepr
    trace_out: TraceRepr
    domain_in: DomainDescriptor
    domain_out: DomainDescriptor

    def pair(self, x, y):
        """Order an (input side, output side) pair as an (A, B) pair; being its
        own inverse, it also reads an (A, B) anchor's (input, output) ends."""
        return (x, y) if self.name == "to" else (y, x)


@dataclass(eq=False)
class Bx:
    """A named bidirectional transformation over finite domains.

    ``upd_to``/``trace_to`` describe the forward-direction update and
    trace representations (source-side updates, traces produced by the
    forward run and consumed by the backward one); ``upd_from`` and
    ``trace_from`` are their duals.  ``arrows`` holds each direction as
    one ``Arrow``, built from these fields once: ``arrows["to"]`` reads
    ``trace_from`` traces and produces ``trace_to`` ones, ``arrows["from"]``
    the reverse.  ``apply`` runs a direction by its name.
    """

    name: str
    upd_to: UpdateRepr
    upd_from: UpdateRepr
    trace_to: TraceRepr
    trace_from: TraceRepr
    consistency_kind: str
    consistency: Consistency
    to_fn: Transform
    from_fn: Transform
    domain_a: DomainDescriptor
    domain_b: DomainDescriptor
    complement_domain: DomainDescriptor | None = None
    preorder: UpdatePreorder | None = None
    align: Aligner | None = None
    replay: tuple[Triple, ...] = field(default_factory=tuple)
    arrows: dict[str, Arrow] = field(init=False, repr=False)

    def __post_init__(self):
        self.arrows = {
            "to": Arrow(
                "to", "from", self.to_fn, self.upd_to, self.upd_from,
                self.trace_from, self.trace_to, self.domain_a, self.domain_b,
            ),
            "from": Arrow(
                "from", "to", self.from_fn, self.upd_from, self.upd_to,
                self.trace_to, self.trace_from, self.domain_b, self.domain_a,
            ),
        }

    @property
    def symmetry(self) -> str:
        same_upd = self.upd_to is self.upd_from
        same_trace = self.trace_to is self.trace_from
        return "S" if same_upd and same_trace else "A"

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
        be an update and a trace of the arrow's representations; anything
        else raises ``BoundaryMismatch``."""
        arrow = self.arrow(direction)
        if update.repr is not arrow.upd_in or trace.repr is not arrow.trace_in:
            raise _mismatch(self, "input", (update, trace), arrow.upd_in, arrow.trace_in)
        result = arrow.fn(update, trace)
        try:
            u_out, t_out = result
            declared = u_out.repr is arrow.upd_out and t_out.repr is arrow.trace_out
        except (AttributeError, TypeError, ValueError):
            declared = False
        if not declared:
            raise _mismatch(self, "result", result, arrow.upd_out, arrow.trace_out)
        return result

    def default_align(self, a: Value, b: Value) -> SamenessRelation:
        if self.align is not None:
            return self.align(a, b)
        return diff(a, b)


def _mismatch(bx: Bx, role: str, pair, upd: UpdateRepr, trc: TraceRepr) -> BoundaryMismatch:
    """The error for a call of ``bx`` whose ``role``, its inputs or its result,
    is not a pair of an update of representation ``upd`` and a trace of ``trc``."""
    update, trace = pair if isinstance(pair, tuple) and len(pair) == 2 else (pair, None)
    if getattr(update, "repr", None) is not upd:
        return BoundaryMismatch(
            f"{role}: expected update representation {upd.value}, got {type(update).__name__}", bx
        )
    return BoundaryMismatch(
        f"{role}: expected trace representation {trc.value}, got {type(trace).__name__}", bx
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

    def to(update: PostState, trace: Traceability) -> tuple[Update, Traceability]:
        return PostState(to_fn(update.post)), NO_TRACE

    def from_(update: PostState, trace: Traceability) -> tuple[Update, Traceability]:
        return PostState(from_fn(update.post)), NO_TRACE

    return Bx(
        name=name,
        upd_to=UpdateRepr.POST,
        upd_from=UpdateRepr.POST,
        trace_to=TraceRepr.NONE,
        trace_from=TraceRepr.NONE,
        consistency_kind="T",
        consistency=_graph_of(to_fn),
        to_fn=to,
        from_fn=from_,
        domain_a=domain_a,
        domain_b=domain_b,
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
        upd_to=UpdateRepr.POST,
        upd_from=UpdateRepr.POST,
        trace_to=TraceRepr.STATE,
        trace_from=TraceRepr.NONE,
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
    testified: dict[str, dict[Value, bool]] = {"to": {}, "from": {}}

    def partnered(direction: str, state: Value) -> bool:
        if direction == "to":
            _require(contains(domain_b, state), "trace outside target domain")
            return any(consistency(a, state) for a in enumerate_values(domain_a))
        _require(contains(domain_a, state), "trace outside source domain")
        return any(consistency(state, b) for b in enumerate_values(domain_b))

    def _testify(direction: str, state: Value) -> None:
        known = remember(testified[direction], state, partnered, direction, state)
        _require(known, "trace does not testify the consistency relation")

    def to(update: PostState, trace: StateTrace) -> tuple[Update, Traceability]:
        _testify("to", trace.state)
        repaired = to_fn(update.post, trace.state)
        return PostState(repaired), StateTrace(update.post)

    def from_(update: PostState, trace: StateTrace) -> tuple[Update, Traceability]:
        _testify("from", trace.state)
        repaired = from_fn(update.post, trace.state)
        return PostState(repaired), StateTrace(update.post)

    return Bx(
        name=name,
        upd_to=UpdateRepr.POST,
        upd_from=UpdateRepr.POST,
        trace_to=TraceRepr.STATE,
        trace_from=TraceRepr.STATE,
        consistency_kind="E",
        consistency=consistency,
        to_fn=to,
        from_fn=from_,
        domain_a=domain_a,
        domain_b=domain_b,
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

    def to(update: BothStates, trace: StateTrace) -> tuple[Update, Traceability]:
        _require(contains(domain_b, trace.state), "trace outside target domain")
        _require(
            consistency(update.pre, trace.state),
            "trace state does not match the update's pre-state",
        )
        repaired = to_fn((update.pre, update.post), trace.state)
        return BothStates(trace.state, repaired), StateTrace(update.post)

    def from_(update: BothStates, trace: StateTrace) -> tuple[Update, Traceability]:
        _require(contains(domain_a, trace.state), "trace outside source domain")
        _require(
            consistency(trace.state, update.pre),
            "trace state does not match the update's pre-state",
        )
        repaired = from_fn((update.pre, update.post), trace.state)
        return BothStates(trace.state, repaired), StateTrace(update.post)

    return Bx(
        name=name,
        upd_to=UpdateRepr.BOTH,
        upd_from=UpdateRepr.BOTH,
        trace_to=TraceRepr.STATE,
        trace_from=TraceRepr.STATE,
        consistency_kind="E",
        consistency=consistency,
        to_fn=to,
        from_fn=from_,
        domain_a=domain_a,
        domain_b=domain_b,
    )


# ---------------------------------------------------------------------------
# Complement-based frameworks (implicit consistency via replay)
# ---------------------------------------------------------------------------

def _replay(
    seeds: tuple[Triple, ...],
    successors: Callable[[Value, Value, Value], Iterable[Triple]],
) -> tuple[tuple[Triple, ...], Consistency]:
    """Close the seed triples ``(a, b, complement)`` under ``successors``; return
    them sorted by rendering, and the implicit relation: their ``(a, b)`` pairs."""
    from .grammar import render_value

    triples = set(seeds)
    worklist = list(seeds)
    while worklist:
        for triple in successors(*worklist.pop()):
            if triple not in triples:
                triples.add(triple)
                worklist.append(triple)
    replay = tuple(sorted(triples, key=lambda t: tuple(render_value(v) for v in t)))
    reachable_pairs = frozenset((a, b) for a, b, _ in replay)

    def consistency(a: Value, b: Value) -> bool:
        return (a, b) in reachable_pairs

    return replay, consistency


def _complement_check(complement_domain: DomainDescriptor) -> Callable[[Value], None]:
    """The membership check of a lens's complements in ``complement_domain``.

    Complements found inside are remembered, so each is checked once per
    lens; the memo holds at most the domain's values.
    """
    inside: dict[Value, None] = {}

    def require_inside(payload: Value) -> None:
        _require(contains(complement_domain, payload), "complement outside its domain")

    def check(payload: Value) -> None:
        remember(inside, payload, require_inside, payload)

    return check


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

    def successors(a: Value, b: Value, c: Value) -> Iterator[Triple]:
        for a1 in enumerate_values(domain_a):
            try:
                b1, c1 = to_fn(a1, c)
            except Undefined:
                continue
            yield a1, b1, c1
        for b1 in enumerate_values(domain_b):
            try:
                a1, c1 = from_fn(b1, c)
            except Undefined:
                continue
            yield a1, b1, c1

    replay, consistency = _replay(seeds, successors)
    check_complement = _complement_check(complement_domain)

    def to(update: PostState, trace: ComplementTrace) -> tuple[Update, Traceability]:
        check_complement(trace.payload)
        b1, c1 = to_fn(update.post, trace.payload)
        return PostState(b1), ComplementTrace(c1)

    def from_(update: PostState, trace: ComplementTrace) -> tuple[Update, Traceability]:
        check_complement(trace.payload)
        a1, c1 = from_fn(update.post, trace.payload)
        return PostState(a1), ComplementTrace(c1)

    return Bx(
        name=name,
        upd_to=UpdateRepr.POST,
        upd_from=UpdateRepr.POST,
        trace_to=TraceRepr.COMPLEMENT,
        trace_from=TraceRepr.COMPLEMENT,
        consistency_kind="I",
        consistency=consistency,
        to_fn=to,
        from_fn=from_,
        domain_a=domain_a,
        domain_b=domain_b,
        complement_domain=complement_domain,
        replay=replay,
    )


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

    def successors(a: Value, b: Value, c: Value) -> Iterator[Triple]:
        for op in enumerate_ops(a, domain_a):
            try:
                ops_b, c1 = translate_to((op,), c)
                a1 = apply_op(op, a)
                b1 = apply_ops(ops_b, b)
            except Undefined:
                continue
            yield a1, b1, c1
        for op in enumerate_ops(b, domain_b):
            try:
                ops_a, c1 = translate_from((op,), c)
                b1 = apply_op(op, b)
                a1 = apply_ops(ops_a, a)
            except Undefined:
                continue
            yield a1, b1, c1

    replay, consistency = _replay(seeds, successors)
    check_complement = _complement_check(complement_domain)

    def to(update: Edits, trace: ComplementTrace) -> tuple[Update, Traceability]:
        check_complement(trace.payload)
        ops_b, c1 = translate_to(update.ops, trace.payload)
        return Edits(ops_b), ComplementTrace(c1)

    def from_(update: Edits, trace: ComplementTrace) -> tuple[Update, Traceability]:
        check_complement(trace.payload)
        ops_a, c1 = translate_from(update.ops, trace.payload)
        return Edits(ops_a), ComplementTrace(c1)

    return Bx(
        name=name,
        upd_to=UpdateRepr.EDITS,
        upd_from=UpdateRepr.EDITS,
        trace_to=TraceRepr.COMPLEMENT,
        trace_from=TraceRepr.COMPLEMENT,
        consistency_kind="I",
        consistency=consistency,
        to_fn=to,
        from_fn=from_,
        domain_a=domain_a,
        domain_b=domain_b,
        complement_domain=complement_domain,
        replay=replay,
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

    def _validated(update: DeltaUpdate, trace: DeltaTrace, a: Value, b: Value) -> None:
        _require(trace.tgt == update.pre, "update pre-state differs from trace target")
        _require(consistency(a, b), "trace does not testify the consistency relation")

    def to(update: DeltaUpdate, trace: DeltaTrace) -> tuple[Update, Traceability]:
        # Forward input trace runs target-to-source (its src is the B value).
        _validated(update, trace, trace.tgt, trace.src)
        return to_fn(update, trace)

    def from_(update: DeltaUpdate, trace: DeltaTrace) -> tuple[Update, Traceability]:
        _validated(update, trace, trace.src, trace.tgt)
        return from_fn(update, trace)

    return Bx(
        name=name,
        upd_to=UpdateRepr.DELTA,
        upd_from=UpdateRepr.DELTA,
        trace_to=TraceRepr.DELTA,
        trace_from=TraceRepr.DELTA,
        consistency_kind="E",
        consistency=consistency,
        to_fn=to,
        from_fn=from_,
        domain_a=domain_a,
        domain_b=domain_b,
        align=align,
    )
