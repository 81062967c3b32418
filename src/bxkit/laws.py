"""Executable bidirectional laws, checked bounded-exhaustively.

Each checker takes a transformation, a direction, and a configuration,
enumerates every valid input over the declared finite domains (feeding
only traces that testify the consistency relation), and returns a
verdict.  Definedness is handled throughout with the conditioned
reading: a law's conclusion is only required to hold when the call it
mentions is defined, so an undefined call discharges the case instead
of failing it, and a law whose premise is never satisfied reports
vacuity rather than success.

Each call of ``run_suite``, ``audit_incidence`` or a lone ``check_*``
is one run: its checks share the consistent cases, input updates and
partner rows, built on first use and dropped with the call.

A law is a body ``(check, bx, direction)`` holding only its quantifier
loop: it calls the transformation, counts cases and fails through its
``_Check``.  ``_check_on``, behind ``CHECKERS`` and every ``check_*``,
applies ``_DEGENERATES``, then ``_inexpressible``, then runs the body.

Expressibility is decided from the representations alone, in
``_inexpressible`` and nowhere else.  A law that needs a null update,
an update inverse, or a reversed trace that the framework's own data
cannot represent is reported as not expressible, which reproduces the
classic per-framework folklore: mappings cannot state stability,
undoability, or hippocraticness; lenses can state them backward but not
forward; maintainers recover undoability and hippocraticness by
quantifying over consistent pairs while stability stays out of reach.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, NoReturn

from .values import (
    ENUMERATION_CAP,
    AtomInt,
    AtomStr,
    CapExceeded,
    Rec,
    Value,
    diff,  # not called here, but bench/tracing.py hooks this name
    enumerate_values,
)
from .scheme import (
    BothStates,
    ComplementTrace,
    DeltaTrace,
    Edits,
    NO_TRACE,
    PostState,
    ReprMismatch,
    SchemeError,
    StateNotRepresented,
    StateTrace,
    Traceability,
    TraceRepr,
    Update,
    UPDATE_CONSTRUCTORS,
    UpdateRepr,
    apply_ops,
    check_incidence,
    compose_updates,
    default_preorder,
    enumerate_op_sequences,
    invert_trace,
    invert_update,
    rho_of,
    LESS_OR_EQUAL,
)
from .frameworks import Bx, Undefined
from .grammar import render_trace, render_update, render_value
from .verdict import Counterexample, Fails, Holds, NotExpressible, Vacuous, Verdict, WeaklyHolds

STABILITY = "stability"
INVERTIBILITY = "invertibility"
UNDOABILITY = "undoability"
HISTORY_IGNORANCE = "history_ignorance"
CORRECTNESS = "correctness"
HIPPOCRATICNESS = "hippocraticness"
LEAST_UPDATE = "least_update"
TOTALITY = "totality"
SAFETY = "safety"
CONVERGENCE = "convergence"
HIPPOCRATICNESS_LITERAL = "hippocraticness_literal"

ALL_LAWS = (
    STABILITY,
    INVERTIBILITY,
    UNDOABILITY,
    HISTORY_IGNORANCE,
    CORRECTNESS,
    HIPPOCRATICNESS,
    LEAST_UPDATE,
    TOTALITY,
    SAFETY,
    CONVERGENCE,
)

DIRECTIONS = ("to", "from")


def _log(message: str, *args) -> None:
    """Log at DEBUG on the ``bxkit.laws`` logger.  A program that has not
    imported ``logging`` has configured no handler, so nothing would be
    shown; importing it here would add about half a MiB to the peak memory
    of every process that checks a law."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("bxkit.laws").debug(message, *args)


def canonical_law(name: str) -> str:
    law = name.strip().lower().replace("-", "_")
    if law not in ALL_LAWS and law != HIPPOCRATICNESS_LITERAL:
        raise ValueError(f"unknown law {name!r}")
    return law


@dataclass
class LawSuiteConfig:
    """Knobs for a suite run; defaults keep everything desk-scale."""

    laws: tuple[str, ...] = ALL_LAWS
    edit_ops_per_update: int = 1
    max_convergence_rounds: int = 2
    weak_variants: bool = True
    normalizer: Callable[[Value], Value] | None = None
    value_cap: int = ENUMERATION_CAP

    def __post_init__(self):
        self.laws = tuple(canonical_law(l) for l in self.laws)
        if not self.laws:
            raise ValueError("the law suite selects no law")
        if HIPPOCRATICNESS_LITERAL in self.laws:
            raise ValueError(f"{HIPPOCRATICNESS_LITERAL!r} is reported only beside hippocraticness")
        if self.edit_ops_per_update < 0 or self.max_convergence_rounds < 1 or self.value_cap < 1:
            raise ValueError("nonsensical law suite configuration")


def _other(direction: str) -> str:
    return "from" if direction == "to" else "to"


# ---------------------------------------------------------------------------
# Input enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Case:
    """One consistent anchor: a testifying pair plus optional complement.

    Directions whose input trace carries nothing are checked case-free,
    with all anchor fields absent.
    """

    a: Value | None
    b: Value | None
    c: Value | None

    def end(self, side: str) -> Value | None:
        return self.a if side == "to" else self.b

    def with_end(self, side: str, value: Value | None) -> Case:
        """The anchor with its ``side`` end moved to ``value``."""
        return Case(value, self.b, self.c) if side == "to" else Case(self.a, value, self.c)


FREE_CASE = Case(None, None, None)


def consistent_cases(bx: Bx, direction: str, cap: int = ENUMERATION_CAP) -> tuple[Case, ...]:
    if bx.input_trace_repr(direction) is TraceRepr.NONE:
        return (FREE_CASE,)
    if bx.consistency_kind == "I":
        return tuple(Case(a, b, c) for a, b, c in bx.replay)
    return tuple(
        Case(a, b, None) for a in enumerate_values(bx.domain_a, cap) for b in _row(bx, "to", a, cap)
    )


def _row(bx: Bx, direction: str, state: Value, cap: int) -> dict[Value, None]:
    """The output-side values consistent with ``state``, in enumeration order."""
    opposite = enumerate_values(bx.output_domain(direction), cap)
    return {x: None for x in opposite if bx.consistency(*_orient(direction, state, x))}


def _realize_arrow(bx: Bx, arrow: str, case: Case) -> Traceability | None:
    """Build the trace instance for one arrow of a testifying pair.

    The forward arrow runs source to target (stored state is the A side),
    the backward arrow the reverse.
    """
    repr = bx.trace_to if arrow == "to" else bx.trace_from
    if repr is TraceRepr.NONE:
        return NO_TRACE
    if case.a is None or case.b is None:
        if repr is TraceRepr.COMPLEMENT and case.c is not None:
            return ComplementTrace(case.c)
        return None
    if repr is TraceRepr.STATE:
        return StateTrace(case.a if arrow == "to" else case.b)
    if repr is TraceRepr.COMPLEMENT:
        return ComplementTrace(case.c) if case.c is not None else None
    rel = bx.default_align(case.a, case.b)
    if arrow == "to":
        return DeltaTrace(case.a, case.b, rel)
    return DeltaTrace(case.b, case.a, rel.invert())


def _input_trace(bx: Bx, direction: str, case: Case) -> Traceability | None:
    return _realize_arrow(bx, _other(direction), case)


def _reverse_trace(
    bx: Bx,
    direction: str,
    trace: Traceability,
    post_out: Value | None,
) -> Traceability | None:
    """Reverse the trace produced by a call in ``direction`` into the
    representation of the opposite arrow.

    A stored-state trace of the opposite arrow stores that arrow's
    source, which is the output-side post-state of the call; complements
    are their own reversal.
    """
    repr = bx.input_trace_repr(direction)
    if repr is TraceRepr.NONE:
        return NO_TRACE
    if repr is TraceRepr.STATE:
        return StateTrace(post_out) if post_out is not None else None
    if repr is TraceRepr.COMPLEMENT:
        return trace if isinstance(trace, ComplementTrace) else None
    if isinstance(trace, DeltaTrace):
        return invert_trace(trace)
    return None


class _Run:
    """One call's transformation and configuration, and the memos its checks share."""

    def __init__(self, bx: Bx, config: LawSuiteConfig | None):
        self.bx = bx
        self.config = config or LawSuiteConfig()
        self._cases: dict[str, tuple[Case, ...]] = {}
        self._updates: dict[tuple[str, Value | None], tuple[Update, ...]] = {}
        self._rows: dict[tuple[str, Value], dict[Value, None]] = {}

    def cases(self, direction: str) -> tuple[Case, ...]:
        if direction not in self._cases:
            self._cases[direction] = consistent_cases(self.bx, direction, self.config.value_cap)
        return self._cases[direction]

    def updates(self, direction: str, pre: Value | None) -> tuple[Update, ...]:
        # Only the op-sequence searches are kept per pre-state, and post-state
        # updates once per direction; both-states and delta updates cost no
        # more to build than the loop that reads them, so they are not kept.
        repr = self.bx.input_update_repr(direction)
        if repr in (UpdateRepr.BOTH, UpdateRepr.DELTA):
            return self._enumerate(repr, self.bx.input_domain(direction), pre)
        key = (direction, None if repr is UpdateRepr.POST else pre)
        if key not in self._updates:
            self._updates[key] = self._enumerate(repr, self.bx.input_domain(direction), pre)
        return self._updates[key]

    def _enumerate(self, repr: UpdateRepr, domain, pre: Value | None) -> tuple[Update, ...]:
        """Every update from ``pre`` that ends in ``domain``, or that applies
        at most ``edit_ops_per_update`` edits; none for opaque updates."""
        values = enumerate_values(domain, self.config.value_cap)
        constructor = UPDATE_CONSTRUCTORS.get(repr)
        if constructor is None or (pre is None and (constructor.edits or constructor.carries_pre)):
            return ()
        if constructor.edits:
            values = enumerate_op_sequences(pre, domain, self.config.edit_ops_per_update)
        return tuple(constructor.build(pre, step) for step in values)

    def partners(self, direction: str, state: Value) -> dict[Value, None]:
        """The partner row of the input-side ``state``, scanned once per run."""
        key = (direction, state)
        if key not in self._rows:
            self._rows[key] = _row(self.bx, direction, state, self.config.value_cap)
        return self._rows[key]


def _post(update: Update, base: Value | None) -> Value | None:
    try:
        return rho_of(update)
    except StateNotRepresented:
        if isinstance(update, Edits) and base is not None:
            try:
                return apply_ops(update.ops, base)
            except SchemeError:
                return None
        return None


def _null(repr: UpdateRepr, value: Value | None) -> Update | None:
    """The update from ``value`` to ``value``, or the empty edit sequence;
    ``None`` for opaque updates and where an unknown ``value`` is needed."""
    constructor = UPDATE_CONSTRUCTORS.get(repr)
    if constructor is None or (value is None and (constructor.carries_pre or not constructor.edits)):
        return None
    return constructor.null(value)


def _undo(repr: UpdateRepr, update: Update, pre: Value | None) -> Update | None:
    """The update that reverts ``update``; a post-state-only update
    reverts by naming the pre-state again."""
    if repr is UpdateRepr.POST:
        return PostState(pre) if pre is not None else None
    return invert_update(update)


def _orient(direction: str, post_in: Value | None, post_out: Value | None) -> tuple[Value | None, Value | None]:
    """Order the input-side and output-side states of a call as an (A, B) pair."""
    if direction == "from":
        return post_out, post_in
    return post_in, post_out


def _shown(render: Callable[[Any], str], item: Any) -> str:
    """``item`` in the textual grammar, or its ``repr`` where the grammar
    refuses it: a result the user's code built of something other than
    values still makes a printable counterexample."""
    try:
        return render(item)
    except (TypeError, ValueError):
        return repr(item)


def _render_result(result: tuple[Update, Traceability]) -> str:
    return f"{_shown(render_update, result[0])} | {_shown(render_trace, result[1])}"


def _match_updates(
    expected: Update,
    actual: Update,
    config: LawSuiteConfig,
    base_pre: Value | None,
) -> str:
    """Returns "strict", "weak", or "no"."""
    if expected == actual:
        return "strict"
    if not config.weak_variants:
        return "no"
    pe = _post(expected, base_pre)
    pa = _post(actual, base_pre)
    if pe is None or pa is None:
        return "no"
    if config.normalizer is not None:
        pe = config.normalizer(pe)
        pa = config.normalizer(pa)
    return "weak" if pe == pa else "no"


class _Stop(Exception):
    """Ends a law body at its first counterexample, the ``Fails`` in ``args[0]``."""


class _Check:
    """One law checked in one direction of a run: the body's only way into
    the transformation, its case count, and its first failure."""

    def __init__(self, run: _Run, law: str, direction: str, vacuous_reason: str):
        self.run = run
        self.law = law
        self.direction = direction
        self.vacuous_reason = vacuous_reason
        self.checked = 0
        self.weak_variant = ""

    def anchored_cases(self):
        """Yield ``(case, input trace, input base, output base)`` for every
        consistent anchor whose input trace is realizable."""
        bx, direction = self.run.bx, self.direction
        for case in self.run.cases(direction):
            trace_in = _input_trace(bx, direction, case)
            if trace_in is not None:
                yield case, trace_in, case.end(direction), case.end(_other(direction))

    def anchored_inputs(self, round_trip: bool = False):
        """Yield ``(case, input trace, update, input base, output base,
        reverse trace)`` for every enumerated update on every anchor.

        Round-trip laws feed results back through the opposite direction;
        for them the reverse trace is that direction's input trace on the
        same anchor, built once per anchor, and anchors where it is not
        realizable are skipped.  Otherwise it is ``None``.
        """
        for case, trace_in, in_base, out_base in self.anchored_cases():
            trace_back = None
            if round_trip:
                trace_back = _input_trace(self.run.bx, _other(self.direction), case)
                if trace_back is None:
                    continue
            for update in self.run.updates(self.direction, in_base):
                yield case, trace_in, update, in_base, out_base, trace_back

    def call(self, direction: str, update: Update, trace: Traceability):
        """The checkers' only call into the transformation; ``None`` when
        undefined.  Another exception of the user's code is a counterexample,
        as in QuickCheck.  A blown enumeration cap ends the run, and so does
        a call whose input or result is not of the declared representations,
        which ``Bx.apply`` reports: that is a fault of the transformation's
        declaration, not a counterexample to the law."""
        try:
            return self.run.bx.apply(direction, update, trace)
        except Undefined:
            return None
        except (CapExceeded, ReprMismatch):
            raise
        except Exception as exc:
            self.fail(
                update, trace,
                observed=f"raised {exc!r}",
                expected="a result, or Undefined",
                direction=direction,
            )

    def weakly(self, variant: str) -> None:
        self.checked += 1
        self.weak_variant = variant

    def fail(
        self,
        update: Update,
        trace: Traceability,
        observed: str,
        expected: str,
        detail: str = "",
        direction: str | None = None,
    ) -> NoReturn:
        """Stop the check with the call ``(update, trace)`` as its
        counterexample; ``direction`` defaults to the check's own."""
        counterexample = Counterexample(
            law=self.law,
            direction=direction or self.direction,
            bx_name=self.run.bx.name,
            update=_shown(render_update, update),
            trace=_shown(render_trace, trace),
            observed=observed,
            expected=expected,
            detail=detail,
        )
        raise _Stop(Fails(counterexample))

    def compare(
        self,
        update: Update,
        trace: Traceability,
        result: tuple[Update, Traceability],
        expected_update: Update,
        expected_trace: Traceability | None,
        base_pre: Value | None,
        detail: str = "",
        direction: str | None = None,
    ) -> None:
        """Compare the result of the call ``(update, trace)`` against the
        law's stated result: a match is counted, a mismatch fails."""
        u_out, t_out = result
        match = _match_updates(expected_update, u_out, self.run.config, base_pre)
        if match == "no" or (expected_trace is not None and t_out != expected_trace):
            expected_text = _shown(render_update, expected_update)
            if expected_trace is not None:
                expected_text += f" | {_shown(render_trace, expected_trace)}"
            self.fail(
                update, trace,
                observed=_render_result(result),
                expected=expected_text,
                detail=detail,
                direction=direction,
            )
        if match == "weak":
            self.weakly("post-state equality")
        else:
            self.checked += 1

    def verdict(self) -> Verdict:
        if self.checked == 0:
            return Vacuous(self.vacuous_reason)
        if self.weak_variant:
            return WeaklyHolds(self.weak_variant, self.checked)
        return Holds(self.checked)


def _inexpressible(bx: Bx, law: str, direction: str) -> str | None:
    """Why ``law`` cannot be stated in ``direction`` with the framework's
    own representations, or ``None`` when it can.  The rules are tried in
    order; the first that applies gives the reason."""
    repr_in = bx.input_update_repr(direction)
    trace_in = bx.input_trace_repr(direction)
    trace_out = bx.input_trace_repr(_other(direction))
    carrying = (TraceRepr.STATE, TraceRepr.DELTA)
    # The pre-state of the input update is recoverable from the framework's
    # own data when the input trace carries both endpoints, or when the
    # consistency relation is the forward transformation and the trace
    # stores the opposite source.
    pre_recoverable = trace_in is TraceRepr.DELTA or (
        direction == "from" and trace_in is TraceRepr.STATE and bx.consistency_kind == "T"
    )
    if repr_in is UpdateRepr.OPAQUE and law not in (TOTALITY, SAFETY):
        return "function-valued updates are excluded from law checking"
    if law == STABILITY and repr_in is UpdateRepr.POST and not pre_recoverable:
        return "a null update cannot be identified: no pre-state is recoverable"
    if law in (INVERTIBILITY, CONVERGENCE) and trace_in is TraceRepr.NONE and trace_out in carrying:
        return "the reversed trace is not representable for the opposite direction"
    if law == UNDOABILITY and repr_in is UpdateRepr.POST and trace_in not in carrying:
        return "update inversion is not representable without a state-carrying trace"
    if law in (HIPPOCRATICNESS, HIPPOCRATICNESS_LITERAL):
        if bx.consistency_kind == "I" and repr_in is not UpdateRepr.EDITS:
            return "a consistency-preserving update cannot be recognized under an implicit relation"
        if trace_in is TraceRepr.NONE:
            return "no testifying pair is available to anchor the null update"
    if law == LEAST_UPDATE and bx.output_update_repr(direction) is UpdateRepr.OPAQUE:
        return "no preorder is available for function-valued updates"
    return None


# When the consistency relation is the forward transformation (kind "T"),
# these laws are the laws they reduce to: law -> (law whose body runs,
# law named in its counterexamples).
_DEGENERATES = {
    CORRECTNESS: (INVERTIBILITY, CORRECTNESS),
    HIPPOCRATICNESS: (STABILITY, HIPPOCRATICNESS),
    HIPPOCRATICNESS_LITERAL: (STABILITY, HIPPOCRATICNESS),
}


# ---------------------------------------------------------------------------
# The laws
# ---------------------------------------------------------------------------

def _check_on(run: _Run, direction: str, law: str) -> Verdict:
    """Check ``law`` in ``direction`` on ``run``: reduce a degenerate law,
    decide expressibility and whether any anchor exists, then run the body
    and build the verdict."""
    _log("%s: %s/%s started", run.bx.name, law, direction)
    started = time.perf_counter()
    named = label = law
    if run.bx.consistency_kind == "T" and law in _DEGENERATES:
        law, label = _DEGENERATES[law]
    reason = _inexpressible(run.bx, law, direction)
    if reason is not None:
        verdict = NotExpressible(reason)
    elif not run.cases(direction):
        verdict = Vacuous("no consistent pair exists on the declared domains")
    else:
        body, vacuous_reason = _BODIES[law]
        check = _Check(run, label, direction, vacuous_reason)
        try:
            body(check, run.bx, direction)
            verdict = check.verdict()
        except _Stop as stop:
            verdict = stop.args[0]
    elapsed = time.perf_counter() - started
    _log("%s: %s/%s %s in %.3f s", run.bx.name, named, direction, verdict.kind, elapsed)
    return verdict


# Each law's body and the reason it is vacuous, registered below.
_BODIES: dict[str, tuple[Callable[[_Check, Bx, str], None], str]] = {}
# ``run_suite`` dispatches each law of the suite through its entry here.
CHECKERS: dict[str, Callable[[_Run, str], Verdict]] = {
    law: functools.partial(_check_on, law=law) for law in ALL_LAWS
}


def _law(law: str, vacuous_reason: str):
    """Register a body as the one of ``law`` and return its public form,
    which makes a run per call.  ``vacuous_reason`` is reported when no
    case is checked."""

    def register(body: Callable[[_Check, Bx, str], None]):
        _BODIES[law] = body, vacuous_reason

        def check(bx: Bx, direction: str, config: LawSuiteConfig | None = None) -> Verdict:
            return _check_on(_Run(bx, config), direction, law)

        check.__name__ = check.__qualname__ = body.__name__
        check.__doc__ = body.__doc__
        return check

    return register


@_law(STABILITY, "the transformation is undefined on every null input")
def check_stability(check: _Check, bx: Bx, direction: str) -> None:
    """Null updates must translate to null updates, leaving the trace reversed."""
    repr_in = bx.input_update_repr(direction)
    for case, trace_in, in_base, out_base in check.anchored_cases():
        u_id = _null(repr_in, in_base)
        if u_id is None:
            continue
        result = check.call(direction, u_id, trace_in)
        if result is None:
            continue
        expected_u = _null(bx.output_update_repr(direction), out_base)
        if expected_u is None:
            continue
        expected_t = _realize_arrow(bx, direction, case)
        check.compare(
            u_id, trace_in, result, expected_u, expected_t, out_base,
            detail="null update was not preserved",
        )


@_law(INVERTIBILITY, "no premise call is defined")
def check_invertibility(check: _Check, bx: Bx, direction: str) -> None:
    """A translated update round-trips through the opposite transformation."""
    back = _other(direction)
    for _, trace_in, u_in, in_base, out_base, trace_back in check.anchored_inputs(round_trip=True):
        premise = check.call(direction, u_in, trace_in)
        if premise is None:
            continue
        u_mid, t_mid = premise
        conclusion = check.call(back, u_mid, trace_back)
        if conclusion is None:
            continue  # conclusion undefined: discharged
        expected_t = _reverse_trace(bx, direction, t_mid, _post(u_mid, out_base))
        check.compare(
            u_mid, trace_back, conclusion, u_in, expected_t, in_base,
            detail="round trip did not restore the translated update",
            direction=back,
        )


@_law(UNDOABILITY, "no premise call is defined")
def check_undoability(check: _Check, bx: Bx, direction: str) -> None:
    """Re-applying the transformation with the inverted update undoes it."""
    repr_in = bx.input_update_repr(direction)
    repr_out = bx.output_update_repr(direction)
    for case, trace_in, u_in, in_base, out_base, _ in check.anchored_inputs():
        premise = check.call(direction, u_in, trace_in)
        if premise is None:
            continue
        u_mid, t_mid = premise
        u_inv = _undo(repr_in, u_in, in_base)
        if u_inv is None:
            continue
        trace_undo = _reverse_trace(bx, direction, t_mid, _post(u_mid, out_base))
        if trace_undo is None:
            continue
        undo = check.call(direction, u_inv, trace_undo)
        if undo is None:
            continue
        expected_u = _undo(repr_out, u_mid, out_base)
        if expected_u is None:
            continue
        expected_t = _realize_arrow(bx, direction, case)
        check.compare(
            u_inv, trace_undo, undo, expected_u, expected_t, out_base,
            detail="inverse update did not restore the original state",
        )


@_law(HISTORY_IGNORANCE, "no chained premise is defined")
def check_history_ignorance(check: _Check, bx: Bx, direction: str) -> None:
    """Translating a composite equals composing the two translations."""
    # The second calls after a first update depend only on where it left the
    # input side, which fixes their updates, and on the trace it returned.
    # Many first updates share that pair, so the second results are grouped
    # by it, aligned with the updates, and each group is filled inline the
    # first time it is met: the calls keep the order of a plain triple loop.
    # A counterexample ends the check, so a partly filled group is never
    # read.  ``canon`` keeps one copy of each distinct result.  A pair or a
    # result that cannot be hashed leaves its first update to plain calls.
    groups: dict[tuple[Value | None, Traceability], list] = {}
    canon: dict = {}
    for _, trace_in, u1, in_base, out_base, _ in check.anchored_inputs():
        first = check.call(direction, u1, trace_in)
        if first is None:
            continue
        out1, s1 = first
        trace2 = _reverse_trace(bx, direction, s1, _post(out1, out_base))
        if trace2 is None:
            continue
        moved = _post(u1, in_base)
        try:
            known = groups.setdefault((moved, trace2), [])
        except TypeError:
            known = None
        for i, u2 in enumerate(check.run.updates(direction, moved)):
            if known is not None and i < len(known):
                second = known[i]
            else:
                second = check.call(direction, u2, trace2)
                if known is not None:
                    try:
                        known.append(canon.setdefault(second, second))
                    except TypeError:
                        del groups[moved, trace2]
                        known = None
            if second is None:
                continue
            out2, s2 = second
            try:
                u12 = compose_updates(u2, u1)
                expected_u = compose_updates(out2, out1)
            except SchemeError:
                continue
            combined = check.call(direction, u12, trace_in)
            if combined is None:
                continue
            check.compare(
                u12, trace_in, combined, expected_u, s2, out_base,
                detail="translating the composite differs from composing the translations",
            )


@_law(CORRECTNESS, "the transformation is undefined everywhere")
def check_correctness(check: _Check, bx: Bx, direction: str) -> None:
    """Every defined result restores the consistency relation.

    When the consistency relation is the forward transformation itself,
    correctness degenerates into invertibility and is checked as such.
    """
    for _, trace_in, u_in, in_base, out_base, _ in check.anchored_inputs():
        result = check.call(direction, u_in, trace_in)
        if result is None:
            continue
        post_in = _post(u_in, in_base)
        post_out = _post(result[0], out_base)
        if post_in is None or post_out is None:
            continue
        pa, pb = _orient(direction, post_in, post_out)
        if bx.consistency(pa, pb):
            check.checked += 1
        elif check.run.config.weak_variants and not check.run.partners(direction, post_in):
            check.weakly("inconsistent result allowed: no consistent counterpart exists")
        else:
            check.fail(
                u_in, trace_in,
                observed=_render_result(result),
                expected="an output consistent with the input's post-state",
                detail=f"pair ({_shown(render_value, pa)}, {_shown(render_value, pb)}) is not consistent",
            )


def check_hippocraticness(
    bx: Bx,
    direction: str,
    config: LawSuiteConfig | None = None,
    literal: bool = False,
) -> Verdict:
    """An update that keeps the pair consistent must be ignored.

    With a transformation-valued consistency relation this degenerates
    into stability.  For edit-based implicit-consistency frameworks the
    premise is strengthened to "the edits applied to the testified state
    stay consistent"; pass ``literal=True`` for the unconstrained
    reading, reported separately.
    """
    law = HIPPOCRATICNESS_LITERAL if literal else HIPPOCRATICNESS
    return _check_on(_Run(bx, config), direction, law)


def _hippocraticness(check: _Check, bx: Bx, direction: str, literal: bool = False) -> None:
    for case, trace_in, u_in, in_base, out_base, _ in check.anchored_inputs():
        post_in = _post(u_in, in_base)
        if post_in is None:
            continue
        if not literal and not bx.consistency(*_orient(direction, post_in, out_base)):
            continue
        result = check.call(direction, u_in, trace_in)
        if result is None:
            continue
        expected_u = _null(bx.output_update_repr(direction), out_base)
        if expected_u is None:
            continue
        # An ignored update moves the anchor's input end to its
        # post-state; the output trace must testify the moved anchor.
        expected_t = _realize_arrow(bx, direction, case.with_end(direction, post_in))
        check.compare(
            u_in, trace_in, result, expected_u, expected_t, out_base,
            detail="a consistency-preserving update was not ignored",
        )


# The literal reading is a body of its own name but no ``CHECKERS`` key:
# ``run_suite`` reports it beside hippocraticness where it differs.
_literal = functools.partial(_hippocraticness, literal=True)
for _name, _body in ((HIPPOCRATICNESS, _hippocraticness), (HIPPOCRATICNESS_LITERAL, _literal)):
    _BODIES[_name] = _body, "no consistency-preserving update is defined"


@_law(LEAST_UPDATE, "the transformation is undefined everywhere")
def check_least_update(check: _Check, bx: Bx, direction: str) -> None:
    """The returned update is minimal among all consistency-restoring ones."""
    repr_out = bx.output_update_repr(direction)
    anchored_order = default_preorder(UpdateRepr.BOTH)
    plain_order = bx.preorder or default_preorder(repr_out)

    def smaller_or_equal(u_result: Update, u_alt: Update, out_base: Value | None) -> bool:
        # Post-state-only updates are compared as "fewest changed
        # components" by anchoring them at the testified pre-state,
        # unless the transformation attached its own preorder.
        if bx.preorder is None and repr_out is UpdateRepr.POST and out_base is not None:
            lifted_result = BothStates(out_base, _post(u_result, out_base))
            lifted_alt = BothStates(out_base, _post(u_alt, out_base))
            return anchored_order.compare(lifted_result, lifted_alt) == LESS_OR_EQUAL
        return plain_order.compare(u_result, u_alt) == LESS_OR_EQUAL

    for _, trace_in, u_in, in_base, out_base, _ in check.anchored_inputs():
        result = check.call(direction, u_in, trace_in)
        if result is None:
            continue
        post_in = _post(u_in, in_base)
        if post_in is None:
            continue
        # The alternatives are the opposite direction's input updates, over the row's domain.
        partners = check.run.partners(direction, post_in)
        for alt in check.run.updates(_other(direction), out_base):
            if _post(alt, out_base) in partners and not smaller_or_equal(result[0], alt, out_base):
                check.fail(
                    u_in, trace_in,
                    observed=_render_result(result),
                    expected=f"an update no larger than {render_update(alt)}",
                    detail="a strictly smaller consistency-restoring update exists",
                )
        check.checked += 1


@_law(TOTALITY, "no inputs to enumerate")
def check_totality(check: _Check, bx: Bx, direction: str) -> None:
    """Defined on every enumerated update paired with a testifying trace."""
    for _, trace_in, u_in, _, _, _ in check.anchored_inputs():
        if check.call(direction, u_in, trace_in) is None:
            check.fail(u_in, trace_in, observed="undefined", expected="a defined result")
        check.checked += 1


@_law(SAFETY, "no inputs to enumerate")
def check_safety(check: _Check, bx: Bx, direction: str) -> None:
    """Defined at least on inputs whose post-state has a consistent counterpart."""
    for _, trace_in, u_in, in_base, _, _ in check.anchored_inputs():
        post_in = _post(u_in, in_base)
        if post_in is None:
            continue
        if check.run.partners(direction, post_in) and check.call(direction, u_in, trace_in) is None:
            check.fail(
                u_in, trace_in,
                observed="undefined",
                expected="defined: the post-state has a consistent counterpart",
            )
        check.checked += 1


@_law(CONVERGENCE, "no premise call is defined")
def check_convergence(check: _Check, bx: Bx, direction: str) -> None:
    """Round-tripping reaches a fixed point on post-states within two passes."""
    back = _other(direction)
    rounds = check.run.config.max_convergence_rounds
    for _, trace_fwd, u_in, _, out_base, trace_back in check.anchored_inputs(round_trip=True):
        first = check.call(direction, u_in, trace_fwd)
        if first is None:
            continue
        current = first[0]
        previous_post = _post(current, out_base)
        if previous_post is None:
            continue
        for _ in range(rounds):
            bounce = check.call(back, current, trace_back)
            if bounce is None:
                break  # a round trip is undefined: discharged
            again = check.call(direction, bounce[0], trace_fwd)
            if again is None:
                break
            current = again[0]
            next_post = _post(current, out_base)
            if next_post == previous_post:
                check.checked += 1
                break
            previous_post = next_post
        else:
            check.fail(
                u_in, trace_fwd,
                observed=_render_result(first),
                expected=f"a round-trip fixed point within {rounds} iterations",
                detail=f"still changing at {_shown(render_value, previous_post)}",
            )


# ---------------------------------------------------------------------------
# Suite driver and report
# ---------------------------------------------------------------------------

@dataclass
class LawReport:
    """Per-law, per-direction verdicts plus entailment-check results."""

    bx_name: str
    verdicts: dict[tuple[str, str], Verdict]
    meta_errors: tuple[str, ...] = ()

    def verdict(self, law: str, direction: str) -> Verdict:
        return self.verdicts[(canonical_law(law), direction)]

    def kind(self, law: str, direction: str) -> str:
        return self.verdict(law, direction).kind

    def failures(self, laws: tuple[str, ...] | None = None) -> list[Counterexample]:
        selected = tuple(canonical_law(l) for l in laws) if laws else None
        out = []
        for (law, _direction), verdict in self.verdicts.items():
            if selected is not None and law not in selected:
                continue
            if isinstance(verdict, Fails):
                out.append(verdict.counterexample)
        return out

    def to_value(self) -> Value:
        def verdict_value(v: Verdict) -> Value:
            fields: dict[str, Value] = {"kind": AtomStr(v.kind)}
            if isinstance(v, Holds):
                fields["cases"] = AtomInt(v.cases_checked)
            elif isinstance(v, WeaklyHolds):
                fields["cases"] = AtomInt(v.cases_checked)
                fields["variant"] = AtomStr(v.variant)
            elif isinstance(v, (NotExpressible, Vacuous)):
                fields["reason"] = AtomStr(v.reason)
            elif isinstance(v, Fails):
                c = v.counterexample
                fields["counterexample"] = Rec(
                    {
                        "law": AtomStr(c.law),
                        "direction": AtomStr(c.direction),
                        "update": AtomStr(c.update),
                        "trace": AtomStr(c.trace),
                        "observed": AtomStr(c.observed),
                        "expected": AtomStr(c.expected),
                    }
                )
            return Rec(fields)

        laws_present = sorted({law for law, _ in self.verdicts})
        body: dict[str, Value] = {}
        for law in laws_present:
            entry: dict[str, Value] = {}
            for direction in DIRECTIONS:
                if (law, direction) in self.verdicts:
                    entry[direction] = verdict_value(self.verdicts[(law, direction)])
            body[law] = Rec(entry)
        return Rec(
            {
                "bx": AtomStr(self.bx_name),
                "verdicts": Rec(body),
                "meta_errors": AtomStr("; ".join(self.meta_errors)),
            }
        )


def run_suite(bx: Bx, config: LawSuiteConfig | None = None) -> LawReport:
    """Evaluate every selected law in both directions, then the entailment
    theorems; identical configurations always produce identical reports."""
    run = _Run(bx, config)
    verdicts: dict[tuple[str, str], Verdict] = {}
    for law in run.config.laws:
        checker = CHECKERS[law]
        for direction in DIRECTIONS:
            verdicts[(law, direction)] = checker(run, direction)
    if (
        HIPPOCRATICNESS in run.config.laws
        and bx.consistency_kind == "I"
        and UpdateRepr.EDITS in (bx.upd_to, bx.upd_from)
    ):
        for direction in DIRECTIONS:
            verdicts[(HIPPOCRATICNESS_LITERAL, direction)] = _check_on(
                run, direction, HIPPOCRATICNESS_LITERAL
            )
    meta = tuple(_meta_checks(bx, verdicts))
    return LawReport(bx.name, verdicts, meta)


def _meta_checks(bx: Bx, verdicts: dict[tuple[str, str], Verdict]) -> list[str]:
    errors: list[str] = []

    def kind(law: str, direction: str) -> str | None:
        v = verdicts.get((law, direction))
        return v.kind if v is not None else None

    for direction in DIRECTIONS:
        # The entailment is a theorem about total transformations: a partial
        # one can keep stability and history ignorance and still fail
        # undoability, so it is checked only where totality holds.
        undo = kind(UNDOABILITY, direction)
        if undo not in (None, Verdict.HOLDS) and all(
            kind(law, direction) == Verdict.HOLDS for law in (TOTALITY, STABILITY, HISTORY_IGNORANCE)
        ):
            errors.append(
                f"{bx.name}/{direction}: totality, stability and history-ignorance hold "
                f"but undoability is {undo}"
            )
        least = kind(LEAST_UPDATE, direction)
        hip = kind(HIPPOCRATICNESS, direction)
        if least == Verdict.HOLDS and hip == Verdict.FAILS:
            errors.append(
                f"{bx.name}/{direction}: least-update holds but hippocraticness fails"
            )
    return errors


def audit_incidence(bx: Bx, config: LawSuiteConfig | None = None) -> Verdict:
    """Run every enumerated defined call and check endpoint agreement."""
    # One check spans both directions, so it counts every audited call.
    check = _Check(_Run(bx, config), "incidence", "to", "no defined invocation to audit")
    try:
        for direction in DIRECTIONS:
            check.direction = direction
            for _, trace_in, u_in, _, _, _ in check.anchored_inputs():
                result = check.call(direction, u_in, trace_in)
                if result is None:
                    continue
                verdict = check_incidence(u_in, trace_in, result[0], result[1], direction)
                if isinstance(verdict, Fails):
                    return Fails(dataclasses.replace(verdict.counterexample, bx_name=bx.name))
                check.checked += 1
    except _Stop as stop:
        return stop.args[0]
    return check.verdict()
