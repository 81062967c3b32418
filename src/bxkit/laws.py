"""Executable bidirectional laws, checked bounded-exhaustively.

Each checker takes a transformation, a direction, and a configuration,
enumerates every valid input over the declared finite domains (feeding
only traces that testify the consistency relation), and returns a
verdict.  Definedness is handled throughout with the conditioned
reading: a law's conclusion is only required to hold when the call it
mentions is defined, so an undefined call discharges the case instead
of failing it, and a law whose premise is never satisfied reports
vacuity rather than success.

Every memo here is filled through ``values.remember``.  Each call of
``run_suite``, ``audit_incidence`` or a lone ``check_*`` is one run: its
checks share the consistent cases, input updates and partner rows.  History
ignorance keeps its second results per check, keyed by the moved input
state and the reversed trace, and, for state-based updates, its combined
results per anchor, keyed by the composite update.  Least update keeps, per
check, the sized consistency-restoring alternatives of each (output base,
input post-state) pair; state-based ones are built from the partner row.

A law is a body ``(check, bx, arrow)`` holding only its quantifier loop
over ``arrow``, the record in ``bx.arrows`` of the direction checked: it
calls the transformation, counts cases and fails through its ``_Check``.
``_check_on``, behind ``CHECKERS`` and every ``check_*``, looks the arrow
up by its name, applies ``_DEGENERATES``, then ``_inexpressible``, then
runs the body.

Expressibility is decided in ``_inexpressible`` alone, from what the
representations' classes can do.  A law that needs a null update, an
update inverse, or a reversed trace that the framework's own data cannot
represent is reported as not expressible, which reproduces the classic
per-framework folklore: mappings cannot state stability, undoability, or
hippocraticness; lenses can state them backward but not forward;
maintainers recover undoability and hippocraticness by quantifying over
consistent pairs while stability stays out of reach.
"""
from __future__ import annotations

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
    remember,
)
from .scheme import (
    Edits,
    SchemeError,
    Traceability,
    Update,
    compose_updates,
    enumerate_op_sequences,
    incidence_failure,
)
from .frameworks import Arrow, BoundaryMismatch, Bx, Undefined
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


FREE_CASE = Case(None, None, None)


def consistent_cases(bx: Bx, direction: str, cap: int = ENUMERATION_CAP) -> tuple[Case, ...]:
    if not bx.arrow(direction).trace_in.anchored:
        return (FREE_CASE,)
    if bx.consistency_kind == "I":
        return tuple(Case(a, b, c) for a, b, c in bx.replay)
    to = bx.arrows["to"]
    return tuple(
        Case(a, b, None) for a in enumerate_values(bx.domain_a, cap) for b in _row(bx, to, a, cap)
    )


def _row(bx: Bx, arrow: Arrow, state: Value, cap: int) -> dict[Value, None]:
    """The output-side values consistent with the input-side ``state``, in
    enumeration order."""
    opposite = enumerate_values(arrow.domain_out, cap)
    return {x: None for x in opposite if bx.consistency(*arrow.pair(state, x))}


def _realize_arrow(bx: Bx, arrow: Arrow, case: Case) -> Traceability | None:
    """Build the trace that ``arrow`` produces on a testifying pair: a stored
    state is the arrow's input end; a delta runs from its input end to its
    output end."""

    def align():
        rel = bx.default_align(case.a, case.b)
        return rel if arrow.name == "to" else rel.invert()

    ends = None if case.a is None or case.b is None else arrow.pair(case.a, case.b)
    return arrow.trace_out.testifying(ends, case.c, align)


class _Run:
    """One call's transformation and configuration, and the memos its checks share."""

    def __init__(self, bx: Bx, config: LawSuiteConfig | None):
        self.bx = bx
        self.config = config or LawSuiteConfig()
        # The memos are keyed by the arrow's name: a key holding the record
        # would hash all of its fields on every lookup.
        self._cases: dict[str, tuple[Case, ...]] = {}
        self._updates: dict[tuple[str, Value | None], tuple[Update, ...]] = {}
        self._rows: dict[tuple[str, Value], dict[Value, None]] = {}

    def cases(self, arrow: Arrow) -> tuple[Case, ...]:
        return remember(
            self._cases, arrow.name, consistent_cases, self.bx, arrow.name, self.config.value_cap
        )

    def updates(self, arrow: Arrow, pre: Value | None) -> tuple[Update, ...]:
        # Only the op-sequence searches are kept per pre-state, and post-state
        # updates once per direction; both-states and delta updates cost no
        # more to build than the loop that reads them, so they are not kept.
        in_class, domain = arrow.upd_in, arrow.domain_in
        if in_class.carries_pre and not in_class.edits:
            return self._enumerate(in_class, domain, pre)
        key = (arrow.name, pre if in_class.edits else None)
        return remember(self._updates, key, self._enumerate, in_class, domain, pre)

    def _enumerate(self, cls: type[Update], domain, pre: Value | None) -> tuple[Update, ...]:
        """Every update from ``pre`` that ends in ``domain``, or that applies
        at most ``edit_ops_per_update`` edits; none for opaque updates."""
        if not cls.algebraic or (pre is None and (cls.edits or cls.carries_pre)):
            return ()
        if cls.edits:
            steps = enumerate_op_sequences(pre, domain, self.config.edit_ops_per_update)
        else:
            steps = enumerate_values(domain, self.config.value_cap)
        return tuple(cls.build(pre, step) for step in steps)

    def partners(self, arrow: Arrow, state: Value) -> dict[Value, None]:
        """The partner row of the input-side ``state``, scanned once per run."""
        return remember(
            self._rows, (arrow.name, state), _row, self.bx, arrow, state, self.config.value_cap
        )


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
    pe = expected.post_state(base_pre)
    pa = actual.post_state(base_pre)
    if pe is None or pa is None:
        return "no"
    if config.normalizer is not None:
        pe = config.normalizer(pe)
        pa = config.normalizer(pa)
    return "weak" if pe == pa else "no"


class _Stop(Exception):
    """Ends a law body at its first counterexample, the ``Fails`` in ``args[0]``."""


class _Check:
    """One law checked on one arrow of a run: the body's only way into
    the transformation, its case count, and its first failure."""

    def __init__(self, run: _Run, law: str, arrow: Arrow, vacuous_reason: str):
        self.run = run
        self.law = law
        self.arrow = arrow
        self.vacuous_reason = vacuous_reason
        self.checked = 0
        self.weak_variant = ""

    def anchored_cases(self):
        """Yield ``(case, input trace, input base, output base)`` for every
        consistent anchor whose input trace is realizable."""
        bx, arrow = self.run.bx, self.arrow
        back = bx.arrows[arrow.back]
        for case in self.run.cases(arrow):
            trace_in = _realize_arrow(bx, back, case)
            if trace_in is not None:
                yield (case, trace_in, *arrow.pair(case.a, case.b))

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
                trace_back = _realize_arrow(self.run.bx, self.arrow, case)
                if trace_back is None:
                    continue
            for update in self.run.updates(self.arrow, in_base):
                yield case, trace_in, update, in_base, out_base, trace_back

    def call(self, arrow: Arrow, update: Update, trace: Traceability):
        """The checkers' only call into the transformation; ``None`` when
        undefined.  Another exception goes to ``raised``."""
        try:
            return self.run.bx.apply(arrow.name, update, trace)
        except Undefined:
            return None
        except Exception as exc:
            self.raised(exc, update, trace, "a result, or Undefined", arrow)

    def raised(
        self,
        exc: Exception,
        update: Update,
        trace: Traceability,
        expected: str,
        arrow: Arrow | None = None,
    ) -> NoReturn:
        """What ``exc``, raised by the user's code while the call ``(update,
        trace)`` was checked, makes of the check.  A blown enumeration cap
        ends the run, and so does the checked ``Bx``'s own ``BoundaryMismatch``,
        a value not of its declared representations: that is a fault of the
        transformation's declaration, not a counterexample to the law.  Any
        other exception, a ``ReprMismatch`` from another ``Bx`` the user's
        code calls included, is a counterexample, as in QuickCheck."""
        if isinstance(exc, CapExceeded) or (
            isinstance(exc, BoundaryMismatch) and exc.bx is self.run.bx
        ):
            raise exc
        self.fail(update, trace, observed=f"raised {exc!r}", expected=expected, arrow=arrow)

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
        arrow: Arrow | None = None,
    ) -> NoReturn:
        """Stop the check with the call ``(update, trace)`` as its
        counterexample; ``arrow`` defaults to the check's own."""
        counterexample = Counterexample(
            law=self.law,
            direction=(arrow or self.arrow).name,
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
        arrow: Arrow | None = None,
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
                arrow=arrow,
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


def _inexpressible(bx: Bx, law: str, arrow: Arrow) -> str | None:
    """Why ``law`` cannot be stated on ``arrow`` with the framework's own
    representations, or ``None`` when it can, read from what their classes
    can do.  The rules are tried in order; the first that applies gives
    the reason."""
    update_in, trace_in, trace_out = arrow.upd_in, arrow.trace_in, arrow.trace_out
    # The pre-state of the input update is recoverable from the framework's
    # own data when the input trace carries both endpoints, or when the
    # consistency relation is the forward transformation and the trace
    # stores the opposite source.
    pre_recoverable = trace_in.carries_both or (
        arrow.name == "from" and trace_in.carries_state and bx.consistency_kind == "T"
    )
    if not update_in.algebraic and law not in (TOTALITY, SAFETY):
        return "function-valued updates are excluded from law checking"
    if law == STABILITY and not update_in.identifiable and not pre_recoverable:
        return "a null update cannot be identified: no pre-state is recoverable"
    if law in (INVERTIBILITY, CONVERGENCE) and not trace_in.anchored and trace_out.carries_state:
        return "the reversed trace is not representable for the opposite direction"
    if law == UNDOABILITY and not update_in.invertible and not trace_in.carries_state:
        return "update inversion is not representable without a state-carrying trace"
    if law in (HIPPOCRATICNESS, HIPPOCRATICNESS_LITERAL):
        if bx.consistency_kind == "I" and (update_in.carries_pre or not update_in.edits):
            return "a consistency-preserving update cannot be recognized under an implicit relation"
        if not trace_in.anchored:
            return "no testifying pair is available to anchor the null update"
    if law == LEAST_UPDATE and not arrow.upd_out.algebraic:
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
    and build the verdict.  A ``direction`` that names no arrow is a
    ``ValueError``."""
    arrow = run.bx.arrow(direction)
    _log("%s: %s/%s started", run.bx.name, law, direction)
    started = time.perf_counter()
    named = label = law
    if run.bx.consistency_kind == "T" and law in _DEGENERATES:
        law, label = _DEGENERATES[law]
    reason = _inexpressible(run.bx, law, arrow)
    if reason is not None:
        verdict = NotExpressible(reason)
    elif not run.cases(arrow):
        verdict = Vacuous("no consistent pair exists on the declared domains")
    else:
        body, vacuous_reason = _BODIES[law]
        check = _Check(run, label, arrow, vacuous_reason)
        try:
            body(check, run.bx, arrow)
            verdict = check.verdict()
        except _Stop as stop:
            verdict = stop.args[0]
    elapsed = time.perf_counter() - started
    _log("%s: %s/%s %s in %.3f s", run.bx.name, named, direction, verdict.kind, elapsed)
    return verdict


# Each law's body and the reason it is vacuous, registered below.
_BODIES: dict[str, tuple[Callable[[_Check, Bx, Arrow], None], str]] = {}
# ``run_suite`` dispatches each law of the suite through its entry here.
CHECKERS: dict[str, Callable[[_Run, str], Verdict]] = {
    law: functools.partial(_check_on, law=law) for law in ALL_LAWS
}


def _law(law: str, vacuous_reason: str):
    """Register a body as the one of ``law`` and return its public form,
    which makes a run per call.  ``vacuous_reason`` is reported when no
    case is checked."""

    def register(body: Callable[[_Check, Bx, Arrow], None]):
        _BODIES[law] = body, vacuous_reason

        def check(bx: Bx, direction: str, config: LawSuiteConfig | None = None) -> Verdict:
            return _check_on(_Run(bx, config), direction, law)

        check.__name__ = check.__qualname__ = body.__name__
        check.__doc__ = body.__doc__
        return check

    return register


@_law(STABILITY, "the transformation is undefined on every null input")
def check_stability(check: _Check, bx: Bx, arrow: Arrow) -> None:
    """Null updates must translate to null updates, leaving the trace reversed."""
    for case, trace_in, in_base, out_base in check.anchored_cases():
        u_id = arrow.upd_in.null(in_base)
        if u_id is None:
            continue
        result = check.call(arrow, u_id, trace_in)
        if result is None:
            continue
        expected_u = arrow.upd_out.null(out_base)
        if expected_u is None:
            continue
        expected_t = _realize_arrow(bx, arrow, case)
        check.compare(
            u_id, trace_in, result, expected_u, expected_t, out_base,
            detail="null update was not preserved",
        )


@_law(INVERTIBILITY, "no premise call is defined")
def check_invertibility(check: _Check, bx: Bx, arrow: Arrow) -> None:
    """A translated update round-trips through the opposite transformation."""
    back = bx.arrows[arrow.back]
    for _, trace_in, u_in, in_base, out_base, trace_back in check.anchored_inputs(round_trip=True):
        premise = check.call(arrow, u_in, trace_in)
        if premise is None:
            continue
        u_mid, t_mid = premise
        conclusion = check.call(back, u_mid, trace_back)
        if conclusion is None:
            continue  # conclusion undefined: discharged
        expected_t = arrow.trace_in.reversing(t_mid, u_mid.post_state(out_base))
        check.compare(
            u_mid, trace_back, conclusion, u_in, expected_t, in_base,
            detail="round trip did not restore the translated update",
            arrow=back,
        )


@_law(UNDOABILITY, "no premise call is defined")
def check_undoability(check: _Check, bx: Bx, arrow: Arrow) -> None:
    """Re-applying the transformation with the inverted update undoes it."""
    for case, trace_in, u_in, in_base, out_base, _ in check.anchored_inputs():
        premise = check.call(arrow, u_in, trace_in)
        if premise is None:
            continue
        u_mid, t_mid = premise
        u_inv = u_in.inverse(in_base)
        if u_inv is None:
            continue
        trace_undo = arrow.trace_in.reversing(t_mid, u_mid.post_state(out_base))
        if trace_undo is None:
            continue
        undo = check.call(arrow, u_inv, trace_undo)
        if undo is None:
            continue
        expected_u = u_mid.inverse(out_base)
        if expected_u is None:
            continue
        expected_t = _realize_arrow(bx, arrow, case)
        check.compare(
            u_inv, trace_undo, undo, expected_u, expected_t, out_base,
            detail="inverse update did not restore the original state",
        )


def _itself(value):
    return value


@_law(HISTORY_IGNORANCE, "no chained premise is defined")
def check_history_ignorance(check: _Check, bx: Bx, arrow: Arrow) -> None:
    """Translating a composite equals composing the two translations."""
    # The second calls after a first update depend only on where it left the
    # input side, which fixes their updates, and on the trace it returned.
    # Many first updates share that pair, so the second results are grouped
    # by it, aligned with the updates, and each group is filled inline the
    # first time it is met: the calls keep the order of a plain triple loop.
    # A counterexample ends the check, so a partly filled group is never
    # read.  ``canon`` keeps one copy of each distinct result.  A pair that
    # cannot be hashed gets a fresh group, filled and dropped.
    groups: dict[tuple[Value | None, Traceability], list] = {}
    canon: dict = {}
    # On one anchor the combined call depends only on the composite, since
    # the input trace is fixed there.  State-based composites repeat across
    # first updates, so their results are kept until the next anchor starts.
    # Edit composites are nearly all distinct, and keeping their results made
    # the depth-2 edit lens check slower and larger, so they are called plainly.
    state_based = not arrow.upd_in.edits
    combined_at: dict[Update, tuple[Update, Traceability] | None] = {}
    anchor = None
    for case, trace_in, u1, in_base, out_base, _ in check.anchored_inputs():
        if case is not anchor:
            anchor = case
            combined_at.clear()
        first = check.call(arrow, u1, trace_in)
        if first is None:
            continue
        out1, s1 = first
        trace2 = arrow.trace_in.reversing(s1, out1.post_state(out_base))
        if trace2 is None:
            continue
        moved = u1.post_state(in_base)
        known = remember(groups, (moved, trace2), list)
        for i, u2 in enumerate(check.run.updates(arrow, moved)):
            if i < len(known):
                second = known[i]
            else:
                second = check.call(arrow, u2, trace2)
                known.append(remember(canon, second, _itself, second))
            if second is None:
                continue
            out2, s2 = second
            try:
                u12 = compose_updates(u2, u1)
                expected_u = compose_updates(out2, out1)
            except SchemeError:
                continue
            if state_based:
                combined = remember(combined_at, u12, check.call, arrow, u12, trace_in)
            else:
                combined = check.call(arrow, u12, trace_in)
            if combined is None:
                continue
            check.compare(
                u12, trace_in, combined, expected_u, s2, out_base,
                detail="translating the composite differs from composing the translations",
            )


@_law(CORRECTNESS, "the transformation is undefined everywhere")
def check_correctness(check: _Check, bx: Bx, arrow: Arrow) -> None:
    """Every defined result restores the consistency relation.

    When the consistency relation is the forward transformation itself,
    correctness degenerates into invertibility and is checked as such.
    """
    for _, trace_in, u_in, in_base, out_base, _ in check.anchored_inputs():
        result = check.call(arrow, u_in, trace_in)
        if result is None:
            continue
        post_in = u_in.post_state(in_base)
        post_out = result[0].post_state(out_base)
        if post_out is None:
            continue
        pa, pb = arrow.pair(post_in, post_out)
        if bx.consistency(pa, pb):
            check.checked += 1
        elif check.run.config.weak_variants and not check.run.partners(arrow, post_in):
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


def _hippocraticness(check: _Check, bx: Bx, arrow: Arrow, literal: bool = False) -> None:
    for case, trace_in, u_in, in_base, out_base, _ in check.anchored_inputs():
        post_in = u_in.post_state(in_base)
        moved = arrow.pair(post_in, out_base)
        if not literal and not bx.consistency(*moved):
            continue
        result = check.call(arrow, u_in, trace_in)
        if result is None:
            continue
        expected_u = arrow.upd_out.null(out_base)
        if expected_u is None:
            continue
        # An ignored update moves the anchor's input end to its
        # post-state; the output trace must testify the moved anchor.
        expected_t = _realize_arrow(bx, arrow, Case(*moved, case.c))
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
def check_least_update(check: _Check, bx: Bx, arrow: Arrow) -> None:
    """The returned update is minimal among all consistency-restoring ones."""
    out_class, back = arrow.upd_out, bx.arrows[arrow.back]

    def size(update: Update, out_base: Value | None, u_in: Update, trace_in: Traceability) -> int:
        # The class's default preorder, anchored at the testified pre-state,
        # unless the transformation attached its own.  That is user code,
        # checked on the input being checked.
        if bx.preorder is None:
            return update.size(out_base)
        try:
            return bx.preorder(update)
        except Exception as exc:
            check.raised(exc, u_in, trace_in, "a size under the preorder")

    def restoring(
        out_base: Value | None, post_in: Value, u_in: Update, trace_in: Traceability
    ) -> list[tuple[Update, int]]:
        # The alternatives are the opposite direction's input updates that
        # end in a partner of the input's post-state, in enumeration order.
        # A state-based update is built from the state it ends in, so those
        # are built from the partner row; edit updates are scanned for.
        partners = check.run.partners(arrow, post_in)
        if out_class.edits:
            alts = [
                alt for alt in check.run.updates(back, out_base) if alt.post_state(out_base) in partners
            ]
        elif out_base is None and out_class.carries_pre:
            alts = []
        else:
            alts = [out_class.build(out_base, p) for p in partners]
        return [(alt, size(alt, out_base, u_in, trace_in)) for alt in alts]

    # The alternatives depend only on the output base and the input's
    # post-state, so each pair's are found and sized once per check.
    alternatives: dict[tuple[Value | None, Value], list[tuple[Update, int]]] = {}
    for _, trace_in, u_in, in_base, out_base, _ in check.anchored_inputs():
        result = check.call(arrow, u_in, trace_in)
        if result is None:
            continue
        post_in = u_in.post_state(in_base)
        rows = remember(
            alternatives, (out_base, post_in), restoring, out_base, post_in, u_in, trace_in
        )
        result_size = size(result[0], out_base, u_in, trace_in) if rows else None
        for alt, alt_size in rows:
            if result_size > alt_size:
                check.fail(
                    u_in, trace_in,
                    observed=_render_result(result),
                    expected=f"an update no larger than {render_update(alt)}",
                    detail="a strictly smaller consistency-restoring update exists",
                )
        check.checked += 1


@_law(TOTALITY, "no inputs to enumerate")
def check_totality(check: _Check, bx: Bx, arrow: Arrow) -> None:
    """Defined on every enumerated update paired with a testifying trace."""
    for _, trace_in, u_in, _, _, _ in check.anchored_inputs():
        if check.call(arrow, u_in, trace_in) is None:
            check.fail(u_in, trace_in, observed="undefined", expected="a defined result")
        check.checked += 1


@_law(SAFETY, "no inputs to enumerate")
def check_safety(check: _Check, bx: Bx, arrow: Arrow) -> None:
    """Defined at least on inputs whose post-state has a consistent counterpart."""
    for _, trace_in, u_in, in_base, _, _ in check.anchored_inputs():
        post_in = u_in.post_state(in_base)
        if check.run.partners(arrow, post_in) and check.call(arrow, u_in, trace_in) is None:
            check.fail(
                u_in, trace_in,
                observed="undefined",
                expected="defined: the post-state has a consistent counterpart",
            )
        check.checked += 1


@_law(CONVERGENCE, "no premise call is defined")
def check_convergence(check: _Check, bx: Bx, arrow: Arrow) -> None:
    """Round-tripping reaches a fixed point on post-states within two passes."""
    back = bx.arrows[arrow.back]
    rounds = check.run.config.max_convergence_rounds
    for _, trace_fwd, u_in, _, out_base, trace_back in check.anchored_inputs(round_trip=True):
        first = check.call(arrow, u_in, trace_fwd)
        if first is None:
            continue
        current = first[0]
        previous_post = current.post_state(out_base)
        if previous_post is None:
            continue
        for _ in range(rounds):
            bounce = check.call(back, current, trace_back)
            if bounce is None:
                break  # a round trip is undefined: discharged
            again = check.call(arrow, bounce[0], trace_fwd)
            if again is None:
                break
            current = again[0]
            next_post = current.post_state(out_base)
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
        and Edits in (bx.upd_to, bx.upd_from)
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
    check = _Check(_Run(bx, config), "incidence", bx.arrows["to"], "no defined invocation to audit")
    try:
        for arrow in bx.arrows.values():
            check.arrow = arrow
            for _, trace_in, u_in, _, _, _ in check.anchored_inputs():
                result = check.call(arrow, u_in, trace_in)
                if result is None:
                    continue
                failure = incidence_failure(u_in, trace_in, *result)
                if failure is not None:
                    condition, lhs, rhs = failure
                    check.fail(
                        u_in, trace_in,
                        observed=f"{_shown(render_value, lhs)} vs {_shown(render_value, rhs)}",
                        expected=condition,
                        detail=f"condition failed: {condition}",
                    )
                check.checked += 1
    except _Stop as stop:
        return stop.args[0]
    return check.verdict()
