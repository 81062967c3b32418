"""Golden verdicts: every verdict, counterexample and entailment error the
law checkers produce on the catalog, compared line by line against
``tests/golden_verdicts.txt``.

A refactor of the checkers must leave this dump unchanged.  A deliberate
verdict change regenerates the file and says why in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py --write
"""
import inspect
import sys
from pathlib import Path

from bxkit.catalog import catalog_entries
from bxkit.frameworks import Bx
from bxkit.scheme import NoTrace, Opaque
from bxkit.values import atoms
import bxkit.laws
from bxkit.laws import (
    ALL_LAWS,
    CHECKERS,
    DIRECTIONS,
    LawSuiteConfig,
    audit_incidence,
    check_hippocraticness,
    run_suite,
)
from bxkit.verdict import Fails, Verdict

GOLDEN = Path(__file__).with_name("golden_verdicts.txt")

SUITE_CONFIGS = (
    ("default", LawSuiteConfig()),
    ("strict", LawSuiteConfig(weak_variants=False)),
    ("one-round", LawSuiteConfig(max_convergence_rounds=1)),
)


def _ghost(kind: str) -> Bx:
    """A transformation whose updates are functions: no law is checkable."""
    return Bx(
        name=f"ghost-{kind}",
        upd_to=Opaque,
        upd_from=Opaque,
        trace_to=NoTrace,
        trace_from=NoTrace,
        consistency_kind=kind,
        consistency=lambda a, b: True,
        to_fn=lambda u, t: (u, t),
        from_fn=lambda u, t: (u, t),
        domain_a=atoms(0),
        domain_b=atoms(0),
    )


def _verdict_lines(label: str, verdict: Verdict) -> list[str]:
    lines = [f"{label}: {verdict!r}"]
    if isinstance(verdict, Fails):
        lines += [f"    {line}" for line in verdict.counterexample.describe().splitlines()]
    return lines


def _lone_checks(label: str, bx: Bx) -> list[str]:
    lines = []
    for law in ALL_LAWS:
        checker = getattr(bxkit.laws, f"check_{law}")
        for direction in DIRECTIONS:
            lines += _verdict_lines(f"{label}/{law}/{direction}", checker(bx, direction))
    for direction in DIRECTIONS:
        literal = check_hippocraticness(bx, direction, literal=True)
        lines += _verdict_lines(f"{label}/hippocraticness-literal/{direction}", literal)
    return lines


def golden_lines() -> list[str]:
    """The dump: suites under three configurations, the incidence audit
    and every lone checker on every catalog entry and on two opaque
    ghosts, then the public surface of the checkers."""
    lines = []
    for name, entry in catalog_entries().items():
        for config_name, config in SUITE_CONFIGS:
            report = run_suite(entry.bx, config)
            for (law, direction), verdict in report.verdicts.items():
                lines += _verdict_lines(f"suite/{config_name}/{name}/{law}/{direction}", verdict)
            lines.append(f"suite/{config_name}/{name}/meta_errors: {report.meta_errors!r}")
        lines += _verdict_lines(f"audit/{name}", audit_incidence(entry.bx))
        lines += _lone_checks(f"lone/{name}", entry.bx)
    for kind in ("T", "I"):
        ghost = _ghost(kind)
        lines += _lone_checks(f"lone/{ghost.name}", ghost)
        for (law, direction), verdict in run_suite(ghost).verdicts.items():
            lines += _verdict_lines(f"suite/default/{ghost.name}/{law}/{direction}", verdict)
    for law in ALL_LAWS:
        checker = getattr(bxkit.laws, f"check_{law}")
        lines.append(f"signature/check_{law}: {inspect.signature(checker)}")
        lines.append(f"doc/check_{law}: {inspect.cleandoc(checker.__doc__)!r}")
    lines.append(f"CHECKERS: {sorted(CHECKERS)!r}")
    return lines


def test_verdicts_match_the_golden_file():
    golden = GOLDEN.read_text().splitlines()
    current = golden_lines()
    for number, (want, got) in enumerate(zip(golden, current), start=1):
        assert got == want, f"golden_verdicts.txt line {number} differs"
    assert len(current) == len(golden), f"{len(current)} lines, golden has {len(golden)}"


def test_every_catalog_pin_matches_the_suite():
    # ``CatalogEntry.expected_laws`` pins an entry's notable verdict kinds;
    # the benchmark checks its tables against the same pins.
    pinned, got = {}, {}
    for name, entry in catalog_entries().items():
        report = run_suite(entry.bx)
        for (law, direction), kind in entry.expected_laws.items():
            pinned[name, law, direction] = kind
            got[name, law, direction] = report.kind(law, direction)
    assert len(pinned) == 53
    assert got == pinned


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.write_text("\n".join(golden_lines()) + "\n")
