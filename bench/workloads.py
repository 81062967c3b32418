"""The three benchmark workloads and the checks on their verdict tables.

A workload has two halves.  ``build`` imports bxkit and constructs the
transformations under test; its time is the set-up a user waits for
before checking can start.  ``check`` is the timed call that produces
the full verdict set.  Both run inside a fresh interpreter (see
``one_pass.py``), so module-level caches start cold on every pass.

Everything here goes through bxkit's public entry points:
``bxkit.cli.main``, ``run_suite``/``LawSuiteConfig``,
``catalog_entries``, ``build_list_edit_lens`` and the ``make_*``
constructors.

Verdict tables map ``entry -> {"meta_errors": str, "verdicts":
{"law/direction": [kind, cases or null]}}``.  Only the kind and the case
count of each verdict are compared; any other field a verdict carries is
ignored.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"

WORKLOADS = ("catalog-report", "edit-lens-d2", "wide-domains")

# Seed never used while the benchmark was written; the self-test checks
# that it yields the same wide-domains table as the default seed.
DEFAULT_SEED = 1
HELD_OUT_SEED = 90417

# Domain sizes of the generated wide-domains transformations.  ``keys``
# and ``private`` give the key-sync maintainer |A| = |B| = keys * private
# records; ``view`` and ``hidden`` give the projection lens
# |A| = view * hidden pairs onto |B| = view atoms.
WIDE_SIZES = {
    "full": {"keys": 4, "private": 4, "view": 16, "hidden": 4},
    "quick": {"keys": 2, "private": 2, "view": 4, "hidden": 2},
}

# Pins on the depth-two edit-lens table, mirroring the stability and
# convergence pins the test suite holds for this configuration.
EDIT_LENS_PINS = {
    f"{law}/{direction}": "holds"
    for law in ("stability", "convergence")
    for direction in ("to", "from")
}

COUNTED_KINDS = ("holds", "weakly-holds")


# ---------------------------------------------------------------------------
# Build and check, run inside the pass interpreter
# ---------------------------------------------------------------------------

def import_program(workload: str) -> None:
    import bxkit  # noqa: F401

    if workload == "catalog-report":
        import bxkit.cli  # noqa: F401


def build(workload: str, seed: int, quick: bool):
    import bxkit
    from bxkit.catalog import build_list_edit_lens

    if workload == "catalog-report":
        return bxkit.catalog_entries()
    if workload == "edit-lens-d2":
        return build_list_edit_lens(2)
    if workload == "wide-domains":
        return build_wide_domains(seed, WIDE_SIZES["quick" if quick else "full"])
    raise ValueError(f"unknown workload {workload!r}")


def check(workload: str, built):
    """The timed call: returns what the renderer below turns into text."""
    import bxkit
    import bxkit.laws

    if workload == "catalog-report":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bxkit.cli.main(["report", "--format", "value-grammar"])
        return code, out.getvalue()
    if workload == "edit-lens-d2":
        config = bxkit.LawSuiteConfig(edit_ops_per_update=2)
        return 0, [bxkit.laws.run_suite(built, config)]
    return 0, [bxkit.laws.run_suite(bx) for bx in built]


def render_output(output) -> str:
    """Report text in the value grammar; runs after the timed region."""
    from bxkit import Seq, render_value

    if isinstance(output, str):
        return output
    return render_value(Seq([report.to_value() for report in output]))


# ---------------------------------------------------------------------------
# wide-domains: transformations generated from the workload seed
# ---------------------------------------------------------------------------

_FIELD_POOL = ("id", "key", "ref", "note", "tag", "u", "v", "val", "w", "x", "y", "z")


def _labels(rng: random.Random, count: int) -> list:
    """Distinct atom labels in seeded order: half ints, half two-letter
    strings.

    The seed picks the labels and their order but not the mix, so the
    cost of comparing atoms of different types stays the same for
    every seed.
    """
    ints = rng.sample(range(1000), count - count // 2)
    strings = rng.sample([a + b for a in "abcdefghij" for b in "abcdefghij"], count // 2)
    labels = ints + strings
    rng.shuffle(labels)
    return labels


def build_wide_domains(seed: int, sizes: dict) -> tuple:
    """A key-sync maintainer and a first-projection lens.

    The seed picks the atom labels, the field names and the declaration
    order of every atom domain; the shapes, and so the verdict table, do
    not depend on it.  The key field always sorts first in its record,
    so record lookups cost the same for every seed.
    """
    from bxkit import Pair, Rec, Undefined, atoms, make_lens, make_maintainer, pairs_of, recs_of

    rng = random.Random(seed)
    key, *private = sorted(rng.sample(_FIELD_POOL, 3))
    mine, theirs = rng.sample(private, 2)
    keys = _labels(rng, sizes["keys"])
    domain_a = recs_of({key: atoms(*keys), mine: atoms(*_labels(rng, sizes["private"]))})
    rng.shuffle(keys)
    domain_b = recs_of({key: atoms(*keys), theirs: atoms(*_labels(rng, sizes["private"]))})

    def shaped(condition: bool) -> None:
        if not condition:
            raise Undefined("value has the wrong shape for this transformation")

    def same_key(a, b) -> bool:
        return isinstance(a, Rec) and isinstance(b, Rec) and a.has(key) and b.has(key) and a.get(key) == b.get(key)

    def copy_key(post, pre):
        shaped(isinstance(post, Rec) and post.has(key) and isinstance(pre, Rec))
        return pre.set(key, post.get(key))

    maintainer = make_maintainer("key-sync", same_key, copy_key, copy_key, domain_a, domain_b)

    view = atoms(*_labels(rng, sizes["view"]))
    hidden = atoms(*_labels(rng, sizes["hidden"]))

    def get(source):
        shaped(isinstance(source, Pair))
        return source.left

    def put(target, source):
        shaped(isinstance(source, Pair))
        return Pair(target, source.right)

    lens = make_lens("first-projection", get, put, pairs_of(view, hidden), view)
    return maintainer, lens


# ---------------------------------------------------------------------------
# Verdict tables
# ---------------------------------------------------------------------------

def table_from_text(text: str) -> dict:
    """Parse value-grammar report text into a verdict table.

    Accepts the ``bxkit report`` row list (rows carry a ``report`` field)
    and a plain list of suite reports.
    """
    from bxkit import AtomInt, AtomStr, parse_value

    table: dict = {}
    for row in parse_value(text).elements:
        report = row.get("report") if row.has("report") else row
        verdicts: dict = {}
        for law, per_direction in report.get("verdicts").fields:
            for direction, verdict in per_direction.fields:
                kind = verdict.get("kind")
                cases = verdict.get("cases") if verdict.has("cases") else None
                verdicts[f"{law}/{direction}"] = [
                    kind.value if isinstance(kind, AtomStr) else None,
                    cases.value if isinstance(cases, AtomInt) else None,
                ]
        meta = report.get("meta_errors")
        table[report.get("bx").value] = {
            "meta_errors": meta.value if isinstance(meta, AtomStr) else str(meta),
            "verdicts": verdicts,
        }
    return table


def table_differences(expected: dict, observed: dict, limit: int = 5) -> list[str]:
    """Readable differences between two verdict tables, at most ``limit``."""
    problems: list[str] = []
    for name in sorted(set(expected) | set(observed)):
        if name not in observed:
            problems.append(f"{name}: entry missing from the output")
            continue
        if name not in expected:
            problems.append(f"{name}: unexpected entry in the output")
            continue
        want, got = expected[name], observed[name]
        if want["meta_errors"] != got["meta_errors"]:
            problems.append(f"{name}: meta errors {got['meta_errors']!r}, expected {want['meta_errors']!r}")
        for key in sorted(set(want["verdicts"]) | set(got["verdicts"])):
            w, g = want["verdicts"].get(key), got["verdicts"].get(key)
            if w != g:
                problems.append(f"{name} {key}: got {g}, expected {w}")
    return problems[:limit] + ([f"... {len(problems) - limit} more"] if len(problems) > limit else [])


def counted_cases(table: dict) -> int:
    """Checked cases: the sum of case counts over holding verdicts."""
    return sum(
        cases
        for entry in table.values()
        for kind, cases in entry["verdicts"].values()
        if kind in COUNTED_KINDS
    )


def verdict_count(table: dict) -> int:
    return sum(len(entry["verdicts"]) for entry in table.values())


def load_expected(workload: str, quick: bool) -> dict:
    """The expected table: ``{"entries": table, ...}``."""
    data = json.loads((EXPECTED_DIR / f"{workload}.json").read_text(encoding="utf-8"))
    if workload == "wide-domains":
        return {"entries": data["quick" if quick else "full"]}
    return data


def pin_problems(workload: str, table: dict) -> list[str]:
    """Disagreements between an expected table and hand-written pins.

    The catalog's ``expected_laws`` pin the kind of selected verdicts;
    the depth-two edit-lens table must keep the pins its test holds.
    """
    problems: list[str] = []
    if workload == "catalog-report":
        from bxkit import catalog_entries

        for name, entry in catalog_entries().items():
            for (law, direction), kind in getattr(entry, "expected_laws", {}).items():
                row = table.get(name, {}).get("verdicts", {}).get(f"{law}/{direction}")
                if row is None or row[0] != kind:
                    problems.append(f"{name} {law}/{direction}: table has {row}, catalog pins {kind}")
    elif workload == "edit-lens-d2":
        entry = table.get("list-edit-lens", {"verdicts": {}, "meta_errors": "?"})
        for key, kind in EDIT_LENS_PINS.items():
            row = entry["verdicts"].get(key)
            if row is None or row[0] != kind:
                problems.append(f"list-edit-lens {key}: table has {row}, pinned {kind}")
        if entry["meta_errors"]:
            problems.append("list-edit-lens: table records meta errors")
    return problems
