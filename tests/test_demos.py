"""The demos' output: each ``demos/*.py`` is run in-process as a script and
what it prints is compared with ``tests/demos/<name>.txt``.

A change that moves a demo's output on purpose redirects the demo's own
output into ``tests/demos/<name>.txt`` and says why in CHANGES.md.
"""
import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
EXPECTED = Path(__file__).with_name("demos")


def demo_output(demo: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    return out.getvalue()


def test_every_demo_has_its_expected_output():
    assert DEMOS
    assert sorted(path.stem for path in EXPECTED.glob("*.txt")) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_prints_its_expected_output(demo):
    assert demo_output(demo) == (EXPECTED / f"{demo.stem}.txt").read_text()

