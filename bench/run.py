"""Benchmark harness for bxkit's bounded-exhaustive law suite.

Usage, from the root of a checkout:

    python3 bench/run.py --workload catalog-report --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --self-test

Workloads (see ``workloads.py`` and ``description.json``):

- ``catalog-report``: one cold ``bxkit report --format value-grammar``.
- ``edit-lens-d2``: the list edit lens at two edits per update.
- ``wide-domains``: a key-sync maintainer and a projection lens
  generated from the seed.

The harness is a single-threaded closed loop: it starts one fresh
interpreter per pass (``one_pass.py``), waits for it, checks its verdict
table against ``expected/``, and starts the next while the run's time
lasts.  Fresh interpreters keep bxkit's module-level caches as cold as a
command-line user sees them.  A few extra passes that stop after the
build give ``setup_s`` at least eleven samples.

``--trace 0`` reports the end-to-end metrics ``wall_s``,
``cases_per_s``, ``setup_s`` and ``peak_rss_mib`` (medians over
passes).  ``--trace 1`` spends half the run on untraced passes and the
rest on traced ones, and reports the per-layer split of ``tracing.py``.
Human-readable lines, including ``error_rate`` (failed passes over
attempted passes), come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Span files of traced passes go to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import itertools
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(SRC))  # the harness itself parses reports with bxkit

RUN_LIMIT_S = 170  # hard ceiling for one run, below the 180 s budget
MIN_PASSES = 3
MIN_SETUP_SAMPLES = 11

END_TO_END_UNITS = {"wall_s": "s", "cases_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}
PERCENTILES = (99, 95, 90, 75)


def run_pass(workload: str, seed: int, index: int, deadline: float, *, quick=False, trace=False, setup_only=False) -> dict:
    """Start one pass interpreter, wait for it and return its raw record."""
    spec = {
        "workload": workload,
        "seed": seed,
        "quick": quick,
        "trace": trace,
        "setup_only": setup_only,
        "src": str(SRC),
        "pass_id": f"{workload}/{seed}/{index}",
        "spans_path": str(OUT_DIR / f"{workload}.spans"),
    }
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED=str((seed * 1009 + index) % 2**32))
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "one_pass.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"problem": "pass timed out", "pass_s": time.monotonic() - spawned}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no message"]
        return {"problem": f"pass exited with {proc.returncode}: {tail[0]}", "pass_s": time.monotonic() - spawned}
    record = json.loads(out.strip().splitlines()[-1])
    record["pass_s"] = time.monotonic() - spawned
    record["setup_s"] = record["built"] - spawned
    record["import_s"] = record["imported"] - spawned
    record["build_s"] = record["built"] - record["imported"]
    return record


def judge(record: dict, expected: dict) -> None:
    """Set ``record["problem"]`` when a finished pass's output is wrong."""
    if "problem" in record:
        return
    if record["exit_code"] != 0:
        record["problem"] = f"check exited with {record['exit_code']}"
        return
    try:
        table = workloads.table_from_text(record["report"])
    except Exception as exc:  # any parse failure is a wrong output
        record["problem"] = f"report does not parse: {exc!r}"
        return
    differences = workloads.table_differences(expected["entries"], table)
    if differences:
        record["problem"] = "verdicts differ: " + "; ".join(differences)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest listed percentile with at least ten samples above it."""
    ordered = sorted(values)
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, *, quick=False, expected=None) -> dict:
    """Run passes for ``seconds`` and summarise them."""
    expected = expected or workloads.load_expected(workload, quick)
    problems = workloads.pin_problems(workload, expected["entries"])
    cases = workloads.counted_cases(expected["entries"])
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[dict] = []
    indices = itertools.count()

    def next_pass(**kwargs) -> dict:
        return run_pass(workload, seed, next(indices), deadline, quick=quick, **kwargs)

    def keep_going(done: list[dict], budget: float, minimum: int) -> bool:
        if len(done) >= minimum and (quick or time.monotonic() - start + done[-1]["pass_s"] > budget):
            return False
        return time.monotonic() < deadline

    while keep_going(untraced, seconds / 2 if trace else seconds, 1 if trace or quick else MIN_PASSES):
        untraced.append(next_pass())
    while trace and keep_going(traced, seconds, 1):
        traced.append(next_pass(trace=True))
    passes = untraced + traced
    for record in passes:
        judge(record, expected)

    setups += [p for p in untraced if "problem" not in p]
    while len(setups) < (1 if quick else MIN_SETUP_SAMPLES) and time.monotonic() < deadline:
        record = next_pass(setup_only=True)
        if "problem" in record:
            problems.append(f"set-up pass: {record['problem']}")
            break
        setups.append(record)

    failed = [p for p in passes if "problem" in p]
    problems += [p["problem"] for p in failed]
    timed = [p for p in untraced if "check_s" in p]
    summary = {
        "workload": workload,
        "seed": seed,
        "attempted": len(passes),
        "failed": len(failed),
        "correct": not problems,
        "problems": problems,
        "cases": cases,
        "verdicts": workloads.verdict_count(expected["entries"]),
        "walls": [p["check_s"] for p in timed],
    }
    if not timed or not setups:
        return summary
    walls = summary["walls"]
    summary["end_to_end"] = {
        "wall_s": statistics.median(walls),
        "cases_per_s": statistics.median(cases / w for w in walls),
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in timed),
    }
    summary["setup_samples"] = len(setups)
    digest = expected.get("report_sha256")
    if digest:
        summary["report_bytes_identical"] = all(
            hashlib.sha256(p["report"].encode()).hexdigest() == digest for p in timed
        )
    if trace:
        summary["per_layer"] = per_layer(traced, setups, statistics.median(walls))
    return summary


def per_layer(traced: list[dict], setups: list[dict], wall: float) -> dict:
    """Medians over traced passes, plus set-up and overhead figures."""
    units = tracing.per_layer_units()
    done = [p for p in traced if "layers" in p]
    out: dict = {}
    for name, unit in units.items():
        rows = [p["layers"][name] for p in done if name in p["layers"]]
        values = [row["value"] for row in rows if row["value"] is not None]
        if values:
            median = statistics.median_low if unit == "count" else statistics.median
            out[name] = {"value": median(values), "unit": unit}
        elif rows:
            out[name] = rows[0]
    out["setup.import_s"] = {"value": statistics.median(p["import_s"] for p in setups), "unit": "s"}
    out["setup.build_s"] = {"value": statistics.median(p["build_s"] for p in setups), "unit": "s"}
    if done:
        traced_wall = statistics.median(p["check_s"] for p in done)
        out["trace.overhead_ratio"] = {"value": traced_wall / wall, "unit": "ratio"}
    for name, unit in units.items():
        out.setdefault(name, {"value": None, "unit": unit, "missing": "no traced pass finished"})
    return out


def print_summary(summary: dict) -> None:
    print(
        f"workload {summary['workload']}  seed {summary['seed']}  "
        f"verdicts {summary['verdicts']}  checked cases {summary['cases']}"
    )
    walls = summary["walls"]
    if "end_to_end" in summary:
        e2e = summary["end_to_end"]
        q1, q2, q3 = quartiles(walls)
        line = f"  wall_s         {q2:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, n {len(walls)}"
        tail = tail_percentile(walls)
        line += f", p{tail[0]} {tail[1]:.4f})" if tail else ")"
        print(line)
        print(f"  cases_per_s    {e2e['cases_per_s']:.1f} 1/s")
        print(f"  setup_s        {e2e['setup_s']:.4f} s  (n {summary['setup_samples']})")
        print(f"  peak_rss_mib   {e2e['peak_rss_mib']:.2f} MiB")
    error_rate = summary["failed"] / max(1, summary["attempted"])
    print(f"  error_rate     {error_rate:.4f} ratio  ({summary['failed']} of {summary['attempted']} passes)")
    if "report_bytes_identical" in summary:
        print(f"  report bytes identical to the recorded report: {summary['report_bytes_identical']} (informational)")
    for name, metric in summary.get("per_layer", {}).items():
        if metric["value"] is None:
            print(f"  {name:34s} missing: {metric.get('missing')}")
        else:
            note = f"  [partial: {metric['partial']}]" if "partial" in metric else ""
            print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}{note}")
    for problem in summary["problems"][:10]:
        print(f"  problem: {problem}")
    if len(summary["problems"]) > 10:
        print(f"  ... and {len(summary['problems']) - 10} more problems")


def result_line(summary: dict, trace: bool) -> dict:
    if trace:
        metrics = summary.get("per_layer", {})
    else:
        metrics = {
            name: {"value": summary["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def self_test() -> int:
    """Quick mode: one short pass per workload, traced and untraced, with
    a shrunken wide-domains; then the held-out seed and tampered tables."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared_e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert declared_e2e == END_TO_END_UNITS, declared_e2e
    assert declared_layers == tracing.per_layer_units(), declared_layers
    assert tuple(w["name"] for w in declared["workloads"]) == workloads.WORKLOADS

    for workload in workloads.WORKLOADS:
        summary = run_workload(workload, workloads.DEFAULT_SEED, 1, True, quick=True)
        print_summary(summary)
        assert summary["correct"] and summary["failed"] == 0, summary["problems"]
        for trace in (False, True):
            metrics = result_line(summary, trace)["metrics"]
            wanted = tracing.per_layer_units() if trace else END_TO_END_UNITS
            for name, unit in wanted.items():
                metric = metrics[name]
                assert metric["unit"] == unit, (name, metric)
                assert metric["value"] is not None or metric.get("missing"), (name, metric)
        assert summary["per_layer"]["trace.overhead_ratio"]["value"] > 0

    # The expected wide-domains tables are the ones every seed is judged
    # against, so passing them means the same table as the default seed.
    for quick in (True, False):
        record = run_pass("wide-domains", workloads.HELD_OUT_SEED, 0, time.monotonic() + RUN_LIMIT_S, quick=quick)
        judge(record, workloads.load_expected("wide-domains", quick))
        assert "problem" not in record, record["problem"]
    print(f"held-out seed {workloads.HELD_OUT_SEED}: same wide-domains tables as seed {workloads.DEFAULT_SEED}")

    for field, change in (("kind", "fails"), ("cases", 1)):
        tampered = copy.deepcopy(workloads.load_expected("catalog-report", False))
        row = tampered["entries"]["fst-lens"]["verdicts"]["invertibility/from"]
        row[0 if field == "kind" else 1] = change
        summary = run_workload("catalog-report", workloads.DEFAULT_SEED, 1, False, quick=True, expected=tampered)
        assert summary["failed"] == summary["attempted"] > 0 and not summary["correct"], summary
        print(f"tampered {field} in the expected table: error_rate {summary['failed'] / summary['attempted']:.1f}")
    print("self-test passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="quick mode: check the harness itself")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so run_pass's cleanup stops the pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "bxkit" / "__init__.py").is_file():
        print(f"error: no bxkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(summary)
    if "end_to_end" not in summary:
        print("error: no pass finished; nothing was measured", file=sys.stderr)
        return 1
    print(json.dumps(result_line(summary, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
