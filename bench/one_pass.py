"""One pass of one workload, in the fresh interpreter the harness starts.

Usage: python3 bench/one_pass.py '<json spec>'

The spec names the workload, seed, source directory and mode.  The pass
imports bxkit, builds the workload's transformations, runs the timed
check and prints one JSON line with CLOCK_MONOTONIC stamps (shared with
the harness process), the peak RSS, the report text and, when traced,
the per-layer metrics.  With ``setup_only`` it stops after the build.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_mib() -> float:
    """Peak RSS of this process image.

    ``ru_maxrss`` survives exec on Linux, so in a process forked from a
    larger harness it reports the harness's peak; ``VmHWM`` belongs to
    this image alone.  Other systems fall back to ``ru_maxrss``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import workloads

    workload = spec["workload"]
    workloads.import_program(workload)
    imported = time.monotonic()
    recorder = None
    if spec["trace"]:
        import tracing

        recorder = tracing.Recorder(spec["pass_id"])
        recorder.install()
    built = workloads.build(workload, spec["seed"], spec["quick"])
    result = {"imported": imported, "built": time.monotonic()}
    if spec["setup_only"]:
        print(json.dumps(result))
        return

    started = time.monotonic()
    if recorder is not None:
        exit_code, output = recorder.span(tracing.ROOT, workloads.check, workload, built)
    else:
        exit_code, output = workloads.check(workload, built)
    result["check_s"] = time.monotonic() - started
    result["peak_rss_mib"] = peak_rss_mib()
    result["exit_code"] = exit_code
    result["report"] = workloads.render_output(output)
    if recorder is not None:
        result["layers"] = recorder.metrics()
        recorder.write(Path(spec["spans_path"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
