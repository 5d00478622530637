"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload insitu-kmeans --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed;
``--trace 1`` is a separate run whose steps alternate between traced
(timing wrappers around the program's layer entry points) and untraced,
and which prints the per-layer metrics and the tracing overhead.  The
human-readable report comes first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 0 only if every output was correct and
no child process was left running.  Metric units, directions and the
end-to-end metric each layer metric should move are in
``perfbench/metrics.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: A run is torn down after this many seconds; the process exits by
#: deadline + grace at the latest.
DEADLINE_S = 150.0
GRACE_S = 20.0


def _host() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def _peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def main(argv: list[str] | None = None) -> int:
    meta = json.loads((BENCH_DIR / "metrics.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(meta["unit_of_work"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program under test is missing ({src / 'repro'})",
              file=sys.stderr)
        return 2
    # Temporary files stay inside the checkout.
    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    sys.path[:1] = [str(ROOT), str(src)]

    from perfbench import layers, procguard, report
    from perfbench.workloads import WORKLOADS, Config, all_targets

    tracer = layers.Tracer() if args.trace else None
    cfg = Config(seed=args.seed, seconds=args.seconds, tracer=tracer)
    outcome = error = None
    with procguard.Deadline(DEADLINE_S, GRACE_S):
        try:
            if tracer is None:
                # The untraced run must measure the program unwrapped.
                wrapped = layers.installed_wrappers(all_targets())
                if wrapped:
                    raise RuntimeError(f"untraced run found wrappers on {wrapped}")
            outcome = WORKLOADS[args.workload](cfg)
        except procguard.DeadlineExceeded as exc:
            error = str(exc)
        except Exception:  # noqa: BLE001 - reported, run fails
            error = traceback.format_exc()
        leftovers = procguard.sweep()
    shutil.rmtree(tmp, ignore_errors=True)

    host = _host()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host: " + json.dumps(host))
    if leftovers:
        print("FAIL: left running after teardown (processes killed now): "
              + "; ".join(leftovers))
    if error is not None:
        print("FAIL: " + error.strip())
    if outcome is None or not outcome.units:
        if outcome is not None:
            print("FAIL: no unit was measured")
        return 1

    unit = meta["unit_of_work"][args.workload]
    if args.trace:
        values, samples = report.per_layer(outcome, tracer.totals())
        names = meta["per_layer"]
        print(f"traced run: {samples['traced']} traced and {samples['untraced']} "
              f"untraced {unit}s interleaved, {samples['units']} measured in all")
    else:
        values, samples = report.end_to_end(outcome)
        values["peak_rss_mb"] = _peak_rss_mb()
        names = meta["end_to_end"]
    metrics = {}
    for name, info in names.items():
        value = float(values.get(name, 0.0))  # 0: layer not on this workload
        metrics[name] = {"value": value, "unit": info["unit"]}
        count = f"  [n={samples[name]}]" if name in samples else ""
        print(f"  {name:34s} {value:14.6g} {info['unit']:6s} ({info['better']} is better){count}")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'failed_frac':34s} {frac:14.6g}        ({outcome.failed} of "
          f"{outcome.attempted} checked {unit}s failed)")
    for failure in outcome.failures:
        print("FAIL: " + failure)
    correct = outcome.failed == 0 and not leftovers and error is None
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
