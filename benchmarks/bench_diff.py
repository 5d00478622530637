"""Benchmark regression gate: current BENCH_*.json vs committed baselines.

The repository commits benchmark result files (``BENCH_*.json`` at the
repo root) and reference copies under ``benchmarks/baselines/``.  This
gate compares the *ratio* metrics — machine-relative numbers (speedups,
reduction factors, match fractions, overhead ratios) that are stable
across hosts, unlike raw seconds — and fails when any gated metric
regresses by more than the threshold (default 25%).  Each metric
declares its direction: a higher-is-better metric regresses when it
falls, a lower-is-better one (an overhead ratio) when it rises.

Usage::

    PYTHONPATH=src python benchmarks/bench_diff.py            # gate
    PYTHONPATH=src python benchmarks/bench_diff.py --update   # rebless

``--update`` copies the current result files over the baselines (after a
deliberate, reviewed performance change).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BASELINE_DIR = ROOT / "benchmarks" / "baselines"

HIGHER, LOWER = "higher", "lower"

#: Ratio metrics gated per result file: (dotted path, which direction is
#: better).
METRICS: dict[str, tuple[tuple[str, str], ...]] = {
    "BENCH_serialization.json": (
        ("serialize_merge.columnar_speedup", HIGHER),
    ),
    "BENCH_pipeline.json": (
        ("dispatch.reduction_x", HIGHER),
        ("pipeline.speedup_x", HIGHER),
    ),
    "BENCH_autotune.json": (
        ("summary.matched_fraction", HIGHER),
    ),
    "BENCH_map.json": (
        ("summary.histogram_speedup", HIGHER),
        ("summary.grid_aggregation_speedup", HIGHER),
        ("summary.kde_grid_speedup", HIGHER),
        ("summary.moving_average_speedup", HIGHER),
    ),
    "BENCH_chaos.json": (
        ("overhead.overhead_ratio", LOWER),
    ),
    "BENCH_intransit.json": (
        ("tcp_overhead.overhead_ratio", LOWER),
    ),
    "BENCH_service.json": (
        ("summary.fairness_index", HIGHER),
        ("summary.shared_hit_rate", HIGHER),
        ("summary.bit_exact_fraction", HIGHER),
    ),
}

DEFAULT_THRESHOLD = 0.25


def lookup(doc: dict, dotted: str) -> float:
    node = doc
    for part in dotted.split("."):
        node = node[part]
    return float(node)


def compare_file(name: str, threshold: float) -> list[dict]:
    """Per-metric comparison records for one result file.

    ``ratio`` is oriented so that above 1 is an improvement whichever
    direction the metric prefers (current/baseline for higher-is-better,
    baseline/current for lower-is-better); below ``1 - threshold`` is a
    regression.
    """
    current_path = ROOT / name
    baseline_path = BASELINE_DIR / name
    if not current_path.exists():
        return [{"file": name, "metric": "-", "status": "missing-current"}]
    if not baseline_path.exists():
        return [{"file": name, "metric": "-", "status": "missing-baseline"}]
    current = json.loads(current_path.read_text())
    baseline = json.loads(baseline_path.read_text())
    records = []
    for metric, better in METRICS[name]:
        base = lookup(baseline, metric)
        cur = lookup(current, metric)
        num, den = (cur, base) if better == HIGHER else (base, cur)
        ratio = num / den if den else float("inf")
        status = "ok" if ratio >= 1.0 - threshold else "REGRESSION"
        records.append({
            "file": name, "metric": metric, "better": better,
            "baseline": base, "current": cur, "ratio": ratio,
            "status": status,
        })
    return records


def update_baselines() -> int:
    BASELINE_DIR.mkdir(parents=True, exist_ok=True)
    for name in METRICS:
        src = ROOT / name
        if src.exists():
            shutil.copyfile(src, BASELINE_DIR / name)
            print(f"blessed {name}")
        else:
            print(f"skipped {name} (no current result)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_diff.py",
        description="fail on >threshold regression of committed benchmark "
                    "ratio metrics vs benchmarks/baselines/")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="allowed fractional drop (default 0.25)")
    parser.add_argument("--update", action="store_true",
                        help="copy current results over the baselines")
    parser.add_argument("--strict", action="store_true",
                        help="missing files fail the gate instead of warning")
    args = parser.parse_args(argv)

    if args.update:
        return update_baselines()

    records = []
    for name in METRICS:
        records.extend(compare_file(name, args.threshold))

    width = max(len(r["metric"]) for r in records)
    failed = False
    for r in records:
        if r["status"].startswith("missing"):
            print(f"{r['file']:28s} {'-':{width}s}  {r['status']}")
            failed = failed or args.strict
            continue
        print(f"{r['file']:28s} {r['metric']:{width}s}  "
              f"{r['better']:6s}  "
              f"baseline {r['baseline']:9.3f}  current {r['current']:9.3f}  "
              f"ratio {r['ratio']:5.2f}  {r['status']}")
        failed = failed or r["status"] == "REGRESSION"

    if failed:
        print(f"\nFAIL: metric regressed more than {args.threshold:.0%} against "
              "baseline (or --strict file missing); if intentional, rebless "
              "with --update")
        return 1
    print("\nall gated metrics within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
