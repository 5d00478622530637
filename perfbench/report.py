"""Turn a workload :class:`~perfbench.workloads.Outcome` into metrics."""

from __future__ import annotations

import statistics

import numpy as np

from .workloads import Outcome, Unit

#: Layers reported as ``<layer>_ms``: mean inclusive milliseconds per unit.
TIMED_LAYERS = (
    "sim.advance", "engine.begin_run", "engine.map", "engine.end_run",
    "combine.local", "combine.global", "combine.serialize",
    "combine.deserialize", "comm.wait", "app.post_combine", "app.convert",
    "scheduler.run", "service.attach",
)


def unit_parts(outcome: Outcome, unit: Unit) -> dict[str, float]:
    """A traced unit's ``layer_wall`` split into parts that add up to it.

    A step is the self time of every recorded layer plus ``driver.self``,
    the driver's own remainder.  A job is submit, queue wait, run (the
    service's measured engine seconds) plus ``driver.self``: service
    bookkeeping around the run and result delivery to the polling client.
    """
    if outcome.unit == "job":
        parts = {k: unit.parts[k] for k in ("submit", "queue_wait", "run")}
    else:
        parts = dict(unit.layers.self_)
    parts["driver.self"] = unit.layer_wall - sum(parts.values())
    return parts


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def end_to_end(outcome: Outcome) -> tuple[dict[str, float], dict[str, int]]:
    """Metric values and the sample count behind each."""
    walls = [u.wall for u in outcome.units]
    n = len(walls)
    values = {
        "throughput_per_s": n / outcome.busy_s,
        "latency_ms_p50": _pct(walls, 50) * 1e3,
        "latency_ms_p90": _pct(walls, 90) * 1e3,
        "setup_s": statistics.median(outcome.setup_s),
    }
    samples = {"throughput_per_s": n, "latency_ms_p50": n, "latency_ms_p90": n,
               "setup_s": len(outcome.setup_s)}
    return values, samples


def per_layer(outcome: Outcome, totals) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of a traced run (means per traced unit)."""
    traced = [u for u in outcome.units if u.traced]
    plain = [u for u in outcome.units if u.traced is False]
    if not traced or not plain:
        raise RuntimeError("a traced run needs both traced and untraced units")
    n = len(traced)

    def mean_ms(get) -> float:
        return sum(get(u) for u in traced) / n * 1e3

    values: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        values[f"{layer}_ms"] = mean_ms(lambda u: u.layers.incl.get(layer, 0.0))
    values["scheduler.self_ms"] = mean_ms(
        lambda u: u.layers.self_.get("scheduler.run", 0.0))
    values["driver.self_ms"] = mean_ms(
        lambda u: unit_parts(outcome, u)["driver.self"])
    starts = totals.calls.get("engine.start", 0)
    values["engine.start_ms"] = (
        totals.incl["engine.start"] / starts * 1e3 if starts else 0.0)
    units = len(outcome.units)
    for name, total in outcome.counts.items():
        values[name] = total / units
    values.update(outcome.values)

    if outcome.unit == "job":
        waits = [u.parts["queue_wait"] for u in traced]
        values["service.queue_wait_ms_p50"] = _pct(waits, 50) * 1e3
        values["service.queue_wait_ms_p90"] = _pct(waits, 90) * 1e3
        values["service.submit_ms"] = statistics.fmean(
            u.parts["submit"] for u in outcome.units) * 1e3
        values["service.run_ms"] = statistics.fmean(
            u.parts["run"] for u in outcome.units) * 1e3
        for kind in {u.kind for u in outcome.units}:
            values[f"service.run_ms.{kind}"] = statistics.fmean(
                u.parts["run"] for u in outcome.units if u.kind == kind) * 1e3

    traced_p50 = statistics.median(u.wall for u in traced)
    plain_p50 = statistics.median(u.wall for u in plain)
    values["trace.traced_ms_p50"] = traced_p50 * 1e3
    values["trace.untraced_ms_p50"] = plain_p50 * 1e3
    values["trace.overhead_pct"] = (traced_p50 / plain_p50 - 1.0) * 100.0
    samples = {"traced": n, "untraced": len(plain), "units": units}
    return values, samples
