"""Self-tests of the benchmark: ``python3 perfbench/selftest.py``.

Checks that

* ``metrics.json`` and ``BENCHMARK.json`` agree on every metric's name,
  unit and direction;
* a child process left running is caught, named and killed, and fails
  the run;
* the untraced run installs no wrapper, and the traced run does;
* in the traced run, the per-layer self times plus the named remainder
  add up to each step's or job's wall time, with no part negative;
* a delay injected around one entry point (``Simulation.advance_into``)
  shows in that layer's metric only.

Exits non-zero if any check fails.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:1] = [str(ROOT), str(ROOT / "src")]

from perfbench import layers, procguard, report, run  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

SHORT_S = 3.0


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_metadata() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = json.loads((BENCH_DIR / "metrics.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        listed = {m["name"]: (m["unit"], m["better"]) for m in bench[kind]}
        described = {name: (m["unit"], m["better"]) for name, m in meta[kind].items()}
        expect(listed == described, f"{kind}: BENCHMARK.json and metrics.json differ: "
               f"{set(listed.items()) ^ set(described.items())}")
    expect({w["name"] for w in bench["workloads"]} == set(meta["unit_of_work"])
           == set(wl.WORKLOADS), "workload lists differ")


def check_leftover_child_fails_run() -> None:
    sleeper: list[subprocess.Popen] = []

    def leaky(cfg: wl.Config) -> wl.Outcome:
        sleeper.append(subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"]))
        outcome = wl.Outcome("step", busy_s=1.0, setup_s=[0.1])
        outcome.units.append(wl.Unit(1.0, False))
        outcome.check(True, "")
        return outcome

    saved = wl.WORKLOADS["insitu-kmeans"]
    wl.WORKLOADS["insitu-kmeans"] = leaky
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            status = run.main(["--workload", "insitu-kmeans", "--seed", "0",
                               "--seconds", "1", "--trace", "0"])
    finally:
        wl.WORKLOADS["insitu-kmeans"] = saved
    expect(status != 0, "a run that left a child process running passed")
    expect(f"pid {sleeper[0].pid} " in printed.getvalue(), "the report does not name the pid")
    expect(sleeper[0].poll() is not None, "the leftover child was not killed and reaped")
    expect(procguard.sweep() == [], "children still listed after the sweep")


def _probe_wrappers(fn) -> tuple[object, set[str]]:
    """Run ``fn()`` while another thread records any wrapper it sees."""
    targets = wl.all_targets()
    seen: set[str] = set()
    done = threading.Event()

    def probe() -> None:
        while not done.is_set():
            seen.update(layers.installed_wrappers(targets))
            time.sleep(0.005)

    thread = threading.Thread(target=probe)
    thread.start()
    try:
        result = fn()
    finally:
        done.set()
        thread.join()
    return result, seen


def check_untraced_installs_nothing() -> None:
    cfg = wl.Config(seed=1, seconds=SHORT_S)
    outcome, seen = _probe_wrappers(lambda: wl.WORKLOADS["insitu-kmeans"](cfg))
    expect(outcome.failed == 0, f"untraced run failed: {outcome.failures}")
    expect(not seen, f"untraced run installed wrappers: {sorted(seen)}")
    traced = wl.Config(seed=1, seconds=SHORT_S, tracer=layers.Tracer())
    _, seen = _probe_wrappers(lambda: wl.WORKLOADS["insitu-kmeans"](traced))
    expect("Scheduler.run" in seen, "the probe did not see the traced run's wrappers")


def _traced(name: str, seconds: float = SHORT_S) -> tuple[wl.Outcome, layers.Tracer]:
    tracer = layers.Tracer()
    outcome = wl.WORKLOADS[name](wl.Config(seed=2, seconds=seconds, tracer=tracer))
    expect(outcome.failed == 0, f"{name}: traced run failed: {outcome.failures}")
    expect(any(u.traced for u in outcome.units), f"{name}: no traced unit")
    return outcome, tracer


def check_layers_add_up() -> None:
    for name in wl.WORKLOADS:
        outcome, _ = _traced(name)
        for unit in (u for u in outcome.units if u.traced):
            parts = report.unit_parts(outcome, unit)
            negative = {k: v for k, v in parts.items() if v < -1e-6}
            expect(not negative, f"{name}: negative parts {negative}")
            expect(abs(sum(parts.values()) - unit.layer_wall) <= 1e-9,
                   f"{name}: parts do not add up to the wall time")
            if outcome.unit == "step":
                top = sum(unit.layers.incl.get(k, 0.0) for k in ("sim.advance", "scheduler.run"))
                inner = sum(v for k, v in parts.items() if k != "driver.self")
                expect(abs(top - inner) <= 1e-6,
                       f"{name}: layer self times {inner} != top-level layers {top}")
            else:
                inner = sum(unit.layers.self_.values())
                expect(inner <= unit.parts["run"] + 1e-3,
                       f"{name}: layers inside a job exceed its run time")


def check_injected_delay_moves_one_layer(delay: float = 0.08) -> None:
    from repro.sim import GaussianEmulator

    seconds = 4.0
    base, tracer = _traced("window-process", seconds)
    before, _ = report.per_layer(base, tracer.totals())
    original = GaussianEmulator.advance_into

    def slow_advance_into(self, out):
        time.sleep(delay)
        return original(self, out)

    GaussianEmulator.advance_into = slow_advance_into
    try:
        slowed, tracer = _traced("window-process", seconds)
    finally:
        GaussianEmulator.advance_into = original
    after, _ = report.per_layer(slowed, tracer.totals())
    grew = after["sim.advance_ms"] - before["sim.advance_ms"]
    expect(grew >= 0.9 * delay * 1e3, f"sim.advance_ms grew by {grew:.1f} ms only")
    for name in after:
        if name.endswith("_ms") and not name.startswith(("sim.", "trace.", "engine.start")):
            moved = abs(after[name] - before[name])
            expect(moved < 0.5 * delay * 1e3,
                   f"{name} moved by {moved:.1f} ms under a delay in sim.advance")


CHECKS = [check_metadata, check_leftover_child_fails_run,
          check_untraced_installs_nothing, check_layers_add_up,
          check_injected_delay_moves_one_layer]


def main() -> int:
    failed = 0
    for check in CHECKS:
        t0 = time.perf_counter()
        try:
            check()
        except CheckFailed as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__} ({time.perf_counter() - t0:.1f} s)")
    leftovers = procguard.sweep()
    if leftovers:
        failed += 1
        print(f"FAIL child processes left by the self-tests: {leftovers}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
