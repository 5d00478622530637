"""The four benchmark workloads.

Each workload sets itself up :data:`SETUPS` times (the last set-up is the
one that is measured), warms up, then measures for the requested window.
A unit of work is one in-situ time step or one service job.  Every output
is checked outside the timed region; a mismatch, exception or refused job
counts as failed.  Everything a workload starts is closed in a
``finally`` block.

Every workload runs the policy a user gets by default (``map_path="auto"``),
so a change of that default shows on all of them.  The seed changes the
generated inputs only: the Heat3D boundary temperature and the initial
centroids, the emulator stream, and the service's step data.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from .layers import Mark, Tracer, core_targets

#: Set-ups per run; their median is ``setup_s``.  The last one is measured.
SETUPS = 5
#: Unmeasured steps between the cold set-up step and the window.
WARMUP_STEPS = 3

# in-situ (Heat3D on two SimCluster ranks)
GRID = (16, 32, 32)
RANKS = 2
K, DIMS, LLOYD_ITERS = 5, 4, 3
GRID_SIZE = 2

# window-process (single rank, process engine)
WINDOW_ELEMENTS = 16384
WIN = 7
ENGINE_WORKERS = 2
#: Steps per TimeSharingDriver.run call (even: both buffer slots cycle).
DRIVER_BATCH = 2

# service-mixed
SERVICE_WORKERS = 2
SERVICE_ELEMENTS = 8192
TENANTS = 8
JOB_KINDS = ("histogram", "minmax", "grid_aggregation", "moving_average")
POLL_S = 0.0005
#: Traced runs of the service alternate traced and untraced phases of
#: this length; a job that straddles a switch counts in neither.
TRACE_PHASE_S = 1.0

#: Seconds to wait for one thread or job while tearing down.
JOIN_S = 20.0

# Output tolerances (relative and absolute): the references sum in a
# different order than the runtime's scalar loop.
KMEANS_TOL = 1e-9
GRID_TOL = 1e-12
WINDOW_TOL = 1e-12


@dataclass
class Unit:
    """One measured step or job."""

    wall: float
    #: None: a service job that was in flight when tracing switched
    traced: bool | None
    #: layer times of a traced unit (per rank on the SPMD workloads)
    layers: Mark | None = None
    #: the wall time ``layers`` add up to: ``wall``, or on the SPMD
    #: workloads the mean of the ranks' step times
    layer_wall: float | None = None
    #: service jobs: the submit / queue-wait / run split of ``wall``.
    parts: dict[str, float] = field(default_factory=dict)
    kind: str = ""

    def __post_init__(self) -> None:
        if self.layer_wall is None:
            self.layer_wall = self.wall


@dataclass
class Outcome:
    unit: str
    units: list[Unit] = field(default_factory=list)
    #: seconds the measured units took, the throughput denominator
    busy_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: exact program counters, summed over the measured units
    counts: dict[str, float] = field(default_factory=dict)
    #: per-layer values that are not per unit (peaks, service totals)
    values: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def fail(self, what: str) -> None:
        self.check(False, what)


@dataclass
class Config:
    seed: int
    seconds: float
    tracer: Tracer | None = None


class _Plan:
    """What the next step is: set-up, warm-up, measured (traced or not), stop.

    In a traced run the wrappers are installed for the set-up and every
    other measured step, so the untraced steps in between give the
    tracing overhead under the same conditions.
    """

    def __init__(self, cfg: Config, measure: bool, targets):
        self.cfg = cfg
        self.measure = measure
        self.targets = targets
        self.issued = 0
        self.warm_left = WARMUP_STEPS
        self.window_start: float | None = None
        self.measured = 0

    def next(self) -> str:
        if self.issued == 0:
            cmd = "setup"
        elif not self.measure:
            cmd = "stop"
        elif self.warm_left > 0:
            self.warm_left -= 1
            cmd = "warm"
        else:
            now = perf_counter()
            if self.window_start is None:
                self.window_start = now
            if now - self.window_start >= self.cfg.seconds:
                cmd = "stop"
            else:
                traced = self.cfg.tracer is not None and self.measured % 2 == 0
                cmd = "traced" if traced else "plain"
                self.measured += 1
        self.issued += 1
        tracer = self.cfg.tracer
        if tracer is not None:
            want = cmd in ("setup", "traced")
            if want and not tracer.installed:
                tracer.install(self.targets)
            elif not want and tracer.installed:
                tracer.uninstall()
        return cmd


MEASURED = ("traced", "plain")


def _counter_delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _engine_counts(snap: dict) -> dict[str, float]:
    """The exact per-layer counters of one telemetry snapshot."""
    counters = snap["counters"]
    ops = snap["ops"]
    out = {name: counters.get(name, 0) for name in (
        "run.accumulate_calls", "run.vector_reduce_calls",
        "run.batch_reduce_calls", "run.early_emissions",
        "engine.residency.hits", "engine.residency.misses",
        "engine.residency.bytes_saved")}
    for op, metric in (("engine.dispatch", "engine.dispatch_bytes"),
                       ("engine.state.core", "engine.state_core_bytes"),
                       ("engine.state.delta", "engine.state_delta_bytes")):
        out[metric] = ops.get(op, {}).get("bytes", 0)
    return out


def _mean_mark(marks: list[Mark]) -> Mark:
    mean = Mark({}, {}, {})
    for mark in marks:
        for mine, theirs in ((mean.incl, mark.incl), (mean.self_, mark.self_),
                             (mean.calls, mark.calls)):
            for k, v in theirs.items():
                mine[k] = mine.get(k, 0) + v / len(marks)
    return mean


def _add_counts(outcome: Outcome, delta: dict[str, float]) -> None:
    for k, v in delta.items():
        outcome.counts[k] = outcome.counts.get(k, 0) + v


def _peak_objects(outcome: Outcome, peak: int) -> None:
    outcome.values["run.peak_red_objects"] = max(
        outcome.values.get("run.peak_red_objects", 0), peak)


# ---------------------------------------------------------------------------
# in-situ workloads: Heat3D on two SimCluster ranks (paper Listing 1 loop)
# ---------------------------------------------------------------------------
@dataclass
class _InsituSpec:
    app_class: type
    make_app: Callable  # (comm) -> Scheduler
    out_shape: Callable  # (partition_elements) -> shape
    run_step: Callable  # (app, partition, out, comm) -> None
    check: Callable  # (state, field, out) -> (ok, message)


def _kmeans_spec(rng: np.random.Generator, hot: float) -> _InsituSpec:
    from repro.analytics import KMeans
    from repro.analytics.kmeans import reference_kmeans
    from repro.core import ExecutionPolicy

    init = rng.uniform(0.0, hot, size=(K, DIMS))
    policy = ExecutionPolicy(chunk_size=DIMS, num_iters=LLOYD_ITERS,
                             extra_data=init)

    def run_step(app, partition, out, comm):
        app.run(partition, out)  # centroids carry over between steps

    def check(state, global_field, out):
        prev = state.get("centroids", init)
        ref = reference_kmeans(global_field, prev, LLOYD_ITERS)
        state["centroids"] = out.copy()
        ok = np.allclose(out, ref, rtol=KMEANS_TOL, atol=KMEANS_TOL)
        return ok, f"centroids differ from reference_kmeans by {np.max(np.abs(out - ref)):.3g}"

    return _InsituSpec(KMeans, lambda comm: KMeans(policy, comm, dims=DIMS),
                       lambda n: (K, DIMS), run_step, check)


def _downsample_spec(rng: np.random.Generator, hot: float) -> _InsituSpec:
    from repro.analytics import GridAggregation
    from repro.analytics.grid_aggregation import reference_grid_aggregation
    from repro.core import ExecutionPolicy

    def run_step(app, partition, out, comm):
        n = partition.shape[0]
        app.reset()  # a per-step snapshot, not a running total
        app.run(partition, out, global_offset=comm.rank * n,
                total_len=n * comm.size)

    def check(state, global_field, out):
        ref = reference_grid_aggregation(global_field, GRID_SIZE)
        ok = np.allclose(out, ref, rtol=GRID_TOL, atol=GRID_TOL)
        return ok, "grid means differ from reference_grid_aggregation"

    return _InsituSpec(
        GridAggregation,
        lambda comm: GridAggregation(ExecutionPolicy(), comm, grid_size=GRID_SIZE),
        lambda n: (n * RANKS // GRID_SIZE,), run_step, check)


def _insitu_session(cfg: Config, spec: _InsituSpec, hot: float, measure: bool,
                    outcome: Outcome) -> None:
    from repro.comm import SimCluster, TrafficProfiler
    from repro.sim import Heat3D

    plan = _Plan(cfg, measure, core_targets((spec.app_class,)))
    tracer = cfg.tracer
    profiler = TrafficProfiler() if tracer is not None else None
    t_start = perf_counter()
    cluster = SimCluster(RANKS, profiler=profiler)
    errors: dict[int, BaseException] = {}
    rank_counts: list[dict] = [{} for _ in range(RANKS)]
    comm_ops: dict[str, dict] = {}
    check_state: dict = {}

    def record(cmd: str, t_end: float, ranks: list, out) -> None:
        """Rank 0, after a step: check it and keep its timings.

        ``ranks`` holds each rank's (partition, step wall, layers).  The
        step's wall time is rank 0's; its layers are the mean per rank.
        """
        global_field = np.concatenate([r[0] for r in ranks])
        ok, message = spec.check(check_state, global_field, out)
        outcome.check(ok, f"step {plan.issued - 1}: {message}")
        wall = ranks[0][1]
        if cmd == "setup":
            outcome.setup_s.append(t_end - t_start)
        elif cmd in MEASURED:
            unit = Unit(wall, cmd == "traced")
            if unit.traced:
                unit.layers = _mean_mark([r[2] for r in ranks])
                unit.layer_wall = statistics.fmean(r[1] for r in ranks)
            outcome.units.append(unit)
            outcome.busy_s += wall

    def body(comm) -> None:
        rank0 = comm.rank == 0
        sim = Heat3D(GRID, comm, hot_value=hot)
        app = spec.make_app(comm)
        # The benchmark's own step commands and output gathers run on a
        # duplicate communicator the traffic profiler does not see.
        control = comm.dup()
        control.profiler = None
        before = None
        try:
            while True:
                cmd = plan.next() if rank0 else None
                if rank0 and profiler is not None:
                    # Rank 1 is between steps: the profiler is quiescent.
                    if cmd in MEASURED and "before" not in comm_ops:
                        comm_ops["before"] = profiler.snapshot()
                    elif cmd == "stop" and "before" in comm_ops:
                        comm_ops["after"] = profiler.snapshot()
                cmd = control.bcast(cmd, root=0)
                if cmd == "stop":
                    break
                if cmd in MEASURED and before is None:
                    before = _engine_counts(app.telemetry_snapshot())
                timed = cmd == "traced"
                mark = tracer.mark() if timed else None
                t0 = perf_counter()
                partition = sim.advance()
                out = np.full(spec.out_shape(partition.shape[0]), np.nan)
                spec.run_step(app, partition, out, comm)
                t1 = perf_counter()
                layers = tracer.since(mark) if timed else None
                ranks = control.gather((partition, t1 - t0, layers), root=0)
                if rank0:
                    record(cmd, t1, ranks, out)
            if before is not None:
                rank_counts[comm.rank] = _counter_delta(
                    _engine_counts(app.telemetry_snapshot()), before)
            _peak_objects(outcome, app.telemetry.counter("run.peak_red_objects"))
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors[comm.rank] = exc
            cluster.abort(f"rank {comm.rank} raised {type(exc).__name__}: {exc}",
                          origin_rank=comm.rank, origin_exc_type=type(exc).__name__)
        finally:
            app.close()

    threads = [threading.Thread(target=body, args=(cluster.comm(r),),
                                name=f"perfbench-rank-{r}", daemon=True)
               for r in range(RANKS)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            while t.is_alive():
                t.join(0.25)
    except BaseException:
        cluster.abort("benchmark teardown")
        raise
    finally:
        for t in threads:
            t.join(JOIN_S)
            if t.is_alive():
                outcome.fail(f"{t.name} still running after teardown")
        if tracer is not None and tracer.installed:
            tracer.uninstall()
    for rank, exc in sorted(errors.items()):
        outcome.fail(f"rank {rank}: {type(exc).__name__}: {exc}")
    for counts in rank_counts:
        _add_counts(outcome, counts)
    if "after" in comm_ops:
        _add_counts(outcome, _comm_counts(comm_ops["after"], comm_ops["before"]))


def _comm_counts(after: dict, before: dict) -> dict[str, float]:
    out = {"wire.bytes": 0, "comm.calls": 0, "comm.bytes": 0}
    for op, (calls, nbytes) in after.items():
        c0, b0 = before.get(op, (0, 0))
        if op.startswith("wire."):
            out["wire.bytes"] += nbytes - b0
        else:
            out["comm.calls"] += calls - c0
            out["comm.bytes"] += nbytes - b0
    return out


def _sessions(outcome: Outcome, session: Callable[[bool, Outcome], None]) -> Outcome:
    """Run :data:`SETUPS` sessions; only the last one measures."""
    for i in range(SETUPS):
        session(i == SETUPS - 1, outcome)
        if outcome.failed:
            break
    return outcome


def _insitu(make_spec: Callable) -> Callable[[Config], Outcome]:
    def run(cfg: Config) -> Outcome:
        rng = np.random.default_rng(cfg.seed)
        hot = float(rng.uniform(80.0, 120.0))
        spec = make_spec(rng, hot)
        return _sessions(Outcome("step"), lambda measure, outcome: _insitu_session(
            cfg, spec, hot, measure, outcome))
    return run


# ---------------------------------------------------------------------------
# window-process: double-buffered TimeSharingDriver on the process engine
# ---------------------------------------------------------------------------
def _window_session(cfg: Config, stream_seed: int, measure: bool,
                    outcome: Outcome) -> None:
    from repro.analytics import MovingAverage
    from repro.analytics.moving_average import reference_moving_average
    from repro.core import EnginePolicy, ExecutionPolicy, TimeSharingDriver
    from repro.sim import GaussianEmulator

    plan = _Plan(cfg, measure, core_targets((MovingAverage,)))
    tracer = cfg.tracer
    t_start = perf_counter()
    sim = GaussianEmulator(WINDOW_ELEMENTS, seed=stream_seed)
    app = MovingAverage(ExecutionPolicy(engine=EnginePolicy(
        backend="process", num_threads=ENGINE_WORKERS)), win_size=WIN)
    state = {"cmd": plan.next(), "since": t_start, "before": None}
    state["mark"] = tracer.mark() if tracer is not None else None

    def per_step(step, scheduler, out) -> None:
        t_end = perf_counter()
        cmd = state["cmd"]
        layers = tracer.since(state["mark"]) if cmd == "traced" else None
        ref = reference_moving_average(scheduler.data_, WIN)
        ok = np.allclose(out, ref, rtol=WINDOW_TOL, atol=WINDOW_TOL)
        outcome.check(ok, "window output differs from reference_moving_average")
        scheduler.reset()  # each step's windows start empty
        wall = t_end - state["since"]
        if cmd == "setup":
            outcome.setup_s.append(t_end - t_start)
        elif cmd in MEASURED:
            outcome.units.append(Unit(wall, cmd == "traced", layers))
            outcome.busy_s += wall
        nxt = plan.next() if cmd != "stop" else "stop"
        if nxt in MEASURED and state["before"] is None:
            state["before"] = _engine_counts(app.telemetry_snapshot())
        state["cmd"] = nxt
        state["mark"] = tracer.mark() if nxt == "traced" else None
        state["since"] = perf_counter()

    driver = TimeSharingDriver(
        sim, app, multi_key=True,
        out_factory=lambda partition: np.full(partition.shape[0], np.nan),
        per_step=per_step, double_buffer=True)
    try:
        driver.run(1)
        while state["cmd"] != "stop":
            state["since"] = perf_counter()
            driver.run(DRIVER_BATCH)
        if state["before"] is not None:
            _add_counts(outcome, _counter_delta(
                _engine_counts(app.telemetry_snapshot()), state["before"]))
        _peak_objects(outcome, app.telemetry.counter("run.peak_red_objects"))
    finally:
        if tracer is not None and tracer.installed:
            tracer.uninstall()
        app.close()


def _window(cfg: Config) -> Outcome:
    rng = np.random.default_rng(cfg.seed)
    stream_seed = int(rng.integers(2**31))
    return _sessions(Outcome("step"), lambda measure, outcome: _window_session(
        cfg, stream_seed, measure, outcome))


# ---------------------------------------------------------------------------
# service-mixed: closed loop of 8 tenants over one AnalyticsService
# ---------------------------------------------------------------------------
@dataclass
class _Job:
    tenant: str
    kind: str
    handle: object
    t_submit: float
    t_submitted: float
    phase: int


def _same_result(result: dict, oracle: dict) -> bool:
    if set(result) != set(oracle):
        return False
    for name, ref in oracle.items():
        got = np.asarray(result[name])
        ref = np.asarray(ref)
        if got.dtype != ref.dtype or got.shape != ref.shape or got.tobytes() != ref.tobytes():
            return False
    return True


def _service_session(cfg: Config, data: np.ndarray, oracles: dict, measure: bool,
                     outcome: Outcome) -> None:
    from repro.analytics import GridAggregation, Histogram, MinMax, MovingAverage
    from repro.service import (AdmissionController, AdmissionError,
                               AnalyticsService, JobSpec)

    tracer = cfg.tracer
    targets = core_targets((Histogram, MinMax, GridAggregation, MovingAverage))
    # A worker thread reports dispatch and completion of a job to the
    # admission controller.  Each tenant has one job in flight, so the
    # tenant names the job: its layers are the worker thread's growth
    # between the two calls.
    started: dict[str, tuple[float, Mark]] = {}
    ran: dict[str, tuple[float, Mark]] = {}

    def install() -> None:
        tracer.install(targets)
        on_dispatch = AdmissionController.on_dispatch
        on_complete = AdmissionController.on_complete

        def traced_dispatch(admission, tenant):
            started[tenant] = (perf_counter(), tracer.mark())
            return on_dispatch(admission, tenant)

        def traced_complete(admission, tenant, engine_seconds):
            if tenant in started:
                t_dispatch, mark = started.pop(tenant)
                ran[tenant] = (t_dispatch, tracer.since(mark))
            return on_complete(admission, tenant, engine_seconds)

        tracer.replace(AdmissionController, "on_dispatch", traced_dispatch)
        tracer.replace(AdmissionController, "on_complete", traced_complete)

    t_start = perf_counter()
    if tracer is not None:
        install()
    service = AnalyticsService(workers=SERVICE_WORKERS)
    outstanding: dict[str, _Job] = {}
    rounds = {f"t{i}": i % len(JOB_KINDS) for i in range(TENANTS)}
    engine_seconds = {tenant: 0.0 for tenant in rounds}
    phase = 0

    def submit(tenant: str) -> None:
        kind = JOB_KINDS[rounds[tenant] % len(JOB_KINDS)]
        rounds[tenant] += 1
        t0 = perf_counter()
        try:
            handle = service.submit(JobSpec(tenant=tenant, workload=kind, step="step"))
        except AdmissionError as exc:
            outcome.fail(f"{tenant} {kind} refused: {exc}")
            return
        outstanding[tenant] = _Job(tenant, kind, handle, t0, perf_counter(), phase)

    def finish(job: _Job) -> bool:
        try:
            ok = _same_result(job.handle.result(timeout=JOIN_S), oracles[job.kind])
            outcome.check(ok, f"{job.kind} job differs from its solo oracle")
        except Exception as exc:  # noqa: BLE001 - counted as a failed job
            outcome.fail(f"{job.kind} job raised {type(exc).__name__}: {exc}")
            ok = False
        return ok

    try:
        service.register_step("step", data)
        service.start()
        # Set-up ends with the first cold job of every kind, one tenant each.
        cold = list(rounds)[:len(JOB_KINDS)]
        for tenant in cold:
            submit(tenant)
        for tenant in cold:
            finish(outstanding.pop(tenant))
        outcome.setup_s.append(perf_counter() - t_start)
        if tracer is not None:
            tracer.uninstall()
        if not measure:
            return
        for tenant in rounds:
            submit(tenant)
        warm_until = len(JOB_KINDS)  # every tenant has run every job kind
        completed = {t: 0 for t in rounds}
        window_start = window_end = None
        next_switch = None
        while outstanding:
            now = perf_counter()
            if window_start is None and min(completed.values()) >= warm_until:
                window_start, window_end = now, now + cfg.seconds
                next_switch = now
            if next_switch is not None and tracer is not None and now >= next_switch:
                phase += 1
                if phase % 2 == 1:
                    install()
                elif tracer.installed:
                    tracer.uninstall()
                next_switch = min(now + TRACE_PHASE_S, window_end)
            for tenant, job in list(outstanding.items()):
                if not job.handle.done:
                    continue
                stamp = perf_counter()
                del outstanding[tenant]
                dispatched = ran.pop(tenant, None)
                if finish(job):
                    completed[tenant] += 1
                    if window_start is not None and stamp <= window_end:
                        _measured_job(outcome, job, stamp, phase, dispatched,
                                      tracer is not None)
                        engine_seconds[tenant] += job.handle.engine_seconds
                if window_end is None or stamp < window_end:
                    submit(tenant)
            time.sleep(POLL_S)
        if window_start is None:
            outcome.fail("service never finished warming up")
            return
        outcome.busy_s = window_end - window_start
        total = sum(engine_seconds.values())
        squares = sum(v * v for v in engine_seconds.values())
        snap = service.telemetry.snapshot()["counters"]
        outcome.values.update({
            # Jain index over per-tenant engine seconds
            "service.fairness": total * total / (len(engine_seconds) * squares),
            "service.shared_hit_rate": service.store.hit_rate(),
            "service.seats_created": snap.get("service.seats.created", 0),
            "service.seats_reused": snap.get("service.seats.reused", 0),
            "service.rejected": snap.get("service.rejected", 0),
        })
    finally:
        if tracer is not None and tracer.installed:
            tracer.uninstall()
        for job in outstanding.values():  # torn down mid-window
            job.handle.wait(JOIN_S)
        service.close(timeout=JOIN_S)


def _measured_job(outcome: Outcome, job: _Job, stamp: float, phase: int,
                  dispatched: tuple | None, traced_run: bool) -> None:
    """Keep a measured job's numbers (not its result, so memory stays flat)."""
    handle = job.handle
    _add_counts(outcome, _engine_counts({"counters": handle.counters, "ops": {}}))
    _peak_objects(outcome, handle.counters.get("run.peak_red_objects", 0))
    unit = Unit(stamp - job.t_submit, False, kind=job.kind,
                parts={"run": handle.engine_seconds,
                       "submit": job.t_submitted - job.t_submit})
    if traced_run and (job.phase != phase or (phase % 2 and dispatched is None)):
        unit.traced = None  # tracing switched while it was in flight
    elif traced_run and phase % 2:
        t_dispatch, layers = dispatched
        unit.traced = True
        unit.layers = layers
        unit.parts["queue_wait"] = t_dispatch - job.t_submitted
    outcome.units.append(unit)


def _service(cfg: Config) -> Outcome:
    from repro.service import execute_workload, job_policy
    from repro.verify.workloads import get_workload

    data = np.random.default_rng(cfg.seed).normal(size=SERVICE_ELEMENTS)
    oracles = {}
    for kind in JOB_KINDS:
        w = get_workload(kind)
        oracles[kind] = execute_workload(w, job_policy(w, None, data), data)[0]
    return _sessions(Outcome("job"), lambda measure, outcome: _service_session(
        cfg, data, oracles, measure, outcome))


def all_targets() -> list:
    """Every entry point a traced run of any workload wraps."""
    from repro.analytics import GridAggregation, Histogram, KMeans, MinMax, MovingAverage

    return core_targets((KMeans, GridAggregation, MovingAverage, Histogram, MinMax))


#: Workload name -> run function.
WORKLOADS: dict[str, Callable[[Config], Outcome]] = {
    "insitu-kmeans": _insitu(_kmeans_spec),
    "insitu-downsample": _insitu(_downsample_spec),
    "window-process": _window,
    "service-mixed": _service,
}
