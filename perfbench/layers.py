"""Outside-in layer timing: wrappers around the program's public entry points.

The benchmark's traced run replaces a fixed set of entry points (class
methods and module functions) with timing wrappers for the duration of
the traced steps and puts the originals back afterwards; the untraced run
installs nothing.  Every wrapper records into per-thread accumulators:

* ``incl[layer]`` — wall seconds spent inside the layer, children included;
* ``self[layer]`` — the same minus the time of nested recorded layers, so
  the self times of all layers plus the caller's own remainder add up to
  the caller's wall time exactly;
* ``calls[layer]`` — completed calls.

A call nested inside a call of the same layer (``ProcessEngine.begin_run``
calling ``super().begin_run``) is not recorded twice, and a layer may name
the layers under which it is not recorded at all (``KeyedMap.merge_map``
under ``global_combine`` is part of the global combine, not of the local
one).
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

#: Marker attribute set on every wrapper, so a run can prove that no
#: wrapper is installed.
WRAPPED_MARK = "__perfbench_layer__"


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``owner.attr`` is timed as ``layer``."""

    owner: Any
    attr: str
    layer: str
    skip_under: tuple[str, ...] = ()
    #: A leaf calls no other traced layer; it gets a cheaper wrapper
    #: because it runs once per key (``convert``).
    leaf: bool = False


class _ThreadState:
    __slots__ = ("stack", "incl", "self_", "calls", "leaves")

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.incl: dict[str, float] = {}
        self.self_: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: leaf layer -> [seconds, calls, this thread's stack]
        self.leaves: dict[str, list] = {}

    def snapshot(self) -> "Mark":
        mark = Mark(dict(self.incl), dict(self.self_), dict(self.calls))
        for layer, (seconds, calls, _) in list(self.leaves.items()):
            mark.incl[layer] = mark.self_[layer] = seconds
            mark.calls[layer] = calls
        return mark


@dataclass
class Mark:
    """A copy of one thread's accumulators at an instant."""

    incl: dict[str, float]
    self_: dict[str, float]
    calls: dict[str, int]


def _diff(now: dict, then: dict) -> dict:
    return {k: v - then.get(k, 0) for k, v in now.items() if v != then.get(k, 0)}


class Tracer:
    """Installs timing wrappers and keeps per-thread layer accumulators."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._installed: list[tuple[Any, str, bool, Any]] = []
        # Every thread's accumulators, kept after the thread ends.
        self._states: list[_ThreadState] = []

    # -- accumulators --------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._states.append(state)
        return state

    def totals(self) -> Mark:
        """Accumulators summed over every thread that recorded."""
        total = Mark({}, {}, {})
        for state in list(self._states):
            s = state.snapshot()
            for mine, theirs in ((total.incl, s.incl), (total.self_, s.self_),
                                 (total.calls, s.calls)):
                for k, v in list(theirs.items()):
                    mine[k] = mine.get(k, 0) + v
        return total

    def mark(self) -> Mark:
        return self._state().snapshot()

    def since(self, mark: Mark) -> Mark:
        """This thread's accumulator growth since ``mark``."""
        s = self._state().snapshot()
        return Mark(_diff(s.incl, mark.incl), _diff(s.self_, mark.self_),
                    _diff(s.calls, mark.calls))

    # -- wrappers ------------------------------------------------------
    def wrap(self, layer: str, fn: Callable, skip_under: tuple[str, ...] = ()) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            for frame in stack:
                if frame[0] == layer or frame[0] in skip_under:
                    return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                state.incl[layer] = state.incl.get(layer, 0.0) + elapsed
                state.self_[layer] = state.self_.get(layer, 0.0) + elapsed - frame[1]
                state.calls[layer] = state.calls.get(layer, 0) + 1
                if stack:
                    stack[-1][1] += elapsed

        setattr(timed, WRAPPED_MARK, layer)
        return timed

    def wrap_leaf(self, layer: str, fn: Callable) -> Callable:
        """Like :meth:`wrap`, cheaper, for a layer that nests no other."""
        accumulators: dict[int, list] = {}
        get_ident = threading.get_ident

        def accumulator() -> list:
            state = self._state()
            acc = state.leaves.setdefault(layer, [0.0, 0, state.stack])
            accumulators[get_ident()] = acc
            return acc

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                acc = accumulators.get(get_ident()) or accumulator()
                acc[0] += elapsed
                acc[1] += 1
                if acc[2]:
                    acc[2][-1][1] += elapsed

        setattr(timed, WRAPPED_MARK, layer)
        return timed

    def replace(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` until :meth:`uninstall` restores it."""
        own = attr in vars(owner)
        self._installed.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def install(self, targets: list[Target]) -> None:
        if self._installed:
            raise RuntimeError("tracer wrappers are already installed")
        for t in targets:
            original = getattr(t.owner, t.attr)
            wrapper = (self.wrap_leaf(t.layer, original) if t.leaf
                       else self.wrap(t.layer, original, t.skip_under))
            self.replace(t.owner, t.attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, own, original = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @property
    def installed(self) -> bool:
        return bool(self._installed)


def core_targets(app_classes: tuple[type, ...] = ()) -> list[Target]:
    """The program's layer entry points, plus the given apps' callbacks."""
    from repro.comm import LocalComm, SimComm
    from repro.core import scheduler as scheduler_mod
    from repro.core import serialization
    from repro.core.engine import ProcessEngine, SerialEngine, ThreadEngine
    from repro.core.maps import KeyedMap
    from repro.core.scheduler import Scheduler
    from repro.service import SharedStepStore
    from repro.sim import GaussianEmulator, Heat3D

    targets: list[Target] = []
    for sim in (Heat3D, GaussianEmulator):
        targets += [Target(sim, "advance", "sim.advance"),
                    Target(sim, "advance_into", "sim.advance")]
    targets += [Target(Scheduler, "run", "scheduler.run"),
                Target(Scheduler, "run2", "scheduler.run")]
    for engine in (SerialEngine, ThreadEngine, ProcessEngine):
        targets += [Target(engine, "start", "engine.start"),
                    Target(engine, "begin_run", "engine.begin_run"),
                    Target(engine, "map_splits", "engine.map"),
                    Target(engine, "end_run", "engine.end_run")]
    targets += [
        Target(KeyedMap, "merge_map", "combine.local",
               skip_under=("combine.global", "engine.map")),
        Target(scheduler_mod, "global_combine", "combine.global"),
        Target(serialization, "global_combine", "combine.global"),
        Target(serialization, "serialize_map", "combine.serialize"),
        Target(serialization, "deserialize_map", "combine.deserialize"),
    ]
    for comm in (SimComm, LocalComm):
        for op in ("barrier", "bcast", "gather", "allgather", "scatter",
                   "alltoall", "reduce", "allreduce"):
            targets.append(Target(comm, op, "comm.wait"))
    for app in app_classes:
        targets += [Target(app, "post_combine", "app.post_combine", leaf=True),
                    Target(app, "convert", "app.convert", leaf=True)]
    # AnalyticsService.submit is timed by the load generator around each
    # call, and the dispatch point by a per-job wrapper the service
    # workload installs.
    targets.append(Target(SharedStepStore, "attach", "service.attach"))
    return targets


def installed_wrappers(targets: list[Target]) -> list[str]:
    """Entry points among ``targets`` that currently hold a wrapper."""
    return [f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}"
            for t in targets
            if hasattr(getattr(t.owner, t.attr), WRAPPED_MARK)]
