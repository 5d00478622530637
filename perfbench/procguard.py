"""Run deadline and child-process accounting.

A benchmark run must not leave a process or thread behind.  :func:`sweep`
stops the multiprocessing resource tracker (a child of every process that
created a tracked shared-memory segment, still alive after the service
and the process engine are closed), reaps children that already exited,
and kills and waits for any other child of this process, returning one
line per leftover so the run can fail naming them.
"""

from __future__ import annotations

import os
import signal
import threading
from pathlib import Path


class DeadlineExceeded(BaseException):
    """Raised in the main thread when a run outlives its deadline.

    A ``BaseException`` so program code that catches ``Exception`` on the
    main thread cannot swallow it on the way out to the teardown.
    """


def _children() -> list[tuple[int, str]]:
    """``(pid, state)`` of every child of this process, from ``/proc``."""
    me = os.getpid()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # exited while we looked
            continue
        # Fields after the parenthesised command: state, ppid, ...
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == me:
            found.append((int(entry.name), state))
    return found


def _cmdline(pid: int) -> str:
    try:
        raw = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return "?"
    return raw.replace(b"\0", b" ").decode(errors="replace").strip()[:120]


def stop_resource_tracker() -> None:
    """Stop this process's multiprocessing resource tracker, if it runs."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def kill_children() -> list[str]:
    """SIGKILL and reap every live child; describe each one killed."""
    killed = []
    for pid, state in _children():
        if state != "Z":
            killed.append(f"pid {pid} ({_cmdline(pid)})")
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # reaped by its owner meanwhile
            pass
    return killed


def sweep() -> list[str]:
    """Stop the resource tracker, then kill and report leftover children.

    Threads the run started and did not join are reported too (they die
    with the process, so there is nothing to kill).
    """
    stop_resource_tracker()
    left = kill_children()
    main = threading.main_thread()
    left += [f"thread {t.name}" for t in threading.enumerate()
             if t is not main and t.is_alive()]
    return left


class Deadline:
    """Per-run deadline on ``SIGALRM``.

    When ``seconds`` pass, :class:`DeadlineExceeded` is raised in the main
    thread so every ``finally`` block tears its part down.  If teardown
    itself is still running ``grace`` seconds later, the children are
    killed and the process exits with status 3.
    """

    def __init__(self, seconds: float, grace: float):
        self.seconds = seconds
        self.grace = grace
        self._fired = False

    def _on_alarm(self, signum, frame) -> None:
        if self._fired:
            kill_children()
            os.write(2, b"perfbench: teardown outlived its grace period\n")
            os._exit(3)
        self._fired = True
        signal.setitimer(signal.ITIMER_REAL, self.grace)
        raise DeadlineExceeded(f"run exceeded its {self.seconds:.0f} s deadline")

    def __enter__(self) -> "Deadline":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
