"""The fork-based task pool behind the conformance campaign.

:class:`TaskPool` dispatches independent tasks greedily to a fixed band
of forked workers and merges results by task index, so the output list
is independent of scheduling.  The conformance campaign
(:mod:`repro.remix.campaign`) fans its (grain x scenario x fault x seed)
matrix through it via the ``fork`` execution backend.  Model checking
itself (``check``/``bugs``/``protocol``) always runs in one process.

The pool requires the ``fork`` start method (task closures hold lambdas
that cannot be pickled; forked children inherit them by memory image).
Call :func:`available` before constructing one.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Hand-off slot for fork inheritance: set immediately before starting a
#: child process, cleared right after.  Forked children read it once.
_HANDOFF: Any = None


def available() -> bool:
    """True when fork-based worker processes can be used on this host."""
    return "fork" in mp.get_all_start_methods()


def _task_worker_main(conn) -> None:
    """Worker loop: receive (index, task), apply the inherited function,
    reply (index, ok, payload)."""
    worker_fn: Callable[[Any], Any] = _HANDOFF
    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            index, task = message
            try:
                conn.send((index, True, worker_fn(task)))
            except Exception as error:  # surfaced in the parent
                conn.send((index, False, repr(error)))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        conn.close()


class TaskPool:
    """Map independent tasks over forked workers, deterministically.

    Dispatch is greedy -- each worker receives a new task as soon as it
    reports the previous one -- but results are slotted by task index,
    so :meth:`map` returns the same list whatever the scheduling or the
    worker count.  Tasks must therefore be self-contained (carry their
    own seeds) and results picklable.

    The pool owns the process/pipe lifecycle of its workers.  The worker
    function is retained so a supervised pool can fork *replacement*
    workers after a watchdog kill (:meth:`spawn_worker`).
    """

    def __init__(
        self,
        worker_fn: Callable[[Any], Any],
        workers: int,
        supervisor: Optional[Any] = None,
    ):
        """``supervisor`` is an optional
        :class:`~repro.checker.backends.supervision.TaskSupervisor`;
        without one the pool keeps its historical semantics (no
        timeouts, unbounded immediate retries)."""
        self._worker_fn = worker_fn
        self.supervisor = supervisor
        self._initial_workers = max(1, workers)
        self.connections: list = []
        self.processes: list = []
        self._owner: Dict[int, Any] = {}  # connection fileno -> process
        for _ in range(self._initial_workers):
            self.spawn_worker()

    def spawn_worker(self) -> Any:
        """Fork one (more) worker; returns its parent-side pipe end."""
        global _HANDOFF
        context = mp.get_context("fork")
        _HANDOFF = self._worker_fn
        try:
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_task_worker_main, args=(child_end,), daemon=True
            )
            process.start()
            child_end.close()
        finally:
            _HANDOFF = None
        self.connections.append(parent_end)
        self.processes.append(process)
        self._owner[parent_end.fileno()] = process
        return parent_end

    def process_of(self, connection) -> Any:
        """The worker process behind a pipe end (``None`` if reaped)."""
        try:
            return self._owner.get(connection.fileno())
        except OSError:  # pragma: no cover - closed pipe
            return None

    def reap(self, connection) -> None:
        """Kill and join one worker (watchdog path): the task it was
        running has exceeded its deadline, so a graceful shutdown frame
        would never be read."""
        process = self.process_of(connection)
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=2.0)
        try:
            del self._owner[connection.fileno()]
        except (KeyError, OSError):  # pragma: no cover
            pass
        if connection in self.connections:
            self.connections.remove(connection)
        try:
            connection.close()
        except OSError:  # pragma: no cover
            pass

    def terminate(self) -> None:
        """Interrupt path: kill and reap every worker *now*.

        Called on SIGINT/SIGTERM (KeyboardInterrupt/SystemExit inside
        :meth:`map`) so a cancelled campaign leaves no orphaned worker
        processes behind; safe to call more than once and followed by
        the usual ``close()``."""
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck in a syscall
                process.kill()
                process.join(timeout=1.0)
        for connection in self.connections:
            try:
                connection.close()
            except OSError:  # pragma: no cover
                pass
        self.connections = []
        self.processes = []
        self._owner = {}

    def close(self) -> None:
        for connection in self.connections:
            try:
                connection.send(None)
            except (BrokenPipeError, OSError):
                pass
        for process in self.processes:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover
                process.terminate()
                process.join(timeout=1.0)
        for connection in self.connections:
            connection.close()
        self.connections = []
        self.processes = []
        self._owner = {}

    def map(
        self,
        tasks: Sequence[Any],
        deadline: Optional[float] = None,
        on_result: Optional[Callable[[int, Any, Any], None]] = None,
    ) -> List[Optional[Any]]:
        """Run every task; results arrive in task order.

        ``deadline`` is a ``time.monotonic()`` timestamp: tasks not yet
        dispatched when it passes are skipped and come back as ``None``
        (the caller decides how to report them).  A task that raises in
        a worker re-raises here as :class:`RuntimeError`.  A worker that
        dies mid-task (OOM kill, segfault) is dropped and its in-flight
        task requeued onto the survivors; with no survivors the
        remaining tasks come back as ``None``.

        With a supervisor attached, three more rules apply: a task
        running past ``policy.task_timeout`` has its worker killed by
        the watchdog and is retried after exponential backoff; retries
        are bounded; and a poison task (repeated worker kills) is
        quarantined as ``None`` instead of draining the pool.  The pool
        forks replacement workers (bounded by the policy) when failures
        would otherwise leave it empty.

        ``on_result(index, task, result)`` fires in *completion* order
        as results arrive (the streaming hook behind campaign events);
        it never affects the returned list.  On KeyboardInterrupt or
        SystemExit every worker is terminated and reaped before the
        exception propagates -- Ctrl-C never orphans workers.
        """
        try:
            return self._map(tasks, deadline, on_result)
        except (KeyboardInterrupt, SystemExit):
            self.terminate()
            raise

    def _map(
        self,
        tasks: Sequence[Any],
        deadline: Optional[float],
        on_result: Optional[Callable[[int, Any, Any], None]],
    ) -> List[Optional[Any]]:
        supervisor = self.supervisor
        if supervisor is not None:
            supervisor.begin_map()
        timeout = (
            supervisor.policy.task_timeout if supervisor is not None else None
        )
        results: List[Optional[Any]] = [None] * len(tasks)
        active: Dict[Any, int] = {}
        started: Dict[Any, float] = {}
        retries: List[Tuple[float, int]] = []  # (ready_at, index)
        next_task = 0

        def pending_work(now: float) -> bool:
            return bool(retries) or next_task < len(tasks)

        def dispatch(connection) -> None:
            nonlocal next_task
            now = time.monotonic()
            while True:
                if retries and retries[0][0] <= now:
                    index = retries.pop(0)[1]
                elif next_task < len(tasks):
                    index = next_task
                    next_task += 1
                    if deadline is not None and now >= deadline:
                        continue  # skipped: stays None
                else:
                    return
                connection.send((index, tasks[index]))
                active[connection] = index
                started[connection] = now
                return

        def ensure_capacity() -> None:
            """Fork a replacement worker when failures emptied the band
            but work remains (supervised pools only, bounded)."""
            if supervisor is None or self.connections:
                return
            if not pending_work(time.monotonic()):
                return
            if not supervisor.respawn_allowed(self._initial_workers):
                return
            supervisor.worker_respawned()
            self.spawn_worker()

        def handle_failure(connection, verdict_fn) -> None:
            """Shared death/timeout bookkeeping: retire the connection,
            then retry (with backoff) or quarantine its task."""
            index = active.pop(connection)
            started.pop(connection, None)
            if supervisor is None:
                retries.append((0.0, index))
                return
            if verdict_fn(index, tasks[index]) == "retry":
                delay = supervisor.backoff_delay(index)
                supervisor.task_retried(index, tasks[index], delay)
                retries.append((time.monotonic() + delay, index))
                retries.sort()
            # quarantine: the slot stays None, recorded by the supervisor.

        for connection in list(self.connections):
            dispatch(connection)
        while active or retries:
            if not active:
                # Only backoff-delayed retries remain: sleep until the
                # first is ready, then feed an idle (possibly respawned)
                # worker.
                ensure_capacity()
                idle = [c for c in self.connections if c not in active]
                if not idle:
                    break  # no workers and no respawn budget: stay None
                wait = max(0.0, retries[0][0] - time.monotonic())
                if wait:
                    time.sleep(min(wait, 0.2))
                for connection in idle:
                    dispatch(connection)
                continue
            tick = 0.2
            if timeout is not None:
                now = time.monotonic()
                expiries = [
                    started[c] + timeout - now for c in active
                ]
                tick = max(0.01, min(0.2, min(expiries)))
            ready = mp_connection.wait(list(active), timeout=tick)
            for connection in ready:
                try:
                    index, ok, payload = connection.recv()
                except (EOFError, OSError):
                    # The worker died without replying: requeue its task
                    # for a surviving worker (or quarantine poison).
                    self.reap(connection)
                    handle_failure(
                        connection,
                        supervisor.worker_died if supervisor else None,
                    )
                    ensure_capacity()
                    continue
                del active[connection]
                started.pop(connection, None)
                if not ok:
                    raise RuntimeError(f"task {index} failed: {payload}")
                results[index] = payload
                if on_result is not None:
                    on_result(index, tasks[index], payload)
                dispatch(connection)
            if timeout is not None:
                now = time.monotonic()
                for connection in [
                    c
                    for c, t0 in started.items()
                    if c in active and now - t0 >= timeout
                ]:
                    # Watchdog: the task ran past its hard deadline; the
                    # worker is wedged, kill it and retry the task.
                    self.reap(connection)
                    handle_failure(connection, supervisor.task_timed_out)
                    ensure_capacity()
            if not active:
                # Workers may be idle after failures: hand them work.
                for connection in [
                    c for c in self.connections if c not in active
                ]:
                    dispatch(connection)
        return results
