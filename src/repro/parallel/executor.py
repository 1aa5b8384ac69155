"""The sharded fleet executor: sequential and multiprocessing backends.

:class:`FleetExecutor` runs per-member fleet work either in-process (the
``sequential`` backend — the default, the fallback, and the reference
semantics) or across persistent ``multiprocessing`` workers (the
``process`` backend, one worker per shard). Both backends execute the
same member code; determinism rests on three rules that callers must
follow and the parity/property suites enforce:

1. **Keyed substreams** — every member derives its randomness from
   :func:`~repro.common.rng.substream` keyed by the member's fleet
   index, never from a generator shared across members, so a member's
   behaviour does not depend on which shard runs it.
2. **Index-tagged outputs** — workers return ``(member_index, payload)``
   pairs; the executor re-merges them in canonical member order
   (:func:`~repro.parallel.reduce.merge_member_outputs`), so results do
   not depend on shard iteration or completion order.
3. **Snapshot isolation** — a worker only sees the state it was handed
   at setup plus per-step commands; shared mutable state (the tuner
   repository, the live trace recorder) stays with the coordinator and
   is updated only between steps, identically under both backends.

A worker process that dies — killed, OOM, or an exception inside the
task — surfaces as :class:`WorkerCrashed` (a typed error carrying the
shard, exit code and remote traceback), never as a hang: the coordinator
polls worker liveness while waiting on results.

Host-level waiting in this module uses the wall clock, which is fine —
the executor is harness infrastructure, not simulation; simulated time
is threaded through the commands and outputs it transports.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from collections.abc import Callable, Sequence
from multiprocessing.connection import Connection
from typing import Any

from repro.parallel.stats import SessionStats, StepStats

__all__ = ["FleetExecutor", "FleetSession", "WorkerCrashed", "partition_members"]

#: Seconds between liveness checks while waiting on a worker result.
_POLL_INTERVAL_S = 0.05


def _isolate(value: Any) -> Any:
    """Give *value* an object graph independent of its siblings.

    Task results that came out of one chunk's unpickle share references
    (pickle memoization); results computed in-process share whatever the
    task function shared. Round-tripping each result on its own makes the
    returned object graphs — and therefore any bytes later derived from
    them — identical for every backend, worker count and chunking.
    """
    return pickle.loads(pickle.dumps(value))


class WorkerCrashed(RuntimeError):
    """A shard worker died or raised instead of returning a result."""

    def __init__(
        self,
        shard: int,
        reason: str,
        exitcode: int | None = None,
        remote_traceback: str | None = None,
    ) -> None:
        detail = f"shard {shard} worker: {reason}"
        if exitcode is not None:
            detail += f" (exit code {exitcode})"
        super().__init__(detail)
        self.shard = shard
        self.reason = reason
        self.exitcode = exitcode
        self.remote_traceback = remote_traceback

    def __reduce__(
        self,
    ) -> tuple[type, tuple[int, str, int | None, str | None]]:
        # Default exception pickling would replay ``args`` (the rendered
        # message) into ``__init__``'s four parameters; rebuild from the
        # structured fields instead.
        return (
            type(self),
            (self.shard, self.reason, self.exitcode, self.remote_traceback),
        )


def partition_members(n_members: int, n_shards: int) -> list[list[int]]:
    """Canonical contiguous partition of ``range(n_members)`` into shards.

    Shard sizes differ by at most one, earlier shards take the extra
    member, and empty shards are dropped. The choice of partition is a
    load-balancing decision only — member results are invariant to it.
    """
    if n_members < 0:
        raise ValueError("n_members must be >= 0")
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if n_members == 0:
        return []
    n_shards = min(n_shards, n_members)
    base, extra = divmod(n_members, n_shards)
    shards: list[list[int]] = []
    start = 0
    for shard in range(n_shards):
        size = base + (1 if shard < extra else 0)
        shards.append(list(range(start, start + size)))
        start += size
    return shards


# -- worker process entry points (top-level so the spawn method can import them) --


def _map_main(
    conn: Connection, fn: Callable[[Any], Any], chunk: list[Any]
) -> None:
    """One-shot map worker: apply *fn* to a chunk, send results, exit."""
    try:
        conn.send(("ok", [fn(item) for item in chunk]))
    except BaseException as exc:  # noqa: B036 - report, then die
        conn.send(("error", repr(exc), traceback.format_exc()))
    finally:
        conn.close()


def _session_main(
    conn: Connection,
    factory: Callable[[Any, tuple[int, ...]], Any],
    spec: Any,
    indices: tuple[int, ...],
) -> None:
    """Persistent shard worker: build state once, answer step commands."""
    try:
        worker = factory(spec, indices)
    except BaseException as exc:  # noqa: B036 - report, then die
        conn.send(("error", repr(exc), traceback.format_exc()))
        conn.close()
        return
    conn.send(("ready", len(indices)))
    while True:
        message = conn.recv()
        if message[0] == "close":
            break
        assert message[0] == "step"
        try:
            start = time.perf_counter()
            outputs = list(worker.step(message[1]))
            step_s = time.perf_counter() - start
            conn.send(("ok", outputs, step_s))
        except BaseException as exc:  # noqa: B036 - report, then die
            conn.send(("error", repr(exc), traceback.format_exc()))
            break
    conn.close()


class FleetExecutor:
    """Deterministic fan-out of per-member fleet work.

    Parameters
    ----------
    workers:
        Worker count. ``1`` (the default) selects the in-process
        ``sequential`` backend; ``>= 2`` selects the ``process`` backend
        with one persistent worker per shard.
    start_method:
        ``multiprocessing`` start method for the process backend
        (``None``: the platform default — ``fork`` on Linux). Under
        ``spawn``, task callables and specs must be importable
        module-level objects.
    """

    def __init__(self, workers: int = 1, start_method: str | None = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.start_method = start_method

    @property
    def backend(self) -> str:
        """``"sequential"`` or ``"process"`` — resolved from ``workers``."""
        return "sequential" if self.workers == 1 else "process"

    def _context(self) -> multiprocessing.context.BaseContext:
        return multiprocessing.get_context(self.start_method)

    # -- one-shot map ------------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        """Apply *fn* to every item; results in input order.

        Items are independent tasks (a chaos landscape, one throttle
        panel measurement); *fn* must be a deterministic function of its
        item. The process backend chunks items contiguously across
        workers; chunking is invisible in the results.
        """
        items = list(items)
        if self.backend == "sequential" or len(items) <= 1:
            return [_isolate(fn(item)) for item in items]
        chunks = partition_members(len(items), self.workers)
        ctx = self._context()
        procs: list[tuple[int, Any, Connection]] = []
        for shard, chunk in enumerate(chunks):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_map_main,
                args=(child_conn, fn, [items[i] for i in chunk]),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            procs.append((shard, proc, parent_conn))
        results: list[Any] = [None] * len(items)
        try:
            for (shard, proc, conn), chunk in zip(procs, chunks):
                payload = _receive(conn, proc, shard)[1]
                for index, value in zip(chunk, payload):
                    results[index] = _isolate(value)
        finally:
            for _, proc, conn in procs:
                conn.close()
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
        return results

    # -- persistent sharded sessions -----------------------------------------------

    def fleet_session(
        self,
        factory: Callable[[Any, tuple[int, ...]], Any],
        spec: Any,
        n_members: int,
        partition: Sequence[Sequence[int]] | None = None,
        stats: SessionStats | None = None,
    ) -> "FleetSession":
        """Open a stateful sharded session over *n_members* members.

        ``factory(spec, indices)`` builds one shard's state (members,
        TDEs, repository snapshot) and returns a worker object whose
        ``step(command)`` returns ``(member_index, payload)`` pairs.
        *partition* overrides the canonical contiguous partition — any
        disjoint cover of ``range(n_members)`` must yield identical
        results (the property suite exercises exactly that). *stats*, if
        given, collects the session's per-step pipe-seam accounting (the
        session always keeps its own on ``FleetSession.stats``).
        """
        if partition is None:
            shards = partition_members(n_members, self.workers)
        else:
            shards = [list(indices) for indices in partition if len(indices)]
            covered = sorted(i for shard in shards for i in shard)
            if covered != list(range(n_members)):
                raise ValueError(
                    f"partition does not cover range({n_members}) exactly: {covered}"
                )
        return FleetSession(self, factory, spec, shards, stats=stats)


def _receive(conn: Connection, proc: Any, shard: int) -> Any:
    """One worker message, or a typed :class:`WorkerCrashed` — never a
    hang."""
    while True:
        try:
            if conn.poll(_POLL_INTERVAL_S):
                message = conn.recv()
                break
        except (EOFError, OSError):
            proc.join(timeout=5.0)
            raise WorkerCrashed(
                shard, "connection closed before result", proc.exitcode
            ) from None
        if not proc.is_alive():
            # Raced against a final message already in the pipe?
            if conn.poll(0):
                message = conn.recv()
                break
            raise WorkerCrashed(shard, "worker died", proc.exitcode)
    if message[0] == "error":
        raise WorkerCrashed(
            shard, message[1], proc.exitcode, remote_traceback=message[2]
        )
    return message


class FleetSession:
    """A live sharded session; use as a context manager.

    Sequential backend: shard workers are plain in-process objects.
    Process backend: each shard worker lives in a persistent child
    process; ``step`` broadcasts the command to every shard, then
    collects and re-merges outputs in canonical member order.
    """

    def __init__(
        self,
        executor: FleetExecutor,
        factory: Callable[[Any, tuple[int, ...]], Any],
        spec: Any,
        shards: list[list[int]],
        stats: SessionStats | None = None,
    ) -> None:
        self._executor = executor
        self._factory = factory
        self._spec = spec
        self.shards = shards
        self.stats = stats if stats is not None else SessionStats()
        self.stats.backend = executor.backend
        self.stats.shards = len(shards)
        self._local_workers: list[Any] | None = None
        self._procs: list[tuple[Any, Connection]] = []
        self._closed = False

    def __enter__(self) -> "FleetSession":
        if self._executor.backend == "sequential" or len(self.shards) <= 1:
            self._local_workers = [
                self._factory(self._spec, tuple(indices)) for indices in self.shards
            ]
            return self
        ctx = self._executor._context()
        for indices in self.shards:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_session_main,
                args=(child_conn, self._factory, self._spec, tuple(indices)),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append((proc, parent_conn))
        for shard, (proc, conn) in enumerate(self._procs):
            _receive(conn, proc, shard)  # "ready" handshake (or typed crash)
        return self

    def step(self, command: Any) -> list[tuple[int, Any]]:
        """Run one step on every shard; outputs merged in member order."""
        if self._closed:
            raise RuntimeError("session is closed")
        clock = time.perf_counter
        start = clock()
        # The command is serialized exactly once per window whatever the
        # backend: the process path broadcasts the one payload to every
        # pipe, the sequential path only weighs it — the per-window wire
        # cost is a reported, asserted-on number either way.
        payload = pickle.dumps(("step", command))
        serialize_s = clock() - start
        if self._local_workers is not None:
            start = clock()
            outputs = [list(worker.step(command)) for worker in self._local_workers]
            step_s = clock() - start
            send_s = recv_s = 0.0
        else:
            start = clock()
            for _, conn in self._procs:
                conn.send_bytes(payload)
            send_s = clock() - start
            start = clock()
            outputs = []
            step_s = 0.0
            for shard, (proc, conn) in enumerate(self._procs):
                message = _receive(conn, proc, shard)
                outputs.append(message[1])
                step_s = max(step_s, message[2])
            recv_s = clock() - start
        from repro.parallel.reduce import merge_member_outputs

        start = clock()
        merged = merge_member_outputs(outputs)
        merge_s = clock() - start
        self.stats.record(
            StepStats(
                command_bytes=len(payload),
                serialize_s=serialize_s,
                send_s=send_s,
                step_s=step_s,
                recv_s=recv_s,
                merge_s=merge_s,
            )
        )
        return merged

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._local_workers = None
        for proc, conn in self._procs:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for proc, _ in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self._procs = []

    def __exit__(self, *exc_info: object) -> None:
        self.close()
