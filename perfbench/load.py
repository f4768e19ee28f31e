"""Load generators for the HTTP workloads: an open loop on a schedule and a
closed loop, both over a fixed number of client connections (threads)."""

from __future__ import annotations

import threading
import time
import urllib.error
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from lakes import payload_hits
from layers import LOAD_THREAD

from repro.serve.client import ServeError

#: per-request socket timeout; a request that exceeds it counts as failed
TIMEOUT_S = 10.0


@dataclass
class Op:
    kind: str  # "search" | "add" | "delete"
    key: Any = None  # oracle key of the query (searches)
    query: Optional[np.ndarray] = None  # search vectors, or the column to add
    tau: float = 0.0
    joinability: float = 0.0
    due: float = 0.0  # open loop: when the op is due to be sent
    probe: float = 0.0  # closed loop: the host-speed probe taken just before it
    after: Optional["Op"] = None  # delete: the add whose column it removes
    sent: float = 0.0
    done: float = 0.0
    status: str = ""  # "ok" | "refused" | "failed" | "unsent"
    reply: Optional[dict] = None
    error: str = ""
    finished: threading.Event = field(default_factory=threading.Event)

    @property
    def latency(self) -> float:
        """From the due time in an open loop, from the send otherwise."""
        return self.done - (self.due or self.sent)


class WriteCycle:
    """Alternating add / delete ops: each delete removes the column the
    add before it created."""

    def __init__(self, columns: list[np.ndarray]):
        self.columns = columns
        self.count = 0
        self.last_add: Optional[Op] = None

    def next(self) -> Op:
        if self.last_add is None:
            op = self.last_add = Op("add", query=self.columns[self.count % len(self.columns)])
        else:
            op, self.last_add = Op("delete", after=self.last_add), None
        self.count += 1
        return op


def execute(client, op: Op) -> None:
    """Send one op; never retries (the clients are built with retries=0).

    A delete whose add did not succeed has nothing to remove: it is left
    ``unsent`` (not attempted) rather than counted a second time.
    """
    try:
        if op.kind == "delete":
            op.after.finished.wait()
            if op.after.status != "ok":
                op.status = "unsent"
                return
        op.sent = time.perf_counter()
        if op.kind == "search":
            op.reply = client.search(vectors=op.query, tau=op.tau, joinability=op.joinability)
        elif op.kind == "add":
            op.reply = client.add_column(vectors=op.query)
        else:
            op.reply = client.delete_column(op.after.reply["column_id"])
        op.status = "ok"
    except ServeError as exc:
        op.status = "refused" if exc.status == 503 else "failed"
        op.error = f"HTTP {exc.status}: {exc}"
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        op.status, op.error = "failed", repr(exc)
    finally:
        op.done = time.perf_counter()
        op.finished.set()


def _threads(connections: int, target: Callable[[int], None]) -> None:
    threads = [
        threading.Thread(target=target, args=(k,), name=f"{LOAD_THREAD}-{k}")
        for k in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(make_client, ops: list[Op], end: float, connections: int) -> int:
    """Send ``ops`` (sorted by due time) on schedule; returns the backlog.

    A free connection takes the next op and waits for its due time; when
    both are busy, ops wait in order and their latency, measured from the
    due time, includes the wait. Ops still unsent at ``end`` are the
    backlog: they are marked ``unsent`` and not attempted.
    """
    lock = threading.Lock()
    position = [0]

    def connection(k: int) -> None:
        client = make_client()
        while True:
            with lock:
                if position[0] >= len(ops) or time.perf_counter() > end:
                    return
                op = ops[position[0]]
                position[0] += 1
            wait = op.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            execute(client, op)

    _threads(connections, connection)
    backlog = 0
    for op in ops[position[0]:]:
        op.status = "unsent"
        op.finished.set()
        backlog += 1
    return backlog


def closed_loop(make_client, next_op: Callable[[int], Optional[Op]], connections: int,
                end: float) -> list[Op]:
    """Each connection sends its next op as soon as the previous one
    returns, until ``end`` or until ``next_op(k)`` (connection k's next
    op) returns None."""
    done: list[Op] = []
    lock = threading.Lock()

    def connection(k: int) -> None:
        client = make_client()
        while time.perf_counter() < end:
            op = next_op(k)
            if op is None:
                return
            execute(client, op)
            with lock:
                done.append(op)

    _threads(connections, connection)
    return done


def tally(report, ops: list[Op]) -> dict[str, int]:
    """Count attempted / failed ops into ``report``; refusals are failures."""
    counts = {"ok": 0, "refused": 0, "failed": 0, "unsent": 0}
    for op in ops:
        counts[op.status] += 1
        if op.status in ("refused", "failed") and counts["refused"] + counts["failed"] <= 5:
            report.line(f"{op.kind} {op.status}: {op.error}")
    attempted = counts["ok"] + counts["refused"] + counts["failed"]
    report.count(attempted, counts["refused"] + counts["failed"])
    return counts


def check_replies(report, oracle, ops: list[Op]) -> None:
    """Record the writes in ``oracle``, then check every search reply."""
    for op in ops:
        if op.status != "ok":
            continue
        generation = op.reply.get("generation")
        generation = max(generation) if isinstance(generation, list) else generation
        if op.kind == "add":
            oracle.record_add(generation, op.reply["column_id"], op.query)
        elif op.kind == "delete":
            oracle.record_delete(generation, op.after.reply["column_id"])
    for i, op in enumerate(ops):
        if op.kind == "search" and op.status == "ok":
            oracle.check_search(report, f"request#{i}", op.key, op.query, op.tau,
                                op.joinability, payload_hits(op.reply),
                                op.reply.get("generation"))
