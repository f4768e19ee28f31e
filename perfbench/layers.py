"""Benchmark-side tracing: spans around each layer's public entry points.

``--trace 1`` wraps the entry points below at the names their callers
import (nothing under ``src/`` is edited) and keeps one span per call in
memory: name, start, end, same-thread parent, request id and the
workload phase it ran in. A layer's self time is its span minus the
spans nested inside it on the same thread. Untraced runs install
nothing, so the end-to-end numbers carry no wrapper cost; the traced run
measures that cost on the workload's counter lane (``trace.overhead_pct``).

The program's own tracer is left at its default in both runs. Where a
program span is passed down as a ``trace=`` argument its trace id
becomes the request id, which links a coordinator request to the worker
calls it fanned out on other threads.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import threading
import time
from pathlib import Path
from typing import Callable, Optional

#: (module the caller imports from, attribute path, span name)
TARGETS = [
    ("repro.core.index", "PexesoIndex.fit", "index.fit"),
    ("repro.core.pivot", "PivotSpace.map_vectors", "pivot"),
    ("repro.core.grid", "HierarchicalGrid.build", "grid"),
    ("repro.core.search", "block", "blocker"),
    ("repro.core.engine", "block", "blocker"),
    ("repro.core.topk", "block", "blocker"),
    ("repro.core.search", "verify", "verifier"),
    ("repro.core.engine", "verify_row_blocks", "verifier"),
    ("repro.core.engine", "BatchSearch.search_many", "engine"),
    ("repro.core.out_of_core", "pexeso_topk", "topk"),
    ("repro.core.out_of_core", "PartitionedPexeso.search_many", "out_of_core"),
    ("repro.core.out_of_core", "merge_shard_batches", "merge"),
    ("repro.cluster.coordinator", "merge_shard_batches", "merge"),
    ("repro.core.out_of_core", "load_index", "load_index"),
    ("repro.core.persistence", "load_index", "load_index"),
    ("repro.core.index", "PexesoIndex.add_column", "index.add_column"),
    ("repro.core.index", "PexesoIndex.delete_column", "index.delete_column"),
    ("repro.serve.service", "QueryService.search", "service.search"),
    ("repro.serve.service", "QueryService.add_column", "service.write"),
    ("repro.serve.service", "QueryService.delete_column", "service.write"),
    ("repro.serve.server", "search_payload", "payload"),
    ("repro.cluster.server", "search_payload", "payload"),
    ("repro.serve.client", "ServeClient.search", "client.search"),
    # one call per transport retry (the client sleeps before each)
    ("repro.serve.client", "ServeClient._backoff_sleep", "client.retry"),
    ("repro.cluster.coordinator", "ClusterCoordinator.search", "coordinator.search"),
    ("repro.cluster.coordinator", "ClusterCoordinator.add_column", "coordinator.write"),
    ("repro.cluster.coordinator", "ClusterCoordinator.delete_column", "coordinator.write"),
]

#: traced/untraced counter-lane pass pairs behind ``trace.overhead_pct``
OVERHEAD_PAIRS = 3

#: thread-name prefix of the benchmark's own load-generating threads, so
#: client spans they record are told apart from coordinator->worker calls
LOAD_THREAD = "perfbench-load"


class Span:
    __slots__ = ("name", "phase", "start", "end", "children", "parent",
                 "request", "thread", "size", "ok", "extra")

    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        return self.end - self.start - self.children


def _request_of(kwargs) -> Optional[str]:
    trace = kwargs.get("trace")
    return getattr(trace, "trace_id", None) if trace is not None else None


def _batch_size(name: str, args) -> int:
    """Queries one call answers (engine and shard fan-out take a list)."""
    if name in ("engine", "out_of_core") and len(args) > 1:
        return len(args[1])
    return 1


def _inspect(name: str, result):
    """What a span keeps from its call's return value."""
    if name == "service.search":
        return bool(result.cached), dict(result.result.stats.stage_seconds)
    if name == "index.fit":
        return dataclasses.replace(result.stats)
    return None


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span = Span()
            span.name = name
            span.phase = recorder.phase
            span.children = 0.0
            span.parent = parent.name if parent is not None else None
            span.request = _request_of(kwargs) or (
                parent.request if parent is not None else None
            )
            span.thread = threading.current_thread().name
            span.size = _batch_size(name, args)
            span.ok = True
            span.extra = None
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span.extra = _inspect(name, result)
                return result
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.children += span.end - span.start
                with recorder._lock:
                    recorder.spans.append(span)

        return traced

    # -- patching ------------------------------------------------------------------

    def install(self) -> None:
        for module_name, path, name in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr] if owner_name else getattr(module, attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__))
            else:
                patched = self.wrap(name, raw)
            setattr(owner, attr, patched)
            self._undo.append(functools.partial(setattr, owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- queries -------------------------------------------------------------------

    def select(self, name: str, phases=None, thread_prefix: Optional[str] = None,
               exclude_prefix: Optional[str] = None) -> list[Span]:
        with self._lock:
            spans = list(self.spans)
        out = []
        for span in spans:
            if span.name != name:
                continue
            if phases is not None and span.phase not in phases:
                continue
            if thread_prefix is not None and not span.thread.startswith(thread_prefix):
                continue
            if exclude_prefix is not None and span.thread.startswith(exclude_prefix):
                continue
            out.append(span)
        return out

    def dump(self, path: Path) -> None:
        """Write every span out (one JSON object per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            spans = list(self.spans)
        origin = min((s.start for s in spans), default=0.0)
        with open(path, "w") as fh:
            for span in spans:
                fh.write(json.dumps({
                    "name": span.name, "phase": span.phase,
                    "start_ms": (span.start - origin) * 1e3,
                    "end_ms": (span.end - origin) * 1e3,
                    "self_ms": span.self_time() * 1e3,
                    "parent": span.parent, "request": span.request,
                    "thread": span.thread, "size": span.size, "ok": span.ok,
                }) + "\n")


def total_ms(spans, self_time: bool = True) -> float:
    return 1e3 * sum(s.self_time() if self_time else s.duration() for s in spans)


def per(value: float, count: float) -> float:
    return value / count if count else 0.0


#: every per-layer metric and its unit; a layer a workload does not run
#: reports 0 (no calls, no time)
PER_LAYER = {
    "pivot.calls_per_query": "count",
    "pivot.self_ms": "ms",
    "blocker.self_ms": "ms",
    "blocker.cells_visited": "count",
    "blocker.candidate_pairs": "count",
    "blocker.matching_pairs": "count",
    "verifier.self_ms": "ms",
    "verifier.lemma_ms": "ms",
    "verifier.distance_computations": "count",
    "verifier.columns_verified": "count",
    "verifier.lemma7_skips": "count",
    "verifier.hit_ratio": "ratio",
    "engine.ms_per_query": "ms",
    "engine.queries_per_call": "count",
    "topk.self_ms": "ms",
    "topk.distance_computations": "count",
    "out_of_core.shards_per_query": "count",
    "out_of_core.fanout_wait_ms": "ms",
    "out_of_core.merge_ms": "ms",
    "out_of_core.lru_hit_ratio": "ratio",
    "out_of_core.lru_misses_per_query": "count",
    "persistence.loads_per_query": "count",
    "persistence.load_ms": "ms",
    "persistence.save_s": "s",
    "persistence.open_s": "s",
    "index.build_s": "s",
    "index.pivot_selection_s": "s",
    "index.pivot_mapping_s": "s",
    "index.grid_s": "s",
    "index.inverted_index_s": "s",
    "index.add_column_ms": "ms",
    "index.delete_column_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.self_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.fused_batch_mean": "count",
    "service.write_lock_wait_ms": "ms",
    "server.http_overhead_ms": "ms",
    "server.payload_ms": "ms",
    "server.refused": "count",
    "coordinator.self_ms": "ms",
    "coordinator.worker_calls_per_query": "count",
    "coordinator.worker_ms_max": "ms",
    "coordinator.worker_ms_sum": "ms",
    "coordinator.hedges": "count",
    "coordinator.retries": "count",
    "coordinator.write_through_ms": "ms",
    "generator.lag_p90_ms": "ms",
    "generator.backlog": "count",
    "ept.search_ms": "ms",
    "ept.pexeso_ratio": "ratio",
    "stage.pivot_map_ms": "ms",
    "stage.blocking_ms": "ms",
    "stage.lemma_filter_ms": "ms",
    "stage.verify_ms": "ms",
    "stage.merge_ms": "ms",
    "stage.shard_load_ms": "ms",
    "stage.queue_wait_ms": "ms",
    "counts.distance_computations": "count",
    "counts.cells_visited": "count",
    "counts.candidate_pairs": "count",
    "counts.columns_verified": "count",
    "counts.lru_misses": "count",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def _contained(outer: Span, spans: list[Span]) -> list[Span]:
    return [s for s in spans if s.start >= outer.start and s.end <= outer.end]


def span_metrics(rec: Recorder, queries: int, phases=("search",),
                 engine_phases=("search", "batch")) -> dict:
    """Per-layer numbers every workload derives the same way from its spans.

    Layer times are per query answered in ``phases`` (``queries`` of
    them: the single-query phase, so a batch's shared blocking does not
    dilute them); the engine's own numbers cover ``engine_phases``; write
    and top-k times are per call.
    """
    m: dict[str, float] = {}
    pivot = rec.select("pivot", phases)
    m["pivot.calls_per_query"] = per(len(pivot), queries)
    m["pivot.self_ms"] = per(total_ms(pivot) + total_ms(rec.select("grid", phases)), queries)
    m["blocker.self_ms"] = per(total_ms(rec.select("blocker", phases)), queries)
    m["verifier.self_ms"] = per(total_ms(rec.select("verifier", phases)), queries)
    engine = rec.select("engine", engine_phases)
    answered = sum(s.size for s in engine)
    m["engine.ms_per_query"] = per(total_ms(engine, self_time=False), answered)
    m["engine.queries_per_call"] = per(answered, len(engine))
    topk = rec.select("topk", ("topk",))
    m["topk.self_ms"] = per(total_ms(topk), len(topk))

    fanouts = rec.select("out_of_core", engine_phases)
    shard_queries = wait = 0.0
    for fanout in fanouts:
        shards = _contained(fanout, engine)
        shard_queries += len(shards) * fanout.size
        slowest = max((s.duration() for s in shards), default=0.0)
        wait += fanout.duration() - slowest
    fanout_queries = sum(s.size for s in fanouts)
    m["out_of_core.shards_per_query"] = per(shard_queries, fanout_queries)
    m["out_of_core.fanout_wait_ms"] = per(1e3 * wait, fanout_queries)
    m["out_of_core.merge_ms"] = per(total_ms(rec.select("merge", engine_phases)), fanout_queries)

    loads = rec.select("load_index", phases)
    m["persistence.loads_per_query"] = per(len(loads), queries)
    m["persistence.load_ms"] = per(total_ms(loads, self_time=False), len(loads))

    for kind in ("add_column", "delete_column"):
        spans = rec.select(f"index.{kind}")
        m[f"index.{kind}_ms"] = per(total_ms(spans, self_time=False), len(spans))

    served = [s for s in rec.select("service.search", phases) if s.ok]
    fresh = [s for s in served if s.extra is not None and not s.extra[0]]
    if served:
        m["service.cache_hit_ratio"] = 1.0 - len(fresh) / len(served)
    if fresh:
        m["service.queue_wait_ms"] = 1e3 * sum(
            s.extra[1].get("queue_wait", 0.0) for s in fresh) / len(fresh)
        # requests that ran the engine on their own thread (a fused batch's
        # leader, or alone): the rest of their time is the service's own
        ran = [s for s in fresh if s.children > 0]
        own = [s.self_time() - s.extra[1].get("queue_wait", 0.0) for s in ran]
        m["service.self_ms"] = per(1e3 * sum(own), len(ran))
    # a write's time outside the index mutation nested in it is lock wait
    writes = rec.select("service.write")
    m["service.write_lock_wait_ms"] = per(total_ms(writes), len(writes))

    clients = [s for s in rec.select("client.search", phases, thread_prefix=LOAD_THREAD) if s.ok]
    coordinated = [s for s in rec.select("coordinator.search", phases) if s.ok]
    inner = coordinated or served
    if clients and inner:
        m["server.http_overhead_ms"] = (
            per(total_ms(clients, False), len(clients)) - per(total_ms(inner, False), len(inner))
        )
    payloads = rec.select("payload", phases)
    m["server.payload_ms"] = per(total_ms(payloads, False), len(payloads))

    if coordinated:
        calls: dict[str, list[Span]] = {}
        for span in rec.select("client.search", phases, exclude_prefix=LOAD_THREAD):
            calls.setdefault(span.request, []).append(span)
        own = n_calls = slowest = summed = 0.0
        for span in coordinated:
            # a losing hedge may still run after the reply went out
            mine = [c.duration() for c in calls.get(span.request, []) if c.end <= span.end]
            own += span.duration() - max(mine, default=0.0)
            n_calls += len(mine)
            slowest += max(mine, default=0.0)
            summed += sum(mine)
        n = len(coordinated)
        m["coordinator.self_ms"] = 1e3 * own / n
        m["coordinator.worker_calls_per_query"] = n_calls / n
        m["coordinator.worker_ms_max"] = 1e3 * slowest / n
        m["coordinator.worker_ms_sum"] = 1e3 * summed / n
    m["coordinator.retries"] = len(rec.select("client.retry"))
    cwrites = rec.select("coordinator.write")
    m["coordinator.write_through_ms"] = per(total_ms(cwrites, False), len(cwrites))
    m["trace.spans"] = len(rec.spans)
    return m


STAGES = ("pivot_map", "blocking", "lemma_filter", "verify", "merge", "shard_load",
          "queue_wait")
#: the wrapped layer whose self time corresponds to each program stage
STAGE_LAYERS = {
    "pivot_map": ("pivot", "grid"),
    "blocking": ("blocker",),
    "lemma_filter": (),
    "verify": ("verifier",),  # its self time covers lemma_filter + verify
    "merge": ("merge",),
    "shard_load": ("load_index",),
    "queue_wait": (),
}


def stage_metrics(report, rec: Recorder, stage_seconds: dict, queries: int,
                  phases) -> dict:
    """The program's own per-stage timings (``stage_seconds`` summed over
    ``phases``), per query, printed beside the wrapper self times of the
    matching layers over the same phases."""
    out, side_by_side = {}, {}
    for stage in STAGES:
        value = per(1e3 * stage_seconds.get(stage, 0.0), queries)
        out[f"stage.{stage}_ms"] = value
        spans = [s for name in STAGE_LAYERS[stage] for s in rec.select(name, phases)]
        side_by_side[stage] = {
            "stage_ms": round(value, 3),
            "wrapper_self_ms": round(per(total_ms(spans), queries), 3) if spans else None,
        }
    report.section(f"stage_seconds vs wrapper self time, per query, {'+'.join(phases)}",
                   side_by_side)
    return out


def counter_metrics(stats, queries: int) -> dict:
    """Search counters per query from a summed ``SearchStats``."""
    return {
        "blocker.cells_visited": per(stats.cells_visited, queries),
        "blocker.candidate_pairs": per(stats.candidate_pairs, queries),
        "blocker.matching_pairs": per(stats.matching_pairs, queries),
        "verifier.distance_computations": per(stats.distance_computations, queries),
        "verifier.columns_verified": per(stats.columns_verified, queries),
        "verifier.lemma7_skips": per(stats.lemma7_skips, queries),
        "verifier.lemma_ms": per(1e3 * stats.stage_seconds.get("lemma_filter", 0.0), queries),
    }


def lane_counters(stats) -> dict:
    """The deterministic counter lane's totals."""
    return {
        "counts.distance_computations": stats.distance_computations,
        "counts.cells_visited": stats.cells_visited,
        "counts.candidate_pairs": stats.candidate_pairs,
        "counts.columns_verified": stats.columns_verified,
    }


def counter_lane(report, recorder: Optional[Recorder], lane_pass) -> dict:
    """Run the counter lane: a fixed query set, one caller, no timers.

    ``lane_pass()`` runs the set once and returns ``(counters, seconds)``.
    Two untraced passes must give identical counters (the first also
    warms the process up). A traced run then alternates untraced and
    traced passes and reports the best traced pass against the best
    untraced one as ``trace.overhead_pct``. Returns the lane's per-layer
    values; the recorder is left installed.
    """
    if recorder is not None:
        recorder.uninstall()  # installed for set-up; the lane starts untraced
    first, _ = lane_pass()
    counters, untraced_s = lane_pass()
    if counters != first:
        report.mismatch(f"counter lane not deterministic: {first} vs {counters}")
    report.section("counter lane", counters)
    layer = dict(counters)
    if recorder is not None:
        recorder.phase = "lane"
        traced_s = float("inf")
        for _ in range(OVERHEAD_PAIRS):
            recorder.install()
            traced_s = min(traced_s, lane_pass()[1])
            recorder.uninstall()
            untraced_s = min(untraced_s, lane_pass()[1])
        recorder.install()
        layer["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return layer


def index_metrics(rec: Recorder, setups: int) -> dict:
    """Index build time per set-up (all partitions), split as ``IndexStats`` splits it."""
    fits = [s.extra for s in rec.select("index.fit", ("setup",)) if s.extra is not None]
    return {
        "index.build_s": per(sum(f.total_seconds for f in fits), setups),
        "index.pivot_selection_s": per(sum(f.pivot_selection_seconds for f in fits), setups),
        "index.pivot_mapping_s": per(sum(f.pivot_mapping_seconds for f in fits), setups),
        "index.grid_s": per(sum(f.grid_build_seconds for f in fits), setups),
        "index.inverted_index_s": per(sum(f.inverted_index_seconds for f in fits), setups),
    }
