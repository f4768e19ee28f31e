"""cluster_lwdc: a closed loop through a thread-mode LocalCluster (2 workers,
replication 2) over an LWDC-like lake saved as 4 partitions."""

from __future__ import annotations

import shutil
import threading
import time

from common import (
    LEVELS, N_PIVOTS, HostSpeed, Report, blocking_slice, median, repeat_setup, rss_peak_mb,
    scaled_latency_metrics, settle, write_metrics,
)
from layers import (
    counter_lane, counter_metrics, index_metrics, lane_counters, span_metrics,
    stage_metrics,
)
from lakes import Oracle, make_lake, write_columns
from load import TIMEOUT_S, Op, WriteCycle, check_replies, closed_loop, tally

from repro import LakeSearcher, PartitionedPexeso, SearchStats
from repro.cluster import local as cluster_local
from repro.cluster.client import ClusterClient
from repro.cluster.local import LocalCluster
from repro.core.persistence import load_partitioned, save_partitioned

WHY = (
    "LWDC-like 480 cols as 4 partitions, m=3 L=3, thread-mode LocalCluster, 2 "
    "workers x replication 2, 1 connection: coordinator scatter/merge, worker "
    "HTTP hop and replicated writes"
)
TAU, T = 0.06, 0.3
N_PARTITIONS = 4
N_WORKERS, REPLICATION = 2, 2
#: one caller: measured back to back, two callers completed fewer searches
#: per second than one (3.4-4.8 against 5.1-5.9), as hedged replica reads
#: and the in-process workers contend for the interpreter lock
CONNECTIONS = 1
WRITE_EVERY = 3  # a write after every 3rd search
POOL = 300
LANE = 3
SETUP_REPEATS = 5


def run(args, report: Report, recorder, work) -> dict:
    lake = make_lake("LWDC-like", args.seed)
    report.section("lake", {
        **lake.describe(), "n_pivots": N_PIVOTS, "levels": LEVELS,
        "partitions": N_PARTITIONS, "partitioner": "jsd", "workers": N_WORKERS,
        "replication": REPLICATION, "mode": "thread",
    })
    report.section("mix", {"tau": TAU, "T": T, "connections": CONNECTIONS,
                           "write_every": WRITE_EVERY,
                           "loop": "closed"})
    pool = lake.queries(POOL)
    lane = lake.queries(LANE)
    new_columns = write_columns(lake, 64)
    oracle = Oracle(lake.columns)
    tau = lake.tau(TAU)
    baseline_mb = settle()
    builds = iter(range(SETUP_REPEATS))
    parts: dict[str, list[float]] = {"save": [], "open": []}
    workers: list = []

    def capture(*args, **kwargs):
        started = start_worker(*args, **kwargs)
        workers.append(started[0])
        return started

    start_worker = cluster_local.start_worker

    def build():
        directory = work / f"lake-{next(builds)}"
        fitted = PartitionedPexeso(
            n_pivots=N_PIVOTS, levels=LEVELS, n_partitions=N_PARTITIONS, partitioner="jsd",
        ).fit(lake.columns)
        started = time.perf_counter()
        save_partitioned(fitted, directory)
        saved = time.perf_counter()
        workers.clear()
        cluster = LocalCluster(directory, n_workers=N_WORKERS, replication=REPLICATION,
                               mode="thread").start()
        parts["save"].append(saved - started)
        parts["open"].append(time.perf_counter() - saved)
        return cluster, directory

    def teardown(built):
        cluster, directory = built
        cluster.stop()
        shutil.rmtree(directory, ignore_errors=True)

    if recorder is not None:
        recorder.install()
    cluster_local.start_worker = capture
    try:
        built = repeat_setup(report, build, teardown, SETUP_REPEATS,
                             "fit+save+cluster start runs")
    finally:
        cluster_local.start_worker = start_worker
    cluster, directory = built
    services = [server.service for server in workers]
    index_mb = sum(s.searcher.memory_bytes() for s in services) / 1e6
    report.metric("index_mb", index_mb, "MB",
                  note=f"{len(services)} workers, every partition on each")

    # Counter lane: the same saved partitions searched in-process by one
    # caller (the cluster's two callers and hedging timers are not
    # deterministic; the engine work per partition is the same).
    lane_searcher = LakeSearcher(load_partitioned(directory))

    def lane_pass():
        stats = SearchStats()
        started = time.perf_counter()
        for query in lane:
            stats.merge(lane_searcher.search(query, tau, T).stats)
        return lane_counters(stats), time.perf_counter() - started

    layer = counter_lane(report, recorder, lane_pass)
    del lane_searcher
    if recorder is not None:
        recorder.phase = "search"

    lock = threading.Lock()
    # a request's path (HTTP, JSON, per-partition searches) is
    # interpreter-bound, like the blocking slice (common.HostSpeed)
    speed = HostSpeed(blocking_slice)
    state = {"next": 0, "since_write": 0}
    cycle = WriteCycle(new_columns)

    def next_op(k: int) -> Op:
        with lock:
            # a probe before every request: with one connection none is in
            # flight, and the probe sees the stretch of host speed the
            # request is about to run in
            probe = speed.probe()
            if k == 0 and state["since_write"] >= WRITE_EVERY:
                state["since_write"] = 0
                op = cycle.next()
                op.probe = probe
                return op
            if k == 0:
                state["since_write"] += 1
            i = state["next"]
            state["next"] += 1
        return Op("search", i, pool[i % POOL], tau, T, probe=probe)

    def make_client():
        return ClusterClient(cluster.url, timeout=TIMEOUT_S, retries=0)

    started = time.perf_counter()
    ops = closed_loop(make_client, next_op, CONNECTIONS, started + args.seconds)
    elapsed = time.perf_counter() - started
    counts = tally(report, ops)
    searches = [o for o in ops if o.kind == "search"]
    # failed requests miss any latency limit
    scaled_latency_metrics(report, "search", [
        (o.latency, o.probe) if o.status == "ok" else (float("inf"), o.probe)
        for o in searches
    ], speed)
    ok = sum(1 for o in searches if o.status == "ok")
    report.metric("wall.throughput_qps", ok / elapsed, "1/s",
                  note=f"search_qps: {ok} searches in {elapsed:.2f} s, "
                       f"{CONNECTIONS} connection, probes included")
    # the same over the requests' own time (writes included), each scaled
    # by the probe before it; the probes themselves are left out
    busy = sum(speed.scaled(o.done - o.sent, o.probe) for o in ops if o.status != "unsent")
    report.metric("throughput_qps", ok / busy, "1/s",
                  note=f"search_qps: {ok} searches over {busy:.2f} s of requests at "
                       f"reference host speed; {speed.note()}")
    writes: dict[str, list[float]] = {"add": [], "delete": []}
    for o in ops:
        if o.kind != "search" and o.status != "unsent":
            writes[o.kind].append(o.latency if o.status == "ok" else float("inf"))
    write_metrics(report, writes, note="beside the searches")
    speed.rescale(report, ["write_p50_ms"])
    report.metric("rss_peak_mb", rss_peak_mb(baseline_mb), "MB",
                  note=f"above the {baseline_mb:.1f} MB resident once inputs were generated")
    report.section("request counts", counts)

    describe = cluster.coordinator.describe()
    worker_stats = SearchStats()
    for service in services:
        worker_stats.merge(service.snapshot_stats())
    coalescing = [s.describe()["coalescing"] for s in services]
    teardown(built)

    check_replies(report, oracle, ops)

    if recorder is None:
        return layer
    queries = ok
    layer.update(span_metrics(recorder, queries))
    layer.update(counter_metrics(worker_stats, queries))
    stages: dict[str, float] = {}
    for span in recorder.select("service.search", ("search",)):
        if span.extra is not None and not span.extra[0]:
            for stage, seconds in span.extra[1].items():
                stages[stage] = stages.get(stage, 0.0) + seconds
    # worker-side stage costs, per coordinator request
    layer.update(stage_metrics(report, recorder, stages, queries, ("search",)))
    layer.update(index_metrics(recorder, SETUP_REPEATS))
    hits = sum(len(o.reply["hits"]) for o in searches if o.status == "ok")
    layer["verifier.hit_ratio"] = (
        hits / worker_stats.columns_verified if worker_stats.columns_verified else 0.0
    )
    batches = sum(c["batches"] for c in coalescing)
    layer["service.fused_batch_mean"] = (
        sum(c["requests"] for c in coalescing) / batches if batches else 0.0
    )
    layer["server.refused"] = counts["refused"]
    layer["coordinator.hedges"] = describe["resilience"]["hedges_fired"]
    layer["persistence.save_s"] = median(parts["save"])
    layer["persistence.open_s"] = median(parts["open"])
    return layer
