"""http_large: an open-loop rate ladder against make_server(QueryService) over a
10x SWDC-like index, with cache repeats and live writes in the mix."""

from __future__ import annotations

import shutil
import threading
import time

from common import (
    LEVELS, N_PIVOTS, Report, as_measured, latency_metrics, median, ms, percentile,
    repeat_setup, rss_peak_mb, settle, write_metrics,
)
from layers import (
    counter_lane, counter_metrics, index_metrics, lane_counters, span_metrics,
    stage_metrics,
)
from lakes import Oracle, make_lake, write_columns
from load import TIMEOUT_S, Op, WriteCycle, check_replies, open_loop, tally

from repro import PexesoIndex, SearchStats
from repro.core.persistence import load_index, save_index
from repro.serve.client import ServeClient
from repro.serve.server import make_server
from repro.serve.service import QueryService

WHY = (
    "SWDC-like x10 (2400 cols/38k vecs), m=3 L=3, server defaults, open-loop "
    "ladder over 2 connections: verification is 70-85% of a query; all serving "
    "layers run, with writes beside reads"
)
#: 10x the SWDC-like profile: at 20x one run could not collect enough
#: reference-rate samples inside the benchmark's time budget (capacity
#: ~6.5 req/s); at 10x capacity doubles while verification still takes
#: 70-85% of a query (pivot map 1%, blocking 16-31%)
SCALE = 10
TAUS = (0.02, 0.06)
T = 0.3
CONNECTIONS = 2
#: the k-th search of the stream: every 5th repeats one of a few hot
#: queries (far fewer than the 256 cache entries, so repeats hit until the
#: next write); of the rest every 4th runs at τ=2%, the others at τ=6%.
#: Fixed proportions keep p50 and p90 inside the τ=6% cost mode instead
#: of letting a random mix move them between modes from run to run.
REPEAT_EVERY, REPEAT_POOL, HOT_TAU = 5, 2, 0.06
WRITE_EVERY_S = 2.0  # during the ladder: alternating add_column / delete_column
#: (rate req/s, share of --seconds). Two connections saturate near
#: 10 req/s on this mix at seed: the reference rung runs at half of that
#: (queueing there stays short, so latency tracks service time), and the
#: top rung overloads the server, so its completion rate is the capacity.
LADDER = ((2.5, 0.1), (5.0, 0.6), (7.5, 0.1), (15.0, 0.2))
REFERENCE_RATE = 5.0
#: times the ladder is climbed in one run
PASSES = 2
P90_LIMIT_MS = 400.0
SETUP_REPEATS = 7
LANE = 6


def run(args, report: Report, recorder, work) -> dict:
    lake = make_lake("SWDC-like", args.seed, scale=SCALE)
    report.section("lake", {**lake.describe(), "n_pivots": N_PIVOTS, "levels": LEVELS})
    report.section("mix", {
        "tau": TAUS, "T": T, "tau_2pct_share_of_distinct": 0.25,
        "repeat_share": 1 / REPEAT_EVERY, "repeat_pool": REPEAT_POOL,
        "write_every_s": WRITE_EVERY_S, "passes": PASSES,
        "ladder_req_s": [r for r, _ in LADDER],
        "reference_req_s": REFERENCE_RATE, "p90_limit_ms": P90_LIMIT_MS,
        "connections": CONNECTIONS, "loop": "open, fixed-rate ladder",
        "server": "make_server(QueryService) defaults: 2 ms window, 256-entry cache",
    })
    # enough distinct queries for every request the ladder offers
    offered = sum(rate * share for rate, share in LADDER) * args.seconds
    distinct = lake.queries(int(offered) + 16)
    hot = lake.queries(REPEAT_POOL)
    lane = lake.queries(LANE)
    new_columns = write_columns(lake, 64)
    oracle = Oracle(lake.columns)
    baseline_mb = settle()
    builds = iter(range(SETUP_REPEATS))
    parts: dict[str, list[float]] = {"save": [], "open": []}

    def build():
        directory = work / f"index-{next(builds)}"
        index = PexesoIndex.build(lake.columns, n_pivots=N_PIVOTS, levels=LEVELS)
        started = time.perf_counter()
        save_index(index, directory)
        saved = time.perf_counter()
        service = QueryService(load_index(directory))
        parts["save"].append(saved - started)
        parts["open"].append(time.perf_counter() - saved)
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        ServeClient(server.url, retries=0).healthz()
        return server, thread, directory

    def teardown(built):
        server, thread, directory = built
        server.close()
        thread.join(timeout=10.0)
        shutil.rmtree(directory, ignore_errors=True)

    if recorder is not None:
        recorder.install()
    built = repeat_setup(report, build, teardown, SETUP_REPEATS, "build+save+load+serve runs")
    server, thread, directory = built
    service = server.service
    report.metric("index_mb", service.searcher.memory_bytes() / 1e6, "MB")

    # Counter lane: in-process, one caller, single-query batches (the
    # served path without the batching window or the cache).
    def lane_pass():
        stats = SearchStats()
        started = time.perf_counter()
        for i, query in enumerate(lane):
            batch = service.searcher.search_many([query], lake.tau(TAUS[i % 2]), T)
            stats.merge(batch.stats)
        return lane_counters(stats), time.perf_counter() - started

    layer = counter_lane(report, recorder, lane_pass)

    def make_client():
        return ServeClient(server.url, timeout=TIMEOUT_S, retries=0)

    state = {"k": 0, "distinct": 0}
    cycle = WriteCycle(new_columns)

    def search_op() -> Op:
        k = state["k"]
        state["k"] += 1
        if k % REPEAT_EVERY == 2:
            i = (k // REPEAT_EVERY) % REPEAT_POOL
            return Op("search", ("hot", i), hot[i], lake.tau(HOT_TAU), T)
        i = state["distinct"]
        state["distinct"] += 1
        tau = lake.tau(TAUS[0] if i % 4 == 0 else TAUS[1])
        return Op("search", ("distinct", i), distinct[i % len(distinct)], tau, T)

    # -- the rate ladder (open loop), climbed PASSES times ----------------------------
    # Each rung runs PASSES shorter segments, one per climb, so the gated
    # rungs sample the whole measured window rather than one stretch of it.
    if recorder is not None:
        recorder.phase = "search"
    all_ops: list[Op] = []
    segments = {rate: [] for rate, _ in LADDER}  # (ops, start, duration, backlog)
    for _ in range(PASSES):
        for rate, share in LADDER:
            duration = share * args.seconds / PASSES
            start = time.perf_counter() + 0.05
            ops, t, next_write = [], 0.0, WRITE_EVERY_S / 2
            while t < duration:
                if next_write <= t:
                    op = cycle.next()
                    op.due = start + next_write
                    ops.append(op)
                    next_write += WRITE_EVERY_S
                op = search_op()
                op.due = start + t
                ops.append(op)
                t += 1.0 / rate
            ops.sort(key=lambda o: o.due)
            backlog = open_loop(make_client, ops, start + duration, CONNECTIONS)
            segments[rate].append((ops, start, duration, backlog))
            all_ops.extend(ops)

    rungs = []
    writes: dict[str, list[float]] = {"add": [], "delete": []}
    for rate, _ in LADDER:
        ops = [o for seg in segments[rate] for o in seg[0]]
        backlog = sum(seg[3] for seg in segments[rate])
        counts = tally(report, ops)
        searches = [o for o in ops if o.kind == "search" and o.status != "unsent"]
        # refused and failed requests miss any latency limit
        lat = [o.latency if o.status == "ok" else float("inf") for o in searches]
        lag = [o.sent - o.due for o in ops if o.status in ("ok", "failed", "refused")]
        rung = {
            "rate": rate, "seconds": sum(seg[2] for seg in segments[rate]),
            "searches": len(searches),
            "p50_ms": ms(percentile(lat, 50)), "p90_ms": ms(percentile(lat, 90)),
            "lag_p90_ms": ms(percentile(lag, 90)), "backlog": backlog, **counts,
        }
        # a segment's backlog is what its end cut off; each rung runs PASSES
        rung["pass"] = rung["p90_ms"] <= P90_LIMIT_MS and backlog <= PASSES
        completed = busy = 0.0
        for seg_ops, start, _, _ in segments[rate]:
            finished = [o.done for o in seg_ops if o.status == "ok"]
            completed += len(finished)
            busy += max(finished, default=start) - start
        rung["completed_per_s"] = completed / busy if busy else 0.0
        for o in ops:
            if o.kind != "search" and o.status != "unsent":
                writes[o.kind].append(o.latency if o.status == "ok" else float("inf"))
        rungs.append(rung)
        report.section(f"rung {rate} req/s", rung)
        if rate == REFERENCE_RATE:
            latency_metrics(report, "search", lat, note=f"at {rate} req/s, from due time")
            layer["generator.lag_p90_ms"] = rung["lag_p90_ms"]
            layer["generator.backlog"] = backlog
    passing = [r["rate"] for r in rungs if r["pass"]]
    report.metric("serve_max_rps", max(passing, default=0.0), "req/s",
                  note=f"highest rung with p90 <= {P90_LIMIT_MS:.0f} ms and no backlog")
    top = rungs[-1]
    report.metric("wall.throughput_qps", top["completed_per_s"], "1/s",
                  note=f"completions/s on the overloaded {top['rate']} req/s rung")
    write_metrics(report, writes, note="beside reads on every rung, from due time")
    # No probe tracks these timings: a probe beside a request would compete
    # with the server's threads, and scaling by probes taken with the
    # server idle (between ladder segments, or before the set-ups) widened
    # the spread of these timings in some test sets (up to 0.24 and 0.23
    # against 0.09 and 0.06 as measured).
    as_measured(report, ["search_p50_ms", "search_p90_ms", "throughput_qps", "write_p50_ms"],
                "no host-speed probe tracks the server's threads")
    report.metric("rss_peak_mb", rss_peak_mb(baseline_mb), "MB",
                  note=f"above the {baseline_mb:.1f} MB resident once inputs were generated")

    describe = service.describe()
    service_stats = service.snapshot_stats()
    teardown(built)

    check_replies(report, oracle, all_ops)

    if recorder is None:
        return layer
    searches = [o for o in all_ops if o.kind == "search" and o.status == "ok"]
    queries = len(searches)
    layer.update(span_metrics(recorder, queries))
    layer.update(counter_metrics(service_stats, queries))
    stages: dict[str, float] = {}
    for span in recorder.select("service.search", ("search",)):
        if span.extra is not None and not span.extra[0]:
            for stage, seconds in span.extra[1].items():
                stages[stage] = stages.get(stage, 0.0) + seconds
    fresh = sum(1 for s in recorder.select("service.search", ("search",))
                if s.extra is not None and not s.extra[0])
    layer.update(stage_metrics(report, recorder, stages, fresh, ("search",)))
    hits = sum(len(o.reply["hits"]) for o in searches)
    layer["verifier.hit_ratio"] = (
        hits / service_stats.columns_verified if service_stats.columns_verified else 0.0
    )
    coalescing = describe["coalescing"]
    layer["service.fused_batch_mean"] = (
        coalescing["requests"] / coalescing["batches"] if coalescing["batches"] else 0.0
    )
    layer["server.refused"] = sum(1 for o in all_ops if o.status == "refused")
    layer.update(index_metrics(recorder, SETUP_REPEATS))
    layer.update({
        "persistence.save_s": median(parts["save"]),
        "persistence.open_s": median(parts["open"]),
    })
    return layer
