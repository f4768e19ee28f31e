"""spill_lwdc: one in-process caller over an 8-partition spilled LWDC-like lake."""

from __future__ import annotations

import shutil
import time

from common import (
    LEVELS, N_PIVOTS, HostSpeed, Report, blocking_slice, interquartile_mean, median,
    repeat_setup, rss_peak_mb, scaled_latency_metrics, settle, timed_writes, write_metrics,
)
from layers import (
    counter_lane, counter_metrics, index_metrics, lane_counters, span_metrics,
    stage_metrics,
)
from lakes import Oracle, make_lake, result_hits, write_columns

from repro import LakeSearcher, PartitionedPexeso, SearchStats

WHY = (
    "LWDC-like 480 cols, m=3 L=3, 8 JSD partitions spilled + mmap, default "
    "4-thread fan-out/4-shard LRU: the out-of-core path, ~400 ms/query vs 43 "
    "ms on one index, a working set larger than the LRU"
)
TAU, T = 0.06, 0.3
N_PARTITIONS = 8
BATCH = 10
#: one round: 3 single searches, 4 add/delete pairs (each write re-spills
#: a partition) and one batch of 10
ROUND_SEARCHES, ROUND_WRITE_PAIRS = 3, 4
POOL = 120
LANE = 3
SEARCH_PROBES = 2  # probes after each single search (common.HostSpeed)
BATCH_PROBES = 3  # probes before and again after each batch
SETUP_REPEATS = 9


def run(args, report: Report, recorder, work) -> dict:
    lake = make_lake("LWDC-like", args.seed)
    report.section("lake", {
        **lake.describe(), "n_pivots": N_PIVOTS, "levels": LEVELS,
        "partitions": N_PARTITIONS, "partitioner": "jsd", "spill": "mmap",
    })
    report.section("mix", {"tau": TAU, "T": T, "batch": BATCH,
                           "round": [ROUND_SEARCHES, ROUND_WRITE_PAIRS, 1],
                           "loop": "closed, 1 caller"})
    pool = lake.queries(POOL)
    lane = lake.queries(LANE)
    new_columns = write_columns(lake, 32)
    oracle = Oracle(lake.columns)
    tau = lake.tau(TAU)
    baseline_mb = settle()
    builds = iter(range(SETUP_REPEATS))

    def build():
        spill = work / f"spill-{next(builds)}"
        lake_ = PartitionedPexeso(
            n_pivots=N_PIVOTS, levels=LEVELS, n_partitions=N_PARTITIONS,
            partitioner="jsd", spill_dir=spill,
        ).fit(lake.columns)
        return LakeSearcher(lake_)

    if recorder is not None:
        recorder.install()
    searcher = repeat_setup(report, build, lambda s: shutil.rmtree(s.backend.spill_dir),
                            SETUP_REPEATS, "fit+spill runs")
    backend = searcher.backend

    # LRU misses are reported, not asserted: which shard a fan-out thread
    # asks for first depends on thread timing, so a miss can become a hit
    lane_misses = []

    def lane_pass():
        stats = SearchStats()
        misses = backend.lru_info()["lru_misses"]
        started = time.perf_counter()
        for query in lane:
            stats.merge(searcher.search(query, tau, T).stats)
        elapsed = time.perf_counter() - started
        lane_misses.append(backend.lru_info()["lru_misses"] - misses)
        return lane_counters(stats), elapsed

    layer = counter_lane(report, recorder, lane_pass)
    layer["counts.lru_misses"] = lane_misses[1]
    report.line(f"counter lane LRU misses per pass: {lane_misses}")

    stats = {"search": SearchStats(), "batch": SearchStats()}
    lru_before = backend.lru_info()
    # (seconds, probe seconds) of each single search and each batch
    latencies, answers = [], []
    batches, batch_answers = [], []
    writes: dict[str, list[float]] = {"add": [], "delete": []}

    # -- rounds of single searches, write pairs and one batch (as in
    # inproc_small: each metric's samples span the whole window) ----------------------
    j = rounds = 0
    # reference slices shaped like what they sit beside (common.HostSpeed)
    speed, batch_speed = HostSpeed(blocking_slice), HostSpeed()
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        if recorder is not None:
            recorder.phase = "search"
        for _ in range(ROUND_SEARCHES):
            started = time.perf_counter()
            try:
                result = searcher.search(pool[j % POOL], tau, T)
            except Exception as exc:
                report.count(1, 1)
                report.line(f"search failed: {exc!r}")
                continue
            finally:
                j += 1
            elapsed = time.perf_counter() - started
            latencies.append((elapsed, median(speed.probe() for _ in range(SEARCH_PROBES))))
            report.count(1, 0)
            stats["search"].merge(result.stats)
            answers.append((j - 1, result_hits(result)))

        if recorder is not None:
            recorder.phase = "write"
        timed_writes(report, searcher, new_columns, ROUND_WRITE_PAIRS,
                     rounds * ROUND_WRITE_PAIRS, writes)
        rounds += 1

        if recorder is not None:
            recorder.phase = "batch"
        members = list(range(j, j + BATCH))
        j += BATCH
        probes = [batch_speed.probe() for _ in range(BATCH_PROBES)]
        started = time.perf_counter()
        try:
            batch = searcher.search_many([pool[m % POOL] for m in members], tau, T)
        except Exception as exc:
            report.count(BATCH, BATCH)
            report.line(f"batch failed: {exc!r}")
            continue
        elapsed = time.perf_counter() - started
        probes += [batch_speed.probe() for _ in range(BATCH_PROBES)]
        batches.append((elapsed, median(probes)))
        report.count(BATCH, 0)
        stats["batch"].merge(batch.stats)
        batch_answers.extend(zip(members, (result_hits(r) for r in batch.results)))
    batch_queries = len(batch_answers)
    scaled_latency_metrics(report, "search", latencies, speed)
    report.metric("wall.throughput_qps", BATCH / median(s for s, _ in batches), "1/s",
                  note=f"batch_qps: {BATCH} queries over the median of "
                       f"{len(batches)} search_many batches")
    report.metric("throughput_qps",
                  BATCH / interquartile_mean(batch_speed.scaled(*b) for b in batches), "1/s",
                  note=f"interquartile mean of the batches, each scaled by the median of "
                       f"the {2 * BATCH_PROBES} probes around it; {batch_speed.note()}")
    write_metrics(report, writes)
    speed.rescale(report, ["write_p50_ms"])
    lru_after = backend.lru_info()
    report.metric("index_mb", searcher.memory_bytes() / 1e6, "MB",
                  note=f"{lru_after['lru_size']} resident shards of {N_PARTITIONS}")
    report.metric("rss_peak_mb", rss_peak_mb(baseline_mb), "MB",
                  note=f"above the {baseline_mb:.1f} MB resident once inputs were generated")

    for j, hits in answers + batch_answers:
        oracle.check_search(report, f"search#{j}", j % POOL, pool[j % POOL], tau, T, hits)

    if recorder is None:
        return layer
    queries = len(answers)
    hits_lru = lru_after["lru_hits"] - lru_before["lru_hits"]
    misses_lru = lru_after["lru_misses"] - lru_before["lru_misses"]
    layer.update(span_metrics(recorder, queries))
    layer.update(counter_metrics(stats["search"], queries))
    layer.update(stage_metrics(report, recorder, stats["search"].stage_seconds, queries,
                               ("search",)))
    layer.update(index_metrics(recorder, SETUP_REPEATS))
    hits = sum(len(h) for _, h in answers)
    verified = stats["search"].columns_verified
    layer["verifier.hit_ratio"] = hits / verified if verified else 0.0
    layer["out_of_core.lru_hit_ratio"] = hits_lru / max(1, hits_lru + misses_lru)
    layer["out_of_core.lru_misses_per_query"] = misses_lru / (queries + batch_queries)
    return layer
