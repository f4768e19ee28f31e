"""inproc_small: one in-process caller over a LakeSearcher on one SWDC-like index."""

from __future__ import annotations

import time

from common import (
    LEVELS, N_PIVOTS, HostSpeed, Report, blocking_slice, interquartile_mean, median, ms,
    percentile, repeat_setup, rss_peak_mb, settle, timed_writes, write_metrics,
)
from layers import (
    counter_lane, counter_metrics, index_metrics, lane_counters, span_metrics,
    stage_metrics,
)
from lakes import Oracle, make_lake, result_hits, write_columns

from repro import LakeSearcher, PexesoIndex, SearchStats
from repro.baselines.ept import build_ept_index, ept_search

WHY = (
    "SWDC-like 240 cols/~4k vecs dim 16, m=3 L=3 (19-31 ms/query vs 137-159 at "
    "m=5 L=4): blocking is 12-17 ms of a query, batches fuse it, top-k is "
    "1 s/query; no serving or partition layer"
)
TAU_GRID = (0.02, 0.04, 0.06, 0.08)  # Table VII grid
T_GRID = (0.2, 0.4, 0.6, 0.8)
GRID = len(TAU_GRID) * len(T_GRID)
#: three passes over the grid, so every batch has the same τ/T mix
BATCH = 48
TOPK_K, TOPK_TAU = 10, 0.02
#: share of ``--seconds`` each phase measures
SHARES = {"rounds": 0.88, "topk": 0.12}
#: one round: 16 single searches (one pass over the grid), 2 add/delete
#: pairs and one batch
ROUND_SEARCHES, ROUND_WRITE_PAIRS = 16, 2
POOL = 500  # distinct queries available to the single-query phase
LANE = 16  # counter-lane queries (one per grid cell)
SETUP_REPEATS = 9
BATCH_PROBES = 3  # probes before and again after each batch (common.HostSpeed)
EPT_OPS = 32


def grid_op(j: int) -> tuple[float, float]:
    """τ and T of the j-th operation: 16 consecutive ops cover the grid."""
    return TAU_GRID[(j // 4) % 4], T_GRID[j % 4]


def run(args, report: Report, recorder, work) -> dict:
    lake = make_lake("SWDC-like", args.seed)
    report.section("lake", {**lake.describe(), "n_pivots": N_PIVOTS, "levels": LEVELS})
    report.section("mix", {
        "tau": TAU_GRID, "T": T_GRID, "batch": BATCH, "topk": [TOPK_K, TOPK_TAU],
        "shares": SHARES, "round": [ROUND_SEARCHES, ROUND_WRITE_PAIRS, 1],
        "loop": "closed, 1 caller",
    })
    pool = lake.queries(POOL)
    lane = lake.queries(LANE)
    new_columns = write_columns(lake, 64)
    oracle = Oracle(lake.columns)
    baseline_mb = settle()

    def build():
        return LakeSearcher(
            PexesoIndex.build(lake.columns, n_pivots=N_PIVOTS, levels=LEVELS)
        )

    if recorder is not None:
        recorder.install()
    searcher = repeat_setup(report, build, lambda s: None, SETUP_REPEATS, "builds")
    report.metric("index_mb", searcher.memory_bytes() / 1e6, "MB")

    # Counter lane: fixed queries, one caller, no timers -> the counters
    # must repeat exactly. Its first pass also warms the process up.
    def lane_pass():
        stats = SearchStats()
        started = time.perf_counter()
        for j, query in enumerate(lane):
            tau, t = grid_op(j)
            stats.merge(searcher.search(query, lake.tau(tau), t).stats)
        return lane_counters(stats), time.perf_counter() - started

    layer = counter_lane(report, recorder, lane_pass)

    stats = {"search": SearchStats(), "batch": SearchStats()}
    # grid cell -> (seconds, probe seconds) of each single search
    cells: dict[int, list[tuple[float, float]]] = {}
    answers, batches, batch_answers = [], [], []  # batches: (seconds, probe seconds)
    writes: dict[str, list[float]] = {"add": [], "delete": []}

    # -- rounds of single searches, write pairs and one fused batch ----------------
    # Interleaving the three spreads each one's samples over the whole
    # measured window, so a change in host speed lasting a few seconds
    # moves all of them a little instead of one of them entirely.
    ops = batched = rounds = 0
    # reference slices shaped like what they sit beside (common.HostSpeed)
    speed, batch_speed = HostSpeed(blocking_slice), HostSpeed()
    deadline = time.perf_counter() + SHARES["rounds"] * args.seconds
    while time.perf_counter() < deadline:
        if recorder is not None:
            recorder.phase = "search"
        for j in range(ops, ops + ROUND_SEARCHES):
            tau, t = grid_op(j)
            started = time.perf_counter()
            try:
                result = searcher.search(pool[j % POOL], lake.tau(tau), t)
            except Exception as exc:  # counted, never retried
                report.count(1, 1)
                report.line(f"search failed: {exc!r}")
                continue
            elapsed = time.perf_counter() - started
            # the probe right after each search runs in the same stretch
            # of host speed as the search
            cells.setdefault(j % GRID, []).append((elapsed, speed.probe()))
            report.count(1, 0)
            stats["search"].merge(result.stats)
            answers.append((j, result_hits(result)))
        ops += ROUND_SEARCHES

        if recorder is not None:
            recorder.phase = "write"
        timed_writes(report, searcher, new_columns, ROUND_WRITE_PAIRS,
                     rounds * ROUND_WRITE_PAIRS, writes)
        rounds += 1

        # the same (query, τ, T) stream as the single searches, 48 per call
        if recorder is not None:
            recorder.phase = "batch"
        members = list(range(batched, batched + BATCH))
        batched += BATCH
        probes = [batch_speed.probe() for _ in range(BATCH_PROBES)]
        started = time.perf_counter()
        try:
            batch = searcher.search_many(
                [pool[j % POOL] for j in members],
                [lake.tau(grid_op(j)[0]) for j in members],
                [grid_op(j)[1] for j in members],
            )
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
    wall = [seconds for cell in cells.values() for seconds, _ in cell]
    scaled = [speed.scaled(*sample) for cell in cells.values() for sample in cell]
    # τ spans 4x over the grid, so single-search costs form several modes
    # and the median of all of them jumps between modes from run to run;
    # the mean of the per-cell medians does not
    note = f"mean of the {len(cells)} grid cells' medians, n={len(wall)}"
    report.metric("wall.search_p50_ms",
                  ms(sum(median(s for s, _ in c) for c in cells.values()) / len(cells)),
                  "ms", note=note)
    report.metric("wall.search_p90_ms", ms(percentile(wall, 90)), "ms", note=f"n={len(wall)}")
    report.metric("wall.throughput_qps", BATCH / median(s for s, _ in batches), "1/s",
                  note=f"batch_qps: {BATCH} queries over the median of "
                       f"{len(batches)} search_many batches")
    note = f"each search scaled by the probe after it; {speed.note()}"
    report.metric("search_p50_ms",
                  ms(sum(median(speed.scaled(*x) for x in c) for c in cells.values())
                     / len(cells)), "ms", note=note)
    report.metric("search_p90_ms", ms(percentile(scaled, 90)), "ms", note=note)
    report.metric("throughput_qps",
                  BATCH / interquartile_mean(batch_speed.scaled(*b) for b in batches), "1/s",
                  note=f"interquartile mean of the batches, each scaled by the median of "
                       f"the {2 * BATCH_PROBES} probes around it; {batch_speed.note()}")
    write_metrics(report, writes)
    speed.rescale(report, ["write_p50_ms"])

    # -- exact top-k ------------------------------------------------------------------
    if recorder is not None:
        recorder.phase = "topk"
    topk_latencies, topk_answers, topk_stats = [], [], SearchStats()
    deadline = time.perf_counter() + SHARES["topk"] * args.seconds
    i = 0
    while time.perf_counter() < deadline or not topk_latencies:
        query = pool[i % POOL]
        started = time.perf_counter()
        try:
            result = searcher.topk(query, lake.tau(TOPK_TAU), TOPK_K)
        except Exception as exc:
            report.count(1, 1)
            report.line(f"topk failed: {exc!r}")
            i += 1
            continue
        topk_latencies.append(time.perf_counter() - started)
        report.count(1, 0)
        topk_stats.merge(result.stats)
        topk_answers.append((i, result.hits))
        i += 1
    report.metric("topk_p50_ms", ms(median(topk_latencies)), "ms",
                  note=f"n={len(topk_latencies)}, k={TOPK_K}, tau={TOPK_TAU}")

    report.metric("rss_peak_mb", rss_peak_mb(baseline_mb), "MB",
                  note=f"above the {baseline_mb:.1f} MB resident once inputs were generated")

    # -- EPT yardstick (traced run only; reported, never gated) ----------------------
    if recorder is not None:
        recorder.uninstall()
        layer.update(ept_yardstick(lake, searcher, pool, report))

    # -- correctness, outside every timed region --------------------------------------
    for j, hits in answers:
        tau, t = grid_op(j)
        oracle.check_search(report, f"search#{j}", j % POOL, pool[j % POOL], lake.tau(tau), t, hits)
    for j, hits in batch_answers:
        tau, t = grid_op(j)
        oracle.check_search(report, f"batch#{j}", j % POOL, pool[j % POOL], lake.tau(tau), t, hits)
    for i, hits in topk_answers:
        oracle.check_topk(report, f"topk#{i}", pool[i % POOL], lake.tau(TOPK_TAU), TOPK_K, hits)

    if recorder is None:
        return layer
    queries = len(answers)
    layer.update(span_metrics(recorder, queries))
    layer.update(counter_metrics(stats["search"], queries))
    # single searches report no stage_seconds; the fused batches do
    layer.update(stage_metrics(report, recorder, stats["batch"].stage_seconds,
                               batch_queries, ("batch",)))
    layer.update(index_metrics(recorder, SETUP_REPEATS))
    hits = sum(len(h) for _, h in answers)
    verified = stats["search"].columns_verified
    layer["verifier.hit_ratio"] = hits / verified if verified else 0.0
    layer["topk.distance_computations"] = topk_stats.distance_computations / len(topk_latencies)
    return layer


def ept_yardstick(lake, searcher, pool, report) -> dict:
    """EPT (the pivot-table scan of Table VII) against PEXESO on the same
    queries and τ/T cells, both untraced."""
    table, column_of_row = build_ept_index(lake.columns, n_pivots=N_PIVOTS)
    ept_s = pexeso_s = 0.0
    for j in range(EPT_OPS):
        tau, t = grid_op(j)
        query = pool[j % POOL]
        started = time.perf_counter()
        ept_search(lake.columns, query, lake.tau(tau), t, table=table,
                   column_of_row=column_of_row)
        ept_s += time.perf_counter() - started
        started = time.perf_counter()
        searcher.search(query, lake.tau(tau), t)
        pexeso_s += time.perf_counter() - started
    report.line(
        f"EPT yardstick over {EPT_OPS} grid ops: EPT {ms(ept_s) / EPT_OPS:.2f} ms/query, "
        f"PEXESO {ms(pexeso_s) / EPT_OPS:.2f} ms/query (ratio = PEXESO / EPT)"
    )
    return {"ept.search_ms": ms(ept_s) / EPT_OPS, "ept.pexeso_ratio": pexeso_s / ept_s}
