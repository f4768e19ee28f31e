"""Statistics, process memory and the result report shared by every workload."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

#: checkout root: the directory that holds ``perfbench/`` and ``src/``
ROOT = Path(__file__).resolve().parents[1]
#: scratch space inside the checkout (spill directories, saved lakes,
#: the traced run's span dump); removed by each workload when it ends
WORK_DIR = ROOT / ".perfbench_work"

#: graph depth / pivot count used by every lake: on SWDC-like data at seed
#: a single query took 19-31 ms at m=3, L=3 against 137-159 ms at the
#: library default m=5, L=4, so the benchmark runs the measured-faster one
N_PIVOTS = 3
LEVELS = 3


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def interquartile_mean(values: Iterable[float]) -> float:
    """Mean of the middle half of ``values``: as robust as the median to a
    few slow samples, but it averages over more of them."""
    values = sorted(values)
    if not values:
        return float("nan")
    cut = len(values) // 4
    return float(statistics.mean(values[cut:len(values) - cut]))


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    values = list(values)
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def rss_mb() -> float:
    """Resident set size of this process now, in MB."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_peak_mb(baseline: float) -> float:
    """Peak resident set size of this process above ``baseline`` (the
    resident set once the inputs were generated), in MB: the memory the
    program added on top of the benchmark's own inputs."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - baseline


def repeat_setup(report: "Report", build: Callable[[], object],
                 teardown: Callable[[object], None], repeats: int, what: str) -> object:
    """Run ``build`` ``repeats`` times, probing the host's speed before
    each; keep the last result, tear down the rest.

    Reports ``wall.setup_s``, the median build, so one slow build (a
    page-cache miss, a scheduler hiccup) does not move it, and
    ``setup_s``, the median of the builds each scaled by the probe just
    before it (``HostSpeed.scaled``). Returns the last built object.
    """
    speed = HostSpeed()
    built = None
    seconds, scaled = [], []
    for _ in range(repeats):
        if built is not None:
            teardown(built)
            # collect the torn-down copy now, so copies do not pile up in
            # memory until the collector happens to run
            built = None
            gc.collect()
        probe = speed.probe()
        started = time.perf_counter()
        built = build()
        seconds.append(time.perf_counter() - started)
        scaled.append(speed.scaled(seconds[-1], probe))
    report.metric("wall.setup_s", median(seconds), "s",
                  note=f"median of {len(seconds)} {what}")
    report.metric("setup_s", median(scaled), "s", note=speed.note())
    return built


def settle() -> float:
    """Move the benchmark's own inputs (generated lakes, query pools) out of
    the cyclic garbage collector's reach before anything is timed, so the
    program's collections do not scan them (the program runs in-process).
    Returns the resident set then, the baseline of ``rss_peak_mb``."""
    gc.collect()
    gc.freeze()
    return rss_mb()


def timed_writes(report: "Report", searcher, columns, pairs: int, first: int,
                 writes: dict[str, list[float]]) -> None:
    """Add a column and delete it again, ``pairs`` times, through a
    LakeSearcher, starting at ``columns[first]``; appends seconds per call
    to ``writes["add"]`` and ``writes["delete"]``. Visibility is checked
    between the timed calls."""
    for i in range(first, first + pairs):
        try:
            started = time.perf_counter()
            column_id = searcher.add_column(columns[i % len(columns)])
            writes["add"].append(time.perf_counter() - started)
            if not searcher.has_column(column_id):
                report.mismatch(f"added column {column_id} not visible")
            started = time.perf_counter()
            searcher.delete_column(column_id)
            writes["delete"].append(time.perf_counter() - started)
            if searcher.has_column(column_id):
                report.mismatch(f"deleted column {column_id} still visible")
            report.count(2, 0)
        except Exception as exc:  # counted, never retried
            report.count(2, 1)
            report.line(f"write failed: {exc!r}")


def latency_metrics(report: "Report", name: str, seconds: list[float], note: str = "") -> None:
    """``wall.<name>_p50_ms`` and ``wall.<name>_p90_ms`` with the sample count."""
    note = f"n={len(seconds)}" + (f", {note}" if note else "")
    report.metric(f"wall.{name}_p50_ms", ms(median(seconds)), "ms", note=note)
    report.metric(f"wall.{name}_p90_ms", ms(percentile(seconds, 90)), "ms", note=note)


def scaled_latency_metrics(report: "Report", name: str, samples: list[tuple[float, float]],
                           speed: "HostSpeed", note: str = "") -> None:
    """``latency_metrics`` of the measured seconds of ``samples``, each a
    ``(seconds, probe seconds)`` pair, then ``<name>_p50_ms`` and
    ``<name>_p90_ms`` of each sample scaled by its own probe."""
    latency_metrics(report, name, [seconds for seconds, _ in samples], note)
    scaled = [speed.scaled(*sample) for sample in samples]
    note = f"n={len(scaled)}, each scaled by the probe beside it; {speed.note()}"
    report.metric(f"{name}_p50_ms", ms(median(scaled)), "ms", note=note)
    report.metric(f"{name}_p90_ms", ms(percentile(scaled, 90)), "ms", note=note)


def as_measured(report: "Report", names, why: str) -> None:
    """Report each ``name`` as its measured ``wall.<name>``, for timings
    no host-speed probe tracks (``why`` says which and why)."""
    for name in names:
        wall = report.values[f"wall.{name}"]
        report.metric(name, wall["value"], wall["unit"], note=f"as measured: {why}")


def write_metrics(report: "Report", writes: dict[str, list[float]], note: str = "") -> None:
    """``wall.write_p50_ms``: the mean of the add_column and delete_column
    medians. An add costs several times a delete and the two alternate,
    so one median over both would sit in the gap between the two and
    jump from run to run; each kind's median is printed too."""
    for kind in ("add", "delete"):
        report.metric(f"{kind}_p50_ms", ms(median(writes[kind])), "ms",
                      note=f"n={len(writes[kind])}" + (f", {note}" if note else ""))
    report.metric("wall.write_p50_ms", ms(median(writes["add"]) + median(writes["delete"])) / 2,
                  "ms", note="mean of the add and delete medians")


_VECTOR_RNG = np.random.default_rng(0)
_VECTOR_POINTS = _VECTOR_RNG.standard_normal((2000, 16))
_VECTOR_QUERIES = _VECTOR_RNG.standard_normal((20, 16))


def vector_slice() -> int:
    """Distance blocks over a 2000x16 array for 20 queries, with a short
    Python loop over the hits: mostly whole-array NumPy work, like the
    program's fused batches and index builds."""
    seen: dict[int, int] = {}
    for query in _VECTOR_QUERIES:
        distances = np.sqrt(((_VECTOR_POINTS - query) ** 2).sum(axis=1))
        for i in np.flatnonzero(distances < 4.0).tolist():
            seen[i % 97] = seen.get(i % 97, 0) + 1
    return len(seen)


def _blocking_inputs():
    """Fixed inputs of ``blocking_slice``: 4000 points in a 3-d pivot space
    bucketed into an 8x8x8 grid, their 16-d vectors, and 6 queries."""
    rng = np.random.default_rng(0)
    mapped = rng.random((4000, 3))
    vectors = rng.standard_normal((4000, 16))
    cells: dict[tuple, list[int]] = {}
    for i, cell in enumerate(map(tuple, (mapped * 8).astype(np.int64).tolist())):
        cells.setdefault(cell, []).append(i)
    grid = {cell: np.asarray(members) for cell, members in sorted(cells.items())}
    return mapped, vectors, grid, rng.random((6, 3)), rng.standard_normal((6, 16))


_BLOCK_MAPPED, _BLOCK_VECTORS, _BLOCK_GRID, _BLOCK_QUERIES, _BLOCK_QUERY_VECTORS = (
    _blocking_inputs()
)
_BLOCK_RADIUS = 0.15


def blocking_slice() -> int:
    """A small block-and-verify: per query, scan the grid for cells within
    a radius, filter each cell's members with small NumPy arrays, verify
    the survivors by distance and collect them in Python dicts and lists.
    Interpreter work around many small-array NumPy calls, like the
    program's single-query blocking and verification."""
    hits: dict[int, list[int]] = {}
    for query, query_vector in zip(_BLOCK_QUERIES, _BLOCK_QUERY_VECTORS):
        lo = ((query - _BLOCK_RADIUS) * 8).astype(np.int64)
        hi = ((query + _BLOCK_RADIUS) * 8).astype(np.int64)
        for cell, members in _BLOCK_GRID.items():
            if (cell[0] < lo[0] or cell[0] > hi[0] or cell[1] < lo[1] or cell[1] > hi[1]
                    or cell[2] < lo[2] or cell[2] > hi[2]):
                continue
            near = np.abs(_BLOCK_MAPPED[members] - query).max(axis=1) <= _BLOCK_RADIUS
            if not near.any():
                continue
            candidates = members[near]
            distances = np.sqrt(((_BLOCK_VECTORS[candidates] - query_vector) ** 2).sum(axis=1))
            for i in candidates[distances < 5.0].tolist():
                hits.setdefault(i % 211, []).append(i)
    return len(hits)


class HostSpeed:
    """How fast the host runs a fixed slice of work, beside the measured
    operations of a run.

    The host changes speed by up to 2x for seconds to minutes at a time,
    and a slow stretch slows interpreter-bound code (a single query's
    blocking) more than whole-array NumPy work (a fused batch). A workload
    calls ``probe()`` beside its measured operations; it times ``work``,
    one of the slices above, chosen to be shaped like the operations it
    sits beside. The slices are run by the benchmark, so no change to the
    program moves them. ``scaled(seconds, probe)`` is an operation's time
    on a host where the slice takes ``REFERENCE_S``, given the probe
    beside it; ``factor`` does the same with the run's median probe.
    """

    REFERENCE_S = 0.003

    def __init__(self, work: Callable[[], object] = vector_slice):
        self.work = work
        self.seconds: list[float] = []

    def probe(self) -> float:
        started = time.perf_counter()
        self.work()
        seconds = time.perf_counter() - started
        self.seconds.append(seconds)
        return seconds

    def scaled(self, seconds: float, probe: float) -> float:
        return seconds * self.REFERENCE_S / probe

    @property
    def factor(self) -> float:
        return self.REFERENCE_S / median(self.seconds)

    def note(self) -> str:
        return (f"at reference host speed: median probe {ms(median(self.seconds)):.3f} ms "
                f"of {len(self.seconds)}")

    def rescale(self, report: "Report", names) -> None:
        """Report each ``name`` as its measured ``wall.<name>`` times
        ``factor``: what the run would have read on a host where the
        median probe takes ``REFERENCE_S``. Rates scale the other way."""
        factor = self.factor
        for name in names:
            wall = report.values[f"wall.{name}"]
            value = wall["value"] / factor if wall["unit"] == "1/s" else wall["value"] * factor
            report.metric(name, value, wall["unit"], note=f"{self.note()}, factor {factor:.4f}")


def provenance() -> dict:
    import repro

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": getattr(repro, "__version__", "?"),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


class Report:
    """Collects metrics, printing each as a human-readable line, then the
    one-line JSON result the benchmark contract asks for: the metrics
    ``BENCHMARK.json`` lists (``end_to_end`` with ``--trace 0``,
    ``per_layer`` with ``--trace 1``). Every other metric is printed only.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.values: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.checked = 0  # answers compared with the oracle
        self.mismatches: list[str] = []

    def line(self, text: str) -> None:
        print(f"[{self.workload}] {text}", flush=True)

    def section(self, title: str, payload) -> None:
        self.line(f"{title}: {json.dumps(payload, sort_keys=True, default=str)}")

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        value = float(value)
        suffix = f"  ({note})" if note else ""
        self.line(f"metric {name} = {value:.6g} {unit}{suffix}")
        self.values[name] = {"value": value, "unit": unit}

    def mismatch(self, text: str) -> None:
        if len(self.mismatches) < 20:
            self.line(f"MISMATCH {text}")
        self.mismatches.append(text)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def finish(self, names) -> int:
        """Print the summary and the result line with the ``names``
        metrics; returns the exit code."""
        failed_ratio = self.failed / self.attempted if self.attempted else 1.0
        self.metric("failed_ratio", failed_ratio, "fraction",
                    note=f"{self.failed} of {self.attempted} operations")
        # a failed, refused or timed-out operation fails the run too, and
        # so does a run that checked no answer at all
        correct = not self.mismatches and self.failed == 0 and self.checked > 0
        self.line(
            f"correctness: {'PASS' if correct else 'FAIL'} ({self.checked} answers "
            f"checked, {len(self.mismatches)} mismatches, {self.failed} failed)"
        )
        print(json.dumps({
            "correct": correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: self.values[name] for name in names},
        }), flush=True)
        return 0 if correct else 1


def ms(seconds: float) -> float:
    return seconds * 1000.0
