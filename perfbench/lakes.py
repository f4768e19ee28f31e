"""Seeded lakes, query streams and the exact oracle every answer is checked against.

The lakes are the shape profiles of the repository's paper benchmarks
(``benchmarks/common.py``), regenerated here so the benchmark depends on
nothing outside its own directory but ``src/``:

* SWDC-like: many short columns (8-24 rows), 16-dim embeddings;
* LWDC-like: twice the columns of SWDC, the paper's out-of-core profile.

Each profile's lake is one fixed corpus (its own generator seed, as in the
paper benchmarks); the run's ``--seed`` draws the queries, the columns
written and the request mix. Costs then differ between seeds only by the
queries sampled, not by a different lake, so runs with different seeds
compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from repro.baselines.exact_naive import naive_search
from repro.core.metric import EuclideanMetric
from repro.core.thresholds import distance_threshold, joinability_count
from repro.core.topk import naive_topk
from repro.lake.datagen import DataLakeGenerator

PROFILES = {
    "SWDC-like": dict(n_tables=240, rows_range=(8, 25), dim=16, n_entities=160, lake_seed=1),
    "LWDC-like": dict(n_tables=480, rows_range=(8, 22), dim=16, n_entities=300, lake_seed=2),
}
QUERY_ROWS = 20
METRIC = EuclideanMetric()


@dataclass
class Lake:
    profile: str
    scale: int
    gen: DataLakeGenerator
    columns: list[np.ndarray]

    @property
    def dim(self) -> int:
        return self.columns[0].shape[1]

    @property
    def n_vectors(self) -> int:
        return sum(c.shape[0] for c in self.columns)

    def describe(self) -> dict:
        return {
            "profile": self.profile,
            "lake_seed": PROFILES[self.profile]["lake_seed"],
            "scale": self.scale,
            "columns": len(self.columns),
            "vectors": self.n_vectors,
            "dim": self.dim,
        }

    def tau(self, fraction: float) -> float:
        return distance_threshold(fraction, METRIC, self.dim)

    def queries(self, count: int, rows: int = QUERY_ROWS) -> list[np.ndarray]:
        """``count`` more query columns, drawn in order from the seeded
        generator (the same seed always yields the same stream)."""
        out = []
        for i in range(count):
            table, _ = self.gen.generate_query_table(
                n_rows=rows, domain=i % 5, name=f"query_{i}"
            )
            out.append(self.gen.embedder.embed_column(table.column("key").values))
        return out


def make_lake(profile: str, seed: int, scale: int = 1) -> Lake:
    """The profile's fixed lake; later draws (queries, written columns)
    follow ``seed``."""
    spec = PROFILES[profile]
    gen = DataLakeGenerator(
        seed=spec["lake_seed"], dim=spec["dim"], n_entities=spec["n_entities"]
    )
    generated = gen.generate_lake(
        n_tables=spec["n_tables"] * scale, rows_range=spec["rows_range"]
    )
    columns = generated.vector_columns()
    gen.rng = np.random.default_rng([seed, spec["lake_seed"]])
    return Lake(profile=profile, scale=scale, gen=gen, columns=columns)


Generation = Union[int, Sequence[int], None]


@dataclass
class Oracle:
    """``naive_search`` / ``naive_topk`` ground truth over a live lake.

    Writes are recorded with the generation they produced, so an answer
    stamped with generation ``g`` is checked against exactly the columns
    live after the first ``g`` writes. A generation *vector* (cluster
    replies) whose entries differ means the answer straddled a write;
    only the columns that write touched are then left unchecked.
    """

    base: list[np.ndarray]
    adds: dict[int, tuple[int, np.ndarray]] = field(default_factory=dict)
    deletes: dict[int, int] = field(default_factory=dict)
    _counts: dict = field(default_factory=dict)

    def record_add(self, generation: int, column_id: int, vectors: np.ndarray) -> None:
        self.adds[int(column_id)] = (int(generation), np.asarray(vectors))

    def record_delete(self, generation: int, column_id: int) -> None:
        self.deletes[int(column_id)] = int(generation)

    def _live(self, generation: int) -> set[int]:
        live = set(range(len(self.base)))
        live.update(c for c, (g, _) in self.adds.items() if g <= generation)
        live.difference_update(c for c, g in self.deletes.items() if g <= generation)
        return live

    def counts(self, key, query: np.ndarray, tau: float) -> dict[int, int]:
        """Exact match count of every column (base and added) with >= 1 match."""
        memo_key = (key, float(tau), len(self.adds))
        cached = self._counts.get(memo_key)
        if cached is not None:
            return cached
        base_key = (key, float(tau), "base")
        base = self._counts.get(base_key)
        if base is None:
            result = naive_search(self.base, query, tau, 1, metric=METRIC)
            base = {hit.column_id: hit.match_count for hit in result.joinable}
            self._counts[base_key] = base
        counts = dict(base)
        for column_id, (_, vectors) in self.adds.items():
            result = naive_search([vectors], query, tau, 1, metric=METRIC)
            if result.joinable:
                counts[column_id] = result.joinable[0].match_count
        self._counts[memo_key] = counts
        return counts

    def check_search(self, report, label: str, key, query: np.ndarray, tau: float,
                     joinability, hits, generation: Generation = None) -> None:
        """Compare one answer's ``hits`` — ``(column_id, match_count,
        exact_count)`` triples — with the oracle; mismatches go to ``report``."""
        report.checked += 1
        if generation is None:
            lo = hi = 0
        elif isinstance(generation, (int, np.integer)):
            lo = hi = int(generation)
        else:
            lo, hi = min(generation), max(generation)
        live_lo, live_hi = self._live(lo), self._live(hi)
        settled = live_lo & live_hi
        ambiguous = live_lo ^ live_hi
        counts = self.counts(key, query, tau)
        t_count = joinability_count(joinability, query.shape[0])
        expected = {c for c in settled if counts.get(c, 0) >= t_count}
        got = {int(h[0]) for h in hits} - ambiguous
        if got != expected:
            report.mismatch(
                f"{label}: ids differ; missing {sorted(expected - got)[:8]} "
                f"extra {sorted(got - expected)[:8]}"
            )
            return
        for column_id, count, exact in hits:
            column_id = int(column_id)
            if column_id in ambiguous:
                continue
            truth = counts[column_id]
            if exact and count != truth:
                report.mismatch(f"{label}: column {column_id} count {count} != {truth}")
            elif not exact and not (t_count <= count <= truth):
                report.mismatch(
                    f"{label}: column {column_id} lower bound {count} outside "
                    f"[{t_count}, {truth}]"
                )

    def check_topk(self, report, label: str, query: np.ndarray, tau: float, k: int,
                   hits) -> None:
        report.checked += 1
        expected = [(c, n) for c, n, _ in naive_topk(self.base, query, tau, k, metric=METRIC)]
        got = [(int(c), int(n)) for c, n, _ in hits]
        if got != expected:
            report.mismatch(f"{label}: top-{k} {got[:5]} != {expected[:5]}")


def result_hits(result) -> list[tuple[int, int, bool]]:
    """``(column_id, match_count, exact_count)`` of a library SearchResult."""
    return [(h.column_id, h.match_count, h.exact_count) for h in result.joinable]


def payload_hits(payload: dict) -> list[tuple[int, int, bool]]:
    """The same triples from a ``/search`` JSON reply."""
    return [
        (h["column_id"], h["match_count"], h["exact_count"]) for h in payload["hits"]
    ]


def write_columns(lake: Lake, count: int) -> list[np.ndarray]:
    """Columns to add during write phases (drawn after the queries)."""
    return lake.queries(count, rows=12)
