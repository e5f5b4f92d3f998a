"""In-memory spans and the in-process re-drive of a workload's shards.

Spans are recorded from the benchmark's side of each layer boundary,
around calls into the layer's public functions; nothing inside the
package is instrumented. A span is (name, start, end, parent, run id).
A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import contextlib
import json
import time

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from whitebox_geospatial_analysis_tools_ray.core.features import seeded_polygons
from whitebox_geospatial_analysis_tools_ray.core.rng import (
    EAST, NORTH, SOUTH, WEST, geocode_xy)
from whitebox_geospatial_analysis_tools_ray.core.tiles import RectGrid
from whitebox_geospatial_analysis_tools_ray.pipelines.pages_flagship import (
    url_ids_arrow)
from whitebox_geospatial_analysis_tools_ray.sources.pages import extract_texts
from whitebox_geospatial_analysis_tools_ray.stages.spatial_join import (
    BroadcastPIPJoin)

# the flagship's tile width (pages_flagship's default)
TILE_WIDTH = 250.0


class Tracer:
    """Collects spans in memory; a disabled tracer records nothing, which
    gives the untraced wall the tracing overhead is measured against."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[list] = []      # [name, start, end, parent index]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def _record(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def span(self, name: str):
        return self._record(name) if self.enabled else contextlib.nullcontext()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (Σ self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for (name, start, end, _), c in zip(self.spans, child):
            s, k = out.get(name, (0.0, 0))
            out[name] = (s + (end - start) - c, k + 1)
        return out

    @staticmethod
    def span_cost_s(n: int = 20_000) -> float:
        """Seconds one recorded span adds, from ``n`` empty spans."""
        probe = Tracer("probe")
        t0 = time.perf_counter()
        for _ in range(n):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - t0) / n

    def dump(self, f) -> None:
        for name, start, end, parent in self.spans:
            f.write(json.dumps({"name": name, "start": start, "end": end,
                                "parent": parent, "run": self.run_id}) + "\n")


class _CandidateProbe:
    """Stands in for ``ZoneGridIndex`` inside ``BroadcastPIPJoin`` so the
    join's call into ``candidates`` gets its own span; keeps the last
    result so the pairs it proposed can be counted after the span ends."""

    def __init__(self, index, tracer: Tracer):
        self._index = index
        self._tracer = tracer
        self.last: dict = {}

    def candidates(self, x, y):
        with self._tracer.span("stages.spatial_join.candidates"):
            self.last = self._index.candidates(x, y)
        return self.last


def redrive_pages(files: list[str], tracer: Tracer) -> tuple[pd.DataFrame, dict]:
    """Run the flagship's per-batch chain over each shard file in this
    process, one batch per file as ``pages_flagship`` does with
    ``batch_size=None``: read -> extract -> CRC ids -> geocode -> PIP join
    -> tile -> partial count, then the final combine. Returns the
    (tile_id, zone_id, n_pages, sum_chars) result and the join counters."""
    grid = RectGrid.from_extent(WEST, SOUTH, EAST, NORTH,
                                width_x=TILE_WIDTH, width_y=TILE_WIDTH)
    zones = seeded_polygons()
    with tracer.span("stages.spatial_join.index_build"):
        join = BroadcastPIPJoin(zones, mode="inner")
    probe = _CandidateProbe(join.index, tracer)
    join.index = probe
    counts = {"candidate_pairs": 0, "hit_pairs": 0}
    partials = []
    for path in files:
        with tracer.span("pipelines.pages_flagship.batch"):
            with tracer.span("sources.read_table"):
                batch = pq.read_table(path, columns=["url", "html"])
            with tracer.span("sources.extract_texts"):
                texts = extract_texts(batch.column("html"))
            with tracer.span("stages.vhash.crc32"):
                ids = url_ids_arrow(batch.column("url"))
            with tracer.span("core.rng.geocode_xy"):
                x, y = geocode_xy(ids)
            n_chars = np.fromiter((len(t) for t in texts), dtype=np.int64,
                                  count=len(texts))
            with tracer.span("stages.spatial_join.join"):
                pairs = join({"rec_id": np.arange(len(ids), dtype=np.int64),
                              "x": x, "y": y})
            counts["candidate_pairs"] += int(sum(m.sum() for m in probe.last.values()))
            counts["hit_pairs"] += len(pairs)
            pos = pairs["rec_id"].to_numpy()
            with tracer.span("core.tiles.tile_of"):
                tiles = grid.tile_of(x[pos], y[pos])
            df = pd.DataFrame({"tile_id": tiles,
                               "zone_id": pairs["zone_id"].to_numpy(),
                               "chars": n_chars[pos]})
            partials.append(df.groupby(["tile_id", "zone_id"], sort=False)["chars"]
                            .agg(c="count", s="sum").reset_index())
    g = (pd.concat(partials, ignore_index=True)
         .groupby(["tile_id", "zone_id"], sort=True)
         .agg(n_pages=("c", "sum"), sum_chars=("s", "sum")).reset_index())
    return g, counts
