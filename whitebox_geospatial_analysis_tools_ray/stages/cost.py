"""Cost-distance family (GISTools/src/plugins/CostAccumulation.java 635,
CostAllocation.java 311, CostPathway.java 277 LoC).

Reference semantics: iterative directional scans relaxing
``newCost = cost(u) + (costSurface(u) + costSurface(v))/2 · dist(c)``
(CostAccumulation.java:340,369,398,427 — dist = 1 or √2) until no cell
changes; the fixed point is exactly the multi-source shortest-path
distance over the 8-connected graph with those edge weights.
CostAllocation carries the identity of the winning source.

Ray plan (the fill/flow-accumulation machinery): per row-band tile, a
local Dijkstra seeded by in-tile sources plus boundary estimates
received from the adjacent bands; each round emits the tile's updated
edge rows (O(cols) messages), iterating to a fixed point. Labels are
LEXICOGRAPHIC (dist, src) pairs, so ties resolve to the smallest source
id regardless of relaxation order — the fixed point is independent of
tiling and scheduling, asserted by the mirror + invariance tests.
"""

from __future__ import annotations

import heapq
import json

import numpy as np
import pandas as pd
import ray

from .raster import RasterSpec, synth_value, tile_task

_SQRT2 = float(np.sqrt(2.0))
_DX = (1, 1, 1, 0, -1, -1, -1, 0)
_DY = (-1, 0, 1, 1, 1, 0, -1, -1)
_DIST = tuple(_SQRT2 if i % 2 == 0 else 1.0 for i in range(8))

_AS = 2654435761
_MS = 4294967296
SOURCE_MOD = 997


def cost_surface(cell: np.ndarray, nodata: float) -> np.ndarray:
    """Positive traversal cost; NoData cells are impassable."""
    z = synth_value(cell)
    return np.where(z == nodata, nodata, 1.0 + z / 200.0)


def source_mask(cell: np.ndarray) -> np.ndarray:
    return ((cell * _AS + 77) % _MS) % SOURCE_MOD == 0


def _tile_solve(spec: RasterSpec, tid: int, seeds: dict):
    """Dijkstra inside one row band. ``seeds`` maps global cell →
    (dist, src) initial labels from boundary messages. Returns
    (dist, src arrays, top-row labels, bottom-row labels)."""
    r0, r1 = spec.band(tid)
    H, W = r1 - r0, spec.cols
    cell = np.arange(r0 * W, r1 * W, dtype=np.int64)
    cs = cost_surface(cell, spec.nodata).reshape(H, W)
    passable = cs != spec.nodata
    dist = np.full((H, W), np.inf)
    src = np.full((H, W), np.iinfo(np.int64).max, dtype=np.int64)
    heap = []
    is_src = source_mask(cell).reshape(H, W) & passable
    for r, c in zip(*np.nonzero(is_src)):
        g = (r0 + int(r)) * W + int(c)
        dist[r, c], src[r, c] = 0.0, g
        heapq.heappush(heap, (0.0, g, int(r), int(c)))
    for g, (d, s) in seeds.items():
        r, c = divmod(int(g), W)
        r -= r0
        if 0 <= r < H and passable[r, c] and \
                (d, s) < (dist[r, c], src[r, c]):
            dist[r, c], src[r, c] = d, s
            heapq.heappush(heap, (d, s, r, c))
    while heap:
        d, s, r, c = heapq.heappop(heap)
        if (d, s) != (dist[r, c], src[r, c]):
            continue
        for i in range(8):
            r2, c2 = r + _DY[i], c + _DX[i]
            if 0 <= r2 < H and 0 <= c2 < W and passable[r2, c2]:
                nd = d + (cs[r, c] + cs[r2, c2]) / 2.0 * _DIST[i]
                if (nd, s) < (dist[r2, c2], src[r2, c2]):
                    dist[r2, c2], src[r2, c2] = nd, s
                    heapq.heappush(heap, (nd, s, r2, c2))
    return dist, src, cs


def _ghost_candidates(dist, src, cs, spec, tid, side):
    """Relaxed labels for the GHOST row just outside this band
    (side=-1: row above; +1: row below): for each ghost cell v,
    min over its in-band edge-row neighbours u of
    (d(u) + (cs(u)+cs(v))/2·dist, src(u)). Emitted to the owner band."""
    H, W = dist.shape
    r0 = spec.band(tid)[0]
    edge = 0 if side < 0 else H - 1
    grow = r0 - 1 if side < 0 else r0 + H
    if grow < 0 or grow >= spec.rows:
        return {}
    gcell = np.arange(grow * W, (grow + 1) * W, dtype=np.int64)
    gcs = cost_surface(gcell, spec.nodata)
    out = {}
    for c in np.flatnonzero(np.isfinite(dist[edge])):
        d, s = float(dist[edge, c]), int(src[edge, c])
        for dc in (-1, 0, 1):
            c2 = int(c) + dc
            if 0 <= c2 < W and gcs[c2] != spec.nodata:
                step = (float(cs[edge, c]) + float(gcs[c2])) / 2.0 \
                    * (1.0 if dc == 0 else _SQRT2)
                cand = (d + step, s)
                g = int(gcell[c2])
                if g not in out or cand < out[g]:
                    out[g] = cand
    return out


def cost_tile_refs(spec: RasterSpec, max_rounds: int = 64) -> dict:
    """{tid: ObjectRef((dist, src))} — the converged cost planes as
    per-tile object-store refs; the arrays never land on the driver."""
    from .fixed_point import tile_fixed_point

    n = spec.n_tiles

    def build(tid: int):
        return None

    def _merge(inbox) -> dict:
        seeds: dict = {}
        for _sender, msg in inbox:
            for g, lab in msg.items():
                lab = tuple(lab)
                if g not in seeds or lab < seeds[g]:
                    seeds[g] = lab
        return seeds

    def solve(state, tid: int, inbox) -> dict:
        dist, src, cs = _tile_solve(spec, tid, _merge(inbox))
        top = _ghost_candidates(dist, src, cs, spec, tid, -1)
        bot = _ghost_candidates(dist, src, cs, spec, tid, +1)
        out: dict = {}
        if top and tid > 0:
            out[tid - 1] = {int(g): top[g] for g in sorted(top)}
        if bot and tid + 1 < n:
            out[tid + 1] = {int(g): bot[g] for g in sorted(bot)}
        return out

    def extract(state, tid: int, inbox):
        dist, src, _cs = _tile_solve(spec, tid, _merge(inbox))
        return ray.put((dist, src))

    refs = tile_fixed_point(n, build, solve, extract, max_rounds,
                            "cost accumulation")
    return dict(enumerate(refs))


def cost_accumulation(spec: RasterSpec | None = None,
                      max_rounds: int = 64,
                      round_to: int = 4) -> pd.DataFrame:
    """(row_id, n_reached, sum_cost, sum_src) per raster row —
    accumulation + allocation checksums."""
    spec = spec or RasterSpec()
    W = spec.cols
    refs = cost_tile_refs(spec, max_rounds)

    def per_tile(tid: int) -> pd.DataFrame:
        dist, src = ray.get(refs[tid])   # only this task's tile
        r0 = spec.band(tid)[0]
        fin = np.isfinite(dist)
        return pd.DataFrame({
            "row_id": np.arange(r0, r0 + dist.shape[0]),
            "n_reached": fin.sum(axis=1).astype(np.int64),
            "sum_cost": np.round(np.where(fin, dist, 0.0).sum(axis=1),
                                 round_to),
            "sum_src": np.where(fin, src, 0).sum(axis=1)
            .astype(np.int64)})

    final = (tile_task(spec.n_tiles, per_tile)
             .to_pandas())
    return final.sort_values("row_id").reset_index(drop=True)


def cost_accumulation_naive(spec: RasterSpec,
                            round_to: int = 4) -> pd.DataFrame:
    """Whole-grid Dijkstra mirror with the same lexicographic labels.

    Note: seeds come from boundary messages in the distributed version,
    yet the fixed point is the same shortest-path metric — this mirror
    seeds only true sources."""
    R, W = spec.rows, spec.cols
    cell = np.arange(R * W, dtype=np.int64)
    cs = cost_surface(cell, spec.nodata).reshape(R, W)
    passable = cs != spec.nodata
    dist = np.full((R, W), np.inf)
    src = np.full((R, W), np.iinfo(np.int64).max, dtype=np.int64)
    heap = []
    is_src = source_mask(cell).reshape(R, W) & passable
    for r, c in zip(*np.nonzero(is_src)):
        g = int(r) * W + int(c)
        dist[r, c], src[r, c] = 0.0, g
        heapq.heappush(heap, (0.0, g, int(r), int(c)))
    while heap:
        d, s, r, c = heapq.heappop(heap)
        if (d, s) != (dist[r, c], src[r, c]):
            continue
        for i in range(8):
            r2, c2 = r + _DY[i], c + _DX[i]
            if 0 <= r2 < R and 0 <= c2 < W and passable[r2, c2]:
                nd = d + (cs[r, c] + cs[r2, c2]) / 2.0 * _DIST[i]
                if (nd, s) < (dist[r2, c2], src[r2, c2]):
                    dist[r2, c2], src[r2, c2] = nd, s
                    heapq.heappush(heap, (nd, s, r2, c2))
    fin = np.isfinite(dist)
    return pd.DataFrame({
        "row_id": np.arange(R),
        "n_reached": fin.sum(axis=1).astype(np.int64),
        "sum_cost": np.round(np.where(fin, dist, 0.0).sum(axis=1), round_to),
        "sum_src": np.where(fin, src, 0).sum(axis=1).astype(np.int64)})


def cost_allocation(spec: RasterSpec | None = None,
                    max_rounds: int = 64) -> pd.DataFrame:
    """CostAllocation (GISTools/src/plugins/CostAllocation.java, 311
    LoC): every reachable cell is assigned to its least-cost source —
    exactly the ``src`` half of the lexicographic (dist, src) labels the
    accumulation fixed point already carries (order/tiling-free ties).
    The wide step is a Ray groupby over per-tile (src → count) partials
    (the stream_link_lengths plan); output one summary row
    (n_sources, total_alloc, max_zone, min_zone)."""
    spec = spec or RasterSpec()
    W = spec.cols
    refs = cost_tile_refs(spec, max_rounds)

    def partial(tid: int) -> pd.DataFrame:
        dist, src = ray.get(refs[tid])
        fin = np.isfinite(dist)
        labs, counts = np.unique(src[fin], return_counts=True)
        return pd.DataFrame({"src": labs, "n": counts})

    # one summary row per combine call (whole sources each), folded here
    def summary(df: pd.DataFrame) -> pd.DataFrame:
        n = df.groupby("src", sort=True)["n"].sum()
        return pd.DataFrame({
            "n_sources": [len(n)],
            "total_alloc": [int(n.sum())],
            "max_zone": [int(n.max()) if len(n) else 0],
            "min_zone": [int(n.min()) if len(n) else 0]})

    from .util import combine
    calls = combine(
        tile_task(spec.n_tiles, partial),
        "src", summary).to_pandas()
    if calls.empty:
        return calls
    return pd.DataFrame({
        "n_sources": [int(calls["n_sources"].sum())],
        "total_alloc": [int(calls["total_alloc"].sum())],
        "max_zone": [int(calls["max_zone"].max())],
        "min_zone": [int(calls["min_zone"].min())]})


def cost_pathway(spec: RasterSpec | None = None,
                 max_rounds: int = 64,
                 round_to: int = 4) -> pd.DataFrame:
    """CostPathway (GISTools/src/plugins/CostPathway.java:228-247):
    from each destination cell, walk the least-cost path back to its
    source. The reference follows the backLink raster CostAccumulation
    stored; our converged labels reconstruct the identical path: the
    predecessor of v is the neighbour minimizing
    (dist[p] + (cs(p)+cs(v))/2·step, direction-index) — at the fixed
    point the minimum equals dist[v] exactly (dist[v] was assigned
    from that very float expression). Destinations = the deterministic
    pour mask. One task walks each destination against the broadcast
    converged tiles (the snap_pour_points band-read plan); rows-only,
    Dijkstra-mirror tested."""
    from .hydro import pour_point_mask

    spec = spec or RasterSpec()
    W = spec.cols
    # least-cost paths wander across arbitrary tiles, so every walk task
    # needs random access to the WHOLE converged surface: the per-tile
    # refs dict is the broadcast (fetched lazily per tile inside dval's
    # cache) — the only justified whole-surface access in the family
    refs = cost_tile_refs(spec, max_rounds)

    def dval(tl, gr, gc):
        if not (0 <= gr < spec.rows and 0 <= gc < W):
            return np.inf
        return float(tl[gr // spec.tile_rows][0][gr % spec.tile_rows, gc])

    def solve(tid: int) -> pd.DataFrame:
        class _Lazy(dict):
            def __missing__(self, t):
                v = ray.get(refs[t])
                self[t] = v
                return v
        tl = _Lazy()
        cell = np.arange(spec.rows * W, dtype=np.int64)
        cs = cost_surface(cell, spec.nodata).reshape(spec.rows, W)
        rows = []
        r0 = spec.band(tid)[0]
        h = tl[tid][0].shape[0]
        pour = pour_point_mask(r0, r0 + h, W)
        for pr, pc in zip(*np.nonzero(pour)):
            gr, gc = r0 + int(pr), int(pc)
            d0 = dval(tl, gr, gc)
            if not np.isfinite(d0):
                continue
            steps = 0
            while tl[gr // spec.tile_rows][0][gr % spec.tile_rows,
                                              gc] > 0.0:
                best = (np.inf, -1)
                for i in range(8):
                    r2, c2 = gr + _DY[i], gc + _DX[i]
                    dp = dval(tl, r2, c2)
                    if not np.isfinite(dp):
                        continue
                    cand = dp + (cs[r2, c2] + cs[gr, gc]) / 2.0 \
                        * _DIST[i]
                    if cand < best[0]:
                        best = (cand, i)
                if best[1] < 0:  # pragma: no cover - disconnected
                    break
                gr += _DY[best[1]]
                gc += _DX[best[1]]
                steps += 1
                if steps > spec.rows * W:  # pragma: no cover
                    raise RuntimeError("pathway did not terminate")
            rows.append({"dest_cell": (r0 + int(pr)) * W + int(pc),
                         "src_cell": gr * W + gc,
                         "path_len": steps,
                         "path_cost": round(d0, round_to)})
        return pd.DataFrame(rows) if rows else pd.DataFrame(
            {"dest_cell": [], "src_cell": [], "path_len": [],
             "path_cost": []})

    out = tile_task(spec.n_tiles, solve).to_pandas()
    return out.sort_values("dest_cell").reset_index(drop=True)
