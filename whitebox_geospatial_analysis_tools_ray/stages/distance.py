"""Distributed exact Euclidean distance transform (EDT).

Reference: GISTools/src/plugins/EuclideanDistance.java (361 LoC) — a
two-pass sequential distance transform over the whole raster. The
distributed plan keeps the two-pass separable structure but makes each
pass tile-parallel over row-band tiles:

1. **Column pass** (cross-tile): the nearest target in a cell's COLUMN
   either lies in the same tile (tile-local 1-D scan) or is the nearest
   EDGE-most target of another tile — because tiles are contiguous row
   bands, only each tile's per-column (min, max) target rows can be the
   closest from outside. Every tile emits that 2×cols summary
   (O(tiles·cols) total, collected driver-side like the clump boundary
   merge) and the broadcast summary closes the global column distance
   G(r, x) exactly.
2. **Row pass** (tile-local): D²(r, x) = min over x' of
   (x − x')² + G(r, x')², vectorized per row — fully inside each tile.

Targets are defined by a deterministic cell-index rule so the DuckDB
oracle can brute-force min-over-targets for exact comparison; distances
are √(integer d²) → bit-identical across engines.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from .raster import RasterSpec, tile_task

_A = 2654435761
_M = 4294967296
_MOD = 251
_ADD = 77

BIG = np.int64(1 << 40)


def target_mask_for_rows(r0: int, r1: int, cols: int) -> np.ndarray:
    """Deterministic target cells. SQL mirror:
    ``((cell*2654435761+77)%4294967296)%251 = 0``."""
    cell = np.arange(r0 * cols, r1 * cols, dtype=np.int64)
    return (((cell * _A + _ADD) % _M) % _MOD == 0).reshape(-1, cols)


def _col_extremes(mask: np.ndarray, r0: int):
    """Per-column (min_row, max_row) of targets, global rows; -1 if none."""
    H, W = mask.shape
    rows = np.arange(H)[:, None] + r0
    big = np.where(mask, rows, np.iinfo(np.int64).max)
    small = np.where(mask, rows, np.iinfo(np.int64).min)
    mn = big.min(axis=0)
    mx = small.max(axis=0)
    has = mask.any(axis=0)
    return np.where(has, mn, -1), np.where(has, mx, -1)


def _local_col_dist(mask: np.ndarray) -> np.ndarray:
    """1-D EDT along columns within the tile (|Δrow| to nearest in-tile
    target), via forward+backward scans. BIG where the column has no
    in-tile target."""
    H, W = mask.shape
    d = np.full((H, W), BIG, dtype=np.int64)
    d[mask] = 0
    for r in range(1, H):
        d[r] = np.minimum(d[r], d[r - 1] + 1)
    for r in range(H - 2, -1, -1):
        d[r] = np.minimum(d[r], d[r + 1] + 1)
    return d


def _target_extremes(spec: RasterSpec) -> "ray.ObjectRef":
    """Phase 1a: every tile's per-column (min, max) target rows as two
    (n_tiles, cols) arrays — tiny, driver-collected, then put once for
    the row-pass tasks."""

    def extremes(tid: int) -> dict:
        r0, r1 = spec.band(tid)
        mn, mx = _col_extremes(target_mask_for_rows(r0, r1, spec.cols), r0)
        return {"tile_id": [tid], "mn": [mn], "mx": [mx]}

    ext = tile_task(spec.n_tiles, extremes).to_pandas().sort_values("tile_id")
    return ray.put(tuple(np.stack([np.asarray(v, dtype=np.int64)
                                   for v in ext[c]]) for c in ("mn", "mx")))


def euclidean_distance(spec: RasterSpec | None = None,
                       round_to: int = 6,
                       buffer_d: float | None = None) -> "rd.Dataset":
    """Exact EDT to the nearest target cell; output per-row checksums
    (row_id, n_valid, row_sum) of the distance raster. With
    ``buffer_d``, the output is instead the Buffer tool
    (WhiteboxGIS Buffer — cells within distance d of a target):
    (row_id, n_valid, n_buffer) with the EXACT integer d² ≤ d·d test."""
    spec = spec or RasterSpec()
    cols = spec.cols

    summary_ref = _target_extremes(spec)
    n_tiles = spec.n_tiles

    def per_tile(tid: int) -> dict:
        mins_, maxs_ = (ray.get(summary_ref)
                        if isinstance(summary_ref, ray.ObjectRef)
                        else summary_ref)
        r0, r1 = spec.band(tid)
        H = r1 - r0
        mask = target_mask_for_rows(r0, r1, cols)
        g = _local_col_dist(mask)  # |Δrow| in-tile
        rows = np.arange(r0, r1, dtype=np.int64)[:, None]
        # cross-tile candidates: nearest edge-most target per column
        for t2 in range(n_tiles):
            if t2 == tid:
                continue
            cand = maxs_[t2] if t2 < tid else mins_[t2]  # (cols,)
            dist = np.abs(rows - cand)  # (H, cols)
            dist = np.where(cand[None, :] >= 0, dist, BIG)
            g = np.minimum(g, dist)
        # phase 2: row pass, D² = min over x' ((x-x')² + g(x')²)
        xs = np.arange(cols, dtype=np.int64)
        dx2 = (xs[:, None] - xs[None, :]) ** 2  # (cols, cols)
        # cap the no-target sentinel BELOW the int64² overflow line;
        # any real distance (< rows+cols) always beats it in the min
        g2 = np.minimum(g, 1_000_000).astype(np.int64) ** 2
        d2 = (g2[:, None, :] + dx2[None, :, :]).min(axis=2)  # (H, cols)
        if buffer_d is not None:
            inside = d2 <= int(buffer_d) * int(buffer_d)
            return {"row_id": np.arange(r0, r1),
                    "n_valid": np.full(H, cols, dtype=np.int64),
                    "n_buffer": inside.sum(axis=1).astype(np.int64)}
        dist = np.sqrt(d2.astype(np.float64))
        return {"row_id": np.arange(r0, r1),
                "n_valid": np.full(H, cols, dtype=np.int64),
                "row_sum": np.round(dist.sum(axis=1), round_to)}

    return tile_task(spec.n_tiles, per_tile)


# ---------------------------------------------------------------------------
# EuclideanAllocation (GISTools/src/plugins/EuclideanAllocation.java, 368
# LoC): every cell takes the ID of its nearest target. Same separable
# two-pass plan, carrying the achieving target through both passes with
# LEXICOGRAPHIC (d², target-cell) labels — ties go to the smallest
# target cell id in BOTH engines, so the oracle is exact.
# ---------------------------------------------------------------------------

def _local_col_dist_row(mask: np.ndarray, r0: int):
    """(|Δrow| to nearest in-tile target per column, achieving GLOBAL
    target row; ties → smaller row)."""
    H, W = mask.shape
    d = np.full((H, W), BIG, dtype=np.int64)
    trow = np.full((H, W), -1, dtype=np.int64)
    rows = np.arange(r0, r0 + H, dtype=np.int64)[:, None]
    d[mask] = 0
    trow[mask] = np.broadcast_to(rows, mask.shape)[mask]
    for r in range(1, H):
        cand = d[r - 1] + 1
        better = (cand < d[r]) | ((cand == d[r]) & (trow[r - 1] < trow[r]))
        d[r] = np.where(better, cand, d[r])
        trow[r] = np.where(better, trow[r - 1], trow[r])
    for r in range(H - 2, -1, -1):
        cand = d[r + 1] + 1
        ok = trow[r + 1] >= 0
        better = ok & ((cand < d[r])
                       | ((cand == d[r]) & (trow[r + 1] < trow[r])))
        d[r] = np.where(better, cand, d[r])
        trow[r] = np.where(better, trow[r + 1], trow[r])
    return d, trow


def euclidean_allocation(spec: RasterSpec | None = None,
                         round_to: int = 6) -> "rd.Dataset":
    """(row_id, row_sum, sum_alloc): per-row distance checksum + the sum
    of allocated target cell ids."""
    spec = spec or RasterSpec()
    cols = spec.cols

    summary_ref = _target_extremes(spec)
    n_tiles = spec.n_tiles
    K = np.int64(spec.rows * cols)  # > any target gcell

    def per_tile(tid: int) -> pd.DataFrame:
        mins_, maxs_ = (ray.get(summary_ref)
                        if isinstance(summary_ref, ray.ObjectRef)
                        else summary_ref)
        r0, r1 = spec.band(tid)
        H = r1 - r0
        mask = target_mask_for_rows(r0, r1, cols)
        g, trow = _local_col_dist_row(mask, r0)
        rows = np.arange(r0, r1, dtype=np.int64)[:, None]
        for t2 in range(n_tiles):
            if t2 == tid:
                continue
            cand = maxs_[t2] if t2 < tid else mins_[t2]
            dist = np.where(cand[None, :] >= 0,
                            np.abs(rows - cand), BIG)
            better = (dist < g) | ((dist == g) & (cand[None, :] >= 0)
                                   & (cand[None, :] < trow))
            g = np.where(better, dist, g)
            trow = np.where(better, np.broadcast_to(cand, g.shape),
                            trow)
        xs = np.arange(cols, dtype=np.int64)
        dx2 = (xs[:, None] - xs[None, :]) ** 2  # (x, x')
        g2 = np.minimum(g, 1_000_000).astype(np.int64) ** 2
        tg = trow * cols + xs[None, :]  # target gcell per (row, x')
        tg = np.where(trow >= 0, tg, K - 1)
        # lexicographic (d², target gcell) via one combined int key
        key = ((g2[:, None, :] + dx2[None, :, :]) * K
               + tg[:, None, :])  # (H, x, x')
        best = key.min(axis=2)
        d2 = best // K
        alloc = best % K
        dist = np.sqrt(d2.astype(np.float64))
        return pd.DataFrame({
            "row_id": np.arange(r0, r1),
            "row_sum": np.round(dist.sum(axis=1), round_to),
            "sum_alloc": alloc.sum(axis=1).astype(np.int64)})

    return tile_task(spec.n_tiles, per_tile)


def burn_streams(spec: RasterSpec | None = None,
                 decrement: float = 10.0, decay: float = 2.0,
                 round_to: int = 6) -> "rd.Dataset":
    """BurnStreams (HydroTools/src/plugins/BurnStreams.java:447-465,
    decay mode): every valid DEM cell is lowered by
    ``(gridRes/(gridRes+dist))^decay · decrement`` where ``dist`` is
    the euclidean distance to the nearest stream cell (the tool's
    CalculateDistance pass) — stream cells themselves (dist 0) take the
    full decrement. gridRes = 1 here; "streams" are the deterministic
    EDT target mask (the rasterize-lines output at scale). Same
    two-phase distributed EDT as ``euclidean_distance`` (per-column
    extreme summaries → broadcast → tile-local row pass) followed by a
    stateless burn map. Exact SQL oracle (brute-force min-over-targets
    d², identical pow/sqrt)."""
    from .raster import synth_value

    spec = spec or RasterSpec()
    cols = spec.cols

    summary_ref = _target_extremes(spec)
    n_tiles = spec.n_tiles

    def per_tile(tid: int) -> pd.DataFrame:
        mins_, maxs_ = (ray.get(summary_ref)
                        if isinstance(summary_ref, ray.ObjectRef)
                        else summary_ref)
        r0, r1 = spec.band(tid)
        H = r1 - r0
        mask = target_mask_for_rows(r0, r1, cols)
        g = _local_col_dist(mask)
        rows = np.arange(r0, r1, dtype=np.int64)[:, None]
        for t2 in range(n_tiles):
            if t2 == tid:
                continue
            cand = maxs_[t2] if t2 < tid else mins_[t2]
            dist = np.abs(rows - cand)
            dist = np.where(cand[None, :] >= 0, dist, BIG)
            g = np.minimum(g, dist)
        xs = np.arange(cols, dtype=np.int64)
        dx2 = (xs[:, None] - xs[None, :]) ** 2
        g2 = np.minimum(g, 1_000_000).astype(np.int64) ** 2
        d2 = (g2[:, None, :] + dx2[None, :, :]).min(axis=2)
        dist = np.sqrt(d2.astype(np.float64))
        cell = (rows * cols + xs[None, :])
        v = synth_value(cell.ravel()).reshape(H, cols)
        burn = np.power(1.0 / (1.0 + dist), decay) * decrement
        out = np.where(v == spec.nodata, spec.nodata, v - burn)
        valid = out != spec.nodata
        return pd.DataFrame({
            "row_id": np.arange(r0, r1),
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "row_sum": np.round(np.where(valid, out, 0.0).sum(axis=1),
                                round_to)})

    return tile_task(spec.n_tiles, per_tile)
