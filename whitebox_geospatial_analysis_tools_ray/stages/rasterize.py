"""Vector→raster scanline rasterization (SURVEY.md §2.10 core).

Exact reference semantics
(ConversionTools/src/plugins/VectorPolygonsToRaster.java:370-446):
- per output row, intersect the row's CENTRE y with every polygon edge:
  ``isBetween(rowY, y1, y2)`` is true when rowY equals either endpoint or
  lies strictly between (:702-707); horizontal edges (y1 == y2) never
  yield a crossing;
- crossing x: ``xPrime = x1 + (rowY − y1)/(y2 − y1)·(x2 − x1)`` (:409);
- crossing column: ``round((ncols−1)·(x − west − res/2)/EWRange)`` with
  ``EWRange = east − west − res`` and Java Math.round == floor(x + 0.5)
  (WhiteboxRasterBase.java:1822-1828);
- columns sorted; 2 crossings → fill [min..max] inclusive; >2 → even-odd
  parity fill of consecutive inclusive ranges (:417-443);
- row centre: ``y_r = north − res/2 − r·res`` (WhiteboxRasterBase.java:1866+).

Overlap resolution: the reference's write order is a row-priority queue
over records pre-sorted by maxY (:327-352), which leaves ties formally
unspecified; we define the DETERMINISTIC rule max(zone_id) wins and the
SQL oracle encodes the same rule.

Distributed shape: polygons are a broadcast table (ray.put once); each
row-band tile rasterizes independently inside ``map_batches`` — zero
shuffle, the pattern that holds at any raster size.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from ..core.rng import EAST, NORTH, SOUTH, WEST
from .raster import RasterSpec, tile_task


def grid_geometry(spec: RasterSpec):
    """(res_x, res_y, half_x, half_y, ewrange) for the world extent."""
    res_x = (EAST - WEST) / spec.cols
    res_y = (NORTH - SOUTH) / spec.rows
    return res_x, res_y, res_x / 2.0, res_y / 2.0, (EAST - WEST) - res_x


def _is_between(val: np.ndarray, t1: float, t2: float) -> np.ndarray:
    eq = (val == t1) | (val == t2)
    if t2 > t1:
        return eq | ((val > t1) & (val < t2))
    return eq | ((val > t2) & (val < t1))


def scanline_fill_rows(rings: list[tuple[int, np.ndarray]], spec: RasterSpec,
                       r0: int, r1: int) -> np.ndarray:
    """Rasterize (zone_id, closed-ring Nx2) polygons onto rows [r0, r1):
    returns an (r1−r0, cols) array of max zone_id (−1 = unfilled)."""
    res_x, res_y, half_x, half_y, ewrange = grid_geometry(spec)
    n = r1 - r0
    rows = np.arange(r0, r1)
    row_y = NORTH - half_y - rows * res_y
    out = np.full((n, spec.cols), -1, dtype=np.int64)
    ncm1 = spec.cols - 1
    for zone_id, ring in rings:
        ys = ring[:, 1]
        lo, hi = ys.min(), ys.max()
        active = (row_y >= lo) & (row_y <= hi)
        if not active.any():
            continue
        act_idx = np.nonzero(active)[0]
        ry = row_y[active]
        crossings: dict[int, list[int]] = {}
        for i in range(len(ring) - 1):
            x1, y1 = ring[i]
            x2, y2 = ring[i + 1]
            if y2 == y1:
                continue
            m = _is_between(ry, y1, y2)
            if not m.any():
                continue
            xp = x1 + (ry[m] - y1) / (y2 - y1) * (x2 - x1)
            col = np.floor(ncm1 * (xp - WEST - half_x) / ewrange + 0.5).astype(np.int64)
            for li, c in zip(act_idx[m], col):
                crossings.setdefault(int(li), []).append(int(c))
        for li, cols in crossings.items():
            cols.sort()
            if len(cols) == 2:
                c0 = max(cols[0], 0)
                c1 = min(cols[1], spec.cols - 1)
                if c0 <= c1:
                    np.maximum(out[li, c0:c1 + 1], zone_id, out=out[li, c0:c1 + 1])
            else:
                fill = True
                for k in range(len(cols) - 1):
                    if fill:
                        c0 = max(cols[k], 0)
                        c1 = min(cols[k + 1], spec.cols - 1)
                        if c0 <= c1:
                            np.maximum(out[li, c0:c1 + 1], zone_id,
                                       out=out[li, c0:c1 + 1])
                    fill = not fill
    return out


def seeded_triangle_rings(n: int = 12) -> list[tuple[int, np.ndarray]]:
    """The conformance triangle layer (mirrors core.features.triangle_zones
    vertex derivation so the SQL oracle can inline identical doubles)."""
    from ..core.features import triangle_zones
    rings = []
    for z in triangle_zones(n):
        ring = np.array([[z["ax"], z["ay"]], [z["bx"], z["by"]],
                         [z["cx"], z["cy"]], [z["ax"], z["ay"]]])
        rings.append((int(z["zone_id"]), ring))
    return rings


def rasterize_triangles(spec: RasterSpec | None = None,
                        n_zones: int = 12) -> "rd.Dataset":
    """VectorPolygonsToRaster over the triangle zone layer. Output per
    raster row: (row_id, n_filled, sum_zone) — count of burned cells and
    Σ(max zone_id) across the row (compact conformance form)."""
    spec = spec or RasterSpec()
    rings_ref = ray.put(seeded_triangle_rings(n_zones))

    def per_tile(tid: int) -> pd.DataFrame:
        rings = ray.get(rings_ref) if isinstance(rings_ref, ray.ObjectRef) else rings_ref
        r0, r1 = spec.band(tid)
        z = scanline_fill_rows(rings, spec, r0, r1)
        filled = z >= 0
        return pd.DataFrame({
            "row_id": np.arange(r0, r1),
            "n_filled": filled.sum(axis=1).astype(np.int64),
            "sum_zone": np.where(filled, z, 0).sum(axis=1).astype(np.int64),
        })

    return tile_task(spec.n_tiles, per_tile)


def clip_raster_to_polygon(spec: RasterSpec | None = None,
                           n_zones: int = 12) -> "rd.Dataset":
    """ClipRasterToPolygon (GISTools/src/plugins/ClipRasterToPolygon.java):
    keep raster values only where the scanline-burned polygon mask covers
    the cell; elsewhere NoData. Output = per-row checksums of the clipped
    raster."""
    from .raster import synth_value
    spec = spec or RasterSpec()
    rings_ref = ray.put(seeded_triangle_rings(n_zones))

    def per_tile(tid: int) -> pd.DataFrame:
        rings = ray.get(rings_ref) if isinstance(rings_ref, ray.ObjectRef) else rings_ref
        r0, r1 = spec.band(tid)
        cell = spec.band_cells(tid)
        a = synth_value(cell).reshape(-1, spec.cols)
        mask = scanline_fill_rows(rings, spec, r0, r1) >= 0
        a = np.where(mask, a, spec.nodata)
        valid = a != spec.nodata
        return pd.DataFrame({
            "row_id": np.arange(r0, r1),
            "n_valid": valid.sum(axis=1).astype(np.int64),
            "row_sum": np.round(np.where(valid, a, 0.0).sum(axis=1), 6),
        })

    return tile_task(spec.n_tiles, per_tile)


# ---------------------------------------------------------------------------
# VectorLinesToRaster (ConversionTools/src/plugins/VectorLinesToRaster.java:
# 404-447): per output ROW, burn the single cell at each segment-row
# crossing (col = Math.round column of xPrime); per output COLUMN, burn the
# cell at each segment-column crossing (row from yPrime) — the union traces
# the line. isBetween endpoint-inclusive rule as for polygons; vertical /
# horizontal segments covered by the opposite pass. Overlaps resolve to
# max(line_id) (write order is a row-priority queue in the reference —
# formally unspecified; deterministic rule mirrored in SQL).
# ---------------------------------------------------------------------------

def seeded_polylines(n: int = 15, pts: int = 5) -> list[tuple[int, np.ndarray]]:
    """Deterministic polylines from the shared geocode rule."""
    from ..core.rng import geocode_xy
    out = []
    for i in range(n):
        ids = np.arange(pts, dtype=np.int64) * 104729 + i * 7919 + 5
        x, y = geocode_xy(ids * 31 + 11)
        out.append((i, np.column_stack([x, y])))
    return out


def rasterize_lines(spec: RasterSpec | None = None,
                    n_lines: int = 15) -> "rd.Dataset":
    """Line burn over row-band tiles: each tile computes both crossing
    passes for its row range (broadcast line table; zero shuffle).
    Output per row: (row_id, n_burned, sum_line) with value = max line_id."""
    spec = spec or RasterSpec()
    lines_ref = ray.put(seeded_polylines(n_lines))
    res_x, res_y, half_x, half_y, ewrange = grid_geometry(spec)
    nsrange = (NORTH - SOUTH) - res_y
    nrm1, ncm1 = spec.rows - 1, spec.cols - 1

    def per_tile(tid: int) -> pd.DataFrame:
        lines = ray.get(lines_ref) if isinstance(lines_ref, ray.ObjectRef) \
            else lines_ref
        r0, r1 = spec.band(tid)
        burn = np.full((r1 - r0, spec.cols), -1, dtype=np.int64)
        rows = np.arange(r0, r1)
        row_y = NORTH - half_y - rows * res_y
        col_x = WEST + half_x + np.arange(spec.cols) * res_x
        for lid, pts in lines:
            for i in range(len(pts) - 1):
                (x1, y1), (x2, y2) = pts[i], pts[i + 1]
                # row-crossing pass
                if y2 != y1:
                    m = _is_between(row_y, y1, y2)
                    if m.any():
                        xp = x1 + (row_y[m] - y1) / (y2 - y1) * (x2 - x1)
                        cc = np.floor(ncm1 * (xp - WEST - half_x)
                                      / ewrange + 0.5).astype(np.int64)
                        ok = (cc >= 0) & (cc < spec.cols)
                        rr = np.nonzero(m)[0][ok]
                        np.maximum.at(burn, (rr, cc[ok]), lid)
                # column-crossing pass (rows may fall outside this tile)
                if x2 != x1:
                    m = _is_between(col_x, x1, x2)
                    if m.any():
                        yp = y1 + (col_x[m] - x1) / (x2 - x1) * (y2 - y1)
                        rr = np.floor(nrm1 * (NORTH - half_y - yp)
                                      / nsrange + 0.5).astype(np.int64)
                        ok = (rr >= r0) & (rr < r1)
                        cc = np.nonzero(m)[0][ok]
                        np.maximum.at(burn, (rr[ok] - r0, cc), lid)
        hit = burn >= 0
        return pd.DataFrame({
            "row_id": rows,
            "n_burned": hit.sum(axis=1).astype(np.int64),
            "sum_line": np.where(hit, burn, 0).sum(axis=1).astype(np.int64)})

    return tile_task(spec.n_tiles, per_tile)


# ---------------------------------------------------------------------------
# IntersectionDensity (WhiteboxGIS/resources/plugins/Scripts/
# IntersectionDensity.groovy): per output cell, if ANY polyline vertex
# lies within the neighbourhood radius (:256-258), count the segments of
# every such nearby feature that pass the segment-circle test — which
# ships with a literal bug (:451: a = dx² + (y2−y1)·(y1−y1), the y term
# vanishes), reproduced exactly including its IEEE Inf/NaN fallout for
# vertical segments (a=0, b≠0 → one root NaN → "intersects"). Grid per
# :213-218 (rows/cols = ceil(extent/cellSize), north/west anchored to
# the layer bounds); untouched cells keep the raster's 0.0 initial
# value.
#
# Ray mapping: the layer is the broadcast small side (SURVEY §2.4);
# one task per output row band evaluates all cells vectorized — the
# range-join gate and the segment tests are dense closed forms; counts
# are integers, so the result is exact and tiling-independent.
# ---------------------------------------------------------------------------

def intersection_density_grid(n_lines: int = 15):
    """(west, north, rows, cols) of the output grid per the script."""
    lines = seeded_polylines(n_lines)
    allv = np.concatenate([pts for _, pts in lines])
    xmin, xmax = allv[:, 0].min(), allv[:, 0].max()
    ymin, ymax = allv[:, 1].min(), allv[:, 1].max()
    cell = 50.0
    rows = int(math.ceil((ymax - ymin) / cell))
    cols = int(math.ceil((xmax - xmin) / cell))
    return xmin, ymax, rows, cols, cell


def _segment_circle_hits(x, y, x1, y1, x2, y2, r):
    """Vectorized literal lineSegmentInstersectsCircle (:449-467)."""
    a = (x2 - x1) * (x2 - x1) + (y2 - y1) * (y1 - y1)  # literal y bug
    b = 2.0 * ((x2 - x1) * (x1 - x) + (y2 - y1) * (y1 - y))
    cc = (x * x + y * y + x1 * x1 + y1 * y1
          - 2.0 * (x * x1 + y * y1) - r * r)
    deter = b * b - 4.0 * a * cc
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.sqrt(np.maximum(deter, 0.0))
        u1 = (-b + e) / (2.0 * a)
        u2 = (-b - e) / (2.0 * a)
    out1 = (u1 < 0) | (u1 > 1)
    out2 = (u2 < 0) | (u2 > 1)
    return (deter > 0) & ~(out1 & out2)


def intersection_density(radius: float = 150.0, n_lines: int = 15,
                         band_rows: int = 20) -> pd.DataFrame:
    west, north, rows, cols, cell = intersection_density_grid(n_lines)
    lines_ref = ray.put(seeded_polylines(n_lines))
    n_bands = math.ceil(rows / band_rows)
    r2 = radius * radius

    def solve(batch) -> pd.DataFrame:
        lines = ray.get(lines_ref) if isinstance(lines_ref, ray.ObjectRef) \
            else lines_ref
        out = []
        for b in batch["id"]:
            r0 = int(b) * band_rows
            r1 = min(r0 + band_rows, rows)
            y = (north - cell / 2.0 - np.arange(r0, r1) * cell)[:, None]
            x = (west + cell / 2.0 + np.arange(cols) * cell)[None, :]
            counts = np.zeros((r1 - r0, cols), dtype=np.int64)
            near = {}
            for fid, pts in lines:
                d2 = np.full((r1 - r0, cols), np.inf)
                for vx, vy in pts:
                    d2 = np.minimum(d2, (x - vx) ** 2 + (y - vy) ** 2)
                near[fid] = d2 <= r2
            for fid, pts in lines:
                for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
                    hit = _segment_circle_hits(x, y, x1, y1, x2, y2,
                                               radius)
                    counts += (hit & near[fid])
            out.append(pd.DataFrame({
                "row_id": np.arange(r0, r1),
                "n_valid": np.full(r1 - r0, cols, dtype=np.int64),
                "row_sum": counts.sum(axis=1).astype(np.float64)}))
        return pd.concat(out, ignore_index=True)

    return (rd.range(n_bands).map_batches(solve, batch_format="numpy")
            .to_pandas().sort_values("row_id").reset_index(drop=True))
