"""Distributed TIN / Voronoi / TIN-rasterization (SURVEY.md §2.10).

Reference behavior (studied only): ConstructTIN.groovy:251-253 builds a
JTS Delaunay TIN over vector points; RasterizeTIN.groovy interpolates a
raster from TIN facets; VectorTools/src/plugins/VoronoiDiagram.java:24
builds Voronoi polygons clipped to the layer extent (the JTS builder
likewise pads a clip envelope to bound hull cells).

Distributed construction (Ray-Data-first):

1. A deterministic FRAME RING of anchor points (spacing = ghost margin)
   surrounds the extent, bounding every circumcircle near the hull —
   the same envelope-padding idea as the JTS builder.
2. Points are duplicated to every square tile whose (tile + 2·margin)
   expanded box contains them (the kNN neighbour-duplication pattern,
   stages/knn.py) and shuffled once by ``groupby(tile)``.
3. Each tile group triangulates its core+ghost points independently
   (core/delaunay.py) and keeps exactly the triangles whose
   CIRCUMCENTER falls in the tile's half-open core box — a globally
   unique, overlap-free assignment.

PARTITIONING ASSUMPTION (documented per the build rules): every
Delaunay circumradius must be < the ghost margin. With the frame ring
this holds whenever the margin exceeds the largest empty-circle radius
of the point set (≈ a few × mean spacing for quasi-uniform web-geocode
points); the conformance tests compare the distributed triangle set
against the single-process whole-set triangulation, so a too-small
margin FAILS loudly rather than silently dropping triangles. At
web scale, margin/tile shrink together as density grows.

Everything downstream (Voronoi cell areas, rasterization) reuses the
same per-tile triangulations, so the whole family costs ONE shuffle of
(rec_id, x, y, z, tile) — no geometry ever moves twice.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from ..core.delaunay import delaunay, delaunay_neighbors, voronoi_cell
from ..core.rng import EAST, NORTH, SOUTH, WEST
from .points import read_points
from .util import combine, groupwise_combine

TILE = 2000.0     # square TIN tile size
MARGIN = 800.0    # ghost margin ≥ max circumradius (see module docstring)
NX = int((EAST - WEST) / TILE)
NY = int((NORTH - SOUTH) / TILE)


def frame_points(margin: float = MARGIN) -> np.ndarray:
    """Deterministic anchor ring just outside the extent, spacing
    ``margin``; ids are negative (never collide with rec_ids)."""
    x0, y0 = WEST - margin / 2.0, SOUTH - margin / 2.0
    x1, y1 = EAST + margin / 2.0, NORTH + margin / 2.0
    xs = np.linspace(x0, x1, int(np.ceil((x1 - x0) / margin)) + 1)
    ys = np.linspace(y0, y1, int(np.ceil((y1 - y0) / margin)) + 1)
    pts = ([(x, y0) for x in xs] + [(x, y1) for x in xs]
           + [(x0, y) for y in ys[1:-1]] + [(x1, y) for y in ys[1:-1]])
    return np.array(sorted(set(pts)), dtype=np.float64)


def _tiles_for(x: np.ndarray, y: np.ndarray, margin: float):
    """Tile ids whose expanded box contains each point (list per point)."""
    out = []
    for xi, yi in zip(x, y):
        t0x = int(np.floor((xi - WEST - margin) / TILE))
        t1x = int(np.floor((xi - WEST + margin) / TILE))
        t0y = int(np.floor((yi - SOUTH - margin) / TILE))
        t1y = int(np.floor((yi - SOUTH + margin) / TILE))
        tids = []
        for ty in range(max(t0y, 0), min(t1y, NY - 1) + 1):
            for tx in range(max(t0x, 0), min(t1x, NX - 1) + 1):
                tids.append(ty * NX + tx)
        out.append(tids)
    return out


def tin_point_groups(sf_dir: str, margin: float = MARGIN) -> "rd.Dataset":
    """Points (+ frame ring) duplicated to candidate tiles, grouped."""
    pts = read_points(sf_dir)
    frame = frame_points(margin)
    frame_rows = {"rec_id": -np.arange(1, len(frame) + 1, dtype=np.int64),
                  "x": frame[:, 0], "y": frame[:, 1],
                  "z": np.zeros(len(frame))}

    def duplicate(batch):
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        tids = _tiles_for(x, y, margin)
        reps = np.array([len(t) for t in tids])
        flat = np.array([t for ts in tids for t in ts], dtype=np.int64)
        return {"rec_id": np.repeat(batch["rec_id"], reps),
                "x": np.repeat(x, reps), "y": np.repeat(y, reps),
                "z": np.repeat(np.asarray(batch["z"], dtype=np.float64),
                               reps),
                "tile": flat}

    dup = pts.map_batches(duplicate, batch_format="numpy")
    fdup = (rd.from_pandas(pd.DataFrame(frame_rows))
            .map_batches(duplicate, batch_format="numpy"))
    return dup.union(fdup)


def _core_box(tile: int):
    ty, tx = divmod(tile, NX)
    return (WEST + tx * TILE, SOUTH + ty * TILE,
            WEST + (tx + 1) * TILE, SOUTH + (ty + 1) * TILE)


def _group_tri(df: pd.DataFrame):
    """Triangulate one tile group; return (xy, z, rec_ids, tris_core,
    tris_all) with core = circumcenter-in-tile triangles."""
    tile = int(df["tile"].iloc[0])
    d = df.sort_values("rec_id").reset_index(drop=True)
    xy = d[["x", "y"]].to_numpy()
    tris = delaunay(xy)
    x0, y0, x1, y1 = _core_box(tile)
    core = []
    for t in tris:
        a, b, c = (xy[t[0]], xy[t[1]], xy[t[2]])
        den = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1])
                     + c[0] * (a[1] - b[1]))
        if den == 0:
            continue
        a2, b2, c2 = a @ a, b @ b, c @ c
        ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1])
              + c2 * (a[1] - b[1])) / den
        uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0])
              + c2 * (b[0] - a[0])) / den
        if x0 <= ux < x1 and y0 <= uy < y1:
            core.append(t)
    return d, xy, tris, core


def construct_tin(sf_dir: str, round_to: int = 6) -> "rd.Dataset":
    """Per-tile TIN summary: (tile, n_triangles, area_sum) over
    data-only triangles (frame-incident facets excluded)."""

    def per_tile(df: pd.DataFrame) -> pd.DataFrame:
        d, xy, _, core = _group_tri(df)
        rid = d["rec_id"].to_numpy()
        n_tri, area = 0, 0.0
        for a, b, c in core:
            if rid[a] < 0 or rid[b] < 0 or rid[c] < 0:
                continue
            (ax, ay), (bx, by), (cx, cy) = xy[a], xy[b], xy[c]
            n_tri += 1
            area += abs((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)) / 2.0
        return pd.DataFrame({"tile": [int(df["tile"].iloc[0])],
                             "n_triangles": [n_tri],
                             "area_sum": [round(area, round_to)]})

    return combine(tin_point_groups(sf_dir), "tile",
                   groupwise_combine(per_tile, "tile")).sort("tile")


def voronoi_areas(sf_dir: str, round_to: int = 6) -> "rd.Dataset":
    """Voronoi cell area per data site (cells of the data+frame diagram
    clipped to the extent — the JTS builder's envelope-padding
    semantics). A site is emitted by the ONE tile whose core box
    contains it."""
    extent = (WEST, SOUTH, EAST, NORTH)

    def per_tile(df: pd.DataFrame) -> pd.DataFrame:
        d, xy, tris, _ = _group_tri(df)
        tile = int(df["tile"].iloc[0])
        x0, y0, x1, y1 = _core_box(tile)
        rid = d["rec_id"].to_numpy()
        nbr = delaunay_neighbors(tris, len(xy))
        out_id, out_area = [], []
        for i in range(len(xy)):
            if rid[i] < 0:
                continue
            xi, yi = xy[i]
            if not (x0 <= xi < x1 and y0 <= yi < y1):
                continue
            cell = voronoi_cell(xy[i], xy[sorted(nbr[i])], extent)
            if len(cell) < 3:
                area = 0.0
            else:
                cx, cy = cell[:, 0], cell[:, 1]
                area = 0.5 * abs(np.dot(cx, np.roll(cy, -1))
                                 - np.dot(cy, np.roll(cx, -1)))
            out_id.append(int(rid[i]))
            out_area.append(round(float(area), round_to))
        return pd.DataFrame({"rec_id": out_id, "cell_area": out_area})

    return combine(tin_point_groups(sf_dir), "tile",
                   groupwise_combine(per_tile, "tile")).sort("rec_id")


def rasterize_tin(sf_dir: str, grid: int = 120,
                  round_to: int = 6) -> "rd.Dataset":
    """TIN-interpolated raster (RasterizeTIN.groovy): per cell center,
    barycentric z from its containing facet (first containing triangle
    in sorted-triple order; NoData −32768 outside every facet). Each
    tile rasterizes only its core cells."""
    res_x = (EAST - WEST) / grid
    res_y = (NORTH - SOUTH) / grid

    def per_tile(df: pd.DataFrame) -> pd.DataFrame:
        # ALL local triangles (not just circumcenter-core): a facet whose
        # circumcenter lies in a neighbouring tile can still cover cells
        # of this tile; the margin guarantees it exists here too.
        d, xy, tris_all, _ = _group_tri(df)
        if not (d["rec_id"].to_numpy() >= 0).any():
            # zero DATA points: no surface — the frame-ring-only
            # triangulation is a cocircular-degenerate scaffold whose
            # facet choice is arbitrary; emit NoData instead of
            # rasterizing it (empty-boundary rule shared with the SQL
            # mirror)
            tris_all = []
        tile = int(df["tile"].iloc[0])
        x0, y0, x1, y1 = _core_box(tile)
        z = d["z"].to_numpy()
        c0 = int(np.ceil((x0 - WEST) / res_x - 0.5))
        c1 = int(np.ceil((x1 - WEST) / res_x - 0.5))
        r0 = int(np.ceil((y0 - SOUTH) / res_y - 0.5))
        r1 = int(np.ceil((y1 - SOUTH) / res_y - 0.5))
        ccol = np.arange(c0, c1)
        crow = np.arange(r0, r1)
        px = WEST + (ccol + 0.5) * res_x
        py = SOUTH + (crow + 0.5) * res_y
        gx, gy = np.meshgrid(px, py)
        val = np.full(gx.shape, -32768.0)
        done = np.zeros(gx.shape, dtype=bool)
        for a, b, c in tris_all:  # sorted triples → deterministic first-wins
            (ax, ay), (bx, by), (cx, cy) = xy[a], xy[b], xy[c]
            den = (by - cy) * (ax - cx) + (cx - bx) * (ay - cy)
            if den == 0:
                continue
            w1 = ((by - cy) * (gx - cx) + (cx - bx) * (gy - cy)) / den
            w2 = ((cy - ay) * (gx - cx) + (ax - cx) * (gy - cy)) / den
            w3 = 1.0 - w1 - w2
            m = (~done) & (w1 >= 0) & (w2 >= 0) & (w3 >= 0)
            if m.any():
                val[m] = w1[m] * z[a] + w2[m] * z[b] + w3[m] * z[c]
                done |= m
        rows, cols_ = np.nonzero(np.ones_like(val, dtype=bool))
        return pd.DataFrame({
            "cell": ((crow[rows] * np.int64(grid)) + ccol[cols_]),
            "z": np.round(val[rows, cols_], round_to)})

    return combine(tin_point_groups(sf_dir), "tile",
                   groupwise_combine(per_tile, "tile")).sort("cell")


# ---------------------------------------------------------------------------
# Single-process mirrors for the conformance tests
# ---------------------------------------------------------------------------

def tin_mirror(sf_dir: str):
    """Whole-set triangulation with identical core assignment."""
    pts = read_points(sf_dir).to_pandas().sort_values("rec_id")
    frame = frame_points()
    rid = np.concatenate([
        pts["rec_id"].to_numpy(),
        -np.arange(1, len(frame) + 1, dtype=np.int64)])
    xy = np.vstack([pts[["x", "y"]].to_numpy(), frame])
    z = np.concatenate([pts["z"].to_numpy(), np.zeros(len(frame))])
    order = np.argsort(rid, kind="stable")
    return rid[order], xy[order], z[order], delaunay(xy[order])
