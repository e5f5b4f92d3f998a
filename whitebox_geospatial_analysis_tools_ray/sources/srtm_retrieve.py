"""RetrieveSRTMData — the reference's last uncovered tool
(WhiteboxGIS/resources/plugins/Scripts/RetrieveSRTMData.groovy:199-404).

The groovy script: for every 1°×1° tile in the lat/lon box, build the
``N##E###`` name (exact zero-padding at :202-231), FTP-download the
``.hgt.zip``, ImportSRTM, FillMissingDataHoles per tile, Mosaic with
nearest-neighbour, then ``fixElevations`` (:433-466 — near-zero ocean
cells → NoData when the raster's minimum is < 0.01).

This container has no network, so the FETCH step is an injectable
``fetcher(tile_name) -> bytes | None`` (None = tile not on the server,
skipped like the groovy's ret==1 path); the default fetcher raises
``NotImplementedError`` loudly. Everything after the fetch — parse,
void-fill, mosaic, ocean fix — is real and Ray-parallel: one task per
SRTM tile, fetched arrays broadcast via ``ray.put``, one task per
OUTPUT row band reading only the tile refs that overlap it (the same
extent-gather plan as stages/raster_stats.mosaic — no shuffle).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..stages.raster import RasterSpec, tile_task
from .grids import WHITEBOX_NODATA
from .raster_io import RasterHeader

_SRTM_VOID = -32768.0


def srtm_tile_name(lat: int, lon: int) -> str:
    """The groovy's exact padding rule (:202-231): N/S + 2-digit lat,
    E/W + 3-digit lon."""
    ns = f"N{lat:02d}" if lat >= 0 else f"S{-lat:02d}"
    ew = f"E{lon:03d}" if lon >= 0 else f"W{-lon:03d}"
    return ns + ew


def srtm_tile_names(south: int, north: int,
                    west: int, east: int) -> list[str]:
    """All tiles for the inclusive corner box, the groovy's
    ``for (lat in south..north) for (lon in west..east)`` order."""
    return [srtm_tile_name(lat, lon)
            for lat in range(south, north + 1)
            for lon in range(west, east + 1)]


def _default_fetcher(tile_name: str) -> bytes:
    raise NotImplementedError(
        "RetrieveSRTMData's FTP fetch needs network access (the "
        "reference downloads from dds.cr.usgs.gov); inject "
        "fetcher=<callable tile_name -> hgt bytes | None> instead")


def parse_hgt(raw: bytes) -> np.ndarray:
    """Big-endian int16 square grid; 1201² (3 arc-sec) or 3601²."""
    n = len(raw) // 2
    side = int(math.isqrt(n))
    if side * side * 2 != len(raw) or side not in (1201, 3601):
        raise ValueError(f"unrecognised SRTM payload length {len(raw)}")
    return (np.frombuffer(raw, dtype=">i2")
            .astype(np.float64).reshape(side, side))


def fill_voids(a: np.ndarray, k: int = 6, window: int = 8) -> np.ndarray:
    """FillMissingDataHoles semantics on one tile (ImageProcessingTools/
    src/plugins/FillMissingDataHoles.java:106-180): every void cell is
    IDW-filled (1/d² weights) from its k nearest hole-EDGE cells, ties
    broken by (d², dy, dx). Windowed: SRTM voids are small speckle, so
    edges within ``window`` cells are asserted (loud, not degraded)."""
    hole = a == _SRTM_VOID
    if not hole.any():
        return a
    H, W = a.shape
    valid = ~hole
    edge = np.zeros_like(valid)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            ys = slice(max(0, -dy), H - max(0, dy))
            xs = slice(max(0, -dx), W - max(0, dx))
            yd = slice(max(0, dy), H - max(0, -dy))
            xd = slice(max(0, dx), W - max(0, -dx))
            e = np.zeros_like(valid)
            e[yd, xd] = hole[ys, xs]
            edge |= e
    edge &= valid
    offs = sorted(((dy * dy + dx * dx, dy, dx)
                   for dy in range(-window, window + 1)
                   for dx in range(-window, window + 1) if dy or dx))
    pad = window
    zp = np.full((H + 2 * pad, W + 2 * pad), np.nan)
    zp[pad:-pad, pad:-pad] = a
    ep = np.zeros((H + 2 * pad, W + 2 * pad), dtype=bool)
    ep[pad:-pad, pad:-pad] = edge
    # SPARSE per-void accumulation: voids are speckle (a handful per
    # tile), so walking the sorted offsets per void cell — with the
    # SAME scalar float64 += order the full-plane scatter version used
    # per cell (pytest-pinned) — replaces ~290 full-plane passes
    # (≈20 GB of memory traffic on a 1201² tile) with O(voids · window²)
    out = a.copy()
    for vy, vx in zip(*np.nonzero(hole)):
        sw = 0.0
        swv = 0.0
        cnt = 0
        for d2, dy, dx in offs:
            if ep[pad + vy + dy, pad + vx + dx]:
                w = 1.0 / d2
                sw += w
                swv += w * zp[pad + vy + dy, pad + vx + dx]
                cnt += 1
                if cnt == k:
                    break
        if cnt == 0:
            raise AssertionError(
                f"fill_voids: a void has no edge cell within {window} "
                f"cells — widen the window (reference uses a global "
                f"KdTree)")
        out[vy, vx] = swv / sw
    return out


def fix_elevations(a: np.ndarray,
                   nodata: float = WHITEBOX_NODATA) -> np.ndarray:
    """fixElevations (:433-466): when the minimum is < 0.01, near-zero
    ocean cells (-0.01 < z <= 0.01) become NoData."""
    valid = a != nodata
    if not valid.any() or a[valid].min() >= 0.01:
        return a
    ocean = valid & (a <= 0.01) & (a > -0.01)
    out = a.copy()
    out[ocean] = nodata
    return out


def retrieve_srtm(south: int, north: int, west: int, east: int,
                  fetcher=None, fill_data_holes: bool = True,
                  mosaic_tiles: bool = True, tile_rows: int = 256):
    """The full script pipeline minus the FTP transport. Returns
    ``(RasterHeader, tile Dataset)`` in the engine convention (or a
    list of per-tile results when ``mosaic_tiles`` is False, like the
    groovy's per-file return path).

    SRTM grids share their edge row/col with neighbours, so the mosaic
    spans ``n·(side−1)+1`` cells per axis; at seams the NORTH/WEST tile
    wins (the groovy mosaics in tile-list order with nearest-neighbour
    resampling — on a shared aligned grid that reduces to source
    order, Mosaic.java's last-resort rule)."""
    import ray
    import ray.data as rd

    fetcher = fetcher or _default_fetcher
    coords = [(lat, lon) for lat in range(south, north + 1)
              for lon in range(west, east + 1)]

    # fetch on the DRIVER (the groovy's sequential download loop — the
    # transport is driver I/O; an arbitrary user fetcher also isn't
    # importable on workers), then parse + fill + fix one Ray task per
    # tile on the raw bytes
    raws = {c: fetcher(srtm_tile_name(*c)) for c in coords}
    raws = {c: r for c, r in raws.items() if r is not None}
    if not raws:
        raise FileNotFoundError(
            "no SRTM tiles were available for the area of interest")

    fill = fill_data_holes

    @ray.remote
    def prep(raw: bytes):
        a = parse_hgt(raw)
        if fill:
            a = fill_voids(a)
        a = np.where(a == _SRTM_VOID, WHITEBOX_NODATA, a)
        return fix_elevations(a)

    # task ObjectRefs double as the broadcast handles — the prepared
    # arrays stay in the object store, never round-tripped via the driver
    arrays = {c: prep.remote(r) for c, r in raws.items()}

    # probe one tile for the grid side
    probe = ray.get(next(iter(arrays.values())))
    side = probe.shape[0]
    step = side - 1

    if not mosaic_tiles:
        out = []
        for (lat, lon), ref in sorted(arrays.items()):
            hdr = RasterHeader(rows=side, cols=side, north=lat + 1,
                               south=lat, east=lon + 1, west=lon,
                               nodata=WHITEBOX_NODATA)
            a = ray.get(ref)
            df = pd.DataFrame({
                "tile_id": np.arange(-(-side // tile_rows)),
                "data": [a[i:i + tile_rows].ravel()
                         for i in range(0, side, tile_rows)]})
            out.append((srtm_tile_name(lat, lon), hdr,
                        rd.from_pandas(df)))
        return out

    lats = sorted({c[0] for c in arrays})
    lons = sorted({c[1] for c in arrays})
    n_lat, n_lon = max(lats) - min(lats) + 1, max(lons) - min(lons) + 1
    rows = n_lat * step + 1
    cols = n_lon * step + 1
    hdr = RasterHeader(rows=rows, cols=cols,
                       north=max(lats) + 1, south=min(lats),
                       east=max(lons) + 1, west=min(lons),
                       nodata=WHITEBOX_NODATA)
    lat0, lon0 = min(lats), min(lons)
    refs = {c: r for c, r in arrays.items()}

    spec = RasterSpec(rows=rows, cols=cols, tile_rows=tile_rows)

    def band(tid: int) -> dict:
        r0, r1 = spec.band(tid)
        blk = np.full((r1 - r0, cols), WHITEBOX_NODATA)
        # source tiles overlapping this output band; NORTH/WEST tile
        # written LAST wins at shared seam cells
        for (lat, lon), ref in sorted(refs.items(),
                                      key=lambda kv: (kv[0][0], -kv[0][1])):
            # output row of the tile's top (north) row
            top = (max(lats) - lat) * step
            if top + side <= r0 or top >= r1:
                continue
            a = ray.get(ref)
            c0 = (lon - lon0) * step
            s0, s1 = max(r0 - top, 0), min(r1 - top, side)
            sub = a[s0:s1]
            dst = blk[top + s0 - r0:top + s1 - r0, c0:c0 + side]
            np.copyto(dst, sub, where=(sub != WHITEBOX_NODATA)
                      | (dst == WHITEBOX_NODATA))
        return {"tile_id": [tid], "data": [blk.ravel()]}

    return hdr, tile_task(spec.n_tiles, band,
                          override_num_blocks=spec.n_tiles)


def _demo_fetcher(name: str):
    """Deterministic stand-in transport for the registry query: synth
    terrain per tile (trig surface + speckle voids + an ocean strip),
    one tile 'missing from the server'."""
    if name == "N46E008":
        return None
    lat = int(name[1:3]) * (1 if name[0] == "N" else -1)
    lon = int(name[4:7]) * (1 if name[3] == "E" else -1)
    r = np.arange(1201)[:, None]
    c = np.arange(1201)[None, :]
    a = np.round(100.0 + 10.0 * np.sin((lat * 7 + r) / 97.0)
                 + 5.0 * np.cos((lon * 13 + c) / 53.0))
    a[600 + lat % 3, 600 + lon % 5] = -32768.0
    a[700, 700:703] = -32768.0
    if lat == 45:
        a[-5:, :10] = 0.0
    return a.astype(">i2").tobytes()


def retrieve_srtm_query():
    """Registry entry (rows-only — trig synth + IDW fill are non-SQL;
    literal mirror in tests/test_srtm_retrieve.py): the full retrieve →
    fill → mosaic → fixElevations pipeline over the demo transport,
    reduced to per-band checksums."""
    hdr, ds = retrieve_srtm(45, 46, 7, 8, fetcher=_demo_fetcher)

    def summarize(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for tid, data in zip(b["tile_id"], b["data"]):
            a = np.asarray(data, dtype=np.float64)
            valid = a != WHITEBOX_NODATA
            rows.append({"tile_id": int(tid),
                         "n_valid": int(valid.sum()),
                         "band_sum": float(np.round(a[valid].sum(), 6))})
        return pd.DataFrame(rows)

    return ds.map_batches(summarize, batch_format="pandas").sort("tile_id")


def retrieve_srtm_mosaic_sql(south: int = 45, north: int = 46,
                             west: int = 7, east: int = 8,
                             tile_rows: int = 256, k: int = 6,
                             window: int = 8,
                             round_to: int = 6) -> str:
    """Exact DuckDB mirror of ``retrieve_srtm_query`` over the demo
    transport. Every stage is replayed:
    the trig synth per tile (np.round half-to-even never meets an exact
    .5 on these irrational arguments, so SQL round matches), the
    k-nearest-hole-edge IDW fill with the impl's EXACT sequential
    accumulation order (the <= 6 weighted terms are pivoted to columns
    and summed left-to-right — windowed SUM would not pin the float
    order), fixElevations' ocean rule per tile, and the mosaic's
    last-valid-writer-wins rule under the groovy's (lat asc, lon desc)
    write order. Band sums are integers plus a handful of IDW
    fractions, so cross-engine summation order cannot move the 6-dp
    rounding."""
    side, step = 1201, 1200
    nd = WHITEBOX_NODATA
    coords = [(lat, lon) for lat in range(south, north + 1)
              for lon in range(west, east + 1)
              if srtm_tile_name(lat, lon) != "N46E008"]
    lats = sorted({c[0] for c in coords})
    lons = sorted({c[1] for c in coords})
    latm, lon0 = max(lats), min(lons)
    rows = (max(lats) - min(lats) + 1) * step + 1
    cols = (max(lons) - min(lons) + 1) * step + 1

    tile_sel = " UNION ALL ".join(f"""
SELECT {lat} AS lat, {lon} AS lon, r, c,
  CASE
    WHEN {int(lat == 45)} = 1 AND r >= {side - 5} AND c < 10 THEN 0.0
    WHEN (r = {600 + lat % 3} AND c = {600 + lon % 5})
      OR (r = 700 AND c BETWEEN 700 AND 702) THEN {-32768.0}
    ELSE round(100.0 + 10.0 * sin(({lat} * 7 + r) / 97.0)
               + 5.0 * cos(({lon} * 13 + c) / 53.0), 0)
  END AS v
FROM (SELECT i // {side} AS r, i % {side} AS c
      FROM range(0, {side * side}) t(i))""" for lat, lon in coords)

    voids = []
    for lat, lon in coords:
        voids.append(f"({lat},{lon},{600 + lat % 3},{600 + lon % 5})")
        for cc in (700, 701, 702):
            voids.append(f"({lat},{lon},700,{cc})")
    voids_sql = ", ".join(voids)

    offs = sorted(((dy * dy + dx * dx, dy, dx)
                   for dy in range(-window, window + 1)
                   for dx in range(-window, window + 1) if dy or dx))
    offs_sql = ", ".join(f"({i},{d2},{dy},{dx})"
                         for i, (d2, dy, dx) in enumerate(offs))

    sw = "w1"
    swv = "wv1"
    for i in range(2, k + 1):
        sw = f"({sw} + w{i})"
        swv = f"({swv} + wv{i})"
    pick = ", ".join(
        f"max(CASE WHEN rn = {i} THEN w END) AS w{i}, "
        f"max(CASE WHEN rn = {i} THEN w * v END) AS wv{i}"
        for i in range(1, k + 1))

    return f"""
WITH
tiles AS MATERIALIZED ({tile_sel}),
voidlist(lat, lon, vr, vc) AS (VALUES {voids_sql}),
edge AS MATERIALIZED (
  SELECT DISTINCT t.lat, t.lon, t.r, t.c, t.v
  FROM voidlist vl
  JOIN tiles t ON t.lat = vl.lat AND t.lon = vl.lon
    AND t.r BETWEEN vl.vr - {window + 1} AND vl.vr + {window + 1}
    AND t.c BETWEEN vl.vc - {window + 1} AND vl.vc + {window + 1}
    AND t.v <> {nd}
  WHERE EXISTS (SELECT 1 FROM voidlist v2
                WHERE v2.lat = t.lat AND v2.lon = t.lon
                  AND abs(v2.vr - t.r) <= 1 AND abs(v2.vc - t.c) <= 1)),
offs(oid, d2, dy, dx) AS (SELECT * FROM (VALUES {offs_sql})),
cands AS (
  SELECT vl.lat, vl.lon, vl.vr, vl.vc, o.d2, e.v,
         row_number() OVER (PARTITION BY vl.lat, vl.lon, vl.vr, vl.vc
                            ORDER BY o.oid) AS rn
  FROM voidlist vl
  JOIN offs o ON TRUE
  JOIN edge e ON e.lat = vl.lat AND e.lon = vl.lon
             AND e.r = vl.vr + o.dy AND e.c = vl.vc + o.dx),
fill AS (
  SELECT lat, lon, vr AS r, vc AS c, {swv} / {sw} AS fv
  FROM (SELECT lat, lon, vr, vc, {pick}
        FROM (SELECT *, 1.0 / d2 AS w FROM cands WHERE rn <= {k})
        GROUP BY lat, lon, vr, vc)),
filled AS MATERIALIZED (
  SELECT t.lat, t.lon, t.r, t.c,
         COALESCE(f.fv, CASE WHEN t.v = {-32768.0} THEN {nd}
                             ELSE t.v END) AS v
  FROM tiles t
  LEFT JOIN fill f ON f.lat = t.lat AND f.lon = t.lon
                  AND f.r = t.r AND f.c = t.c),
tmin AS (SELECT lat, lon, min(v) AS mn
         FROM filled WHERE v <> {nd} GROUP BY lat, lon),
fixed AS MATERIALIZED (
  SELECT f.lat, f.lon, f.r, f.c,
         CASE WHEN tm.mn < 0.01 AND f.v <> {nd}
                   AND f.v <= 0.01 AND f.v > -0.01
              THEN {nd} ELSE f.v END AS v
  FROM filled f JOIN tmin tm ON tm.lat = f.lat AND tm.lon = f.lon),
mos AS MATERIALIZED (
  SELECT ({latm} - lat) * {step} + r AS R,
         (lon - {lon0}) * {step} + c AS C, lat, lon, v
  FROM fixed),
win AS (
  SELECT R, C, v FROM (
    SELECT R, C, v,
           row_number() OVER (PARTITION BY R, C
             ORDER BY (v <> {nd}) ASC, lat ASC, lon DESC) AS rn,
           count(*) OVER (PARTITION BY R, C) AS ct
    FROM mos) WHERE rn = ct),
grid AS (
  SELECT i // {cols} AS R, i % {cols} AS C
  FROM range(0, {rows * cols}) t(i)),
full_grid AS (
  SELECT g.R, g.C, COALESCE(w.v, {nd}) AS v
  FROM grid g LEFT JOIN win w ON w.R = g.R AND w.C = g.C)
SELECT CAST(R // {tile_rows} AS BIGINT) AS tile_id,
       CAST(count(CASE WHEN v <> {nd} THEN 1 END) AS BIGINT) AS n_valid,
       round(sum(CASE WHEN v <> {nd} THEN v ELSE 0 END), {round_to})
         AS band_sum
FROM full_grid GROUP BY 1 ORDER BY tile_id
"""
