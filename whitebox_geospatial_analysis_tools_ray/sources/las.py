"""LAS 1.2 point-cloud source/sink (LidarTools family).

Reference: WhiteboxAPI/src/whitebox/geospatialfiles/LASReader.java:36
(1,301 LoC) reads the LAS public header (point-data offset, record
format/length, point count, xyz scale+offset) and decodes point records
(scaled int32 x/y/z + intensity + classification …); tools LAS2ASCII
(LidarTools/src/plugins/LAS2ASCII.java), LAS2Shapefile (362 LoC) and
TileLasFile (Scripts/TileLasFile.groovy:172-174, the canonical tile
rule) consume it point-at-a-time.

Ray shape: the header is read once on the driver (tiny); point records
stream through byte-range chunk reads — one Ray task per chunk of the
point block, the same intra-file parallel-read pattern as the binary
grid importers (sources/grids.py). Coordinates dequantize vectorized:
x = x_i32 · scale + offset.

The synthetic writer quantizes with scale 1/1024 (a power of two) via
``floor(v·1024 + 0.5)``, so the dequantized doubles are EXACTLY
reproducible in SQL — giving the whole LAS → tile-assignment pipeline
an exact DuckDB oracle.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
import pandas as pd

from ..stages.util import combine, groupwise_combine

SCALE = 1.0 / 1024.0
_PT_FIELDS_0 = [("xi", "<i4"), ("yi", "<i4"), ("zi", "<i4"),
                ("intensity", "<u2"), ("flags", "u1"),
                ("classification", "u1"), ("scan_angle", "i1"),
                ("user_data", "u1"), ("point_source", "<u2")]


def _pt_dtype(fmt: int) -> np.dtype:
    """LAS 1.2 point record layouts (spec §"Point Data Record Format
    0-3"; LASReader.java decodes the same four): 1 adds GPS time,
    2 adds RGB, 3 adds both."""
    fields = list(_PT_FIELDS_0)
    if fmt in (1, 3):
        fields.append(("gps_time", "<f8"))
    if fmt in (2, 3):
        fields += [("red", "<u2"), ("green", "<u2"), ("blue", "<u2")]
    return np.dtype(fields)


_PT_DTYPE = _pt_dtype(0)
assert _PT_DTYPE.itemsize == 20   # format 0
assert _pt_dtype(1).itemsize == 28
assert _pt_dtype(2).itemsize == 26
assert _pt_dtype(3).itemsize == 34


@dataclass
class LasHeader:
    version: tuple[int, int]
    point_offset: int
    point_format: int
    record_len: int
    n_points: int
    scale: tuple[float, float, float]
    offset: tuple[float, float, float]


def read_las_header(path: str) -> LasHeader:
    with open(path, "rb") as f:
        raw = f.read(227)
    if raw[:4] != b"LASF":
        raise ValueError(f"{path}: not a LAS file")
    ver = (raw[24], raw[25])
    point_offset = struct.unpack_from("<I", raw, 96)[0]
    point_format = raw[104]
    record_len = struct.unpack_from("<H", raw, 105)[0]
    n_points = struct.unpack_from("<I", raw, 107)[0]
    sx, sy, sz = struct.unpack_from("<3d", raw, 131)
    ox, oy, oz = struct.unpack_from("<3d", raw, 155)
    return LasHeader(ver, point_offset, point_format, record_len,
                     n_points, (sx, sy, sz), (ox, oy, oz))


def write_las(path: str, x: np.ndarray, y: np.ndarray, z: np.ndarray,
              intensity: np.ndarray, classification: np.ndarray,
              scale: float = SCALE, scan_angle: np.ndarray | None = None,
              flags: np.ndarray | None = None, point_format: int = 0,
              gps_time: np.ndarray | None = None,
              rgb: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
              ) -> None:
    """Minimal LAS 1.2 writer, point formats 0-3 (deterministic test
    fixtures). ``gps_time`` applies to formats 1/3, ``rgb`` to 2/3."""
    if point_format not in (0, 1, 2, 3):
        raise NotImplementedError(f"LAS point format {point_format}")
    dt = _pt_dtype(point_format)
    xi = np.floor(np.asarray(x) / scale + 0.5).astype(np.int32)
    yi = np.floor(np.asarray(y) / scale + 0.5).astype(np.int32)
    zi = np.floor(np.asarray(z) / scale + 0.5).astype(np.int32)
    n = len(xi)
    rec = np.zeros(n, dtype=dt)
    rec["xi"], rec["yi"], rec["zi"] = xi, yi, zi
    rec["intensity"] = np.asarray(intensity, dtype=np.uint16)
    rec["classification"] = np.asarray(classification, dtype=np.uint8)
    if scan_angle is not None:
        rec["scan_angle"] = np.asarray(scan_angle, dtype=np.int8)
    if flags is not None:
        rec["flags"] = np.asarray(flags, dtype=np.uint8)
    if point_format in (1, 3) and gps_time is not None:
        rec["gps_time"] = np.asarray(gps_time, dtype=np.float64)
    if point_format in (2, 3) and rgb is not None:
        rec["red"] = np.asarray(rgb[0], dtype=np.uint16)
        rec["green"] = np.asarray(rgb[1], dtype=np.uint16)
        rec["blue"] = np.asarray(rgb[2], dtype=np.uint16)
    hdr = bytearray(227)
    hdr[:4] = b"LASF"
    hdr[24], hdr[25] = 1, 2
    struct.pack_into("<H", hdr, 94, 227)        # header size
    struct.pack_into("<I", hdr, 96, 227)        # point data offset
    hdr[104] = point_format
    struct.pack_into("<H", hdr, 105, dt.itemsize)
    struct.pack_into("<I", hdr, 107, n)
    struct.pack_into("<3d", hdr, 131, scale, scale, scale)
    struct.pack_into("<3d", hdr, 155, 0.0, 0.0, 0.0)
    xs = xi * scale
    ys = yi * scale
    zs = zi * scale
    struct.pack_into("<6d", hdr, 179,
                     float(xs.max(initial=0)), float(xs.min(initial=0)),
                     float(ys.max(initial=0)), float(ys.min(initial=0)),
                     float(zs.max(initial=0)), float(zs.min(initial=0)))
    with open(path, "wb") as f:
        f.write(bytes(hdr))
        f.write(rec.tobytes())


def read_las(path: str, chunk_points: int = 262_144,
             with_index: bool = False):
    """LAS points as a streaming Ray Dataset
    (x, y, z, intensity, classification) — one task per record chunk.

    ``with_index=True`` adds the global FILE-ORDER record index as an
    ``index`` column, derived per chunk from the chunk id's base offset
    (no driver materialization needed to number the cloud)."""
    import ray.data as rd

    hdr = read_las_header(path)
    if hdr.point_format not in (0, 1, 2, 3):
        raise NotImplementedError(
            f"LAS point format {hdr.point_format} (len {hdr.record_len})")
    dt = _pt_dtype(hdr.point_format)
    if hdr.record_len != dt.itemsize:
        raise NotImplementedError(
            f"LAS format {hdr.point_format} record length "
            f"{hdr.record_len} != {dt.itemsize} (extra bytes unsupported)")
    n_chunks = max(1, -(-hdr.n_points // chunk_points))
    sx, sy, sz = hdr.scale
    ox, oy, oz = hdr.offset
    fmt = hdr.point_format

    def load(batch) -> pd.DataFrame:
        frames = []
        for cid in batch["id"]:
            p0 = int(cid) * chunk_points
            p1 = min(p0 + chunk_points, hdr.n_points)
            with open(path, "rb") as f:
                f.seek(hdr.point_offset + p0 * dt.itemsize)
                raw = f.read((p1 - p0) * dt.itemsize)
            rec = np.frombuffer(raw, dtype=dt)
            cols = {
                "x": rec["xi"] * sx + ox,
                "y": rec["yi"] * sy + oy,
                "z": rec["zi"] * sz + oz,
                "intensity": rec["intensity"].astype(np.int64),
                "classification": rec["classification"].astype(np.int64),
                "scan_angle": rec["scan_angle"].astype(np.int64),
                "flags": rec["flags"].astype(np.int64)}
            if fmt in (1, 3):
                cols["gps_time"] = rec["gps_time"].astype(np.float64)
            if fmt in (2, 3):
                cols["red"] = rec["red"].astype(np.int64)
                cols["green"] = rec["green"].astype(np.int64)
                cols["blue"] = rec["blue"].astype(np.int64)
            if with_index:
                cols["index"] = np.arange(p0, p1, dtype=np.int64)
            frames.append(pd.DataFrame(cols))
        return pd.concat(frames, ignore_index=True)

    return rd.range(n_chunks).map_batches(load, batch_format="numpy")


def las_extent(ds) -> tuple[float, float, float, float]:
    """(minx, miny, maxx, maxy) of a LAS point Dataset — per-batch
    partial min/max, 4-float driver combine (the extent pre-scan of
    InterpolationNN.java:334-339, streamed)."""
    def partial(b):
        return pd.DataFrame({
            "minx": [float(np.min(b["x"]))], "miny": [float(np.min(b["y"]))],
            "maxx": [float(np.max(b["x"]))], "maxy": [float(np.max(b["y"]))]})

    df = ds.map_batches(partial, batch_format="numpy").to_pandas()
    if len(df) == 0:        # empty cloud -> degenerate zero extent
        return (0.0, 0.0, 0.0, 0.0)
    return (float(df["minx"].min()), float(df["miny"].min()),
            float(df["maxx"].max()), float(df["maxy"].max()))


# ---------------------------------------------------------------------------
# Conformance pipeline: synthesize LAS from the documents table, read it
# back distributed, and run the TileLasFile tile rule + per-tile stats.
# ---------------------------------------------------------------------------

TILE_W = 250.0
TILE_COLS = 16  # extent [0, 4000) → 16 × 16 fixed grid


_LAS_WRITER_VERSION = "v3"  # bump when the synthesis rule changes


def _content_tag(sf_dir: str) -> str:
    """md5 over the documents.parquet BYTES + writer version — so a
    regenerated table at the same path never reuses a stale fixture
    (a path-keyed cache once served a stale table)."""
    import hashlib
    import os

    h = hashlib.md5(_LAS_WRITER_VERSION.encode())
    src = os.path.join(sf_dir, "documents.parquet")
    files = ([src] if os.path.isfile(src) else
             sorted(os.path.join(r, f) for r, _, fs in os.walk(src)
                    for f in fs))
    for fp in files:
        with open(fp, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()[:12]


def synth_las_path(sf_dir: str) -> str:
    """Write (once) the deterministic LAS derived from documents:
    quantized geocoded x/y, z = n_chars, intensity = doc_id % 4096,
    classification = doc_id % 7 + 1. Cache is keyed by a CONTENT hash
    of the source table plus the writer version."""
    import os

    from ..stages.points import read_points

    path = f"/tmp/graft_las_{_content_tag(sf_dir)}.las"
    if not os.path.exists(path):
        pts = read_points(sf_dir).to_pandas()
        if len(pts) == 0:   # empty table -> empty (0-point) LAS
            pts = pd.DataFrame({"rec_id": pd.Series([], dtype="int64"),
                                "x": pd.Series([], dtype="float64"),
                                "y": pd.Series([], dtype="float64"),
                                "z": pd.Series([], dtype="float64")})
        pts = pts.sort_values("rec_id")
        ids = pts["rec_id"].to_numpy()
        write_las(path, pts["x"].to_numpy(), pts["y"].to_numpy(),
                  pts["z"].to_numpy(), ids % 4096, ids % 7 + 1,
                  scan_angle=ids % 31 - 15,
                  flags=np.where(ids % 13 == 0, 0x40, 0))
    return path


def synth_las3_path(sf_dir: str) -> str:
    """Write (once) a point-format-3 (GPS time + RGB) LAS derived from
    documents: same geometry as the format-0 fixture plus
    gps_time = rec_id/1024 (dyadic — exact in SQL) and
    rgb = (7·id, 11·id, 13·id) mod 65536. Content-hash keyed cache."""
    import os

    from ..stages.points import read_points

    path = f"/tmp/graft_las3_{_content_tag(sf_dir)}.las"
    if not os.path.exists(path):
        pts = read_points(sf_dir).to_pandas()
        if len(pts) == 0:   # empty table -> empty (0-point) LAS
            pts = pd.DataFrame({"rec_id": pd.Series([], dtype="int64"),
                                "x": pd.Series([], dtype="float64"),
                                "y": pd.Series([], dtype="float64"),
                                "z": pd.Series([], dtype="float64")})
        pts = pts.sort_values("rec_id")
        ids = pts["rec_id"].to_numpy()
        write_las(path, pts["x"].to_numpy(), pts["y"].to_numpy(),
                  pts["z"].to_numpy(), ids % 4096, ids % 7 + 1,
                  scan_angle=ids % 31 - 15, point_format=3,
                  gps_time=ids / 1024.0,
                  rgb=((ids * 7) % 65536, (ids * 11) % 65536,
                       (ids * 13) % 65536))
    return path


def las_rgb_stats(sf_dir: str):
    """Per-classification RGB + GPS-time stats over a point-format-3
    cloud (the LAS 1.2 record layouts LASReader.java:36 decodes beyond
    format 0): partial sums per chunk, bounded combine. GPS time is
    summed as exact 1024ths (dyadic), so the oracle is exact."""
    ds = read_las(synth_las3_path(sf_dir))

    def partial(batch) -> pd.DataFrame:
        gq = np.floor(np.asarray(batch["gps_time"]) * 1024.0
                      + 0.5).astype(np.int64)
        df = pd.DataFrame({"classification": np.asarray(
                               batch["classification"]),
                           "one": 1, "r": np.asarray(batch["red"]),
                           "g": np.asarray(batch["green"]),
                           "b": np.asarray(batch["blue"]), "gq": gq})
        g = df.groupby("classification").agg(
            n=("one", "sum"), sr=("r", "sum"), sg=("g", "sum"),
            sb=("b", "sum"), sgq=("gq", "sum"))
        return g.reset_index()

    parts = ds.map_batches(partial, batch_format="numpy")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "classification": [int(df["classification"].iloc[0])],
            "n_points": [int(df["n"].sum())],
            "sum_red": [int(df["sr"].sum())],
            "sum_green": [int(df["sg"].sum())],
            "sum_blue": [int(df["sb"].sum())],
            "sum_gps_q": [int(df["sgq"].sum())]})

    return (combine(parts, "classification",
                    groupwise_combine(final, "classification"))
            .sort("classification"))


def las_rgb_stats_sql() -> str:
    """Exact mirror: gps_time = rec_id/1024 re-quantizes to rec_id."""
    return """
SELECT CAST(doc_id % 7 + 1 AS BIGINT) AS classification,
       CAST(count(*) AS BIGINT) AS n_points,
       CAST(SUM((doc_id * 7) % 65536) AS BIGINT) AS sum_red,
       CAST(SUM((doc_id * 11) % 65536) AS BIGINT) AS sum_green,
       CAST(SUM((doc_id * 13) % 65536) AS BIGINT) AS sum_blue,
       CAST(SUM(doc_id) AS BIGINT) AS sum_gps_q
FROM documents GROUP BY 1 ORDER BY 1
"""


def las_tile_stats(sf_dir: str):
    """(tile_id, n_points, sum_intensity, sum_z) over the fixed grid —
    the TileLasFile.groovy:172-174 floor rule on dequantized coords.

    ``sum_z`` is INTEGER-EXACT: z values are exact multiples of 2⁻¹⁰,
    so each partial sums the re-quantized int64 ``z·1024`` and the
    final divides the integer total by 1024 once — no rounding rule to
    disagree about between Python and DuckDB (a banker's-vs-half-away
    divergence on dyadic ties once broke the oracle match)."""
    ds = read_las(synth_las_path(sf_dir))

    def partial(batch) -> pd.DataFrame:
        x = np.asarray(batch["x"])
        y = np.asarray(batch["y"])
        tile = (np.floor(y / TILE_W).astype(np.int64) * TILE_COLS
                + np.floor(x / TILE_W).astype(np.int64))
        # z = zi·2⁻¹⁰ exactly, so z·1024 is an exact integer-valued float
        zq = np.floor(np.asarray(batch["z"]) * 1024.0 + 0.5).astype(np.int64)
        df = pd.DataFrame({"tile_id": tile, "one": 1,
                           "i": np.asarray(batch["intensity"]),
                           "zq": zq})
        g = df.groupby("tile_id").agg(n=("one", "sum"), si=("i", "sum"),
                                      szq=("zq", "sum"))
        return g.reset_index()

    parts = ds.map_batches(partial, batch_format="numpy")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "tile_id": [int(df["tile_id"].iloc[0])],
            "n_points": [int(df["n"].sum())],
            "sum_intensity": [int(df["si"].sum())],
            "sum_z": [float(int(df["szq"].sum()) / 1024.0)]})

    return combine(parts, "tile_id",
                   groupwise_combine(final, "tile_id")).sort("tile_id")


def las_tile_stats_sql() -> str:
    """Exact DuckDB mirror: same quantization (scale 1/1024 via
    floor(v·1024 + 0.5)) and the same fixed-grid floor rule."""
    from ..core.features import POINTS_CTE
    q = float(1.0 / SCALE)
    return f"""
WITH {POINTS_CTE},
las AS (
  SELECT rec_id,
         floor(x * {q!r} + 0.5) / {q!r} AS x,
         floor(y * {q!r} + 0.5) / {q!r} AS y,
         floor(z * {q!r} + 0.5) / {q!r} AS z,
         rec_id % 4096 AS intensity
  FROM pts),
keyed AS (
  SELECT CAST(floor(y / {TILE_W!r}) AS BIGINT) * {TILE_COLS}
         + CAST(floor(x / {TILE_W!r}) AS BIGINT) AS tile_id,
         intensity,
         CAST(floor(z * {q!r} + 0.5) AS BIGINT) AS zq
  FROM las)
SELECT tile_id, COUNT(*) AS n_points,
       CAST(SUM(intensity) AS BIGINT) AS sum_intensity,
       CAST(SUM(zq) AS BIGINT) / {q!r} AS sum_z
FROM keyed GROUP BY tile_id ORDER BY tile_id
"""


def get_las_file_summary(sf_dir: str):
    """GetLasFileSummary (LidarTools scripts): per-classification point
    counts + global count — header parse on the driver, one partial
    count pass over the point chunks."""
    ds = read_las(synth_las_path(sf_dir))

    def partial(batch) -> pd.DataFrame:
        cls, counts = np.unique(np.asarray(batch["classification"]),
                                return_counts=True)
        return pd.DataFrame({"classification": cls.astype(np.int64),
                             "n_points": counts.astype(np.int64)})

    parts = ds.map_batches(partial, batch_format="numpy").to_pandas()
    if len(parts) == 0:     # empty cloud -> typed empty summary
        return pd.DataFrame({"classification": pd.Series([], dtype="int64"),
                             "n_points": pd.Series([], dtype="int64")})
    out = parts.groupby("classification", as_index=False)["n_points"].sum()
    return out.sort_values("classification").reset_index(drop=True)


def get_las_file_summary_sql() -> str:
    return """
SELECT CAST(doc_id % 7 + 1 AS BIGINT) AS classification,
       CAST(count(*) AS BIGINT) AS n_points
FROM documents GROUP BY 1
"""


def filter_las_scan_angles(sf_dir: str, threshold: int = 10):
    """FilterLasScanAngles (LidarTools scripts): drop points with
    |scan angle| > threshold; summary row (n_kept, sum_intensity)."""
    ds = read_las(synth_las_path(sf_dir))

    def partial(batch) -> pd.DataFrame:
        sa = np.asarray(batch["scan_angle"])
        keep = np.abs(sa) <= threshold
        return pd.DataFrame({
            "n": [int(keep.sum())],
            "si": [int(np.asarray(batch["intensity"])[keep].sum())]})

    parts = ds.map_batches(partial, batch_format="numpy").to_pandas()
    if len(parts) == 0:     # empty cloud -> zero counts
        return pd.DataFrame({"n_kept": [0], "sum_intensity": [0]})
    return pd.DataFrame({"n_kept": [int(parts["n"].sum())],
                         "sum_intensity": [int(parts["si"].sum())]})


def filter_las_scan_angles_sql(threshold: int = 10) -> str:
    return f"""
SELECT CAST(count(*) AS BIGINT) AS n_kept,
       CAST(COALESCE(SUM(doc_id % 4096), 0) AS BIGINT) AS sum_intensity
FROM documents WHERE abs(doc_id % 31 - 15) <= {threshold}
"""


def find_flightline_edge_points(sf_dir: str):
    """FindFlightlineEdgePoints (LidarTools scripts): points with the
    edge-of-flightline flag bit set; summary (n_edge)."""
    ds = read_las(synth_las_path(sf_dir))

    def partial(batch) -> pd.DataFrame:
        fl = np.asarray(batch["flags"])
        return pd.DataFrame({"n": [int(((fl & 0x40) != 0).sum())]})

    parts = ds.map_batches(partial, batch_format="numpy").to_pandas()
    if len(parts) == 0:     # empty cloud -> zero count
        return pd.DataFrame({"n_edge": [0]})
    return pd.DataFrame({"n_edge": [int(parts["n"].sum())]})


def find_flightline_edge_points_sql() -> str:
    return """
SELECT CAST(count(*) AS BIGINT) AS n_edge
FROM documents WHERE doc_id % 13 = 0
"""


def lidar_nn_interpolation(sf_dir: str, resolution: float = 100.0,
                           max_dist: float = 600.0,
                           round_to: int = 6) -> pd.DataFrame:
    """LiDAR_NN_interpolation (LidarTools/src/plugins/
    LiDAR_NN_interpolation.java, 664 LoC — the InterpolationNN rule
    applied to LAS points): grid anchored at west = minX − res/2,
    north = maxY + res/2, rows/cols = ceil(extent/res)
    (InterpolationNN.java:334-339); each cell takes its single nearest
    LAS point's z when the SQUARED distance is strictly under
    maxDist², else NoData (first minimum = lowest record index on
    ties). Exact SQL oracle.

    Distributed plan (replaces a broadcast-all-points dense matrix):
    the neighbour-cell DUPLICATION shuffle from
    ``stages/knn.py:40`` — LAS points stream through the byte-range
    chunk source and are emitted to every ``max_dist``-pitch grid cell
    whose expanded box contains them; raster query cells are keyed by
    their one grid cell; ``util.combine`` keyed on the cell refines each
    group with a bounded (local-cells × local-points) matrix. No
    point-cloud driver materialization anywhere. The per-row reduce is
    a bounded-key partial+final combine (z values are exact dyadic
    multiples of 2⁻¹⁰ so partial sums are order-free)."""
    import math

    import ray.data as rd


    NODATA = -32768.0
    pts_ds = read_las(synth_las_path(sf_dir), with_index=True)
    minx, miny, maxx, maxy = las_extent(pts_ds)
    west = minx - 0.5 * resolution
    north = maxy + 0.5 * resolution
    nrows = int(math.ceil((north - miny) / resolution))
    ncols = int(math.ceil((maxx - west) / resolution))
    md2 = max_dist * max_dist
    half = resolution / 2.0
    pitch = max_dist
    band_rows = 16
    n_bands = math.ceil(nrows / band_rows)

    def emit_cells(batch) -> pd.DataFrame:
        frames = []
        for b in batch["id"]:
            r0 = int(b) * band_rows
            r1 = min(r0 + band_rows, nrows)
            r = np.repeat(np.arange(r0, r1, dtype=np.int64), ncols)
            c = np.tile(np.arange(ncols, dtype=np.int64), r1 - r0)
            x = c * resolution + (west + half)
            y = (north - half) - r * resolution
            gx = np.floor(x / pitch).astype(np.int64)
            gy = np.floor(y / pitch).astype(np.int64)
            frames.append(pd.DataFrame({
                "gkey": gx * 1_000_003 + gy,
                "role": np.zeros(len(r), dtype=np.int64),
                "rid": r, "x": x, "y": y, "z": np.zeros(len(r))}))
        return pd.concat(frames, ignore_index=True)

    cells = rd.range(n_bands).map_batches(emit_cells, batch_format="numpy")

    def duplicate(batch) -> pd.DataFrame:
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        z = np.asarray(batch["z"], dtype=np.float64)
        rid = np.asarray(batch["index"], dtype=np.int64)
        gx0 = np.floor(x / pitch).astype(np.int64)
        gy0 = np.floor(y / pitch).astype(np.int64)
        out = {k: [] for k in ("gkey", "role", "rid", "x", "y", "z")}
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                tgx, tgy = gx0 + dx, gy0 + dy
                bx0, bx1 = tgx * pitch, (tgx + 1) * pitch
                by0, by1 = tgy * pitch, (tgy + 1) * pitch
                ddx = np.maximum(np.maximum(bx0 - x, x - bx1), 0.0)
                ddy = np.maximum(np.maximum(by0 - y, y - by1), 0.0)
                m = (ddx * ddx + ddy * ddy) < md2
                if not m.any():
                    continue
                out["gkey"].append(tgx[m] * 1_000_003 + tgy[m])
                out["role"].append(np.ones(int(m.sum()), dtype=np.int64))
                out["rid"].append(rid[m])
                out["x"].append(x[m]); out["y"].append(y[m])
                out["z"].append(z[m])
        if not out["gkey"]:
            return pd.DataFrame({k: np.array([], dtype=np.int64
                                 if k in ("gkey", "role", "rid")
                                 else np.float64) for k in out})
        return pd.DataFrame({k: np.concatenate(v) for k, v in out.items()})

    pts_dup = pts_ds.map_batches(duplicate, batch_format="numpy")

    def per_cell_group(g: pd.DataFrame) -> pd.DataFrame:
        qs = g[g["role"] == 0]
        if len(qs) == 0:
            return pd.DataFrame({"row_id": pd.Series([], dtype="int64"),
                                 "nv": pd.Series([], dtype="int64"),
                                 "rs": pd.Series([], dtype="float64")})
        ps = g[g["role"] == 1]
        rows = qs["rid"].to_numpy()
        vals = np.full(len(qs), NODATA)
        if len(ps):
            qx = qs["x"].to_numpy(); qy = qs["y"].to_numpy()
            px = ps["x"].to_numpy(); py = ps["y"].to_numpy()
            pz = ps["z"].to_numpy(); prec = ps["rid"].to_numpy()
            d2 = (qx[:, None] - px) ** 2 + (qy[:, None] - py) ** 2
            bd = d2.min(axis=1)
            # first minimum in FILE ORDER = lowest record index on ties
            big = np.where(d2 == bd[:, None], prec[None, :],
                           np.iinfo(np.int64).max)
            pick = np.argmin(big, axis=1)
            vals = np.where(bd < md2, pz[pick], NODATA)
        ok = vals != NODATA
        out = pd.DataFrame({"row_id": rows, "nv": ok.astype(np.int64),
                            "rs": np.where(ok, vals, 0.0)})
        return out.groupby("row_id", as_index=False).sum()

    parts = combine(cells.union(pts_dup), "gkey",
                    groupwise_combine(per_cell_group, "gkey"))

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "row_id": [int(df["row_id"].iloc[0])],
            "n_valid": [int(df["nv"].sum())],
            "row_sum": [round(float(df["rs"].sum()), round_to)]})

    return (combine(parts, "row_id", groupwise_combine(final, "row_id"))
            .to_pandas().sort_values("row_id").reset_index(drop=True))


def lidar_nn_interpolation_sql(resolution: float = 100.0,
                               max_dist: float = 600.0) -> str:
    from ..core.features import POINTS_CTE
    q = float(1.0 / SCALE)
    md2 = max_dist * max_dist
    half = resolution / 2.0
    return f"""
WITH {POINTS_CTE},
las AS (
  SELECT rec_id,
         floor(x * {q!r} + 0.5) / {q!r} AS x,
         floor(y * {q!r} + 0.5) / {q!r} AS y,
         floor(z * {q!r} + 0.5) / {q!r} AS z
  FROM pts),
ext AS (SELECT MIN(x) - {half!r} AS west, MAX(y) + {half!r} AS north,
               MIN(y) AS miny, MAX(x) AS maxx FROM las),
dims AS (SELECT CAST(ceil((north - miny) / {resolution!r}) AS BIGINT) AS nr,
                CAST(ceil((maxx - west) / {resolution!r}) AS BIGINT) AS nc
         FROM ext),
cells AS (SELECT r, c,
    c * {resolution!r} + ((SELECT west FROM ext) + {half!r}) AS x,
    ((SELECT north FROM ext) - {half!r}) - r * {resolution!r} AS y
  FROM range(0, 4096) t(r) CROSS JOIN range(0, 4096) u(c)
  WHERE r < (SELECT nr FROM dims) AND c < (SELECT nc FROM dims)),
ranked AS (SELECT r, c,
    (cells.x - las.x) * (cells.x - las.x)
      + (cells.y - las.y) * (cells.y - las.y) AS d2, z,
    row_number() OVER (PARTITION BY r, c
      ORDER BY (cells.x - las.x) * (cells.x - las.x)
               + (cells.y - las.y) * (cells.y - las.y),
               rec_id) AS rn
  FROM cells CROSS JOIN las),
res AS (SELECT r, CASE WHEN d2 < {md2!r} THEN z ELSE -32768.0 END AS f
        FROM ranked WHERE rn = 1),
rows_ AS (SELECT unnest(range(0, COALESCE((SELECT nr FROM dims), 1)))
            AS row_id)
SELECT rr.row_id,
       CAST(SUM(CASE WHEN res.f <> -32768.0 THEN 1 ELSE 0 END)
            AS BIGINT) AS n_valid,
       round(SUM(CASE WHEN res.f <> -32768.0 THEN res.f ELSE 0.0 END),
             6) AS row_sum
FROM rows_ rr LEFT JOIN res ON res.r = rr.row_id
GROUP BY rr.row_id ORDER BY rr.row_id
"""


def isolate_ground_points(sf_dir: str, max_dist: float = 600.0,
                          num_neighbours: int = 3,
                          max_slope: float = 30.0) -> pd.DataFrame:
    """IsolateGroundPoints (WhiteboxGIS/resources/plugins/Scripts/
    IsolateGroundPoints.groovy:183-250): for every point a in FILE
    ORDER that is not withheld (classification-byte bit 7,
    LASReader.java:396) and not ALREADY marked off-terrain — the
    order-dependent skip — range-query maxDist (raw value; KdTree
    squares internally → radius maxDist, inclusive) and for every
    in-range partner at dist > 0 mark the HIGHER point off-terrain
    when slope = Δz/dist > tan(maxSlope°) and Δz > 0.15 (the literal
    minElevDiff constant, :171).

    Distributed shape: candidate pairs come from the cell-duplication
    self-join (pitch = maxDist, the kNN-join shuffle); the compact
    per-centre pair table (O(points·density), never the full cross
    product) is replayed on the driver in literal file order — the
    RemoveOffTerrainObjects compact-replay pattern. The reference's
    k-NN FALLBACK for sparse centres (:220-223) is asserted
    unreachable at this density (the guard fails loudly).
    Rows-only; literal brute-force mirror tested."""
    import math

    import ray
    import ray.data as rd

    pitch = max_dist
    p2 = max_dist * max_dist
    pts_ds = read_las(synth_las_path(sf_dir), with_index=True)

    def emit(batch) -> pd.DataFrame:
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        z = np.asarray(batch["z"], dtype=np.float64)
        cls = np.asarray(batch["classification"], dtype=np.int64)
        wh = (cls >> 7) & 1 == 1
        idx0 = np.asarray(batch["index"], dtype=np.int64)
        gx0 = np.floor(x / pitch).astype(np.int64)
        gy0 = np.floor(y / pitch).astype(np.int64)
        out = {k: [] for k in ("gkey", "role", "idx", "x", "y", "z")}
        m0 = ~wh
        out["gkey"].append(gx0[m0] * 1_000_003 + gy0[m0])
        out["role"].append(np.zeros(int(m0.sum()), dtype=np.int64))
        out["idx"].append(idx0[m0])
        out["x"].append(x[m0]); out["y"].append(y[m0]); out["z"].append(z[m0])
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                tgx, tgy = gx0 + dx, gy0 + dy
                bx0, bx1 = tgx * pitch, (tgx + 1) * pitch
                by0, by1 = tgy * pitch, (tgy + 1) * pitch
                ddx = np.maximum(np.maximum(bx0 - x, x - bx1), 0.0)
                ddy = np.maximum(np.maximum(by0 - y, y - by1), 0.0)
                m = (~wh) & ((ddx * ddx + ddy * ddy) <= p2)
                if not m.any():
                    continue
                out["gkey"].append(tgx[m] * 1_000_003 + tgy[m])
                out["role"].append(np.ones(int(m.sum()), dtype=np.int64))
                out["idx"].append(idx0[m])
                out["x"].append(x[m]); out["y"].append(y[m])
                out["z"].append(z[m])
        return pd.DataFrame({k: np.concatenate(v) for k, v in out.items()})

    def per_cell(g: pd.DataFrame) -> pd.DataFrame:
        qs = g[g["role"] == 0]
        ps = g[g["role"] == 1]
        if len(qs) == 0 or len(ps) == 0:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64"),
                                 "dist": pd.Series([], dtype="float64"),
                                 "za": pd.Series([], dtype="float64"),
                                 "zb": pd.Series([], dtype="float64")})
        d2 = ((qs["x"].to_numpy()[:, None] - ps["x"].to_numpy()) ** 2
              + (qs["y"].to_numpy()[:, None] - ps["y"].to_numpy()) ** 2)
        inr = (d2 > 0.0) & (d2 <= p2)
        ai, bi = np.nonzero(inr)
        return pd.DataFrame({
            "a": qs["idx"].to_numpy()[ai],
            "b": ps["idx"].to_numpy()[bi],
            "dist": np.sqrt(d2[ai, bi]),
            "za": qs["z"].to_numpy()[ai],
            "zb": ps["z"].to_numpy()[bi]})

    pairs = combine(pts_ds.map_batches(emit, batch_format="pandas"),
                    "gkey", groupwise_combine(per_cell, "gkey")).to_pandas()

    # n_points from the header, n_centres from a tiny partial count —
    # the point cloud itself never materializes on the driver
    n_points = read_las_header(synth_las_path(sf_dir)).n_points

    def count_centres(b) -> pd.DataFrame:
        wh = (np.asarray(b["classification"], dtype=np.int64) >> 7) & 1 == 1
        return pd.DataFrame({"n": [int((~wh).sum())]})

    _cdf = pts_ds.map_batches(count_centres,
                              batch_format="numpy").to_pandas()
    n_centres = int(_cdf["n"].sum()) if len(_cdf) else 0

    if n_centres <= num_neighbours:
        # fewer centres than a kNN neighbourhood (tiny/empty cloud):
        # the reference's per-point neighbourhood test is undefined —
        # degrade to "all ground"
        return pd.DataFrame({"n_points": [n_points],
                             "n_ground": [n_points],
                             "n_off_terrain": [0],
                             "sum_off_index": [0]})
    # fallback guard: every centre must already see ≥ num_neighbours
    counts = (pairs.groupby("a").size() if len(pairs)
              else pd.Series([], dtype="int64"))
    if len(counts) < n_centres or (counts < num_neighbours).any():
        raise AssertionError(
            "kNN fallback would trigger — raise max_dist")

    slope_thr = math.tan(math.radians(max_slope))
    min_ediff = 0.15
    off = np.zeros(n_points, dtype=bool)
    by_a = ({int(a): grp for a, grp in pairs.groupby("a", sort=True)}
            if len(pairs) else {})
    for a in range(n_points):
        if off[a]:
            continue
        grp = by_a.get(a)
        if grp is None:
            continue
        za = grp["za"].to_numpy()
        zb = grp["zb"].to_numpy()
        dist = grp["dist"].to_numpy()
        bidx = grp["b"].to_numpy()
        higher = np.where(za > zb, a, bidx)
        ediff = np.abs(za - zb)
        mark = (ediff / dist > slope_thr) & (ediff > min_ediff)
        off[higher[mark]] = True

    n_off = int(off.sum())
    return pd.DataFrame({
        "n_points": [n_points],
        "n_ground": [n_points - n_off],
        "n_off_terrain": [n_off],
        "sum_off_index": [int(np.flatnonzero(off).sum())]})


def isolate_ground_points_sql(max_dist: float = 600.0,
                              max_slope: float = 30.0) -> str:
    """Exact replay of isolate_ground_points' sequential file-order
    scan. The synth fixture's classification is rec_id % 7 + 1 (1..7),
    so the withheld bit (classification >> 7) is identically zero and
    every point is a centre. The per-centre mark set is independent of
    the evolving off-terrain state (the inner vectorized mark never
    consults partner flags — only the CENTRE's own flag gates the
    group), so the replay is a single gated fold: off/on masks per
    centre are precomputed relationally, then list_reduce applies them
    in rid order, skipping a centre whose own bit is already set."""
    import math

    from ..core.features import POINTS_CTE

    q = float(1.0 / SCALE)
    p2 = float(max_dist * max_dist)
    thr = math.tan(math.radians(max_slope))
    return f"""
WITH {POINTS_CTE},
las AS MATERIALIZED (
  SELECT row_number() OVER (ORDER BY rec_id) - 1 AS rid,
         floor(x * {q!r} + 0.5) / {q!r} AS x,
         floor(y * {q!r} + 0.5) / {q!r} AS y,
         floor(z * {q!r} + 0.5) / {q!r} AS z
  FROM pts),
n1 AS (SELECT COUNT(*) AS n FROM las),
mk AS (
  SELECT a.rid AS a,
         CASE WHEN a.z > b.z THEN a.rid ELSE b.rid END AS tgt
  FROM las a JOIN las b
    ON (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y) > 0.0
   AND (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y) <= {p2!r}
  WHERE abs(a.z - b.z)
        / sqrt((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y))
        > {thr!r}
    AND abs(a.z - b.z) > 0.15),
msk AS MATERIALIZED (
  SELECT g.a,
         list(t.tgt IS NOT NULL ORDER BY i.i) AS m
  FROM (SELECT DISTINCT a FROM mk) g
  CROSS JOIN (SELECT unnest(range(0, (SELECT n FROM n1))) AS i) i
  LEFT JOIN (SELECT DISTINCT a, tgt FROM mk) t
    ON t.a = g.a AND t.tgt = i.i
  GROUP BY g.a),
fold AS (
  SELECT list_reduce(
    [struct_pack(a := CAST(-1 AS BIGINT),
       m := list_transform(range(0, (SELECT n FROM n1)), i -> FALSE))] ||
    (SELECT list(struct_pack(a := a, m := m) ORDER BY a) FROM msk),
    (acc, s) -> struct_pack(a := s.a,
      m := CASE WHEN acc.m[s.a + 1] THEN acc.m
           ELSE list_transform(list_zip(acc.m, s.m),
                               zz -> zz[1] OR zz[2]) END)).m AS off),
agg AS (
  SELECT length(list_filter(off, v -> v)) AS n_off,
         coalesce(list_sum(list_transform(
           range(1, length(off) + 1),
           i -> CASE WHEN off[i] THEN i - 1 ELSE 0 END)), 0) AS s
  FROM fold)
SELECT CAST(n1.n AS BIGINT) AS n_points,
       CAST(n1.n - agg.n_off AS BIGINT) AS n_ground,
       CAST(agg.n_off AS BIGINT) AS n_off_terrain,
       CAST(agg.s AS BIGINT) AS sum_off_index
FROM n1, agg
"""


def _lidar_cell_scan_ctes(md2: float, tan_thr: float,
                          resolution: float = 250.0) -> str:
    """Shared CTE chain for the canopy/bare-earth row-major cell scan:
    quantized LAS points, the InterpolationNN-anchored grid, per-cell
    candidate lists ordered (d², rid), one recursive-CTE step per
    (cell, i) of the pair scan — state = the nonground mask — and the
    per-cell post-scan mask snapshot. The i-level skip is gated ONCE at
    step entry (matching the replay: a centre marked during its own j
    loop keeps scanning), the j-level skip re-reads the evolving mask
    inside the nested fold."""
    q = float(1.0 / SCALE)
    res = float(resolution)
    half = res / 2.0
    return f"""
las AS MATERIALIZED (
  SELECT row_number() OVER (ORDER BY rec_id) - 1 AS rid,
         floor(x * {q!r} + 0.5) / {q!r} AS x,
         floor(y * {q!r} + 0.5) / {q!r} AS y,
         floor(z * {q!r} + 0.5) / {q!r} AS z
  FROM pts),
n1 AS (SELECT COUNT(*) AS n FROM las),
grid AS (
  SELECT (MIN(x) - {0.5 * res!r}) AS west,
         (MAX(y) + {0.5 * res!r}) AS north,
         CAST(ceil(((MAX(y) + {0.5 * res!r}) - MIN(y)) / {res!r})
              AS BIGINT) AS nrows,
         CAST(ceil((MAX(x) - (MIN(x) - {0.5 * res!r})) / {res!r})
              AS BIGINT) AS ncols
  FROM las),
cells AS (
  SELECT u.cell,
         g.west + {half!r} + (u.cell % g.ncols) * {res!r} AS cx,
         g.north - {half!r} - (u.cell // g.ncols) * {res!r} AS cy
  FROM grid g,
       (SELECT unnest(range(0, (SELECT nrows * ncols FROM grid)))
          AS cell) u),
cand AS MATERIALIZED (
  SELECT c.cell, l.rid, l.x, l.y, l.z,
         (c.cx - l.x) * (c.cx - l.x) + (c.cy - l.y) * (c.cy - l.y) AS d2
  FROM cells c JOIN las l
    ON (c.cx - l.x) * (c.cx - l.x) + (c.cy - l.y) * (c.cy - l.y)
       <= {md2!r}),
candl AS MATERIALIZED (
  SELECT cell, COUNT(*) AS k,
         list(struct_pack(rid := rid, x := x, y := y, z := z, d2 := d2)
              ORDER BY d2, rid) AS cl
  FROM cand GROUP BY cell),
steps AS MATERIALIZED (
  SELECT row_number() OVER (ORDER BY c.cell, u.i) AS sn,
         c.cell, u.i,
         c.cl[u.i].rid AS arid, c.cl[u.i].x AS ax,
         c.cl[u.i].y AS ay, c.cl[u.i].z AS az,
         list_slice(c.cl, u.i + 1, c.k) AS rest
  FROM candl c,
       LATERAL (SELECT unnest(range(1, c.k)) AS i) u
  WHERE c.k >= 2),
rec AS (
  SELECT CAST(0 AS BIGINT) AS sn,
         list_transform(range(0, (SELECT n FROM n1)), i -> FALSE) AS m
  UNION ALL
  SELECT s.sn,
    CASE WHEN r.m[s.arid + 1] THEN r.m
    ELSE list_reduce(
      [struct_pack(m := r.m, rid := CAST(-1 AS BIGINT),
                   px := 0.0, py := 0.0, pz := 0.0)] ||
      list_transform(s.rest, c -> struct_pack(
        m := CAST([] AS BOOLEAN[]), rid := c.rid,
        px := c.x, py := c.y, pz := c.z)),
      (a, c) -> struct_pack(
        m := CASE
          WHEN a.m[c.rid + 1] THEN a.m
          WHEN (CASE WHEN sqrt((s.ax - c.px) * (s.ax - c.px)
                              + (s.ay - c.py) * (s.ay - c.py)) = 0.0
                THEN abs(s.az - c.pz) <> 0.0
                ELSE abs(s.az - c.pz)
                     / sqrt((s.ax - c.px) * (s.ax - c.px)
                            + (s.ay - c.py) * (s.ay - c.py))
                     > {tan_thr!r} END)
          THEN list_slice(a.m, 1,
                 CASE WHEN s.az > c.pz THEN s.arid ELSE c.rid END)
               || [TRUE] ||
               list_slice(a.m,
                 CASE WHEN s.az > c.pz THEN s.arid ELSE c.rid END + 2,
                 length(a.m))
          ELSE a.m END,
        rid := c.rid, px := c.px, py := c.py, pz := c.pz)).m
    END
  FROM rec r JOIN steps s ON s.sn = r.sn + 1),
snap AS MATERIALIZED (
  SELECT t.cell, r.m
  FROM (SELECT cell, MAX(sn) AS sn FROM steps GROUP BY cell) t
  JOIN rec r ON r.sn = t.sn)"""


def lidar_canopy_model_sql(resolution: float = 250.0,
                           min_height: float = 2.0,
                           max_slope: float = 30.0) -> str:
    """Exact replay oracle for lidar_canopy_model: the shared cell-scan
    state machine, then per k≥2 cell (from its own post-scan snapshot)
    z = first surviving candidate in (d², rid) order, CHM = max marked
    z − z when > minHeight; per-row counts and a 6-dp row sum."""
    import math

    from ..core.features import POINTS_CTE

    md2 = (math.sqrt(2.0) * resolution / 2.0) ** 2
    tan_thr = math.tan(math.radians(max_slope))
    return f"""
WITH RECURSIVE {POINTS_CTE},
{_lidar_cell_scan_ctes(md2, tan_thr, resolution)},
surv AS (
  SELECT c.cell,
         list_filter(c.cl, s -> NOT snap.m[s.rid + 1])[1].z AS z,
         list_max(list_transform(
           list_filter(c.cl, s -> snap.m[s.rid + 1]),
           s -> s.z)) AS mh
  FROM candl c JOIN snap ON snap.cell = c.cell
  WHERE c.k >= 2),
chm AS (
  SELECT cell, mh - z AS val FROM surv
  WHERE z IS NOT NULL AND mh IS NOT NULL AND mh - z > {min_height!r}),
rows_ AS (
  SELECT unnest(range(0, COALESCE((SELECT nrows FROM grid), 1))) AS row_id)
SELECT r.row_id,
       CAST(COUNT(c.val) AS BIGINT) AS n_chm,
       round(coalesce(SUM(c.val), 0.0), 6) AS row_sum
FROM rows_ r
LEFT JOIN (SELECT cell // (SELECT ncols FROM grid) AS rr, val
           FROM chm) c ON c.rr = r.row_id
GROUP BY r.row_id ORDER BY r.row_id
"""


def lidar_bare_earth_dem_sql(resolution: float = 250.0,
                             max_dist: float = 260.0,
                             weight: float = 2.0,
                             max_slope: float = 30.0) -> str:
    """Exact replay oracle for lidar_bare_earth_dem (scan-angle marking
    disabled at the query's default maxScanAngleDeviation ≥ 90): the
    shared cell-scan state machine, then per-cell IDW over surviving
    candidates replayed as ordered folds — sum_w accumulated in (d²,
    rid) order, then Σ (wᵢ·vᵢ)/sum_w in the same order (the literal
    sequential semantics); exactly one candidate → its z regardless of
    flags; an exact hit is necessarily the first surviving candidate
    (d² = 0 sorts first) → its z."""
    import math

    from ..core.features import POINTS_CTE

    md2 = float(max_dist * max_dist)
    tan_thr = math.tan(math.radians(max_slope))
    return f"""
WITH RECURSIVE {POINTS_CTE},
{_lidar_cell_scan_ctes(md2, tan_thr, resolution)},
sv AS (
  SELECT c.cell,
         list_filter(c.cl, s -> NOT snap.m[s.rid + 1]) AS sl
  FROM candl c JOIN snap ON snap.cell = c.cell
  WHERE c.k >= 2),
dem2 AS (
  SELECT cell,
    CASE WHEN sl[1].d2 = 0.0 THEN sl[1].z
    ELSE list_reduce([0.0] ||
      list_transform(sl, s ->
        (1.0 / power(sqrt(s.d2), {weight!r}) * s.z)
        / list_reduce([0.0] || list_transform(sl, s2 ->
            1.0 / power(sqrt(s2.d2), {weight!r})), (a, b) -> a + b)),
      (a, b) -> a + b) END AS val
  FROM sv WHERE length(sl) > 0),
dem1 AS (
  SELECT cell, cl[1].z AS val FROM candl WHERE k = 1),
dem AS (SELECT * FROM dem1 UNION ALL SELECT * FROM dem2),
rows_ AS (
  SELECT unnest(range(0, COALESCE((SELECT nrows FROM grid), 1))) AS row_id)
SELECT r.row_id,
       CAST(COUNT(c.val) AS BIGINT) AS n_valid,
       round(coalesce(SUM(c.val), 0.0), 6) AS row_sum
FROM rows_ r
LEFT JOIN (SELECT cell // (SELECT ncols FROM grid) AS rr, val
           FROM dem) c ON c.rr = r.row_id
GROUP BY r.row_id ORDER BY r.row_id
"""


def lidar_canopy_model(sf_dir: str, resolution: float = 250.0,
                       min_height: float = 2.0, max_slope: float = 30.0,
                       round_to: int = 6) -> pd.DataFrame:
    """LiDAR_CanopyModel (WhiteboxGIS/resources/plugins/Scripts/
    LiDAR_CanopyModel.groovy:313-430): grid per the InterpolationNN
    anchoring; per cell (ROW-MAJOR, sharing ONE nonground bit array
    across all cells) the in-range points (radius √2·res/2, inclusive)
    are pair-scanned — an already-marked point is skipped as either
    pair end — and the HIGHER point of any pair with
    atan(Δz/dist) > maxSlope is marked nonground; then z = the nearest
    surviving ground point's value and CHM = maxNonground − z when
    that exceeds minHeight. Coincident pairs follow Java float
    semantics (Δz/0 → ∞ → marked; 0/0 → NaN → not marked).

    DOCUMENTED DEVIATION: the reference enumerates range results in
    KdTree traversal order (a structure artifact); we substitute the
    deterministic (d², point index) ascending order — the same
    substitution rule as the repo's other KdTree-order cases — and the
    mirror test uses the identical order.

    Distributed shape (replaces a broadcast-all-points dense scan):
    the neighbour-cell duplication shuffle (``stages/knn.py``
    plan, pitch = the √2·res/2 radius); each ``util.combine`` group
    extracts its cells' compact candidate lists — (d², point index)
    ascending, candidate x/y/z travelling WITH the row so the replay
    needs no global arrays — then a driver replay of the literal
    row-major mutation over the compact table (the isobasin
    compact-replay pattern; O(points·density), never the cloud).
    Rows-only."""
    import math

    import ray.data as rd


    NODATA = -32768.0
    pts_ds = read_las(synth_las_path(sf_dir), with_index=True)
    n_points = read_las_header(synth_las_path(sf_dir)).n_points
    minx, miny, maxx, maxy = las_extent(pts_ds)
    west = minx - 0.5 * resolution
    north = maxy + 0.5 * resolution
    nrows = int(math.ceil((north - miny) / resolution))
    ncols = int(math.ceil((maxx - west) / resolution))
    max_dist = math.sqrt(2.0) * resolution / 2.0
    md2 = max_dist * max_dist
    half = resolution / 2.0
    pitch = max_dist
    band_rows = 8
    n_bands = math.ceil(nrows / band_rows)

    def emit_cells(batch) -> pd.DataFrame:
        frames = []
        for b in batch["id"]:
            r0 = int(b) * band_rows
            r1 = min(r0 + band_rows, nrows)
            r = np.repeat(np.arange(r0, r1, dtype=np.int64), ncols)
            c = np.tile(np.arange(ncols, dtype=np.int64), r1 - r0)
            x = west + half + c * resolution
            y = north - half - r * resolution
            gx = np.floor(x / pitch).astype(np.int64)
            gy = np.floor(y / pitch).astype(np.int64)
            frames.append(pd.DataFrame({
                "gkey": gx * 1_000_003 + gy,
                "role": np.zeros(len(r), dtype=np.int64),
                "rid": r * ncols + c, "x": x, "y": y,
                "z": np.zeros(len(r))}))
        return pd.concat(frames, ignore_index=True)

    cells = rd.range(n_bands).map_batches(emit_cells, batch_format="numpy")

    def duplicate(batch) -> pd.DataFrame:
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        z = np.asarray(batch["z"], dtype=np.float64)
        rid = np.asarray(batch["index"], dtype=np.int64)
        gx0 = np.floor(x / pitch).astype(np.int64)
        gy0 = np.floor(y / pitch).astype(np.int64)
        out = {k: [] for k in ("gkey", "role", "rid", "x", "y", "z")}
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                tgx, tgy = gx0 + dx, gy0 + dy
                bx0, bx1 = tgx * pitch, (tgx + 1) * pitch
                by0, by1 = tgy * pitch, (tgy + 1) * pitch
                ddx = np.maximum(np.maximum(bx0 - x, x - bx1), 0.0)
                ddy = np.maximum(np.maximum(by0 - y, y - by1), 0.0)
                m = (ddx * ddx + ddy * ddy) <= md2   # radius INCLUSIVE
                if not m.any():
                    continue
                out["gkey"].append(tgx[m] * 1_000_003 + tgy[m])
                out["role"].append(np.ones(int(m.sum()), dtype=np.int64))
                out["rid"].append(rid[m])
                out["x"].append(x[m]); out["y"].append(y[m])
                out["z"].append(z[m])
        if not out["gkey"]:
            return pd.DataFrame({k: np.array([], dtype=np.int64
                                 if k in ("gkey", "role", "rid")
                                 else np.float64) for k in out})
        return pd.DataFrame({k: np.concatenate(v) for k, v in out.items()})

    def per_cell_group(g: pd.DataFrame) -> pd.DataFrame:
        qs = g[g["role"] == 0]
        ps = g[g["role"] == 1]
        rows = []
        if len(qs) and len(ps):
            px = ps["x"].to_numpy(); py = ps["y"].to_numpy()
            pz = ps["z"].to_numpy(); pidx = ps["rid"].to_numpy()
            for xx, yy, cid in zip(qs["x"].to_numpy(),
                                   qs["y"].to_numpy(),
                                   qs["rid"].to_numpy()):
                d2 = (xx - px) ** 2 + (yy - py) ** 2
                m = d2 <= md2
                sel = np.flatnonzero(m)
                if len(sel) == 0:
                    continue
                order = np.lexsort((pidx[sel], d2[sel]))
                sel = sel[order]
                rows.append({"cell": int(cid),
                             "idx": pidx[sel].tobytes(),
                             "d2": d2[sel].tobytes(),
                             "cx": px[sel].tobytes(),
                             "cy": py[sel].tobytes(),
                             "cz": pz[sel].tobytes()})
        return pd.DataFrame(rows) if rows else pd.DataFrame(
            {"cell": pd.Series([], dtype="int64"),
             "idx": pd.Series([], dtype=object),
             "d2": pd.Series([], dtype=object),
             "cx": pd.Series([], dtype=object),
             "cy": pd.Series([], dtype=object),
             "cz": pd.Series([], dtype=object)})

    cand = combine(
        cells.union(pts_ds.map_batches(duplicate, batch_format="numpy")),
        "gkey", groupwise_combine(per_cell_group, "gkey")).to_pandas()
    cand = (cand.sort_values("cell") if len(cand)
            else pd.DataFrame({"cell": pd.Series([], dtype="int64")}))

    # atan(dv/dist) > thr ⟺ dv/dist > tan(thr) for thr ∈ (0, π/2) —
    # the division-compare form (same substitution as
    # isolate_ground_points) keeps the SQL oracle transcendental-free;
    # dist is sqrt(dx²+dy²) (not hypot) for the same bit-exactness.
    tan_thr = math.tan(math.radians(max_slope))
    nonground = np.zeros(n_points, dtype=bool)
    chm = {}
    for rec in cand.itertuples():
        idx = np.frombuffer(rec.idx, dtype=np.int64)
        d2c = np.frombuffer(rec.d2)
        cx = np.frombuffer(rec.cx)
        cy = np.frombuffer(rec.cy)
        cz = np.frombuffer(rec.cz)
        if len(idx) <= 1:
            continue
        n = len(idx)
        for i in range(n - 1):
            a = idx[i]
            if nonground[a]:
                continue
            for j in range(i + 1, n):
                bq = idx[j]
                if nonground[bq]:
                    continue
                dxx = cx[i] - cx[j]
                dyy = cy[i] - cy[j]
                dist = math.sqrt(dxx * dxx + dyy * dyy)
                if cz[i] > cz[j]:
                    hi, dv = a, cz[i] - cz[j]
                else:
                    hi, dv = bq, cz[j] - cz[i]
                if dist == 0.0:
                    if dv == 0.0:
                        continue        # 0/0 → NaN → no mark
                    nonground[hi] = True    # Δz/0 → ∞ → marked
                elif dv / dist > tan_thr:
                    nonground[hi] = True
        z = NODATA
        min_d = np.inf
        max_h = -np.inf
        for i in range(n):
            a = idx[i]
            if not nonground[a]:
                if d2c[i] < min_d:
                    min_d = d2c[i]
                    z = cz[i]
            else:
                if cz[i] > max_h:
                    max_h = cz[i]
        if z != NODATA and max_h > -np.inf and max_h - z > min_height:
            chm[int(rec.cell)] = max_h - z

    out = []
    for r in range(nrows):
        vals = [v for c, v in chm.items() if c // ncols == r]
        out.append({"row_id": r, "n_chm": len(vals),
                    "row_sum": round(float(sum(vals)), round_to)})
    return pd.DataFrame(out)


def lidar_segmentation_weights(sf_dir: str, search_dist: float = 300.0,
                               round_to: int = 6) -> pd.DataFrame:
    """LiDAR_segmentation (LidarTools/src/plugins/LiDAR_segmentation
    .java): the tool ships HALF-DISABLED — the seeding loop that drives
    ``scanNeighbours`` region growing is fully commented out
    (:386-430, like RTree/ISODATA/LocalPolynomialInterpolation), so the
    LIVE semantics are the per-point weight pass (:314-339):
    maxDownwardAngle = z − min(z, min z of OTHER points within
    searchDist) (the ``minSlope = z`` floor at :318 means no-neighbour
    and all-higher-neighbour points get 0), and
    w = 0 when mda > thr else 1 − mda/thr with
    thr = searchDist·tan(65°) (:312). Radius is the RAW searchDist
    (KdTree squares internally), inclusive.

    Distributed: the cell-duplication within-distance self-join keyed
    by the searchDist grid (the kNN shuffle); per-group vectorized min.
    Exact SQL oracle. Output (rec_id, mda, w) per LAS point."""
    import math

    import ray
    import ray.data as rd

    p2 = search_dist * search_dist
    thr = search_dist * math.tan(math.radians(65.0))
    pts_ds = read_las(synth_las_path(sf_dir), with_index=True)

    def emit(batch) -> pd.DataFrame:
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        z = np.asarray(batch["z"], dtype=np.float64)
        i0 = np.asarray(batch["intensity"], dtype=np.int64)
        gx0 = np.floor(x / search_dist).astype(np.int64)
        gy0 = np.floor(y / search_dist).astype(np.int64)
        out = {k: [] for k in ("gkey", "role", "rid", "x", "y", "z")}
        rid = np.asarray(batch["index"], dtype=np.int64)
        out["gkey"].append(gx0 * 1_000_003 + gy0)
        out["role"].append(np.zeros(len(x), dtype=np.int64))
        out["rid"].append(rid)
        out["x"].append(x); out["y"].append(y); out["z"].append(z)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                tgx, tgy = gx0 + dx, gy0 + dy
                bx0, bx1 = tgx * search_dist, (tgx + 1) * search_dist
                by0, by1 = tgy * search_dist, (tgy + 1) * search_dist
                ddx = np.maximum(np.maximum(bx0 - x, x - bx1), 0.0)
                ddy = np.maximum(np.maximum(by0 - y, y - by1), 0.0)
                m = (ddx * ddx + ddy * ddy) <= p2
                if not m.any():
                    continue
                out["gkey"].append(tgx[m] * 1_000_003 + tgy[m])
                out["role"].append(np.ones(int(m.sum()), dtype=np.int64))
                out["rid"].append(rid[m])
                out["x"].append(x[m]); out["y"].append(y[m])
                out["z"].append(z[m])
        return pd.DataFrame({k: np.concatenate(v) for k, v in out.items()})

    def per_cell(g: pd.DataFrame) -> pd.DataFrame:
        qs = g[g["role"] == 0]
        ps = g[g["role"] == 1]
        if len(qs) == 0:
            return pd.DataFrame({"rec_id": pd.Series([], dtype="int64"),
                                 "mda": pd.Series([], dtype="float64"),
                                 "w": pd.Series([], dtype="float64")})
        d2 = ((qs["x"].to_numpy()[:, None] - ps["x"].to_numpy()) ** 2
              + (qs["y"].to_numpy()[:, None] - ps["y"].to_numpy()) ** 2)
        other = qs["rid"].to_numpy()[:, None] != ps["rid"].to_numpy()
        inr = other & (d2 <= p2)
        zq = qs["z"].to_numpy()
        zn = np.where(inr, ps["z"].to_numpy()[None, :], np.inf)
        minz = np.minimum(zn.min(axis=1), zq)   # the minSlope = z floor
        mda = zq - minz
        w = np.where(mda > thr, 0.0, 1.0 - mda / thr)
        return pd.DataFrame({"rec_id": qs["rid"].to_numpy(),
                             "mda": np.round(mda, round_to),
                             "w": np.round(w, round_to)})

    out = combine(pts_ds.map_batches(emit, batch_format="pandas"),
                  "gkey", groupwise_combine(per_cell, "gkey")).to_pandas()
    if len(out) == 0:       # empty cloud -> typed empty weights
        return pd.DataFrame({"rec_id": pd.Series([], dtype="int64"),
                             "mda": pd.Series([], dtype="float64"),
                             "w": pd.Series([], dtype="float64")})
    return out.sort_values("rec_id").reset_index(drop=True)


def lidar_segmentation_weights_sql(search_dist: float = 300.0) -> str:
    import math

    from ..core.features import POINTS_CTE
    q = float(1.0 / SCALE)
    p2 = search_dist * search_dist
    thr = search_dist * math.tan(math.radians(65.0))
    return f"""
WITH {POINTS_CTE},
las AS (
  SELECT row_number() OVER (ORDER BY rec_id) - 1 AS rid,
         floor(x * {q!r} + 0.5) / {q!r} AS x,
         floor(y * {q!r} + 0.5) / {q!r} AS y,
         floor(z * {q!r} + 0.5) / {q!r} AS z
  FROM pts),
nb AS (SELECT a.rid, a.z,
              MIN(b.z) AS minz
       FROM las a JOIN las b
         ON a.rid <> b.rid
        AND (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y)
            <= {p2!r}
       GROUP BY a.rid, a.z),
m AS (SELECT a.rid,
             a.z - LEAST(COALESCE(nb.minz, a.z), a.z) AS mda
      FROM las a LEFT JOIN nb ON nb.rid = a.rid)
SELECT rid AS rec_id, round(mda, 6) AS mda,
       round(CASE WHEN mda > {thr!r} THEN 0.0
                  ELSE 1.0 - mda / {thr!r} END, 6) AS w
FROM m ORDER BY rec_id
"""


def lidar_bare_earth_dem(sf_dir: str, resolution: float = 250.0,
                         max_dist: float = 260.0, weight: float = 2.0,
                         max_slope: float = 30.0,
                         max_scan_angle_dev: float = 1000.0,
                         round_to: int = 6) -> pd.DataFrame:
    """LiDAR_BareEarthDEM (WhiteboxGIS/resources/plugins/Scripts/
    LiDAR_BareEarthDEM.groovy:330-470): per cell (ROW-MAJOR, one
    nonground bit array shared across cells): range-query maxDist
    (raw value, inclusive); optional scan-angle-deviation marking when
    maxScanAngleDeviation < 90; pair-scan marking the HIGHER point of
    any pair with atan(Δz/dist) > maxSlope (no zero-distance guard:
    Δz/0 → ∞ → marked, 0/0 → NaN → not); then IDW over surviving
    ground points with w = 1/√d²ʷᵉⁱᵍʰᵗ, exact-hit short-circuit, and
    the literal ``z += w·v / sumW`` sequential accumulation; exactly
    ONE in-range point → that point's value regardless of its flag;
    none → NoData. KdTree enumeration order substituted by the
    deterministic (d², index) ascending rule (the repo's documented
    KdTree-order substitution; same as lidar_canopy_model).

    Distributed shape: the canopy cell-duplication shuffle — per-group
    compact candidate lists (idx, d², x, y, z, scan_angle travelling
    with the row), driver replay of the row-major mutation over the
    compact table. Output per-row (row_id, n_valid, row_sum);
    rows-only, mirror-tested."""
    import math

    import ray.data as rd


    NODATA = -32768.0
    pts_ds = read_las(synth_las_path(sf_dir), with_index=True)
    n_points = read_las_header(synth_las_path(sf_dir)).n_points
    minx, miny, maxx, maxy = las_extent(pts_ds)
    west = minx - 0.5 * resolution
    north = maxy + 0.5 * resolution
    nrows = int(math.ceil((north - miny) / resolution))
    ncols = int(math.ceil((maxx - west) / resolution))
    md2 = max_dist * max_dist
    half = resolution / 2.0
    pitch = max_dist
    band_rows = 8
    n_bands = math.ceil(nrows / band_rows)

    def emit_cells(batch) -> pd.DataFrame:
        frames = []
        for b in batch["id"]:
            r0 = int(b) * band_rows
            r1 = min(r0 + band_rows, nrows)
            r = np.repeat(np.arange(r0, r1, dtype=np.int64), ncols)
            c = np.tile(np.arange(ncols, dtype=np.int64), r1 - r0)
            x = west + half + c * resolution
            y = north - half - r * resolution
            gx = np.floor(x / pitch).astype(np.int64)
            gy = np.floor(y / pitch).astype(np.int64)
            frames.append(pd.DataFrame({
                "gkey": gx * 1_000_003 + gy,
                "role": np.zeros(len(r), dtype=np.int64),
                "rid": r * ncols + c, "x": x, "y": y,
                "z": np.zeros(len(r)), "sa": np.zeros(len(r),
                                                      dtype=np.int64)}))
        return pd.concat(frames, ignore_index=True)

    cells = rd.range(n_bands).map_batches(emit_cells, batch_format="numpy")

    def duplicate(batch) -> pd.DataFrame:
        x = np.asarray(batch["x"], dtype=np.float64)
        y = np.asarray(batch["y"], dtype=np.float64)
        z = np.asarray(batch["z"], dtype=np.float64)
        sa = np.asarray(batch["scan_angle"], dtype=np.int64)
        rid = np.asarray(batch["index"], dtype=np.int64)
        gx0 = np.floor(x / pitch).astype(np.int64)
        gy0 = np.floor(y / pitch).astype(np.int64)
        out = {k: [] for k in ("gkey", "role", "rid", "x", "y", "z", "sa")}
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                tgx, tgy = gx0 + dx, gy0 + dy
                bx0, bx1 = tgx * pitch, (tgx + 1) * pitch
                by0, by1 = tgy * pitch, (tgy + 1) * pitch
                ddx = np.maximum(np.maximum(bx0 - x, x - bx1), 0.0)
                ddy = np.maximum(np.maximum(by0 - y, y - by1), 0.0)
                m = (ddx * ddx + ddy * ddy) <= md2
                if not m.any():
                    continue
                out["gkey"].append(tgx[m] * 1_000_003 + tgy[m])
                out["role"].append(np.ones(int(m.sum()), dtype=np.int64))
                out["rid"].append(rid[m])
                out["x"].append(x[m]); out["y"].append(y[m])
                out["z"].append(z[m]); out["sa"].append(sa[m])
        if not out["gkey"]:
            return pd.DataFrame({k: np.array([], dtype=np.float64
                                 if k in ("x", "y", "z")
                                 else np.int64) for k in out})
        return pd.DataFrame({k: np.concatenate(v) for k, v in out.items()})

    def per_cell_group(g: pd.DataFrame) -> pd.DataFrame:
        qs = g[g["role"] == 0]
        ps = g[g["role"] == 1]
        rows = []
        if len(qs) and len(ps):
            px = ps["x"].to_numpy(); py = ps["y"].to_numpy()
            pz = ps["z"].to_numpy(); pidx = ps["rid"].to_numpy()
            psa = ps["sa"].to_numpy()
            for xx, yy, cid in zip(qs["x"].to_numpy(),
                                   qs["y"].to_numpy(),
                                   qs["rid"].to_numpy()):
                d2 = (xx - px) ** 2 + (yy - py) ** 2
                m = d2 <= md2
                sel = np.flatnonzero(m)
                if len(sel) == 0:
                    continue
                order = np.lexsort((pidx[sel], d2[sel]))
                sel = sel[order]
                rows.append({"cell": int(cid),
                             "idx": pidx[sel].tobytes(),
                             "d2": d2[sel].tobytes(),
                             "cx": px[sel].tobytes(),
                             "cy": py[sel].tobytes(),
                             "cz": pz[sel].tobytes(),
                             "csa": psa[sel].tobytes()})
        cols = ("cell", "idx", "d2", "cx", "cy", "cz", "csa")
        return pd.DataFrame(rows) if rows else pd.DataFrame(
            {c: pd.Series([], dtype="int64" if c == "cell" else object)
             for c in cols})

    cand = combine(
        cells.union(pts_ds.map_batches(duplicate, batch_format="numpy")),
        "gkey", groupwise_combine(per_cell_group, "gkey")).to_pandas()
    cand = (cand.sort_values("cell") if len(cand)
            else pd.DataFrame({"cell": pd.Series([], dtype="int64")}))

    # same transcendental-free substitutions as lidar_canopy_model
    tan_thr = math.tan(math.radians(max_slope))
    nonground = np.zeros(n_points, dtype=bool)
    dem: dict[int, float] = {}
    for rec in cand.itertuples():
        idx = np.frombuffer(rec.idx, dtype=np.int64)
        d2c = np.frombuffer(rec.d2)
        cx = np.frombuffer(rec.cx)
        cy = np.frombuffer(rec.cy)
        cz = np.frombuffer(rec.cz)
        csa = np.frombuffer(rec.csa, dtype=np.int64)
        n = len(idx)
        if n == 1:
            dem[int(rec.cell)] = float(cz[0])   # flag ignored (:468)
            continue
        if max_scan_angle_dev < 90.0:
            mn, mx = csa.min(), csa.max()
            for i in range(n):
                if csa[i] - mn > max_scan_angle_dev:
                    nonground[idx[i]] = True
        for i in range(n - 1):
            if nonground[idx[i]]:
                continue
            for j in range(i + 1, n):
                if nonground[idx[j]]:
                    continue
                dxx = cx[i] - cx[j]
                dyy = cy[i] - cy[j]
                dist = math.sqrt(dxx * dxx + dyy * dyy)
                if cz[i] > cz[j]:
                    hi, dv = idx[i], cz[i] - cz[j]
                else:
                    hi, dv = idx[j], cz[j] - cz[i]
                if dist == 0.0:
                    if dv == 0.0:
                        continue            # 0/0 → NaN → no mark
                    nonground[hi] = True    # Δz/0 → ∞ → marked
                elif dv / dist > tan_thr:
                    nonground[hi] = True
        # IDW over surviving points, literal sequential semantics
        weights: list[float] = []
        vals: list[float] = []
        sum_w = 0.0
        cnt = 0
        for i in range(n):
            if nonground[idx[i]]:
                continue
            if d2c[i] > 0:
                w = 1.0 / math.sqrt(d2c[i]) ** weight
                weights.append(w)
                sum_w += w
                vals.append(cz[i])
                cnt += 1
            else:                           # exact hit short-circuit
                weights = [1.0]
                sum_w += 1.0
                vals = [cz[i]]
                cnt = 1
                break
        if cnt > 0:
            zv = 0.0
            for s_ in range(cnt):
                zv += (weights[s_] * vals[s_]) / sum_w
            dem[int(rec.cell)] = zv

    out = []
    for r in range(nrows):
        vals_r = [v for cc, v in dem.items() if cc // ncols == r]
        out.append({"row_id": r, "n_valid": len(vals_r),
                    "row_sum": round(float(sum(vals_r)), round_to)})
    return pd.DataFrame(out)
