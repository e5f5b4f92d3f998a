"""Grid-format importers/exporters → the engine's tile Dataset model.

Formats studied from the reference (semantics only, no code reuse):

- ESRI ASCII grid — ImportExport/src/plugins/ImportArcAsciiGrid.java:286-313
  (ncols/nrows/xllcorner|xllcenter/yllcorner/cellsize/nodata_value; corner
  vs centre registration math at :300-311; foreign NoData remapped to the
  Whitebox sentinel -32768).
- GRASS ASCII grid — ImportGRASSAsciiGrid.java:289-302
  (north/south/east/west/rows/cols header lines, top-down rows).
- Surfer ASCII .grd — ImportSurferAsciiGrid.java:261-276 (DSAA magic; line 2
  = "cols rows", line 3 = "west east", line 4 = "south north", line 5 =
  z-range; DATA ROWS ARE BOTTOM-UP: the reference starts writing at
  row = rows-1). Surfer blanks (>= 1.70141e38) become NoData.
- SRTM .hgt — ImportSRTM.java:247-324 (grid size inferred from file length:
  3601x3601 (SRTM-1) or 1201x1201 (SRTM-3); big-endian int16; the 1-degree
  extent comes from the filename, e.g. N29W089 -> south=29, west=-89).
- IDRISI .rst/.rdc — ImportIDRISIRaster.java:429-463 ("data type"
  byte/integer/real, "columns", "rows", "min. x"/"max. x"/"min. y"/"max. y",
  byte order lsb/msb).
- SAGA .sgrd/.sdat — ImportSagaGrid.java:283-342 (DATAFORMAT,
  BYTEORDER_BIG, POSITION_XMIN/YMIN, CELLCOUNT_X/Y, CELLSIZE, NODATA_VALUE,
  TOPTOBOTTOM; north = south + cellsize*rows at :317-318; bottom-up .sdat
  unless TOPTOBOTTOM is true).

Distributed shape: binary formats (SRTM/IDRISI/SAGA) decode INSIDE Ray
tasks via byte-range reads, one task per row band — intra-file parallel,
driver never holds the grid. Text formats are sequential by nature; they
decode whole-file inside a single Ray task per file (per-file parallelism,
the reference's own shard unit for e.g. SRTM tile mosaics), then re-block.
All cell values surface as float64 with the Whitebox -32768 NoData
sentinel, matching raster_io's tile schema (tile_id:int64, data:list<f64>).
"""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd

from ..stages.raster import RasterSpec, tile_task
from .raster_io import RasterHeader

WHITEBOX_NODATA = -32768.0
_SURFER_BLANK = 1.70141e38


# ---------------------------------------------------------------- helpers

def _band_frames(grid: np.ndarray, tile_rows: int) -> pd.DataFrame:
    """A decoded (rows, cols) grid as row-band tile rows (tile_id, data)."""
    spec = RasterSpec(rows=grid.shape[0], cols=grid.shape[1],
                      tile_rows=tile_rows)
    return pd.DataFrame({
        "tile_id": range(spec.n_tiles),
        "data": [grid[slice(*spec.band(t))].ravel()
                 for t in range(spec.n_tiles)]})


def _text_grid_dataset(path: str, parse, tile_rows: int):
    """Decode a sequential text grid inside one Ray task, re-blocked."""
    import ray.data as rd

    def load(batch) -> pd.DataFrame:
        with open(path) as f:
            text = f.read()
        return _band_frames(parse(text), tile_rows)

    return rd.range(1).map_batches(load, batch_format="numpy")


_COLLECT_MAX_CELLS = 64_000_000  # ~512 MB float64 — driver budget guard


def _collect_grid(ds, hdr: RasterHeader) -> np.ndarray:
    """Full-grid assembly on the driver — ONLY for exporters whose file
    layout cannot be streamed top-down (Surfer ASCII is bottom-up with
    variable-width text rows). Guarded: rasters beyond the driver budget
    raise instead of silently OOMing; every other exporter streams via
    :func:`raster_io.iter_tiles_ordered`."""
    if hdr.rows * hdr.cols > _COLLECT_MAX_CELLS:
        raise ValueError(
            f"raster {hdr.rows}x{hdr.cols} exceeds the driver-side "
            f"assembly budget ({_COLLECT_MAX_CELLS} cells) — use a "
            f"streaming exporter (ArcAscii/GRASS/SRTM/IDRISI/SAGA/"
            f"GeoTIFF) or the partitioned parquet sink for this size")
    from .raster_io import iter_tiles_ordered
    flat = np.concatenate([a for _t, a in iter_tiles_ordered(ds)])
    return flat.reshape(hdr.rows, hdr.cols)


def _binary_band_dataset(path: str, hdr: RasterHeader, dtype: np.dtype,
                         tile_rows: int, bottom_up: bool = False,
                         remap_nodata: float | None = None):
    """Byte-range band reads: one Ray task per row band of the output."""
    itemsize = dtype.itemsize
    rows, cols = hdr.rows, hdr.cols
    spec = RasterSpec(rows=rows, cols=cols, tile_rows=tile_rows)

    def load(tid: int) -> dict:
        r0, r1 = spec.band(tid)
        # output row r lives at source row (rows-1-r) when bottom-up
        src_rows = (np.arange(rows - 1 - (r1 - 1), rows - r0)[::-1]
                    if bottom_up else np.arange(r0, r1))
        lo, hi = int(src_rows.min()), int(src_rows.max()) + 1
        with open(path, "rb") as f:
            f.seek(lo * cols * itemsize)
            raw = f.read((hi - lo) * cols * itemsize)
        block = np.frombuffer(raw, dtype=dtype).reshape(hi - lo, cols)
        a = block[src_rows - lo].astype(np.float64)
        if remap_nodata is not None:
            a[a == remap_nodata] = WHITEBOX_NODATA
        return {"tile_id": [tid], "data": [a.ravel()]}

    return tile_task(spec.n_tiles, load)


# ------------------------------------------------------------- ESRI ASCII

def read_arc_ascii_header(path: str) -> tuple[RasterHeader, float]:
    kv = {}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) == 2 and not _is_number(parts[0]):
                kv[parts[0].lower()] = parts[1]
            else:
                break
    cols, rows = int(kv["ncols"]), int(kv["nrows"])
    cs = float(kv["cellsize"])
    src_nodata = float(kv.get("nodata_value", "-9999"))
    if "xllcorner" in kv:
        west, south = float(kv["xllcorner"]), float(kv["yllcorner"])
    else:  # centre registration (ImportArcAsciiGrid.java:307-311)
        west = float(kv["xllcenter"]) - 0.5 * cs
        south = float(kv["yllcenter"]) - 0.5 * cs
    hdr = RasterHeader(rows=rows, cols=cols, north=south + cs * rows,
                       south=south, east=west + cs * cols, west=west,
                       nodata=WHITEBOX_NODATA)
    return hdr, src_nodata


def import_arc_ascii(path: str, tile_rows: int = 64):
    hdr, src_nodata = read_arc_ascii_header(path)

    def parse(text: str) -> np.ndarray:
        vals = []
        for line in text.splitlines():
            parts = line.split()
            if parts and _is_number(parts[0]):
                vals.extend(parts)
        a = np.asarray(vals, dtype=np.float64)[: hdr.rows * hdr.cols]
        a[a == src_nodata] = WHITEBOX_NODATA
        return a.reshape(hdr.rows, hdr.cols)

    return hdr, _text_grid_dataset(path, parse, tile_rows)


def export_arc_ascii(hdr: RasterHeader, ds, path: str,
                     nodata_out: float = -9999.0) -> None:
    """Streams tiles top-down — O(tile) driver memory at any raster size."""
    from .raster_io import iter_tiles_ordered
    with open(path, "w") as f:
        f.write(f"ncols {hdr.cols}\nnrows {hdr.rows}\n")
        f.write(f"xllcorner {hdr.west}\nyllcorner {hdr.south}\n")
        f.write(f"cellsize {hdr.cell_size_x}\nnodata_value {nodata_out}\n")
        for _tid, a in iter_tiles_ordered(ds):
            block = np.where(a == hdr.nodata, nodata_out,
                             a).reshape(-1, hdr.cols)
            for r in range(block.shape[0]):
                f.write(" ".join(repr(v) for v in block[r]) + "\n")


# ------------------------------------------------------------ GRASS ASCII

def import_grass_ascii(path: str, tile_rows: int = 64):
    kv = {}
    with open(path) as f:
        for line in f:
            k, _, v = line.partition(":")
            if _is_number(k.split()[0] if k.split() else k):
                break
            kv[k.strip().lower()] = v.strip()
    rows, cols = int(kv["rows"]), int(kv["cols"])
    hdr = RasterHeader(rows=rows, cols=cols,
                       north=float(kv["north"]), south=float(kv["south"]),
                       east=float(kv["east"]), west=float(kv["west"]),
                       nodata=WHITEBOX_NODATA)
    null_val = kv.get("null")

    def parse(text: str) -> np.ndarray:
        vals = []
        for line in text.splitlines():
            if ":" in line and not _is_number(line.split(":")[0]):
                continue
            vals.extend(line.split())
        raw = ["nan" if (v == "*" or v == null_val) else v for v in vals]
        a = np.asarray(raw, dtype=np.float64)[: rows * cols]
        a[np.isnan(a)] = WHITEBOX_NODATA
        return a.reshape(rows, cols)

    return hdr, _text_grid_dataset(path, parse, tile_rows)


def export_grass_ascii(hdr: RasterHeader, ds, path: str) -> None:
    """Streams tiles top-down — O(tile) driver memory at any raster size."""
    from .raster_io import iter_tiles_ordered
    with open(path, "w") as f:
        f.write(f"north: {hdr.north}\nsouth: {hdr.south}\n")
        f.write(f"east: {hdr.east}\nwest: {hdr.west}\n")
        f.write(f"rows: {hdr.rows}\ncols: {hdr.cols}\n")
        for _tid, a in iter_tiles_ordered(ds):
            block = a.reshape(-1, hdr.cols)
            for r in range(block.shape[0]):
                f.write(" ".join("*" if v == hdr.nodata else repr(v)
                                 for v in block[r]) + "\n")


# ------------------------------------------------------------ Surfer DSAA

def import_surfer_ascii(path: str, tile_rows: int = 64):
    with open(path) as f:
        magic = f.readline().strip()
        if magic.upper() != "DSAA":
            raise ValueError(f"not a Surfer ASCII grid: {path}")
        cols, rows = (int(x) for x in f.readline().split())
        west, east = (float(x) for x in f.readline().split())
        south, north = (float(x) for x in f.readline().split())
        f.readline()  # z range
    hdr = RasterHeader(rows=rows, cols=cols, north=north, south=south,
                       east=east, west=west, nodata=WHITEBOX_NODATA)

    def parse(text: str) -> np.ndarray:
        lines = text.splitlines()
        vals = []
        for line in lines[5:]:
            vals.extend(line.split())
        a = np.asarray(vals, dtype=np.float64)[: rows * cols]
        a[a >= _SURFER_BLANK] = WHITEBOX_NODATA
        # Surfer stores south row first; engine rows are top-down
        # (ImportSurferAsciiGrid.java starts at row = rows-1).
        return a.reshape(rows, cols)[::-1].copy()

    return hdr, _text_grid_dataset(path, parse, tile_rows)


def export_surfer_ascii(hdr: RasterHeader, ds, path: str) -> None:
    grid = _collect_grid(ds, hdr)
    valid = grid != hdr.nodata
    zlo = float(grid[valid].min()) if valid.any() else 0.0
    zhi = float(grid[valid].max()) if valid.any() else 0.0
    out = np.where(valid, grid, 1.70141e38)
    with open(path, "w") as f:
        f.write("DSAA\n")
        f.write(f"{hdr.cols} {hdr.rows}\n")
        f.write(f"{hdr.west} {hdr.east}\n")
        f.write(f"{hdr.south} {hdr.north}\n")
        f.write(f"{zlo} {zhi}\n")
        for r in range(hdr.rows - 1, -1, -1):  # bottom-up
            f.write(" ".join(repr(v) for v in out[r]) + "\n")


# --------------------------------------------------------------- SRTM hgt

def read_srtm_header(path: str) -> RasterHeader:
    n = os.path.getsize(path)
    if n == 3601 * 3601 * 2:
        rows = cols = 3601
    elif n == 1201 * 1201 * 2:
        rows = cols = 1201
    else:
        raise ValueError(f"unrecognised SRTM file length {n}: {path}")
    m = re.match(r"([NS])(\d+)([EW])(\d+)",
                 os.path.basename(path).split(".")[0].upper())
    if not m:
        raise ValueError(f"SRTM filename must encode corner (N29W089): {path}")
    south = int(m.group(2)) * (1 if m.group(1) == "N" else -1)
    west = int(m.group(4)) * (1 if m.group(3) == "E" else -1)
    return RasterHeader(rows=rows, cols=cols, north=south + 1, south=south,
                        east=west + 1, west=west, data_type="INTEGER",
                        byte_order="BIG_ENDIAN", nodata=WHITEBOX_NODATA)


def import_srtm(path: str, tile_rows: int = 256):
    hdr = read_srtm_header(path)
    return hdr, _binary_band_dataset(path, hdr, np.dtype(">i2"), tile_rows)


def export_srtm(hdr: RasterHeader, ds, path: str) -> None:
    """Streams tiles top-down — O(tile) driver memory at any raster size."""
    from .raster_io import iter_tiles_ordered
    with open(path, "wb") as f:
        for _tid, a in iter_tiles_ordered(ds):
            f.write(a.astype(">i2").tobytes())


# ------------------------------------------------------------- IDRISI rst

_IDRISI_DTYPES = {"byte": "u1", "integer": "<i2", "real": "<f4"}


def read_idrisi_header(rdc_path: str) -> tuple[RasterHeader, np.dtype]:
    kv = {}
    with open(rdc_path) as f:
        for line in f:
            k, _, v = line.partition(":")
            kv[k.strip().lower()] = v.strip()
    dt = kv.get("data type", "real").lower()
    np_dt = next(v for k, v in _IDRISI_DTYPES.items() if k in dt)
    hdr = RasterHeader(
        rows=int(kv["rows"]), cols=int(kv["columns"]),
        north=float(kv["max. y"]), south=float(kv["min. y"]),
        east=float(kv["max. x"]), west=float(kv["min. x"]),
        data_type="FLOAT" if "real" in dt else "INTEGER",
        nodata=WHITEBOX_NODATA)
    src_nodata = float(kv["flag value"]) if _is_number(
        kv.get("flag value", "")) else None
    return hdr, np.dtype(np_dt), src_nodata


def import_idrisi(rst_path: str, tile_rows: int = 64):
    rdc = re.sub(r"\.rst$", ".rdc", rst_path, flags=re.IGNORECASE)
    hdr, dtype, src_nodata = read_idrisi_header(rdc)
    ds = _binary_band_dataset(rst_path, hdr, dtype, tile_rows,
                              remap_nodata=src_nodata)
    return hdr, ds


def export_idrisi(hdr: RasterHeader, ds, rst_path: str,
                  data_type: str = "real") -> None:
    """Streams tiles top-down — O(tile) driver memory at any raster size."""
    from .raster_io import iter_tiles_ordered
    with open(rst_path, "wb") as f:
        for _tid, a in iter_tiles_ordered(ds):
            f.write(a.astype(_IDRISI_DTYPES[data_type]).tobytes())
    rdc = re.sub(r"\.rst$", ".rdc", rst_path, flags=re.IGNORECASE)
    with open(rdc, "w") as f:
        f.write("file format : IDRISI Raster A.1\n")
        f.write(f"data type   : {data_type}\n")
        f.write("file type   : binary\n")
        f.write(f"columns     : {hdr.cols}\nrows        : {hdr.rows}\n")
        f.write(f"min. x      : {hdr.west}\nmax. x      : {hdr.east}\n")
        f.write(f"min. y      : {hdr.south}\nmax. y      : {hdr.north}\n")
        f.write(f"flag value  : {WHITEBOX_NODATA}\n")
        f.write("flag def'n  : missing data\n")


# --------------------------------------------------------------- SAGA sgrd

_SAGA_DTYPES = {"bit": "u1", "byte_unsigned": "u1", "byte": "i1",
                "shortint_unsigned": "u2", "shortint": "i2",
                "integer_unsigned": "u4", "integer": "i4",
                "float": "f4", "double": "f8"}


def read_saga_header(sgrd_path: str):
    kv = {}
    with open(sgrd_path) as f:
        for line in f:
            k, _, v = line.partition("=")
            kv[k.strip().lower()] = v.strip()
    fmt = kv.get("dataformat", "float").lower()
    endian = ">" if kv.get("byteorder_big", "false").lower().startswith(
        "t") else "<"
    # longest-match so "shortint_unsigned" beats "shortint"
    key = max((k for k in _SAGA_DTYPES if k in fmt), key=len)
    dtype = np.dtype(endian + _SAGA_DTYPES[key])
    rows = int(kv["cellcount_y"])
    cols = int(kv["cellcount_x"])
    cs = float(kv["cellsize"])
    west, south = float(kv["position_xmin"]), float(kv["position_ymin"])
    # reference treats POSITION_* as the corner (ImportSagaGrid.java:317-318)
    hdr = RasterHeader(rows=rows, cols=cols, north=south + cs * rows,
                       south=south, east=west + cs * cols, west=west,
                       nodata=WHITEBOX_NODATA)
    top_to_bottom = kv.get("toptobottom", "false").lower().startswith("t")
    src_nodata = float(kv.get("nodata_value", "-99999"))
    return hdr, dtype, top_to_bottom, src_nodata


def import_saga(sgrd_path: str, tile_rows: int = 64):
    hdr, dtype, top_to_bottom, src_nodata = read_saga_header(sgrd_path)
    sdat = re.sub(r"\.sgrd$", ".sdat", sgrd_path, flags=re.IGNORECASE)
    ds = _binary_band_dataset(sdat, hdr, dtype, tile_rows,
                              bottom_up=not top_to_bottom,
                              remap_nodata=src_nodata)
    return hdr, ds


def export_saga(hdr: RasterHeader, ds, sgrd_path: str,
                data_format: str = "float",
                nodata_out: float = -99999.0) -> None:
    """Streams tiles with seek-positioned writes — the .sdat layout is
    bottom-up (south row first) but fixed-width binary, so each engine
    tile's byte offset is computable and the driver never assembles the
    grid: tile rows r0..r1-1 land reversed at file row rows-r1."""
    from .raster_io import iter_tiles_ordered
    sdat = re.sub(r"\.sgrd$", ".sdat", sgrd_path, flags=re.IGNORECASE)
    dt = np.dtype("<" + _SAGA_DTYPES[data_format])
    rows, cols = hdr.rows, hdr.cols
    with open(sdat, "wb") as f:
        f.truncate(rows * cols * dt.itemsize)
        r0 = 0
        for _tid, a in iter_tiles_ordered(ds):
            block = np.where(a == hdr.nodata, nodata_out,
                             a).reshape(-1, cols)
            r1 = r0 + block.shape[0]
            f.seek((rows - r1) * cols * dt.itemsize)
            f.write(block[::-1].astype(dt).tobytes())
            r0 = r1
    with open(sgrd_path, "w") as f:
        f.write("NAME\t= exported\n")
        f.write(f"DATAFORMAT\t= {data_format.upper()}\n")
        f.write("BYTEORDER_BIG\t= FALSE\n")
        f.write(f"POSITION_XMIN\t= {hdr.west}\n")
        f.write(f"POSITION_YMIN\t= {hdr.south}\n")
        f.write(f"CELLCOUNT_X\t= {hdr.cols}\n")
        f.write(f"CELLCOUNT_Y\t= {hdr.rows}\n")
        f.write(f"CELLSIZE\t= {hdr.cell_size_x}\n")
        f.write(f"NODATA_VALUE\t= {nodata_out}\n")
        f.write("TOPTOBOTTOM\t= FALSE\n")


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except (TypeError, ValueError):
        return False
