"""ArcGIS floating-point binary grid (.flt + .hdr) import/export —
ImportArcGrid.java / ExportArcGrid.java actually read/write THIS open
format (the .java docstrings say "ArcGIS Binary Grid (.flt)"; the
proprietary tiled .adf container is not touched by the reference
either). The reference literally copies the .flt bytes as the .tas
payload (ImportArcGrid.java:223-233), i.e. row-major float32, byte
order per header — so import here is per-tile BYTE-RANGE row reads,
the GeoTiff/BMP strip plan.

Header quirks reproduced from createHeaderFile (:300-340): the corner
branch is taken only when xllcorner != 0 (the literal guard), otherwise
the centre branch applies with half-cell shifts."""

from __future__ import annotations

import numpy as np

from ..stages.raster import RasterSpec, tile_task


def write_arc_flt(path_base: str, a: np.ndarray, nodata: float = -9999.0,
                  xllcorner: float = 1.0, yllcorner: float = 1.0,
                  cellsize: float = 1.0, lsb: bool = True) -> None:
    """(H, W) float array → path_base.flt / path_base.hdr."""
    h, w = a.shape
    dt = "<f4" if lsb else ">f4"
    with open(path_base + ".hdr", "w") as f:
        f.write(f"ncols         {w}\n")
        f.write(f"nrows         {h}\n")
        f.write(f"xllcorner     {xllcorner!r}\n")
        f.write(f"yllcorner     {yllcorner!r}\n")
        f.write(f"cellsize      {cellsize!r}\n")
        f.write(f"NODATA_value  {nodata!r}\n")
        f.write(f"byteorder     {'LSBFIRST' if lsb else 'MSBFIRST'}\n")
    np.asarray(a, dtype=np.float64).astype(dt).tofile(path_base + ".flt")


def read_flt_header(path_hdr: str):
    vals = {}
    for line in open(path_hdr):
        parts = line.split()
        if len(parts) >= 2:
            vals[parts[0].lower()] = parts[-1]
    ncols = int(vals["ncols"])
    nrows = int(vals["nrows"])
    cellsize = float(vals["cellsize"])
    nodata = float(vals.get("nodata_value", vals.get("nodata", "-9999")))
    lsb = vals.get("byteorder", "lsbfirst").lower().startswith("lsb")
    xllcorner = float(vals.get("xllcorner", 0.0))
    yllcorner = float(vals.get("yllcorner", 0.0))
    xllcenter = float(vals.get("xllcenter", 0.0))
    yllcenter = float(vals.get("yllcenter", 0.0))
    if xllcorner != 0:           # the reference's literal guard
        west = xllcorner
        south = yllcorner
        east = xllcorner + ncols * cellsize
        north = yllcorner + nrows * cellsize
    else:
        west = xllcenter - 0.5 * cellsize
        south = yllcenter - 0.5 * cellsize
        east = west + ncols * cellsize
        north = south + nrows * cellsize
    return dict(rows=nrows, cols=ncols, nodata=nodata, lsb=lsb,
                north=north, south=south, east=east, west=west,
                cellsize=cellsize)


def import_arc_flt(path_base: str, tile_rows: int = 64):
    """Row-band tiles (tile_id, data float64) via per-tile byte-range
    reads of the .flt payload."""
    hdr = read_flt_header(path_base + ".hdr")
    spec = RasterSpec(rows=hdr["rows"], cols=hdr["cols"], tile_rows=tile_rows)
    dt = np.dtype("<f4" if hdr["lsb"] else ">f4")

    def load(tid: int) -> dict:
        r0, r1 = spec.band(tid)
        with open(path_base + ".flt", "rb") as f:
            f.seek(r0 * spec.cols * 4)
            raw = f.read((r1 - r0) * spec.cols * 4)
        return {"tile_id": [tid],
                "data": [np.frombuffer(raw, dtype=dt).astype(np.float64)]}

    return hdr, tile_task(spec.n_tiles, load)


def arc_flt_roundtrip_query():
    """Identity conformance: synth band quantized to 1/16 steps (exactly
    float32-representable below 2^20), exported to a real .flt,
    re-imported by byte-range tile reads, per-row checksums — exact SQL
    oracle."""
    from ..core.rng import NODATA
    from ..stages.raster import RasterSpec, raster_row_checksums, synth_value

    spec = RasterSpec()
    cell = np.arange(spec.rows * spec.cols, dtype=np.int64)
    v = synth_value(cell).reshape(spec.rows, spec.cols)
    q = np.where(v == NODATA, NODATA, np.trunc(v * 16.0) / 16.0)
    base = "/tmp/graft_arc_flt_rt"
    write_arc_flt(base, q, nodata=NODATA)
    _, ds = import_arc_flt(base, tile_rows=spec.tile_rows)
    return raster_row_checksums(ds, spec)


def arc_flt_roundtrip_sql(rows: int = 256, cols: int = 256) -> str:
    from ..oracle import _NOD, _raster_vals_cte, _row_checksum_select
    return f"""
WITH {_raster_vals_cte(rows, cols)},
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN v ELSE trunc(v * 16.0) / 16.0 END AS f
        FROM vals)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""
