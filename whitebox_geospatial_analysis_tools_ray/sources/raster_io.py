"""Whitebox .dep/.tas raster reader/writer → Ray tile Dataset.

Format (studied from WhiteboxAPI/src/whitebox/geospatialfiles/
WhiteboxRasterBase.java — header parse, data-type byte widths
``:343-362``, NoData default ``:510``; addressing
``cellNum = row*cols + col`` WhiteboxRaster.java:495):

- ``.dep``: text header of tab-separated ``Key:\\tvalue`` lines
  (Min, Max, North, South, East, West, Cols, Rows, Data Type, Z Units,
  XY Units, Projection, Data Scale, Display Min/Max, Preferred Palette,
  NoData, Byte Order).
- ``.tas``: flat row-major binary cells; dtype per Data Type:
  DOUBLE=f8, FLOAT=f4, INTEGER=i2, BYTE=u1; byte order per header.

All values surface as float64 (the reference surfaces every cell as a
Java double). The Dataset schema is the engine tile model:
(tile_id:int64, data:list<f64>) in full-width row bands.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..stages.raster import RasterSpec, tile_task

_DTYPES = {"DOUBLE": "f8", "FLOAT": "f4", "INTEGER": "i2", "BYTE": "u1"}


@dataclass
class RasterHeader:
    rows: int
    cols: int
    north: float
    south: float
    east: float
    west: float
    data_type: str = "FLOAT"
    data_scale: str = "continuous"
    nodata: float = -32768.0
    byte_order: str = "LITTLE_ENDIAN"
    z_units: str = "not specified"
    xy_units: str = "not specified"
    projection: str = "not specified"
    vmin: float = float("inf")
    vmax: float = float("-inf")

    @property
    def cell_size_x(self) -> float:
        return (self.east - self.west) / self.cols

    @property
    def cell_size_y(self) -> float:
        return (self.north - self.south) / self.rows

    def np_dtype(self) -> np.dtype:
        endian = "<" if self.byte_order.upper().startswith("LITTLE") else ">"
        return np.dtype(endian + _DTYPES[self.data_type.upper()])


def read_dep_header(dep_path: str) -> RasterHeader:
    kv = {}
    with open(dep_path) as f:
        for line in f:
            if ":" in line:
                k, _, v = line.partition(":")
                kv[k.strip().lower()] = v.strip()
    return RasterHeader(
        rows=int(kv["rows"]), cols=int(kv["cols"]),
        north=float(kv["north"]), south=float(kv["south"]),
        east=float(kv["east"]), west=float(kv["west"]),
        data_type=kv.get("data type", "FLOAT").upper(),
        data_scale=kv.get("data scale", "continuous"),
        nodata=float(kv.get("nodata", "-32768.0")),
        byte_order=kv.get("byte order", "LITTLE_ENDIAN"),
        z_units=kv.get("z units", "not specified"),
        xy_units=kv.get("xy units", "not specified"),
        projection=kv.get("projection", "not specified"),
        vmin=float(kv.get("min", "inf")),
        vmax=float(kv.get("max", "-inf")),
    )


def read_whitebox_raster(dep_path: str, tile_rows: int = 64):
    """Read .dep/.tas → (header, Ray Dataset of row-band tiles).

    The .tas is decoded INSIDE Ray tasks (one task per tile band) via
    byte-range reads — the driver never holds the grid.
    """
    hdr = read_dep_header(dep_path)
    tas_path = dep_path[:-4] + ".tas"
    spec = RasterSpec(rows=hdr.rows, cols=hdr.cols, tile_rows=tile_rows)
    dtype = hdr.np_dtype()
    itemsize = dtype.itemsize

    def load(tid: int) -> dict:
        r0, r1 = spec.band(tid)
        with open(tas_path, "rb") as f:
            f.seek(r0 * spec.cols * itemsize)
            raw = f.read((r1 - r0) * spec.cols * itemsize)
        return {"tile_id": [tid],
                "data": [np.frombuffer(raw, dtype=dtype).astype(np.float64)]}

    return hdr, tile_task(spec.n_tiles, load)


def iter_tiles_ordered(ds, on_pending=None):
    """Stream ``(tile_id, float64 1-D data)`` pairs in ascending tile_id
    from a tile Dataset with a bounded reorder buffer — the driver holds
    only the tiles that arrived ahead of the next expected id, never the
    whole raster (the single-file export paths must not assemble it).
    Ray's streaming executor delivers blocks
    near lineage order, so the buffer stays O(out-of-orderness) ≪
    O(tiles); ``on_pending`` (a callable taking the current buffer size)
    lets tests assert that bound."""
    pending: dict[int, np.ndarray] = {}
    next_tid = 0
    for b in ds.iter_batches(batch_size=16, batch_format="pandas"):
        for tid, data in zip(b["tile_id"], b["data"]):
            pending[int(tid)] = np.asarray(data, dtype=np.float64)
            if on_pending is not None:
                on_pending(len(pending))
            while next_tid in pending:
                yield next_tid, pending.pop(next_tid)
                next_tid += 1
    while next_tid in pending:
        yield next_tid, pending.pop(next_tid)
        next_tid += 1
    if pending:
        raise ValueError(
            f"tile stream has a gap: missing tile {next_tid}, "
            f"{len(pending)} later tiles pending")


def write_whitebox_raster(hdr: RasterHeader, ds, dep_path: str) -> None:
    """Write a tile Dataset back to .dep/.tas (parity sink for tests).

    Tiles are streamed in tile order and written sequentially — O(tile)
    driver memory, not O(raster); stats (Min/Max) computed on the fly as
    the reference's close() does (WhiteboxRaster.java:1252)."""
    tas_path = dep_path[:-4] + ".tas"
    dtype = hdr.np_dtype()
    vmin, vmax = float("inf"), float("-inf")
    with open(tas_path, "wb") as f:
        for _tid, a in iter_tiles_ordered(ds):
            valid = a != hdr.nodata
            if valid.any():
                vmin = min(vmin, float(a[valid].min()))
                vmax = max(vmax, float(a[valid].max()))
            f.write(a.astype(dtype).tobytes())
    with open(dep_path, "w") as f:
        f.write(f"Min:\t{vmin}\n")
        f.write(f"Max:\t{vmax}\n")
        f.write(f"North:\t{hdr.north}\n")
        f.write(f"South:\t{hdr.south}\n")
        f.write(f"East:\t{hdr.east}\n")
        f.write(f"West:\t{hdr.west}\n")
        f.write(f"Cols:\t{hdr.cols}\n")
        f.write(f"Rows:\t{hdr.rows}\n")
        f.write(f"Data Type:\t{hdr.data_type}\n")
        f.write(f"Z Units:\t{hdr.z_units}\n")
        f.write(f"XY Units:\t{hdr.xy_units}\n")
        f.write(f"Projection:\t{hdr.projection}\n")
        f.write(f"Data Scale:\t{hdr.data_scale}\n")
        f.write(f"Display Min:\t{vmin}\n")
        f.write(f"Display Max:\t{vmax}\n")
        f.write("Preferred Palette:\tspectrum.pal\n")
        f.write(f"NoData:\t{hdr.nodata}\n")
        f.write(f"Byte Order:\t{hdr.byte_order}\n")
