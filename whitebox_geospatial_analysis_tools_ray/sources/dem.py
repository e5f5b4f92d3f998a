"""USGS/CDED DEM text importer (ImportExport/src/plugins/ImportDEM.java).

Reference semantics (:289-352, :404-433): 1024-byte logical blocks; the
A record carries west/south/north/east in arc-seconds (/3600 → degrees)
and the profile count; each B record is one PROFILE (a column), whose
first 9 numeric tokens are metadata and whose remaining tokens fill the
raster COLUMN-MAJOR BOTTOM-UP (row = rows−1 … 0); the CDED NoData
−32767 maps to the Whitebox −32768.

Because tokens are fixed-width and every profile starts on a block
boundary, the byte range of any profile is computable from the header
alone — so the import runs as parallel BYTE-RANGE PROFILE READS (one
Ray task per column range) followed by one groupby(tile) transpose
shuffle that assembles the engine's row-band tiles. That shuffle moves
each value exactly once.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..stages.raster import RasterSpec
from .grids import WHITEBOX_NODATA
from .raster_io import RasterHeader

BLOCK = 1024
TOKEN_W = 6          # CDED fixed-width elevation token
CDED_NODATA = -32767
_B_HEADER_TOKENS = 9


def _profile_blocks(rows: int) -> int:
    return math.ceil((_B_HEADER_TOKENS + rows) * TOKEN_W / BLOCK)


def write_dem(path: str, hdr: RasterHeader, grid: np.ndarray) -> None:
    """Deterministic CDED-layout writer (test fixtures): A record + one
    B record per column, column-major bottom-up, −32768 → −32767."""
    rows, cols = grid.shape
    a = bytearray(b" " * BLOCK)
    a[0:40] = b"SYNTHETIC DEM".ljust(40)

    def put(lo: int, hi: int, text: str):
        a[lo:hi] = text.rjust(hi - lo).encode()

    put(546, 570, f"{hdr.west * 3600.0:.6f}")
    put(570, 594, f"{hdr.south * 3600.0:.6f}")
    put(618, 642, f"{hdr.north * 3600.0:.6f}")
    put(652, 676, f"{hdr.east * 3600.0:.6f}")
    put(858, 864, str(cols))
    put(864, 870, str(rows))  # synthetic extension (reference fixes 1201)
    with open(path, "wb") as f:
        f.write(bytes(a))
        pb = _profile_blocks(rows)
        for c in range(cols):
            toks = [f"{v:>{TOKEN_W}d}" for v in
                    (1, c + 1, 1, rows, 1, 0, 0, 0, 0)]
            colv = grid[::-1, c]  # bottom-up
            iv = np.where(colv == WHITEBOX_NODATA, CDED_NODATA,
                          colv).astype(np.int64)
            toks += [f"{int(v):>{TOKEN_W}d}" for v in iv]
            blob = "".join(toks).encode()
            blob += b" " * (pb * BLOCK - len(blob))
            f.write(blob)


def read_dem_header(path: str, rows: int | None = None) -> RasterHeader:
    with open(path, "rb") as f:
        a = f.read(BLOCK).decode("ascii", "replace")
    west = float(a[546:570]) / 3600.0
    south = float(a[570:594]) / 3600.0
    north = float(a[618:642]) / 3600.0
    east = float(a[652:676]) / 3600.0
    cols = int(a[858:864])
    if rows is None:
        r = a[864:870].strip()
        rows = int(r) if r else 1201  # ImportDEM.java:353 fixes 1201
    return RasterHeader(rows=rows, cols=cols, north=north, south=south,
                        east=east, west=west)


def import_dem(path: str, tile_rows: int = 64, rows: int | None = None,
               cols_per_task: int = 64):
    """(header, Dataset of row-band tiles) — byte-range profile reads,
    transpose shuffle into row bands."""
    import ray.data as rd

    from ..stages.util import combine, groupwise_combine

    hdr = read_dem_header(path, rows)
    R, C = hdr.rows, hdr.cols
    pb = _profile_blocks(R)
    n_col_tasks = math.ceil(C / cols_per_task)
    spec = RasterSpec(rows=R, cols=C, tile_rows=tile_rows)

    def read_cols(batch) -> pd.DataFrame:
        out = {"tile_id": [], "col": [], "seg": []}
        for gid in batch["id"]:
            c0 = int(gid) * cols_per_task
            c1 = min(c0 + cols_per_task, C)
            with open(path, "rb") as f:
                f.seek(BLOCK * (1 + c0 * pb))
                raw = f.read(BLOCK * pb * (c1 - c0))
            for k, c in enumerate(range(c0, c1)):
                blob = raw[k * pb * BLOCK:(k + 1) * pb * BLOCK]
                n_tok = _B_HEADER_TOKENS + R
                toks = (np.frombuffer(blob[:n_tok * TOKEN_W], dtype="S1")
                        .reshape(n_tok, TOKEN_W).view(f"S{TOKEN_W}").ravel())
                vals = toks[_B_HEADER_TOKENS:].astype(np.int64)
                colv = vals[::-1].astype(np.float64)  # back to top-down
                colv[colv == CDED_NODATA] = WHITEBOX_NODATA
                for t in range(spec.n_tiles):
                    out["tile_id"].append(t)
                    out["col"].append(c)
                    out["seg"].append(colv[slice(*spec.band(t))].tobytes())
        return pd.DataFrame(out)

    def assemble(df: pd.DataFrame) -> pd.DataFrame:
        t = int(df["tile_id"].iloc[0])
        r0, r1 = spec.band(t)
        a = np.full((r1 - r0, C), WHITEBOX_NODATA)
        for row in df.itertuples():
            a[:, int(row.col)] = np.frombuffer(row.seg)
        return pd.DataFrame({"tile_id": [t], "data": [a.ravel()]})

    ds = rd.range(n_col_tasks).map_batches(read_cols, batch_format="numpy")
    tiles = combine(ds, "tile_id", groupwise_combine(assemble, "tile_id"))
    return hdr, tiles
