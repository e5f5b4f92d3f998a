"""Generic raw multiband binary importer
(ImportExport/src/plugins/ImportGenericMultibandData.java, 1,059 LoC —
ENVI-style header: rows/cols/bands/data type/byte order/header offset/
interleave ∈ {bsq, bil, bip}, :304-375).

Pure byte-range arithmetic — every (band, row) strip's offset is
computable from the header for all three interleaves, so each Ray task
reads exactly its band rows:

- BSQ: band-sequential — offset = hdr + (b·R + r)·C·w
- BIL: band-interleaved-by-line — offset = hdr + (r·B + b)·C·w
- BIP: band-interleaved-by-pixel — row r holds C·B interleaved samples;
  a task reads the row block and strides out its band.

Output: one tile Dataset per band (tile_id, data), same model as every
other grid source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..stages.raster import RasterSpec, tile_task


@dataclass
class MultibandHeader:
    rows: int
    cols: int
    bands: int
    dtype: np.dtype
    interleave: str  # bsq | bil | bip
    header_offset: int = 0


def write_multiband(path: str, cube: np.ndarray, interleave: str,
                    dtype: np.dtype = np.dtype("<f4"),
                    header_offset: int = 0) -> MultibandHeader:
    """cube is (bands, rows, cols); writes the raw file + returns header."""
    b, r, c = cube.shape
    a = cube.astype(dtype)
    if interleave == "bsq":
        raw = a.tobytes()
    elif interleave == "bil":
        raw = a.transpose(1, 0, 2).tobytes()  # (rows, bands, cols)
    elif interleave == "bip":
        raw = a.transpose(1, 2, 0).tobytes()  # (rows, cols, bands)
    else:
        raise ValueError(interleave)
    with open(path, "wb") as f:
        f.write(b"\0" * header_offset)
        f.write(raw)
    return MultibandHeader(r, c, b, dtype, interleave, header_offset)


def import_multiband(path: str, hdr: MultibandHeader, band: int,
                     tile_rows: int = 64):
    """One band as a tile Dataset via byte-range reads."""
    R, C, B = hdr.rows, hdr.cols, hdr.bands
    w = hdr.dtype.itemsize
    spec = RasterSpec(rows=R, cols=C, tile_rows=tile_rows)

    def load(tid: int) -> dict:
        r0, r1 = spec.band(tid)
        with open(path, "rb") as f:
                if hdr.interleave == "bsq":
                    f.seek(hdr.header_offset + (band * R + r0) * C * w)
                    raw = f.read((r1 - r0) * C * w)
                    a = np.frombuffer(raw, dtype=hdr.dtype).reshape(-1, C)
                elif hdr.interleave == "bil":
                    rows = []
                    for r in range(r0, r1):
                        f.seek(hdr.header_offset + (r * B + band) * C * w)
                        rows.append(np.frombuffer(f.read(C * w),
                                                  dtype=hdr.dtype))
                    a = np.stack(rows)
                else:  # bip
                    f.seek(hdr.header_offset + r0 * C * B * w)
                    raw = f.read((r1 - r0) * C * B * w)
                    a = (np.frombuffer(raw, dtype=hdr.dtype)
                         .reshape(-1, C, B)[:, :, band])
        return {"tile_id": [tid], "data": [a.astype(np.float64).ravel()]}

    return tile_task(spec.n_tiles, load)
