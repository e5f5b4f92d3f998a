"""Uncompressed BMP import/export (ImportImage.java's BMP path via
ImageIO, re-expressed): unlike PNG, BMP pixel rows are fixed-stride and
RANDOM-ACCESS, so import reads each row-band tile with its own
byte-range read (the GeoTiff strip plan — no whole-file decode task).

Scope: BITMAPINFOHEADER, 24-bit BGR, no compression (BI_RGB),
bottom-up row order, rows padded to 4 bytes.
"""

from __future__ import annotations

import struct

import numpy as np

from ..stages.raster import RasterSpec, tile_task


def write_bmp(path: str, rgb: np.ndarray) -> None:
    """(H, W, 3) uint8 RGB → 24-bit bottom-up BMP."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    h, w = rgb.shape[:2]
    stride = (w * 3 + 3) & ~3
    pad = stride - w * 3
    img_size = stride * h
    off = 14 + 40
    with open(path, "wb") as f:
        f.write(b"BM" + struct.pack("<IHHI", off + img_size, 0, 0, off))
        f.write(struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0,
                            img_size, 2835, 2835, 0, 0))
        zero = b"\x00" * pad
        for r in range(h - 1, -1, -1):          # bottom-up
            f.write(rgb[r, :, ::-1].tobytes())  # BGR
            if pad:
                f.write(zero)


def _read_header(path: str):
    with open(path, "rb") as f:
        head = f.read(54)
    if head[:2] != b"BM":
        raise ValueError("not a BMP")
    (off,) = struct.unpack_from("<I", head, 10)
    size, w, h, planes, bpp, comp = struct.unpack_from("<IiiHHI", head, 14)
    if bpp != 24 or comp != 0 or h <= 0:
        raise NotImplementedError(
            f"BMP bpp={bpp} comp={comp} h={h} "
            "(baseline import supports 24-bit BI_RGB bottom-up)")
    stride = (w * 3 + 3) & ~3
    return off, w, h, stride


def import_bmp(path: str, tile_rows: int = 64):
    """Row-band tiles (tile_id, data) of the PACKED composite value
    (255·2²⁴ + r·2¹⁶ + g·2⁸ + b — the reference's colour-composite
    encoding); each tile issues ONE byte-range read of its rows."""
    off, w, h, stride = _read_header(path)
    spec = RasterSpec(rows=h, cols=w, tile_rows=tile_rows)

    def load(tid: int) -> dict:
        r0, r1 = spec.band(tid)
        # top-down tile rows r0..r1 live at bottom-up rows
        # (h-1-r)... contiguous block for rows (h-r1)..(h-r0)
        b0 = off + (h - r1) * stride
        with open(path, "rb") as f:
            f.seek(b0)
            raw = f.read((r1 - r0) * stride)
        block = np.frombuffer(raw, dtype=np.uint8).reshape(
            r1 - r0, stride)[::-1, :w * 3].reshape(r1 - r0, w, 3)
        b = block[:, :, 0].astype(np.float64)
        g = block[:, :, 1].astype(np.float64)
        r = block[:, :, 2].astype(np.float64)
        val = 255.0 * 16777216 + r * 65536 + g * 256 + b
        return {"tile_id": [tid], "data": [val.ravel()]}

    return tile_task(spec.n_tiles, load)


def bmp_roundtrip_query():
    """Quantize the synth band into an RGB ramp (r = trunc(v·0.255),
    g = trunc(v) % 256, b = cell % 256; NoData → 255/255/255), export a
    real BMP, re-import via byte-range tile reads, checksum the packed
    composite — exact SQL oracle."""
    from ..core.rng import NODATA
    from ..stages.raster import RasterSpec, raster_row_checksums, synth_value

    spec = RasterSpec()
    cell = np.arange(spec.rows * spec.cols, dtype=np.int64)
    v = synth_value(cell).reshape(spec.rows, spec.cols)
    cgrid = cell.reshape(spec.rows, spec.cols)
    nod = v == NODATA
    r = np.where(nod, 255.0, np.trunc(v * 0.255)).astype(np.uint8)
    g = np.where(nod, 255.0, np.trunc(v) % 256).astype(np.uint8)
    b = np.where(nod, 255, cgrid % 256).astype(np.uint8)
    rgb = np.stack([r, g, b], axis=2)
    path = "/tmp/graft_bmp_rt.bmp"
    write_bmp(path, rgb)
    ds = import_bmp(path, tile_rows=spec.tile_rows)
    return raster_row_checksums(ds, spec)


def bmp_roundtrip_sql(rows: int = 256, cols: int = 256) -> str:
    from ..oracle import _NOD, _raster_vals_cte, _row_checksum_select
    return f"""
WITH {_raster_vals_cte(rows, cols)},
ch AS (SELECT cell,
       CASE WHEN v = {_NOD} THEN 255.0 ELSE trunc(v * 0.255) END AS r,
       CASE WHEN v = {_NOD} THEN 255.0 ELSE trunc(v) % 256 END AS g,
       CASE WHEN v = {_NOD} THEN 255.0
            ELSE CAST(cell % 256 AS DOUBLE) END AS b
       FROM vals),
res AS (SELECT cell,
        255.0 * 16777216 + r * 65536 + g * 256 + b AS f FROM ch)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""
