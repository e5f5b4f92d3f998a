"""Pure-stdlib PNG raster import/export — un-stubs ImportImage for the
baseline PNG case (ImageProcessingTools ImportImage.java routes PNG
through Java ImageIO; the container here has no codec libs, but PNG's
DEFLATE payload is stdlib ``zlib``).

Scope: 8/16-bit greyscale (colour type 0), 8/16-bit RGB (colour
type 2) and 8-bit palette (colour type 3, PLTE), no interlacing. The
DEFLATE stream is sequential, so decode runs ONE Ray task per FILE
(the same per-file-MB plan as the ASCII grid importers in grids.py);
parallelism across a directory of PNGs is per-file. Rows then tile into
the standard row-band layout.

Export writes filter-type-0 rows (no prediction) so the byte stream is
deterministic; the roundtrip is exact for uint8.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pandas as pd

from .grids import _band_frames

_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def write_png(path: str, a: np.ndarray) -> None:
    """(H, W) greyscale or (H, W, 3) RGB, uint8 or uint16 (16-bit
    samples stored big-endian per the spec), filter 0 rows."""
    a = np.asarray(a)
    if a.dtype == np.uint16:
        bit = 16
        body = a.astype(">u2")
    else:
        bit = 8
        body = np.asarray(a, dtype=np.uint8)
    if body.ndim == 2:
        colour = 0
        body = body[:, :, None]
    elif body.ndim == 3 and body.shape[2] == 3:
        colour = 2
    else:
        raise ValueError(f"unsupported shape {a.shape}")
    h, w = body.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, bit, colour, 0, 0, 0)
    raw = b"".join(b"\x00" + body[r].tobytes() for r in range(h))
    with open(path, "wb") as f:
        f.write(_SIG)
        f.write(_chunk(b"IHDR", ihdr))
        f.write(_chunk(b"IDAT", zlib.compress(raw, 6)))
        f.write(_chunk(b"IEND", b""))


def write_png_interlaced(path: str, a: np.ndarray) -> None:
    """Adam7-interlaced writer for the roundtrip tests: same sample
    support as write_png; each pass's rows use filter 2 (Up) after the
    first (filter 0), so the decoder's per-pass prev-row state is
    genuinely exercised."""
    a = np.asarray(a)
    if a.dtype == np.uint16:
        bit = 16
        body = a.astype(">u2")
    else:
        bit = 8
        body = np.asarray(a, dtype=np.uint8)
    if body.ndim == 2:
        colour = 0
        body = body[:, :, None]
    elif body.ndim == 3 and body.shape[2] == 3:
        colour = 2
    else:
        raise ValueError(f"unsupported shape {a.shape}")
    h, w = body.shape[:2]
    bybytes = body.view(np.uint8).reshape(h, w, -1)
    parts = []
    for x0, y0, dx, dy in _ADAM7:
        sub = bybytes[y0::dy, x0::dx, :]
        ph, pw = sub.shape[:2]
        if ph == 0 or pw == 0:
            continue
        flat = sub.reshape(ph, pw * sub.shape[2]).astype(np.uint8)
        prev = np.zeros(flat.shape[1], dtype=np.uint8)
        for r in range(ph):
            if r == 0:
                parts.append(b"\x00" + flat[0].tobytes())
            else:
                parts.append(b"\x02"
                             + (flat[r] - prev).astype(np.uint8)
                             .tobytes())
            prev = flat[r]
    ihdr = struct.pack(">IIBBBBB", w, h, bit, colour, 0, 0, 1)
    with open(path, "wb") as f:
        f.write(_SIG)
        f.write(_chunk(b"IHDR", ihdr))
        f.write(_chunk(b"IDAT", zlib.compress(b"".join(parts), 6)))
        f.write(_chunk(b"IEND", b""))


def write_png_palette(path: str, idx: np.ndarray,
                      palette: np.ndarray) -> None:
    """8-bit palette PNG (colour type 3): ``idx`` (H, W) uint8 indices
    into ``palette`` (N, 3) uint8 RGB."""
    idx = np.asarray(idx, dtype=np.uint8)
    palette = np.asarray(palette, dtype=np.uint8)
    h, w = idx.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 3, 0, 0, 0)
    raw = b"".join(b"\x00" + idx[r].tobytes() for r in range(h))
    with open(path, "wb") as f:
        f.write(_SIG)
        f.write(_chunk(b"IHDR", ihdr))
        f.write(_chunk(b"PLTE", palette.tobytes()))
        f.write(_chunk(b"IDAT", zlib.compress(raw, 6)))
        f.write(_chunk(b"IEND", b""))


def _paeth(a, b, c):
    p = a.astype(np.int32) + b.astype(np.int32) - c.astype(np.int32)
    pa = np.abs(p - a)
    pb = np.abs(p - b)
    pc = np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a,
                    np.where(pb <= pc, b, c)).astype(np.uint8)


_ADAM7 = ((0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
          (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2))


def _unfilter(raw: bytes, offset: int, w_px: int, h_px: int,
              bpp: int):
    """Unfilter one (sub-)image of ``h_px`` rows × ``w_px`` pixels
    starting at byte ``offset`` of the inflated stream; returns
    (rows-by-stride uint8 array, next offset). All 5 filter types."""
    stride = w_px * bpp
    out = np.zeros((h_px, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for r in range(h_px):
        base = offset + r * (stride + 1)
        ft = raw[base]
        row = np.frombuffer(raw, dtype=np.uint8, count=stride,
                            offset=base + 1).copy()
        if ft == 0:
            cur = row
        elif ft == 2:            # Up
            cur = (row + prev).astype(np.uint8)
        elif ft in (1, 3, 4):    # Sub / Average / Paeth need a scan
            cur = np.zeros(stride, dtype=np.uint8)
            left = np.zeros(bpp, dtype=np.uint8)
            ul = np.zeros(bpp, dtype=np.uint8)
            for x in range(0, stride, bpp):
                up = prev[x:x + bpp]
                if ft == 1:
                    val = row[x:x + bpp] + left
                elif ft == 3:
                    val = row[x:x + bpp] + (
                        (left.astype(np.int32) + up.astype(np.int32))
                        // 2).astype(np.uint8)
                else:
                    val = row[x:x + bpp] + _paeth(left, up, ul)
                cur[x:x + bpp] = val
                left = cur[x:x + bpp]
                ul = up
        else:
            raise ValueError(f"bad filter {ft}")
        out[r] = cur
        prev = cur
    return out, offset + h_px * (stride + 1)


def decode_png(data: bytes) -> np.ndarray:
    """Parse chunks, inflate, unfilter (all 5 PNG filter types).
    Supports 8/16-bit grey (colour 0), 8/16-bit RGB (colour 2) and
    8-bit palette (colour 3 — returned expanded to RGB uint8)."""
    if data[:8] != _SIG:
        raise ValueError("not a PNG")
    pos = 8
    w = h = None
    colour = bit = interlace = None
    idat = []
    plte = None
    while pos < len(data):
        (ln,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4:pos + 8]
        payload = data[pos + 8:pos + 8 + ln]
        pos += 12 + ln
        if tag == b"IHDR":
            w, h, bit, colour, _, _, interlace = struct.unpack(
                ">IIBBBBB", payload)
        elif tag == b"PLTE":
            plte = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
    ok = ((colour in (0, 2) and bit in (8, 16))
          or (colour == 3 and bit == 8 and plte is not None))
    if not ok or interlace not in (0, 1):
        raise NotImplementedError(
            f"PNG bit={bit} colour={colour} interlace={interlace} "
            "(import supports 8/16-bit grey/RGB + 8-bit palette, "
            "none/Adam7 interlace)")
    nchan = 3 if colour == 2 else 1
    bpp = nchan * (bit // 8)  # filter offset is in BYTES (spec §6.2)
    raw = zlib.decompress(b"".join(idat))
    if interlace == 0:
        out, _ = _unfilter(raw, 0, w, h, bpp)
    else:
        # Adam7: seven independently-filtered sub-images, scattered
        # back on the pass grid; empty passes contribute no bytes
        out = np.zeros((h, w * bpp), dtype=np.uint8)
        grid = out.reshape(h, w, bpp)
        off = 0
        for x0, y0, dx, dy in _ADAM7:
            pw = (w - x0 + dx - 1) // dx
            ph = (h - y0 + dy - 1) // dy
            if pw <= 0 or ph <= 0:
                continue
            sub, off = _unfilter(raw, off, pw, ph, bpp)
            grid[y0::dy, x0::dx, :] = sub.reshape(ph, pw, bpp)
    if colour == 3:
        return plte[out.reshape(h, w)]
    if bit == 16:
        a = out.reshape(h, -1).view(">u2").astype(np.uint16)
        return a.reshape(h, w) if nchan == 1 else a.reshape(h, w, 3)
    return out.reshape(h, w) if nchan == 1 else out.reshape(h, w, 3)


def import_png(path: str, tile_rows: int = 64):
    """ImportImage (ImageProcessingTools ImportImage.java semantics for
    PNG): decode ONE file in one Ray task, emit standard row-band tiles
    (tile_id, data float64). Greyscale only here (RGB imports as the
    packed composite via colour_composite machinery)."""
    import ray.data as rd

    def load(batch) -> pd.DataFrame:
        with open(path, "rb") as f:
            a = decode_png(f.read())
        if a.ndim != 2:
            # RGB: pack as the reference's colour composite value
            r = a[:, :, 0].astype(np.float64)
            g = a[:, :, 1].astype(np.float64)
            b = a[:, :, 2].astype(np.float64)
            a = (255.0 * 16777216 + r * 65536 + g * 256 + b)
        else:
            a = a.astype(np.float64)
        return _band_frames(a, tile_rows)

    return rd.range(1).map_batches(load, batch_format="numpy")


def png_roundtrip_query(tile_rows: int = 64):
    """Identity conformance: quantize the synth band to uint8
    (q = trunc(v·0.255), NoData → 255), export to a real PNG under
    /tmp, re-import through the decoder, per-row checksums — the
    ImportImage/ExportImage pair exercised end to end with an exact
    SQL oracle."""
    from ..core.rng import NODATA
    from ..stages.raster import RasterSpec, raster_row_checksums, synth_value

    spec = RasterSpec()
    cell = np.arange(spec.rows * spec.cols, dtype=np.int64)
    v = synth_value(cell).reshape(spec.rows, spec.cols)
    q = np.where(v == NODATA, 255.0, np.trunc(v * 0.255)).astype(np.uint8)
    path = "/tmp/graft_png_rt.png"
    write_png(path, q)
    ds = import_png(path, tile_rows=spec.tile_rows)
    return raster_row_checksums(ds, spec)


def png_roundtrip_sql(rows: int = 256, cols: int = 256) -> str:
    from ..oracle import _NOD, _raster_vals_cte, _row_checksum_select
    return f"""
WITH {_raster_vals_cte(rows, cols)},
res AS (SELECT cell,
        CASE WHEN v = {_NOD} THEN 255.0 ELSE trunc(v * 0.255) END AS f
        FROM vals)
{_row_checksum_select(cols)}
FROM res GROUP BY cell // {cols}
"""
