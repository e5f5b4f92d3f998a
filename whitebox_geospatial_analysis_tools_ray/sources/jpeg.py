"""Baseline JPEG (JFIF) codec in pure numpy — the last ImportImage
format the container's missing codec libs forced into a stub. Public
ITU-T T.81 baseline: 8-bit, huffman, 4:4:4 (no chroma subsampling on
encode; decode handles 4:4:4 only), standard Annex K quantization and
huffman tables.

JPEG is lossy and its DEFLATE-free entropy stream is sequential, so the
Ray plan matches PNG's: ONE decode task per FILE, tiles after.
Conformance is decode(encode(x)) determinism — bit-identical across
runs/engines because every step is integer or fixed-order float64 —
checked by checksum tests and by the exact SQL oracle
``jpeg_roundtrip_sql``, which replays the same fixed-order DCT.
"""

from __future__ import annotations

import struct

import numpy as np
import pandas as pd

from .grids import _band_frames

# Annex K luminance / chrominance quantization tables (quality 50 base)
_QY = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], dtype=np.int32).reshape(8, 8)
_QC = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], dtype=np.int32).reshape(8, 8)

_ZIG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63],
    dtype=np.int64)

# Annex K huffman tables: (bits[1..16], huffval)
_HT = {
    ("dc", 0): ([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
                list(range(12))),
    ("dc", 1): ([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
                list(range(12))),
    ("ac", 0): ([0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
                [0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21,
                 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71,
                 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08, 0x23, 0x42, 0xB1,
                 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72,
                 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25,
                 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37,
                 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
                 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
                 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A,
                 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x83,
                 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
                 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
                 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3,
                 0xB4, 0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
                 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3,
                 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
                 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1,
                 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA]),
    ("ac", 1): ([0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
                [0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31,
                 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22,
                 0x32, 0x81, 0x08, 0x14, 0x42, 0x91, 0xA1, 0xB1, 0xC1,
                 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1,
                 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18,
                 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36,
                 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47,
                 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
                 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
                 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7A,
                 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
                 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A,
                 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA,
                 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA,
                 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA,
                 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
                 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
                 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA]),
}


def _huff_codes(bits, vals):
    """symbol -> (code, length) per T.81 C.2."""
    out = {}
    code = 0
    k = 0
    for ln in range(1, 17):
        for _ in range(bits[ln - 1]):
            out[vals[k]] = (code, ln)
            code += 1
            k += 1
        code <<= 1
    return out


_DCT_C = None


def _dct_matrix():
    global _DCT_C
    if _DCT_C is None:
        n = 8
        C = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                a = np.sqrt(1.0 / n) if i == 0 else np.sqrt(2.0 / n)
                C[i, j] = a * np.cos((2 * j + 1) * i * np.pi / (2 * n))
        _DCT_C = C
    return _DCT_C


def _dct_product(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a @ x) @ b`` for 8×8 blocks (or a stack of them), each dot
    product accumulated k = 0..7 left to right with one rounding per
    product and per sum — the order ``jpeg_roundtrip_sql`` spells out.
    ``@`` goes through BLAS, whose kernel (FMA, blocking) depends on
    the host."""
    def mul(p, q):
        out = p[..., :, :1] * q[..., :1, :]
        for k in range(1, 8):
            out = out + p[..., :, k:k + 1] * q[..., k:k + 1, :]
        return out
    return mul(mul(a, x), b)


def _block_coefs(plane: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quantized DCT coefficients, in zigzag order, of every 8×8 block of
    ``plane`` in row-major block order; a partial edge block repeats its
    last row and column."""
    h, w = plane.shape
    p = np.pad(plane, ((0, -h % 8), (0, -w % 8)), mode="edge")
    blks = p.reshape(p.shape[0] // 8, 8, -1, 8).transpose(0, 2, 1, 3)
    C = _dct_matrix()
    f = _dct_product(C, blks - 128.0, C.T)
    return np.floor(f / q + 0.5).astype(np.int64).reshape(-1, 64)[:, _ZIG]


class _BitWriter:
    """Deferred bitstream writer: ``put`` only records (code, length)
    pairs; ``flush`` packs them with numpy in one vectorized pass and
    applies byte stuffing at the byte layer (stuffing inserts output
    bytes without shifting bit positions, so packing-then-stuffing is
    byte-identical to the old streaming writer — pytest-pinned by the
    roundtrip/golden decode tests). The old per-call Python packer was
    the whole encoder cost (~7.5 µs × 127k puts per 256² image)."""

    def __init__(self):
        self.buf = bytearray()
        self._codes: list[int] = []
        self._lens: list[int] = []
        self._nbits = 0

    def put(self, code: int, length: int):
        self._codes.append(code & ((1 << length) - 1))
        self._lens.append(length)
        self._nbits += length

    def flush(self):
        if self._nbits & 7:
            pad = 8 - (self._nbits & 7)
            self.put((1 << pad) - 1, pad)
        if not self._codes:
            return
        codes = np.array(self._codes, dtype=np.uint64)
        lens = np.array(self._lens, dtype=np.int64)
        end = np.cumsum(lens)
        start = end - lens
        nbytes = int(end[-1]) >> 3
        # each code's bits live at [start & 7, start & 7 + len) inside
        # an 8-byte window at byte start>>3; len ≤ 27 and misalignment
        # ≤ 7 → ≤ 5 bytes touched; OR-scatter the window byte by byte
        out = np.zeros(nbytes + 8, dtype=np.uint8)
        sb = (start >> 3).astype(np.int64)
        word = codes << (64 - lens - (start & 7)).astype(np.uint64)
        for k in range(5):
            np.bitwise_or.at(
                out, sb + k,
                ((word >> np.uint64(56 - 8 * k))
                 & np.uint64(0xFF)).astype(np.uint8))
        out = out[:nbytes]
        ff = np.flatnonzero(out == 0xFF)
        if len(ff):
            out = np.insert(out, ff + 1, 0)     # byte stuffing
        self.buf = bytearray(out.tobytes())
        self._codes, self._lens = [], []


def _mag_bits(v: int):
    """(size, value-bits) per T.81 F.1.2.1."""
    if v == 0:
        return 0, 0
    a = abs(v)
    size = a.bit_length()
    bits = v if v > 0 else v + (1 << size) - 1
    return size, bits


def _scaled_q(quality: int):
    q = max(1, min(100, quality))
    scale = 5000 // q if q < 50 else 200 - q * 2
    qy = np.clip((_QY * scale + 50) // 100, 1, 255)
    qc = np.clip((_QC * scale + 50) // 100, 1, 255)
    return qy.astype(np.int32), qc.astype(np.int32)


def write_jpeg(path: str, rgb: np.ndarray, quality: int = 75,
               restart_interval: int = 0) -> None:
    rgb = np.asarray(rgb, dtype=np.uint8)
    if rgb.ndim == 2:
        rgb = np.stack([rgb] * 3, axis=2)
    h, w = rgb.shape[:2]
    qy, qc = _scaled_q(quality)
    # JFIF YCbCr
    r = rgb[:, :, 0].astype(np.float64)
    g = rgb[:, :, 1].astype(np.float64)
    b = rgb[:, :, 2].astype(np.float64)
    Y = 0.299 * r + 0.587 * g + 0.114 * b
    Cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    Cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    comps = [(Y, qy, 0), (Cb, qc, 1), (Cr, qc, 1)]
    coefs = [_block_coefs(plane, q) for plane, q, _tab in comps]
    dc_tabs = {t: _huff_codes(*_HT[("dc", t)]) for t in (0, 1)}
    ac_tabs = {t: _huff_codes(*_HT[("ac", t)]) for t in (0, 1)}

    bw = _BitWriter()
    prev_dc = [0, 0, 0]
    scan_parts: list[bytes] = []
    rst_n = 0
    for mcu in range(len(coefs[0])):
        # DRI: close the segment every restart_interval MCUs —
        # flush (1-pad to byte), emit RSTn, reset DC predictors
        if restart_interval and mcu and mcu % restart_interval == 0:
            bw.flush()
            scan_parts.append(bytes(bw.buf))
            scan_parts.append(bytes([0xFF, 0xD0 + (rst_n % 8)]))
            rst_n += 1
            bw = _BitWriter()
            prev_dc = [0, 0, 0]
        for ci, (_plane, _q, tab) in enumerate(comps):
            qz = coefs[ci][mcu]
            dc = int(qz[0]) - prev_dc[ci]
            prev_dc[ci] = int(qz[0])
            size, bits = _mag_bits(dc)
            code, ln = dc_tabs[tab][size]
            bw.put(code, ln)
            if size:
                bw.put(bits, size)
            run = 0
            last_nz = 0
            for k in range(63, 0, -1):
                if qz[k]:
                    last_nz = k
                    break
            for k in range(1, last_nz + 1):
                v = int(qz[k])
                if v == 0:
                    run += 1
                    continue
                while run > 15:
                    code, ln = ac_tabs[tab][0xF0]
                    bw.put(code, ln)
                    run -= 16
                size, bits = _mag_bits(v)
                code, ln = ac_tabs[tab][(run << 4) | size]
                bw.put(code, ln)
                bw.put(bits, size)
                run = 0
            if last_nz < 63:
                code, ln = ac_tabs[tab][0x00]  # EOB
                bw.put(code, ln)
    bw.flush()
    scan_parts.append(bytes(bw.buf))
    scan_bytes = b"".join(scan_parts)

    out = bytearray()
    out += b"\xFF\xD8"                              # SOI
    out += b"\xFF\xE0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00" \
        + struct.pack(">HH", 1, 1) + b"\x00\x00"
    for tid, q in ((0, qy), (1, qc)):               # DQT
        out += b"\xFF\xDB" + struct.pack(">H", 67) + bytes([tid]) \
            + bytes(q.ravel()[_ZIG].astype(np.uint8))
    out += b"\xFF\xC0" + struct.pack(">HBHHB", 17, 8, h, w, 3)   # SOF0
    for cid, tq in ((1, 0), (2, 1), (3, 1)):
        out += bytes([cid, 0x11, tq])               # 4:4:4
    for (cls, tid), (bits, vals) in _HT.items():    # DHT
        out += b"\xFF\xC4" + struct.pack(">H", 19 + len(vals)) \
            + bytes([(0 if cls == "dc" else 0x10) | tid]) \
            + bytes(bits) + bytes(vals)
    if restart_interval:
        out += b"\xFF\xDD" + struct.pack(">HH", 4, restart_interval)
    out += b"\xFF\xDA" + struct.pack(">HB", 12, 3)  # SOS
    for cid, tabs in ((1, 0x00), (2, 0x11), (3, 0x11)):
        out += bytes([cid, tabs])
    out += b"\x00\x3F\x00"
    out += scan_bytes
    out += b"\xFF\xD9"                              # EOI
    with open(path, "wb") as f:
        f.write(bytes(out))


def _trunc_shift(v: np.ndarray, al: int) -> np.ndarray:
    """AC point transform: divide by 2^al truncating toward zero
    (T.81 G.1.2.2; DC uses a plain arithmetic shift)."""
    return np.sign(v) * (np.abs(v) >> al)


def write_jpeg_progressive(path: str, rgb: np.ndarray,
                           quality: int = 75) -> None:
    """Progressive (SOF2) encoder exercising every Annex G scan kind:
    DC first (Al=1) → DC refine → per-component AC first (Ss=1..63,
    Al=1) → AC refine. EOB runs are flushed per block (EOB0) — valid,
    slightly less compressed, and keeps the refinement correction-bit
    bookkeeping exactly inverse to the decoder's G.1.2.3 walk."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    if rgb.ndim == 2:
        rgb = np.stack([rgb] * 3, axis=2)
    h, w = rgb.shape[:2]
    qy, qc = _scaled_q(quality)
    r = rgb[:, :, 0].astype(np.float64)
    g = rgb[:, :, 1].astype(np.float64)
    b = rgb[:, :, 2].astype(np.float64)
    Y = 0.299 * r + 0.587 * g + 0.114 * b
    Cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    Cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    comps = [(Y, qy, 0), (Cb, qc, 1), (Cr, qc, 1)]
    coefs = [_block_coefs(plane, q) for plane, q, _tab in comps]
    nblocks = len(coefs[0])

    dc_tabs = {t: _huff_codes(*_HT[("dc", t)]) for t in (0, 1)}
    ac_tabs = {t: _huff_codes(*_HT[("ac", t)]) for t in (0, 1)}
    scans = []  # (header-bytes, entropy-bytes)

    # scan 1: interleaved DC first, Al=1
    bw = _BitWriter()
    prev = [0, 0, 0]
    for bidx in range(nblocks):
        for ci, (_p, _q, tab) in enumerate(comps):
            dc = int(coefs[ci][bidx][0]) >> 1
            diff = dc - prev[ci]
            prev[ci] = dc
            size, bits = _mag_bits(diff)
            code, ln = dc_tabs[tab][size]
            bw.put(code, ln)
            if size:
                bw.put(bits, size)
    bw.flush()
    # component spec: (cid, TdTa) — Ta unused in DC scans
    hdr = bytes([3, 1, 0x00, 2, 0x10, 3, 0x10])
    scans.append((hdr + bytes([0, 0, 0x01]), bytes(bw.buf)))

    # scan 2: interleaved DC refinement, Ah=1 Al=0
    bw = _BitWriter()
    for bidx in range(nblocks):
        for ci in range(3):
            bw.put(int(coefs[ci][bidx][0]) & 1, 1)
    bw.flush()
    scans.append((bytes([3, 1, 0x00, 2, 0x00, 3, 0x00])
                  + bytes([0, 0, 0x10]), bytes(bw.buf)))

    for ci, cid in ((0, 1), (1, 2), (2, 3)):
        tab = comps[ci][2]
        ac = ac_tabs[tab]
        # AC first: Ss=1 Se=63 Ah=0 Al=1, EOB0 per block
        bw = _BitWriter()
        for bidx in range(nblocks):
            now = _trunc_shift(coefs[ci][bidx], 1)
            nz = np.flatnonzero(now[1:]) + 1
            last = int(nz[-1]) if len(nz) else 0
            run = 0
            for k in range(1, last + 1):
                v = int(now[k])
                if v == 0:
                    run += 1
                    continue
                while run > 15:
                    code, ln = ac[0xF0]
                    bw.put(code, ln)
                    run -= 16
                size, bits = _mag_bits(v)
                code, ln = ac[(run << 4) | size]
                bw.put(code, ln)
                bw.put(bits, size)
                run = 0
            if last < 63:
                code, ln = ac[0x00]
                bw.put(code, ln)
        bw.flush()
        scans.append((bytes([1, cid, tab]) + bytes([1, 63, 0x01]),
                      bytes(bw.buf)))

        # AC refinement: Ss=1 Se=63 Ah=1 Al=0
        bw = _BitWriter()
        for bidx in range(nblocks):
            v = coefs[ci][bidx]
            prev_c = _trunc_shift(v, 1)
            items: list = []  # 'z' | ('c', bit) in position order
            for k in range(1, 64):
                if prev_c[k] != 0:
                    items.append(("c", int(abs(v[k])) & 1))
                elif v[k] == 0:
                    items.append("z")
                else:
                    # newly nonzero at k: close pending runs first
                    while sum(1 for it in items if it == "z") > 15:
                        zn = 0
                        cut = 0
                        for i, it in enumerate(items):
                            cut = i + 1
                            if it == "z":
                                zn += 1
                                if zn == 16:
                                    break
                        code, ln = ac[0xF0]
                        bw.put(code, ln)
                        for it in items[:cut]:
                            if it != "z":
                                bw.put(it[1], 1)
                        items = items[cut:]
                    run = sum(1 for it in items if it == "z")
                    code, ln = ac[(run << 4) | 1]
                    bw.put(code, ln)
                    bw.put(1 if v[k] > 0 else 0, 1)
                    for it in items:
                        if it != "z":
                            bw.put(it[1], 1)
                    items = []
            if items:
                code, ln = ac[0x00]   # EOB0, then trailing correction bits
                bw.put(code, ln)
                for it in items:
                    if it != "z":
                        bw.put(it[1], 1)
        bw.flush()
        scans.append((bytes([1, cid, tab]) + bytes([1, 63, 0x10]),
                      bytes(bw.buf)))

    out = bytearray()
    out += b"\xFF\xD8"
    out += b"\xFF\xE0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00" \
        + struct.pack(">HH", 1, 1) + b"\x00\x00"
    for tid, q in ((0, qy), (1, qc)):
        out += b"\xFF\xDB" + struct.pack(">H", 67) + bytes([tid]) \
            + bytes(q.ravel()[_ZIG].astype(np.uint8))
    out += b"\xFF\xC2" + struct.pack(">HBHHB", 17, 8, h, w, 3)   # SOF2
    for cid, tq in ((1, 0), (2, 1), (3, 1)):
        out += bytes([cid, 0x11, tq])
    for (cls, tid), (bits, vals) in _HT.items():
        out += b"\xFF\xC4" + struct.pack(">H", 19 + len(vals)) \
            + bytes([(0 if cls == "dc" else 0x10) | tid]) \
            + bytes(bits) + bytes(vals)
    for shdr, entropy in scans:
        out += b"\xFF\xDA" + struct.pack(">H", 2 + len(shdr)) + shdr
        out += entropy
    out += b"\xFF\xD9"
    with open(path, "wb") as f:
        f.write(bytes(out))


class _BitReader:
    """Constant-time bit reads over a PRE-UNSTUFFED segment: the
    entropy bytes are truncated at the first real marker and destuffed
    ONCE (vectorized), then W[i] = the big-endian 32-bit window at byte
    i, so read/peek are two shifts on a Python int — no per-call fill
    loop (the old streaming reader's per-bit fill was the whole decoder
    cost). Reads past the segment see zero bits, exactly like the old
    reader's marker padding."""

    def __init__(self, data: bytes):
        d = np.frombuffer(data, dtype=np.uint8)
        ffpos = np.flatnonzero(d == 0xFF)
        if len(ffpos):
            nxt = np.concatenate([d[1:], np.array([0xD9], np.uint8)])
            real = ffpos[nxt[ffpos] != 0x00]
            end = int(real[0]) if len(real) else len(d)
        else:
            end = len(d)
        seg = bytes(d[:end].tobytes()).replace(b"\xff\x00", b"\xff")
        a = np.frombuffer(seg + b"\x00\x00\x00\x00",
                          dtype=np.uint8).astype(np.uint32)
        W = (a[:-3] << 24) | (a[1:-2] << 16) | (a[2:-1] << 8) | a[3:]
        self.Wl = W.tolist()            # Python ints: fast scalar index
        self.nbits = len(seg) * 8
        self.bitpos = 0

    def read(self, k: int) -> int:
        if k == 0:
            return 0
        p = self.bitpos
        self.bitpos = p + k
        if p >= self.nbits:
            return 0
        return (self.Wl[p >> 3] >> (32 - (p & 7) - k)) & ((1 << k) - 1)

    def peek16(self) -> tuple[int, int]:
        p = self.bitpos
        avail = self.nbits - p
        if avail <= 0:
            return 0, 0
        # next 16 bits, zero-padded past the end (the W windows are
        # zero-padded), left-aligned exactly like the old reader
        return (self.Wl[p >> 3] >> (16 - (p & 7))) & 0xFFFF, min(avail, 16)


def _decode_tables(bits, vals):
    """Direct 16-bit lookup: (sym[v16], len[v16]) arrays — a canonical
    code of length ln owns the v16 range [code << (16-ln),
    (code+1) << (16-ln)). One peek + two array reads per symbol
    replaces the old bit-by-bit tree walk (it was the whole decoder
    cost: 281k single-bit read() calls per 256² image); decodes are
    identical on well-formed streams (same canonical code table)."""
    sym = np.zeros(1 << 16, dtype=np.int16)
    ln_ = np.zeros(1 << 16, dtype=np.int8)
    code = 0
    k = 0
    for ln in range(1, 17):
        for _ in range(bits[ln - 1]):
            lo = code << (16 - ln)
            hi = (code + 1) << (16 - ln)
            sym[lo:hi] = vals[k]
            ln_[lo:hi] = ln
            code += 1
            k += 1
        code <<= 1
    return sym, ln_


def _read_sym(br: _BitReader, table) -> int:
    sym, ln_ = table
    v, avail = br.peek16()
    ln = int(ln_[v])
    if ln == 0 or ln > avail:
        raise ValueError("bad huffman stream")
    br.read(ln)
    return int(sym[v])


def _extend(v: int, size: int) -> int:
    if size == 0:
        return 0
    return v if v >= (1 << (size - 1)) else v - (1 << size) + 1


def _entropy_end(data: bytes, pos: int) -> int:
    """First byte past an entropy-coded segment starting at ``pos``:
    scan for FF followed by a real marker (not 00 stuffing / RSTn)."""
    i = pos
    n = len(data)
    while i < n - 1:
        if data[i] == 0xFF and data[i + 1] != 0x00 and not (
                0xD0 <= data[i + 1] <= 0xD7):
            return i
        i += 1
    return n


def decode_jpeg(data: bytes) -> np.ndarray:
    """Decode baseline (SOF0) or progressive (SOF2) 4:4:4 JPEG.

    Progressive follows T.81 Annex G: per-component zigzag coefficient
    arrays accumulated over the scan sequence (DC first / DC refine /
    AC first / AC refine with spectral selection + successive
    approximation), one IDCT at the end. The reference accepts these
    via Java ImageIO (ImportImage.java:528)."""
    assert data[:2] == b"\xFF\xD8", "not a JPEG"
    pos = 2
    qt = {}
    hts = {}
    h = w = None
    comps = []
    progressive = False
    dri = 0
    scans = []  # (scan_tabs, Ss, Se, Ah, Al, entropy-bytes)
    while pos < len(data):
        assert data[pos] == 0xFF, "marker expected"
        m = data[pos + 1]
        pos += 2
        if m == 0xD9:
            break
        (ln,) = struct.unpack_from(">H", data, pos)
        payload = data[pos + 2:pos + ln]
        pos += ln
        if m == 0xDB:
            p = 0
            while p < len(payload):
                tid = payload[p] & 0x0F
                prec = payload[p] >> 4
                assert prec == 0, "16-bit DQT unsupported"
                q = np.zeros(64, dtype=np.int32)
                q[_ZIG] = np.frombuffer(payload[p + 1:p + 65],
                                        dtype=np.uint8)
                qt[tid] = q.reshape(8, 8)
                p += 65
        elif m in (0xC0, 0xC2):
            progressive = m == 0xC2
            prec, h, w, nc = struct.unpack_from(">BHHB", payload, 0)
            assert prec == 8 and nc == 3
            p = 6
            for _ in range(nc):
                cid, samp, tq = payload[p], payload[p + 1], payload[p + 2]
                assert samp == 0x11, "only 4:4:4 decode supported"
                comps.append((cid, tq))
                p += 3
        elif m in (0xC1, 0xC3):
            raise NotImplementedError(
                "only baseline SOF0 and progressive SOF2")
        elif m == 0xDD:
            (dri,) = struct.unpack_from(">H", payload, 0)
        elif m == 0xC4:
            p = 0
            while p < len(payload):
                tc_th = payload[p]
                bits = list(payload[p + 1:p + 17])
                nv = sum(bits)
                vals = list(payload[p + 17:p + 17 + nv])
                hts[(tc_th >> 4, tc_th & 0x0F)] = _decode_tables(bits, vals)
                p += 17 + nv
        elif m == 0xDA:
            ns = payload[0]
            scan_tabs = []
            p = 1
            for _ in range(ns):
                cid, tabs = payload[p], payload[p + 1]
                scan_tabs.append((cid, tabs >> 4, tabs & 0x0F))
                p += 2
            ss, se, ahl = payload[p], payload[p + 1], payload[p + 2]
            end = _entropy_end(data, pos)
            scans.append((scan_tabs, ss, se, ahl >> 4, ahl & 0x0F,
                          data[pos:end]))
            pos = end
    assert scans and h is not None
    H8 = -(-h // 8) * 8
    W8 = -(-w // 8) * 8
    nby, nbx = H8 // 8, W8 // 8
    cid_index = {cid: i for i, (cid, _tq) in enumerate(comps)}
    # zigzag-order coefficient store per component
    coefs = [np.zeros((nby * nbx, 64), dtype=np.int64) for _ in comps]

    if dri and progressive:
        raise NotImplementedError(
            "restart intervals unsupported for progressive scans")
    for scan_tabs, ss, se, ah, al, entropy in scans:
        # DRI: each restart segment is an independent entropy stream —
        # byte-aligned start, DC predictors reset. A literal 0xFF in
        # entropy data is always stuffed (FF00), so FF D0-D7 always IS
        # a restart marker and a plain split is exact.
        if dri and not progressive:
            import re as _re
            rst_segs = _re.split(b"\xff[\xd0-\xd7]", entropy)
        else:
            rst_segs = None
        br = _BitReader(entropy)
        seg_i = 0
        if ss == 0 and (not progressive or len(scan_tabs) > 1 or ah == 0):
            # DC (or full baseline) scan — interleaved over components
            prev_dc = [0] * len(scan_tabs)
            if rst_segs is not None:
                br = _BitReader(rst_segs[0])
            for b in range(nby * nbx):
                if rst_segs is not None and b and b % dri == 0:
                    seg_i += 1
                    br = _BitReader(rst_segs[seg_i])
                    prev_dc = [0] * len(scan_tabs)
                for si, (cid, tdc, tac) in enumerate(scan_tabs):
                    ci = cid_index[cid]
                    row = coefs[ci][b]
                    if ah == 0:
                        size = _read_sym(br, hts[(0, tdc)])
                        diff = _extend(br.read(size), size)
                        prev_dc[si] += diff
                        row[0] = prev_dc[si] << al
                    else:
                        if br.read(1):
                            row[0] |= 1 << al
                    if not progressive:
                        ac_tab = hts[(1, tac)]
                        k = 1
                        while k < 64:
                            rs = _read_sym(br, ac_tab)
                            r, s = rs >> 4, rs & 0x0F
                            if rs == 0x00:
                                break
                            if rs == 0xF0:
                                k += 16
                                continue
                            k += r
                            row[k] = _extend(br.read(s), s)
                            k += 1
        elif ss == 0 and ah > 0:
            # progressive DC refinement (non-interleaved form)
            for b in range(nby * nbx):
                for cid, _tdc, _tac in scan_tabs:
                    if br.read(1):
                        coefs[cid_index[cid]][b][0] |= 1 << al
        else:
            # progressive AC scan — exactly one component (T.81 G.1.1.1)
            assert len(scan_tabs) == 1, "AC scans are single-component"
            cid, _tdc, tac = scan_tabs[0]
            ci = cid_index[cid]
            ac_tab = hts[(1, tac)]
            eobrun = 0
            for b in range(nby * nbx):
                row = coefs[ci][b]
                if ah == 0:                      # AC first scan
                    if eobrun > 0:
                        eobrun -= 1
                        continue
                    k = ss
                    while k <= se:
                        rs = _read_sym(br, ac_tab)
                        r, s = rs >> 4, rs & 0x0F
                        if s == 0:
                            if r == 15:
                                k += 16          # ZRL
                                continue
                            eobrun = (1 << r) - 1
                            if r:
                                eobrun += br.read(r)
                            break
                        k += r
                        row[k] = _extend(br.read(s), s) << al
                        k += 1
                else:                            # AC refinement (G.1.2.3)
                    bit = 1 << al
                    if eobrun > 0:
                        eobrun -= 1
                        for k in range(ss, se + 1):
                            if row[k]:
                                if br.read(1) and not (row[k] & bit):
                                    row[k] += bit if row[k] > 0 else -bit
                        continue
                    k = ss
                    while k <= se:
                        rs = _read_sym(br, ac_tab)
                        r, s = rs >> 4, rs & 0x0F
                        newval = 0
                        if s == 0:
                            if r < 15:
                                eobrun = (1 << r) - 1
                                if r:
                                    eobrun += br.read(r)
                                r = 64           # flush remaining positions
                        else:
                            assert s == 1, "refinement s must be 1"
                            newval = bit if br.read(1) else -bit
                        while k <= se:
                            if row[k]:
                                if br.read(1) and not (row[k] & bit):
                                    row[k] += bit if row[k] > 0 else -bit
                            else:
                                if r == 0:
                                    if newval:
                                        row[k] = newval
                                    k += 1
                                    break
                                r -= 1
                            k += 1

    C = _dct_matrix()
    planes = [np.zeros((H8, W8)) for _ in range(3)]
    for ci, (cid, tq) in enumerate(comps):
        blk = np.zeros((nby * nbx, 64), dtype=np.float64)
        blk[:, _ZIG] = coefs[ci]
        pix = _dct_product(C.T, blk.reshape(-1, 8, 8) * qt[tq], C) + 128.0
        planes[ci] = pix.reshape(nby, nbx, 8, 8).transpose(0, 2, 1, 3).reshape(
            H8, W8)
    Y, Cb, Cr = (p[:h, :w] for p in planes)
    r = Y + 1.402 * (Cr - 128.0)
    g = Y - 0.344136 * (Cb - 128.0) - 0.714136 * (Cr - 128.0)
    b = Y + 1.772 * (Cb - 128.0)
    out = np.stack([r, g, b], axis=2)
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


def import_jpeg(path: str, tile_rows: int = 64):
    """ImportImage (JPEG path): one decode task per file (entropy
    stream is sequential), packed-composite row-band tiles."""
    import ray.data as rd

    def load(batch) -> pd.DataFrame:
        with open(path, "rb") as f:
            a = decode_jpeg(f.read())
        r = a[:, :, 0].astype(np.float64)
        g = a[:, :, 1].astype(np.float64)
        b = a[:, :, 2].astype(np.float64)
        val = 255.0 * 16777216 + r * 65536 + g * 256 + b
        return _band_frames(val, tile_rows)

    return rd.range(1).map_batches(load, batch_format="numpy")


def jpeg_roundtrip_query():
    """Deterministic conformance (rows-only — DCT chains are not
    SQL-expressible): encode the quantized synth band, decode through
    the Ray import, checksum. decode(encode(x)) is bit-stable (pure
    integer/fixed-order-float pipeline), so the output is a constant of
    the seed."""
    from ..core.rng import NODATA
    from ..stages.raster import RasterSpec, raster_row_checksums, synth_value

    spec = RasterSpec()
    cell = np.arange(spec.rows * spec.cols, dtype=np.int64)
    v = synth_value(cell).reshape(spec.rows, spec.cols)
    q = np.where(v == NODATA, 255.0, np.trunc(v * 0.255)).astype(np.uint8)
    path = "/tmp/graft_jpeg_rt.jpg"
    write_jpeg(path, q, quality=90)
    ds = import_jpeg(path, tile_rows=spec.tile_rows)
    return raster_row_checksums(ds, spec)


def jpeg_progressive_roundtrip_query():
    """Progressive (SOF2) conformance: encode the same synth band with
    the Annex G scan script, decode through the Ray import, checksum.
    Carries the SAME quantized coefficients as the baseline encoding,
    so the checksums equal ``jpeg_roundtrip``'s (pytest-asserted in
    tests/test_geotiff.py); rows-only for the driver (DCT not SQL)."""
    from ..core.rng import NODATA
    from ..stages.raster import RasterSpec, raster_row_checksums, synth_value

    spec = RasterSpec()
    cell = np.arange(spec.rows * spec.cols, dtype=np.int64)
    v = synth_value(cell).reshape(spec.rows, spec.cols)
    q = np.where(v == NODATA, 255.0, np.trunc(v * 0.255)).astype(np.uint8)
    path = "/tmp/graft_jpeg_prog_rt.jpg"
    write_jpeg_progressive(path, q, quality=90)
    ds = import_jpeg(path, tile_rows=spec.tile_rows)
    return raster_row_checksums(ds, spec)


def jpeg_roundtrip_sql(quality: int = 90, rows: int = 256,
                       cols: int = 256, round_to: int = 6) -> str:
    """Exact DuckDB mirror of ``jpeg_roundtrip_query`` AND
    ``jpeg_progressive_roundtrip_query``. The Huffman layer is
    LOSSLESS (and the progressive scan script carries the identical
    quantized coefficients — pytest-pinned), so decode(encode(x)) is
    exactly the quantization math: YCbCr → per-8×8 DCT → floor(f/q +
    0.5)·q → IDCT → RGB → clip(floor(+0.5)). Every dot product is
    emitted as an EXPLICIT sequential 8-term expression over pivoted
    columns, the order in which the codec's ``_dct_product``
    accumulates (numpy's ``@`` is not bit-identical to it on every
    host), and sequential order is REQUIRED: flat blocks put DC/q
    exactly on .5 quantization boundaries, where a hash-aggregate SUM's
    arbitrary order flips floor() (measured 58 of 256 row checksums
    wrong with SUM). Packed ARGB row sums are integer-valued, so the
    final aggregation order is exact."""
    C = _dct_matrix()
    qy, qc = _scaled_q(quality)

    def dot(vals, coefs):
        e = f"({vals[0]} * {coefs[0]})"
        for v, c in zip(vals[1:], coefs[1:]):
            e = f"({e} + ({v} * {c}))"
        return e

    def pivot(src, keys, piv, val, n=8):
        cs = ", ".join(f"max(CASE WHEN {piv} = {i} THEN {val} END) AS p{i}"
                       for i in range(n))
        return f"SELECT {keys}, {cs} FROM {src} GROUP BY {keys}"

    qy_vals = ", ".join(f"({i},{j},{int(qy[i, j])})"
                        for i in range(8) for j in range(8))
    qc_vals = ", ".join(f"({i},{j},{int(qc[i, j])})"
                        for i in range(8) for j in range(8))
    t1_sel = " UNION ALL ".join(
        f"SELECT comp, bry, bcx, {u} AS u, j, "
        + dot([repr(C[u, k]) for k in range(8)],
              [f"p{k}" for k in range(8)])
        + " AS v FROM blkp" for u in range(8))
    f_sel = " UNION ALL ".join(
        f"SELECT comp, bry, bcx, u AS i, {v} AS j, "
        + dot([f"p{c}" for c in range(8)],
              [repr(C[v, c]) for c in range(8)])
        + " AS v FROM t1p" for v in range(8))
    t2_sel = " UNION ALL ".join(
        f"SELECT comp, bry, bcx, {u} AS u, j, "
        + dot([repr(C[i, u]) for i in range(8)],
              [f"p{i}" for i in range(8)])
        + " AS v FROM fdp" for u in range(8))
    dec_sel = " UNION ALL ".join(
        f"SELECT comp, bry, bcx, u, {c} AS c, "
        + dot([f"p{j}" for j in range(8)],
              [repr(C[j, c]) for j in range(8)])
        + " + 128.0 AS v FROM t2p" for c in range(8))

    return f"""
WITH
qt(comp, i, j, q) AS (
  SELECT 0, i, j, q FROM (VALUES {qy_vals}) a(i, j, q)
  UNION ALL SELECT 1, i, j, q FROM (VALUES {qc_vals}) a(i, j, q)
  UNION ALL SELECT 2, i, j, q FROM (VALUES {qc_vals}) a(i, j, q)),
px AS MATERIALIZED (
  SELECT i // {cols} AS r, i % {cols} AS c,
    CAST(CASE WHEN ((i * 2246822519 + 1013904223) % 4294967296) % 17 = 0
         THEN 255.0
         ELSE trunc((((i * 2654435761) % 4294967296) / 4294967296.0
                     * 1000.0) * 0.255) END AS DOUBLE) AS g
  FROM range(0, {rows * cols}) t(i)),
ycc AS MATERIALIZED (
  SELECT r, c,
    0.299 * g + 0.587 * g + 0.114 * g AS y0,
    -0.168736 * g - 0.331264 * g + 0.5 * g + 128.0 AS cb,
    0.5 * g - 0.418688 * g - 0.081312 * g + 128.0 AS cr
  FROM px),
plane AS MATERIALIZED (
  SELECT 0 AS comp, r, c, y0 - 128.0 AS v FROM ycc
  UNION ALL SELECT 1, r, c, cb - 128.0 FROM ycc
  UNION ALL SELECT 2, r, c, cr - 128.0 FROM ycc),
blk AS MATERIALIZED (
  SELECT comp, r // 8 AS bry, c // 8 AS bcx, r % 8 AS i, c % 8 AS j, v
  FROM plane),
blkp AS MATERIALIZED ({pivot('blk', 'comp, bry, bcx, j', 'i', 'v')}),
t1 AS MATERIALIZED ({t1_sel}),
t1p AS MATERIALIZED ({pivot('t1', 'comp, bry, bcx, u', 'j', 'v')}),
f AS MATERIALIZED ({f_sel}),
fd AS MATERIALIZED (
  SELECT f.comp, f.bry, f.bcx, f.i, f.j,
         floor(f.v / q.q + 0.5) * q.q AS v
  FROM f JOIN qt q ON q.comp = f.comp AND q.i = f.i AND q.j = f.j),
fdp AS MATERIALIZED ({pivot('fd', 'comp, bry, bcx, j', 'i', 'v')}),
t2 AS MATERIALIZED ({t2_sel}),
t2p AS MATERIALIZED ({pivot('t2', 'comp, bry, bcx, u', 'j', 'v')}),
dec AS MATERIALIZED ({dec_sel}),
decg AS MATERIALIZED (
  SELECT comp, bry * 8 + u AS r, bcx * 8 + c AS c, v FROM dec),
rgb AS MATERIALIZED (
  SELECT y.r AS rr, y.c AS cc,
    least(greatest(floor((y.v + 1.402 * (cr.v - 128.0)) + 0.5), 0), 255)
      AS red,
    least(greatest(floor((y.v - 0.344136 * (cb.v - 128.0)
                          - 0.714136 * (cr.v - 128.0)) + 0.5), 0), 255)
      AS grn,
    least(greatest(floor((y.v + 1.772 * (cb.v - 128.0)) + 0.5), 0), 255)
      AS blu
  FROM (SELECT * FROM decg WHERE comp = 0) y
  JOIN (SELECT * FROM decg WHERE comp = 1) cb
    ON cb.r = y.r AND cb.c = y.c
  JOIN (SELECT * FROM decg WHERE comp = 2) cr
    ON cr.r = y.r AND cr.c = y.c)
SELECT CAST(rr AS BIGINT) AS row_id,
       CAST(count(*) AS BIGINT) AS n_valid,
       round(sum(255.0 * 16777216 + red * 65536 + grn * 256 + blu),
             {round_to}) AS row_sum
FROM rgb GROUP BY rr ORDER BY row_id
"""
