"""Vectorized hashes over Arrow string buffers: row-wise CRC32 and
md5-per-distinct-text.

The flagship's url→id hash and the dedup family key short strings by
``zlib.crc32``. A Python loop of zero-copy memoryview slices is C-backed
per call, but still ~2M Python iterations per 2M-page batch wave: the
largest Python constant on the throughput-headline path.

``crc32_rows`` computes the SAME CRC-32 (polynomial 0xEDB88320,
init/final 0xFFFFFFFF — bit-identical to ``zlib.crc32``, which the
DuckDB oracles replay byte-exactly) with numpy, vectorized ACROSS rows:
rows are length-sorted, and step ``j`` gathers the j-th byte of every
row that still has bytes left, updating all their CRCs with one
table-lookup/XOR/shift triple. Work is O(total bytes) gathers — no
padded matrix, no per-row Python — and the Python-level loop count is
max(len), not n_rows (URLs are ~40–120 bytes; a 100k-row batch runs
~120 numpy steps instead of 100k crc calls).

``text_md5_codes`` is the exact-dedup key: Arrow's hash kernel groups
equal texts first, then md5 runs once per DISTINCT text, read zero-copy
from the dictionary's buffers. Per-row cost is the C hash kernel; the
Python loop runs over distinct texts only, so the saving scales with the
duplicate share of a batch.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["crc32_rows", "crc32_arrow_strings", "text_md5_codes"]


def _make_table() -> np.ndarray:
    """The standard reflected CRC-32 byte table (what zlib uses)."""
    t = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        t = np.where(t & 1, np.uint32(0xEDB88320) ^ (t >> np.uint32(1)),
                     t >> np.uint32(1))
    return t


_CRC_TABLE = _make_table()
_FF = np.uint32(0xFFFFFFFF)
_MASK8 = np.uint32(0xFF)
_SH8 = np.uint32(8)


def crc32_rows(buf: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """CRC32 of ``buf[offs[i]:offs[i+1]]`` for every row i.

    ``buf``: uint8 byte buffer; ``offs``: int64 array of n+1 offsets
    (monotone). Returns int64 values equal to ``zlib.crc32(bytes)``.

    Layout: rows are length-sorted and the bytes are repacked COLUMN-
    contiguous (all j-th bytes of rows still active at step j in one
    slice), so each step is a contiguous read + one 256-entry table
    gather + two in-place ops on the active suffix — no per-step index
    arithmetic and no temporaries.
    """
    buf = np.ascontiguousarray(buf, dtype=np.uint8)
    offs = np.asarray(offs, dtype=np.int64)
    n = len(offs) - 1
    if n <= 0:
        return np.zeros(max(n, 0), dtype=np.int64)
    lens = offs[1:] - offs[:-1]
    order = np.argsort(lens, kind="stable")
    slens = lens[order]
    starts = offs[:-1][order]
    maxlen = int(slens[-1])
    crc = np.full(n, _FF, dtype=np.uint32)
    if maxlen:
        # k_j = first row index still active at byte j (suffix [k_j:])
        ks = np.searchsorted(slens, np.arange(maxlen), side="right")
        counts = (n - ks).astype(np.int64)
        col_ptr = np.concatenate([[0], np.cumsum(counts)])
        idx = np.empty(int(col_ptr[-1]), dtype=np.int64)
        for j in range(maxlen):
            np.add(starts[ks[j]:], j, out=idx[col_ptr[j]:col_ptr[j + 1]])
        cb = buf[idx]                      # ONE transpose gather
        lo8 = crc.view(np.uint8)[0::4]     # little-endian low byte view
        scratch8 = np.empty(n, dtype=np.uint8)
        scratch32 = np.empty(n, dtype=np.uint32)
        for j in range(maxlen):
            k = int(ks[j])
            np.bitwise_xor(lo8[k:], cb[col_ptr[j]:col_ptr[j + 1]],
                           out=scratch8[k:])
            np.take(_CRC_TABLE, scratch8[k:], out=scratch32[k:])
            crc[k:] >>= _SH8
            crc[k:] ^= scratch32[k:]
    out = np.empty(n, dtype=np.int64)
    out[order] = (crc ^ _FF).astype(np.int64)
    return out


def _string_buffers(c) -> tuple[np.ndarray, np.ndarray]:
    """(int64 offsets[n+1], uint8 data) of one string/large_string
    Arrow array, zero-copy over its buffers (slices keep their offset)."""
    import pyarrow as pa

    off_t = np.int64 if pa.types.is_large_string(c.type) else np.int32
    bufs = c.buffers()
    offs = np.frombuffer(bufs[1], dtype=off_t, count=len(c) + 1,
                         offset=c.offset * np.dtype(off_t).itemsize)
    data = (np.frombuffer(bufs[2], dtype=np.uint8)
            if bufs[2] is not None else np.zeros(0, dtype=np.uint8))
    return offs.astype(np.int64), data


def crc32_arrow_strings(col) -> np.ndarray:
    """CRC32 ids straight off an Arrow string/large_string column's
    utf-8 data buffer (identical bytes to ``u.encode("utf-8")``) —
    zero-copy and row-loop-free. Null rows hash as empty strings."""
    import pyarrow as pa

    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    out = np.empty(sum(len(c) for c in chunks), dtype=np.int64)
    p = 0
    for c in chunks:
        if len(c) == 0:
            continue
        offs, data = _string_buffers(c)
        out[p:p + len(c)] = crc32_rows(data, offs)
        p += len(c)
    return out


def text_md5_codes(col) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal texts of an Arrow string column and md5 each
    distinct text once.

    ``col``: a string, large_string or null-typed Array/ChunkedArray.
    Returns ``(codes, md5_hex)``: ``codes`` is int64[n_rows] into
    ``md5_hex``, object[n_distinct] of hex digests. Row for row,
    ``md5_hex[codes]`` equals
    ``hashlib.md5((t if isinstance(t, str) else "").encode("utf-8"))
    .hexdigest()`` (null text ≡ ""), and two rows share a code iff their
    texts are equal — so a per-code count is a per-text count.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    if pa.types.is_null(col.type):
        # fill_null has no string value for a null-typed column
        col = col.cast(pa.string())
    enc = pc.dictionary_encode(pc.fill_null(col, ""))
    chunks = enc.chunks if isinstance(enc, pa.ChunkedArray) else [enc]
    if not chunks:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=object)
    codes = np.concatenate(
        [c.indices.to_numpy() for c in chunks]).astype(np.int64)
    # the chunks of one encode share a growing memo table, so the last
    # chunk's dictionary holds every code
    offs, data = _string_buffers(chunks[-1].dictionary)
    view = memoryview(data)
    b = offs.tolist()
    md5_hex = np.array([hashlib.md5(view[s:e]).hexdigest()
                        for s, e in zip(b[:-1], b[1:])], dtype=object)
    return codes, md5_hex
