"""stages/vhash: the vectorized table-driven CRC32 must be
bit-identical to zlib.crc32 over arbitrary bytes, and the md5-per-
distinct-text kernel must equal a per-row hashlib md5 (the DuckDB
oracles replay the exact hashes, so any divergence is a correctness
break, not a perf nit)."""

import hashlib
import zlib

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from whitebox_geospatial_analysis_tools_ray.stages.vhash import (
    crc32_arrow_strings, crc32_rows, text_md5_codes)


def _pack(rows):
    buf = np.frombuffer(b"".join(rows), dtype=np.uint8)
    offs = np.concatenate(
        [[0], np.cumsum([len(r) for r in rows])]).astype(np.int64)
    return buf, offs


@settings(max_examples=200, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=300), min_size=0,
                max_size=40))
def test_crc32_rows_matches_zlib_on_arbitrary_bytes(rows):
    buf, offs = _pack(rows)
    got = crc32_rows(buf, offs)
    want = np.array([zlib.crc32(r) for r in rows], dtype=np.int64)
    assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(min_size=0, max_size=120), min_size=0,
                max_size=30))
def test_crc32_arrow_strings_matches_zlib_utf8(strings):
    col = pa.chunked_array([pa.array(strings, pa.string())])
    got = crc32_arrow_strings(col)
    want = np.array([zlib.crc32(s.encode("utf-8")) for s in strings],
                    dtype=np.int64)
    assert np.array_equal(got, want)


def test_crc32_arrow_slices_chunks_and_large_string():
    urls = ["https://example.com/%d/ünïcode-%d" % (i, i * 7)
            for i in range(3000)]
    want = np.array([zlib.crc32(u.encode("utf-8")) for u in urls],
                    dtype=np.int64)
    # multi-chunk
    col = pa.chunked_array([pa.array(urls[:1700]), pa.array(urls[1700:])])
    assert np.array_equal(crc32_arrow_strings(col), want)
    # non-zero array offset (sliced child keeps the parent buffer)
    sl = pa.array(urls).slice(137, 500)
    assert np.array_equal(crc32_arrow_strings(sl), want[137:637])
    # large_string (8-byte offsets)
    big = pa.array(urls, pa.large_string())
    assert np.array_equal(crc32_arrow_strings(big), want)
    # empty
    assert len(crc32_arrow_strings(pa.array([], pa.string()))) == 0


def test_url_ids_arrow_delegates_to_vectorized_crc():
    from whitebox_geospatial_analysis_tools_ray.pipelines.pages_flagship import (
        url_ids, url_ids_arrow)

    urls = ["https://w%d.example.org/p?q=%d" % (i, i) for i in range(500)]
    got = url_ids_arrow(pa.chunked_array([pa.array(urls)]))
    assert np.array_equal(got, url_ids(urls))


def _md5_ref(texts):
    return [hashlib.md5((t if isinstance(t, str) else "")
                        .encode("utf-8")).hexdigest() for t in texts]


def _check_md5_codes(col, texts):
    codes, md5_hex = text_md5_codes(col)
    assert codes.dtype == np.int64 and len(codes) == len(texts)
    assert md5_hex.dtype == object and md5_hex.ndim == 1
    assert list(md5_hex[codes]) == _md5_ref(texts)
    # one slot per distinct text: equal texts (null ≡ "") share a
    # code, unequal texts never do, and every slot is used
    norm = [t if isinstance(t, str) else "" for t in texts]
    assert len(set(zip(codes.tolist(), norm))) == len(set(norm))
    assert set(codes.tolist()) == set(range(len(md5_hex)))


_TEXT = st.one_of(
    st.none(),
    st.sampled_from(["", "a", "\x00", "a\x00b", "é", "日本語\x00", "a "]),
    st.text(max_size=60))


@settings(max_examples=150, deadline=None)
@given(st.lists(_TEXT, min_size=0, max_size=40), st.data())
def test_text_md5_codes_matches_hashlib_per_row(texts, data):
    split = data.draw(st.integers(0, len(texts)))
    lo = data.draw(st.integers(0, len(texts)))
    hi = data.draw(st.integers(lo, len(texts)))
    # flat, large_string and chunked layouts of the same texts
    _check_md5_codes(pa.array(texts, pa.string()), texts)
    _check_md5_codes(pa.array(texts, pa.large_string()), texts)
    _check_md5_codes(pa.chunked_array(
        [pa.array(texts[:split], pa.string()),
         pa.array(texts[split:], pa.string())]), texts)
    _check_md5_codes(pa.chunked_array(
        [pa.array(texts[:split], pa.large_string()),
         pa.array(texts[split:], pa.large_string())]), texts)
    # a sliced child keeps its parent's buffers and a non-zero offset
    _check_md5_codes(pa.array(texts, pa.string()).slice(lo, hi - lo),
                     texts[lo:hi])
    _check_md5_codes(pa.chunked_array(
        [pa.array(texts, pa.large_string()).slice(lo, hi - lo)]),
        texts[lo:hi])


def test_text_md5_codes_null_typed_and_empty_columns():
    # an all-null column read from pandas is null-typed, not string
    for n in (0, 1, 5):
        _check_md5_codes(pa.nulls(n), [None] * n)
        _check_md5_codes(pa.chunked_array([pa.nulls(n), pa.nulls(2)]),
                         [None] * (n + 2))
    _check_md5_codes(pa.chunked_array([], pa.string()), [])
    _check_md5_codes(pa.chunked_array([pa.array([], pa.string()),
                                       pa.array(["x", None, "x"])]),
                     ["x", None, "x"])
