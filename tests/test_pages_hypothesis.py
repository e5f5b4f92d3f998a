"""Hypothesis property suite pinning the vectorized page extractor to
the scalar first-occurrence extractor on ARBITRARY bytes — nested/unclosed
tags, NULs, non-UTF8 bytes, multiple template-marker occurrences,
sliced/chunked Arrow layouts. Equivalence means: identical extracted
string, or the identical exception class (ValueError when a marker is
missing, UnicodeDecodeError when the span is not UTF-8) — the vectorized
path must never turn one into the other, nor succeed where the scalar
path raises. ``text_char_counts`` is held to the same rule against
``len`` of the scalar result."""

import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from whitebox_geospatial_analysis_tools_ray.sources import pages


def _scalar_outcome(h: bytes):
    try:
        return ("ok", pages.extract_text_bytes(h))
    except Exception as ex:
        return ("err", type(ex).__name__)


def _vector_outcome(h: bytes):
    arr = pa.array([h], type=pa.binary())
    try:
        return ("ok", pages.extract_texts(arr)[0])
    except Exception as ex:
        return ("err", type(ex).__name__)


junk = st.binary(max_size=60)
payload_text = st.text(max_size=80)   # arbitrary unicode incl. NUL/controls


@settings(max_examples=250, deadline=None)
@given(junk1=junk, junk2=junk, junk3=junk)
def test_injected_markers_arbitrary_junk(junk1, junk2, junk3):
    """MID and SUFFIX injected between arbitrary byte junk (which may
    itself contain more markers, NULs, invalid UTF-8): per-row outcome
    identity with the scalar extractor."""
    h = junk1 + pages.HTML_MID + junk2 + pages.HTML_SUFFIX + junk3
    assert _vector_outcome(h) == _scalar_outcome(h)


@settings(max_examples=250, deadline=None)
@given(h=st.binary(max_size=200))
def test_totally_arbitrary_bytes(h):
    """Raw arbitrary bytes — usually missing the template markers, so
    both paths must raise the same exception class."""
    assert _vector_outcome(h) == _scalar_outcome(h)


@settings(max_examples=200, deadline=None)
@given(url=st.binary(max_size=40), text=payload_text)
def test_templated_pages_with_adversarial_payload(url, text):
    """Well-formed template rows whose url/text regions carry
    adversarial content (unclosed tags survive escaping of < >, NULs
    and controls pass through raw)."""
    h = (pages.HTML_PREFIX + url + pages.HTML_MID
         + pages._escape(text).encode("utf-8") + pages.HTML_SUFFIX)
    assert _vector_outcome(h) == _scalar_outcome(h)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(
    st.tuples(st.binary(max_size=30), payload_text), min_size=1,
    max_size=12),
    start=st.integers(min_value=0, max_value=5),
    split=st.integers(min_value=0, max_value=12))
def test_batch_layouts_match_scalar(rows, start, split):
    """Multi-row arrays under slice offsets and chunking: every
    extractable row equals the scalar result regardless of Arrow
    buffer layout."""
    htmls = [pages.HTML_PREFIX + u + pages.HTML_MID
             + pages._escape(t).encode("utf-8") + pages.HTML_SUFFIX
             for u, t in rows]
    want = [pages.extract_text_bytes(h) for h in htmls]
    arr = pa.array(htmls, type=pa.binary())
    assert pages.extract_texts(arr) == want
    s = min(start, len(htmls))
    assert pages.extract_texts(arr.slice(s)) == want[s:]
    sp = min(split, len(htmls))
    chunked = pa.chunked_array([arr.slice(0, sp), arr.slice(sp)])
    assert pages.extract_texts(chunked) == want


def test_null_cell_raises_like_scalar():
    arr = pa.array([None], type=pa.binary())
    with pytest.raises(TypeError):
        pages.extract_texts(arr)


# --- text_char_counts: len(extract_text_bytes(h)) without the string ----

def _scalar_len_outcome(h):
    """``bytes(None)`` raises TypeError, as the batch paths do on a null."""
    try:
        return ("ok", len(pages.extract_text_bytes(bytes(h))))
    except Exception as ex:
        return ("err", type(ex).__name__)


def _count_outcome(arr):
    try:
        return ("ok", pages.text_char_counts(arr).tolist())
    except Exception as ex:
        return ("err", type(ex).__name__)


def _scalar_lens_outcome(htmls):
    """The first failing row's exception class, else every length."""
    lens = []
    for h in htmls:
        kind, v = _scalar_len_outcome(h)
        if kind == "err":
            return (kind, v)
        lens.append(v)
    return ("ok", lens)


# pieces that steer the span pass off its fast path: entities, bytes
# >= 0x80 (valid and invalid UTF-8), NUL, stray '<' and a repeated suffix
spicy = st.lists(st.one_of(
    st.sampled_from([b"&", b"&amp;", b"&lt;", b"&gt;", "é".encode(),
                     "漢".encode(), b"\x00", b"\xff", b"\xc3", b"<",
                     pages.HTML_SUFFIX, b"plain words "]),
    st.binary(max_size=6)), max_size=8).map(b"".join)


def _spicy_page(url, text, tail):
    return pages.HTML_PREFIX + url + pages.HTML_MID + text \
        + pages.HTML_SUFFIX + tail


@settings(max_examples=150, deadline=None)
@given(junk1=spicy, junk2=spicy, junk3=spicy)
def test_char_counts_injected_markers(junk1, junk2, junk3):
    h = junk1 + pages.HTML_MID + junk2 + pages.HTML_SUFFIX + junk3
    assert _count_outcome(pa.array([h], type=pa.binary())) \
        == _scalar_lens_outcome([h])


@settings(max_examples=150, deadline=None)
@given(h=st.binary(max_size=200))
def test_char_counts_arbitrary_bytes(h):
    assert _count_outcome(pa.array([h], type=pa.binary())) \
        == _scalar_lens_outcome([h])


@settings(max_examples=150, deadline=None)
@given(url=st.binary(max_size=40), text=payload_text, tail=spicy)
def test_char_counts_adversarial_payload(url, text, tail):
    h = _spicy_page(url, pages._escape(text).encode("utf-8"), tail)
    assert _count_outcome(pa.array([h], type=pa.binary())) \
        == _scalar_lens_outcome([h])


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.one_of(
    st.tuples(st.binary(max_size=20), payload_text, spicy),
    st.tuples(st.just(b""), spicy, spicy)), min_size=1, max_size=12),
    nulls=st.lists(st.integers(min_value=0, max_value=11), max_size=2),
    start=st.integers(min_value=0, max_value=5),
    split=st.integers(min_value=0, max_value=12))
def test_char_counts_batch_layouts(rows, nulls, start, split):
    """Multi-row arrays under slice offsets and chunking, with escaped
    and raw (possibly invalid) text and optional null cells: the outcome
    of the whole batch is the scalar loop's — every length, or the
    exception class of the first row that fails."""
    htmls = [_spicy_page(u, pages._escape(t).encode("utf-8")
                         if isinstance(t, str) else t, tail)
             for u, t, tail in rows]
    for i in nulls:
        if i < len(htmls):
            htmls[i] = None
    arr = pa.array(htmls, type=pa.binary())
    assert _count_outcome(arr) == _scalar_lens_outcome(htmls)
    s = min(start, len(htmls))
    assert _count_outcome(arr.slice(s)) == _scalar_lens_outcome(htmls[s:])
    sp = min(split, len(htmls))
    chunked = pa.chunked_array([arr.slice(0, sp), arr.slice(sp)])
    assert _count_outcome(chunked) == _scalar_lens_outcome(htmls)
    large = pa.array(htmls, type=pa.large_binary())
    assert _count_outcome(large) == _scalar_lens_outcome(htmls)


def test_char_counts_null_cell_raises_type_error():
    good = _spicy_page(b"u", b"text", b"")
    for arr in (pa.array([None], type=pa.binary()),
                pa.array([good, None], type=pa.binary()),
                pa.chunked_array([pa.array([good], type=pa.binary()),
                                  pa.array([None], type=pa.binary())])):
        with pytest.raises(TypeError):
            pages.text_char_counts(arr)


def test_char_counts_template_corpus_and_empty_inputs():
    df = pages.make_pages(300)
    arr = pa.array([bytes(h) for h in df["html"]], type=pa.binary())
    got = pages.text_char_counts(arr)
    assert got.dtype == "int64"
    assert got.tolist() == [len(t) for t in df["text"]]
    for empty in (pa.array([], type=pa.binary()),
                  pa.chunked_array([], type=pa.binary())):
        assert pages.text_char_counts(empty).tolist() == []

