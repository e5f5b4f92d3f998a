"""Synthetic Common-Crawl-style ``pages`` table + byte-identical extractor.

BASELINE.json input_hint: Parquet pages(url:string, warc_ts:timestamp,
html:binary, text:string, lang:string); per-row invariant: extracted
text must be BYTE-IDENTICAL to the ``text`` column per url.

Generation (FIXTURES.md §1, seed embedded in the arithmetic — no RNG
state): tokens drawn by LCG per (doc, position), url from the doc id,
html = fixed template embedding the escaped text. The extractor
(:func:`extract_text`) inverts the template exactly; the pair is frozen
and the byte-equality is pytest-gated (tests/test_pages.py).

Zipf-style clustering of a fraction of rows into hot cells (skew case)
comes from the geocode rule applied to a truncated id space.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_WORDS = (
    "the of and to in is that it was for on are as with his they at be this "
    "have from or had by word but not what all were we when your can said "
    "there use an each which she do how their if will up other about out many "
    "then them these so some her would make like him into time has look two "
    "more write go see number no way could people my than first water been "
    "call who oil its now find long down day did get come made may part over").split()

_LANGS = ["en", "de", "fr", "es", "it"]

_M = 4294967296
_A = 2654435761
_B = 2246822519

HTML_PREFIX = b"<html><head><title>"
HTML_MID = b"</title></head><body><nav>site navigation | home | about</nav><p>"
HTML_SUFFIX = b"</p><footer>copyright notice - generated page</footer></body></html>"


def _escape(t: str) -> str:
    return t.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _unescape(t: str) -> str:
    return t.replace("&gt;", ">").replace("&lt;", "<").replace("&amp;", "&")


def make_pages(n: int, skew_frac: float = 0.2, n_hosts: int = 50) -> pd.DataFrame:
    return make_pages_ids(np.arange(n, dtype=np.int64), n_hosts=n_hosts)


def make_pages_ids(ids: np.ndarray, n_hosts: int = 50) -> pd.DataFrame:
    """Pages for an explicit id range — the task-parallel generation unit
    (rd.range(n) → map_batches(make_pages_ids) for the scaled corpus)."""
    ids = np.asarray(ids, dtype=np.int64)
    host = ids % n_hosts
    path_hash = (ids * _A + 17) % _M
    urls = [f"https://site{h}.example/{p:08x}" for h, p in zip(host, path_hash)]
    # warc_ts: fixed epoch + i*Δ with deterministic jitter
    base = np.int64(1_600_000_000_000_000)  # µs
    jitter = (ids * _B + 101) % 1_000_000
    ts = pd.to_datetime(base + ids * 60_000_000 + jitter, unit="us")
    lang = [(_LANGS[int(v)]) for v in (ids * _B + 7) % len(_LANGS)]
    texts = []
    for i in ids:
        ntok = 20 + int((i * _A + 31) % 180)
        idx = (i * 7919 + np.arange(ntok, dtype=np.int64) * 104729 + 13) % len(_WORDS)
        texts.append(" ".join(_WORDS[j] for j in idx))
    htmls = [HTML_PREFIX + u.encode() + HTML_MID + _escape(t).encode()
             + HTML_SUFFIX for u, t in zip(urls, texts)]
    return pd.DataFrame({"url": urls, "warc_ts": ts, "html": htmls,
                         "text": texts, "lang": lang})


def skew_ids(ids: np.ndarray, hot_frac: float, hot_id: int = 42) -> np.ndarray:
    """Collapse a deterministic ``hot_frac`` of ids onto ``hot_id`` —
    the worst-case web-corpus skew shape (templated duplicate pages):
    every collapsed row gets the SAME url, so the SAME geocode point,
    tile and zone. Used by the skew bench to show the flagship's
    per-batch partial aggregation absorbs a mega-hot key."""
    ids = np.asarray(ids, dtype=np.int64)
    if hot_frac <= 0.0:
        return ids
    hot = (ids * _B + 3) % 1000 < int(round(hot_frac * 1000))
    return np.where(hot, np.int64(hot_id), ids)


def generate_pages_dataset(n: int, out_dir: str,
                           rows_per_shard: int = 15_625,
                           hot_frac: float = 0.0) -> str:
    """Generate the scaled deterministic pages corpus as sharded Parquet
    under ``out_dir`` using Ray tasks (one shard per task). Idempotent:
    a ``_GENED`` marker with matching (n, hot_frac) short-circuits.
    ``hot_frac`` > 0 collapses that fraction of rows onto one duplicate
    page (one hot tile/zone — see :func:`skew_ids`). Returns out_dir."""
    import json
    import os

    import pyarrow as pa
    import ray.data as rd

    marker = os.path.join(out_dir, "_GENED")
    if os.path.exists(marker):
        m = json.load(open(marker))
        if m.get("n") == n and m.get("hot_frac", 0.0) == hot_frac:
            return out_dir
    # regenerating at a different n: wipe the directory first —
    # write_parquet APPENDS shard files, so stale shards from a previous
    # size would silently pollute the corpus
    if os.path.isdir(out_dir):
        import shutil
        shutil.rmtree(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    n_shards = (n + rows_per_shard - 1) // rows_per_shard

    def gen(batch) -> pd.DataFrame:
        frames = []
        for sid in batch["id"]:
            lo = int(sid) * rows_per_shard
            hi = min(lo + rows_per_shard, n)
            ids = skew_ids(np.arange(lo, hi, dtype=np.int64), hot_frac)
            frames.append(make_pages_ids(ids))
        return pd.concat(frames, ignore_index=True)

    # one block per shard (rd.range alone coalesces to ~2×CPUs blocks,
    # which would collapse the corpus into too few files to read in parallel)
    (rd.range(n_shards, override_num_blocks=n_shards)
     .map_batches(gen, batch_format="numpy", batch_size=1)
     .write_parquet(out_dir))
    with open(marker, "w") as f:
        json.dump({"n": n, "hot_frac": hot_frac}, f)
    return out_dir


def write_pages(n: int, path: str) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq
    df = make_pages(n)
    schema = pa.schema([("url", pa.string()), ("warc_ts", pa.timestamp("us")),
                        ("html", pa.binary()), ("text", pa.string()),
                        ("lang", pa.string())])
    pq.write_table(pa.Table.from_pandas(df, schema=schema,
                                        preserve_index=False), path)


def extract_text_bytes(html: bytes) -> str:
    """The frozen extractor: inverse of the page template, byte-exact."""
    start = html.index(HTML_MID) + len(HTML_MID)
    end = html.index(HTML_SUFFIX, start)
    return _unescape(html[start:end].decode("utf-8"))


# --- vectorized batch extractor ------------------------------------------
# Byte-identical to extract_text_bytes per row (property-tested in
# tests/test_pages.py and tests/test_pages_hypothesis.py): one span pass
# over each Arrow chunk PROVES where the scalar first-occurrence searches
# land, and any row it cannot prove goes to the scalar extractor, which
# returns or raises exactly as it always does. Proof sketch for an ``ok``
# row:
#   * ``pc.find_substring(arr, HTML_MID)`` is the first occurrence of
#     HTML_MID in the row, i.e. ``html.index(HTML_MID)``, so the text
#     starts right after it;
#   * the row ends with HTML_SUFFIX at p = len − len(HTML_SUFFIX) ≥ start,
#     HTML_SUFFIX starts with "<", and the span [start, p) holds no "<":
#     so no occurrence of HTML_SUFFIX begins inside the span, and p is
#     exactly ``html.index(HTML_SUFFIX, start)``.
# A null cell has a null position and is never ok, so the scalar path
# raises its TypeError. The suffix is tested with ``ends_with`` rather
# than searched for: a second ``find_substring`` scans the whole text.

_LT = ord("<")
_AMP = ord("&")


def _span_any(mask: np.ndarray, idx: np.ndarray,
              nonempty: np.ndarray) -> np.ndarray:
    """Per span: does ``mask`` hold a True inside it? ``idx`` interleaves
    the span starts and ends (one ``reduceat`` pass over the buffer; an
    empty span's reduceat value is a single element, hence ``nonempty``)."""
    return np.logical_or.reduceat(mask, idx)[0::2] & nonempty


def _template_spans(arr):
    """(starts, ends, ok, amp, plain, data memoryview) for one Arrow
    binary chunk.

    Spans are absolute offsets into the chunk's data buffer. ``ok`` rows
    are proven equal to the scalar extractor's span (proof above);
    ``amp`` marks ok spans holding a '&', the only ones unescape can
    change; ``plain`` marks ok spans with no '&' and no byte ≥ 0x80, whose
    text is ASCII and so has exactly ``end - start`` characters."""
    import pyarrow.compute as pc
    data, offs, mv = _chunk_np(arr)
    mid = pc.fill_null(pc.find_substring(arr, HTML_MID), -1).to_numpy()
    tail = pc.fill_null(pc.ends_with(arr, HTML_SUFFIX), False).to_numpy(
        zero_copy_only=False)
    base = offs[:-1]
    starts = base + mid + len(HTML_MID)
    ends = offs[1:] - len(HTML_SUFFIX)
    ok = (mid >= 0) & tail & (starts <= ends)
    starts = np.where(ok, starts, base)
    ends = np.where(ok, ends, base)
    if not len(data):       # every row empty or null: nothing is ok
        return starts, ends, ok, ok, ok, mv
    # indices past the buffer only come from empty spans
    idx = np.minimum(np.column_stack((starts, ends)).ravel(), len(data) - 1)
    nonempty = ends > starts
    ok &= ~_span_any(data == _LT, idx, nonempty)
    amp = ok & _span_any(data == _AMP, idx, nonempty)
    plain = ok & ~amp
    if data.max() >= 0x80:
        plain &= ~(nonempty & (np.maximum.reduceat(data, idx)[0::2] >= 0x80))
    return starts, ends, ok, amp, plain, mv


def _chunk_np(arr) -> tuple[np.ndarray, np.ndarray, "memoryview | None"]:
    """(data_u8, absolute offsets, data memoryview) for a Binary chunk."""
    import pyarrow as pa
    off_w = 8 if pa.types.is_large_binary(arr.type) else 4
    off_t = np.int64 if off_w == 8 else np.int32
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], dtype=off_t, count=len(arr) + 1,
                         offset=arr.offset * off_w).astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None \
        else np.zeros(0, dtype=np.uint8)
    mv = memoryview(bufs[2]) if bufs[2] is not None else None
    return data, offs, mv


def _binary_chunks(html_col) -> list:
    """The non-empty Arrow binary chunks of an Array / ChunkedArray / any
    bytes sequence."""
    import pyarrow as pa
    if isinstance(html_col, pa.ChunkedArray):
        chunks = html_col.chunks
    elif isinstance(html_col, pa.Array):
        chunks = [html_col]
    else:
        chunks = [pa.array(list(html_col), type=pa.binary())]
    return [arr for arr in chunks if len(arr)]


def _row_texts(arr, spans, rows: np.ndarray) -> list[str]:
    """Extracted text of the chunk's ``rows``: ok rows from their proven
    span, every other row through the scalar extractor."""
    starts, ends, ok, amp, _, mv = spans
    out = []
    for i, s, e, k, a in zip(rows.tolist(), starts[rows].tolist(),
                             ends[rows].tolist(), ok[rows].tolist(),
                             amp[rows].tolist()):
        if k:
            t = str(mv[s:e], "utf-8")
            out.append(_unescape(t) if a else t)
        else:
            # bytes(None) raises TypeError exactly like the scalar path
            # does on a null html cell
            out.append(extract_text_bytes(bytes(arr[i].as_py())))
    return out


def extract_texts(html_col) -> list[str]:
    """Batch extractor over an Arrow binary column (Array / ChunkedArray /
    any bytes sequence) — byte-identical to ``extract_text_bytes`` per
    row; non-template rows fall back to the scalar extractor."""
    out: list[str] = []
    for arr in _binary_chunks(html_col):
        out.extend(_row_texts(arr, _template_spans(arr),
                              np.arange(len(arr))))
    return out


def text_char_counts(html_col) -> np.ndarray:
    """``len(extract_text_bytes(h))`` per row as int64, without building a
    string for plain rows (ASCII text, no '&': the span length). Every
    other row is measured on its extracted text, so a row the scalar
    extractor rejects raises the same ValueError, UnicodeDecodeError or
    TypeError as ``extract_texts``."""
    out = []
    for arr in _binary_chunks(html_col):
        spans = _template_spans(arr)
        starts, ends, _, _, plain, _ = spans
        n = ends - starts
        slow = np.flatnonzero(~plain)
        if len(slow):
            n[slow] = [len(t) for t in _row_texts(arr, spans, slow)]
        out.append(n)
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)


def extract_text_stage(ds):
    """map_batches stage: html:binary → extracted:string (pass-through of
    all other columns). If a non-null `text` column exists the reference
    behaviour is pass-through unchanged (SURVEY.md §7.1)."""
    import pyarrow as pa

    def fn(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "extracted", pa.array(extract_texts(batch.column("html")),
                                  type=pa.string()))

    return ds.map_batches(fn, batch_format="pyarrow")
