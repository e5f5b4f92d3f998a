"""Pages flagship — the BASELINE.json headline over the REAL pages schema.

pages(url, warc_ts, html, text, lang) → extract text from html (frozen
byte-identical extractor) → geocode url → point → tile assignment
(TileLasFile rule) → broadcast PIP join against the polygon zone layer →
per-(tile, zone) partial count → tiny groupby. One fused task pass over
each Arrow batch (the kernel shared with ``flagship``:
:func:`.flagship.zone_tile_counts`); the only shuffle moves
pre-aggregated partials.

Column pruning: only (url, html) are read — ``text``/``lang`` never
leave the Parquet files (the extractor reproduces text byte-identically,
pytest-gated). This is the pipeline `bench.py --scaling` times at two
parallelism levels.
"""

from __future__ import annotations

import zlib

import numpy as np
import ray.data as rd

from ..core.rng import geocode_xy
from ..sources import read_table
from ..sources.pages import extract_texts
from .flagship import zone_tile_counts


def url_ids(urls) -> np.ndarray:
    """Deterministic int id per url (crc32 of the utf-8 bytes)."""
    return np.array([zlib.crc32(u.encode("utf-8")) for u in urls],
                    dtype=np.int64)


def url_ids_arrow(col) -> np.ndarray:
    """Same crc32 ids computed straight off the Arrow string buffer via
    the vectorized table-driven CRC (stages/vhash.crc32_rows —
    length-sorted column-contiguous numpy, bit-identical to zlib.crc32,
    pinned by a hypothesis battery), so the hot path runs
    ~max(len(url)) numpy steps per batch instead of one Python
    iteration per row."""
    from ..stages.vhash import crc32_arrow_strings
    return crc32_arrow_strings(col)


def pages_flagship(pages_dir: str, tile_width: float = 250.0) -> "rd.Dataset":
    """Returns (tile_id, zone_id, n_pages, sum_chars)."""
    def page_points(batch):
        """html→text, url→CRC32 id→point. Batches arrive as Arrow
        tables: the vectorized extractor and the crc32 ids read the
        binary/string buffers zero-copy instead of materializing
        per-row bytes/str."""
        texts = extract_texts(batch.column("html"))
        ids = url_ids_arrow(batch.column("url"))
        x, y = geocode_xy(ids)
        n_chars = np.fromiter((len(t) for t in texts), dtype=np.int64,
                              count=len(texts))
        return x, y, n_chars

    ds = read_table(pages_dir, columns=["url", "html"])
    # batch_size=None → one batch per 15,625-row shard block: 128 equal
    # tasks (4 clean waves on 32 CPUs) and read→map fusion; bundling to
    # larger batches made 43 ragged tasks whose last wave idled a third
    # of the machine.
    return zone_tile_counts(ds, page_points, tile_width, "n_pages",
                            "sum_chars", batch_format="pyarrow",
                            batch_size=None)
