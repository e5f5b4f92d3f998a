"""Pages flagship — the BASELINE.json headline over the REAL pages schema.

pages(url, warc_ts, html, text, lang) → character count of the text
extracted from html (the frozen byte-identical extractor's span pass,
:func:`..sources.pages.text_char_counts`) → geocode url → point → tile
assignment (TileLasFile rule) → broadcast PIP join against the polygon
zone layer → per-(tile, zone) partial count and character sum → tiny
combine. One fused task pass over each Arrow batch (the kernel shared
with ``flagship``: :func:`.flagship.zone_tile_counts`); the only shuffle
moves pre-aggregated partials.

Column pruning: only (url, html) are read — ``text``/``lang`` never
leave the Parquet files (the extractor reproduces text byte-identically,
pytest-gated, and ``text_char_counts`` equals ``len`` of its output row
for row, errors included). This is the pipeline `bench.py --scaling`
times at two parallelism levels.
"""

from __future__ import annotations

import zlib

import numpy as np
import ray.data as rd

from ..core.rng import geocode_xy
from ..sources import read_table
from ..sources.pages import text_char_counts
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
    """Returns (tile_id, zone_id, n_pages, sum_chars): pages per (tile,
    zone) and the total character count of their extracted texts."""
    def page_points(batch):
        """html→text length, url→CRC32 id→point. Batches arrive as
        Arrow tables: the character counts and the crc32 ids read the
        binary/string buffers zero-copy. Only the length of each
        extracted text is used, so no per-row string is built for a
        plain-ASCII, entity-free text (``text_char_counts``)."""
        n_chars = text_char_counts(batch.column("html"))
        x, y = geocode_xy(url_ids_arrow(batch.column("url")))
        return x, y, n_chars

    ds = read_table(pages_dir, columns=["url", "html"])
    # batch_size=None → one batch per 15,625-row shard block: 128 equal
    # tasks (4 clean waves on 32 CPUs) and read→map fusion; bundling to
    # larger batches made 43 ragged tasks whose last wave idled a third
    # of the machine.
    return zone_tile_counts(ds, page_points, tile_width, "n_pages",
                            "sum_chars", batch_format="pyarrow",
                            batch_size=None)
