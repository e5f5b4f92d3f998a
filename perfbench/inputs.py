"""Workload inputs, DuckDB oracles and the per-run correctness gate.

This module does not import Ray: ``prepare`` runs in a child process.
Inputs are generated by the benchmark, never by the program under test.
Each corpus is built once per (n, hot_frac) with the public
``sources.pages.make_pages_ids`` (and ``skew_ids`` for the skewed
corpus) and cached under the work directory. A run's ``--seed`` only
permutes which shard file each page id lands in: both generators are
pure per-id functions, so ``make_pages_ids(ids[perm])`` is the cached
table taken in ``perm`` order, and every seed shares one oracle while
batch contents change.
"""

from __future__ import annotations

import hashlib
import os
import uuid
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from whitebox_geospatial_analysis_tools_ray import oracle
from whitebox_geospatial_analysis_tools_ray.sources.pages import (
    make_pages_ids, skew_ids)

PAGES_SCHEMA = pa.schema([("url", pa.string()), ("warc_ts", pa.timestamp("us")),
                          ("html", pa.binary()), ("text", pa.string()),
                          ("lang", pa.string())])


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "flagship" | "dedup" | "job": which pipeline runs
    n: int               # input pages
    rows_per_shard: int  # pages per Parquet file
    hot_frac: float      # share of ids collapsed onto one hot page

    @property
    def n_files(self) -> int:
        return -(-self.n // self.rows_per_shard)


# Why each workload exists is in BENCHMARK.json and README.md, which
# lists only flagship and dedup_skew: a full comparison, 4 + 22 × 2 runs,
# has to fit in 3,420 s on a 1-core host (README.md, "Sizes"). job_write
# stays runnable by hand.
WORKLOADS = {w.name: w for w in [
    Workload("flagship", "flagship", 125_000, 15_625, 0.0),
    Workload("dedup_skew", "dedup", 62_500, 15_625, 0.5),
    Workload("job_write", "job", 50_000, 15_625, 0.0),
]}


class WorkDir:
    """Scratch space inside the checkout: corpus and oracle caches, the
    per-run shard and output directories, Ray's session directory."""

    def __init__(self, root: str):
        self.root = os.path.join(root, ".bench_work")
        os.makedirs(self.root, exist_ok=True)

    def path(self, *parts: str) -> str:
        return os.path.join(self.root, *parts)

    def fresh(self, prefix: str) -> str:
        """A new, not yet created path."""
        return self.path(f"{prefix}-{uuid.uuid4().hex[:10]}")


def _atomic_write_table(table: pa.Table, path: str) -> None:
    tmp = f"{path}.tmp-{uuid.uuid4().hex}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


def base_corpus(work: WorkDir, n: int, hot_frac: float) -> pa.Table:
    """All n pages in id order, cached per (n, hot_frac)."""
    path = work.path(f"corpus_n{n}_hot{hot_frac}.parquet")
    if not os.path.exists(path):
        ids = skew_ids(np.arange(n, dtype=np.int64), hot_frac)
        parts = [pa.Table.from_pandas(make_pages_ids(ids[i:i + 25_000]),
                                      schema=PAGES_SCHEMA, preserve_index=False)
                 for i in range(0, n, 25_000)]
        _atomic_write_table(pa.concat_tables(parts), path)
    return pq.read_table(path)


def seed_permutation(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).permutation(n)


def write_shards(work: WorkDir, w: Workload, seed: int) -> str:
    """Write the seed's shard layout into a fresh directory."""
    table = base_corpus(work, w.n, w.hot_frac).take(seed_permutation(w.n, seed))
    d = work.fresh(f"shards-{w.name}-s{seed}")
    os.makedirs(d)
    for i, lo in enumerate(range(0, w.n, w.rows_per_shard)):
        pq.write_table(table.slice(lo, w.rows_per_shard),
                       os.path.join(d, f"part-{i:05d}.parquet"))
    return d


def oracle_sql(w: Workload) -> str:
    if w.kind == "dedup":
        return oracle.pages_exact_dedup_sql(w.n, w.hot_frac)
    return oracle.pages_flagship_sql(w.n)


def oracle_frame(work: WorkDir, w: Workload) -> pd.DataFrame:
    """DuckDB oracle result, computed once per SQL text and cached."""
    import duckdb

    sql = oracle_sql(w)
    key = hashlib.md5(sql.encode()).hexdigest()[:16]
    path = work.path(f"oracle_{key}.parquet")
    if not os.path.exists(path):
        with duckdb.connect() as con:
            table = con.execute(sql).arrow()
        _atomic_write_table(table, path)
    return pq.read_table(path).to_pandas()


def frames_equal(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    """Exact equality of two all-integer frames as row multisets."""
    cols = sorted(want.columns)
    if sorted(got.columns) != cols or len(got) != len(want):
        return False
    g = got[cols].astype("int64").sort_values(cols).to_numpy()
    w = want[cols].astype("int64").sort_values(cols).to_numpy()
    return bool((g == w).all())


def manifest_matches(manifest: pd.DataFrame, want: pd.DataFrame) -> bool:
    """Manifest partition -> rows equals the oracle's rows per tile."""
    got = dict(zip(manifest["partition"].astype(int),
                   manifest["rows"].astype(int)))
    exp = {int(k): int(v) for k, v in want.groupby("tile_id").size().items()}
    return got == exp


def prepare(root: str, w: Workload, seed: int) -> str:
    """Write the seed's shards and fill the oracle cache; returns the
    shard directory."""
    work = WorkDir(root)
    oracle_frame(work, w)
    return write_shards(work, w, seed)
