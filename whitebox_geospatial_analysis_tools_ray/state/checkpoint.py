"""Resumable partitioned output with per-partition lineage + row counts.

The north rule requires: "resumable from per-partition checkpoints with
lineage and row-count metrics". Design (SURVEY.md §4):

- output = one Parquet file per partition key, written ATOMICALLY
  (tmp file + os.replace) inside ``groupby(key).map_groups`` tasks;
- each completed partition gets a manifest row
  ``{partition, rows, path, stage, lineage}`` (lineage = input
  fingerprint + stage name) in ``_MANIFEST.jsonl``, which is committed
  whole the same way (tmp file + os.replace), plus a final
  ``_SUCCESS`` marker;
- resume = load the manifest, drop committed partition keys from the
  input with a vectorized ``map_batches`` filter, run the remainder.

A failed run therefore reprocesses only missing partitions; a completed
manifest makes the rerun a no-op (resume-equals-fresh-run is tested).
"""

from __future__ import annotations

import json
import os
import uuid
import warnings

import numpy as np
import pandas as pd


def content_fingerprint(path: str, params: str = "") -> str:
    """Content key for derived-artifact caches: md5 of file size + the
    parquet FOOTER bytes (row-group stats/offsets — any data change
    changes them) + params. Unlike an (size, mtime_ns) key, this
    survives `cp -p` / `rsync -a` fixture regeneration, which preserves
    timestamps and commonly preserves size. A sharded table is a
    DIRECTORY of parquet files (the 100-TB layout) — every shard's
    name + footer folds into the key."""
    import hashlib

    if os.path.isdir(path):
        h = hashlib.md5(f"dir|{params}".encode())
        for name in sorted(os.listdir(path)):
            if not name.endswith(".parquet"):
                continue
            h.update(name.encode())
            h.update(content_fingerprint(os.path.join(path, name))
                     .encode())
        return h.hexdigest()[:16]
    size = os.path.getsize(path)
    h = hashlib.md5(f"{size}|{params}".encode())
    with open(path, "rb") as f:
        f.seek(max(0, size - 65536))
        h.update(f.read())
    return h.hexdigest()[:16]


def content_cache_dir(src: str, prefix: str, params: str = "") -> tuple[str, bool]:
    """ONE stable cache dir per (source path, prefix) under /tmp whose
    validity is checked against ``content_fingerprint``. Returns
    (dir, valid): valid=True means the cached artifact matches the
    current source content; valid=False means the dir was wiped (stale
    content) or is new, and the caller must rebuild then call
    ``commit_cache_key``. Reusing one dir per source bounds /tmp growth
    (the old content-keyed-dir scheme accumulated one dir per mtime)."""
    import hashlib
    import shutil

    key = content_fingerprint(src, params)
    d = f"/tmp/{prefix}_{hashlib.md5(src.encode()).hexdigest()[:12]}"
    key_file = os.path.join(d, "_KEY")
    if os.path.exists(key_file):
        with open(key_file) as f:
            if f.read().strip() == key:
                return d, True
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d, exist_ok=True)
    return d, False


def commit_cache_key(cache_dir: str, src: str, params: str = "") -> None:
    with open(os.path.join(cache_dir, "_KEY"), "w") as f:
        f.write(content_fingerprint(src, params))


def _manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, "_MANIFEST.jsonl")


def load_manifest(out_dir: str) -> dict[int, dict]:
    """partition key → manifest row for committed partitions.

    A torn last line (a manifest appended line by line by a job that
    was killed mid-write) is dropped with a warning: its partition is
    then not committed, and the resume rewrites it. Any other line that
    does not parse raises."""
    path = _manifest_path(out_dir)
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        lines = f.read().splitlines()
    out = {}
    for i, line in enumerate(lines):
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            if i < len(lines) - 1:
                raise
            warnings.warn(f"{path}: dropping torn last line {line!r}")
            continue
        out[row["partition"]] = row
    return out


def is_complete(out_dir: str) -> bool:
    return os.path.exists(os.path.join(out_dir, "_SUCCESS"))


def checkpointed_write(ds, out_dir: str, key: str, stage: str,
                       lineage: str = "") -> pd.DataFrame:
    """Write `ds` partitioned by `key` with per-partition checkpoints.

    Returns the manifest as a DataFrame (partition, rows, path).
    """
    os.makedirs(out_dir, exist_ok=True)
    committed = load_manifest(out_dir)
    if committed:
        done = np.array(sorted(committed), dtype=np.int64)

        def drop_done(batch):
            k = np.asarray(batch[key], dtype=np.int64)
            m = ~np.isin(k, done)
            return {c: np.asarray(v)[m] for c, v in batch.items()}

        ds = ds.map_batches(drop_done, batch_format="numpy")

    def write_partition(g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow as pa
        import pyarrow.parquet as pq
        pid = int(g[key].iloc[0])
        final = os.path.join(out_dir, f"part-{pid}.parquet")
        tmp = os.path.join(out_dir, f".tmp-{pid}-{uuid.uuid4().hex}.parquet")
        pq.write_table(pa.Table.from_pandas(g, preserve_index=False), tmp)
        os.replace(tmp, final)  # atomic commit
        return pd.DataFrame({"partition": [pid], "rows": [len(g)],
                             "path": [final]})

    new_rows = ds.groupby(key).map_groups(
        write_partition, batch_format="pandas").to_pandas()

    manifest = committed | {
        int(r.partition): {"partition": int(r.partition), "rows": int(r.rows),
                           "path": r.path, "stage": stage, "lineage": lineage}
        for r in new_rows.itertuples()}
    tmp = f"{_manifest_path(out_dir)}.tmp-{uuid.uuid4().hex}"
    with open(tmp, "w") as f:
        f.writelines(json.dumps(m) + "\n" for _, m in sorted(manifest.items()))
    os.replace(tmp, _manifest_path(out_dir))  # atomic commit
    with open(os.path.join(out_dir, "_SUCCESS"), "w") as f:
        json.dump({"stage": stage, "partitions": len(manifest),
                   "total_rows": int(sum(m["rows"] for m in manifest.values()))},
                  f)
    return pd.DataFrame(
        [{"partition": p, "rows": m["rows"], "path": m["path"]}
         for p, m in sorted(manifest.items())])


def read_checkpointed(out_dir: str):
    """Read a checkpointed output back as a Ray Dataset."""
    from ..sources import read_table
    return read_table([m["path"] for m in load_manifest(out_dir).values()])
