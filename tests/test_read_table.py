"""``sources.read_table``: the one Parquet source.

Its fan-out rule is one read task per file for several files, capped at
4 per CPU (at least 128) and at one per MiB, and Ray's default for a
single file. Task counts are read from ``Dataset.stats()``. A shard
whose footer is cut off raises an error that names the file.
"""

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from conftest import SF_DIR, assert_matches_oracle
from whitebox_geospatial_analysis_tools_ray import oracle
from whitebox_geospatial_analysis_tools_ray.sources import MIB, read_table
from whitebox_geospatial_analysis_tools_ray.sources.pages import (
    make_pages_ids, skew_ids)

N_PAGES = 4_000           # 4 uncompressed shards of 1,000 pages, each over 1 MiB
HOT_FRAC = 0.5
_OP_TASKS = re.compile(r"^Operator \d+ .+?: (\d+) tasks executed", re.MULTILINE)


def read_map_tasks(ds) -> int:
    """Tasks of the read and of a map stage on top of it, from
    ``Dataset.stats()``. One block per read task fuses the map into the
    read (``ReadParquet->MapBatches``); a read whose blocks Ray splits
    (``ReadParquet->SplitBlocks(k)``) runs one more task per block."""
    def identity(batch):        # nested, so workers unpickle it by value
        return batch

    stats = ds.map_batches(identity, batch_format="pyarrow").materialize().stats()
    assert "ReadParquet" in stats, stats
    return sum(map(int, _OP_TASKS.findall(stats)))


@pytest.fixture(scope="module")
def pages_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pages4")
    ids = skew_ids(np.arange(N_PAGES, dtype=np.int64), HOT_FRAC)
    for i, part in enumerate(np.array_split(ids, 4)):
        pq.write_table(pa.Table.from_pandas(make_pages_ids(part),
                                            preserve_index=False),
                       d / f"part-{i}.parquet", compression="none",
                       use_dictionary=False)
    return str(d)


def test_one_task_per_file(ray_session, pages_dir):
    files = sorted(os.listdir(pages_dir))
    assert len(files) == 4
    assert all(os.path.getsize(os.path.join(pages_dir, f)) >= MIB
               for f in files)
    assert read_map_tasks(read_table(pages_dir, columns=["text"])) == 4
    assert read_map_tasks(read_table(
        [os.path.join(pages_dir, f) for f in files])) == 4


def test_many_tiny_files_no_more_tasks_than_default(ray_session, tmp_path):
    paths = []
    for i in range(237):
        paths.append(str(tmp_path / f"part-{i}.parquet"))
        pq.write_table(pa.table({"k": [i], "v": [float(i)]}), paths[-1])
    got = read_table(paths)
    assert read_map_tasks(got) <= read_map_tasks(rd.read_parquet(paths))
    assert sorted(got.to_pandas()["k"]) == list(range(237))


def test_single_file_keeps_default(ray_session):
    path = f"{SF_DIR}/documents.parquet"
    assert (read_map_tasks(read_table(path, columns=["doc_id"]))
            == read_map_tasks(rd.read_parquet(path, columns=["doc_id"])))


def test_pages_exact_dedup_matches_oracle(ray_session, duck, pages_dir):
    from whitebox_geospatial_analysis_tools_ray.stages.dedup import (
        pages_exact_dedup)
    assert_matches_oracle(pages_exact_dedup(pages_dir), duck,
                          oracle.pages_exact_dedup_sql(N_PAGES, HOT_FRAC))


@pytest.mark.parametrize("layout", ["file", "directory"])
def test_truncated_footer_names_the_file(ray_session, tmp_path, layout):
    good = tmp_path / "part-0.parquet"
    bad = tmp_path / "part-1.parquet"
    table = pa.table({"k": np.arange(1000), "v": np.arange(1000) * 0.5})
    pq.write_table(table, good)
    pq.write_table(table, bad)
    os.truncate(bad, os.path.getsize(bad) - 6)   # footer length + magic
    path = str(bad) if layout == "file" else str(tmp_path)
    with pytest.raises(pa.ArrowInvalid, match=re.escape(
            f"Could not open Parquet input source '{bad}'")):
        read_table(path).materialize()
