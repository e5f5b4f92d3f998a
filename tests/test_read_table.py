"""``sources.read_table``: the one Parquet source.

Its fan-out rule is one read task per file for several files, capped at
4 per CPU (at least 128) and at one per MiB, and Ray's default for a
single file. Task counts are read from ``Dataset.stats()``. Each read
task is one block, so a ``batch_size=None`` map sees one batch per
task. A single file's plan is ``read_parquet``'s. A shard whose footer
is cut off, whose data page is corrupt, or whose schema cannot be cast
to the first file's raises an error that names the file.
"""

import os
import re
import signal
import subprocess
import sys

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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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


def batch_rows(ds) -> list[int]:
    """Row counts of the batches a ``batch_size=None`` map receives."""
    def rows(batch):            # nested, so workers unpickle it by value
        return pa.table({"rows": [batch.num_rows]})

    return sorted(ds.map_batches(rows, batch_format="pyarrow",
                                 batch_size=None).to_pandas()["rows"])


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    """237 one-row files, the partition count of a checkpointed
    flagship output."""
    d = tmp_path_factory.mktemp("tiny")
    paths = [str(d / f"part-{i}.parquet") for i in range(237)]
    for i, path in enumerate(paths):
        pq.write_table(pa.table({"k": [i], "v": [float(i)]}), path)
    return paths


def test_many_tiny_files_no_more_tasks_than_default(ray_session, tiny_files):
    paths = tiny_files
    got = read_table(paths)
    assert read_map_tasks(got) <= read_map_tasks(rd.read_parquet(paths))
    assert sorted(got.to_pandas()["k"]) == list(range(237))


def test_one_batch_per_shard(ray_session, tmp_path):
    """Two 15,625-row shards (each over 1 MiB, so one task each) reach
    the map as one batch each, not as Ray's 10,000-row fragments."""
    pad = pa.array([b"x" * 100] * 15_625)
    for i in range(2):
        pq.write_table(pa.table({"k": np.arange(15_625), "pad": pad}),
                       tmp_path / f"part-{i}.parquet", compression="none",
                       use_dictionary=False)
    assert batch_rows(read_table(str(tmp_path))) == [15_625, 15_625]


def test_one_batch_per_read_task(ray_session, tiny_files):
    ds = read_table(tiny_files)
    assert batch_rows(ds) == [237]
    assert read_map_tasks(ds) == 1


def test_single_file_keeps_default(ray_session):
    path = f"{SF_DIR}/documents.parquet"
    assert (read_map_tasks(read_table(path, columns=["doc_id"]))
            == read_map_tasks(rd.read_parquet(path, columns=["doc_id"])))


@pytest.mark.parametrize("table,columns", [
    ("documents", ["doc_id"]),
    ("documents", ["doc_id", "text"]),
    ("lineitem", ["l_returnflag", "l_linestatus", "l_quantity",
                  "l_extendedprice", "l_discount", "l_shipdate"]),
    ("events", ["ts", "user_id"]),
    ("embeddings", None)])
def test_single_file_estimate_is_read_parquets(ray_session, table, columns):
    """Ray sets a single file's read parallelism and block split from the
    in-memory estimate, so the estimate must be ``read_parquet``'s for
    the plan to be: at 8 CPUs, 6 columns of the sf0.1 lineitem split into
    24 blocks with it and 16 with the raw footer sizes. Compared directly,
    since at the test's CPU count the 2-blocks-per-CPU floor hides it."""
    from ray.data._internal.datasource.parquet_datasource import (
        ParquetDatasource)

    from whitebox_geospatial_analysis_tools_ray.sources.parquet import (
        ParquetFilesDatasource)
    path = f"{SF_DIR}/{table}.parquet"
    want = ParquetDatasource(path, columns=columns)
    got = ParquetFilesDatasource([path], columns)
    assert (abs(got.estimate_inmemory_data_size()
                - want.estimate_inmemory_data_size()) <= 1)


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


@pytest.mark.parametrize("second", ["missing column", "uncastable type"])
def test_schema_mismatch_names_the_file(ray_session, tmp_path, second):
    """Every file is cast to the first file's schema; a file that cannot
    be raises the named error from the read task."""
    pq.write_table(pa.table({"k": [1, 2], "v": pa.array([None, None])}),
                   tmp_path / "part-0.parquet")
    bad = tmp_path / "part-1.parquet"
    pq.write_table(pa.table({"k": [3]}) if second == "missing column"
                   else pa.table({"k": [3], "v": ["x"]}), bad)
    with pytest.raises(pa.ArrowInvalid, match=re.escape(
            f"Could not open Parquet input source '{bad}'")):
        read_table(str(tmp_path)).materialize()


CORRUPT_SCRIPT = f"""
import sys
sys.path[:0] = [{ROOT!r}]
import pyarrow as pa
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
from whitebox_geospatial_analysis_tools_ray.sources import read_table
for d in sys.argv[1:]:
    try:
        ds = read_table(d)
    except pa.ArrowInvalid as err:
        print("plan ArrowInvalid", " ".join(str(err).split()), flush=True)
        continue
    try:
        ds.materialize()
        print("no error", d, flush=True)
    except pa.ArrowInvalid as err:
        where = ("task" if isinstance(err, ray.exceptions.RayTaskError)
                 else "driver")
        print(where, "ArrowInvalid", " ".join(str(err).split()), flush=True)
ray.shutdown()
"""
CORRUPT_TIMEOUT_S = 90


def test_corrupt_data_page_names_the_file(tmp_path):
    """A 100 k-row file of 25 k-row row groups with 16 zeroed bytes over
    the first data page of row group 0 or 2 raises a typed error naming
    the file: row group 0 from the plan, whose encoding-ratio sample
    reads its first rows in the driver, and row group 2 from the read
    task, with no retry. The read runs in a child process under a
    deadline, so a read that never returns fails the test instead of
    hanging it."""
    table = pa.table({"k": np.arange(100_000),
                      "v": np.arange(100_000) * 0.5})
    bad = []
    for rg in (0, 2):
        d = tmp_path / f"rg{rg}"
        d.mkdir()
        path = d / "part-0.parquet"
        pq.write_table(table, path, row_group_size=25_000)
        offset = pq.read_metadata(path).row_group(rg).column(0) \
            .data_page_offset
        with open(path, "r+b") as f:
            f.seek(offset)
            f.write(bytes(16))
        bad.append(str(path))
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    proc = subprocess.Popen(
        [sys.executable, "-c", CORRUPT_SCRIPT, *map(os.path.dirname, bad)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CORRUPT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        pytest.fail(f"corrupt page read still running after "
                    f"{CORRUPT_TIMEOUT_S} s:\n{out[-3000:]}")
    assert proc.returncode == 0, out[-3000:]
    errors = [line for line in out.splitlines()
              if " ArrowInvalid " in line]
    assert len(errors) == 2, out[-3000:]
    for path, where, line in zip(bad, ["plan", "task"], errors):
        assert line.startswith(f"{where} ArrowInvalid "), line
        assert f"Could not open Parquet input source '{path}'" in line, line
        assert "Deserializing page header failed" in line, line
