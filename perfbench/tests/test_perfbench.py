"""The benchmark's own tests: the correctness gate, the stats parser, the
seed rule and the process bookkeeping. Run from the repository root:

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import glob
import hashlib
import os
import subprocess
import time

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from perfbench import inputs, memwatch, raystats, trace
from perfbench.run import PeakMemory, run_once, wait_ended
from whitebox_geospatial_analysis_tools_ray.pipelines import pages_flagship as flagship_mod
from whitebox_geospatial_analysis_tools_ray.sources.pages import (
    make_pages_ids, skew_ids)

SMALL = inputs.Workload("small", "flagship", 2_000, 300, 0.0)
SMALL_JOB = inputs.Workload("small_job", "job", 2_000, 300, 0.0)
SMALL_SKEW = inputs.Workload("small_skew", "dedup", 2_000, 300, 0.5)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return inputs.WorkDir(str(tmp_path_factory.mktemp("bench")))


@pytest.fixture(scope="module")
def flagship_oracle(work):
    return inputs.oracle_frame(work, SMALL)


# ---------------------------------------------------------------- gate

def test_oracle_matches_itself_and_cache(work, flagship_oracle):
    assert len(flagship_oracle) > 0
    assert inputs.frames_equal(flagship_oracle.sample(frac=1.0, random_state=0),
                           flagship_oracle)
    assert inputs.frames_equal(inputs.oracle_frame(work, SMALL), flagship_oracle)


def test_dropped_row_is_a_failure(flagship_oracle):
    assert not inputs.frames_equal(flagship_oracle.iloc[1:], flagship_oracle)


def test_changed_count_is_a_failure(flagship_oracle):
    bad = flagship_oracle.copy()
    bad.loc[bad.index[0], "n_pages"] += 1
    assert not inputs.frames_equal(bad, flagship_oracle)


def test_changed_manifest_row_count_is_a_failure(flagship_oracle):
    per_tile = flagship_oracle.groupby("tile_id").size()
    manifest = pd.DataFrame({"partition": per_tile.index, "rows": per_tile.values})
    assert inputs.manifest_matches(manifest, flagship_oracle)
    manifest.loc[0, "rows"] += 1
    assert not inputs.manifest_matches(manifest, flagship_oracle)


class _Result:
    def __init__(self, df):
        self.df = df

    def to_pandas(self):
        return self.df


def test_run_once_counts_a_corrupted_result(work, flagship_oracle, monkeypatch):
    monkeypatch.setattr(flagship_mod, "pages_flagship",
                        lambda shards: _Result(flagship_oracle.iloc[1:]))
    wall, ok = run_once(SMALL, "unused", flagship_oracle, work)
    assert wall >= 0 and not ok
    monkeypatch.setattr(flagship_mod, "pages_flagship",
                        lambda shards: _Result(flagship_oracle))
    assert run_once(SMALL, "unused", flagship_oracle, work)[1]


def test_dedup_changed_count_is_a_failure(work):
    want = inputs.oracle_frame(work, SMALL_SKEW)
    bad = want.copy()
    bad["max_group"] += 1
    assert inputs.frames_equal(want.copy(), want)
    assert not inputs.frames_equal(bad, want)


# ---------------------------------------------------------------- seeds

def _shard_files(work, w, seed):
    return sorted(glob.glob(os.path.join(inputs.write_shards(work, w, seed), "*.parquet")))


def test_seed_layout_is_the_generator_on_permuted_ids(work):
    perm = inputs.seed_permutation(SMALL_SKEW.n, 7)
    ids = skew_ids(np.arange(SMALL_SKEW.n, dtype=np.int64), 0.5)[perm]
    got = inputs.base_corpus(work, SMALL_SKEW.n, 0.5).take(perm).to_pandas()
    want = make_pages_ids(ids)
    for c in ["url", "html", "text", "lang"]:
        assert got[c].tolist() == want[c].tolist()
    assert (got["warc_ts"].to_numpy() == want["warc_ts"].to_numpy()).all()


def test_two_seeds_give_the_same_flagship_oracle_totals(work, flagship_oracle):
    a, b = _shard_files(work, SMALL, 1), _shard_files(work, SMALL, 2)
    assert len(a) == len(b) == SMALL.n_files
    assert (pq.read_table(a[0], columns=["url"]).column(0).to_pylist()
            != pq.read_table(b[0], columns=["url"]).column(0).to_pylist())
    for files in (a, b):
        got, counts = trace.redrive_pages(files, trace.Tracer("t", enabled=False))
        assert inputs.frames_equal(got, flagship_oracle)
        assert counts["hit_pairs"] == int(flagship_oracle["n_pages"].sum())
        assert counts["candidate_pairs"] >= counts["hit_pairs"]


def test_two_seeds_give_the_same_dedup_oracle_totals(work):
    want = inputs.oracle_frame(work, SMALL_SKEW)
    for seed in (1, 2):
        texts = pd.concat([pq.read_table(f, columns=["text"]).to_pandas()["text"]
                           for f in _shard_files(work, SMALL_SKEW, seed)])
        per_key = texts.map(lambda t: hashlib.md5(t.encode()).hexdigest()).value_counts()
        got = pd.DataFrame({"n_pages": [int(per_key.sum())],
                            "n_distinct": [len(per_key)],
                            "max_group": [int(per_key.max())]})
        assert inputs.frames_equal(got, want)


def test_job_workload_shares_the_flagship_oracle(work, flagship_oracle):
    assert inputs.oracle_sql(SMALL_JOB) == inputs.oracle_sql(SMALL)


# ---------------------------------------------------------------- tracing

def test_self_time_excludes_children():
    tr = trace.Tracer("t")
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(20_000))
    st = tr.self_times()
    outer = tr.spans[0][2] - tr.spans[0][1]
    inner = tr.spans[1][2] - tr.spans[1][1]
    assert st["inner"] == (pytest.approx(inner), 1)
    assert st["outer"][0] == pytest.approx(outer - inner)
    assert trace.Tracer("off", enabled=False).spans == []
    assert 0 < trace.Tracer.span_cost_s(1_000) < 1e-3


# ---------------------------------------------------------------- stats parser
# Dataset.stats() text captured from Ray 2.49.2 (trailing throughput
# bullets trimmed) for the two pipelines the benchmark runs.

FLAGSHIP_STATS = """\
Operator 1 ReadParquet->MapBatches(extract_geo_join): 7 tasks executed, 7 blocks produced in 0.97s
* Remote wall time: 53.6ms min, 152.3ms max, 122.39ms mean, 856.76ms total
* Remote cpu time: 49.47ms min, 145.79ms max, 118.12ms mean, 826.81ms total
* UDF time: 40.03ms min, 121.56ms max, 97.13ms mean, 679.91ms total
* Peak heap memory usage (MiB): 139.42 min, 149.21 max, 142 mean
* Output num rows per block: 445 min, 908 max, 836 mean, 5857 total
* Output size bytes per block: 14372 min, 29188 max, 26906 mean, 188348 total
* Tasks per node: 7 min, 7 max, 7 mean; 1 nodes used
* Operator throughput:
\t* Ray Data throughput: 6014.318717902091 rows/s

Operator 2 Repartition: executed in 1.13s

\tSuboperator 0 RepartitionSplit: 7 tasks executed, 7 blocks produced
\t* Remote wall time: 53.6ms min, 152.3ms max, 122.39ms mean, 856.76ms total
\t* UDF time: 40.03ms min, 121.56ms max, 97.13ms mean, 679.91ms total
\t* Peak heap memory usage (MiB): 139.42 min, 149.21 max, 142 mean
\t* Output num rows per block: 445 min, 908 max, 836 mean, 5857 total

\tSuboperator 1 RepartitionReduce: 1 tasks executed, 1 blocks produced
\t* Remote wall time: 1.71ms min, 1.71ms max, 1.71ms mean, 1.71ms total
\t* UDF time: 0us min, 0us max, 0.0us mean, 0us total
\t* Peak heap memory usage (MiB): 0.0 min, 0.0 max, 0 mean
\t* Output num rows per block: 5857 min, 5857 max, 5857 mean, 5857 total

Operator 3 MapBatches(final_combine): 1 tasks executed, 1 blocks produced in 0.01s
* Remote wall time: 11.75ms min, 11.75ms max, 11.75ms mean, 11.75ms total
* UDF time: 8.3ms min, 8.3ms max, 8.3ms mean, 8.3ms total
* Peak heap memory usage (MiB): 138.35 min, 138.35 max, 138 mean
* Output num rows per block: 484 min, 484 max, 484 mean, 484 total

Dataset throughput:
\t* Ray Data throughput: 471.5424781789327 rows/s
"""

DEDUP_STATS = """\
Operator 1 ReadParquet->SplitBlocks(9): 7 tasks executed, 63 blocks produced in 1.31s
* Remote wall time: 297.81us min, 25.48ms max, 1.73ms mean, 109.18ms total
* UDF time: 0us min, 0us max, 0.0us mean, 0us total
* Peak heap memory usage (MiB): 128.66 min, 150.76 max, 140 mean
* Output num rows per block: 1587 min, 1588 max, 1587 mean, 100000 total

Operator 2 MapBatches(partial)->MapBatches(add_bucket): 63 tasks executed, 63 blocks produced in 2.6s
* Remote wall time: 11.84ms min, 35.75ms max, 20.49ms mean, 1.29s total
* UDF time: 5.64ms min, 17.19ms max, 9.57ms mean, 602.64ms total
* Peak heap memory usage (MiB): 117.38 min, 141.2 max, 124 mean
* Output num rows per block: 769 min, 779 max, 773 mean, 48730 total

Operator 3 Repartition: executed in 3.28s

\tSuboperator 0 RepartitionSplit: 63 tasks executed, 64 blocks produced
\t* Remote wall time: 1.66ms min, 35.75ms max, 19.91ms mean, 1.27s total
\t* UDF time: 0us min, 17.19ms max, 9.29ms mean, 594.62ms total
\t* Output num rows per block: 386 min, 779 max, 761 mean, 48730 total

\tSuboperator 1 RepartitionReduce: 1 tasks executed, 2 blocks produced
\t* Remote wall time: 3.69ms min, 3.8ms max, 3.75ms mean, 7.5ms total
\t* Output num rows per block: 24365 min, 24365 max, 24365 mean, 48730 total

Operator 4 Sort: executed in 3.28s

\tSuboperator 0 SortMap: 1 tasks executed, 2 blocks produced
\t* Remote wall time: 1.7ms min, 1.91ms max, 1.8ms mean, 3.6ms total
\t* Output num rows per block: 24365 min, 24365 max, 24365 mean, 48730 total

\tSuboperator 1 SortReduce: 1 tasks executed, 2 blocks produced
\t* Remote wall time: 1.61ms min, 2.98ms max, 2.29ms mean, 4.59ms total
\t* Output num rows per block: 12036 min, 36694 max, 24365 mean, 48730 total

Operator 5 MapBatches(comb): 2 tasks executed, 2 blocks produced in 0.03s
* Remote wall time: 5.27ms min, 10.33ms max, 7.8ms mean, 15.6ms total
* UDF time: 2.99ms min, 7.0ms max, 4.99ms mean, 9.98ms total
* Peak heap memory usage (MiB): 124.94 min, 124.96 max, 124 mean
* Output num rows per block: 1 min, 3 max, 2 mean, 4 total

Dataset throughput:
\t* Ray Data throughput: 1.2473701865868445 rows/s
"""


def test_parser_reads_flagship_operators():
    ops = raystats.parse_stats(FLAGSHIP_STATS)
    assert [o.name for o in ops] == ["ReadParquet->MapBatches(extract_geo_join)",
                                     "Repartition", "MapBatches(final_combine)"]
    assert [s.name for s in ops[1].subops] == ["RepartitionSplit", "RepartitionReduce"]
    m = raystats.layer_metrics(ops, run_wall_s=1.5)
    assert m["ray.read_map.tasks"] == 7
    assert m["ray.read_map.remote_wall_s"] == pytest.approx(0.85676)
    assert m["ray.read_map.udf_s"] == pytest.approx(0.67991)
    assert m["ray.read_map.peak_heap_mb"] == pytest.approx(149.21)
    # the split stage re-reports the fused read/map tasks: counted once
    assert m["ray.shuffle.remote_wall_s"] == pytest.approx(0.00171)
    assert m["ray.shuffle.block_rows_max_over_mean"] == 1.0
    assert m["ray.combine.udf_s"] == pytest.approx(0.0083)
    assert m["ray.driver_overhead_s"] == pytest.approx(1.5 - 0.85676 - 0.00171 - 0.01175)
    assert m["shuffle_input_rows"] == 5857
    assert m["udf_calls"] == 7


def test_parser_reads_dedup_operators():
    ops = raystats.parse_stats(DEDUP_STATS)
    assert [o.name for o in ops] == ["ReadParquet->SplitBlocks(9)",
                                     "MapBatches(partial)->MapBatches(add_bucket)",
                                     "Repartition", "Sort", "MapBatches(comb)"]
    m = raystats.layer_metrics(ops, run_wall_s=4.0)
    assert m["ray.read_map.tasks"] == 70
    assert m["ray.read_map.remote_wall_s"] == pytest.approx(0.10918 + 1.29)
    assert m["ray.read_map.udf_s"] == pytest.approx(0.60264)
    assert m["ray.shuffle.remote_wall_s"] == pytest.approx(0.0075 + 0.0036 + 0.00459)
    assert m["ray.shuffle.block_rows_max_over_mean"] == pytest.approx(36694 / 24365)
    assert m["ray.combine.udf_s"] == pytest.approx(0.00998)
    assert m["shuffle_input_rows"] == 48730
    assert m["udf_calls"] == 63


# ---------------------------------------------------------------- processes

def test_wait_ended_kills_a_process_that_outlives_the_grace():
    child = subprocess.Popen(["sleep", "60"])
    try:
        t0 = time.monotonic()
        wait_ended([child.pid], timeout=0.2)
        assert time.monotonic() - t0 < 10
        assert child.wait(timeout=5) != 0
    finally:
        child.kill()
        child.wait()


def test_memwatch_counts_ray_named_processes_only():
    worker = subprocess.Popen(["bash", "-c", 'exec -a "ray::IDLE" sleep 60'])
    other = subprocess.Popen(["sleep", "60"])
    try:
        deadline = time.monotonic() + 5
        while (worker.pid not in memwatch.ray_processes(os.getpid())
               and time.monotonic() < deadline):
            time.sleep(0.02)
        found = memwatch.ray_processes(os.getpid())
        assert worker.pid in found and other.pid not in found
        assert memwatch.rss_mb(worker.pid) > 0
    finally:
        for p in (worker, other):
            p.kill()
            p.wait()
    assert memwatch.rss_mb(worker.pid) == 0.0


def test_peak_memory_covers_the_driver():
    before = memwatch.rss_mb(os.getpid())
    with PeakMemory() as mem:
        time.sleep(0.2)
        peak = mem.peak_mb()
    assert peak >= 0.9 * before > 0
    assert mem.proc.returncode == 0
