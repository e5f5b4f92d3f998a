"""``util.combine``'s bucketed path: (a) results are invariant across
num_buckets ∈ {2, 64, 1024}, (b) the two-level hierarchical combine on
skew-oversized buckets is exact and live, and (c) the default fan-out
grows with the partial-row count."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from whitebox_geospatial_analysis_tools_ray.stages import util
from whitebox_geospatial_analysis_tools_ray.stages.util import combine

SF_DIR = "/root/testdata/sf0.001"


def _partials():
    """A skewed unbounded-key partial table: one hot key (1/3 of rows)
    plus a long tail, split over several blocks."""
    rng = np.random.RandomState(7)
    keys = np.where(rng.rand(3000) < 0.33, "hotkey",
                    np.char.add("k", rng.randint(0, 400, 3000)
                                .astype(str)))
    df = pd.DataFrame({"key": keys,
                       "val": np.arange(3000, dtype=np.int64)})
    return rd.from_pandas(df).repartition(8)


def _fns():
    """Combine/recombine built as CLOSURES so Ray workers receive them
    by value (module-level test functions pickle by reference, which
    workers cannot import)."""
    def fold(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("key", sort=False)
                .agg(total=("val", "sum"), n=("val", "count"))
                .reset_index().astype({"total": "int64", "n": "int64"}))

    def recombine(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("key", sort=False)
                .agg(total=("total", "sum"), n=("n", "sum"))
                .reset_index().astype({"total": "int64", "n": "int64"}))
    return fold, recombine


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values("key").reset_index(drop=True)


def test_result_invariance_across_bucket_counts():
    fold, _ = _fns()
    outs = {}
    for nb in (2, 64, 1024):
        outs[nb] = _canon(combine(_partials(), ["key"], fold,
                                  num_buckets=nb).to_pandas())
    pd.testing.assert_frame_equal(outs[2], outs[64])
    pd.testing.assert_frame_equal(outs[2], outs[1024])
    assert int(outs[2].loc[outs[2]["key"] == "hotkey", "n"].iloc[0]) > 500


def test_hierarchical_combine_matches_single_level():
    fold, recombine = _fns()
    flat = _canon(combine(_partials(), ["key"], fold,
                          num_buckets=4).to_pandas())
    # max_bucket_rows far below the hot bucket size forces the
    # two-level path on every bucket
    hier = _canon(combine(_partials(), ["key"], fold,
                          num_buckets=4, recombine=recombine,
                          max_bucket_rows=100).to_pandas())
    pd.testing.assert_frame_equal(flat, hier)


def test_hierarchical_path_engages_and_bounds_slices():
    """The max_bucket_rows guard must be LIVE, not decorative — the
    instrumentation actor records every engagement, slice sizes stay
    bounded (a slice exceeds the cap only when a single key group
    does), and results are exact."""
    import ray

    from whitebox_geospatial_analysis_tools_ray.stages.util import (
        hier_counter_actor)

    fold, recombine = _fns()
    ctr = hier_counter_actor()
    cap = 100
    flat = _canon(combine(_partials(), ["key"], fold,
                          num_buckets=4).to_pandas())
    hier = _canon(combine(_partials(), ["key"], fold,
                          num_buckets=4, recombine=recombine,
                          max_bucket_rows=cap,
                          hier_counter=ctr).to_pandas())
    pd.testing.assert_frame_equal(flat, hier)
    events = ray.get(ctr.get.remote())
    assert len(events) >= 1                      # guard actually fired
    hot = int(flat.loc[flat["key"] == "hotkey", "n"].iloc[0])
    for bucket_rows, n_slices, max_slice in events:
        assert bucket_rows > cap
        assert n_slices >= 2
        # key-snapped slicing: a slice exceeds the cap only if ONE key
        # group does; the hot key has `hot` partial rows at most
        assert max_slice <= max(cap, hot)


def test_hierarchical_summary_combine_exact_under_skew():
    """pages_exact_dedup-shaped per-bucket SUMMARY combine (keys
    dropped in the output): exact across the hierarchical path ONLY
    because slices never split a key — pin it."""
    import ray

    from whitebox_geospatial_analysis_tools_ray.stages.util import (
        hier_counter_actor)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        per_key = df.groupby("key", sort=False)["val"].count()
        return pd.DataFrame({
            "n_rows": [int(per_key.sum())],
            "n_distinct": [int(len(per_key))],
            "max_group": [int(per_key.max()) if len(per_key) else 0]})

    def recombine(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "n_rows": [int(df["n_rows"].sum())],
            "n_distinct": [int(df["n_distinct"].sum())],
            "max_group": [int(df["max_group"].max()) if len(df) else 0]})

    def summarize(buckets: pd.DataFrame) -> tuple:
        return (int(buckets["n_rows"].sum()),
                int(buckets["n_distinct"].sum()),
                int(buckets["max_group"].max()))

    flat = summarize(combine(_partials(), ["key"], fold,
                             num_buckets=4).to_pandas())
    ctr = hier_counter_actor()
    hier = summarize(combine(_partials(), ["key"], fold,
                             num_buckets=4, recombine=recombine,
                             max_bucket_rows=100,
                             hier_counter=ctr).to_pandas())
    assert flat == hier
    assert len(ray.get(ctr.get.remote())) >= 1


def test_pages_exact_dedup_hierarchical_skew():
    """End-to-end: the skewed pages corpus through pages_exact_dedup
    with a cap that engages the hierarchical recombine — counts exact
    vs the default path, engagement proven by the counter."""
    import ray

    from whitebox_geospatial_analysis_tools_ray.sources.pages import (
        generate_pages_dataset)
    from whitebox_geospatial_analysis_tools_ray.stages.dedup import (
        pages_exact_dedup)
    from whitebox_geospatial_analysis_tools_ray.stages.util import (
        hier_counter_actor)

    d = generate_pages_dataset(20_000, "/tmp/graft_pages_hier20k",
                               hot_frac=0.5)
    base = pages_exact_dedup(d)
    ctr = hier_counter_actor()
    hier = pages_exact_dedup(d, num_buckets=2, max_bucket_rows=1000,
                             hier_counter=ctr)
    pd.testing.assert_frame_equal(base, hier)
    assert int(base["n_pages"].iloc[0]) == 20_000
    assert int(base["max_group"].iloc[0]) >= 9_000   # the hot text
    assert len(ray.get(ctr.get.remote())) >= 1


def test_default_fanout_is_adaptive(monkeypatch):
    """Above ``COMBINE_TASK_ROWS`` partial rows the default fan-out is
    max(4·CPUs, ceil(rows / COMBINE_TASK_ROWS)) buckets over
    min(buckets, max(4·CPUs, input blocks)) tasks, read from
    ``Dataset.stats()``."""
    import math

    from test_combine import combine_tasks

    fold, _ = _fns()
    cpus = util.cluster_cpus()
    monkeypatch.setattr(util, "COMBINE_TASK_ROWS", 50)
    parts = _partials().repartition(128).materialize()
    buckets = max(4 * cpus, math.ceil(3000 / 50))
    tasks = min(buckets, max(4 * cpus, 128))
    assert combine_tasks(combine(parts, ["key"], fold)) == tasks
    assert tasks >= 4 * cpus


def test_exact_dedup_unchanged_under_adaptive_fanout(duck):
    """The flagship dedup kernel (now adaptive fan-out + hierarchical
    recombine) still matches its oracle exactly."""
    import __ray_entry__ as entry_mod
    from conftest import assert_matches_oracle
    qs, os_ = entry_mod.queries(), entry_mod.oracle_sql()
    assert_matches_oracle(qs["exact_dedup"](SF_DIR), duck,
                          os_["exact_dedup"])
