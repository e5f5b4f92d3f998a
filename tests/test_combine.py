"""``util.combine``: the one keyed combine.

Its fan-out rule is one task for ``keys=()`` or at most
``COMBINE_TASK_ROWS`` partial rows, and hash buckets above that. Task
counts are read from ``Dataset.stats()``. With the threshold patched to
one row, a query of every converted family takes the bucketed path and
must still equal its oracle exactly.
"""

import re

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from conftest import SF_DIR, assert_matches_oracle
from whitebox_geospatial_analysis_tools_ray.stages import util
from whitebox_geospatial_analysis_tools_ray.stages.util import combine

_OP_TASKS = re.compile(r"^Operator \d+ (.+?): (\d+) tasks executed",
                       re.MULTILINE)


def combine_tasks(ds) -> int:
    """Tasks of the last operator of ``ds``: the combine's own stage."""
    return int(_OP_TASKS.findall(ds.materialize().stats())[-1][1])


def _partials(n: int, blocks: int = 8) -> "rd.Dataset":
    df = pd.DataFrame({"k": np.arange(n, dtype=np.int64) % 97,
                       "v": np.ones(n, dtype=np.int64)})
    return rd.from_pandas(df).repartition(blocks).materialize()


def _fold_fn():
    """A closure, so Ray workers receive it by value (module-level test
    functions pickle by reference, which workers cannot import)."""
    def fold(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", as_index=False)["v"].sum()
    return fold


def test_zero_rows_one_task(ray_session):
    empty = _partials(100).filter(lambda r: r["k"] < 0)
    out = combine(empty, "k", _fold_fn())
    assert combine_tasks(out) <= 1
    assert len(out.to_pandas()) == 0


def test_small_input_one_task(ray_session):
    out = combine(_partials(3000), "k", _fold_fn())
    assert combine_tasks(out) == 1
    got = out.to_pandas().sort_values("k").reset_index(drop=True)
    assert got["v"].sum() == 3000 and len(got) == 97


def test_global_keys_one_task(ray_session, monkeypatch):
    monkeypatch.setattr(util, "COMBINE_TASK_ROWS", 1)
    out = combine(_partials(3000), (), lambda df: df.nlargest(5, "k"))
    assert combine_tasks(out) == 1
    assert len(out.to_pandas()) == 5


def test_large_input_fans_out(ray_session, monkeypatch):
    monkeypatch.setattr(util, "COMBINE_TASK_ROWS", 100)
    out = combine(_partials(3000, blocks=64), "k", _fold_fn())
    assert combine_tasks(out) >= 4 * util.cluster_cpus()
    got = out.to_pandas().sort_values("k").reset_index(drop=True)
    want = _fold_fn()(_partials(3000).to_pandas()).sort_values("k")
    pd.testing.assert_frame_equal(got, want.reset_index(drop=True),
                                  check_dtype=False)


def test_one_block_input_fans_out(ray_session, monkeypatch):
    """The task count does not shrink to the input's block count: a
    combine fed by an earlier one-task combine gets one block, and above
    the threshold it still runs min(buckets, 4·CPUs) tasks or more."""
    import math

    monkeypatch.setattr(util, "COMBINE_TASK_ROWS", 100)
    one_block = combine(_partials(3000), (), lambda df: df)
    assert one_block.materialize().num_blocks() == 1
    buckets = max(4 * util.cluster_cpus(), math.ceil(3000 / 100))
    out = combine(one_block, "k", _fold_fn())
    assert combine_tasks(out) >= min(buckets, 4 * util.cluster_cpus())
    got = out.to_pandas().sort_values("k").reset_index(drop=True)
    want = _fold_fn()(_partials(3000).to_pandas()).sort_values("k")
    pd.testing.assert_frame_equal(got, want.reset_index(drop=True),
                                  check_dtype=False)


def test_stats_keep_upstream_operators(ray_session):
    """``combine`` materializes its input; the upstream operators stay
    in the output's stats chain."""
    src = _partials(3000).map_batches(lambda b: b, batch_format="pandas")
    names = [n for n, _ in _OP_TASKS.findall(
        combine(src, "k", _fold_fn()).materialize().stats())]
    assert any(n.startswith("MapBatches(<lambda>)") for n in names), names


FAMILIES = ["pages_flagship", "flagship", "exact_dedup", "ann_cosine_topk",
            "knn_idw", "events_asof_join", "construct_tin", "token_stats"]


@pytest.mark.parametrize("name", FAMILIES)
def test_forced_fanout_matches_oracle(name, duck, monkeypatch):
    """Every keyed combine of the query above one row takes the bucketed
    path, over at least 4·CPUs tasks (``test_one_block_input_fans_out``
    pins the count), and the result is still exact."""
    import __ray_entry__ as entry_mod
    monkeypatch.setattr(util, "COMBINE_TASK_ROWS", 1)
    impl, oracle = entry_mod.registry()[name]
    assert_matches_oracle(impl(SF_DIR), duck, oracle())
