"""Regression tests for the trained-IVF training sample and sql_round.

The trained-IVF oracle once ranked the smallest-md5(vec_id)
training sample over NULL-FILTERED rows, while the impl's
_sample_vec_ids ranks ALL vec_ids (it scans only the 8-byte id column
— the 100-TB-cheap path) and drops null embeddings only after the
bottom-N cut. On a >sample_rows dirty table where null-embedding ids
fall inside the bottom-N md5 order the two training sets diverged
(40-id symmetric difference on this fixture). The oracle now mirrors
the impl: rank over all ids, drop nulls after the LIMIT.
"""

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import __ray_entry__ as entry_mod
from conftest import SF_DIR, TABLES, duck_connect


@pytest.fixture(scope="module")
def big_dirty_emb(tmp_path_factory):
    """3000-row embeddings table (> the 2000-row training sample) with
    ~31 null embeddings scattered so ~20 land inside the bottom-2000
    md5 order — the shape on which the oracle and the impl diverged."""
    d = tmp_path_factory.mktemp("big_dirty_emb")
    for t in TABLES[:-1]:
        shutil.copy(f"{SF_DIR}/{t}.parquet", d / f"{t}.parquet")
    rng = np.random.RandomState(7)
    n, D = 3000, 8
    emb = rng.standard_normal((n, D)).astype(np.float32)
    null_mask = (np.arange(n) % 97) == 5
    embs = [None if null_mask[i] else list(emb[i]) for i in range(n)]
    out = pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array(embs, pa.list_(pa.float32())),
        "label": pa.array((np.arange(n) % 5).astype(np.int32),
                          pa.int32())})
    pq.write_table(out, d / "embeddings.parquet")
    con = duck_connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{d}/{t}.parquet')")
    yield str(d), con
    con.close()


def test_sample_vec_ids_rank_all_then_drop_nulls(ray_session,
                                                 big_dirty_emb):
    """The effective (post-null-drop) impl sample must equal the
    oracle's smpsel→ev join — fewer than sample_rows usable rows."""
    d, con = big_dirty_emb
    from whitebox_geospatial_analysis_tools_ray.stages import embeddings as E

    ids = E._sample_vec_ids(d, 2000)
    assert len(ids) == 2000          # id-only scan keeps nulls
    t = pq.read_table(f"{d}/embeddings.parquet",
                      columns=["vec_id", "embedding"]).to_pandas()
    nulls = set(t[t["embedding"].isna()]["vec_id"].tolist())
    impl_eff = np.sort(np.array([i for i in ids if i not in nulls]))
    want = con.execute("""
      WITH ev AS (SELECT vec_id FROM embeddings
                  WHERE embedding IS NOT NULL),
      smpsel AS (SELECT vec_id, row_number() OVER (
                   ORDER BY md5(CAST(vec_id AS VARCHAR)), vec_id) - 1
                   AS ridx FROM embeddings)
      SELECT e.vec_id FROM ev e JOIN smpsel s ON s.vec_id = e.vec_id
      WHERE s.ridx < 2000""").fetchdf()["vec_id"].to_numpy()
    assert len(impl_eff) < 2000      # nulls landed in the cut
    assert np.array_equal(impl_eff, np.sort(want))


@pytest.mark.parametrize("name", ["ann_ivf_trained",
                                  "embedding_neardup_stats"])
def test_trained_ivf_parity_on_big_dirty_table(ray_session,
                                               big_dirty_emb, name):
    import ray.data as rd

    d, con = big_dirty_emb
    qs, oracles = entry_mod.queries(), entry_mod.oracle_sql()
    got = qs[name](d)
    if isinstance(got, rd.Dataset):
        got = got.to_pandas()
    elif isinstance(got, pa.Table):
        got = got.to_pandas()
    want = con.execute(oracles[name]).fetchdf()
    cols = sorted(got.columns)
    assert cols == sorted(want.columns)
    g = got[cols].sort_values(cols).reset_index(drop=True)
    w = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)


def test_sql_round_half_away_matches_duckdb_near_ties():
    """``floor(v + 0.5)`` rounds 0.5 - 2^-54 up to 1 because the sum is
    inexact; DuckDB's std::round keeps it at 0. Pin the value, its
    sign and the sign of zero."""
    import math

    from whitebox_geospatial_analysis_tools_ray.stages.util import sql_round

    con = duck_connect()
    for v in (0.49999999999999994, -0.49999999999999994, 2.5, -2.5,
              4.999999999999999, -4.999999999999999):
        for nd in (0, 2):
            duck = float(con.execute(
                "SELECT round(CAST(? AS DOUBLE), ?)", [v, nd]).fetchone()[0])
            got = sql_round(v, nd)
            assert got == duck, (v, nd, got, duck)
            assert math.copysign(1.0, got) == math.copysign(1.0, duck), (v, nd)
