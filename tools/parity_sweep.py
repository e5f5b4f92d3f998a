"""Driver-mirror correctness sweep: run every queries() entry (or only
the named ones) with an oracle_sql() entry at the given sf dir and
compare exactly the way the driver does (columns sorted by name, rows
sorted by all columns, exact values). Rows-only queries are run for
rows>0/schema sanity.

Usage:  python tools/parity_sweep.py sf_dir [name ...]
"""
import json
import os
import sys
import time

import duckdb
import pandas as pd
import ray

if len(sys.argv) < 2:
    sys.exit(__doc__)
SF = sys.argv[1]
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]

ray.init(address="local", num_cpus=8, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import __ray_entry__ as e

con = duckdb.connect()
for t in TABLES:
    con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{SF}/{t}.parquet')")


def canonical(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    for c in df.columns:
        k = df[c].dtype.kind
        if k in "iu":
            df[c] = df[c].astype("int64")
        elif k == "f":
            df[c] = df[c].astype("float64")
    df = df[sorted(df.columns)]
    return (df.sort_values(list(df.columns), kind="mergesort")
            .reset_index(drop=True))


qs, oracles = e.queries(), e.oracle_sql()
names = sys.argv[2:] or sorted(qs)
fails, ok, rows_only = [], 0, 0
for i, name in enumerate(names):
    t0 = time.perf_counter()
    try:
        res = qs[name](SF)
        import ray.data as rd
        if isinstance(res, rd.Dataset):
            res = res.to_pandas()
        import pyarrow as pa
        if isinstance(res, pa.Table):
            res = res.to_pandas()
        if name not in oracles:
            assert res is not None and len(res.columns) > 0
            rows_only += 1
            status = "rows_only"
        else:
            want = con.execute(oracles[name]).fetchdf()
            g, w = canonical(res), canonical(want)
            assert list(g.columns) == list(w.columns), \
                f"cols {list(g.columns)} != {list(w.columns)}"
            assert len(g) == len(w), f"rows {len(g)} != {len(w)}"
            # check_dtype=True: the driver's value-hash distinguishes
            # int64 from float64 (HUGEINT sums fetch as float64), so a
            # dtype-lax compare here is strictly weaker than the gate.
            pd.testing.assert_frame_equal(g, w, check_exact=True,
                                          check_dtype=True)
            ok += 1
            status = "ok"
    except Exception as ex:
        fails.append((name, repr(ex)[:300]))
        status = "FAIL"
    print(f"{i + 1}/{len(names)} {name} {status} "
          f"{time.perf_counter() - t0:.1f}s", flush=True)

print(json.dumps({"sf": SF, "ok": ok, "rows_only": rows_only,
                  "fails": fails}))
ray.shutdown()
sys.exit(1 if fails else 0)
