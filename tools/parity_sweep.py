"""Driver-mirror correctness sweep: run every registry query (or only
the named ones) at the given sf dir. A query with an oracle is compared
with ``tests/conftest.assert_matches_oracle``, the strict compare the
test suite uses; a rows-only query is run and must return columns.

Usage:  python tools/parity_sweep.py sf_dir [name ...]   (from the repo root)
"""
import json
import os
import sys
import time

import ray

if len(sys.argv) < 2:
    sys.exit(__doc__)
SF = sys.argv[1]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "tests")]

ray.init(address="local", num_cpus=8, include_dashboard=False,
         logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False

import __ray_entry__ as e  # noqa: E402
from conftest import (TABLES, assert_matches_oracle, duck_connect,  # noqa: E402
                      to_pandas)

con = duck_connect()
for t in TABLES:
    con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{SF}/{t}.parquet')")

table = e.registry()
names = sys.argv[2:] or sorted(table)
fails, ok, rows_only = [], 0, 0
for i, name in enumerate(names):
    t0 = time.perf_counter()
    impl, check = table[name]
    try:
        res = impl(SF)
        if isinstance(check, str):
            assert len(to_pandas(res).columns) > 0
            rows_only += 1
            status = "rows_only"
        else:
            assert_matches_oracle(res, con, check())
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
