"""The broadcast geo-joins must finish on a 1-CPU Ray session.

The session fixture in conftest runs Ray with 4 CPUs, which hides a
stage that holds the only CPU (an actor pool) while its upstream read
tasks wait for one. This test drives the joins in a fresh process with
``num_cpus=1`` under a timeout, and checks each result exactly against
its DuckDB oracle.
"""

import os
import signal
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = os.path.join(ROOT, "tests")
QUERIES = ["flagship", "pip_polygon_join", "pip_rtree_join",
           "spatial_anti_join"]
TIMEOUT_S = 120

SCRIPT = f"""
import sys
sys.path[:0] = [{ROOT!r}, {TESTS!r}]
import duckdb
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
import __ray_entry__ as e
from conftest import SF_DIR, TABLES, assert_matches_oracle
con = duckdb.connect()
for t in TABLES:
    con.execute(f"CREATE VIEW {{t}} AS SELECT * FROM "
                f"read_parquet('{{SF_DIR}}/{{t}}.parquet')")
qs, oracles = e.queries(), e.oracle_sql()
for name in {QUERIES!r}:
    assert_matches_oracle(qs[name](SF_DIR), con, oracles[name])
    print("ok", name, flush=True)
ray.shutdown()
"""


def test_geo_joins_finish_on_one_cpu():
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    proc = subprocess.Popen([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        pytest.fail(f"still running after {TIMEOUT_S} s on 1 CPU:\n{out[-3000:]}")
    assert proc.returncode == 0, out[-3000:]
    assert out.count("ok ") == len(QUERIES), out[-3000:]
