import atexit
import glob
import os
import shutil
import tempfile

import duckdb
import pandas as pd
import pytest
import ray

SF_DIR = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


# DuckDB spills an in-memory database's overflow into ./.tmp under the
# working directory; the harness's oracles spill outside the checkout.
# One directory per process: concurrent DuckDB processes must not share
# temp files.
DUCKDB_SPILL_DIR = os.path.join(tempfile.gettempdir(),
                                f"duckdb-spill-{os.getpid()}")
# removed when this process exits: a pytest session, or a script that
# imports duck_connect (tools/parity_sweep.py)
atexit.register(shutil.rmtree, DUCKDB_SPILL_DIR, ignore_errors=True)


def duck_connect() -> duckdb.DuckDBPyConnection:
    """An in-memory DuckDB connection that spills outside the checkout."""
    return duckdb.connect(config={"temp_directory": DUCKDB_SPILL_DIR})


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:     # alive, owned by another user
        return True
    return True


def _remove_stale_spill_dirs() -> None:
    """Remove the spill directories of processes that no longer run: a
    killed run never reaches its exit hook, and one IVF oracle alone
    leaves several GB behind."""
    pattern = os.path.join(tempfile.gettempdir(), "duckdb-spill-*")
    for path in glob.glob(pattern):
        pid = path.rsplit("-", 1)[1]
        if pid.isdigit() and not _pid_alive(int(pid)):
            shutil.rmtree(path, ignore_errors=True)


def pytest_configure(config):
    config.addinivalue_line("markers", "no_ray: the test needs no Ray session")


def pytest_sessionstart(session):
    _remove_stale_spill_dirs()


@pytest.fixture(scope="session", autouse=True)
def ray_session(request):
    items = request.session.items
    if all(item.get_closest_marker("no_ray") for item in items):
        yield
        return
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # Deterministic block order for roundtrip tests that compare row-for-row
    # against the written input (observed rare reorder flake in
    # test_las_point_formats_1_2_3 under a loaded shared session).
    ctx.execution_options.preserve_order = True
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def duck():
    con = duck_connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")
    yield con
    con.close()


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd
    if isinstance(result, rd.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canonical(df: pd.DataFrame) -> pd.DataFrame:
    """Mirror the driver's compare: columns sorted by name, rows sorted
    by all columns, dtypes normalized."""
    df = df.copy()
    for c in df.columns:
        k = df[c].dtype.kind
        if k in "iu":
            df[c] = df[c].astype("int64")
        elif k == "f":
            df[c] = df[c].astype("float64")
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def assert_matches_oracle(ray_result, duck_con, sql: str):
    """Exact values AND dtypes after ``canonical``: the driver's value
    hash tells int64 from float64 (HUGEINT sums fetch as float64), so a
    dtype-lax compare would be weaker than the gate."""
    got = canonical(to_pandas(ray_result))
    want = canonical(duck_con.execute(sql).fetchdf())
    assert list(got.columns) == list(want.columns), \
        f"columns {list(got.columns)} != {list(want.columns)}"
    assert len(got) == len(want), f"rows {len(got)} != {len(want)}"
    pd.testing.assert_frame_equal(got, want, check_exact=True,
                                  check_dtype=True)
