"""Every map stage must finish on a 1-CPU Ray session.

The session fixture in conftest runs Ray with 4 CPUs, which hides a
stage that holds the only CPU (an actor pool) while its upstream read
tasks wait for one. This test drives the broadcast geo-joins and the
stages with per-worker state (decoders, classifier) in a fresh process
with ``num_cpus=1`` under a timeout, and checks each result exactly
against its DuckDB oracle. A source lint keeps actor pools out of the
package, so every ``map_batches`` stage stays a plain task; another
keeps every Parquet read on ``sources.read_table``, a third every
keyed shuffle on ``util.combine``, and a fourth every per-tile raster
plan on ``raster.tile_task``.
"""

import ast
import os
import pathlib
import signal
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = os.path.join(ROOT, "tests")
PACKAGE = pathlib.Path(ROOT, "whitebox_geospatial_analysis_tools_ray")
QUERIES = ["flagship", "pip_polygon_join", "pip_rtree_join",
           "spatial_anti_join", "image_features", "image_features_real",
           "image_resize_stats", "video_frame_sample", "audio_frame_stats",
           "langid_confusion"]
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


def test_queries_finish_on_one_cpu():
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


def test_no_actor_pool_stages_in_package():
    """No ``concurrency=`` argument or parameter anywhere in the package,
    and no class as the function of a ``map_batches`` call (which Ray
    runs as an actor pool)."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.rglob("*.py"))}
    classes = {n.name for t in trees.values() for n in ast.walk(t)
               if isinstance(n, ast.ClassDef)}
    offenders = []
    for path, tree in trees.items():
        where = path.relative_to(ROOT)
        for node in ast.walk(tree):
            if isinstance(node, ast.arguments):
                for a in node.args + node.kwonlyargs:
                    if a.arg == "concurrency":
                        offenders.append(f"{where}:{a.lineno}: "
                                         "concurrency parameter")
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg == "concurrency":
                    offenders.append(f"{where}:{kw.value.lineno}: "
                                     "concurrency= argument")
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_batches"):
                fn = node.args[0] if node.args else next(
                    (kw.value for kw in node.keywords if kw.arg == "fn"), None)
                name = getattr(fn, "id", getattr(fn, "attr", ""))
                if name in classes or name[:1].isupper():
                    offenders.append(f"{where}:{node.lineno}: map_batches "
                                     f"over class {name}")
    assert not offenders, (
        "actor-pool stage; run it as a plain task and keep per-process "
        "state in a module cache:\n" + "\n".join(offenders))


def test_parquet_reads_go_through_read_table():
    """Every Parquet read in the package outside ``sources/`` goes
    through ``sources.read_table``, which owns the read fan-out."""
    offenders = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.parent.name != "sources"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        == "read_parquet"]
    assert not offenders, (
        "read_parquet outside sources/; use sources.read_table:\n"
        + "\n".join(offenders))


def test_keyed_shuffles_go_through_combine():
    """Every keyed reduction and co-group goes through ``util.combine``,
    which owns the combine fan-out: no ``map_groups`` or ``repartition``
    call in the package outside ``stages/util.py`` and the per-key writer
    in ``state/checkpoint.py``, and none of the deleted helper names."""
    allowed = {PACKAGE / "stages" / "util.py",
               PACKAGE / "state" / "checkpoint.py"}
    gone = {"combine_bounded", "coalesce_partials", "adaptive_num_buckets"}
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.name if isinstance(node, (ast.FunctionDef,
                                                   ast.alias)) else None)
            if name in gone:
                offenders.append(f"{path.relative_to(ROOT)}:"
                                 f"{getattr(node, 'lineno', '?')}: {name}")
            elif (path not in allowed and isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None)
                  in ("map_groups", "repartition")):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}: "
                                 f"{node.func.attr}")
    assert not offenders, (
        "keyed shuffle outside util.combine:\n" + "\n".join(offenders))


def test_tile_plans_go_through_tile_task():
    """Every per-tile plan goes through ``raster.tile_task``, which owns
    the row-band fan-out: no ``rd.range(...)`` call whose argument names
    ``n_tiles`` anywhere in the package outside ``stages/raster.py``."""
    allowed = PACKAGE / "stages" / "raster.py"
    offenders = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py")) if path != allowed
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "range"
        and getattr(node.func.value, "id", None) == "rd"
        and any(getattr(n, "id", getattr(n, "attr", None)) == "n_tiles"
                for a in node.args + [k.value for k in node.keywords]
                for n in ast.walk(a))]
    assert not offenders, (
        "per-tile plan outside raster.tile_task:\n" + "\n".join(offenders))
