"""Repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 18 --trace 0

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics with tracing off, in ``SETUPS`` fresh Ray sessions: each is set
up (``ray.init`` and a warm-up pass), then a closed loop from one client
runs the pipeline back to back for its share of ``--seconds``. Every
output is checked against its DuckDB oracle. ``--trace 1`` is the
separate traced run that attributes time to the repository's modules
(README.md). The last stdout line is the JSON result; the line before
it is the full record.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NUM_CPUS = 1                   # Ray CPUs: the benchmark runs on one core
SETUPS = 3                     # fresh Ray sessions per measured run
REDRIVE_PASSES = 5             # traced and untraced in-process passes each
OBJECT_STORE_BYTES = 768 * 1024 ** 2
# AF_UNIX socket paths are capped at 107 bytes; Ray's deepest socket sits
# about 65 bytes below its temp dir
_SOCKET_PATH_HEADROOM = 107 - 70
# Ray's processes end within about 1 s of its shutdown; one that has not
# after this grace is killed (a worker caught mid-start can hang for long)
_EXIT_WAIT_S = 5.0


def _import_program() -> float:
    """Import Ray and the package's public modules; returns seconds."""
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, ROOT)
    t0 = time.perf_counter()
    import ray  # noqa: F401
    import ray.data  # noqa: F401

    import whitebox_geospatial_analysis_tools_ray.pipelines.pages_flagship  # noqa: F401
    import whitebox_geospatial_analysis_tools_ray.stages.dedup  # noqa: F401
    import whitebox_geospatial_analysis_tools_ray.state.checkpoint  # noqa: F401
    return time.perf_counter() - t0


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


class RaySession:
    """Starts and stops local Ray sessions whose files live in the work
    directory, or in a private temp dir when that path is too long for
    Ray's sockets; everything it creates is removed by ``close``."""

    def __init__(self, work):
        path = work.fresh("ray")
        self.temp_dir = (tempfile.mkdtemp(prefix="pb-")
                         if len(path) > _SOCKET_PATH_HEADROOM else path)
        self._others: set[int] = set()

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        from perfbench.memwatch import descendants
        self._others = set(descendants(os.getpid()))
        ray.init(address="local", num_cpus=min(NUM_CPUS, _nproc()),
                 include_dashboard=False, log_to_driver=False,
                 logging_level="ERROR", object_store_memory=OBJECT_STORE_BYTES,
                 _temp_dir=self.temp_dir)
        DataContext.get_current().enable_progress_bars = False

    def stop(self) -> None:
        """Shut Ray down and wait until every process it started (GCS,
        raylet, workers, log monitor) has ended; Ray's shutdown only
        signals them, and workers outlive their raylet for a moment."""
        import ray

        from perfbench.memwatch import descendants
        pids = [p for p in descendants(os.getpid())
                if p not in self._others]
        ray.shutdown()
        wait_ended(pids)

    def close(self) -> None:
        self.stop()
        shutil.rmtree(self.temp_dir, ignore_errors=True)


def _running(pid: int) -> bool:
    """The process exists and is not a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def wait_ended(pids, timeout: float = _EXIT_WAIT_S) -> None:
    """Wait for each process to end; kill the ones still running after
    ``timeout`` and wait for those too."""
    deadline = time.monotonic() + timeout
    left = [p for p in pids if _running(p)]
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = [p for p in left if _running(p)]
    for p in left:
        try:
            with open(f"/proc/{p}/cmdline", "rb") as f:
                name = f.read().split(b"\0")[0].decode(errors="replace")
            print(f"killing pid {p} ({name}), still running {timeout:g} s after "
                  "Ray shutdown", file=sys.stderr)
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    while any(_running(p) for p in left):
        time.sleep(0.05)


class PeakMemory:
    """Runs ``perfbench.memwatch`` over this process (the Ray driver) from
    ``__enter__`` until ``peak_mb`` or ``__exit__``.

    It samples Σ resident set over the driver and its ``ray::`` processes
    all through the run. A snapshot of Σ VmHWM at the end would depend on
    which worker Ray happened to keep: Ray stops idle workers above its
    one-CPU pool and starts fresh ones, so the survivor had run the whole
    pipeline in some runs and only its read in others (±60 MB)."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.memwatch", str(os.getpid())],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def peak_mb(self) -> float:
        out, _ = self.proc.communicate(timeout=_EXIT_WAIT_S)
        return float(out)

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def run_once(w, shards: str, want, work, hier_counter=None) -> tuple[float, bool]:
    """One full pipeline run: (wall seconds of the pipeline call, output
    matches the oracle). The check runs after the clock stops.
    ``hier_counter`` goes to ``pages_exact_dedup`` on the dedup workload."""
    from perfbench.inputs import frames_equal, manifest_matches
    from whitebox_geospatial_analysis_tools_ray.pipelines.pages_flagship import (
        pages_flagship)
    from whitebox_geospatial_analysis_tools_ray.stages.dedup import pages_exact_dedup
    from whitebox_geospatial_analysis_tools_ray.state.checkpoint import (
        checkpointed_write, read_checkpointed)

    if w.kind == "flagship":
        t0 = time.perf_counter()
        got = pages_flagship(shards).to_pandas()
        wall = time.perf_counter() - t0
        return wall, frames_equal(got, want)
    if w.kind == "dedup":
        t0 = time.perf_counter()
        got = pages_exact_dedup(shards, hier_counter=hier_counter)
        wall = time.perf_counter() - t0
        return wall, frames_equal(got, want)
    out = work.fresh(f"out-{w.name}")
    try:
        t0 = time.perf_counter()
        manifest = checkpointed_write(pages_flagship(shards), out,
                                      key="tile_id", stage="pages_flagship")
        wall = time.perf_counter() - t0
        ok = (manifest_matches(manifest, want)
              and frames_equal(read_checkpointed(out).to_pandas(), want))
        return wall, ok
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _attempt(w, shards, want, work) -> tuple[float | None, bool]:
    """run_once, with a raising run counted as a failed one (wall None)."""
    try:
        return run_once(w, shards, want, work)
    except Exception:
        traceback.print_exc()
        return None, False


def prepare_inputs(w, seed: int, work):
    """Shard directory and oracle frame for one run. Generation runs in a
    child process, waited for, so its allocations never count in the Ray
    driver's peak RSS."""
    from perfbench import inputs

    code = ("import sys; from perfbench import inputs; "
            "print(inputs.prepare(sys.argv[1], inputs.WORKLOADS[sys.argv[2]], "
            "int(sys.argv[3])))")
    done = subprocess.run([sys.executable, "-c", code, ROOT, w.name, str(seed)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    shards = done.stdout.strip().splitlines()[-1]
    return shards, inputs.oracle_frame(work, w)


def measure(w, seed: int, seconds: float, import_s: float, work) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off."""
    shards, want = prepare_inputs(w, seed, work)
    session = RaySession(work)
    attempted = failed = 0
    setups, walls, stops = [], [], []
    try:
        with PeakMemory() as mem:
            for k in range(SETUPS):
                if k:
                    t0 = time.perf_counter()
                    session.stop()
                    stops.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                session.start()
                init_s = time.perf_counter() - t0
                wall, ok = _attempt(w, shards, want, work)       # warm-up pass
                attempted += 1
                failed += not ok
                if wall is None:
                    break
                setups.append(init_s + wall)
                # each session measures its share of the run, so that one
                # slow or fast session does not decide the median on its own
                deadline = time.perf_counter() + seconds / SETUPS
                while time.perf_counter() < deadline:
                    wall, ok = _attempt(w, shards, want, work)
                    attempted += 1
                    failed += not ok
                    if wall is None:    # the session may be broken: stop here
                        break
                    walls.append(wall)
            peak_mb = mem.peak_mb()
    finally:
        session.close()
        shutil.rmtree(shards, ignore_errors=True)
    metrics = {
        "pages_per_s": (w.n / _median(walls) if walls else 0.0, "pages/s"),
        "setup_s": (import_s + _median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    record = {"extra_metrics": {"fail_frac": {"value": failed / attempted,
                                              "unit": "ratio"}},
              "run_walls_s": walls, "setups_s": setups, "stops_s": stops,
              "import_s": import_s,
              "attempted": attempted, "failed": failed}
    return metrics, record


# public-layer spans that run inside the flagship's Ray UDF
_UDF_SPANS = ("sources.extract_texts", "stages.vhash.crc32", "core.rng.geocode_xy",
              "stages.spatial_join.index_build", "stages.spatial_join.candidates",
              "stages.spatial_join.join", "core.tiles.tile_of")


def traced(w, seed: int, work) -> tuple[dict, dict]:
    """Per-layer metrics: one pipeline run with Ray stats, in-process
    re-drives of the shards with spans on and off, and the checkpoint
    layer on the materialized pipeline output."""
    import ray
    import ray.data as rd

    from perfbench import raystats, trace
    from perfbench.inputs import frames_equal, manifest_matches
    from whitebox_geospatial_analysis_tools_ray.pipelines.pages_flagship import (
        pages_flagship)
    from whitebox_geospatial_analysis_tools_ray.stages.util import hier_counter_actor
    from whitebox_geospatial_analysis_tools_ray.state.checkpoint import (
        checkpointed_write, read_checkpointed)

    shards, want = prepare_inputs(w, seed, work)
    files = sorted(glob.glob(os.path.join(shards, "*.parquet")))
    session = RaySession(work)
    checks: list[bool] = []
    tracers: list = []
    try:
        session.start()
        checks.append(run_once(w, shards, want, work)[1])     # warm-up pass

        # Ray Data layer: the Dataset each pipeline executes is captured at
        # its to_pandas() call and its public stats() text parsed after
        executed: list = []
        to_pandas = rd.Dataset.to_pandas

        def capturing(self, *a, **k):
            executed.append(self)
            return to_pandas(self, *a, **k)

        hier = hier_counter_actor() if w.kind == "dedup" else None
        rd.Dataset.to_pandas = capturing
        try:
            wall, ok = run_once(w, shards, want, work, hier_counter=hier)
        finally:
            rd.Dataset.to_pandas = to_pandas
        checks.append(ok)
        ray_m = raystats.layer_metrics(raystats.parse_stats(executed[0].stats()), wall)
        hier_events = ray.get(hier.get.remote()) if hier is not None else []

        # in-process re-drive: one warm pass, then untraced and traced
        # passes alternating
        trace.redrive_pages(files, trace.Tracer("warm", enabled=False))
        walls = {False: [], True: []}
        for i in range(REDRIVE_PASSES):
            for enabled in (False, True):
                tr = trace.Tracer(f"{w.name}-s{seed}-pass{i}-"
                                  f"{'traced' if enabled else 'untraced'}", enabled)
                t0 = time.perf_counter()
                got, counts = trace.redrive_pages(files, tr)
                walls[enabled].append(time.perf_counter() - t0)
                if w.kind != "dedup":   # the skewed corpus has no flagship oracle
                    checks.append(frames_equal(got, want))
                if enabled:
                    tracers.append(tr)

        # checkpoint layer, timed apart from the pipeline that feeds it
        mat = pages_flagship(shards).materialize()
        expect = mat.to_pandas()
        tr = trace.Tracer(f"{w.name}-s{seed}-checkpoint")
        out = work.fresh(f"out-{w.name}")
        try:
            with tr.span("state.checkpoint.write"):
                manifest = checkpointed_write(mat, out, key="tile_id",
                                              stage="pages_flagship")
            with tr.span("state.checkpoint.read_back"):
                back = read_checkpointed(out).to_pandas()
            bytes_written = sum(os.path.getsize(p) for p in manifest["path"])
        finally:
            shutil.rmtree(out, ignore_errors=True)
        checks.append(frames_equal(back, expect)
                      and manifest_matches(manifest, expect))
        tracers.append(tr)
    finally:
        session.close()
        shutil.rmtree(shards, ignore_errors=True)

    with open(work.path(f"spans-{w.name}-s{seed}.jsonl"), "w") as f:
        for tr in tracers:
            tr.dump(f)

    per_pass = [t.self_times() for t in tracers[:-1]]
    ckpt = tracers[-1].self_times()

    def self_s(name):
        return _median([p.get(name, (0.0, 0))[0] for p in per_pass])

    cand = counts["candidate_pairs"]
    in_udf = sum(self_s(n) for n in _UDF_SPANS) if w.kind != "dedup" else 0.0
    rows = int(manifest["rows"].sum())
    metrics = {
        "ray.read_map.tasks": (ray_m["ray.read_map.tasks"], "count"),
        "ray.read_map.remote_wall_s": (ray_m["ray.read_map.remote_wall_s"], "s"),
        "ray.read_map.udf_s": (ray_m["ray.read_map.udf_s"], "s"),
        "ray.read_map.peak_heap_mb": (ray_m["ray.read_map.peak_heap_mb"], "MB"),
        "ray.shuffle.remote_wall_s": (ray_m["ray.shuffle.remote_wall_s"], "s"),
        "ray.shuffle.block_rows_max_over_mean":
            (ray_m["ray.shuffle.block_rows_max_over_mean"], "ratio"),
        "ray.combine.udf_s": (ray_m["ray.combine.udf_s"], "s"),
        "ray.driver_overhead_s": (ray_m["ray.driver_overhead_s"], "s"),
        "sources.read_table.self_s": (self_s("sources.read_table"), "s"),
        "sources.extract_texts.self_s": (self_s("sources.extract_texts"), "s"),
        "sources.extract_texts.calls":
            (per_pass[0]["sources.extract_texts"][1], "count"),
        "stages.vhash.crc32.self_s": (self_s("stages.vhash.crc32"), "s"),
        "core.rng.geocode_xy.self_s": (self_s("core.rng.geocode_xy"), "s"),
        "core.tiles.tile_of.self_s": (self_s("core.tiles.tile_of"), "s"),
        "stages.spatial_join.index_build.self_s":
            (self_s("stages.spatial_join.index_build"), "s"),
        "stages.spatial_join.candidates.self_s":
            (self_s("stages.spatial_join.candidates"), "s"),
        "stages.spatial_join.refine.self_s": (self_s("stages.spatial_join.join"), "s"),
        "stages.spatial_join.candidate_pairs": (cand, "count"),
        "stages.spatial_join.hit_pairs": (counts["hit_pairs"], "count"),
        "stages.spatial_join.hit_ratio":
            (counts["hit_pairs"] / cand if cand else 0.0, "ratio"),
        "pipelines.pages_flagship.udf_calls": (ray_m["udf_calls"], "count"),
        "pipelines.pages_flagship.udf_residual_s":
            (ray_m["ray.read_map.udf_s"] - in_udf, "s"),
        "stages.util.bucketed_agg.partial_rows": (ray_m["shuffle_input_rows"], "count"),
        "stages.util.bucketed_agg.hier_engaged_buckets": (len(hier_events), "count"),
        "state.checkpoint.write.self_s": (ckpt["state.checkpoint.write"][0], "s"),
        "state.checkpoint.partitions": (len(manifest), "count"),
        "state.checkpoint.bytes_written": (bytes_written, "B"),
        "state.checkpoint.bytes_per_row": (bytes_written / rows if rows else 0.0, "B/row"),
        "state.checkpoint.read_back.self_s": (ckpt["state.checkpoint.read_back"][0], "s"),
        # the spans a traced pass records times the cost of one span, over
        # the untraced wall: the host's pass-to-pass noise (several %) is
        # far larger than the spans' cost, so the wall difference between
        # traced and untraced passes (in the record) cannot resolve it
        "trace.overhead_frac": (len(tracers[0].spans) * trace.Tracer.span_cost_s()
                                / _median(walls[False]), "ratio"),
    }
    record = {"redrive_walls_s": {"untraced": walls[False], "traced": walls[True]},
              "paired_wall_overhead_frac": _median([t / u - 1 for u, t in
                                                    zip(walls[False], walls[True])]),
              "ray_stats_run_wall_s": wall, "attempted": len(checks),
              "failed": checks.count(False)}
    return metrics, record


def _host(w, seed: int) -> dict:
    import duckdb
    import pyarrow
    import ray
    return {"workload": w.name, "seed": seed, "nproc": _nproc(),
            "ray_num_cpus": min(NUM_CPUS, _nproc()), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "duckdb": duckdb.__version__,
            "python": sys.version.split()[0], "n_pages": w.n,
            "rows_per_shard": w.rows_per_shard, "n_files": w.n_files,
            "hot_frac": w.hot_frac}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still leaves through the finally blocks that stop Ray
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    import_s = _import_program()
    from perfbench import inputs

    if args.workload not in inputs.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(inputs.WORKLOADS)}")
    w = inputs.WORKLOADS[args.workload]
    work = inputs.WorkDir(ROOT)
    if args.trace:
        metrics, record = traced(w, args.seed, work)
    else:
        metrics, record = measure(w, args.seed, args.seconds, import_s, work)
    out = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    for name, m in {**out, **record.get("extra_metrics", {})}.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"record": {**_host(w, args.seed), **record}}))
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
