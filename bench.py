"""Benchmark driver — headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, "pages_per_sec": ...}

``--scaling``: runs the headline pipeline in two fresh processes at
num_cpus=8 and num_cpus=32 on the same input and reports both
throughputs + scaling efficiency T8/(4*T32)... (see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def _consume(result) -> int:
    """Execute a pipeline to completion; return row count."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    if isinstance(result, rd.Dataset):
        n = 0
        for b in result.iter_batches(batch_size=65536, batch_format="pyarrow"):
            n += b.num_rows
        return n
    if isinstance(result, (pd.DataFrame, pa.Table)):
        return len(result)
    return 0


def run_bench() -> dict:
    import ray
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import pyarrow.parquet as pq

    import __ray_entry__ as e
    qs = e.queries()

    n_pages = pq.ParquetFile(f"{SF_DIR}/documents.parquet").metadata.num_rows

    # warm the page cache (untimed single read)
    import ray.data as rd
    rd.read_parquet(f"{SF_DIR}/documents.parquet",
                    columns=["doc_id"]).count()

    bench_queries = ["flagship", "tile_assign", "pip_rect_join", "knn_idw",
                     "cell_aggregates", "exact_dedup", "token_stats",
                     "ann_cosine_topk", "q1_pricing", "events_window",
                     # corpus curation
                     "minhash_pairs", "dup_clusters", "pack_sequences",
                     # skewed-corpus exact dedup (20k pages)
                     "pages_exact_dedup",
                     # span-level dedup + LM scoring
                     "duplicate_spans", "lm_perplexity",
                     # data selection + event analytics
                     "quality_classifier", "bm25_topk",
                     "events_interval_join", "incremental_dedup",
                     # the remaining heavy families
                     "events_asof_join", "embedding_neardup",
                     "embedding_neardup_stats"]
    times: dict[str, float] = {}
    for name in bench_queries:
        t0 = time.perf_counter()
        _consume(qs[name](SF_DIR))
        times[name] = round(time.perf_counter() - t0, 3)
    # warm re-run of the span-dedup key: the cold number includes
    # one-off page-cache/allocator warmup
    t0 = time.perf_counter()
    _consume(qs["duplicate_spans"](SF_DIR))
    times["duplicate_spans_warm"] = round(time.perf_counter() - t0, 3)
    # warm min-of-3 for the keys whose cold driver numbers swung 2–4×
    # on unchanged code — the cold number above stays for continuity,
    # the warm key is the bar
    for name in ["exact_dedup", "cell_aggregates", "tile_assign",
                 "knn_idw", "minhash_pairs"]:
        w = []
        for _ in range(3):
            t0 = time.perf_counter()
            _consume(qs[name](SF_DIR))
            w.append(round(time.perf_counter() - t0, 3))
        times[f"{name}_warm"] = min(w)
    # bucket-duplication factor of the neardup plan; dimensionless —
    # reported under "diagnostics", NOT the seconds map
    from whitebox_geospatial_analysis_tools_ray.stages import (
        embeddings as _emb)
    diagnostics: dict[str, object] = {}
    diagnostics["neardup_dup_factor"] = float(
        _emb.cosine_neardup_stats(SF_DIR)["dup_factor"].iloc[0])

    # raster-side workloads at a size where compute dominates: 2048²
    # slope via the overlap-read stencil, 1024² D8 flow accumulation
    # (iterative cross-tile fixed point)
    from whitebox_geospatial_analysis_tools_ray.stages import (
        hydro as _hydro, raster as _raster, terrain as _terrain)
    _spec2k = _raster.RasterSpec(rows=2048, cols=2048, tile_rows=128)
    t0 = time.perf_counter()
    _consume(_raster.raster_row_checksums(
        _terrain.slope(_raster.synth_raster(_spec2k), _spec2k,
                       regen=_raster.synth_value), _spec2k))
    times["raster_slope_2048"] = round(time.perf_counter() - t0, 3)
    # host-speed control, a RATE (Mcells/s) → diagnostics, not seconds
    diagnostics["slope_mcells_per_sec"] = round(
        2048 * 2048 / times["raster_slope_2048"] / 1e6, 1)
    _spec1k = _raster.RasterSpec(rows=1024, cols=1024, tile_rows=128)
    t0 = time.perf_counter()
    _hydro.flow_accumulation_d8(_spec1k)
    times["flow_accum_1024"] = round(time.perf_counter() - t0, 3)
    # the two-pass watershed (object-store pass-1 + pointer-doubled
    # resolve) and the stream-topology fixed point
    from whitebox_geospatial_analysis_tools_ray.stages import (
        streams as _streams)
    t0 = time.perf_counter()
    _hydro.watershed(_spec1k)
    times["watershed_1024"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    _streams.stream_order(_spec1k)
    times["stream_order_1024"] = round(time.perf_counter() - t0, 3)

    # headline: the full pages-schema pipeline (extract→geocode→tile→
    # PIP-join→agg) over a deterministic synthetic corpus big enough that
    # compute, not scheduling, dominates — the BASELINE.json metric is
    # pages/sec on Common-Crawl-style Parquet.
    from whitebox_geospatial_analysis_tools_ray.pipelines.pages_flagship import (
        pages_flagship)
    from whitebox_geospatial_analysis_tools_ray.sources.pages import (
        generate_pages_dataset)
    # default 2M pages — the BASELINE.md measurement size, so deltas
    # between runs are like-for-like
    bench_pages = int(os.environ.get("GRAFT_BENCH_PAGES", "2000000"))
    pdir = generate_pages_dataset(bench_pages, "/tmp/graft_bench_pages")
    _consume(pages_flagship(pdir))  # warm (pool + page cache)
    trials = []
    for _ in range(5):  # shared host: min of 5 (noise-robust estimator)
        t0 = time.perf_counter()
        _consume(pages_flagship(pdir))
        trials.append(round(time.perf_counter() - t0, 3))
    headline = min(trials)
    times["pages_flagship"] = headline
    diagnostics["pages_flagship_trials"] = trials

    # skew case (SURVEY §7.5 hard part): same page count, 50% of rows
    # collapsed onto ONE duplicate page → one mega-hot tile/zone key.
    # The flagship's per-batch partial aggregation collapses the hot key
    # inside every map task, so throughput should stay within 2× of the
    # uniform corpus (no single reducer sees the raw hot rows).
    sdir = generate_pages_dataset(bench_pages, "/tmp/graft_bench_pages_skew",
                                  hot_frac=0.5)
    _consume(pages_flagship(sdir))  # warm
    skew_trials = []
    for _ in range(5):
        t0 = time.perf_counter()
        _consume(pages_flagship(sdir))
        skew_trials.append(round(time.perf_counter() - t0, 3))
    times["pages_flagship_skew"] = min(skew_trials)
    diagnostics["skew_over_uniform"] = round(min(skew_trials) / headline,
                                             3)

    # 512-shard read rehearsal — the same corpus in the many-small-files
    # layout a 100-TB table actually has; throughput must hold within
    # ~10% of the 128-shard number
    shdir = generate_pages_dataset(
        bench_pages, "/tmp/graft_bench_pages_512",
        rows_per_shard=max(1, bench_pages // 512))
    _consume(pages_flagship(shdir))  # warm
    # PAIRED alternating trials: the shared host drifts 2x mid-bench,
    # so an unpaired min-of-N regularly charges the drift to whichever
    # layout ran during the slow window (1.269 recorded on code whose
    # same-session A/B measured ~1.13). Each pair runs single
    # then sharded back-to-back; the key is the MEDIAN per-pair ratio,
    # with the raw trial lists in diagnostics.
    sh_trials, sg_trials, pair_ratios = [], [], []
    for _ in range(5):
        t0 = time.perf_counter()
        _consume(pages_flagship(pdir))
        sg = time.perf_counter() - t0
        t0 = time.perf_counter()
        _consume(pages_flagship(shdir))
        sh = time.perf_counter() - t0
        sg_trials.append(round(sg, 3))
        sh_trials.append(round(sh, 3))
        pair_ratios.append(round(sh / sg, 3))
    times["pages_flagship_sharded"] = min(sh_trials)
    # primary = the median per-pair ratio: each pair shares the host's
    # state, so drift cancels within it. min/min pairs the luckiest
    # trial of each layout, which hides the sharded layout's straggler
    # variance; it ships as a diagnostic only
    diagnostics["sharded_over_single"] = sorted(
        pair_ratios)[len(pair_ratios) // 2]
    diagnostics["sharded_over_single_min_over_min"] = round(
        min(sh_trials) / min(sg_trials), 3)
    diagnostics["sharded_pair_trials"] = {
        "single": sg_trials, "sharded": sh_trials,
        "ratios": pair_ratios}

    # skewed-corpus exact dedup. First the default plan over the
    # 50%-hot corpus (the skew-robustness number), then the same job
    # with a cap that ENGAGES the hierarchical key-snapped recombine —
    # the live-guard rehearsal; engagement evidence (bucket rows /
    # slices) goes to diagnostics.
    import ray as _ray
    from whitebox_geospatial_analysis_tools_ray.stages.dedup import (
        pages_exact_dedup as _ped)
    from whitebox_geospatial_analysis_tools_ray.stages.util import (
        hier_counter_actor as _hca)
    _ped(sdir)  # warm
    ded_trials = []
    for _ in range(3):
        t0 = time.perf_counter()
        _ped(sdir)
        ded_trials.append(round(time.perf_counter() - t0, 3))
    times["pages_exact_dedup_skew"] = min(ded_trials)
    _ctr = _hca()
    # cap ∝ corpus so the guard engages at any GRAFT_BENCH_PAGES: the
    # 50%-hot corpus has ~pages/2 distinct keys → ~pages/4 partial
    # rows per bucket at num_buckets=2, well above pages/100
    t0 = time.perf_counter()
    _ped(sdir, num_buckets=2, max_bucket_rows=max(2_000, bench_pages // 100),
         hier_counter=_ctr)
    times["pages_exact_dedup_skew_hier"] = round(
        time.perf_counter() - t0, 3)
    _ev = _ray.get(_ctr.get.remote())
    diagnostics["hier_recombine_events"] = {
        "engaged_buckets": len(_ev),
        "max_bucket_rows_seen": max((e[0] for e in _ev), default=0),
        "max_slices": max((e[1] for e in _ev), default=0)}

    out = {
        "metric": ("spatial-join + tile-assignment throughput "
                   "(pages_flagship over synthetic Common-Crawl-style corpus)"),
        "value": headline,
        "unit": "sec",
        "queries": times,
        # dimensionless factors / rates / trial lists live here so the
        # "queries" map stays a pure {name: seconds} timing table
        "diagnostics": diagnostics,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "pages": bench_pages,
        "pages_per_sec": round(bench_pages / headline, 1) if headline > 0 else None,
        "sf_documents": n_pages,
    }
    ray.shutdown()
    return out


SCALE_N = int(os.environ.get("GRAFT_SCALE_N", "2000000"))
SCALE_DIR = os.environ.get("GRAFT_SCALE_DIR", "/tmp/graft_scale_pages")


def run_scaling_worker(ncpu: int) -> dict:
    """One fresh-process measurement: pages_flagship over the scaled
    corpus at `ncpu` CPUs (the same input both runs — the sandbox
    evidence protocol for the N vs 4N cluster-size criterion)."""
    import ray
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from whitebox_geospatial_analysis_tools_ray.pipelines.pages_flagship import (
        pages_flagship)
    from whitebox_geospatial_analysis_tools_ray.sources.pages import (
        generate_pages_dataset)

    generate_pages_dataset(SCALE_N, SCALE_DIR)  # idempotent
    # steady-state protocol: spin up the worker pool and warm the page
    # cache before timing (the cluster-size criterion measures
    # throughput, not cold-start)
    @ray.remote
    def _noop():
        return 0
    ray.get([_noop.remote() for _ in range(ncpu * 2)])
    n = _consume(pages_flagship(SCALE_DIR))  # untimed warm-up pass
    t0 = time.perf_counter()
    n = _consume(pages_flagship(SCALE_DIR))
    sec = time.perf_counter() - t0
    # second scaling pipeline: exact text dedup over the same corpus —
    # an unbounded-key all-to-all (bucketed shuffle), unlike the
    # flagship whose shuffle moves pre-aggregated partials only
    from whitebox_geospatial_analysis_tools_ray.stages.dedup import (
        pages_exact_dedup)
    _consume(pages_exact_dedup(SCALE_DIR))  # untimed warm-up pass
    t0 = time.perf_counter()
    _consume(pages_exact_dedup(SCALE_DIR))
    dedup_sec = time.perf_counter() - t0
    ray.shutdown()
    return {"num_cpus": ncpu, "sec": round(sec, 3), "out_rows": n,
            "pages": SCALE_N, "pages_per_sec": round(SCALE_N / sec, 1),
            "dedup_sec": round(dedup_sec, 3)}


def run_scaling(trials: int = 3) -> dict:
    """Alternating fresh-process trials at 8 and 32 CPUs; min time per
    level (the standard noise-robust estimator — this sandbox host is
    shared, so single-shot walls vary ±50%)."""

    def run(ncpu: int) -> dict:
        env = dict(os.environ, GRAFT_SCALE_WORKER=str(ncpu))
        out = subprocess.run([sys.executable, os.path.abspath(__file__),
                              "--scaling-worker"],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    los, his = [], []
    dlos, dhis = [], []
    for _ in range(trials):
        r8, r32 = run(8), run(32)
        los.append(r8["sec"])
        his.append(r32["sec"])
        dlos.append(r8["dedup_sec"])
        dhis.append(r32["dedup_sec"])
    t_lo, t_hi = min(los), min(his)
    d_lo, d_hi = min(dlos), min(dhis)
    # efficiency = speedup achieved / speedup possible (4×)
    eff = (t_lo / t_hi) / (32 / 8)
    ceiling = _host_cpu_ceiling()
    return {
        "pipeline": "pages_flagship (extract→geocode→tile→PIP-join→agg)",
        "pages": SCALE_N,
        "sec_8cpu": t_lo, "sec_32cpu": t_hi,
        "sec_8cpu_trials": los, "sec_32cpu_trials": his,
        "pages_per_sec_8cpu": round(SCALE_N / t_lo, 1),
        "pages_per_sec_32cpu": round(SCALE_N / t_hi, 1),
        "scaling_efficiency": round(eff, 3),
        "dedup_pipeline": ("pages_exact_dedup (md5 partials → "
                           "bucketed all-to-all combine)"),
        "dedup_sec_8cpu": d_lo, "dedup_sec_32cpu": d_hi,
        "dedup_scaling_efficiency": round((d_lo / d_hi) / (32 / 8), 3),
        "host_cpu_ceiling": ceiling,
        "protocol": ("fresh ray.init(num_cpus=8) vs num_cpus=32, same input, "
                     f"min of {trials} alternating trials, warmed pool+cache; "
                     "host_cpu_ceiling = raw 32-vs-8-process CPU-burn speedup"
                     " / 4 on this (shared) host — the attainable maximum"),
    }


def _host_cpu_ceiling(seconds: float = 2.0) -> float:
    """Control experiment: pure-CPU multiprocessing burn at 8 vs 32
    processes. On a dedicated host this returns ~1.0; under co-tenant
    load it bounds any pipeline's measurable 4× scaling efficiency."""
    import multiprocessing as mp

    def rate(n: int) -> float:
        with mp.Pool(n) as pool:
            t0 = time.perf_counter()
            total = sum(pool.map(_burn, [seconds] * n))
            return total / (time.perf_counter() - t0)

    return round((rate(32) / rate(8)) / 4.0, 3)


def _burn(seconds: float) -> int:
    t0, x = time.perf_counter(), 0
    while time.perf_counter() - t0 < seconds:
        x += 1
    return x


def run_scaleup() -> dict:
    """Rehearse PAST the comfortable scale — the same two scaling
    pipelines at sf0.5-/sf1.0-equivalent page counts (10M / 20M pages
    vs the standing 2M) in ONE 32-CPU session, reporting pages/sec
    linearity vs the 2M reference and the object store's spill
    counters (ray memory_summary) after the heaviest run. Done-bar:
    each scaled key within 1.3× of linear extrapolation from 2M, no
    OOM, spill evidence recorded."""
    import ray
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from whitebox_geospatial_analysis_tools_ray.pipelines.pages_flagship import (
        pages_flagship)
    from whitebox_geospatial_analysis_tools_ray.sources.pages import (
        generate_pages_dataset)
    from whitebox_geospatial_analysis_tools_ray.stages.dedup import (
        pages_exact_dedup)

    out: dict = {"num_cpus": NUM_CPUS, "points": []}
    for n in (2_000_000, 10_000_000, 20_000_000):
        d = generate_pages_dataset(n, f"/tmp/graft_scaleup_{n}",
                                   rows_per_shard=62_500)
        rec: dict = {"pages": n}
        for key, fn in (("flagship", pages_flagship),
                        ("exact_dedup", pages_exact_dedup)):
            _consume(fn(d))  # warm
            trials = []
            for _ in range(2):
                t0 = time.perf_counter()
                _consume(fn(d))
                trials.append(round(time.perf_counter() - t0, 3))
            rec[f"{key}_sec"] = min(trials)
            rec[f"{key}_pages_per_sec"] = round(n / min(trials), 1)
        out["points"].append(rec)
    base = out["points"][0]
    for rec in out["points"][1:]:
        for key in ("flagship", "exact_dedup"):
            rec[f"{key}_vs_linear"] = round(
                base[f"{key}_pages_per_sec"]
                / rec[f"{key}_pages_per_sec"], 3)
    # spill evidence straight from the raylet state dump (the grpc
    # client behind ray memory isn't installed in this image)
    try:
        import glob as _glob
        logdir = max(_glob.glob("/tmp/ray/*/session_*/logs"),
                     key=os.path.getmtime)
        lines = []
        with open(os.path.join(logdir, "raylet.out"),
                  errors="replace") as fh:
            for ln in fh:
                low = ln.lower()
                if ("cumulative spill requests" in low
                        or "spilled objects pending" in low
                        or "allowing the plasma store" in low):
                    lines.append(ln.strip().split("] ")[-1])
        out["spill"] = lines[-6:] or ["no spill lines in raylet.out"]
    except Exception as exc:  # pragma: no cover
        out["spill"] = [f"raylet.out unavailable: {exc}"]
    ray.shutdown()
    return out


if __name__ == "__main__":
    if "--scaleup" in sys.argv:
        print(json.dumps({"scaleup": run_scaleup()}))
    elif "--scaling-worker" in sys.argv:
        print(json.dumps(run_scaling_worker(int(os.environ["GRAFT_SCALE_WORKER"]))))
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        out = run_bench()
        # embed the 8-vs-32 scaling evidence in the bench record itself
        # (fresh processes, after run_bench's ray.shutdown())
        if os.environ.get("GRAFT_BENCH_SCALING", "1") == "1":
            out["scaling"] = run_scaling(
                trials=int(os.environ.get("GRAFT_SCALE_TRIALS", "2")))
        print(json.dumps(out))
