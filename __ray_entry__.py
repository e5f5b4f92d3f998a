"""Driver contract for the Ray-Data-native engine (see SURVEY.md).

``entry()`` runs the flagship geocode→tile→spatial-join pipeline on
sf0.001. ``queries()`` exposes one callable per implemented operator
family from SURVEY.md §2; ``oracle_sql()`` gives the DuckDB mirror for
every SQL-expressible query (built in
``whitebox_geospatial_analysis_tools_ray.oracle``).

Ray is initialised by the DRIVER before this module is imported — no
``ray.init`` / ``ray.shutdown`` anywhere in the library.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF_SMOKE = "/root/testdata/sf0.001"


def entry() -> Any:
    from whitebox_geospatial_analysis_tools_ray.pipelines.flagship import flagship
    return flagship(SF_SMOKE)


def _sel():
    from whitebox_geospatial_analysis_tools_ray.stages import selection
    return selection


def _points(sf_dir: str):
    from whitebox_geospatial_analysis_tools_ray.stages.points import read_points
    return read_points(sf_dir)


def queries() -> dict[str, Callable[[str], Any]]:
    from whitebox_geospatial_analysis_tools_ray.core.features import (
        cell_centers, rect_zones, seeded_polygons, site_points, triangle_zones)
    from whitebox_geospatial_analysis_tools_ray.core.rng import EAST, NORTH, SOUTH, WEST
    from whitebox_geospatial_analysis_tools_ray.core.tiles import RectGrid
    from whitebox_geospatial_analysis_tools_ray.stages import (
        agg, ann, clump as clump_mod, corpus, dedup, embeddings as emb, knn,
        raster, distance, fill, hydro, multimodal, raster_stats, rasterize,
        relational, streams, terrain, textops, tiling, tin, vector_overlay)
    from whitebox_geospatial_analysis_tools_ray.stages.spatial_join import (
        broadcast_pip_join, cell_partitioned_pip_join, within_distance_join)
    from whitebox_geospatial_analysis_tools_ray.pipelines.flagship import flagship

    def _vops_q(name):
        from whitebox_geospatial_analysis_tools_ray.stages import vector_ops
        return lambda sf: getattr(vector_ops, name)(sf)

    world_grid = RectGrid.from_extent(WEST, SOUTH, EAST, NORTH,
                                      width_x=250.0, width_y=250.0)

    def _raster_math(sf_dir: str):
        spec = raster.RasterSpec()
        ds = raster.synth_raster(spec)
        import numpy as np
        mapped = raster.raster_map(ds, lambda a: np.sqrt(a) * 2.0 + a / 7.0)
        return raster.raster_row_checksums(mapped, spec)

    def _raster_stencil(sf_dir: str):
        spec = raster.RasterSpec()
        filt = raster.stencil_mean3x3(raster.synth_raster(spec), spec,
                                      regen=raster.synth_value)
        return raster.raster_row_checksums(filt, spec)

    def _raster_points(sf_dir: str):
        spec = raster.RasterSpec()
        return raster.raster_to_points_count(raster.synth_raster(spec), spec)

    def _checksum_q(make):
        def run(sf_dir: str):
            spec = raster.RasterSpec()
            return raster.raster_row_checksums(make(raster.synth_raster(spec),
                                                   spec), spec)
        return run

    def _pair_q(fn):
        def run(sf_dir: str):
            spec = raster.RasterSpec()
            return fn(raster_stats.synth_raster_pair(spec), spec)
        return run

    def _pages_flagship_q(sf_dir: str):
        """Full pages-schema headline (html→text→geocode→tile→join) over a
        small deterministic corpus generated under /tmp (rows-only; the
        byte-identical extractor + components are oracle/pytest-gated)."""
        from whitebox_geospatial_analysis_tools_ray.pipelines.pages_flagship import (
            pages_flagship)
        from whitebox_geospatial_analysis_tools_ray.sources.pages import (
            generate_pages_dataset)
        d = generate_pages_dataset(20_000, "/tmp/graft_pages_q20k")
        return pages_flagship(d)

    def _pages_dedup_q(sf_dir: str):
        """Exact text dedup over a 20k-page SKEWED corpus (hot_frac=0.2
        — the duplicate-page web shape: 20% of rows collapse onto one
        page). Exact oracle: the skew rule replayed in SQL over
        range(20000); distinct texts <-> distinct effective ids
        (generation injectivity on this corpus is pytest-pinned in
        tests/test_pages.py)."""
        from whitebox_geospatial_analysis_tools_ray.sources.pages import (
            generate_pages_dataset)
        from whitebox_geospatial_analysis_tools_ray.stages.dedup import (
            pages_exact_dedup)
        d = generate_pages_dataset(20_000, "/tmp/graft_pages_dedup20k",
                                   hot_frac=0.2)
        return pages_exact_dedup(d)

    def _utm_project(sf_dir: str):
        from whitebox_geospatial_analysis_tools_ray.functions.crs import (
            utm_project_query)
        return utm_project_query(sf_dir)

    def _utm_project_nad27(sf_dir: str):
        from whitebox_geospatial_analysis_tools_ray.functions.crs import (
            utm_project_datum_query)
        return utm_project_datum_query(sf_dir, datum="NAD27 (CONUS)")

    def _utm_project_ed50(sf_dir: str):
        from whitebox_geospatial_analysis_tools_ray.functions.crs import (
            utm_project_datum_query)
        return utm_project_datum_query(sf_dir, datum="ED50")

    def _raster_calc(sf_dir: str):
        from whitebox_geospatial_analysis_tools_ray.functions.raster_calc import (
            raster_calculator)
        spec = raster.RasterSpec()
        a = raster.synth_raster(spec)
        b = raster_stats.synth_raster_b(spec)
        out = raster_calculator({"a": a, "b": b},
                                "sqrt(a) + b / 5.0 + if(a > b, 1.0, 0.0)")
        return raster.raster_row_checksums(out, spec)

    def _conditional_eval(sf_dir: str):
        """ConditionalEvaluation.groovy — per-cell if/then/else through
        the raster_calc compiler (SURVEY §2.2)."""
        from whitebox_geospatial_analysis_tools_ray.functions.raster_calc import (
            raster_calculator)
        spec = raster.RasterSpec()
        a = raster.synth_raster(spec)
        b = raster_stats.synth_raster_b(spec)
        out = raster_calculator({"a": a, "b": b},
                                "if(a >= 500.0, a - 500.0, b * 0.5)")
        return raster.raster_row_checksums(out, spec)

    def _geotiff_q(sf_dir: str):
        """Export the synthetic raster to a baseline GeoTIFF under /tmp,
        re-import it through byte-range strip reads, checksum rows —
        identity roundtrip with an exact SQL oracle."""
        from whitebox_geospatial_analysis_tools_ray.sources.geotiff import (
            export_geotiff, import_geotiff)
        from whitebox_geospatial_analysis_tools_ray.sources.raster_io import (
            RasterHeader)
        import numpy as _np
        spec = raster.RasterSpec()
        path = "/tmp/graft_geotiff_rt.tif"
        hdr = RasterHeader(rows=spec.rows, cols=spec.cols,
                           north=float(spec.rows), south=0.0,
                           east=float(spec.cols), west=0.0)
        export_geotiff(hdr, raster.synth_raster(spec), path,
                       dtype=_np.dtype("<f8"))
        _, ds = import_geotiff(path, tile_rows=spec.tile_rows)
        return raster.raster_row_checksums(ds, spec)

    def _geotiff_compressed_q(sf_dir: str):
        """Export the synthetic raster quantized to uint16 into a TILED
        deflate-compressed GeoTIFF with the horizontal predictor, re-import
        through per-tile decompression inside the Ray read tasks, checksum
        rows. Goes beyond the reference (GeoTiff.java:613 rejects ALL
        compression); exact SQL oracle on the trunc-quantized identity."""
        from whitebox_geospatial_analysis_tools_ray.sources.geotiff import (
            export_geotiff, import_geotiff)
        from whitebox_geospatial_analysis_tools_ray.sources.raster_io import (
            RasterHeader)
        import numpy as _np
        from whitebox_geospatial_analysis_tools_ray.core.rng import NODATA
        spec = raster.RasterSpec()
        path = "/tmp/graft_geotiff_cmp.tif"
        hdr = RasterHeader(rows=spec.rows, cols=spec.cols,
                           north=float(spec.rows), south=0.0,
                           east=float(spec.cols), west=0.0)

        def quantize(df):
            out = df.copy()
            out["data"] = [
                _np.where(d == NODATA, 65535.0, _np.trunc(d * 65.0))
                for d in (_np.asarray(x) for x in df["data"])]
            return out

        q = raster.synth_raster(spec).map_batches(quantize,
                                                  batch_format="pandas")
        export_geotiff(hdr, q, path, dtype=_np.dtype("<u2"),
                       compression="deflate", predictor=2, tile_size=64)
        _, ds = import_geotiff(path, tile_rows=spec.tile_rows)
        return raster.raster_row_checksums(ds, spec)

    def _trend_q(sf_dir: str):
        from whitebox_geospatial_analysis_tools_ray.stages.vector_ops import (
            trend_surface)
        return trend_surface(sf_dir)

    def _shape_q(sf_dir: str, kind: str):
        from whitebox_geospatial_analysis_tools_ray.stages.vector_ops import (
            shape_metrics_basic, shape_metrics_extended)
        fn = shape_metrics_basic if kind == "basic" else shape_metrics_extended
        return fn(sf_dir)

    def _vclean_q(sf_dir: str):
        from whitebox_geospatial_analysis_tools_ray.stages.vector_ops import (
            vector_cleaning)
        return vector_cleaning(sf_dir)

    def _las_q(sf_dir: str):
        from whitebox_geospatial_analysis_tools_ray.sources.las import las_tile_stats
        return las_tile_stats(sf_dir)

    def _kriging_q(sf_dir: str):
        from whitebox_geospatial_analysis_tools_ray.stages.kriging import krige_cells
        return krige_cells(sf_dir)

    def _rbf_q(sf_dir: str):
        from whitebox_geospatial_analysis_tools_ray.stages.kriging import rbf_cells
        return rbf_cells(sf_dir)

    def _viewshed_q(sf_dir: str):
        from whitebox_geospatial_analysis_tools_ray.stages.viewshed import viewshed
        return viewshed(raster.RasterSpec())

    def _dinf_q(sf_dir: str):
        from whitebox_geospatial_analysis_tools_ray.stages.dinf import (
            flow_accumulation_dinf)
        return flow_accumulation_dinf(raster.RasterSpec())

    def _chains_q(sf_dir: str):
        from whitebox_geospatial_analysis_tools_ray.stages.chains import (
            find_polygon_chains)
        return find_polygon_chains(sf_dir)

    def _branch_length_q(spec):
        from whitebox_geospatial_analysis_tools_ray.stages.branch_length import (
            branch_length)
        return branch_length(spec)

    def _breach_q(spec):
        from whitebox_geospatial_analysis_tools_ray.stages.breach import (
            breach_depressions)
        return breach_depressions(spec)

    def _gridding_q(name):
        from whitebox_geospatial_analysis_tools_ray.stages import gridding
        return getattr(gridding, name)()

    def _ag_q(sf_dir):
        from whitebox_geospatial_analysis_tools_ray.stages.gridding import (
            attribute_gridding)
        return attribute_gridding(sf_dir)

    def _mkmeans_q(spec):
        from whitebox_geospatial_analysis_tools_ray.stages.mkmeans import (
            modified_kmeans)
        return modified_kmeans(spec)

    def _dendrogram_q(spec):
        from whitebox_geospatial_analysis_tools_ray.stages.mkmeans import (
            dendrogram)
        return dendrogram(spec)

    def _meri_q(spec):
        from whitebox_geospatial_analysis_tools_ray.stages.meri import (
            multiscale_elev_residual)
        return multiscale_elev_residual(spec)

    def _oto_q(spec):
        from whitebox_geospatial_analysis_tools_ray.stages.oto import (
            remove_off_terrain_objects)
        return remove_off_terrain_objects(spec)

    def _cost_q(sf_dir: str):
        from whitebox_geospatial_analysis_tools_ray.stages.cost import (
            cost_accumulation)
        return cost_accumulation(raster.RasterSpec())

    def _r2poly_q(sf_dir: str):
        from whitebox_geospatial_analysis_tools_ray.stages.vectorize import (
            raster_to_polygons)
        return raster_to_polygons(raster.RasterSpec())

    def _contour_poly_q(sf_dir: str):
        from whitebox_geospatial_analysis_tools_ray.stages.vectorize import (
            contour_polylines)
        return contour_polylines(raster.RasterSpec())

    def _ridges_q(sf_dir: str):
        from whitebox_geospatial_analysis_tools_ray.stages.thinning import (
            find_ridges)
        return find_ridges(raster.RasterSpec())

    def _thin_q(sf_dir: str, kind: str):
        from whitebox_geospatial_analysis_tools_ray.stages.thinning import (
            line_thinning, remove_spurs)
        fn = line_thinning if kind == "thin" else remove_spurs
        return fn(raster.RasterSpec())

    def _downsample(sf_dir: str):
        spec = raster.RasterSpec()
        return raster_stats.aggregate_downsample(raster.synth_raster(spec), spec)

    return {
        # --- tiling / cell encoding (TileLasFile + HexBinning) ---
        "tile_assign": lambda sf: tiling.tile_counts(sf)[0],
        "las_tile_stats": lambda sf: _las_q(sf),
        "lidar_nn_interpolation": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.las",
            fromlist=["x"]).lidar_nn_interpolation(sf),
        "isolate_ground_points": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.las",
            fromlist=["x"]).isolate_ground_points(sf),
        "lidar_canopy_model": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.las",
            fromlist=["x"]).lidar_canopy_model(sf),
        "lidar_bare_earth_dem": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.las",
            fromlist=["x"]).lidar_bare_earth_dem(sf),
        "lidar_segmentation_weights": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.las",
            fromlist=["x"]).lidar_segmentation_weights(sf),
        "las_rgb_stats": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.las",
            fromlist=["x"]).las_rgb_stats(sf),
        "las_file_summary": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.las",
            fromlist=["x"]).get_las_file_summary(sf),
        "filter_las_scan_angles": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.las",
            fromlist=["x"]).filter_las_scan_angles(sf),
        "find_flightline_edge_points": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.las",
            fromlist=["x"]).find_flightline_edge_points(sf),
        "tile_hex": lambda sf: tiling.hex_counts(sf)[0],
        # --- spatial joins (IsolateVectorFeaturesByLocation family) ---
        "pip_rect_join": lambda sf: broadcast_pip_join(_points(sf), rect_zones()),
        "pip_rect_join_shuffle": lambda sf: cell_partitioned_pip_join(
            _points(sf), rect_zones()),
        "pip_triangle_join": lambda sf: broadcast_pip_join(
            _points(sf), triangle_zones()),
        "pip_polygon_join": lambda sf: broadcast_pip_join(
            _points(sf), seeded_polygons()),
        "pip_rtree_join": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.spatial_join",
            fromlist=["x"]).rtree_pip_join(_points(sf), seeded_polygons()),
        "spatial_anti_join": lambda sf: broadcast_pip_join(
            _points(sf), rect_zones(), mode="anti"),
        "within_distance_join": lambda sf: within_distance_join(
            _points(sf), site_points(), 300.0),
        # --- kNN / IDW (InterpolationIDW, NearestNeighbourAnalysis) ---
        "knn_idw": lambda sf: knn.idw_interpolate(_points(sf), cell_centers()),
        "kriging_interpolate": lambda sf: _kriging_q(sf),
        "rbf_interpolate": lambda sf: _rbf_q(sf),
        "knn_nearest_site": lambda sf: knn.nearest_point_per_site(
            _points(sf), site_points()),
        # --- aggregation (VectorPointsToRaster, ExtractStatistics, Histogram) ---
        "cell_aggregates": lambda sf: agg.cell_aggregates(_points(sf), world_grid),
        "zonal_stats": lambda sf: agg.zonal_stats(sf),
        "value_histogram": lambda sf: agg.value_histogram(sf),
        # --- dedup family ---
        "exact_dedup": lambda sf: dedup.exact_dedup(sf),
        "coincident_dedup": lambda sf: dedup.coincident_dedup(_points(sf)),
        "minhash_pairs": lambda sf: dedup.minhash_verified_pairs(sf),
        "minhash_error_eval": lambda sf: dedup.minhash_error_eval(sf),
        "ngram_jaccard_pairs": lambda sf: dedup.ngram_jaccard_pairs(sf),
        "simhash_signatures": lambda sf: dedup.simhash_signatures(sf),
        "simhash_neardup_pairs": lambda sf: dedup.simhash_neardup_pairs(sf),
        # --- corpus curation (cluster resolution, boilerplate,
        #     decontamination, vocabulary, stratified sampling) ---
        "dup_clusters": lambda sf: corpus.dup_clusters(sf),
        "embedding_dup_clusters": lambda sf: corpus.embedding_dup_clusters(sf),
        "boilerplate_ngrams": lambda sf: corpus.boilerplate_ngrams(sf),
        "topk_tokens": lambda sf: corpus.topk_tokens(sf),
        "decontaminate": lambda sf: corpus.decontaminate(sf),
        "duplicate_spans": lambda sf: corpus.duplicate_spans(sf),
        "lm_perplexity": lambda sf: corpus.lm_perplexity(sf),
        "perplexity_buckets": lambda sf: corpus.perplexity_buckets(sf),
        "importance_weights": lambda sf: corpus.importance_weights(sf),
        "corpus_clean_spans": lambda sf: corpus.corpus_clean_spans(sf),
        "bpe_train": lambda sf: corpus.bpe_train(sf),
        "bpe_encode_stats": lambda sf: corpus.bpe_encode_stats(sf),
        "stratified_sample": lambda sf: corpus.stratified_sample(sf),
        "pack_sequences": lambda sf: corpus.pack_sequences(sf),
        "repetition_filter": lambda sf: corpus.repetition_filter(sf),
        "chunk_documents": lambda sf: corpus.chunk_documents(sf),
        "corpus_clean": lambda sf: corpus.corpus_clean(sf),
        # --- text analysis ---
        "token_stats": lambda sf: textops.token_stats_by_lang(sf),
        "quality_scores": lambda sf: textops.quality_scores_by_lang(sf),
        "fingerprints": lambda sf: textops.fingerprint_stats(sf),
        "tfidf_top_terms": lambda sf: textops.tfidf_top_terms(sf),
        "token_hll": lambda sf: textops.token_hll(sf),
        "hll_estimate": lambda sf: textops.hll_estimate(sf),
        "hll_error_eval": lambda sf: textops.hll_error_eval(sf),
        "corpus_summary": lambda sf: textops.corpus_summary(sf),
        "langid_confusion": lambda sf: textops.langid_confusion(sf),
        # --- data selection (mixture, quality, divergence,
        #     quantization, diversity sampling, funnels) ---
        "dataset_mixture": lambda sf: _sel().dataset_mixture(sf),
        "quality_classifier": lambda sf: _sel().quality_classifier(sf),
        "token_kl_divergence": lambda sf: _sel().token_kl_divergence(sf),
        "embedding_quantize": lambda sf: _sel().embedding_quantize(sf),
        "kcenter_sample": lambda sf: _sel().kcenter_sample(sf),
        "events_funnel": lambda sf: _sel().events_funnel(sf),
        "events_retention": lambda sf: relational.events_retention(sf),
        "events_interval_join":
            lambda sf: relational.events_interval_join(sf),
        "token_zipf_fit": lambda sf: textops.token_zipf_fit(sf),
        "bm25_topk": lambda sf: textops.bm25_topk(sf),
        "length_quantiles": lambda sf: _sel().length_quantiles(sf),
        "incremental_dedup": lambda sf: _sel().incremental_dedup(sf),
        "embedding_pq": lambda sf: _sel().embedding_pq(sf),
        "ann_recall_eval": lambda sf: _sel().ann_recall_eval(sf),
        "time_decay_aggregate":
            lambda sf: _sel().time_decay_aggregate(sf),
        # --- similarity search ---
        "ann_cosine_topk": lambda sf: ann.cosine_topk(sf),
        "ann_knn_join": lambda sf: ann.knn_join_topk(sf),
        "ann_ivf_topk": lambda sf: ann.ivf_topk(sf),
        "ann_ivf_persisted": lambda sf: ann.ivf_topk_persisted(sf),
        # rows-only: k-means-trained quantizer (iterative training is
        # not SQL-expressible); recall@k vs brute force + determinism
        # gated in tests/test_ann_persisted.py
        "ann_ivf_trained": lambda sf: ann.ivf_topk_trained(sf),
        "embedding_neardup": lambda sf: emb.cosine_neardup_pairs(sf),
        "embedding_neardup_stats":
            lambda sf: emb.cosine_neardup_stats(sf),
        "pca_embeddings": lambda sf: emb.pca_embeddings(sf),
        "inverse_pca": lambda sf: emb.inverse_pca_embeddings(sf),
        "kmeans_embeddings": lambda sf: emb.kmeans_embeddings(sf),
        "cluster_attributes": lambda sf: emb.cluster_attributes(sf),
        # --- multimodal (opaque binary media + plain-task decode) ---
        "image_features": lambda sf: multimodal.image_features(sf),
        "image_features_real": lambda sf: multimodal.image_features_real(sf),
        "image_resize_stats": lambda sf: multimodal.image_resize_stats(sf),
        "video_frame_sample": lambda sf: multimodal.video_frame_sample(sf),
        "audio_frame_stats": lambda sf: multimodal.audio_frame_stats(sf),
        # --- relational surface ---
        "q1_pricing": lambda sf: relational.q1_pricing_summary(sf),
        "q3_shipping_priority":
            lambda sf: relational.q3_shipping_priority(sf),
        "q6_forecast_revenue":
            lambda sf: relational.q6_forecast_revenue(sf),
        "revenue_by_nation": lambda sf: relational.revenue_by_nation(sf),
        "top_parts": lambda sf: relational.top_parts_by_price(sf),
        "join_large": lambda sf: relational.orders_lineitem_join(sf),
        "events_window": lambda sf: relational.events_tumbling_window(sf),
        "events_asof_join": lambda sf: relational.events_asof_join(sf),
        "events_sliding_window":
            lambda sf: relational.events_sliding_window(sf),
        "user_sessions": lambda sf: relational.user_sessions(sf),
        "distinct_event_types": lambda sf: relational.distinct_event_types(sf),
        # --- raster family (MathTools, FilterMean, RasterToVectorPoints) ---
        "raster_math": _raster_math,
        "raster_stencil_mean": _raster_stencil,
        "raster_to_points": _raster_points,
        "raster_filter_median": _checksum_q(
            lambda ds, spec: raster.stencil_filter3x3(
                ds, spec, "median", regen=raster.synth_value)),
        "raster_filter_range": _checksum_q(
            lambda ds, spec: raster.stencil_filter3x3(
                ds, spec, "range", regen=raster.synth_value)),
        "raster_filter_stdev": _checksum_q(
            lambda ds, spec: raster.stencil_filter3x3(
                ds, spec, "stdev", regen=raster.synth_value)),
        "raster_filter_minimum": _checksum_q(
            lambda ds, spec: raster.stencil_filter3x3(
                ds, spec, "minimum", regen=raster.synth_value)),
        "raster_filter_maximum": _checksum_q(
            lambda ds, spec: raster.stencil_filter3x3(
                ds, spec, "maximum", regen=raster.synth_value)),
        "raster_filter_total": _checksum_q(
            lambda ds, spec: raster.stencil_filter3x3(
                ds, spec, "total", regen=raster.synth_value)),
        "raster_filter_diversity": _checksum_q(
            lambda ds, spec: raster.stencil_filter3x3(
                ds, spec, "diversity", regen=raster.synth_value)),
        "raster_filter_majority": _checksum_q(
            lambda ds, spec: raster.stencil_filter3x3(
                ds, spec, "majority", regen=raster.synth_class_value)),
        "raster_reclass": _checksum_q(raster_stats.reclass_equal_interval),
        "raster_zscore": _checksum_q(raster_stats.zscores),
        "raster_rescale": _checksum_q(raster_stats.rescale_value_range),
        "elev_rel_minmax": _checksum_q(raster_stats.elev_relative_to_minmax),
        "image_destripe": _checksum_q(
            lambda ds, spec: raster_stats.destripe(
                ds, spec, regen=raster.synth_value)),
        "raster_hist_equalize": _checksum_q(raster_stats.histogram_equalize),
        # CumulativeDistributionFunction.java:229-283 IS the equalize
        # two-phase plan at 50,000 bins (bin → cumsum/numCells remap)
        "cumulative_distribution": _checksum_q(
            lambda ds, spec: raster_stats.histogram_equalize(
                ds, spec, nbins=50000)),
        "fuzzy_membership": _checksum_q(raster_stats.fuzzy_membership),
        "crispness_index": lambda sf: raster_stats.crispness_index(raster.RasterSpec()),
        "raster_aggregate": _downsample,
        "geotiff_roundtrip": _geotiff_q,
        "geotiff_compressed_roundtrip": _geotiff_compressed_q,
        "png_roundtrip": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.png",
            fromlist=["x"]).png_roundtrip_query(),
        "bmp_roundtrip": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.bmp",
            fromlist=["x"]).bmp_roundtrip_query(),
        "arc_flt_roundtrip": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.arc_flt",
            fromlist=["x"]).arc_flt_roundtrip_query(),
        "jpeg_roundtrip": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.jpeg",
            fromlist=["x"]).jpeg_roundtrip_query(),
        "jpeg_progressive_roundtrip": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.jpeg",
            fromlist=["x"]).jpeg_progressive_roundtrip_query(),
        "retrieve_srtm_mosaic": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.srtm_retrieve",
            fromlist=["x"]).retrieve_srtm_query(),
        "raster_mosaic": lambda sf: raster_stats.mosaic(raster.RasterSpec()),
        "mosaic_feathering": lambda sf: raster_stats.mosaic_feathering(
            raster.RasterSpec()),
        "convert_to_smooth_surface": lambda sf:
            raster_stats.convert_to_smooth_surface(raster.RasterSpec()),
        "change_data_type": _checksum_q(raster_stats.change_data_type_integer),
        "random_sample": lambda sf: raster_stats.random_sample(
            raster.RasterSpec()),
        "random_field": lambda sf: raster_stats.random_field(
            raster.RasterSpec()),
        "extract_values_at_points": lambda sf:
            raster_stats.extract_raster_values_at_points(sf),
        "xyz_text_to_raster": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.xyz",
            fromlist=["x"]).xyz_text_to_raster(sf),
        "create_rect_grid": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.gridding",
            fromlist=["x"]).create_rect_grid(sf),
        "raster_resample": lambda sf: raster_stats.resample_nn(
            raster.RasterSpec(), out_rows=100, out_cols=160),
        # --- terrain derivatives + hydrology (TerrainAnalysisTools, HydroTools) ---
        "terrain_slope": _checksum_q(
            lambda ds, spec: terrain.slope(ds, spec,
                                           regen=raster.synth_value)),
        "horizon_angle": lambda sf: terrain.horizon_angle_east(
            raster.RasterSpec()),
        "directional_relief": lambda sf: terrain.directional_relief_east(
            raster.RasterSpec()),
        "fetch_analysis": lambda sf: terrain.fetch_analysis_east(
            raster.RasterSpec()),
        "exposure_wind_flux": lambda sf: terrain.exposure_wind_flux_east(
            raster.RasterSpec()),
        "weighted_sum": _pair_q(raster_stats.weighted_sum),
        "percent_greater_than": _pair_q(raster_stats.percent_greater_than),
        "pan_sharpen_ihs": lambda sf: raster_stats.pan_sharpen_ihs(),
        "fill_missing_data_holes": lambda sf:
            raster_stats.fill_missing_data_holes(),
        "average_overlay": _pair_q(raster_stats.average_overlay),
        "max_overlay": _pair_q(
            lambda p, s: raster_stats.stack_overlay(p, s, "max")),
        "min_overlay": _pair_q(
            lambda p, s: raster_stats.stack_overlay(p, s, "min")),
        "max_abs_overlay": _pair_q(
            lambda p, s: raster_stats.stack_overlay(p, s, "maxabs")),
        "lowest_position": _pair_q(raster_stats.lowest_position),
        "percent_less_than": _pair_q(
            lambda p, s: raster_stats.percent_compare(p, s, "lt")),
        "percent_equal_to": _pair_q(
            lambda p, s: raster_stats.percent_compare(p, s, "eq")),
        "weighted_overlay": _pair_q(raster_stats.weighted_overlay),
        "correct_vignetting": lambda sf: raster_stats.correct_vignetting(
            None, raster.RasterSpec()),
        "minmax_stretch": _checksum_q(raster_stats.minmax_stretch),
        "sigmoidal_stretch": _checksum_q(raster_stats.sigmoidal_stretch),
        "flip_image": lambda sf: raster.raster_row_checksums(
            raster_stats.flip_image(raster.RasterSpec()),
            raster.RasterSpec()),
        "create_plane": lambda sf: raster.raster_row_checksums(
            raster_stats.create_plane(raster.RasterSpec()),
            raster.RasterSpec()),
        "filter_olympic": _checksum_q(
            lambda ds, spec: raster_stats.filter_olympic(
                ds, spec, regen=raster.synth_value)),
        "filter_percentile": _checksum_q(
            lambda ds, spec: raster_stats.filter_percentile(
                ds, spec, regen=raster.synth_value)),
        "filter_user_defined_weights": _checksum_q(
            lambda ds, spec: raster_stats.filter_user_defined_weights(
                ds, spec, regen=raster.synth_value)),
        "lee_sigma_filter": _checksum_q(
            lambda ds, spec: raster_stats.lee_sigma_filter(
                ds, spec, regen=raster.synth_value)),
        "filter_knearest_mean": _checksum_q(
            lambda ds, spec: raster_stats.filter_knearest_mean(
                ds, spec, regen=raster.synth_value)),
        "filter_sobel": _checksum_q(
            lambda ds, spec: raster_stats.filter_sobel(
                ds, spec, regen=raster.synth_value)),
        "filter_prewitt": _checksum_q(
            lambda ds, spec: raster_stats.filter_prewitt(
                ds, spec, regen=raster.synth_value)),
        "filter_emboss": _checksum_q(
            lambda ds, spec: raster_stats.filter_emboss(
                ds, spec, regen=raster.synth_value)),
        "filter_laplacian": _checksum_q(
            lambda ds, spec: raster_stats.filter_laplacian(
                ds, spec, regen=raster.synth_value)),
        "filter_line_detection": _checksum_q(
            lambda ds, spec: raster_stats.filter_line_detection(
                ds, spec, regen=raster.synth_value)),
        "filter_highpass": _checksum_q(
            lambda ds, spec: raster_stats.filter_highpass(
                ds, spec, regen=raster.synth_value)),
        "filter_conservative_smoothing": _checksum_q(
            lambda ds, spec: raster_stats.filter_conservative_smoothing(
                ds, spec, regen=raster.synth_value)),
        "radiation_on_slope": lambda sf: raster.raster_row_int_checksums(
            __import__(
                "whitebox_geospatial_analysis_tools_ray.stages.terrain",
                fromlist=["x"]).radiation_on_slope(
                raster.synth_raster(raster.RasterSpec()), raster.RasterSpec(),
                regen=raster.synth_value),
            raster.RasterSpec()),
        "test_for_normality": lambda sf: raster_stats.test_for_normality(
            raster.synth_raster(raster.RasterSpec()), raster.RasterSpec()),
        "image_global_stats": lambda sf: raster_stats.image_global_stats(
            raster.synth_raster(raster.RasterSpec()), raster.RasterSpec()),
        "attribute_histogram": lambda sf: relational.attribute_histogram(sf),
        "attribute_correlation": lambda sf: relational.attribute_correlation(sf),
        "direct_decorrelation_stretch": lambda sf:
            raster.raster_row_checksums(
                raster_stats.direct_decorrelation_stretch(
                    raster_stats.synth_composite(raster.RasterSpec()),
                    raster.RasterSpec()),
                raster.RasterSpec()),
        "balance_contrast_enhancement": lambda sf:
            raster.raster_row_checksums(
                raster_stats.balance_contrast_enhancement(
                    raster_stats.synth_composite(raster.RasterSpec()),
                    raster.RasterSpec()),
                raster.RasterSpec()),
        "percentage_stretch": lambda sf: raster.raster_row_int_checksums(
            raster_stats.percentage_contrast_stretch(
                raster.synth_raster(raster.RasterSpec()),
                raster.RasterSpec()),
            raster.RasterSpec()),
        "gaussian_stretch": lambda sf: raster.raster_row_int_checksums(
            raster_stats.gaussian_stretch(
                raster.synth_raster(raster.RasterSpec()),
                raster.RasterSpec()),
            raster.RasterSpec()),
        "filter_edge_preserving": lambda sf: raster.raster_row_int_checksums(
            raster_stats.filter_edge_preserving(
                raster.synth_raster(raster.RasterSpec()), raster.RasterSpec(),
                regen=raster.synth_value),
            raster.RasterSpec()),
        "filter_log": lambda sf: raster.raster_row_int_checksums(
            raster_stats.filter_log(
                raster.synth_raster(raster.RasterSpec()), raster.RasterSpec(),
                regen=raster.synth_value),
            raster.RasterSpec()),
        "filter_dog": lambda sf: raster.raster_row_int_checksums(
            raster_stats.filter_dog(
                raster.synth_raster(raster.RasterSpec()), raster.RasterSpec(),
                regen=raster.synth_value),
            raster.RasterSpec()),
        "filter_gaussian": lambda sf: raster.raster_row_int_checksums(
            raster_stats.filter_gaussian(
                raster.synth_raster(raster.RasterSpec()), raster.RasterSpec(),
                regen=raster.synth_value),
            raster.RasterSpec()),
        "set_nodata": _checksum_q(
            lambda ds, spec: raster_stats.set_nodata(
                raster.raster_map(ds, lambda a: __import__("numpy").floor(
                    a / 100.0)), spec)),
        "convert_nodata_to_zero": _checksum_q(
            lambda ds, spec: raster_stats.convert_nodata_to_zero(ds, spec)),
        "assign_row_numbers": lambda sf: raster.raster_row_checksums(
            raster_stats.assign_row_numbers(raster.RasterSpec()),
            raster.RasterSpec()),
        "new_raster_from_base": lambda sf: raster.raster_row_checksums(
            raster_stats.new_raster_from_base(raster.RasterSpec()),
            raster.RasterSpec()),
        "reclass_from_file": _checksum_q(
            lambda ds, spec: raster_stats.reclass_from_file(ds, spec)),
        "filter_adaptive": lambda sf: raster.raster_row_int_checksums(
            raster_stats.filter_adaptive(raster.RasterSpec()),
            raster.RasterSpec()),
        "diff_mean_elev": lambda sf: raster.raster_row_checksums(
            raster_stats.diff_from_mean_elevation(raster.RasterSpec()),
            raster.RasterSpec()),
        "dev_mean_elev": lambda sf: raster.raster_row_checksums(
            raster_stats.dev_from_mean_elevation(raster.RasterSpec()),
            raster.RasterSpec()),
        "fill_pits": _checksum_q(
            lambda ds, spec: hydro.fill_pits(ds, spec,
                                             regen=raster.synth_value)),
        "thicken_raster_line": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.thinning",
            fromlist=["thicken_line"]).thicken_line(raster.RasterSpec()),
        "find_no_flow_cells": _checksum_q(
            lambda ds, spec: hydro.find_no_flow_cells(
                ds, spec, regen=raster.synth_value)),
        "terrain_tri": _checksum_q(
            lambda ds, spec: terrain.tri(ds, spec,
                                         regen=raster.synth_value)),
        "terrain_relative_aspect": _checksum_q(
            lambda ds, spec: terrain.relative_aspect(
                ds, spec, regen=raster.synth_value)),
        "pennock_landform": _checksum_q(
            lambda ds, spec: terrain.pennock(ds, spec,
                                             regen=raster.synth_value)),
        "terrain_aspect": _checksum_q(
            lambda ds, spec: terrain.aspect(ds, spec,
                                            regen=raster.synth_value)),
        "terrain_hillshade": _checksum_q(
            lambda ds, spec: terrain.hillshade(ds, spec,
                                               regen=raster.synth_value)),
        "terrain_plan_curv": _checksum_q(
            lambda ds, spec: terrain.curvature(
                ds, spec, "plan", regen=raster.synth_value)),
        "terrain_prof_curv": _checksum_q(
            lambda ds, spec: terrain.curvature(
                ds, spec, "prof", regen=raster.synth_value)),
        "terrain_tan_curv": _checksum_q(
            lambda ds, spec: terrain.curvature(
                ds, spec, "tan", regen=raster.synth_value)),
        # total curvature cells are O(1e10); scale by 1e-9 before the
        # round-6 checksum so cross-engine summation order cannot bite
        "terrain_total_curv": _checksum_q(
            lambda ds, spec: raster.raster_map(
                terrain.curvature(ds, spec, "total",
                                  regen=raster.synth_value),
                lambda a: a / 1e9)),
        "flow_pointer_d8": _checksum_q(
            lambda ds, spec: terrain.flow_pointer_d8(
                ds, spec, regen=raster.synth_value)),
        "inflow_count": _checksum_q(
            lambda ds, spec: hydro.num_inflowing_neighbours(
                terrain.flow_pointer_d8(ds, spec,
                                        regen=raster.synth_value), spec)),
        "flow_accumulation": lambda sf: hydro.flow_accumulation_d8(),
        "watershed": lambda sf: hydro.watershed(),
        "fill_depressions": lambda sf: fill.fill_depressions(),
        "breach_depressions": lambda sf: _breach_q(raster.RasterSpec(
            rows=96, cols=96, tile_rows=32)),
        "extract_streams": lambda sf: hydro.extract_streams(),
        "snap_pour_points": lambda sf: hydro.snap_pour_points(),
        "downslope_flowpath_length": lambda sf:
            hydro.downslope_flowpath_length(),
        "branch_length": lambda sf: _branch_length_q(raster.RasterSpec(
            rows=96, cols=96, tile_rows=32)),
        "remove_off_terrain_objects": lambda sf: _oto_q(raster.RasterSpec(
            rows=96, cols=96, tile_rows=32)),
        "multiscale_elev_residual": lambda sf: _meri_q(raster.RasterSpec(
            rows=96, cols=96, tile_rows=32)),
        "modified_kmeans": lambda sf: _mkmeans_q(raster.RasterSpec(
            rows=96, cols=96, tile_rows=32)),
        "dendrogram": lambda sf: _dendrogram_q(raster.RasterSpec(
            rows=96, cols=96, tile_rows=32)),
        "mass_flux_d8": lambda sf: hydro.mass_flux_d8(),
        "flow_accumulation_dinf": lambda sf: _dinf_q(sf),
        "flow_accumulation_fd8": lambda sf: hydro.flow_accumulation_fd8(),
        "max_upslope_flowpath_length": lambda sf:
            hydro.max_upslope_flowpath_length(),
        "wetness_index": lambda sf: hydro.wetness_index(),
        "stream_power_index": lambda sf: hydro.relative_stream_power(),
        "sediment_transport_index": lambda sf:
            hydro.sediment_transport_index(),
        "viewshed": lambda sf: _viewshed_q(sf),
        "line_thinning": lambda sf: _thin_q(sf, "thin"),
        "remove_spurs": lambda sf: _thin_q(sf, "spurs"),
        "find_ridges": lambda sf: _ridges_q(sf),
        "stream_order": lambda sf: streams.stream_order(),
        "stream_magnitude": lambda sf: streams.stream_magnitude(),
        "stream_link_id": lambda sf: streams.stream_link_id(),
        "stream_link_lengths": lambda sf: streams.stream_link_lengths(),
        "stream_link_slope": lambda sf: streams.stream_link_slope(),
        "find_main_stem": lambda sf: streams.find_main_stem(),
        "streams_to_vector": lambda sf: streams.streams_to_vector(),
        # 96x96 gate spec: the exact replay oracle is a sequential
        # recursive-CTE state machine (~0.2 s/100 trace steps); the
        # 256x256 default stays covered by the naive-mirror tiling
        # tests (tests/test_vectorize.py)
        "raster_to_vector_lines": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.vectorize",
            fromlist=["x"]).raster_to_vector_lines(
                __import__(
                    "whitebox_geospatial_analysis_tools_ray.stages.raster",
                    fromlist=["x"]).RasterSpec(rows=96, cols=96,
                                               tile_rows=32)),
        "subbasins": lambda sf: streams.subbasins(),
        "strahler_order_basins": lambda sf: streams.strahler_order_basins(),
        "isobasin": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.isobasin",
            fromlist=["x"]).isobasin(raster.RasterSpec(
                rows=96, cols=96, tile_rows=32)),
        "hillslopes": lambda sf: streams.hillslopes(),
        "hack_order": lambda sf: streams.hack_order(),
        "find_saddle_points": lambda sf: streams.find_saddle_points(
            raster.RasterSpec(rows=96, cols=96, tile_rows=32)),
        "median_upstream_area": lambda sf:
            streams.median_upstream_area(raster.RasterSpec(
                rows=96, cols=96, tile_rows=32)),
        "stream_link_classification": lambda sf:
            streams.stream_link_classification(threshold=2.0),
        "remove_short_streams": lambda sf:
            streams.remove_short_streams(threshold=2.0, min_length=3.0),
        "trace_downslope_flowpaths": lambda sf:
            hydro.trace_downslope_flowpaths(),
        "num_downslope_neighbours": _checksum_q(
            lambda ds, spec: hydro.num_downslope_neighbours(
                ds, spec, regen=raster.synth_value)),
        "num_upslope_neighbours": _checksum_q(
            lambda ds, spec: hydro.num_upslope_neighbours(
                ds, spec, regen=raster.synth_value)),
        "min_downslope_elev_change": lambda sf: raster.raster_row_checksums(
            hydro.min_downslope_elev_change(raster.RasterSpec()),
            raster.RasterSpec()),
        "max_downslope_elev_change": _checksum_q(
            lambda ds, spec: hydro.max_downslope_elev_change(
                ds, spec, regen=raster.synth_value)),
        "find_patch_edge_cells": lambda sf: raster.raster_row_checksums(
            raster_stats.find_patch_edge_cells(
                raster.raster_map(raster.synth_raster(raster.RasterSpec()),
                                  lambda a: __import__("numpy").floor(
                                      a / 100.0)),
                raster.RasterSpec()),
            raster.RasterSpec()),
        "filter_local_contrast": lambda sf: raster.raster_row_int_checksums(
            raster_stats.filter_local_contrast(
                raster.synth_raster(raster.RasterSpec()), raster.RasterSpec(),
                regen=raster.synth_value),
            raster.RasterSpec()),
        "elev_rel_watershed_minmax": lambda sf:
            hydro.elev_rel_watershed_minmax(raster.RasterSpec(
                rows=96, cols=96, tile_rows=32)),
        "downslope_index": lambda sf: hydro.downslope_index(
            raster.RasterSpec(rows=96, cols=96, tile_rows=32)),
        "avg_slope_to_divide": lambda sf:
            hydro.avg_slope_to_divide(raster.RasterSpec(
                rows=96, cols=96, tile_rows=32)),
        "avg_upslope_flowpath_length": lambda sf:
            hydro.avg_upslope_flowpath_length(raster.RasterSpec(
                rows=96, cols=96, tile_rows=32)),
        "total_upstream_channel_length": lambda sf:
            hydro.total_upstream_channel_length(raster.RasterSpec(
                rows=96, cols=96, tile_rows=32)),
        "furthest_channel_head_distance": lambda sf:
            hydro.furthest_channel_head_distance(raster.RasterSpec(
                rows=96, cols=96, tile_rows=32)),
        "elev_above_pit": lambda sf: streams.elev_above_pit(
            raster.RasterSpec(rows=96, cols=96, tile_rows=32)),
        "distance_to_outlet": lambda sf: streams.distance_to_outlet(
            raster.RasterSpec(rows=96, cols=96, tile_rows=32)),
        "depth_in_sink": lambda sf: fill.depth_in_sink(raster.RasterSpec(
            rows=96, cols=96, tile_rows=32)),
        "downslope_distance_to_stream": lambda sf:
            streams.downslope_distance_to_stream(raster.RasterSpec(
                rows=96, cols=96, tile_rows=32)),
        "elevation_above_stream": lambda sf:
            streams.elevation_above_stream(raster.RasterSpec(
                rows=96, cols=96, tile_rows=32)),
        "flood_order": lambda sf: fill.flood_order(raster.RasterSpec(
            rows=96, cols=96, tile_rows=32)),
        "stochastic_depression_analysis": lambda sf:
            fill.stochastic_depression_analysis(raster.RasterSpec(
                rows=96, cols=96, tile_rows=32), n_real=2),
        "mass_flux_dinf": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.dinf",
            fromlist=["x"]).mass_flux_dinf(raster.RasterSpec(
                rows=96, cols=96, tile_rows=32)),
        "flow_accumulation_mdinf": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.dinf",
            fromlist=["x"]).flow_accumulation_mdinf(raster.RasterSpec(
                rows=96, cols=96, tile_rows=32)),
        "flow_pointer_fd8": _checksum_q(
            lambda ds, spec: hydro.flow_pointer_fd8(
                ds, spec, regen=raster.synth_value)),
        "flow_pointer_dinf": _checksum_q(
            lambda ds, spec: __import__(
                "whitebox_geospatial_analysis_tools_ray.stages.dinf",
                fromlist=["x"]).flow_pointer_dinf(
                    ds, spec, regen=raster.synth_value)),
        "flow_pointer_rho8": lambda sf: raster.raster_row_checksums(
            hydro.flow_pointer_rho8(raster.RasterSpec()),
            raster.RasterSpec()),
        "visibility_index": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.viewshed",
            fromlist=["x"]).visibility_index(raster.RasterSpec(
                rows=96, cols=96, tile_rows=32)),
        "vector_cleaning": lambda sf: _vclean_q(sf),
        "shape_metrics_basic": lambda sf: _shape_q(sf, "basic"),
        "medoid": _vops_q("medoid"),
        "smooth_vector": _vops_q("smooth_vector"),
        "polygons_to_lines": _vops_q("polygons_to_lines"),
        "extract_nodes": _vops_q("extract_nodes_query"),
        "centroid_vector": _vops_q("centroid_vector"),
        "isolate_by_attribute": _vops_q("isolate_by_attribute"),
        "buffer_vector": _vops_q("buffer_vector"),
        "group_polygons_by_orientation":
            _vops_q("group_polygons_by_orientation"),
        "patch_orientation_vector_field":
            _vops_q("patch_orientation_vector_field"),
        "find_polygon_midline": _vops_q("find_polygon_midline"),
        "find_polygon_chains": _chains_q,
        "multiparts_to_singleparts": _vops_q("multiparts_to_singleparts"),
        "singleparts_to_multiparts": _vops_q("singleparts_to_multiparts"),
        "remove_polygon_holes": _vops_q("remove_polygon_holes"),
        "extend_vector_lines": _vops_q("extend_vector_lines"),
        "add_point_coordinates": _vops_q("add_point_coordinates"),
        "create_rect_vector_grid": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.vector_ops",
            fromlist=["x"]).create_rect_vector_grid(),
        "create_hex_vector_grid": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.vector_ops",
            fromlist=["x"]).create_hex_vector_grid(),
        "shape_complexity": _vops_q("shape_complexity"),
        "minimum_bounding_box": _vops_q("minimum_bounding_box"),
        "minimum_convex_hull": _vops_q("minimum_convex_hull"),
        "lines_to_polygons": _vops_q("lines_to_polygons"),
        "simplify_line": _vops_q("simplify_line"),
        "layer_footprint": _vops_q("layer_footprint_query"),
        "long_axis": _vops_q("long_axis"),
        "short_axis": _vops_q("short_axis"),
        "interior_point": _vops_q("interior_point"),
        "trend_surface": lambda sf: _trend_q(sf),
        "shape_metrics_extended": lambda sf: _shape_q(sf, "ext"),
        "contour_lengths": lambda sf: raster_stats.contour_lengths(
            raster.RasterSpec()),
        # --- TIN / Voronoi (ConstructTIN, VoronoiDiagram, RasterizeTIN —
        # from-scratch Bowyer–Watson, per-tile ghost-margin construction) ---
        "construct_tin": lambda sf: tin.construct_tin(sf),
        "voronoi_areas": lambda sf: tin.voronoi_areas(sf),
        "rasterize_tin": lambda sf: tin.rasterize_tin(sf),
        # --- vector overlay (VectorTools Clip/Erase/Intersect/Union/
        # Difference/SymmetricDifference + Dissolve, general concave
        # kernel in core/overlay.py) ---
        "vector_clip": lambda sf: vector_overlay.clip_boxes(sf),
        "vector_erase": lambda sf: vector_overlay.erase_boxes(sf),
        "overlay_intersect": lambda sf: vector_overlay.overlay_areas(
            sf, "intersection"),
        "overlay_union": lambda sf: vector_overlay.overlay_areas(sf, "union"),
        "overlay_difference": lambda sf: vector_overlay.overlay_areas(
            sf, "difference"),
        "overlay_symdiff": lambda sf: vector_overlay.overlay_areas(
            sf, "symmetric_difference"),
        "dissolve_union": lambda sf: vector_overlay.dissolve_union_area(sf),
        "fuse_touching": lambda sf: vector_overlay.fuse_touching(sf),
        # --- distance transform (GISTools EuclideanDistance) ---
        "euclidean_distance": lambda sf: distance.euclidean_distance(),
        "raster_buffer": lambda sf: distance.euclidean_distance(
            buffer_d=10.0),
        "euclidean_allocation": lambda sf: distance.euclidean_allocation(),
        "burn_streams": lambda sf: distance.burn_streams(),
        # --- cost distance (GISTools CostAccumulation/Allocation) ---
        "cost_accumulation": lambda sf: _cost_q(sf),
        "cost_allocation": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.cost",
            fromlist=["x"]).cost_allocation(raster.RasterSpec()),
        "cost_pathway": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.cost",
            fromlist=["x"]).cost_pathway(raster.RasterSpec()),
        "find_parallel_flow": _checksum_q(
            lambda ds, spec: hydro.find_parallel_flow(
                terrain.flow_pointer_d8(ds, spec,
                                        regen=raster.synth_value), spec)),
        # --- raster calculator (RasterCalculator expression compiler) ---
        "raster_calc": _raster_calc,
        "conditional_evaluation": _conditional_eval,
        # --- CRS transform (ConversionTools CoordinateSystemTransformation,
        # WhiteboxAPI georeference/LL2UTM) ---
        "utm_project": _utm_project,
        "utm_project_nad27": _utm_project_nad27,
        "utm_project_ed50": _utm_project_ed50,
        # --- photogrammetry exemplar (Scripts/EstimateHeightsFromParallax) ---
        "estimate_heights_parallax": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.photogrammetry",
            fromlist=["x"]).estimate_heights_from_parallax(sf),
        "locate_principal_point": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.photogrammetry",
            fromlist=["x"]).locate_principal_point(sf),
        "image_rectification_fit": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.photogrammetry",
            fromlist=["x"]).image_rectification_fit(sf),
        "surf_match_points": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.photogrammetry",
            fromlist=["x"]).surf_match_points(sf),
        "find_tie_points": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.photogrammetry",
            fromlist=["x"]).find_tie_points(sf),
        "epipolar_transform": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.photogrammetry",
            fromlist=["x"]).epipolar_transform(sf),
        "locate_conjugate_point": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.conjugate",
            fromlist=["x"]).locate_conjugate_point(sf),
        "surf_pixel_matching": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.surf",
            fromlist=["x"]).surf_pixel_matching(sf),
        # --- vector→raster conversion (ConversionTools) ---
        "rasterize_polygons": lambda sf: rasterize.rasterize_triangles(),
        "raster_to_polygons": lambda sf: _r2poly_q(sf),
        "contour_polylines": lambda sf: _contour_poly_q(sf),
        "rasterize_lines": lambda sf: rasterize.rasterize_lines(),
        "intersection_density": lambda sf: rasterize.intersection_density(),
        "interpolation_nn": lambda sf: _gridding_q("interpolation_nn"),
        "minimum_interpolation": lambda sf: _gridding_q(
            "minimum_interpolation"),
        "point_density": lambda sf: _gridding_q("point_density"),
        "vector_feature_density": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.gridding",
            fromlist=["x"]).vector_feature_density(sf),
        "nearest_neighbour_analysis": lambda sf: knn.nearest_neighbour_analysis(
            _points(sf)),
        "jenson_snap_pour_points": lambda sf: hydro.jenson_snap_pour_points(),
        "attribute_gridding": lambda sf: _ag_q(sf),
        "find_straight_segments": _vops_q("find_straight_segments"),
        "remove_polygon_necks": _vops_q("remove_polygon_necks"),
        "clip_raster_to_polygon": lambda sf: rasterize.clip_raster_to_polygon(),
        "clump": lambda sf: clump_mod.clump(),
        # --- two-raster stats (StatsTools) ---
        "cross_tabulation": _pair_q(raster_stats.cross_tabulation),
        "kappa_index": _pair_q(raster_stats.kappa_index),
        "extract_valleys": lambda sf: raster_stats.extract_valleys_pd(raster.RasterSpec()),
        "extract_valleys_jr": _checksum_q(
            lambda ds, spec: raster_stats.extract_valleys_jr(
                ds, spec, regen=raster.synth_value)),
        "extract_valleys_lq": _checksum_q(
            lambda ds, spec: raster_stats.extract_valleys_lq(
                ds, spec, regen=raster.synth_value)),
        "paired_t_test": _pair_q(raster_stats.paired_t_test),
        "highest_position": _pair_q(raster_stats.highest_position),
        "colour_composite": _pair_q(raster_stats.colour_composite),
        "split_colour_composite": _pair_q(raster_stats.split_colour_composite),
        "write_function_memory": _pair_q(raster_stats.write_function_memory),
        "change_vector_analysis": _pair_q(raster_stats.change_vector_analysis),
        "ndvi": _pair_q(raster_stats.ndvi),
        "morans_i": lambda sf: raster_stats.morans_i(raster.RasterSpec()),
        "histogram_match": _pair_q(raster_stats.histogram_match),
        "rgb_ihs_roundtrip": lambda sf: raster_stats.rgb_ihs_roundtrip(raster.RasterSpec()),
        "image_correlation": _pair_q(raster_stats.image_correlation),
        "image_regression": _pair_q(raster_stats.image_regression),
        # --- flagship (rows-only; composite of the above) ---
        "flagship": lambda sf: flagship(sf),
        "job_manifest": lambda sf: __import__(
            "whitebox_geospatial_analysis_tools_ray.pipelines.job",
            fromlist=["x"]).job_manifest(sf),
        "pages_flagship": _pages_flagship_q,
        "pages_exact_dedup": _pages_dedup_q,
    }


def oracle_sql() -> dict[str, str]:
    from whitebox_geospatial_analysis_tools_ray import oracle as o

    def _gridding_sql(name):
        from whitebox_geospatial_analysis_tools_ray.stages import gridding
        return getattr(gridding, name)()
    from whitebox_geospatial_analysis_tools_ray.functions.crs import (
        utm_project_sql as _crs_sql)
    from whitebox_geospatial_analysis_tools_ray.sources.las import (
        las_tile_stats_sql as _las_sql)
    from whitebox_geospatial_analysis_tools_ray.stages.multimodal import (
        video_frame_sample_sql as _vfs_sql)
    from whitebox_geospatial_analysis_tools_ray.stages.vector_ops import (
        medoid_sql as _medoid_sql,)
    from whitebox_geospatial_analysis_tools_ray.stages import (
        relational as relational_mod)

    def _vops2(name):
        from whitebox_geospatial_analysis_tools_ray.stages import vector_ops
        return getattr(vector_ops, name)()
    from whitebox_geospatial_analysis_tools_ray.stages.vector_ops import (
        shape_metrics_basic_sql as _shape_sql,
        trend_surface_sql as _trend_sql,
        vector_cleaning_sql as _vclean_sql)

    return {
        "flagship": o.flagship_sql(),
        # the checkpointed writer under the gate: manifest rows per tile
        "job_manifest": ("SELECT CAST(tile_id AS BIGINT) AS partition, "
                         "count(*)::BIGINT AS n_rows FROM ("
                         + o.flagship_sql()
                         + ") q GROUP BY 1 ORDER BY 1"),
        "pages_flagship": o.pages_flagship_sql(),
        "pages_exact_dedup": o.pages_exact_dedup_sql(),
        "tile_assign": o.tile_assign_sql(),
        "las_tile_stats": _las_sql(),
        "lidar_nn_interpolation": __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.las",
            fromlist=["x"]).lidar_nn_interpolation_sql(),
        "lidar_segmentation_weights": __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.las",
            fromlist=["x"]).lidar_segmentation_weights_sql(),
        "las_rgb_stats": __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.las",
            fromlist=["x"]).las_rgb_stats_sql(),
        "las_file_summary": __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.las",
            fromlist=["x"]).get_las_file_summary_sql(),
        "filter_las_scan_angles": __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.las",
            fromlist=["x"]).filter_las_scan_angles_sql(),
        "find_flightline_edge_points": __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.las",
            fromlist=["x"]).find_flightline_edge_points_sql(),
        "tile_hex": o.hex_assign_sql(),
        "pip_rect_join": o.pip_rect_join_sql(),
        "pip_rect_join_shuffle": o.pip_rect_join_sql(),
        "pip_triangle_join": o.pip_triangle_join_sql(),
        "pip_polygon_join": o.pip_polygon_join_sql(),
        # rtree variant: identical semantics, different candidate index
        "pip_rtree_join": o.pip_polygon_join_sql(),
        "spatial_anti_join": o.spatial_anti_join_sql(),
        "within_distance_join": o.within_distance_join_sql(),
        "knn_idw": o.idw_sql(),
        "knn_nearest_site": o.nearest_site_sql(),
        "cell_aggregates": o.cell_aggregates_sql(),
        "zonal_stats": o.zonal_stats_sql(),
        "value_histogram": o.histogram_sql(),
        "exact_dedup": o.exact_dedup_sql(),
        "coincident_dedup": o.coincident_dedup_sql(),
        "token_stats": o.token_stats_sql(),
        "quality_scores": o.quality_scores_sql(),
        "fingerprints": o.fingerprint_sql(),
        "tfidf_top_terms": o.tfidf_top_terms_sql(),
        "token_hll": o.token_hll_sql(),
        "hll_estimate": o.hll_estimate_sql(),
        "ann_cosine_topk": o.ann_cosine_topk_sql(),
        "ann_knn_join": o.ann_knn_join_sql(),
        "ann_ivf_topk": o.ann_ivf_topk_sql(),
        # persisted-index variant: same quantizer/candidates/ranking
        "ann_ivf_persisted": o.ann_ivf_topk_sql(),
        "embedding_neardup": o.cosine_neardup_sql(),
        "image_features": o.image_features_sql(),
        "video_frame_sample": _vfs_sql(),
        "audio_frame_stats": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.multimodal",
            fromlist=["x"]).audio_frame_stats_sql(),
        "image_features_real": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.multimodal",
            fromlist=["x"]).image_features_real_sql(),
        "image_resize_stats": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.multimodal",
            fromlist=["x"]).image_resize_stats_sql(),
        "kmeans_embeddings": o.kmeans_embeddings_sql(),
        "cluster_attributes": o.cluster_attributes_sql(),
        "langid_confusion": o.langid_confusion_sql(),
        "simhash_signatures": o.simhash_signatures_sql(),
        "simhash_neardup_pairs": o.simhash_neardup_pairs_sql(),
        "minhash_pairs": o.minhash_pairs_sql(),
        "minhash_error_eval": o.minhash_error_eval_sql(),
        "ngram_jaccard_pairs": o.ngram_jaccard_pairs_sql(),
        "dup_clusters": o.dup_clusters_sql(),
        "embedding_dup_clusters": o.embedding_dup_clusters_sql(),
        "boilerplate_ngrams": o.boilerplate_ngrams_sql(),
        "topk_tokens": o.topk_tokens_sql(),
        "decontaminate": o.decontaminate_sql(),
        "duplicate_spans": o.duplicate_spans_sql(),
        "lm_perplexity": o.lm_perplexity_sql(),
        "perplexity_buckets": o.perplexity_buckets_sql(),
        "importance_weights": o.importance_weights_sql(),
        "corpus_clean_spans": o.corpus_clean_spans_sql(),
        "dataset_mixture": o.dataset_mixture_sql(),
        "quality_classifier": o.quality_classifier_sql(),
        "token_kl_divergence": o.token_kl_divergence_sql(),
        "embedding_quantize": o.embedding_quantize_sql(),
        "kcenter_sample": o.kcenter_sample_sql(),
        "events_funnel": o.events_funnel_sql(),
        "events_retention": o.events_retention_sql(),
        "events_interval_join": o.events_interval_join_sql(),
        "token_zipf_fit": o.token_zipf_fit_sql(),
        "hll_error_eval": o.hll_error_eval_sql(),
        "corpus_summary": o.corpus_summary_sql(),
        "bpe_train": o.bpe_train_sql(),
        "bpe_encode_stats": o.bpe_encode_stats_sql(),
        "pca_embeddings": o.pca_embeddings_sql(),
        "inverse_pca": o.inverse_pca_sql(),
        "raster_to_polygons": o.raster_to_polygons_sql(),
        "contour_polylines": o.contour_polylines_sql(),
        "construct_tin": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.tin_oracle",
            fromlist=["x"]).construct_tin_sql(),
        "voronoi_areas": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.tin_oracle",
            fromlist=["x"]).voronoi_areas_sql(),
        "rasterize_tin": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.tin_oracle",
            fromlist=["x"]).rasterize_tin_sql(),
        "retrieve_srtm_mosaic": __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.srtm_retrieve",
            fromlist=["x"]).retrieve_srtm_mosaic_sql(),
        # the progressive scan carries the identical quantized
        # coefficients, so both roundtrips share one oracle
        "jpeg_roundtrip": __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.jpeg",
            fromlist=["x"]).jpeg_roundtrip_sql(),
        "jpeg_progressive_roundtrip": __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.jpeg",
            fromlist=["x"]).jpeg_roundtrip_sql(),
        "ann_ivf_trained": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.ann_oracle",
            fromlist=["x"]).ann_ivf_trained_sql(),
        "embedding_neardup_stats": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.ann_oracle",
            fromlist=["x"]).embedding_neardup_stats_sql(),
        "bm25_topk": o.bm25_topk_sql(),
        "length_quantiles": o.length_quantiles_sql(),
        "incremental_dedup": o.incremental_dedup_sql(),
        "embedding_pq": o.embedding_pq_sql(),
        "ann_recall_eval": o.ann_recall_eval_sql(),
        "time_decay_aggregate": o.time_decay_aggregate_sql(),
        "stratified_sample": o.stratified_sample_sql(),
        "pack_sequences": o.pack_sequences_sql(),
        "repetition_filter": o.repetition_filter_sql(),
        "chunk_documents": o.chunk_documents_sql(),
        "corpus_clean": o.corpus_clean_sql(),
        # pca_embeddings / inverse_pca: 64-dim eigendecomposition — no SQL
        # closed form; verified against single-process mirrors in tests.
        "q1_pricing": o.q1_sql(),
        "q3_shipping_priority": o.q3_shipping_priority_sql(),
        "q6_forecast_revenue": o.q6_forecast_revenue_sql(),
        "revenue_by_nation": o.revenue_by_nation_sql(),
        "top_parts": o.top_parts_sql(),
        "join_large": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.relational",
            fromlist=["x"]).orders_lineitem_join_sql(),
        "events_window": o.events_window_sql(),
        "events_asof_join": o.events_asof_join_sql(),
        "events_sliding_window": o.events_sliding_window_sql(),
        "user_sessions": o.user_sessions_sql(),
        "distinct_event_types": o.distinct_event_types_sql(),
        "raster_math": o.raster_math_sql(),
        "raster_stencil_mean": o.raster_stencil_sql(),
        "raster_to_points": o.raster_to_points_sql(),
        "raster_filter_median": o.filter3x3_sql("median"),
        "raster_filter_range": o.filter3x3_sql("range"),
        "raster_filter_stdev": o.filter3x3_sql("stdev"),
        "raster_filter_minimum": o.filter3x3_sql("minimum"),
        "raster_filter_maximum": o.filter3x3_sql("maximum"),
        "raster_filter_total": o.filter3x3_sql("total"),
        "raster_filter_diversity": o.filter3x3_sql("diversity"),
        "raster_filter_majority": o.filter3x3_sql("majority"),
        "raster_reclass": o.reclass_sql(),
        "raster_zscore": o.zscore_sql(),
        "raster_rescale": o.rescale_sql(),
        "elev_rel_minmax": o.elev_rel_minmax_sql(),
        "image_destripe": o.destripe_sql(),
        "raster_hist_equalize": o.histogram_equalize_sql(),
        "cumulative_distribution": o.histogram_equalize_sql(nbins=50000),
        "fuzzy_membership": o.fuzzy_membership_sql(),
        "crispness_index": o.crispness_sql(),
        "raster_aggregate": o.aggregate_downsample_sql(),
        "geotiff_roundtrip": o.raster_identity_sql(),
        "geotiff_compressed_roundtrip": o.geotiff_compressed_sql(),
        "png_roundtrip": __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.png",
            fromlist=["x"]).png_roundtrip_sql(),
        "bmp_roundtrip": __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.bmp",
            fromlist=["x"]).bmp_roundtrip_sql(),
        "arc_flt_roundtrip": __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.arc_flt",
            fromlist=["x"]).arc_flt_roundtrip_sql(),
        "raster_resample": o.resample_nn_sql(),
        "raster_mosaic": o.mosaic_sql(),
        "mosaic_feathering": o.mosaic_feathering_sql(),
        "convert_to_smooth_surface": o.convert_to_smooth_surface_sql(),
        "change_data_type": o.change_data_type_sql(),
        "random_sample": o.random_sample_sql(),
        "random_field": o.random_field_sql(),
        "conditional_evaluation": o.conditional_evaluation_sql(),
        "extract_values_at_points": o.extract_values_at_points_sql(),
        "xyz_text_to_raster": __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.xyz",
            fromlist=["x"]).xyz_text_to_raster_sql(),
        "create_rect_grid": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.gridding",
            fromlist=["x"]).create_rect_grid_sql(),
        "terrain_slope": o.slope_sql(),
        "terrain_tri": o.tri_sql(),
        "weighted_sum": o.weighted_sum_sql(),
        "percent_greater_than": o.percent_greater_sql(),
        "pan_sharpen_ihs": o.pan_sharpen_sql(),
        "fill_missing_data_holes": o.fill_holes_sql(),
        "average_overlay": o.average_overlay_sql(),
        "max_overlay": o.stack_overlay_sql(kind="max"),
        "min_overlay": o.stack_overlay_sql(kind="min"),
        "max_abs_overlay": o.stack_overlay_sql(kind="maxabs"),
        "lowest_position": o.lowest_position_sql(),
        "percent_less_than": o.percent_compare_sql(op="lt"),
        "percent_equal_to": o.percent_compare_sql(op="eq"),
        "weighted_overlay": o.weighted_overlay_sql(),
        "correct_vignetting": o.correct_vignetting_sql(),
        "minmax_stretch": o.minmax_stretch_sql(),
        "sigmoidal_stretch": o.sigmoidal_stretch_sql(),
        "flip_image": o.flip_image_sql(),
        "create_plane": o.create_plane_sql(),
        "filter_sobel": o.sobel_sql(),
        "filter_prewitt": o.prewitt_sql(),
        "filter_emboss": o.emboss_sql(),
        "filter_laplacian": o.laplacian_sql(),
        "filter_line_detection": o.line_detection_sql(),
        "filter_highpass": o.highpass_sql(),
        "filter_conservative_smoothing": o.conservative_smoothing_sql(),
        "filter_gaussian": o.gaussian_filter_sql(),
        "filter_log": o.log_filter_sql(),
        "filter_edge_preserving": o.edge_preserving_sql(),
        "filter_adaptive": o.adaptive_filter_sql(),
        "set_nodata": o.set_nodata_sql(),
        "convert_nodata_to_zero": o.convert_nodata_to_zero_sql(),
        "assign_row_numbers": o.assign_row_numbers_sql(),
        "new_raster_from_base": o.new_raster_from_base_sql(),
        "reclass_from_file": o.reclass_from_file_sql(),
        "filter_dog": o.dog_filter_sql(),
        "image_global_stats": o.image_global_stats_sql(),
        "test_for_normality": o.test_for_normality_sql(),
        "radiation_on_slope": o.radiation_on_slope_sql(),
        "attribute_histogram": relational_mod.attribute_histogram_sql(),
        "attribute_correlation": relational_mod.attribute_correlation_sql(),
        "balance_contrast_enhancement": o.bce_sql(),
        "direct_decorrelation_stretch": o.dds_sql(),
        "percentage_stretch": o.percentage_stretch_sql(),
        "gaussian_stretch": o.gaussian_stretch_sql(),
        "filter_olympic": o.olympic_sql(),
        "filter_percentile": o.percentile_filter_sql(),
        "filter_knearest_mean": o.knearest_mean_sql(),
        "lee_sigma_filter": o.lee_sigma_sql(),
        "filter_user_defined_weights": o.user_defined_weights_sql(),
        "diff_mean_elev": o.diff_mean_elev_sql(),
        "dev_mean_elev": o.dev_mean_elev_sql(),
        "fill_pits": o.fill_pits_sql(),
        # Priority-flood family: the fill is the minimax fixed point
        # W = max(z, min_nbr W) (schedule-independent, no arithmetic),
        # closed by bounded Jacobi rounds.
        "fill_depressions": o.fill_depressions_sql(),
        "depth_in_sink": o.depth_in_sink_sql(),
        "flood_order": o.flood_order_sql(),
        "stochastic_depression_analysis":
            o.stochastic_depression_analysis_sql(),
        # Cost-distance family: two-phase Bellman closure (double-min
        # distances, then source ids over the optimal-edge subgraph).
        "cost_accumulation": o.cost_accumulation_sql(),
        "cost_allocation": o.cost_allocation_sql(),
        "cost_pathway": o.cost_pathway_sql(),
        # modified k-means / dendrogram: unrolled fixed-point replay
        # (cleanup is a measured no-op on this input — see docstrings).
        "modified_kmeans": o.modified_kmeans_sql(),
        "dendrogram": o.dendrogram_sql(),
        "find_no_flow_cells": o.find_no_flow_sql(),
        "terrain_relative_aspect": o.relative_aspect_sql(),
        "pennock_landform": o.pennock_sql(),
        "horizon_angle": o.horizon_angle_sql(),
        "directional_relief": o.directional_relief_sql(),
        "fetch_analysis": o.fetch_analysis_sql(),
        "exposure_wind_flux": o.exposure_wind_flux_sql(),
        "terrain_aspect": o.aspect_sql(),
        "terrain_hillshade": o.hillshade_sql(),
        "terrain_plan_curv": o.curvature_sql("plan"),
        "terrain_prof_curv": o.curvature_sql("prof"),
        "terrain_tan_curv": o.curvature_sql("tan"),
        "terrain_total_curv": o.curvature_sql("total"),
        "flow_pointer_d8": o.d8_pointer_sql(),
        "flow_pointer_fd8": o.fd8_pointer_sql(),
        # FD8 / mass-flux: the downhill-fraction edge DAG is nilpotent
        # (receivers strictly lower), so a bounded synchronous-Jacobi
        # recursive CTE reaches the exact fixed point.
        "flow_accumulation_fd8": o.flow_accumulation_fd8_sql(),
        "mass_flux_d8": o.mass_flux_d8_sql(),
        # Dinf family: exact facet-sweep pointer + fractional-edge
        # Jacobi closures (the Dinf DAG is acyclic on this terrain).
        "flow_pointer_dinf": o.dinf_pointer_sql(),
        "flow_accumulation_dinf": o.flow_accumulation_dinf_sql(),
        "mass_flux_dinf": o.mass_flux_dinf_sql(96, 96),
        "flow_accumulation_mdinf": o.flow_accumulation_mdinf_sql(96, 96),
        "num_downslope_neighbours": o.num_neighbours_sql(upslope=False),
        "num_upslope_neighbours": o.num_neighbours_sql(upslope=True),
        "max_downslope_elev_change": o.max_downslope_change_sql(),
        "min_downslope_elev_change": o.min_downslope_change_sql(),
        "find_patch_edge_cells": o.patch_edge_cells_sql(),
        "filter_local_contrast": o.local_contrast_sql(),
        "flow_pointer_rho8": o.rho8_pointer_sql(),
        "inflow_count": o.inflow_count_sql(),
        "find_parallel_flow": o.find_parallel_flow_sql(),
        # D8 pointer-walk family: exact recursive-CTE closures over the
        # pointer raster (receivers strictly lower → acyclic).
        "flow_accumulation": o.flow_accum_d8_sql(),
        "extract_streams": o.extract_streams_sql(),
        "wetness_index": o.wetness_index_sql(),
        "stream_power_index": o.stream_power_index_sql(),
        "sediment_transport_index": o.sediment_transport_index_sql(),
        "watershed": o.watershed_sql(),
        "trace_downslope_flowpaths": o.trace_downslope_flowpaths_sql(),
        "downslope_flowpath_length": o.downslope_flowpath_length_sql(),
        "max_upslope_flowpath_length": o.max_upslope_flowpath_length_sql(),
        "distance_to_outlet": o.distance_to_outlet_sql(),
        "elev_above_pit": o.elev_above_pit_sql(),
        "downslope_distance_to_stream": o.downslope_distance_to_stream_sql(),
        "elevation_above_stream": o.elevation_above_stream_sql(),
        "total_upstream_channel_length":
            o.total_upstream_channel_length_sql(),
        "furthest_channel_head_distance":
            o.furthest_channel_head_distance_sql(),
        "stream_magnitude": o.stream_magnitude_sql(),
        "avg_upslope_flowpath_length": o.avg_upslope_flowpath_length_sql(),
        "avg_slope_to_divide":
            o.avg_upslope_flowpath_length_sql(mode="slope_to_divide"),
        "snap_pour_points": o.snap_pour_points_sql(),
        "jenson_snap_pour_points": o.jenson_snap_pour_points_sql(),
        "elev_rel_watershed_minmax": o.elev_rel_watershed_minmax_sql(),
        "downslope_index": o.downslope_index_sql(),
        "median_upstream_area": o.median_upstream_area_sql(),
        "stream_link_id": o.stream_link_id_sql(),
        "stream_link_lengths": o.stream_link_lengths_sql(),
        "stream_link_slope": o.stream_link_slope_sql(),
        "stream_link_classification":
            o.stream_link_classification_sql(threshold=2.0),
        "find_main_stem": o.find_main_stem_sql(),
        "hack_order": o.hack_order_sql(),
        "remove_short_streams":
            o.remove_short_streams_sql(threshold=2.0, min_length=3.0),
        "subbasins": o.subbasins_sql(),
        "isobasin": o.isobasin_sql(),
        "hillslopes": o.hillslopes_sql(),
        "branch_length": o.branch_length_sql(),
        "clump": o.clump_sql(),
        "contour_lengths": o.contour_lengths_sql(),
        "multiscale_elev_residual": o.multiscale_elev_residual_sql(),
        "streams_to_vector": o.streams_to_vector_sql(),
        # round-5: exact recursive-CTE replay of the sequential
        # thinning + trace state machine (was rows-only since r2)
        "raster_to_vector_lines": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.vectorize_oracle",
            fromlist=["x"]).raster_to_vector_lines_sql(rows=96, cols=96),
        "stream_order": o.stream_order_sql(),
        "strahler_order_basins": o.strahler_order_basins_sql(),
        "viewshed": o.viewshed_sql(),
        "visibility_index": o.visibility_index_sql(),
        "find_saddle_points": o.find_saddle_points_sql(),
        "thicken_raster_line": o.thicken_raster_line_sql(),
        "line_thinning": o.line_thinning_sql(),
        "remove_spurs": o.remove_spurs_sql(),
        "find_ridges": o.find_ridges_sql(),
        # cost_allocation / cost_pathway: fixed-point label machinery —
        # rows-only, mirror + tiling-invariance tested.
        "vector_cleaning": _vclean_sql(),
        "shape_metrics_basic": _shape_sql(),
        "minimum_bounding_box": o.minimum_bounding_box_sql(),
        "long_axis": o.axis_sql("long"),
        "short_axis": o.axis_sql("short"),
        "medoid": _medoid_sql(),
        "smooth_vector": _vops2("smooth_vector_sql"),
        "polygons_to_lines": _vops2("polygons_to_lines_sql"),
        "extract_nodes": _vops2("extract_nodes_sql"),
        "centroid_vector": _vops2("centroid_vector_sql"),
        "isolate_by_attribute": _vops2("isolate_by_attribute_sql"),
        "buffer_vector": _vops2("buffer_vector_sql"),
        "group_polygons_by_orientation":
            _vops2("group_polygons_by_orientation_sql"),
        "patch_orientation_vector_field":
            _vops2("patch_orientation_vector_field_sql"),
        "multiparts_to_singleparts": _vops2("multiparts_to_singleparts_sql"),
        "singleparts_to_multiparts": _vops2("singleparts_to_multiparts_sql"),
        "remove_polygon_holes": _vops2("remove_polygon_holes_sql"),
        # flipped from rows-only: ring is integer unit-step + distances
        # are translation-invariant, so the neck walk replays in SQL
        "remove_polygon_necks": o.remove_polygon_necks_sql(),
        "extend_vector_lines": _vops2("extend_vector_lines_sql"),
        "add_point_coordinates": _vops2("add_point_coordinates_sql"),
        "create_rect_vector_grid": _vops2("create_rect_vector_grid_sql"),
        "create_hex_vector_grid": _vops2("create_hex_vector_grid_sql"),
        "shape_complexity": _vops2("shape_complexity_sql"),
        "minimum_convex_hull": _vops2("minimum_convex_hull_sql"),
        "lines_to_polygons": _vops2("lines_to_polygons_sql"),
        "simplify_line": _vops2("simplify_line_sql"),
        "interior_point": _vops2("interior_point_sql"),
        "shape_metrics_extended": _vops2("shape_metrics_extended_sql"),
        "layer_footprint": _vops2("layer_footprint_sql"),
        "trend_surface": _trend_sql(),
        "vector_clip": o.clip_boxes_sql(),
        "vector_erase": o.erase_boxes_sql(),
        "overlay_intersect": o.overlay_area_sql("intersection"),
        "overlay_union": o.overlay_area_sql("union"),
        "overlay_difference": o.overlay_area_sql("difference"),
        "overlay_symdiff": o.overlay_area_sql("symmetric_difference"),
        "dissolve_union": o.dissolve_union_sql(),
        "fuse_touching": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.vector_overlay",
            fromlist=["x"]).fuse_touching_sql(),
        "euclidean_distance": o.euclidean_distance_sql(),
        "raster_buffer": o.raster_buffer_sql(),
        "euclidean_allocation": o.euclidean_allocation_sql(),
        "burn_streams": o.burn_streams_sql(),
        "raster_calc": o.raster_calc_sql(),
        "utm_project": _crs_sql(),
        "utm_project_nad27": __import__(
            "whitebox_geospatial_analysis_tools_ray.functions.crs",
            fromlist=["x"]).utm_project_datum_sql("NAD27 (CONUS)"),
        "utm_project_ed50": __import__(
            "whitebox_geospatial_analysis_tools_ray.functions.crs",
            fromlist=["x"]).utm_project_datum_sql("ED50"),
        "estimate_heights_parallax": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.photogrammetry",
            fromlist=["x"]).estimate_heights_sql(),
        "locate_principal_point": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.photogrammetry",
            fromlist=["x"]).locate_principal_point_sql(),
        "image_rectification_fit": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.photogrammetry",
            fromlist=["x"]).image_rectification_sql(),
        "surf_match_points": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.photogrammetry",
            fromlist=["x"]).surf_match_points_sql(),
        "find_tie_points": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.photogrammetry",
            fromlist=["x"]).find_tie_points_sql(),
        "epipolar_transform": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.photogrammetry",
            fromlist=["x"]).epipolar_transform_sql(),
        "rasterize_polygons": o.rasterize_triangles_sql(),
        "rasterize_lines": o.rasterize_lines_sql(),
        "intersection_density": o.intersection_density_sql(),
        "interpolation_nn": _gridding_sql("interpolation_nn_sql"),
        "minimum_interpolation": _gridding_sql("minimum_interpolation_sql"),
        "point_density": _gridding_sql("point_density_sql"),
        "vector_feature_density": _gridding_sql("vector_feature_density_sql"),
        "nearest_neighbour_analysis": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.knn",
            fromlist=["x"]).nearest_neighbour_analysis_sql(),
        "attribute_gridding": _gridding_sql("attribute_gridding_sql"),
        "find_straight_segments": _vops2("find_straight_segments_sql"),
        # flipped from rows-only: static matching gates + declarative
        # path components make the greedy chain walk SQL-replayable
        "find_polygon_chains": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.chains",
            fromlist=["x"]).find_polygon_chains_sql(),
        "clip_raster_to_polygon": o.clip_raster_to_polygon_sql(),
        "cross_tabulation": o.cross_tab_sql(),
        "kappa_index": o.kappa_sql(),
        "extract_valleys": o.extract_valleys_sql(),
        "extract_valleys_jr": o.extract_valleys_jr_sql(),
        "extract_valleys_lq": o.extract_valleys_lq_sql(),
        "paired_t_test": o.paired_t_sql(),
        "highest_position": o.highest_position_sql(),
        "colour_composite": o.colour_composite_sql(),
        "split_colour_composite": o.split_composite_sql(),
        "write_function_memory": o.write_function_memory_sql(),
        "change_vector_analysis": o.cva_sql(),
        "ndvi": o.ndvi_sql(),
        "morans_i": o.morans_i_sql(),
        "histogram_match": o.histogram_match_sql(),
        "rgb_ihs_roundtrip": o.rgb_ihs_sql(),
        "image_correlation": o.image_correlation_sql(),
        "image_regression": o.image_regression_sql(),
        "isolate_ground_points": __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.las",
            fromlist=["x"]).isolate_ground_points_sql(),
        "lidar_canopy_model": __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.las",
            fromlist=["x"]).lidar_canopy_model_sql(),
        "lidar_bare_earth_dem": __import__(
            "whitebox_geospatial_analysis_tools_ray.sources.las",
            fromlist=["x"]).lidar_bare_earth_dem_sql(),
        "kriging_interpolate": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.kriging",
            fromlist=["x"]).kriging_interpolate_sql(),
        "rbf_interpolate": __import__(
            "whitebox_geospatial_analysis_tools_ray.stages.kriging",
            fromlist=["x"]).rbf_interpolate_sql(),
        # rows-only (non-SQL-expressible): pca/inverse_pca (LAPACK
        # 64-dim eigendecomposition), jpeg/surf/conjugate (bit-level
        # codecs / float32 image kernels), TIN family (incremental
        # Bowyer–Watson), breach/OTO and the polygon-tracing family
        # (mutable geometry walks) — each mirror- or invariance-tested.
    }
