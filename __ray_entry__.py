"""Driver contract for the Ray-Data-native engine (see SURVEY.md).

``entry()`` runs the flagship geocode→tile→spatial-join pipeline on
sf0.001. ``registry()`` is the one table of queries: each name maps to
its implementation ``impl(sf_dir)`` and EITHER an oracle thunk returning
the exact DuckDB mirror SQL OR a string giving the reason the query is
rows-only (each reason is written up in COVERAGE.md, "The 5 remaining
rows-only queries"). ``queries()``, ``oracle_sql()`` and ``rows_only()``
are views of that table.

Ray is initialised by the DRIVER before this module is imported — no
``ray.init`` / ``ray.shutdown`` anywhere in the library.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF_SMOKE = "/root/testdata/sf0.001"

Impl = Callable[[str], Any]
Check = Callable[[], str] | str     # oracle-SQL thunk | rows-only reason


def entry() -> Any:
    from whitebox_geospatial_analysis_tools_ray.pipelines.flagship import flagship
    return flagship(SF_SMOKE)


def _pages_flagship(sf_dir: str):
    """Full pages-schema headline (html→text→geocode→tile→join) over a
    small deterministic corpus generated under /tmp."""
    from whitebox_geospatial_analysis_tools_ray.pipelines.pages_flagship import (
        pages_flagship)
    from whitebox_geospatial_analysis_tools_ray.sources.pages import (
        generate_pages_dataset)
    return pages_flagship(generate_pages_dataset(20_000, "/tmp/graft_pages_q20k"))


def _pages_exact_dedup(sf_dir: str):
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
    return pages_exact_dedup(generate_pages_dataset(
        20_000, "/tmp/graft_pages_dedup20k", hot_frac=0.2))


def _raster_calc(expr: str) -> Impl:
    """RasterCalculator / ConditionalEvaluation: ``expr`` over the
    synthetic rasters a and b through the raster_calc compiler."""
    def run(sf_dir: str):
        from whitebox_geospatial_analysis_tools_ray.functions.raster_calc import (
            raster_calculator)
        from whitebox_geospatial_analysis_tools_ray.stages import raster, raster_stats
        spec = raster.RasterSpec()
        out = raster_calculator({"a": raster.synth_raster(spec),
                                 "b": raster_stats.synth_raster_b(spec)}, expr)
        return raster.raster_row_checksums(out, spec)
    return run


def _geotiff_roundtrip(sf_dir: str, compressed: bool = False):
    """Export the synthetic raster to a GeoTIFF under /tmp, re-import it
    through the Ray read tasks, checksum rows — an identity roundtrip
    with an exact SQL oracle. Plain: baseline float64 strips read by
    byte range. Compressed: quantized to uint16 into a TILED deflate
    GeoTIFF with the horizontal predictor, decompressed per tile —
    beyond the reference (GeoTiff.java:613 rejects ALL compression);
    the oracle is the trunc-quantized identity."""
    import numpy as np

    from whitebox_geospatial_analysis_tools_ray.core.rng import NODATA
    from whitebox_geospatial_analysis_tools_ray.sources.geotiff import (
        export_geotiff, import_geotiff)
    from whitebox_geospatial_analysis_tools_ray.sources.raster_io import RasterHeader
    from whitebox_geospatial_analysis_tools_ray.stages import raster
    spec = raster.RasterSpec()
    hdr = RasterHeader(rows=spec.rows, cols=spec.cols, north=float(spec.rows),
                       south=0.0, east=float(spec.cols), west=0.0)
    ds = raster.synth_raster(spec)
    if compressed:
        def quantize(df):
            out = df.copy()
            out["data"] = [np.where(d == NODATA, 65535.0, np.trunc(d * 65.0))
                           for d in (np.asarray(x) for x in df["data"])]
            return out

        path = "/tmp/graft_geotiff_cmp.tif"
        export_geotiff(hdr, ds.map_batches(quantize, batch_format="pandas"),
                       path, dtype=np.dtype("<u2"), compression="deflate",
                       predictor=2, tile_size=64)
    else:
        path = "/tmp/graft_geotiff_rt.tif"
        export_geotiff(hdr, ds, path, dtype=np.dtype("<f8"))
    _, ds = import_geotiff(path, tile_rows=spec.tile_rows)
    return raster.raster_row_checksums(ds, spec)


def registry() -> dict[str, tuple[Impl, Check]]:
    """name → (impl(sf_dir), oracle-SQL thunk | rows-only reason)."""
    import numpy as np

    from whitebox_geospatial_analysis_tools_ray import oracle as o
    from whitebox_geospatial_analysis_tools_ray.core.features import (
        cell_centers, rect_zones, seeded_polygons, site_points, triangle_zones)
    from whitebox_geospatial_analysis_tools_ray.core.rng import (
        EAST, GATE_SIDE, NORTH, SOUTH, WEST)
    from whitebox_geospatial_analysis_tools_ray.core.tiles import RectGrid
    from whitebox_geospatial_analysis_tools_ray.functions import crs
    from whitebox_geospatial_analysis_tools_ray.pipelines import flagship, job
    from whitebox_geospatial_analysis_tools_ray.sources import (
        arc_flt, bmp, jpeg, las, png, srtm_retrieve, xyz)
    from whitebox_geospatial_analysis_tools_ray.stages import (
        agg, ann, ann_oracle, branch_length, breach, chains, clump, conjugate,
        corpus, cost, dedup, dinf, distance, embeddings as emb, fill, gridding,
        hydro, isobasin, knn, kriging, meri, mkmeans, multimodal, oto,
        photogrammetry, raster, raster_stats, rasterize, relational, selection,
        streams, surf, terrain, textops, thinning, tiling, tin, tin_oracle,
        vector_ops as vops, vector_overlay, vectorize, vectorize_oracle,
        viewshed)
    from whitebox_geospatial_analysis_tools_ray.stages import spatial_join as sj
    from whitebox_geospatial_analysis_tools_ray.stages.points import read_points

    world_grid = RectGrid.from_extent(WEST, SOUTH, EAST, NORTH,
                                      width_x=250.0, width_y=250.0)
    # the default 256×256 synthetic raster, and the gate raster of the
    # queries whose exact oracle is a sequential recursive-CTE closure
    spec, gate = raster.RasterSpec(), raster.GATE_SPEC
    rows, ints = raster.raster_row_checksums, raster.raster_row_int_checksums

    def on_synth(make, checksum=rows):
        return lambda sf: checksum(make(raster.synth_raster(spec), spec), spec)

    def stencil(fn, *args, checksum=rows):
        return on_synth(lambda ds, s: fn(ds, s, *args, regen=raster.synth_value),
                        checksum)

    def on_spec(make, checksum=rows):
        return lambda sf: checksum(make(spec), spec)

    def on_pair(fn):
        return lambda sf: fn(raster_stats.synth_raster_pair(spec), spec)

    def floor100(ds):
        return raster.raster_map(ds, lambda a: np.floor(a / 100.0))

    return {
        # --- tiling / cell encoding (TileLasFile + HexBinning) ---
        "tile_assign": (lambda sf: tiling.tile_counts(sf)[0], o.tile_assign_sql),
        "las_tile_stats": (las.las_tile_stats, las.las_tile_stats_sql),
        "lidar_nn_interpolation": (las.lidar_nn_interpolation,
                                   las.lidar_nn_interpolation_sql),
        "isolate_ground_points": (las.isolate_ground_points,
                                  las.isolate_ground_points_sql),
        "lidar_canopy_model": (las.lidar_canopy_model, las.lidar_canopy_model_sql),
        "lidar_bare_earth_dem": (las.lidar_bare_earth_dem,
                                 las.lidar_bare_earth_dem_sql),
        "lidar_segmentation_weights": (las.lidar_segmentation_weights,
                                       las.lidar_segmentation_weights_sql),
        "las_rgb_stats": (las.las_rgb_stats, las.las_rgb_stats_sql),
        "las_file_summary": (las.get_las_file_summary,
                             las.get_las_file_summary_sql),
        "filter_las_scan_angles": (las.filter_las_scan_angles,
                                   las.filter_las_scan_angles_sql),
        "find_flightline_edge_points": (las.find_flightline_edge_points,
                                        las.find_flightline_edge_points_sql),
        "tile_hex": (lambda sf: tiling.hex_counts(sf)[0], o.hex_assign_sql),
        # --- spatial joins (IsolateVectorFeaturesByLocation family) ---
        "pip_rect_join": (
            lambda sf: sj.broadcast_pip_join(read_points(sf), rect_zones()),
            o.pip_rect_join_sql),
        "pip_rect_join_shuffle": (
            lambda sf: sj.cell_partitioned_pip_join(read_points(sf), rect_zones()),
            o.pip_rect_join_sql),
        "pip_triangle_join": (
            lambda sf: sj.broadcast_pip_join(read_points(sf), triangle_zones()),
            o.pip_triangle_join_sql),
        "pip_polygon_join": (
            lambda sf: sj.broadcast_pip_join(read_points(sf), seeded_polygons()),
            o.pip_polygon_join_sql),
        # rtree variant: identical semantics, different candidate index
        "pip_rtree_join": (
            lambda sf: sj.rtree_pip_join(read_points(sf), seeded_polygons()),
            o.pip_polygon_join_sql),
        "spatial_anti_join": (
            lambda sf: sj.broadcast_pip_join(read_points(sf), rect_zones(),
                                             mode="anti"),
            o.spatial_anti_join_sql),
        "within_distance_join": (
            lambda sf: sj.within_distance_join(read_points(sf), site_points(),
                                               300.0),
            o.within_distance_join_sql),
        # --- kNN / IDW (InterpolationIDW, NearestNeighbourAnalysis) ---
        "knn_idw": (lambda sf: knn.idw_interpolate(read_points(sf), cell_centers()),
                    o.idw_sql),
        "kriging_interpolate": (kriging.krige_cells, kriging.kriging_interpolate_sql),
        "rbf_interpolate": (kriging.rbf_cells, kriging.rbf_interpolate_sql),
        "knn_nearest_site": (
            lambda sf: knn.nearest_point_per_site(read_points(sf), site_points()),
            o.nearest_site_sql),
        # --- aggregation (VectorPointsToRaster, ExtractStatistics, Histogram) ---
        "cell_aggregates": (
            lambda sf: agg.cell_aggregates(read_points(sf), world_grid),
            o.cell_aggregates_sql),
        "zonal_stats": (agg.zonal_stats, o.zonal_stats_sql),
        "value_histogram": (agg.value_histogram, o.histogram_sql),
        # --- dedup family ---
        "exact_dedup": (dedup.exact_dedup, o.exact_dedup_sql),
        "coincident_dedup": (lambda sf: dedup.coincident_dedup(read_points(sf)),
                             o.coincident_dedup_sql),
        "minhash_pairs": (dedup.minhash_verified_pairs, o.minhash_pairs_sql),
        "minhash_error_eval": (dedup.minhash_error_eval, o.minhash_error_eval_sql),
        "ngram_jaccard_pairs": (dedup.ngram_jaccard_pairs,
                                o.ngram_jaccard_pairs_sql),
        "simhash_signatures": (dedup.simhash_signatures, o.simhash_signatures_sql),
        "simhash_neardup_pairs": (dedup.simhash_neardup_pairs,
                                  o.simhash_neardup_pairs_sql),
        # --- corpus curation (cluster resolution, boilerplate,
        #     decontamination, vocabulary, stratified sampling) ---
        "dup_clusters": (corpus.dup_clusters, o.dup_clusters_sql),
        "embedding_dup_clusters": (corpus.embedding_dup_clusters,
                                   o.embedding_dup_clusters_sql),
        "boilerplate_ngrams": (corpus.boilerplate_ngrams, o.boilerplate_ngrams_sql),
        "topk_tokens": (corpus.topk_tokens, o.topk_tokens_sql),
        "decontaminate": (corpus.decontaminate, o.decontaminate_sql),
        "duplicate_spans": (corpus.duplicate_spans, o.duplicate_spans_sql),
        "lm_perplexity": (corpus.lm_perplexity, o.lm_perplexity_sql),
        "perplexity_buckets": (corpus.perplexity_buckets, o.perplexity_buckets_sql),
        "importance_weights": (corpus.importance_weights, o.importance_weights_sql),
        "corpus_clean_spans": (corpus.corpus_clean_spans, o.corpus_clean_spans_sql),
        "bpe_train": (corpus.bpe_train, o.bpe_train_sql),
        "bpe_encode_stats": (corpus.bpe_encode_stats, o.bpe_encode_stats_sql),
        "stratified_sample": (corpus.stratified_sample, o.stratified_sample_sql),
        "pack_sequences": (corpus.pack_sequences, o.pack_sequences_sql),
        "repetition_filter": (corpus.repetition_filter, o.repetition_filter_sql),
        "chunk_documents": (corpus.chunk_documents, o.chunk_documents_sql),
        "corpus_clean": (corpus.corpus_clean, o.corpus_clean_sql),
        # --- text analysis ---
        "token_stats": (textops.token_stats_by_lang, o.token_stats_sql),
        "quality_scores": (textops.quality_scores_by_lang, o.quality_scores_sql),
        "fingerprints": (textops.fingerprint_stats, o.fingerprint_sql),
        "tfidf_top_terms": (textops.tfidf_top_terms, o.tfidf_top_terms_sql),
        "token_hll": (textops.token_hll, o.token_hll_sql),
        "hll_estimate": (textops.hll_estimate, o.hll_estimate_sql),
        "hll_error_eval": (textops.hll_error_eval, o.hll_error_eval_sql),
        "corpus_summary": (textops.corpus_summary, o.corpus_summary_sql),
        "langid_confusion": (textops.langid_confusion, o.langid_confusion_sql),
        # --- data selection (mixture, quality, divergence,
        #     quantization, diversity sampling, funnels) ---
        "dataset_mixture": (selection.dataset_mixture, o.dataset_mixture_sql),
        "quality_classifier": (selection.quality_classifier,
                               o.quality_classifier_sql),
        "token_kl_divergence": (selection.token_kl_divergence,
                                o.token_kl_divergence_sql),
        "embedding_quantize": (selection.embedding_quantize,
                               o.embedding_quantize_sql),
        "kcenter_sample": (selection.kcenter_sample, o.kcenter_sample_sql),
        "events_funnel": (selection.events_funnel, o.events_funnel_sql),
        "events_retention": (relational.events_retention, o.events_retention_sql),
        "events_interval_join": (relational.events_interval_join,
                                 o.events_interval_join_sql),
        "token_zipf_fit": (textops.token_zipf_fit, o.token_zipf_fit_sql),
        "bm25_topk": (textops.bm25_topk, o.bm25_topk_sql),
        "length_quantiles": (selection.length_quantiles, o.length_quantiles_sql),
        "incremental_dedup": (selection.incremental_dedup, o.incremental_dedup_sql),
        "embedding_pq": (selection.embedding_pq, o.embedding_pq_sql),
        "ann_recall_eval": (selection.ann_recall_eval, o.ann_recall_eval_sql),
        "time_decay_aggregate": (selection.time_decay_aggregate,
                                 o.time_decay_aggregate_sql),
        # --- similarity search ---
        "ann_cosine_topk": (ann.cosine_topk, o.ann_cosine_topk_sql),
        "ann_knn_join": (ann.knn_join_topk, o.ann_knn_join_sql),
        "ann_ivf_topk": (ann.ivf_topk, o.ann_ivf_topk_sql),
        # persisted-index variant: same quantizer/candidates/ranking
        "ann_ivf_persisted": (ann.ivf_topk_persisted, o.ann_ivf_topk_sql),
        "ann_ivf_trained": (ann.ivf_topk_trained, ann_oracle.ann_ivf_trained_sql),
        "embedding_neardup": (emb.cosine_neardup_pairs, o.cosine_neardup_sql),
        "embedding_neardup_stats": (emb.cosine_neardup_stats,
                                    ann_oracle.embedding_neardup_stats_sql),
        "pca_embeddings": (emb.pca_embeddings, o.pca_embeddings_sql),
        "inverse_pca": (emb.inverse_pca_embeddings, o.inverse_pca_sql),
        "kmeans_embeddings": (emb.kmeans_embeddings, o.kmeans_embeddings_sql),
        "cluster_attributes": (emb.cluster_attributes, o.cluster_attributes_sql),
        # --- multimodal (opaque binary media + plain-task decode) ---
        "image_features": (multimodal.image_features, o.image_features_sql),
        "image_features_real": (multimodal.image_features_real,
                                multimodal.image_features_real_sql),
        "image_resize_stats": (multimodal.image_resize_stats,
                               multimodal.image_resize_stats_sql),
        "video_frame_sample": (multimodal.video_frame_sample,
                               multimodal.video_frame_sample_sql),
        "audio_frame_stats": (multimodal.audio_frame_stats,
                              multimodal.audio_frame_stats_sql),
        # --- relational surface ---
        "q1_pricing": (relational.q1_pricing_summary, o.q1_sql),
        "q3_shipping_priority": (relational.q3_shipping_priority,
                                 o.q3_shipping_priority_sql),
        "q6_forecast_revenue": (relational.q6_forecast_revenue,
                                o.q6_forecast_revenue_sql),
        "revenue_by_nation": (relational.revenue_by_nation, o.revenue_by_nation_sql),
        "top_parts": (relational.top_parts_by_price, o.top_parts_sql),
        "join_large": (relational.orders_lineitem_join,
                       relational.orders_lineitem_join_sql),
        "events_window": (relational.events_tumbling_window, o.events_window_sql),
        "events_asof_join": (relational.events_asof_join, o.events_asof_join_sql),
        "events_sliding_window": (relational.events_sliding_window,
                                  o.events_sliding_window_sql),
        "user_sessions": (relational.user_sessions, o.user_sessions_sql),
        "distinct_event_types": (relational.distinct_event_types,
                                 o.distinct_event_types_sql),
        "attribute_histogram": (relational.attribute_histogram,
                                relational.attribute_histogram_sql),
        "attribute_correlation": (relational.attribute_correlation,
                                  relational.attribute_correlation_sql),
        # --- raster family (MathTools, FilterMean, RasterToVectorPoints) ---
        "raster_math": (
            on_synth(lambda ds, s: raster.raster_map(
                ds, lambda a: np.sqrt(a) * 2.0 + a / 7.0)),
            o.raster_math_sql),
        "raster_stencil_mean": (stencil(raster.stencil_mean3x3),
                                o.raster_stencil_sql),
        "raster_to_points": (
            lambda sf: raster.raster_to_points_count(raster.synth_raster(spec), spec),
            o.raster_to_points_sql),
        "raster_filter_median": (stencil(raster.stencil_filter3x3, "median"),
                                 lambda: o.filter3x3_sql("median")),
        "raster_filter_range": (stencil(raster.stencil_filter3x3, "range"),
                                lambda: o.filter3x3_sql("range")),
        "raster_filter_stdev": (stencil(raster.stencil_filter3x3, "stdev"),
                                lambda: o.filter3x3_sql("stdev")),
        "raster_filter_minimum": (stencil(raster.stencil_filter3x3, "minimum"),
                                  lambda: o.filter3x3_sql("minimum")),
        "raster_filter_maximum": (stencil(raster.stencil_filter3x3, "maximum"),
                                  lambda: o.filter3x3_sql("maximum")),
        "raster_filter_total": (stencil(raster.stencil_filter3x3, "total"),
                                lambda: o.filter3x3_sql("total")),
        "raster_filter_diversity": (stencil(raster.stencil_filter3x3, "diversity"),
                                    lambda: o.filter3x3_sql("diversity")),
        "raster_filter_majority": (
            on_synth(lambda ds, s: raster.stencil_filter3x3(
                ds, s, "majority", regen=raster.synth_class_value)),
            lambda: o.filter3x3_sql("majority")),
        "raster_reclass": (on_synth(raster_stats.reclass_equal_interval),
                           o.reclass_sql),
        "raster_zscore": (on_synth(raster_stats.zscores), o.zscore_sql),
        "raster_rescale": (on_synth(raster_stats.rescale_value_range),
                           o.rescale_sql),
        "elev_rel_minmax": (on_synth(raster_stats.elev_relative_to_minmax),
                            o.elev_rel_minmax_sql),
        "image_destripe": (stencil(raster_stats.destripe), o.destripe_sql),
        "raster_hist_equalize": (on_synth(raster_stats.histogram_equalize),
                                 o.histogram_equalize_sql),
        # CumulativeDistributionFunction.java:229-283 IS the equalize
        # two-phase plan at 50,000 bins (bin → cumsum/numCells remap)
        "cumulative_distribution": (
            on_synth(lambda ds, s: raster_stats.histogram_equalize(
                ds, s, nbins=50000)),
            lambda: o.histogram_equalize_sql(nbins=50000)),
        "fuzzy_membership": (on_synth(raster_stats.fuzzy_membership),
                             o.fuzzy_membership_sql),
        "crispness_index": (lambda sf: raster_stats.crispness_index(spec),
                            o.crispness_sql),
        "raster_aggregate": (
            lambda sf: raster_stats.aggregate_downsample(raster.synth_raster(spec),
                                                         spec),
            o.aggregate_downsample_sql),
        "geotiff_roundtrip": (_geotiff_roundtrip, o.raster_identity_sql),
        "geotiff_compressed_roundtrip": (
            lambda sf: _geotiff_roundtrip(sf, compressed=True),
            o.geotiff_compressed_sql),
        "png_roundtrip": (lambda sf: png.png_roundtrip_query(),
                          png.png_roundtrip_sql),
        "bmp_roundtrip": (lambda sf: bmp.bmp_roundtrip_query(),
                          bmp.bmp_roundtrip_sql),
        "arc_flt_roundtrip": (lambda sf: arc_flt.arc_flt_roundtrip_query(),
                              arc_flt.arc_flt_roundtrip_sql),
        "jpeg_roundtrip": (lambda sf: jpeg.jpeg_roundtrip_query(),
                           jpeg.jpeg_roundtrip_sql),
        # the progressive scan carries the identical quantized
        # coefficients, so both roundtrips share one oracle
        "jpeg_progressive_roundtrip": (
            lambda sf: jpeg.jpeg_progressive_roundtrip_query(),
            jpeg.jpeg_roundtrip_sql),
        "retrieve_srtm_mosaic": (lambda sf: srtm_retrieve.retrieve_srtm_query(),
                                 srtm_retrieve.retrieve_srtm_mosaic_sql),
        "raster_mosaic": (lambda sf: raster_stats.mosaic(spec), o.mosaic_sql),
        "mosaic_feathering": (lambda sf: raster_stats.mosaic_feathering(spec),
                              o.mosaic_feathering_sql),
        "convert_to_smooth_surface": (
            lambda sf: raster_stats.convert_to_smooth_surface(spec),
            o.convert_to_smooth_surface_sql),
        "change_data_type": (on_synth(raster_stats.change_data_type_integer),
                             o.change_data_type_sql),
        "random_sample": (lambda sf: raster_stats.random_sample(spec),
                          o.random_sample_sql),
        "random_field": (lambda sf: raster_stats.random_field(spec),
                         o.random_field_sql),
        "extract_values_at_points": (raster_stats.extract_raster_values_at_points,
                                     o.extract_values_at_points_sql),
        "xyz_text_to_raster": (xyz.xyz_text_to_raster, xyz.xyz_text_to_raster_sql),
        "create_rect_grid": (gridding.create_rect_grid,
                             gridding.create_rect_grid_sql),
        "raster_resample": (
            lambda sf: raster_stats.resample_nn(spec, out_rows=100, out_cols=160),
            o.resample_nn_sql),
        "weighted_sum": (on_pair(raster_stats.weighted_sum), o.weighted_sum_sql),
        "percent_greater_than": (on_pair(raster_stats.percent_greater_than),
                                 o.percent_greater_sql),
        "pan_sharpen_ihs": (lambda sf: raster_stats.pan_sharpen_ihs(),
                            o.pan_sharpen_sql),
        "fill_missing_data_holes": (lambda sf: raster_stats.fill_missing_data_holes(),
                                    o.fill_holes_sql),
        "average_overlay": (on_pair(raster_stats.average_overlay),
                            o.average_overlay_sql),
        "max_overlay": (
            on_pair(lambda p, s: raster_stats.stack_overlay(p, s, "max")),
            lambda: o.stack_overlay_sql(kind="max")),
        "min_overlay": (
            on_pair(lambda p, s: raster_stats.stack_overlay(p, s, "min")),
            lambda: o.stack_overlay_sql(kind="min")),
        "max_abs_overlay": (
            on_pair(lambda p, s: raster_stats.stack_overlay(p, s, "maxabs")),
            lambda: o.stack_overlay_sql(kind="maxabs")),
        "lowest_position": (on_pair(raster_stats.lowest_position),
                            o.lowest_position_sql),
        "percent_less_than": (
            on_pair(lambda p, s: raster_stats.percent_compare(p, s, "lt")),
            lambda: o.percent_compare_sql(op="lt")),
        "percent_equal_to": (
            on_pair(lambda p, s: raster_stats.percent_compare(p, s, "eq")),
            lambda: o.percent_compare_sql(op="eq")),
        "weighted_overlay": (on_pair(raster_stats.weighted_overlay),
                             o.weighted_overlay_sql),
        "correct_vignetting": (
            lambda sf: raster_stats.correct_vignetting(None, spec),
            o.correct_vignetting_sql),
        "minmax_stretch": (on_synth(raster_stats.minmax_stretch),
                           o.minmax_stretch_sql),
        "sigmoidal_stretch": (on_synth(raster_stats.sigmoidal_stretch),
                              o.sigmoidal_stretch_sql),
        "flip_image": (on_spec(raster_stats.flip_image), o.flip_image_sql),
        "create_plane": (on_spec(raster_stats.create_plane), o.create_plane_sql),
        "filter_olympic": (stencil(raster_stats.filter_olympic), o.olympic_sql),
        "filter_percentile": (stencil(raster_stats.filter_percentile),
                              o.percentile_filter_sql),
        "filter_user_defined_weights": (
            stencil(raster_stats.filter_user_defined_weights),
            o.user_defined_weights_sql),
        "lee_sigma_filter": (stencil(raster_stats.lee_sigma_filter),
                             o.lee_sigma_sql),
        "filter_knearest_mean": (stencil(raster_stats.filter_knearest_mean),
                                 o.knearest_mean_sql),
        "filter_sobel": (stencil(raster_stats.filter_sobel), o.sobel_sql),
        "filter_prewitt": (stencil(raster_stats.filter_prewitt), o.prewitt_sql),
        "filter_emboss": (stencil(raster_stats.filter_emboss), o.emboss_sql),
        "filter_laplacian": (stencil(raster_stats.filter_laplacian),
                             o.laplacian_sql),
        "filter_line_detection": (stencil(raster_stats.filter_line_detection),
                                  o.line_detection_sql),
        "filter_highpass": (stencil(raster_stats.filter_highpass), o.highpass_sql),
        "filter_conservative_smoothing": (
            stencil(raster_stats.filter_conservative_smoothing),
            o.conservative_smoothing_sql),
        "radiation_on_slope": (stencil(terrain.radiation_on_slope, checksum=ints),
                               o.radiation_on_slope_sql),
        "test_for_normality": (
            lambda sf: raster_stats.test_for_normality(raster.synth_raster(spec),
                                                       spec),
            o.test_for_normality_sql),
        "image_global_stats": (
            lambda sf: raster_stats.image_global_stats(raster.synth_raster(spec),
                                                       spec),
            o.image_global_stats_sql),
        "direct_decorrelation_stretch": (
            on_spec(lambda s: raster_stats.direct_decorrelation_stretch(
                raster_stats.synth_composite(s), s)),
            o.dds_sql),
        "balance_contrast_enhancement": (
            on_spec(lambda s: raster_stats.balance_contrast_enhancement(
                raster_stats.synth_composite(s), s)),
            o.bce_sql),
        "percentage_stretch": (
            on_synth(raster_stats.percentage_contrast_stretch, checksum=ints),
            o.percentage_stretch_sql),
        "gaussian_stretch": (on_synth(raster_stats.gaussian_stretch, checksum=ints),
                             o.gaussian_stretch_sql),
        "filter_edge_preserving": (
            stencil(raster_stats.filter_edge_preserving, checksum=ints),
            o.edge_preserving_sql),
        "filter_log": (stencil(raster_stats.filter_log, checksum=ints),
                       o.log_filter_sql),
        "filter_dog": (stencil(raster_stats.filter_dog, checksum=ints),
                       o.dog_filter_sql),
        "filter_gaussian": (stencil(raster_stats.filter_gaussian, checksum=ints),
                            o.gaussian_filter_sql),
        "set_nodata": (
            on_synth(lambda ds, s: raster_stats.set_nodata(floor100(ds), s)),
            o.set_nodata_sql),
        "convert_nodata_to_zero": (on_synth(raster_stats.convert_nodata_to_zero),
                                   o.convert_nodata_to_zero_sql),
        "assign_row_numbers": (on_spec(raster_stats.assign_row_numbers),
                               o.assign_row_numbers_sql),
        "new_raster_from_base": (on_spec(raster_stats.new_raster_from_base),
                                 o.new_raster_from_base_sql),
        "reclass_from_file": (on_synth(raster_stats.reclass_from_file),
                              o.reclass_from_file_sql),
        "filter_adaptive": (on_spec(raster_stats.filter_adaptive, checksum=ints),
                            o.adaptive_filter_sql),
        "diff_mean_elev": (on_spec(raster_stats.diff_from_mean_elevation),
                           o.diff_mean_elev_sql),
        "dev_mean_elev": (on_spec(raster_stats.dev_from_mean_elevation),
                          o.dev_mean_elev_sql),
        "find_patch_edge_cells": (
            on_synth(lambda ds, s: raster_stats.find_patch_edge_cells(
                floor100(ds), s)),
            o.patch_edge_cells_sql),
        "filter_local_contrast": (
            stencil(raster_stats.filter_local_contrast, checksum=ints),
            o.local_contrast_sql),
        "contour_lengths": (lambda sf: raster_stats.contour_lengths(spec),
                            o.contour_lengths_sql),
        # --- terrain derivatives (TerrainAnalysisTools) ---
        "terrain_slope": (stencil(terrain.slope), o.slope_sql),
        "horizon_angle": (lambda sf: terrain.horizon_angle_east(spec),
                          o.horizon_angle_sql),
        "directional_relief": (lambda sf: terrain.directional_relief_east(spec),
                               o.directional_relief_sql),
        "fetch_analysis": (lambda sf: terrain.fetch_analysis_east(spec),
                           o.fetch_analysis_sql),
        "exposure_wind_flux": (lambda sf: terrain.exposure_wind_flux_east(spec),
                               o.exposure_wind_flux_sql),
        "terrain_tri": (stencil(terrain.tri), o.tri_sql),
        "terrain_relative_aspect": (stencil(terrain.relative_aspect),
                                    o.relative_aspect_sql),
        "pennock_landform": (stencil(terrain.pennock), o.pennock_sql),
        "terrain_aspect": (stencil(terrain.aspect), o.aspect_sql),
        "terrain_hillshade": (stencil(terrain.hillshade), o.hillshade_sql),
        "terrain_plan_curv": (stencil(terrain.curvature, "plan"),
                              lambda: o.curvature_sql("plan")),
        "terrain_prof_curv": (stencil(terrain.curvature, "prof"),
                              lambda: o.curvature_sql("prof")),
        "terrain_tan_curv": (stencil(terrain.curvature, "tan"),
                             lambda: o.curvature_sql("tan")),
        # total curvature cells are O(1e10); scale by 1e-9 before the
        # row checksum so cross-engine summation order cannot bite
        "terrain_total_curv": (
            on_synth(lambda ds, s: raster.raster_map(
                terrain.curvature(ds, s, "total", regen=raster.synth_value),
                lambda a: a / 1e9)),
            lambda: o.curvature_sql("total")),
        # --- hydrology (HydroTools) ---
        "fill_pits": (stencil(hydro.fill_pits), o.fill_pits_sql),
        "find_no_flow_cells": (stencil(hydro.find_no_flow_cells),
                               o.find_no_flow_sql),
        "flow_pointer_d8": (stencil(terrain.flow_pointer_d8), o.d8_pointer_sql),
        "flow_pointer_fd8": (stencil(hydro.flow_pointer_fd8), o.fd8_pointer_sql),
        "flow_pointer_dinf": (stencil(dinf.flow_pointer_dinf), o.dinf_pointer_sql),
        "flow_pointer_rho8": (on_spec(hydro.flow_pointer_rho8), o.rho8_pointer_sql),
        "inflow_count": (
            on_synth(lambda ds, s: hydro.num_inflowing_neighbours(
                terrain.flow_pointer_d8(ds, s, regen=raster.synth_value), s)),
            o.inflow_count_sql),
        "find_parallel_flow": (
            on_synth(lambda ds, s: hydro.find_parallel_flow(
                terrain.flow_pointer_d8(ds, s, regen=raster.synth_value), s)),
            o.find_parallel_flow_sql),
        "num_downslope_neighbours": (stencil(hydro.num_downslope_neighbours),
                                     lambda: o.num_neighbours_sql(upslope=False)),
        "num_upslope_neighbours": (stencil(hydro.num_upslope_neighbours),
                                   lambda: o.num_neighbours_sql(upslope=True)),
        "min_downslope_elev_change": (on_spec(hydro.min_downslope_elev_change),
                                      o.min_downslope_change_sql),
        "max_downslope_elev_change": (stencil(hydro.max_downslope_elev_change),
                                      o.max_downslope_change_sql),
        # D8 pointer-walk family: exact recursive-CTE closures over the
        # pointer raster (receivers strictly lower → acyclic).
        "flow_accumulation": (lambda sf: hydro.flow_accumulation_d8(),
                              o.flow_accum_d8_sql),
        "watershed": (lambda sf: hydro.watershed(), o.watershed_sql),
        "extract_streams": (lambda sf: hydro.extract_streams(),
                            o.extract_streams_sql),
        "snap_pour_points": (lambda sf: hydro.snap_pour_points(),
                             o.snap_pour_points_sql),
        "jenson_snap_pour_points": (lambda sf: hydro.jenson_snap_pour_points(),
                                    o.jenson_snap_pour_points_sql),
        "downslope_flowpath_length": (lambda sf: hydro.downslope_flowpath_length(),
                                      o.downslope_flowpath_length_sql),
        "max_upslope_flowpath_length": (
            lambda sf: hydro.max_upslope_flowpath_length(),
            o.max_upslope_flowpath_length_sql),
        "wetness_index": (lambda sf: hydro.wetness_index(), o.wetness_index_sql),
        "stream_power_index": (lambda sf: hydro.relative_stream_power(),
                               o.stream_power_index_sql),
        "sediment_transport_index": (lambda sf: hydro.sediment_transport_index(),
                                     o.sediment_transport_index_sql),
        "trace_downslope_flowpaths": (lambda sf: hydro.trace_downslope_flowpaths(),
                                      o.trace_downslope_flowpaths_sql),
        # FD8 / mass-flux: the downhill-fraction edge DAG is nilpotent
        # (receivers strictly lower), so a bounded synchronous-Jacobi
        # recursive CTE reaches the exact fixed point.
        "flow_accumulation_fd8": (lambda sf: hydro.flow_accumulation_fd8(),
                                  o.flow_accumulation_fd8_sql),
        "mass_flux_d8": (lambda sf: hydro.mass_flux_d8(), o.mass_flux_d8_sql),
        # Dinf family: exact facet-sweep pointer + fractional-edge
        # Jacobi closures (the Dinf DAG is acyclic on this terrain).
        "flow_accumulation_dinf": (lambda sf: dinf.flow_accumulation_dinf(spec),
                                   o.flow_accumulation_dinf_sql),
        "mass_flux_dinf": (lambda sf: dinf.mass_flux_dinf(gate),
                           lambda: o.mass_flux_dinf_sql(GATE_SIDE, GATE_SIDE)),
        "flow_accumulation_mdinf": (lambda sf: dinf.flow_accumulation_mdinf(gate),
                                    o.flow_accumulation_mdinf_sql),
        # Priority-flood family: the fill is the minimax fixed point
        # W = max(z, min_nbr W) (schedule-independent, no arithmetic),
        # closed by bounded Jacobi rounds.
        "fill_depressions": (lambda sf: fill.fill_depressions(),
                             o.fill_depressions_sql),
        "depth_in_sink": (lambda sf: fill.depth_in_sink(gate), o.depth_in_sink_sql),
        "flood_order": (lambda sf: fill.flood_order(gate), o.flood_order_sql),
        "stochastic_depression_analysis": (
            lambda sf: fill.stochastic_depression_analysis(gate, n_real=2),
            o.stochastic_depression_analysis_sql),
        "breach_depressions": (
            lambda sf: breach.breach_depressions(gate),
            "least-cost breach search: a mutating float heap plus in-place "
            "DEM writes (COVERAGE.md, rows-only notes)"),
        "branch_length": (lambda sf: branch_length.branch_length(gate),
                          o.branch_length_sql),
        "remove_off_terrain_objects": (
            lambda sf: oto.remove_off_terrain_objects(gate),
            "iterated reconstruction over a mutating float surface "
            "(COVERAGE.md, rows-only notes)"),
        "multiscale_elev_residual": (lambda sf: meri.multiscale_elev_residual(gate),
                                     o.multiscale_elev_residual_sql),
        # modified k-means / dendrogram: unrolled fixed-point replay
        # (cleanup is a measured no-op on this input — see docstrings).
        "modified_kmeans": (lambda sf: mkmeans.modified_kmeans(gate),
                            o.modified_kmeans_sql),
        "dendrogram": (lambda sf: mkmeans.dendrogram(gate), o.dendrogram_sql),
        "elev_rel_watershed_minmax": (
            lambda sf: hydro.elev_rel_watershed_minmax(gate),
            o.elev_rel_watershed_minmax_sql),
        "downslope_index": (lambda sf: hydro.downslope_index(gate),
                            o.downslope_index_sql),
        "avg_slope_to_divide": (
            lambda sf: hydro.avg_slope_to_divide(gate),
            lambda: o.avg_upslope_flowpath_length_sql(mode="slope_to_divide")),
        "avg_upslope_flowpath_length": (
            lambda sf: hydro.avg_upslope_flowpath_length(gate),
            o.avg_upslope_flowpath_length_sql),
        "total_upstream_channel_length": (
            lambda sf: hydro.total_upstream_channel_length(gate),
            o.total_upstream_channel_length_sql),
        "furthest_channel_head_distance": (
            lambda sf: hydro.furthest_channel_head_distance(gate),
            o.furthest_channel_head_distance_sql),
        "viewshed": (lambda sf: viewshed.viewshed(spec), o.viewshed_sql),
        "visibility_index": (lambda sf: viewshed.visibility_index(gate),
                             o.visibility_index_sql),
        # --- streams (StreamAnalysis) ---
        "stream_order": (lambda sf: streams.stream_order(), o.stream_order_sql),
        "stream_magnitude": (lambda sf: streams.stream_magnitude(),
                             o.stream_magnitude_sql),
        "stream_link_id": (lambda sf: streams.stream_link_id(),
                           o.stream_link_id_sql),
        "stream_link_lengths": (lambda sf: streams.stream_link_lengths(),
                                o.stream_link_lengths_sql),
        "stream_link_slope": (lambda sf: streams.stream_link_slope(),
                              o.stream_link_slope_sql),
        "find_main_stem": (lambda sf: streams.find_main_stem(),
                           o.find_main_stem_sql),
        "streams_to_vector": (lambda sf: streams.streams_to_vector(),
                              o.streams_to_vector_sql),
        "subbasins": (lambda sf: streams.subbasins(), o.subbasins_sql),
        "strahler_order_basins": (lambda sf: streams.strahler_order_basins(),
                                  o.strahler_order_basins_sql),
        "hillslopes": (lambda sf: streams.hillslopes(), o.hillslopes_sql),
        "hack_order": (lambda sf: streams.hack_order(), o.hack_order_sql),
        "stream_link_classification": (
            lambda sf: streams.stream_link_classification(threshold=2.0),
            lambda: o.stream_link_classification_sql(threshold=2.0)),
        "remove_short_streams": (
            lambda sf: streams.remove_short_streams(threshold=2.0, min_length=3.0),
            lambda: o.remove_short_streams_sql(threshold=2.0, min_length=3.0)),
        "isobasin": (lambda sf: isobasin.isobasin(gate), o.isobasin_sql),
        "find_saddle_points": (lambda sf: streams.find_saddle_points(gate),
                               o.find_saddle_points_sql),
        "median_upstream_area": (lambda sf: streams.median_upstream_area(gate),
                                 o.median_upstream_area_sql),
        "elev_above_pit": (lambda sf: streams.elev_above_pit(gate),
                           o.elev_above_pit_sql),
        "distance_to_outlet": (lambda sf: streams.distance_to_outlet(gate),
                               o.distance_to_outlet_sql),
        "downslope_distance_to_stream": (
            lambda sf: streams.downslope_distance_to_stream(gate),
            o.downslope_distance_to_stream_sql),
        "elevation_above_stream": (lambda sf: streams.elevation_above_stream(gate),
                                   o.elevation_above_stream_sql),
        # --- raster↔vector, thinning (ConversionTools, LineThinning) ---
        "thicken_raster_line": (lambda sf: thinning.thicken_line(spec),
                                o.thicken_raster_line_sql),
        "line_thinning": (lambda sf: thinning.line_thinning(spec),
                          o.line_thinning_sql),
        "remove_spurs": (lambda sf: thinning.remove_spurs(spec), o.remove_spurs_sql),
        "find_ridges": (lambda sf: thinning.find_ridges(spec), o.find_ridges_sql),
        # the exact oracle replays the sequential thinning + trace state
        # machine as a recursive CTE (~0.2 s/100 trace steps), so it runs
        # on the gate raster; the 256×256 default stays covered by the
        # naive-mirror tiling tests (tests/test_vectorize.py)
        "raster_to_vector_lines": (
            lambda sf: vectorize.raster_to_vector_lines(gate),
            lambda: vectorize_oracle.raster_to_vector_lines_sql(
                rows=GATE_SIDE, cols=GATE_SIDE)),
        "raster_to_polygons": (lambda sf: vectorize.raster_to_polygons(spec),
                               o.raster_to_polygons_sql),
        "contour_polylines": (lambda sf: vectorize.contour_polylines(spec),
                              o.contour_polylines_sql),
        "rasterize_polygons": (lambda sf: rasterize.rasterize_triangles(),
                               o.rasterize_triangles_sql),
        "rasterize_lines": (lambda sf: rasterize.rasterize_lines(),
                            o.rasterize_lines_sql),
        "intersection_density": (lambda sf: rasterize.intersection_density(),
                                 o.intersection_density_sql),
        "clip_raster_to_polygon": (lambda sf: rasterize.clip_raster_to_polygon(),
                                   o.clip_raster_to_polygon_sql),
        "clump": (lambda sf: clump.clump(), o.clump_sql),
        "interpolation_nn": (lambda sf: gridding.interpolation_nn(),
                             gridding.interpolation_nn_sql),
        "minimum_interpolation": (lambda sf: gridding.minimum_interpolation(),
                                  gridding.minimum_interpolation_sql),
        "point_density": (lambda sf: gridding.point_density(),
                          gridding.point_density_sql),
        "vector_feature_density": (gridding.vector_feature_density,
                                   gridding.vector_feature_density_sql),
        "attribute_gridding": (gridding.attribute_gridding,
                               gridding.attribute_gridding_sql),
        "nearest_neighbour_analysis": (
            lambda sf: knn.nearest_neighbour_analysis(read_points(sf)),
            knn.nearest_neighbour_analysis_sql),
        # --- vector tools (VectorTools) ---
        "vector_cleaning": (vops.vector_cleaning, vops.vector_cleaning_sql),
        "shape_metrics_basic": (vops.shape_metrics_basic,
                                vops.shape_metrics_basic_sql),
        "shape_metrics_extended": (vops.shape_metrics_extended,
                                   vops.shape_metrics_extended_sql),
        "medoid": (vops.medoid, vops.medoid_sql),
        "smooth_vector": (vops.smooth_vector, vops.smooth_vector_sql),
        "polygons_to_lines": (vops.polygons_to_lines, vops.polygons_to_lines_sql),
        "extract_nodes": (vops.extract_nodes_query, vops.extract_nodes_sql),
        "centroid_vector": (vops.centroid_vector, vops.centroid_vector_sql),
        "isolate_by_attribute": (vops.isolate_by_attribute,
                                 vops.isolate_by_attribute_sql),
        "buffer_vector": (vops.buffer_vector, vops.buffer_vector_sql),
        "group_polygons_by_orientation": (vops.group_polygons_by_orientation,
                                          vops.group_polygons_by_orientation_sql),
        "patch_orientation_vector_field": (
            vops.patch_orientation_vector_field,
            vops.patch_orientation_vector_field_sql),
        "find_polygon_midline": (
            vops.find_polygon_midline,
            "incremental Bowyer-Watson over cocircular rectangle boundaries "
            "depends on insertion order (COVERAGE.md, rows-only notes)"),
        # static matching gates + declarative path components make the
        # greedy chain walk SQL-replayable
        "find_polygon_chains": (chains.find_polygon_chains,
                                chains.find_polygon_chains_sql),
        "multiparts_to_singleparts": (vops.multiparts_to_singleparts,
                                      vops.multiparts_to_singleparts_sql),
        "singleparts_to_multiparts": (vops.singleparts_to_multiparts,
                                      vops.singleparts_to_multiparts_sql),
        "remove_polygon_holes": (vops.remove_polygon_holes,
                                 vops.remove_polygon_holes_sql),
        # the ring is integer unit-step and distances are translation-
        # invariant, so the neck walk replays in SQL
        "remove_polygon_necks": (vops.remove_polygon_necks,
                                 o.remove_polygon_necks_sql),
        "extend_vector_lines": (vops.extend_vector_lines,
                                vops.extend_vector_lines_sql),
        "add_point_coordinates": (vops.add_point_coordinates,
                                  vops.add_point_coordinates_sql),
        "create_rect_vector_grid": (lambda sf: vops.create_rect_vector_grid(),
                                    vops.create_rect_vector_grid_sql),
        "create_hex_vector_grid": (lambda sf: vops.create_hex_vector_grid(),
                                   vops.create_hex_vector_grid_sql),
        "shape_complexity": (vops.shape_complexity, vops.shape_complexity_sql),
        "minimum_bounding_box": (vops.minimum_bounding_box,
                                 o.minimum_bounding_box_sql),
        "minimum_convex_hull": (vops.minimum_convex_hull,
                                vops.minimum_convex_hull_sql),
        "lines_to_polygons": (vops.lines_to_polygons, vops.lines_to_polygons_sql),
        "simplify_line": (vops.simplify_line, vops.simplify_line_sql),
        "layer_footprint": (vops.layer_footprint_query, vops.layer_footprint_sql),
        "long_axis": (vops.long_axis, lambda: o.axis_sql("long")),
        "short_axis": (vops.short_axis, lambda: o.axis_sql("short")),
        "interior_point": (vops.interior_point, vops.interior_point_sql),
        "trend_surface": (vops.trend_surface, vops.trend_surface_sql),
        "find_straight_segments": (vops.find_straight_segments,
                                   vops.find_straight_segments_sql),
        # --- TIN / Voronoi (ConstructTIN, VoronoiDiagram, RasterizeTIN —
        # from-scratch Bowyer–Watson, per-tile ghost-margin construction) ---
        "construct_tin": (tin.construct_tin, tin_oracle.construct_tin_sql),
        "voronoi_areas": (tin.voronoi_areas, tin_oracle.voronoi_areas_sql),
        "rasterize_tin": (tin.rasterize_tin, tin_oracle.rasterize_tin_sql),
        # --- vector overlay (VectorTools Clip/Erase/Intersect/Union/
        # Difference/SymmetricDifference + Dissolve, general concave
        # kernel in core/overlay.py) ---
        "vector_clip": (vector_overlay.clip_boxes, o.clip_boxes_sql),
        "vector_erase": (vector_overlay.erase_boxes, o.erase_boxes_sql),
        "overlay_intersect": (
            lambda sf: vector_overlay.overlay_areas(sf, "intersection"),
            lambda: o.overlay_area_sql("intersection")),
        "overlay_union": (lambda sf: vector_overlay.overlay_areas(sf, "union"),
                          lambda: o.overlay_area_sql("union")),
        "overlay_difference": (
            lambda sf: vector_overlay.overlay_areas(sf, "difference"),
            lambda: o.overlay_area_sql("difference")),
        "overlay_symdiff": (
            lambda sf: vector_overlay.overlay_areas(sf, "symmetric_difference"),
            lambda: o.overlay_area_sql("symmetric_difference")),
        "dissolve_union": (vector_overlay.dissolve_union_area, o.dissolve_union_sql),
        "fuse_touching": (vector_overlay.fuse_touching,
                          vector_overlay.fuse_touching_sql),
        # --- distance transform (GISTools EuclideanDistance) ---
        "euclidean_distance": (lambda sf: distance.euclidean_distance(),
                               o.euclidean_distance_sql),
        "raster_buffer": (lambda sf: distance.euclidean_distance(buffer_d=10.0),
                          o.raster_buffer_sql),
        "euclidean_allocation": (lambda sf: distance.euclidean_allocation(),
                                 o.euclidean_allocation_sql),
        "burn_streams": (lambda sf: distance.burn_streams(), o.burn_streams_sql),
        # --- cost distance (GISTools CostAccumulation/Allocation): two-phase
        # Bellman closure (double-min distances, then source ids over the
        # optimal-edge subgraph) ---
        "cost_accumulation": (lambda sf: cost.cost_accumulation(spec),
                              o.cost_accumulation_sql),
        "cost_allocation": (lambda sf: cost.cost_allocation(spec),
                            o.cost_allocation_sql),
        "cost_pathway": (lambda sf: cost.cost_pathway(spec), o.cost_pathway_sql),
        # --- raster calculator (RasterCalculator expression compiler) ---
        "raster_calc": (_raster_calc("sqrt(a) + b / 5.0 + if(a > b, 1.0, 0.0)"),
                        o.raster_calc_sql),
        "conditional_evaluation": (
            _raster_calc("if(a >= 500.0, a - 500.0, b * 0.5)"),
            o.conditional_evaluation_sql),
        # --- CRS transform (ConversionTools CoordinateSystemTransformation,
        # WhiteboxAPI georeference/LL2UTM) ---
        "utm_project": (crs.utm_project_query, crs.utm_project_sql),
        "utm_project_nad27": (
            lambda sf: crs.utm_project_datum_query(sf, datum="NAD27 (CONUS)"),
            lambda: crs.utm_project_datum_sql("NAD27 (CONUS)")),
        "utm_project_ed50": (
            lambda sf: crs.utm_project_datum_query(sf, datum="ED50"),
            lambda: crs.utm_project_datum_sql("ED50")),
        # --- photogrammetry exemplar (Scripts/EstimateHeightsFromParallax) ---
        "estimate_heights_parallax": (photogrammetry.estimate_heights_from_parallax,
                                      photogrammetry.estimate_heights_sql),
        "locate_principal_point": (photogrammetry.locate_principal_point,
                                   photogrammetry.locate_principal_point_sql),
        "image_rectification_fit": (photogrammetry.image_rectification_fit,
                                    photogrammetry.image_rectification_sql),
        "surf_match_points": (photogrammetry.surf_match_points,
                              photogrammetry.surf_match_points_sql),
        "find_tie_points": (photogrammetry.find_tie_points,
                            photogrammetry.find_tie_points_sql),
        "epipolar_transform": (photogrammetry.epipolar_transform,
                               photogrammetry.epipolar_transform_sql),
        "locate_conjugate_point": (
            conjugate.locate_conjugate_point,
            "adaptive-radius DP signature filter over float Welford state "
            "(COVERAGE.md, rows-only notes)"),
        "surf_pixel_matching": (
            surf.surf_pixel_matching,
            "float32 SURF detector; DuckDB has no float32 arithmetic "
            "(COVERAGE.md, rows-only notes)"),
        # --- two-raster stats (StatsTools) ---
        "cross_tabulation": (on_pair(raster_stats.cross_tabulation),
                             o.cross_tab_sql),
        "kappa_index": (on_pair(raster_stats.kappa_index), o.kappa_sql),
        "extract_valleys": (lambda sf: raster_stats.extract_valleys_pd(spec),
                            o.extract_valleys_sql),
        "extract_valleys_jr": (stencil(raster_stats.extract_valleys_jr),
                               o.extract_valleys_jr_sql),
        "extract_valleys_lq": (stencil(raster_stats.extract_valleys_lq),
                               o.extract_valleys_lq_sql),
        "paired_t_test": (on_pair(raster_stats.paired_t_test), o.paired_t_sql),
        "highest_position": (on_pair(raster_stats.highest_position),
                             o.highest_position_sql),
        "colour_composite": (on_pair(raster_stats.colour_composite),
                             o.colour_composite_sql),
        "split_colour_composite": (on_pair(raster_stats.split_colour_composite),
                                   o.split_composite_sql),
        "write_function_memory": (on_pair(raster_stats.write_function_memory),
                                  o.write_function_memory_sql),
        "change_vector_analysis": (on_pair(raster_stats.change_vector_analysis),
                                   o.cva_sql),
        "ndvi": (on_pair(raster_stats.ndvi), o.ndvi_sql),
        "morans_i": (lambda sf: raster_stats.morans_i(spec), o.morans_i_sql),
        "histogram_match": (on_pair(raster_stats.histogram_match),
                            o.histogram_match_sql),
        "rgb_ihs_roundtrip": (lambda sf: raster_stats.rgb_ihs_roundtrip(spec),
                              o.rgb_ihs_sql),
        "image_correlation": (on_pair(raster_stats.image_correlation),
                              o.image_correlation_sql),
        "image_regression": (on_pair(raster_stats.image_regression),
                             o.image_regression_sql),
        # --- flagship pipelines ---
        "flagship": (flagship.flagship, o.flagship_sql),
        # the checkpointed writer under the gate: manifest rows per tile
        "job_manifest": (
            job.job_manifest,
            lambda: ("SELECT CAST(tile_id AS BIGINT) AS partition, "
                     "count(*)::BIGINT AS n_rows FROM (" + o.flagship_sql()
                     + ") q GROUP BY 1 ORDER BY 1")),
        "pages_flagship": (_pages_flagship, o.pages_flagship_sql),
        "pages_exact_dedup": (_pages_exact_dedup, o.pages_exact_dedup_sql),
    }


def queries() -> dict[str, Impl]:
    return {name: impl for name, (impl, _) in registry().items()}


def oracle_sql() -> dict[str, str]:
    return {name: check() for name, (_, check) in registry().items()
            if callable(check)}


def rows_only() -> dict[str, str]:
    """name → why the query has no exact oracle."""
    return {name: check for name, (_, check) in registry().items()
            if isinstance(check, str)}
