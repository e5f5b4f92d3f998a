"""Byte-identical text extraction (BASELINE.json input_hint invariant)."""

import numpy as np

from whitebox_geospatial_analysis_tools_ray.sources import pages


def test_extract_text_byte_identical():
    df = pages.make_pages(500)
    for h, t in zip(df["html"], df["text"]):
        assert pages.extract_text_bytes(h) == t  # byte-for-byte


def test_pages_deterministic():
    a = pages.make_pages(200)
    b = pages.make_pages(200)
    assert a.equals(b)
    assert a["url"].is_unique


def test_extract_stage_roundtrip(tmp_path, ray_session):
    import ray.data as rd
    path = str(tmp_path / "pages.parquet")
    pages.write_pages(300, path)
    ds = rd.read_parquet(path)
    out = pages.extract_text_stage(ds).to_pandas()
    assert (out["extracted"] == out["text"]).all()


def test_escape_roundtrip():
    tricky = 'a <b> & "c" &amp; <'
    assert pages._unescape(pages._escape(tricky)) == tricky


def test_pages_flagship_matches_naive(tmp_path, ray_session):
    """Distributed pages flagship == single-process pandas mirror."""
    import numpy as np
    import pandas as pd
    import zlib

    from whitebox_geospatial_analysis_tools_ray.core.features import seeded_polygons
    from whitebox_geospatial_analysis_tools_ray.core.rng import (
        EAST, NORTH, SOUTH, WEST, geocode_xy)
    from whitebox_geospatial_analysis_tools_ray.core.tiles import RectGrid
    from whitebox_geospatial_analysis_tools_ray.core.geom import points_in_polygon
    from whitebox_geospatial_analysis_tools_ray.pipelines.pages_flagship import (
        pages_flagship)
    from whitebox_geospatial_analysis_tools_ray.sources.pages import (
        extract_text_bytes, generate_pages_dataset, make_pages)

    d = generate_pages_dataset(5_000, str(tmp_path / "pages"))
    got = (pages_flagship(d).to_pandas()
           .sort_values(["tile_id", "zone_id"]).reset_index(drop=True))

    df = make_pages(5_000)
    texts = [extract_text_bytes(bytes(h)) for h in df["html"]]
    ids = np.array([zlib.crc32(u.encode()) for u in df["url"]], dtype=np.int64)
    x, y = geocode_xy(ids)
    n_chars = np.array([len(t) for t in texts], dtype=np.int64)
    grid = RectGrid.from_extent(WEST, SOUTH, EAST, NORTH,
                                width_x=250.0, width_y=250.0)
    rows = []
    for z in seeded_polygons():
        hit = points_in_polygon(x, y, z["polygon"])
        if hit.any():
            rows.append(pd.DataFrame({
                "tile_id": grid.tile_of(x[hit], y[hit]),
                "zone_id": z["zone_id"], "chars": n_chars[hit]}))
    want = (pd.concat(rows).groupby(["tile_id", "zone_id"], as_index=False)
            .agg(n_pages=("chars", "size"), sum_chars=("chars", "sum"))
            .sort_values(["tile_id", "zone_id"]).reset_index(drop=True))
    want["n_pages"] = want["n_pages"].astype("int64")
    pd.testing.assert_frame_equal(got, want)


def test_pages_flagship_skewed_matches_naive(tmp_path, ray_session):
    """Skewed corpus (50% of rows collapsed onto ONE duplicate page →
    one mega-hot tile/zone) still aggregates exactly: the hot key's
    n_pages equals the collapsed-row count and the distributed result
    matches the single-process mirror."""
    import numpy as np
    import pandas as pd
    import zlib

    from whitebox_geospatial_analysis_tools_ray.core.features import seeded_polygons
    from whitebox_geospatial_analysis_tools_ray.core.rng import (
        EAST, NORTH, SOUTH, WEST, geocode_xy)
    from whitebox_geospatial_analysis_tools_ray.core.tiles import RectGrid
    from whitebox_geospatial_analysis_tools_ray.core.geom import points_in_polygon
    from whitebox_geospatial_analysis_tools_ray.pipelines.pages_flagship import (
        pages_flagship)
    from whitebox_geospatial_analysis_tools_ray.sources.pages import (
        extract_text_bytes, generate_pages_dataset, make_pages_ids, skew_ids)

    n = 5_000
    d = generate_pages_dataset(n, str(tmp_path / "pages_skew"), hot_frac=0.5)
    got = (pages_flagship(d).to_pandas()
           .sort_values(["tile_id", "zone_id"]).reset_index(drop=True))

    ids0 = skew_ids(np.arange(n, dtype=np.int64), 0.5)
    assert 0.4 < (ids0 == 42).mean() < 0.6  # the skew is actually there
    df = make_pages_ids(ids0)
    texts = [extract_text_bytes(bytes(h)) for h in df["html"]]
    ids = np.array([zlib.crc32(u.encode()) for u in df["url"]], dtype=np.int64)
    x, y = geocode_xy(ids)
    n_chars = np.array([len(t) for t in texts], dtype=np.int64)
    grid = RectGrid.from_extent(WEST, SOUTH, EAST, NORTH,
                                width_x=250.0, width_y=250.0)
    rows = []
    for z in seeded_polygons():
        hit = points_in_polygon(x, y, z["polygon"])
        if hit.any():
            rows.append(pd.DataFrame({
                "tile_id": grid.tile_of(x[hit], y[hit]),
                "zone_id": z["zone_id"], "chars": n_chars[hit]}))
    want = (pd.concat(rows).groupby(["tile_id", "zone_id"], as_index=False)
            .agg(n_pages=("chars", "size"), sum_chars=("chars", "sum"))
            .sort_values(["tile_id", "zone_id"]).reset_index(drop=True))
    want["n_pages"] = want["n_pages"].astype("int64")
    pd.testing.assert_frame_equal(got, want)


# --- vectorized extractor equivalence ------------------------------------

def test_extract_texts_template_corpus():
    import pyarrow as pa
    df = pages.make_pages(800)
    arr = pa.array([bytes(h) for h in df["html"]], type=pa.binary())
    assert pages.extract_texts(arr) == list(df["text"])


def test_extract_texts_matches_scalar_on_adversarial_rows():
    """The numpy fast path must equal the scalar first-occurrence
    extractor on every input, including rows that defeat the template
    verification (fallback path)."""
    import pyarrow as pa
    advers = ["a & b < c > d", "literal &amp; entity", "</p><footer>fake",
              "héllo ✓ 漢字", "", "x" * 5000, "&&&&", "&gt;&lt;&amp;"]
    htmls = [pages.HTML_PREFIX + b"http://u/" + pages.HTML_MID
             + pages._escape(t).encode("utf-8") + pages.HTML_SUFFIX
             for t in advers]
    htmls += [
        # non-template but extractable (scalar fallback)
        b"garbage" + pages.HTML_MID + b"mid text" + pages.HTML_SUFFIX + b"t",
        pages.HTML_MID + pages.HTML_SUFFIX,
        # raw '<' inside the text region: first-SUFFIX search matters
        pages.HTML_PREFIX + b"u" + pages.HTML_MID + b"has <b>raw</b> "
        + pages.HTML_SUFFIX + b"X" + pages.HTML_SUFFIX,
        # '<' inside the url region defeats the first-'<'-is-MID proof
        pages.HTML_PREFIX + b"http://u/<q>" + pages.HTML_MID + b"t"
        + pages.HTML_SUFFIX,
    ]
    arr = pa.array(htmls, type=pa.binary())
    want = [pages.extract_text_bytes(h) for h in htmls]
    assert pages.extract_texts(arr) == want
    # sliced (nonzero offset) and chunked layouts hit the same spans
    assert pages.extract_texts(arr.slice(3, 6)) == want[3:9]
    assert pages.extract_texts(
        pa.chunked_array([arr.slice(0, 4), arr.slice(4)])) == want


def test_extract_texts_property(ray_session):
    """Hypothesis: arbitrary text payloads (escaped into the template)
    and arbitrary binary rows both match the scalar extractor."""
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(max_size=80), min_size=1, max_size=8))
    def run(texts):
        import pyarrow as pa
        htmls = [pages.HTML_PREFIX + b"u" + pages.HTML_MID
                 + pages._escape(t).encode("utf-8") + pages.HTML_SUFFIX
                 for t in texts]
        arr = pa.array(htmls, type=pa.binary())
        assert pages.extract_texts(arr) == \
            [pages.extract_text_bytes(h) for h in htmls]

    run()


def test_skewed_corpus_text_classes():
    """pages_exact_dedup's oracle groups by the text-class key
    (start, ntok) while the impl groups by md5(text): identical
    partitions on this exact corpus, pinned in both directions —
    (a) the key DETERMINES the text (same key -> same text, by the
    generator's arithmetic), and (b) #distinct texts == #distinct
    keys, so key -> text is also injective here."""
    import pandas as pd
    ids = pages.skew_ids(np.arange(20_000, dtype=np.int64), 0.2)
    df = pages.make_pages_ids(ids)
    key = pd.DataFrame({
        "s": (ids * 7919 + 13) % len(pages._WORDS),
        "ntok": 20 + (ids * 2654435761 + 31) % 180,
        "text": df["text"].to_numpy()})
    assert (key.groupby(["s", "ntok"])["text"].nunique() == 1).all()
    assert key["text"].nunique() == len(
        key[["s", "ntok"]].drop_duplicates())
