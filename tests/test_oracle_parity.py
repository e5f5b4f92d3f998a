"""The local mirror of the driver's correctness gate: every registry
query with an oracle must match DuckDB exactly at sf0.001; every
rows-only query must at least run and return columns."""

import pytest

import __ray_entry__ as entry_mod

REGISTRY = entry_mod.registry()
SF_DIR = "/root/testdata/sf0.001"


@pytest.mark.parametrize("name", sorted(entry_mod.oracle_sql()))
def test_query_matches_oracle(name, duck):
    from conftest import assert_matches_oracle
    impl, oracle = REGISTRY[name]
    assert_matches_oracle(impl(SF_DIR), duck, oracle())


@pytest.mark.parametrize("name", sorted(entry_mod.rows_only()))
def test_rows_only_queries_run(name, duck):
    from conftest import to_pandas
    df = to_pandas(REGISTRY[name][0](SF_DIR))
    assert df is not None
    assert len(df.columns) > 0
