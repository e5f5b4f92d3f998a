"""The query registry without Ray: every row states exactly one of an
oracle thunk or a rows-only reason, and the rows-only names are the
ones COVERAGE.md writes up."""

import os
import re

import pytest

import __ray_entry__ as entry_mod

pytestmark = pytest.mark.no_ray

COVERAGE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "COVERAGE.md")


def test_every_row_has_one_oracle_or_one_reason():
    for name, (impl, check) in entry_mod.registry().items():
        assert callable(impl), name
        assert callable(check) != isinstance(check, str), name
        if isinstance(check, str):
            assert check.strip(), name


def test_rows_only_names_match_coverage():
    text = open(COVERAGE, encoding="utf-8").read()
    section = text.split("### The 5 remaining rows-only queries", 1)[1]
    section = section.split("\n#", 1)[0]
    listed = set(re.findall(r"^- `(\w+)`", section, flags=re.M))
    assert set(entry_mod.rows_only()) == listed
