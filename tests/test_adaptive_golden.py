"""Adaptive execution takes the row interpreter's decisions, record for
record (see adaptive_golden)."""

import json

import pytest

from tests.adaptive_golden import GOLDEN, compute


@pytest.fixture(scope="module")
def records():
    return compute()


GOLDEN_RECORDS = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_same_runs(records):
    assert sorted(records) == sorted(GOLDEN_RECORDS)


@pytest.mark.parametrize("run", sorted(GOLDEN_RECORDS))
def test_run_matches(records, run):
    assert records[run] == GOLDEN_RECORDS[run]
