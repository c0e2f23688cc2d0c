"""The plan space is the parent's, byte for byte (see plan_space_golden)."""

import json

import pytest

from tests.plan_space_golden import GOLDEN, compute


@pytest.fixture(scope="module")
def digests():
    return compute()


GOLDEN_DIGESTS = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_same_sections(digests):
    assert sorted(digests) == sorted(GOLDEN_DIGESTS)


@pytest.mark.parametrize("section", sorted(GOLDEN_DIGESTS))
def test_section_digest(digests, section):
    assert digests[section] == GOLDEN_DIGESTS[section]
