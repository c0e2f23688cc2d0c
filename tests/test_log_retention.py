"""How much of its history a client's log holds does not depend on the
garbage collector.

Every query takes a :class:`~repro.web.client.LogMark`, and the log keeps the
entries appended after the oldest mark still alive.  A mark must die with its
query: if a failed or retried fetch stores an exception whose traceback
reaches the query's frame (``f_back``), the mark lives in a reference cycle
until the cyclic collector runs, and the log's retention depends on when it
does.  With the collector off, two identical worlds fed the same queries
must hold no live mark after each query and equal entries.
"""

from __future__ import annotations

import gc
import itertools

import pytest

from repro import university
from repro.errors import RetriesExhaustedError, TransientFetchError
from repro.obs.trace import RecordingTracer
from repro.options import QueryOptions
from repro.sitegen.university import UniversityConfig
from repro.web.client import FetchConfig
from repro.web.server import FaultPolicy

QUERIES = [
    "SELECT DName FROM Dept",
    "SELECT PName, email FROM Professor",
    "SELECT CName, Type FROM Course",
    "SELECT PName, DName FROM ProfDept",
    "SELECT CName, PName FROM CourseInstructor",
]


def world():
    env = university(UniversityConfig(n_depts=2, n_profs=6, n_courses=12))
    env.site.server.fault_policy = FaultPolicy(0.6, seed=3)
    return env


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "execution, workers, cache, traced",
    [
        *itertools.product(
            ["staged", "pipelined"], [1, 4], ["off", "cross_query"], [False]
        ),
        ("adaptive", 1, "off", False),
        ("staged", 1, "off", True),
    ],
)
def test_no_mark_outlives_its_query(
    collector_off, execution, workers, cache, traced
):
    worlds = [world(), world()]
    failed = retried = 0
    for sql in QUERIES * 2:
        for env in worlds:
            options = QueryOptions(
                cache=cache,
                execution=execution,
                fetch=FetchConfig(max_workers=workers),
                tracer=RecordingTracer() if traced else None,
            )
            attempts = env.client.log.attempts
            try:
                result = env.query(sql, options=options)
            except RetriesExhaustedError as err:
                # the error chain survives: the last transient failure
                assert isinstance(err.last, TransientFetchError)
                failed += 1
            else:
                retried += result.log.attempts > result.log.page_downloads
            assert env.client.log.attempts > attempts
            log = env.client.log
            assert [mark() for mark in log._marks if mark() is not None] == []
        a, b = (env.client.log for env in worlds)
        assert a.records == b.records and a.downloaded_urls == b.downloaded_urls
    # both kinds of query happened, in both worlds
    assert failed > 0 and retried > 0
