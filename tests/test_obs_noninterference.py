"""Tracing is observational only — the tentpole non-interference property.

For every site in the QA stable (three seed sites plus two fuzzed ones),
run the same query three times against *fresh* environments — tracer off,
no-op tracer, recording tracer — and require the ``ExecutionResult``
fingerprint and the full :class:`~repro.web.client.AccessLog` (every
counter, the download order, the per-fetch records, the simulated clock)
to be bit-for-bit identical.  Same again under a worker pool and under a
page cache: tracing must not perturb batching, dedup, or cache behaviour.
"""

import pytest

from repro.obs import NULL_TRACER, RecordingTracer
from repro.options import QueryOptions
from repro.qa.cli import build_site
from repro.web.client import FetchConfig

pytestmark = pytest.mark.usefixtures("isolated_metrics")

SITES = ["university", "bibliography", "movies", "fuzz:17", "fuzz:42"]


def _run(site, *, tracer, workers=1, cache=None):
    """One hermetic execution: fresh site, first suite query."""
    env, queries = build_site(site)
    sql = next(iter(queries.values()))
    if cache is not None:
        env.enable_cache(capacity=4096, policy=cache)
    result = env.query(
        sql,
        options=QueryOptions(
            fetch=FetchConfig(max_workers=workers), tracer=tracer
        ),
    )
    return result


def _make_tracer(mode):
    if mode == "off":
        return None
    if mode == "noop":
        return NULL_TRACER
    return RecordingTracer()


def _assert_identical(reference, other, context):
    assert other.fingerprint() == reference.fingerprint(), context
    # the whole log, field for field — including float clock readings,
    # download order, and the frozen per-fetch records
    assert other.log == reference.log, context


@pytest.mark.parametrize("site", SITES)
def test_tracer_modes_identical_serial(site):
    reference = _run(site, tracer=None)
    for mode in ("noop", "recording"):
        other = _run(site, tracer=_make_tracer(mode))
        _assert_identical(reference, other, f"{site} serial tracer={mode}")


@pytest.mark.parametrize("site", ["university", "movies", "fuzz:17"])
def test_tracer_modes_identical_pooled(site):
    reference = _run(site, tracer=None, workers=4)
    for mode in ("noop", "recording"):
        other = _run(site, tracer=_make_tracer(mode), workers=4)
        _assert_identical(reference, other, f"{site} k=4 tracer={mode}")


@pytest.mark.parametrize("site", ["university", "movies"])
def test_tracer_modes_identical_cached(site):
    reference = _run(site, tracer=None, cache="cross_query")
    for mode in ("noop", "recording"):
        other = _run(site, tracer=_make_tracer(mode), cache="cross_query")
        _assert_identical(reference, other, f"{site} cached tracer={mode}")


def test_recording_run_carries_its_trace():
    env, queries = build_site("university")
    tracer = RecordingTracer()
    result = env.query(
        next(iter(queries.values())), options=QueryOptions(tracer=tracer)
    )
    assert result.trace is not None
    assert result.trace.kind == "query"
    operator_spans = [
        s for s in result.trace.walk() if s.kind == "operator"
    ]
    assert operator_spans, "traced run recorded no operator spans"
    untraced = build_site("university")[0].query(
        next(iter(queries.values()))
    )
    assert untraced.trace is None


def test_qa_matrix_identical_under_trace_dimension():
    """The differential oracle's trace dimension: same shard, three tracer
    modes, identical digests (the ISSUE's bit-for-bit requirement)."""
    from repro.qa.oracle import DifferentialOracle, MatrixSpec

    digests = {}
    for mode in ("off", "noop", "recording"):
        env, queries = build_site("movies")
        spec = MatrixSpec(
            cache_modes=("off", "cross_query_warm"),
            fault_modes=("none",),
            worker_counts=(1, 4),
            max_plans=2,
            trace=mode,
        )
        oracle = DifferentialOracle(
            env, queries, site_name="movies", seed=7, spec=spec
        )
        report = oracle.run()
        assert report.ok, report.violations
        digests[mode] = report.digest()
        if mode == "recording":
            assert all(
                cell.trace_spans is not None and cell.trace_spans > 0
                for cell in report.cells
                if not cell.expected_failure
            )
        else:
            assert all(
                cell.trace_spans is None for cell in report.cells
            )
    assert digests["off"] == digests["noop"] == digests["recording"]
