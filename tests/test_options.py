"""The QueryOptions/QueryRequest surface: the one way to configure a query.

PR 6 redesigned the public query API around one frozen, validated
:class:`~repro.options.QueryOptions` bundle.  These tests pin the
contract:

* construction-time validation (``coerce_execution`` canonicalizes the
  mode once; every typed field is type-checked);
* ``options=`` is the only configuration keyword: each query entry point
  rejects the six pre-bundle keyword arguments with :class:`TypeError`,
  and an ``options`` that is not a bundle with ``OptionsError``;
* the materialized engine's rejection of network-only fields.
"""

from __future__ import annotations

import warnings

import pytest

from repro.engine.pipeline import PipelineConfig
from repro.errors import ExecutionModeError, OptionsError
from repro.obs import RecordingTracer
from repro.options import DEFAULT_OPTIONS, QueryOptions, QueryRequest
from repro.sites import university
from repro.sitegen import UniversityConfig
from repro.web.cache import CachePolicy, NO_CACHE
from repro.web.client import FetchConfig, RetryPolicy

SQL = "SELECT PName, Rank FROM Professor WHERE Rank = 'Full'"


class TestValidation:
    def test_defaults_are_staged_and_empty(self):
        opts = QueryOptions()
        assert opts.execution == "staged"
        assert opts.cache is None and opts.fetch is None
        assert opts is not DEFAULT_OPTIONS  # equal, not identical
        assert opts == DEFAULT_OPTIONS

    def test_execution_spelling_is_canonicalized(self):
        assert QueryOptions(execution=" Pipelined ").execution == "pipelined"

    def test_unknown_execution_mode_raises(self):
        with pytest.raises(ExecutionModeError):
            QueryOptions(execution="warp")

    def test_cache_name_coerces_to_policy(self):
        assert QueryOptions(cache="off").cache is CachePolicy.OFF
        assert (
            QueryOptions(cache="cross_query").cache
            is CachePolicy.CROSS_QUERY
        )

    def test_bad_cache_name_raises_options_error(self):
        with pytest.raises(OptionsError):
            QueryOptions(cache="sideways")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fetch": 8},
            {"retry": 3},
            {"pipeline": {"chunk_size": 4}},
            {"cache": 1.5},
        ],
    )
    def test_typed_fields_are_checked(self, kwargs):
        with pytest.raises(OptionsError):
            QueryOptions(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            QueryOptions().execution = "pipelined"

    def test_with_cache_returns_new_bundle(self):
        base = QueryOptions(execution="pipelined")
        derived = base.with_cache(NO_CACHE)
        assert derived.cache is NO_CACHE
        assert derived.execution == "pipelined"
        assert base.cache is None


class TestQueryRequest:
    def test_needs_query_or_plan(self):
        with pytest.raises(OptionsError):
            QueryRequest()

    def test_tenant_must_be_nonempty(self):
        with pytest.raises(OptionsError):
            QueryRequest(query=SQL, tenant="")

    def test_options_type_checked(self):
        with pytest.raises(OptionsError):
            QueryRequest(query=SQL, options={"cache": "off"})


#: One sample value for each keyword argument the pre-bundle entry
#: points took, now a field of QueryOptions.
REMOVED_KEYWORDS = {
    "fetch_config": FetchConfig(max_workers=2),
    "retry_policy": RetryPolicy(max_attempts=2),
    "cache": NO_CACHE,
    "tracer": RecordingTracer(),
    "execution": "staged",
    "pipeline": PipelineConfig(),
}


class TestRemovedKeywords:
    @pytest.mark.parametrize("keyword", sorted(REMOVED_KEYWORDS))
    @pytest.mark.parametrize(
        "entry_point", ["query", "execute", "explain", "executor.execute"]
    )
    def test_entry_point_rejects_removed_keyword(
        self, uni_env, entry_point, keyword
    ):
        kwargs = {keyword: REMOVED_KEYWORDS[keyword]}
        with pytest.raises(TypeError):
            if entry_point == "query":
                uni_env.query(SQL, **kwargs)
            elif entry_point == "execute":
                uni_env.execute(uni_env.plan(SQL).best.expr, **kwargs)
            elif entry_point == "explain":
                uni_env.explain(SQL, **kwargs)
            else:
                uni_env.executor.execute(uni_env.plan(SQL).best.expr, **kwargs)

    @pytest.mark.parametrize("entry_point", ["query", "executor.execute"])
    def test_options_type_checked(self, uni_env, entry_point):
        with pytest.raises(OptionsError):
            if entry_point == "query":
                uni_env.query(SQL, options={"cache": "off"})
            else:
                uni_env.executor.execute(
                    uni_env.plan(SQL).best.expr, options={"cache": "off"}
                )

    def test_mixing_forms_raises(self, uni_env):
        with pytest.raises(TypeError):
            uni_env.query(
                SQL,
                options=QueryOptions(),
                fetch_config=FetchConfig(max_workers=2),
            )

    def test_options_path_does_not_warn(self, uni_env):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            uni_env.query(
                SQL, options=QueryOptions(fetch=FetchConfig(max_workers=2))
            )


class TestMaterializedOptions:
    def test_network_fields_rejected(self):
        from repro.materialized.store import MaterializedStore
        from repro.materialized.evaluate import MaterializedEngine

        env = university(UniversityConfig(n_depts=2, n_profs=6, n_courses=12))
        store = MaterializedStore(env.scheme, env.client, env.registry)
        store.populate()
        engine = MaterializedEngine(store, planner=env.planner)
        plan = env.plan(SQL).best.expr
        with pytest.raises(OptionsError):
            engine.execute(
                plan, options=QueryOptions(fetch=FetchConfig(max_workers=2))
            )
        # tracer-only bundles apply cleanly
        engine.execute(plan, options=QueryOptions(tracer=RecordingTracer()))
