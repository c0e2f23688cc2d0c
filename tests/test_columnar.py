"""The one executor core: batch kernels, plan compilation, and the core
held bit-for-bit to the row-at-a-time reference (tests/engine_reference.py).

Three layers of evidence, coarsest last:

* kernel unit tests pin each whole-column operator against hand-computed
  outputs (including the null-key, dangling-link, and empty-list edges
  the row operators define the semantics for);
* compilation tests pin the preorder ``node_id`` numbering every
  executor and the EXPLAIN ANALYZE renderer share, and that a plan is
  compiled once per (plan, scheme);
* differential tests run the core and the reference over the seed sites
  and fuzzed sites, across cache modes, faults, worker counts and
  chunking, asserting the same digest, row order, pages, cache counters,
  span ``node_id``\\ s and per-operator page sums — and pin the 6-part QA
  cell ids of the remaining modes.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adm.webtypes import TEXT, ListType
from repro.engine import remote
from repro.engine.columnar import (
    ColumnBatch,
    distinct_links,
    first_occurrences,
    follow_batch,
    join_batches,
    product_batches,
    unnest_batch,
)
from repro.engine.compile import compile_plan
from repro.engine.local import LocalExecutor
from repro.engine.pipeline import PipelineConfig
from repro.engine.remote import _SessionProvider
from repro.engine.session import QuerySession
from repro.nested.schema import Field, RelationSchema
from repro.obs.trace import RecordingTracer, spans_by_node
from repro.options import QueryOptions
from repro.qa import Cell, DifferentialOracle, MatrixSpec, relation_digest
from repro.qa.cli import build_oracle, build_site
from repro.sites import fuzzed, university
from repro.web.cache import CachePolicy, PageCache
from repro.web.client import FetchConfig, RetryPolicy
from repro.web.server import FaultPolicy
from tests.engine_reference import ReferenceExecutor

#: the columnar core under each schedule: test id → execution mode
CORE_RUNS = {"columnar": "staged", "columnar_pipelined": "pipelined"}

CHASE_SQL = (
    "SELECT Professor.PName, email FROM Course, CourseInstructor, "
    "Professor, ProfDept WHERE Course.CName = CourseInstructor.CName "
    "AND CourseInstructor.PName = Professor.PName "
    "AND Professor.PName = ProfDept.PName "
    "AND ProfDept.DName = 'Computer Science' AND Type = 'Graduate'"
)


def schema(*names: str) -> RelationSchema:
    return RelationSchema([Field(name, TEXT) for name in names])


@contextmanager
def reference_core():
    """Route ``RemoteExecutor``'s staged path through the row reference:
    same session, cache, faults, meter and tracer as the core gets."""
    with mock.patch.object(remote, "LocalExecutor", ReferenceExecutor):
        yield


# --------------------------------------------------------------------- #
# the batch container
# --------------------------------------------------------------------- #


class TestColumnBatch:
    def test_row_roundtrip(self):
        s = schema("a", "b")
        rows = [{"a": "1", "b": "x"}, {"a": "2", "b": None}]
        batch = ColumnBatch.from_rows(s, rows)
        assert batch.columns == [["1", "2"], ["x", None]]
        assert batch.num_rows == 2
        assert batch.to_rows() == rows

    def test_from_tuples_and_empty(self):
        s = schema("a", "b")
        batch = ColumnBatch.from_tuples(s, [("1", "x"), ("2", "y")])
        assert batch.to_rows() == [
            {"a": "1", "b": "x"},
            {"a": "2", "b": "y"},
        ]
        empty = ColumnBatch.from_tuples(s, [])
        assert empty.num_rows == 0
        assert empty.to_rows() == []
        assert len(empty.columns) == 2

    def test_gather_slice_concat(self):
        s = schema("a")
        batch = ColumnBatch.from_rows(s, [{"a": v} for v in "wxyz"])
        assert batch.gather([3, 0]).columns == [["z", "w"]]
        assert batch.slice(1, 3).columns == [["x", "y"]]
        joined = ColumnBatch.concat(
            s, [batch.slice(0, 2), batch.slice(2, 4)]
        )
        assert joined.columns == batch.columns
        assert len(batch) == 4


# --------------------------------------------------------------------- #
# kernels
# --------------------------------------------------------------------- #


class TestKernels:
    def test_distinct_links_skips_nulls_keeps_order(self):
        assert distinct_links(["u2", None, "u1", "u2", "u1"]) == ["u2", "u1"]

    def test_first_occurrences_shares_seen_across_calls(self):
        seen: set = set()
        assert first_occurrences(["a", "b", "a"], seen) == [0, 1]
        # a second chunk must not resurrect already-emitted keys
        assert first_occurrences(["b", "c"], seen) == [1]

    def test_unnest_repeats_kept_and_drops_empty(self):
        elem = RelationSchema([Field("E", TEXT)])
        s = RelationSchema(
            [
                Field("K", TEXT),
                Field("L", ListType((("E", TEXT),)), elem=elem),
            ]
        )
        out_schema = s.unnest("L")
        batch = ColumnBatch.from_rows(
            s,
            [
                {"K": "k1", "L": [{"E": "e1"}, {"E": "e2"}]},
                {"K": "k2", "L": []},  # empty list: row disappears
                {"K": "k3", "L": [{"E": "e3"}]},
            ],
        )
        out = unnest_batch(batch, 1, ("E",), out_schema)
        assert out.to_rows() == [
            {"K": "k1", "E": "e1"},
            {"K": "k1", "E": "e2"},
            {"K": "k3", "E": "e3"},
        ]

    def test_join_null_keys_never_match(self):
        left = ColumnBatch.from_rows(
            schema("a", "x"),
            [{"a": "1", "x": "l1"}, {"a": None, "x": "l2"},
             {"a": "2", "x": "l3"}],
        )
        right = ColumnBatch.from_rows(
            schema("b", "y"),
            [{"b": "2", "y": "r1"}, {"b": None, "y": "r2"},
             {"b": "1", "y": "r3"}, {"b": "1", "y": "r4"}],
        )
        out = join_batches(
            left, right, (0, 0), (), schema("a", "x", "b", "y")
        )
        # left order, then right bucket order
        assert out.to_rows() == [
            {"a": "1", "x": "l1", "b": "1", "y": "r3"},
            {"a": "1", "x": "l1", "b": "1", "y": "r4"},
            {"a": "2", "x": "l3", "b": "2", "y": "r1"},
        ]

    def test_join_rest_pairs_filter(self):
        left = ColumnBatch.from_rows(
            schema("a", "c"),
            [{"a": "1", "c": "m"}, {"a": "1", "c": None}],
        )
        right = ColumnBatch.from_rows(
            schema("b", "d"),
            [{"b": "1", "d": "m"}, {"b": "1", "d": "n"}],
        )
        out = join_batches(
            left, right, (0, 0), ((1, 1),), schema("a", "c", "b", "d")
        )
        # the None on the rest pair filters both of its candidates
        assert out.to_rows() == [
            {"a": "1", "c": "m", "b": "1", "d": "m"},
        ]

    def test_product_is_left_major(self):
        left = ColumnBatch.from_rows(schema("a"), [{"a": "1"}, {"a": "2"}])
        right = ColumnBatch.from_rows(schema("b"), [{"b": "x"}, {"b": "y"}])
        out = product_batches(left, right, schema("a", "b"))
        assert out.to_rows() == [
            {"a": "1", "b": "x"},
            {"a": "1", "b": "y"},
            {"a": "2", "b": "x"},
            {"a": "2", "b": "y"},
        ]

    def test_follow_drops_null_and_dangling(self):
        s = schema("u", "k")
        out_schema = schema("u", "k", "t")
        batch = ColumnBatch.from_rows(
            s,
            [
                {"u": "u1", "k": "a"},
                {"u": None, "k": "b"},    # null link
                {"u": "u9", "k": "c"},    # dangling: not in targets
                {"u": "u2", "k": "d"},
            ],
        )
        out = follow_batch(batch, 0, {"u1": ("t1",), "u2": ("t2",)}, out_schema)
        assert out.to_rows() == [
            {"u": "u1", "k": "a", "t": "t1"},
            {"u": "u2", "k": "d", "t": "t2"},
        ]


# --------------------------------------------------------------------- #
# compilation
# --------------------------------------------------------------------- #


class TestCompilation:
    def test_preorder_ids_match_report_order(self):
        """node_id must equal the node's position in plan_report's walk —
        that positional agreement is the whole span-pairing contract."""
        from repro.obs.explain import plan_report

        env = university()
        plan = env.plan(CHASE_SQL).best.expr
        compiled = compile_plan(plan, env.scheme)
        nodes = list(compiled.root.walk())
        assert [n.node_id for n in nodes] == list(range(compiled.node_count))
        reports = plan_report(plan, env.cost_model, scheme=env.scheme)
        assert len(reports) == compiled.node_count
        for report, node in zip(reports, nodes):
            assert report.node is node.expr

    def test_compiles_once_per_plan_and_scheme(self):
        """A plan is compiled once per (plan, scheme object): compiling it
        again gives the same plan, another scheme its own, and nothing is
        kept on the scheme."""
        env, other = university(), university()
        plan = env.plan(CHASE_SQL).best.expr
        first = compile_plan(plan, env.scheme)
        assert compile_plan(plan, env.scheme) is first
        assert compile_plan(plan, other.scheme) is not first
        assert not any("compiled" in name for name in vars(env.scheme))

    def test_executor_matches_interpreter_on_every_plan(self):
        """Every candidate: the core's answer is the reference's, row for
        row and in the same order."""
        env = university()
        for cand in env.enumerate_plans(CHASE_SQL):
            def run(cls):
                session = QuerySession(env.client, env.registry)
                provider = _SessionProvider(env.scheme, session)
                return cls(env.scheme, provider).evaluate(cand.expr)

            core, reference = run(LocalExecutor), run(ReferenceExecutor)
            assert core.schema == reference.schema
            assert core.rows == reference.rows


# --------------------------------------------------------------------- #
# operator spans: stable preorder identity
# --------------------------------------------------------------------- #


class TestSpanIdentity:
    @pytest.mark.parametrize("execution", ["staged", "adaptive"])
    def test_span_node_ids_are_preorder(self, execution):
        env = university()
        tracer = RecordingTracer()
        result = env.query(
            CHASE_SQL,
            options=QueryOptions(execution=execution, tracer=tracer),
        )
        spans = spans_by_node(tracer)
        count = len(tracer.spans(kind="operator"))
        assert count > 0
        # ids are exactly 0..n-1: no Python-id collisions possible
        assert sorted(spans) == list(range(count))
        # and the own-pages invariant survives the renumbering
        root = spans[0]
        assert root.attrs["pages"] == result.pages

    def test_both_executors_stamp_identical_ids(self):
        t_reference, t_core = RecordingTracer(), RecordingTracer()
        with reference_core():
            university().query(
                CHASE_SQL, options=QueryOptions(tracer=t_reference)
            )
        university().query(CHASE_SQL, options=QueryOptions(tracer=t_core))
        reference = spans_by_node(t_reference)
        core = spans_by_node(t_core)
        assert sorted(reference) == sorted(core)
        for node_id, span in reference.items():
            twin = core[node_id]
            assert twin.name == span.name
            assert twin.attrs["op"] == span.attrs["op"]
            assert twin.attrs["pages"] == span.attrs["pages"]
            assert twin.attrs["tuples_out"] == span.attrs["tuples_out"]


# --------------------------------------------------------------------- #
# differential equivalence with the row reference
# --------------------------------------------------------------------- #


def assert_same_work(reference, other):
    assert other.pages == reference.pages
    assert other.log.attempts == reference.log.attempts
    assert other.log.cache_hits == reference.log.cache_hits
    assert other.log.revalidations == reference.log.revalidations
    assert sorted(other.log.downloaded_urls) == sorted(
        reference.log.downloaded_urls
    )
    assert relation_digest(other.relation) == relation_digest(
        reference.relation
    )


def operator_costs(tracer) -> dict:
    """Per plan node: what its span measured, own pages included."""
    out = {}
    for node_id, span in spans_by_node(tracer).items():
        own = span.attrs["pages"] - sum(
            c.attrs["pages"] for c in span.children if c.kind == "operator"
        )
        out[node_id] = (
            span.name,
            span.attrs["op"],
            span.attrs["tuples_out"],
            span.attrs["pages"],
            span.attrs["light_connections"],
            span.attrs["cache_hits"],
            span.attrs["revalidations"],
            own,
        )
    return out


def run_twice(make_env, plan_index, sql, cache_mode, faults, workers):
    """The same plan on two identical environments, row reference first,
    then the core: ``(reference, core)`` results and operator costs."""
    runs = []
    for context in (reference_core, nullcontext):
        env = make_env()
        plan = env.enumerate_plans(sql)[plan_index].expr
        cache = PageCache(policy=CachePolicy.CROSS_QUERY)
        tracer = RecordingTracer()
        options = QueryOptions(
            cache=cache if cache_mode == "cross_query_warm" else "off",
            fetch=FetchConfig(max_workers=workers),
            retry=RetryPolicy(max_attempts=8, backoff_seconds=0.01),
            tracer=tracer,
        )
        with context():
            if cache_mode == "cross_query_warm":
                env.execute(plan, options=QueryOptions(cache=cache))
            if faults:
                env.site.server.fault_policy = FaultPolicy(
                    failure_rate=0.25, seed=7
                )
            result = env.execute(plan, options=options)
        runs.append((result, operator_costs(tracer)))
    return runs


def suite(site: str):
    """A QA site and its query suite; ``paper`` is the paper's university
    with Example 7.2, whose projection has duplicates to eliminate."""
    if site == "paper":
        return university(), {"ex72": CHASE_SQL}
    return build_site(site)


class TestCoreMatchesReference:
    """The core against the row reference through the real staged path:
    digest, row order, pages, cache counters, span ids and per-operator
    page sums, over every candidate plan."""

    @pytest.mark.parametrize(
        "site",
        ["university", "bibliography", "movies", "fuzz:17", "fuzz:42", "paper"],
    )
    @pytest.mark.parametrize(
        "cache_mode,faults,workers",
        [("off", False, 1), ("off", True, 3), ("cross_query_warm", True, 3)],
    )
    def test_every_plan(self, site, cache_mode, faults, workers):
        env, queries = suite(site)
        for sql in queries.values():
            for index in range(len(env.enumerate_plans(sql))):
                (reference, ref_ops), (core, core_ops) = run_twice(
                    lambda: suite(site)[0],
                    index, sql, cache_mode, faults, workers,
                )
                assert core.relation.rows == reference.relation.rows
                assert_same_work(reference, core)
                assert core.log.simulated_seconds == pytest.approx(
                    reference.log.simulated_seconds
                )
                assert core_ops == ref_ops


class TestCompiledModesMatchStaged:
    @pytest.mark.parametrize("site", ["university", "bibliography", "movies"])
    @pytest.mark.parametrize("mode", sorted(CORE_RUNS))
    def test_seed_site_suites(self, site, mode):
        """Each suite query under each schedule of the core answers the
        reference's digest from the reference's pages."""
        fetch = FetchConfig(max_workers=3)
        reference_env, queries = build_site(site)
        core_env, _ = build_site(site)
        for sql in queries.values():
            with reference_core():
                reference = reference_env.query(
                    sql, options=QueryOptions(fetch=fetch, cache="off")
                )
            core = core_env.query(
                sql,
                options=QueryOptions(
                    fetch=fetch, cache="off", execution=CORE_RUNS[mode]
                ),
            )
            assert_same_work(reference, core)

    def test_columnar_serial_is_bitforbit_staged(self):
        """At k=1 even simulated seconds must agree exactly (same fetch
        sequence, same serial accounting, no timeline)."""
        with reference_core():
            reference = university().query(CHASE_SQL)
        for execution in CORE_RUNS.values():
            core = university().query(
                CHASE_SQL, options=QueryOptions(execution=execution)
            )
            assert_same_work(reference, core)
            assert core.relation.rows == reference.relation.rows
            assert (
                core.log.simulated_seconds
                == reference.log.simulated_seconds
            )
            assert core.log.bytes_downloaded == reference.log.bytes_downloaded

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.sampled_from([17, 42]),
        query_index=st.integers(min_value=0, max_value=10),
        workers=st.sampled_from([1, 2, 5]),
        chunk=st.sampled_from([1, 4, 16]),
        execution=st.sampled_from(sorted(CORE_RUNS.values())),
        cache=st.sampled_from(["off", "per_query"]),
    )
    def test_fuzzed_sites_agree(
        self, seed, query_index, workers, chunk, execution, cache
    ):
        """Machine-generated shapes: the core answers every suite query
        from the reference's pages with the reference's cache counters."""
        reference_env, core_env, queries = _FUZZ[seed]
        _, sql = queries[query_index % len(queries)]
        fetch = FetchConfig(max_workers=workers)
        with reference_core():
            reference = reference_env.query(
                sql, options=QueryOptions(fetch=fetch, cache=cache)
            )
        core = core_env.query(
            sql,
            options=QueryOptions(
                fetch=fetch,
                cache=cache,
                execution=execution,
                pipeline=PipelineConfig(chunk_size=chunk),
            ),
        )
        assert core.fingerprint() == reference.fingerprint()
        assert_same_work(reference, core)


#: Environment pairs shared across hypothesis examples (page counts and
#: digests come from per-query delta logs, so sharing is sound).
_FUZZ = {
    seed: (fuzzed(seed), fuzzed(seed), tuple(fuzzed(seed).site.queries().items()))
    for seed in (17, 42)
}


# --------------------------------------------------------------------- #
# the QA matrix's exec cells
# --------------------------------------------------------------------- #


class TestQaCells:
    def test_columnar_cell_ids_roundtrip(self):
        """6-part ids round-trip for every non-staged mode; the compiled
        modes' ids no longer parse, the core being every mode's."""
        for mode in ("pipelined", "adaptive", "server"):
            cell = Cell("q", 2, "per_query", "none", 4, exec_mode=mode)
            assert cell.cell_id == f"q/p2/per_query/none/w4/{mode}"
            assert Cell.parse(cell.cell_id) == cell
        for mode in ("columnar", "columnar_pipelined"):
            with pytest.raises(ValueError, match="unknown exec mode"):
                Cell.parse(f"q/p1/cross_query_warm/transient/w4/{mode}")

    def test_columnar_cells_match_their_staged_siblings(self):
        """Every pipelined cell must answer its staged sibling's digest
        from its staged sibling's page count — cache modes, faults, and
        pool sizes included (the cache × fault × worker sweep)."""
        oracle = build_oracle(
            "movies",
            seed=7,
            spec=MatrixSpec(
                cache_modes=("off", "cross_query_warm"),
                fault_modes=("none", "transient"),
                worker_counts=(4,),
                exec_modes=("staged", "pipelined"),
                max_plans=3,
            ),
        )
        report = oracle.run()
        assert report.ok, "\n".join(report.violations[:5])
        staged = {
            record.cell_id: record
            for record in report.cells
            if record.cell_id.count("/") == 4  # 5-part = staged
        }
        pipelined = [
            record
            for record in report.cells
            if record.cell_id.endswith("/pipelined")
        ]
        assert pipelined, "matrix ran no pipelined cells"
        for record in pipelined:
            sibling = staged[record.cell_id[: -len("/pipelined")]]
            assert record.relation_digest == sibling.relation_digest
            assert record.pages == sibling.pages
            assert record.pages_saved == sibling.pages_saved

    @pytest.mark.parametrize("seed", [17, 42])
    def test_fuzzed_single_cells_reproduce(self, seed):
        """Running cells by their pinned 6-part ids reproduces the digests
        of the staged 5-part cells."""
        env = fuzzed(seed)
        oracle = DifferentialOracle(
            env,
            env.site.queries(),
            site_name=f"fuzz:{seed}",
            seed=seed,
            spec=MatrixSpec(
                cache_modes=("off",),
                fault_modes=("none",),
                worker_counts=(3,),
                max_plans=2,
            ),
        )
        query_id = next(iter(env.site.queries()))
        staged = oracle.run_cell(f"{query_id}/p0/off/none/w3")
        assert staged.ok
        for mode in ("pipelined", "adaptive"):
            record = oracle.run_cell(f"{query_id}/p0/off/none/w3/{mode}")
            assert record.ok
            assert record.relation_digest == staged.relation_digest
            assert record.pages == staged.pages
