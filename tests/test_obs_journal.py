"""The event journal: schema, roundtrip, losslessness, neutrality.

The flight-recorder guarantee under test: for every query and every
candidate plan on two sites, a journaled run's EXPLAIN ANALYZE tree and
Chrome-trace export can be reconstructed *from the journal alone* —
byte-identical to the live rendering — after a write/load roundtrip.
And attaching a journal changes nothing: the QA matrix digest with the
journal dimension on equals the journal-off digest.
"""

from __future__ import annotations

import pytest

from repro.errors import JournalError, OptionsError
from repro.obs import RecordingTracer, spans_by_node
from repro.obs.explain import render_annotated_tree
from repro.obs.export import chrome_trace_events
from repro.obs.journal import (
    Journal,
    JournalEvent,
    NULL_JOURNAL,
    reconstruct_trace,
    replay,
)
from repro.options import QueryOptions
from repro.qa.cli import build_site
from repro.qa.oracle import MatrixSpec
from repro.sites import movies

pytestmark = pytest.mark.usefixtures("isolated_metrics")

SITES = ["movies", "fuzz:17"]


class TestEventSchema:
    def test_event_roundtrips_through_dict(self):
        event = JournalEvent(
            kind="fetch",
            request_id="r0001",
            seq=3,
            ts=1.5,
            attrs={"url": "u", "lane": 0},
        )
        clone = JournalEvent.from_dict(event.to_dict())
        assert clone == event

    def test_from_dict_requires_kind_and_request(self):
        with pytest.raises(JournalError):
            JournalEvent.from_dict({"seq": 0, "ts": 0.0})

    def test_non_json_safe_attrs_are_dropped(self):
        journal = Journal()
        rid = journal.begin_request(obj=object(), ok=1, none=None)
        (event,) = journal.events_for(rid)
        assert event.attrs == {"ok": 1, "none": None}

    def test_begin_request_allocates_and_is_idempotent(self):
        journal = Journal()
        rid = journal.begin_request()
        assert rid == "r0001"
        assert journal.begin_request(rid) == rid
        assert len(journal.events_for(rid)) == 1  # no attrs: no new event
        journal.begin_request(rid, tenant="t")  # follow-up annotation
        assert len(journal.events_for(rid)) == 2
        assert journal.request_attrs(rid)["tenant"] == "t"

    def test_defaults_merge_on_first_registration(self):
        journal = Journal(defaults={"site": "movies"})
        rid = journal.begin_request(query="q")
        assert journal.request_attrs(rid) == {"site": "movies", "query": "q"}

    def test_seq_is_per_request_monotone(self):
        journal = Journal()
        a = journal.begin_request()
        b = journal.begin_request()
        journal.record("plan", a, plan="x")
        journal.record("plan", b, plan="y")
        assert [e.seq for e in journal.events_for(a)] == [0, 1]
        assert [e.seq for e in journal.events_for(b)] == [0, 1]

    def test_record_for_unknown_request_fails_validation(self):
        journal = Journal()
        journal.record("plan", "ghost", plan="x")
        assert any("ghost" in problem for problem in journal.validate())

    def test_null_journal_is_disabled_and_inert(self):
        assert NULL_JOURNAL.enabled is False
        assert NULL_JOURNAL.begin_request("x") == "x"
        NULL_JOURNAL.record("plan", "x", plan="p")
        assert len(NULL_JOURNAL) == 0


class TestPersistence:
    def test_write_load_roundtrip(self, tmp_path):
        journal = Journal()
        rid = journal.begin_request(site="movies", query="q")
        journal.record("plan", rid, plan="π ...", execution="staged")
        path = str(tmp_path / "j.jsonl")
        count = journal.write(path)
        assert count == len(journal) == 2
        loaded = Journal.load(path)
        assert list(loaded.to_lines()) == list(journal.to_lines())
        assert loaded.request_ids() == journal.request_ids()
        # allocation continues past loaded ids
        assert loaded.begin_request() == "r0002"

    def test_lines_ordered_by_request_then_seq(self):
        journal = Journal()
        a = journal.begin_request()
        b = journal.begin_request()
        journal.record("result", b, rows=1)
        journal.record("result", a, rows=2)
        kinds = [
            (event.request_id, event.seq)
            for event in map(
                lambda line: JournalEvent.from_dict(__import__("json").loads(line)),
                journal.to_lines(),
            )
        ]
        assert kinds == sorted(kinds)


class TestOptionsIntegration:
    def test_options_validate_journal_type(self):
        with pytest.raises(OptionsError):
            QueryOptions(journal="yes").validate()


def _journaled_run(env, expr):
    """One cache-off execution with tracer + journal attached."""
    tracer = RecordingTracer()
    journal = Journal()
    result = env.execute(
        expr, options=QueryOptions(cache="off", tracer=tracer, journal=journal)
    )
    return result, tracer, journal


class TestReplayLossless:
    @pytest.mark.parametrize("site", SITES)
    def test_every_candidate_plan_replays_identically(self, site, tmp_path):
        env, queries = build_site(site)
        checked = 0
        for name, sql in sorted(queries.items()):
            for candidate in env.enumerate_plans(sql):
                result, _, journal = _journaled_run(env, candidate.expr)
                (rid,) = journal.request_ids()

                # roundtrip through disk: the reconstruction must not
                # depend on anything in process memory
                path = str(tmp_path / f"{site.replace(':', '')}-{checked}.jsonl")
                journal.write(path)
                loaded = Journal.load(path)
                assert loaded.validate() == []
                root = reconstruct_trace(loaded, rid)

                live_spans = spans_by_node(result.trace)
                replayed_spans = spans_by_node(root)
                live_explain = render_annotated_tree(
                    candidate.expr,
                    env.cost_model,
                    scheme=env.scheme,
                    spans=live_spans,
                )
                replayed_explain = render_annotated_tree(
                    candidate.expr,
                    env.cost_model,
                    scheme=env.scheme,
                    spans=replayed_spans,
                )
                assert replayed_explain == live_explain
                assert chrome_trace_events(root) == chrome_trace_events(result.trace)
                checked += 1
        assert checked > 0

    def test_result_event_carries_the_run(self):
        env = movies()
        sql = "SELECT Title, Year, Genre FROM Movie"
        expr = env.plan(sql, cache="off").best.expr
        result, _, journal = _journaled_run(env, expr)
        (rid,) = journal.request_ids()
        (event,) = [e for e in journal.events_for(rid) if e.kind == "result"]
        assert event.attrs["pages"] == result.pages
        assert event.attrs["rows"] == len(result.relation.rows)

    def test_replay_page_sum_matches_result_pages(self, tmp_path):
        env, queries = build_site("movies")
        expr = env.plan(queries["md_join"], cache="off").best.expr
        result, _, journal = _journaled_run(env, expr)
        (rid,) = journal.request_ids()
        journal.begin_request(rid, site="movies", query=queries["md_join"])
        path = str(tmp_path / "replay.jsonl")
        journal.write(path)
        replayed = replay(Journal.load(path), rid, env=env)
        assert replayed.page_sum == result.pages
        assert replayed.result["pages"] == result.pages
        assert "measured:" in replayed.explain

    def test_replay_without_site_or_query_raises(self):
        journal = Journal()
        rid = journal.begin_request()
        with pytest.raises(JournalError):
            replay(journal, rid)

    def test_reconstruct_without_spans_raises(self):
        journal = Journal()
        rid = journal.begin_request()
        with pytest.raises(JournalError):
            reconstruct_trace(journal, rid)


class TestJournalNeutrality:
    def _report(self, journal="off"):
        from repro.qa.cli import build_oracle

        spec = MatrixSpec(
            cache_modes=("off", "cross_query_warm"),
            fault_modes=("none",),
            worker_counts=(1, 4),
            max_plans=2,
            journal=journal,
        )
        return build_oracle("movies", seed=7, spec=spec).run()

    def test_journal_dimension_is_digest_neutral(self):
        # same answers, same pages, same cache counters, cell for cell
        assert self._report("off").digest() == self._report("on").digest()

    def test_journal_dimension_validated(self):
        with pytest.raises(ValueError):
            MatrixSpec(journal="bogus")

    def test_oracle_exposes_the_last_journal(self):
        from repro.qa.cli import build_oracle

        spec = MatrixSpec(
            cache_modes=("off",),
            fault_modes=("none",),
            worker_counts=(1,),
            max_plans=1,
            journal="on",
        )
        oracle = build_oracle("movies", seed=7, spec=spec)
        oracle.run()
        journal = oracle.last_journal
        assert journal is not None
        assert journal.validate() == []
        (rid,) = journal.request_ids()
        assert journal.request_attrs(rid)["site"] == "movies"
