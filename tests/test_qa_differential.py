"""The differential oracle over the seed sites and fuzzed sites.

These are the conformance harness's own end-to-end tests: the full QA
matrix must come back violation-free on all three hand-written sites
(with the paper's Examples 7.1 / 7.2 as named cases) and on a family of
fuzzed sites, where the fuzzer's model-derived expected answers
additionally ground the oracle's baseline in an engine-independent truth.
"""

from __future__ import annotations

import pytest

from repro.options import QueryOptions
from repro.qa import Cell, DifferentialOracle, MatrixSpec, relation_digest
from repro.qa.cli import (
    BIBLIOGRAPHY_QUERIES,
    MOVIE_QUERIES,
    UNIVERSITY_QUERIES,
    build_oracle,
    main,
)
from repro.sites import fuzzed
from repro.web.client import FetchConfig

FUZZ_SEEDS = (1, 2, 3, 4, 5)

#: Trimmed matrix for per-test speed: every cache mode, both fault
#: regimes that exercise retries, serial + pooled.
FAST_SPEC = MatrixSpec(
    fault_modes=("none", "exhausted"),
    worker_counts=(1, 3),
    max_plans=6,
)


def assert_conforms(oracle: DifferentialOracle, min_cells: int = 30):
    report = oracle.run()
    assert report.cells_run >= min_cells
    assert report.ok, "\n".join(report.violations[:10])
    return report


class TestSeedSites:
    def test_university_matrix_conforms(self):
        report = assert_conforms(
            build_oracle("university", seed=5, spec=FAST_SPEC)
        )
        # the paper's examples ride along as named cases
        assert "ex71" in report.queries and "ex72" in report.queries

    def test_bibliography_matrix_conforms(self):
        assert_conforms(build_oracle("bibliography", seed=5, spec=FAST_SPEC))

    def test_movies_matrix_conforms(self):
        assert_conforms(build_oracle("movies", seed=5, spec=FAST_SPEC))

    def test_examples_have_plan_variety(self):
        """Examples 7.1 / 7.2 are interesting *because* their plan spaces
        fan out; a collapsed space would silently gut the oracle."""
        oracle = build_oracle("university", seed=0)
        assert len(oracle.plans("ex71")) >= 2
        assert len(oracle.plans("ex72")) >= 2

    def test_transient_shard_conforms(self):
        """One shard of the retry-absorbing schedule (full transient
        coverage runs in the CI qa-matrix job)."""
        oracle = build_oracle(
            "movies",
            seed=7,
            spec=MatrixSpec(fault_modes=("transient",), worker_counts=(4,)),
        )
        report = oracle.run(shard_index=0, shard_count=3)
        assert report.ok, "\n".join(report.violations[:10])


class TestFuzzedSites:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fuzzed_matrix_conforms(self, seed):
        env = fuzzed(seed)
        oracle = DifferentialOracle(
            env,
            env.site.queries(),
            site_name=f"fuzz:{seed}",
            seed=seed,
            spec=FAST_SPEC,
        )
        assert_conforms(oracle)

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_baseline_matches_model_truth(self, seed):
        """The oracle's baseline is plan 0's answer; the fuzzer can compute
        the same answer straight from its model — so a bug that breaks
        *every* plan identically still gets caught here."""
        env = fuzzed(seed)
        site = env.site
        for query_id, sql in site.queries().items():
            expected = site.expected_for(query_id)
            if expected is None or query_id == "q_join3":
                continue
            result = env.execute(
                env.plan(sql).best.expr, options=QueryOptions(cache="off")
            )
            names = [n for n, _ in _head_columns(env, sql)]
            got = {tuple(row[n] for n in names) for row in result.relation}
            assert got == expected, f"{query_id} diverged from the model"


def _head_columns(env, sql):
    query = env.sql(sql)
    return list(query.head)


class TestCellReproduction:
    def test_cell_id_roundtrip(self):
        cell = Cell("q", 3, "cross_query_warm", "transient", 4)
        assert Cell.parse(cell.cell_id) == cell

    def test_staged_cell_ids_stay_five_part(self):
        """Pre-pipeline cell ids must remain valid verbatim: staged cells
        never grow the exec component."""
        cell = Cell("q", 0, "off", "none", 1, exec_mode="staged")
        assert cell.cell_id == "q/p0/off/none/w1"
        assert Cell.parse("q/p0/off/none/w1") == cell

    def test_pipelined_cell_ids_roundtrip(self):
        cell = Cell("q", 2, "per_query", "transient", 4, exec_mode="pipelined")
        assert cell.cell_id == "q/p2/per_query/transient/w4/pipelined"
        assert Cell.parse(cell.cell_id) == cell

    def test_bad_cell_ids_rejected(self):
        for bad in (
            "q/3/off/none/w1",
            "q/p3/off/none",
            "q/p3/off/none/4",
            "q/p3/off/none/w1/warp",  # unknown exec mode
            "q/p3/off/none/w1/pipelined/extra",
        ):
            with pytest.raises(ValueError):
                Cell.parse(bad)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_cli_rejects_max_plans_below_one(self, value, capsys):
        """``--max-plans 0`` would run the full plan space: refused."""
        with pytest.raises(SystemExit) as exited:
            main(["--site", "university", "--max-plans", value, "--list-cells"])
        assert exited.value.code == 2
        assert "--max-plans: must be at least 1" in capsys.readouterr().err

    def test_spec_rejects_unknown_exec_mode(self):
        with pytest.raises(ValueError):
            MatrixSpec(exec_modes=("staged", "warp"))

    def test_pipelined_cells_match_their_staged_siblings(self):
        """The matrix's exec dimension enforces non-speculation cell by
        cell: every pipelined cell answers its staged sibling's digest
        from its staged sibling's page count."""
        oracle = build_oracle(
            "movies",
            seed=7,
            spec=MatrixSpec(
                cache_modes=("off", "per_query"),
                fault_modes=("none",),
                worker_counts=(4,),
                max_plans=3,
            ),
        )
        report = oracle.run()
        assert report.ok, "\n".join(report.violations[:5])
        staged = {
            record.cell_id: record
            for record in report.cells
            if not record.cell_id.endswith("/pipelined")
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

    def test_single_cell_matches_matrix_run(self):
        """Running a cell by id reproduces the matrix run's record."""
        oracle = build_oracle(
            "movies",
            seed=7,
            spec=MatrixSpec(
                cache_modes=("off", "cross_query_warm"),
                fault_modes=("none",),
                worker_counts=(1,),
                max_plans=2,
            ),
        )
        report = oracle.run()
        assert report.ok, "\n".join(report.violations[:5])
        fresh = build_oracle(
            "movies", seed=7, spec=oracle.spec
        )
        for record in report.cells[:6]:
            again = fresh.run_cell(record.cell_id)
            assert again.ok
            assert again.relation_digest == record.relation_digest
            assert again.pages == record.pages
            assert again.pages_saved == record.pages_saved


class TestDigest:
    def test_digest_ignores_row_order(self, small_env):
        plan = small_env.plan("SELECT PName, Rank FROM Professor").best
        off = QueryOptions(cache="off")
        a = small_env.execute(plan.expr, options=off).relation
        b = small_env.execute(plan.expr, options=off).relation
        b.rows.reverse()
        assert relation_digest(a) == relation_digest(b)

    def test_digest_detects_content_change(self, small_env):
        plan = small_env.plan("SELECT PName, Rank FROM Professor").best
        off = QueryOptions(cache="off")
        a = small_env.execute(plan.expr, options=off).relation
        b = small_env.execute(plan.expr, options=off).relation
        b.rows[0] = dict(b.rows[0], PName="Nobody")
        assert relation_digest(a) != relation_digest(b)


class TestSuites:
    def test_default_suites_are_nontrivial(self):
        assert len(UNIVERSITY_QUERIES) >= 5
        assert len(BIBLIOGRAPHY_QUERIES) >= 2
        assert len(MOVIE_QUERIES) >= 5

    def test_movies_full_matrix_has_enough_cells(self):
        """The acceptance bar: the movies suite alone spans >= 200 cells."""
        oracle = build_oracle("movies", seed=7)
        assert len(oracle.cells()) >= 200

    def test_workers_never_change_page_counts(self):
        """Concurrency transparency, directly: the same plan at k=1 and
        k=8 downloads identical page sets."""
        oracle = build_oracle("movies", seed=0)
        env = oracle.env
        plan = oracle.plans("md_join")[0]
        runs = []
        for k in (1, 8):
            before = env.client.log.snapshot()
            result = env.execute(
                plan.expr,
                options=QueryOptions(
                    fetch=FetchConfig(max_workers=k), cache="off"
                ),
            )
            delta = env.client.log.delta(before)
            runs.append((relation_digest(result.relation),
                         sorted(delta.downloaded_urls)))
        assert runs[0] == runs[1]


class TestReportArtifacts:
    def _small_report(self, trace="off"):
        spec = MatrixSpec(
            cache_modes=("off",),
            fault_modes=("none",),
            worker_counts=(1,),
            max_plans=2,
            trace=trace,
        )
        return build_oracle("movies", seed=7, spec=spec).run()

    def test_write_emits_compact_summary(self, tmp_path):
        from repro.qa.report import ConformanceReport, summary_path

        report = self._small_report()
        out = str(tmp_path / "QA-test.json")
        report.write(out)
        summary = summary_path(out)
        assert summary.endswith("QA-test-summary.json")
        import json
        import os

        document = json.loads(open(summary).read())
        assert document["cells_run"] == report.cells_run
        assert document["ok"] is True
        assert document["violation_count"] == 0
        assert document["digest"] == report.digest()
        # the summary stays tiny next to the full report
        assert os.path.getsize(summary) < os.path.getsize(out)
        # and the full report still round-trips, new fields included
        loaded = ConformanceReport.load(out)
        assert loaded.digest() == report.digest()

    def test_digest_stable_across_identical_runs(self):
        assert self._small_report().digest() == self._small_report().digest()

    def test_trace_dimension_validated(self):
        with pytest.raises(ValueError):
            MatrixSpec(trace="bogus")

    def test_traced_cells_round_trip(self, tmp_path):
        from repro.qa.report import ConformanceReport

        report = self._small_report(trace="recording")
        assert all(c.trace_spans for c in report.cells)
        out = str(tmp_path / "QA-traced.json")
        report.write(out)
        loaded = ConformanceReport.load(out)
        assert [c.trace_spans for c in loaded.cells] == [
            c.trace_spans for c in report.cells
        ]
