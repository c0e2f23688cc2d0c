"""The QA matrix's adaptive execution dimension.

Adaptive cells keep the differential oracle's digest-equality law
verbatim; how each cost law relaxes for them is
``repro.qa.oracle.RELATIONS`` (``tests/test_qa_laws.py`` breaks every
row of ``LAWS``).  These tests run the matrix with the adaptive exec mode
enabled and re-assert the one-sided bound (``pages_adaptive ≤
pages_staged``) from the report's cell records.
"""

from __future__ import annotations

import pytest

from repro.qa import CACHE_MODES, Cell, DifferentialOracle, MatrixSpec
from repro.qa.cli import build_oracle
from repro.sites import fuzzed

FUZZ_SEEDS = (17, 42)

#: Trimmed matrix: both fault regimes that exercise retries, serial +
#: pooled, staged vs adaptive only (the other exec modes have their own
#: suites).
ADAPTIVE_SPEC = MatrixSpec(
    fault_modes=("none", "exhausted"),
    worker_counts=(1, 3),
    exec_modes=("staged", "adaptive"),
    max_plans=6,
)


def assert_conforms(oracle: DifferentialOracle, min_cells: int = 30):
    report = oracle.run()
    assert report.cells_run >= min_cells
    assert report.ok, "\n".join(report.violations[:10])
    return report


def assert_one_sided(report):
    """pages/bytes/attempts: adaptive ≤ staged, digests identical.

    The resource bound is asserted on cache-off cells, where the staged
    sibling ran the identical fetch schedule; warm/stale cells seed their
    staleness schedule from the cell id, so their resource counters are
    only comparable to the oracle's own per-plan reference (which
    ``LAWS`` already bounds).  Digest equality holds everywhere."""
    by_id = {record.cell_id: record for record in report.cells}
    adaptive_cells = [
        record for record in report.cells if record.exec_mode == "adaptive"
    ]
    assert adaptive_cells, "matrix ran no adaptive cells"
    for record in adaptive_cells:
        sibling = by_id[record.cell_id.rsplit("/", 1)[0]]
        if record.cache_mode == "off":
            assert record.pages <= sibling.pages, record.cell_id
            assert record.bytes <= sibling.bytes, record.cell_id
            assert record.attempts <= sibling.attempts, record.cell_id
        if (
            record.relation_digest is not None
            and sibling.relation_digest is not None
        ):
            assert (
                record.relation_digest == sibling.relation_digest
            ), record.cell_id


class TestSeedSiteMatrix:
    def test_movies_adaptive_matrix_conforms(self):
        report = assert_conforms(
            build_oracle("movies", seed=5, spec=ADAPTIVE_SPEC)
        )
        assert_one_sided(report)

    def test_university_adaptive_matrix_conforms(self):
        report = assert_conforms(
            build_oracle("university", seed=5, spec=ADAPTIVE_SPEC)
        )
        assert_one_sided(report)

    def test_adaptive_cells_conform_beside_pipelined(self):
        """On a pooled grid, every adaptive cell answers its pipelined
        sibling's digest from no more pages (stale cells perturb a
        per-cell page set, so siblings are compared on the other caches)."""
        spec = MatrixSpec(
            cache_modes=CACHE_MODES[:-1],
            fault_modes=("none",),
            worker_counts=(3,),
            exec_modes=("pipelined", "adaptive"),
            max_plans=4,
        )
        report = build_oracle("movies", seed=5, spec=spec).run()
        assert report.ok, "\n".join(report.violations[:10])
        pipelined = {
            record.cell_id[: -len("/pipelined")]: record
            for record in report.cells
            if record.exec_mode == "pipelined"
        }
        adaptive = [r for r in report.cells if r.exec_mode == "adaptive"]
        assert adaptive
        for record in adaptive:
            sibling = pipelined[record.cell_id[: -len("/adaptive")]]
            assert record.relation_digest == sibling.relation_digest
            assert record.pages <= sibling.pages


class TestFuzzedMatrix:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fuzzed_adaptive_matrix_conforms(self, seed):
        env = fuzzed(seed)
        oracle = DifferentialOracle(
            env,
            env.site.queries(),
            site_name=f"fuzz:{seed}",
            seed=seed,
            spec=ADAPTIVE_SPEC,
        )
        report = assert_conforms(oracle)
        assert_one_sided(report)


class TestCellIds:
    """Adaptive cells carry the 6-part id; old 5-part ids stay valid."""

    def test_adaptive_cell_id_round_trips(self):
        cell = Cell(
            query_id="q_pair",
            plan_index=3,
            cache_mode="off",
            fault_mode="none",
            workers=1,
            exec_mode="adaptive",
        )
        assert cell.cell_id == "q_pair/p3/off/none/w1/adaptive"
        assert Cell.parse(cell.cell_id) == cell

    def test_adaptive_pipelined_cell_id_rejected(self):
        """Adaptive runs staged; the pipelined variant is no mode."""
        with pytest.raises(ValueError, match="unknown exec mode"):
            Cell.parse("q/p0/cross/transient/w4/adaptive_pipelined")

    def test_unknown_exec_mode_rejected(self):
        with pytest.raises(ValueError):
            Cell.parse("q/p0/off/none/w1/psychic")

    def test_report_ids_parse_back(self):
        spec = MatrixSpec(
            fault_modes=("none",),
            worker_counts=(1,),
            exec_modes=("adaptive",),
            max_plans=2,
        )
        report = build_oracle("movies", seed=5, spec=spec).run()
        for record in report.cells:
            parsed = Cell.parse(record.cell_id)
            assert parsed.exec_mode == "adaptive"
            assert parsed.plan_index == record.plan_index
