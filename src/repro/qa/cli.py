"""``python -m repro.qa`` — run a conformance-matrix shard from the shell.

Examples::

    # fast shard (CI per-push): a quarter of the movies matrix
    python -m repro.qa --site movies --shard 0/4 --seed 7

    # the full matrix over a fuzzed site
    python -m repro.qa --site fuzz:42

    # reproduce one failing cell by its id (from a report's violations)
    python -m repro.qa --site movies --seed 7 \\
        --cell "md_join/p2/cross_query_warm/transient/w4"

Exit status is 0 iff every executed cell satisfied all invariants; the
machine-readable report lands under ``benchmarks/results/`` (or ``--out``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.qa.oracle import (
    CACHE_MODES,
    EXEC_MODES,
    FAULT_MODES,
    JOURNAL_MODES,
    TRACE_MODES,
    DifferentialOracle,
    MatrixSpec,
)
from repro.qa.report import summary_path
from repro.sites import SiteEnv, bibliography, fuzzed, movies, university
from repro.sitegen.bibliography import BibliographyConfig
from repro.sitegen.university import UniversityConfig

__all__ = ["build_oracle", "main"]

#: Example 7.1 / 7.2, verbatim (named QA cases per the paper).
EX71_SQL = (
    "SELECT Course.CName, Description FROM Professor, CourseInstructor, "
    "Course WHERE Professor.PName = CourseInstructor.PName "
    "AND CourseInstructor.CName = Course.CName "
    "AND Rank = 'Full' AND Session = 'Fall'"
)
EX72_SQL = (
    "SELECT Professor.PName, email FROM Course, CourseInstructor, "
    "Professor, ProfDept WHERE Course.CName = CourseInstructor.CName "
    "AND CourseInstructor.PName = Professor.PName "
    "AND Professor.PName = ProfDept.PName "
    "AND ProfDept.DName = 'Computer Science' AND Type = 'Graduate'"
)

#: Default query suites.  Sites stay small so the full matrix runs in
#: seconds; the queries cover single-relation scans, selections, the
#: paper's named examples, and multi-way joins (which is where the plan
#: space fans out).
UNIVERSITY_QUERIES = {
    "depts": "SELECT DName, Address FROM Dept",
    "profs": "SELECT PName, Rank FROM Professor WHERE Rank = 'Full'",
    "course_instr": "SELECT CName, PName FROM CourseInstructor",
    "ex71": EX71_SQL,
    "ex72": EX72_SQL,
}

BIBLIOGRAPHY_QUERIES = {
    "editions": "SELECT ConfName, Year, Editors FROM Edition",
    "papers": "SELECT ConfName, Year, Title, AName FROM PaperAuthor "
              "WHERE ConfName = 'Conf1'",
}

MOVIE_QUERIES = {
    "movies": "SELECT Title, Year, Genre FROM Movie",
    "directors": "SELECT DName FROM Director",
    "movie_director": "SELECT Title, DName FROM MovieDirector",
    "md_join": "SELECT Movie.Title, Genre, MovieDirector.DName "
               "FROM Movie, MovieDirector "
               "WHERE Movie.Title = MovieDirector.Title",
    "mdd_join": "SELECT Movie.Title, Director.DName "
                "FROM Movie, MovieDirector, Director "
                "WHERE Movie.Title = MovieDirector.Title "
                "AND MovieDirector.DName = Director.DName",
}

#: Small site shapes: big enough for interesting plans, small enough that
#: a full matrix stays in CI-friendly territory.
_UNIVERSITY_CONFIG = UniversityConfig(n_depts=2, n_profs=6, n_courses=12)
_BIBLIOGRAPHY_CONFIG = BibliographyConfig(
    n_conferences=4, n_db_conferences=2, years_per_conf=3
)


def build_site(site: str) -> tuple[SiteEnv, dict]:
    """Resolve a ``--site`` argument to an environment and query suite."""
    if site == "university":
        return university(_UNIVERSITY_CONFIG), dict(UNIVERSITY_QUERIES)
    if site == "bibliography":
        return bibliography(_BIBLIOGRAPHY_CONFIG), dict(BIBLIOGRAPHY_QUERIES)
    if site == "movies":
        return movies(), dict(MOVIE_QUERIES)
    if site.startswith("fuzz:"):
        try:
            fuzz_seed = int(site[len("fuzz:"):])
        except ValueError:
            raise SystemExit(f"bad fuzz site {site!r} (want fuzz:<int>)")
        env = fuzzed(fuzz_seed)
        return env, env.site.queries()
    raise SystemExit(
        f"unknown site {site!r} (university, bibliography, movies, "
        f"or fuzz:<seed>)"
    )


def build_oracle(
    site: str,
    seed: int = 0,
    spec: Optional[MatrixSpec] = None,
) -> DifferentialOracle:
    """The oracle the CLI runs — importable for tests and notebooks."""
    env, queries = build_site(site)
    return DifferentialOracle(
        env, queries, site_name=site, seed=seed, spec=spec
    )


def _parse_shard(text: str) -> tuple[int, int]:
    index, sep, count = text.partition("/")
    if not sep:
        raise SystemExit(f"bad shard {text!r} (want K/N, e.g. 0/4)")
    try:
        return int(index), int(count)
    except ValueError:
        raise SystemExit(f"bad shard {text!r} (want K/N, e.g. 0/4)")


def _parse_csv(text: str, universe: Sequence[str], what: str) -> tuple:
    if text == "all":
        return tuple(universe)
    chosen = tuple(part.strip() for part in text.split(",") if part.strip())
    for part in chosen:
        if part not in universe:
            raise SystemExit(
                f"unknown {what} {part!r} (choose from "
                f"{', '.join(universe)})"
            )
    return chosen


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.qa",
        description="Plan-space differential oracle: execute every candidate "
        "plan under a cache/fault/concurrency matrix and check conformance.",
    )
    parser.add_argument(
        "--site",
        default="movies",
        help="university | bibliography | movies | fuzz:<seed> "
        "(default: movies)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="oracle seed: drives fault schedules and stale perturbations",
    )
    parser.add_argument(
        "--shard", default="0/1", metavar="K/N",
        help="run cells with index %% N == K (default: 0/1, everything)",
    )
    parser.add_argument(
        "--workers", default="1,4",
        help="comma-separated worker counts (default: 1,4)",
    )
    parser.add_argument(
        "--cache", default="all",
        help=f"comma-separated cache modes or 'all' "
        f"({', '.join(CACHE_MODES)})",
    )
    parser.add_argument(
        "--faults", default="all",
        help=f"comma-separated fault modes or 'all' "
        f"({', '.join(FAULT_MODES)})",
    )
    parser.add_argument(
        "--exec", dest="exec_modes", default="all",
        help=f"comma-separated execution modes or 'all' "
        f"({', '.join(EXEC_MODES)}); pipelined cells must match staged "
        f"ones on every page count and digest",
    )
    parser.add_argument(
        "--max-plans", type=_at_least_one, default=None, metavar="N",
        help="cap the candidate plans per query (default: the full space)",
    )
    parser.add_argument(
        "--trace", default="off", choices=TRACE_MODES,
        help="tracer attached to every measured run (default: off); "
        "'recording' attaches the span tree to each violation — answers "
        "and page counts must be identical in all three modes",
    )
    parser.add_argument(
        "--journal", default="off", choices=JOURNAL_MODES,
        help="attach a fresh event journal to every measured run "
        "(default: off); journaling must be digest- and cost-neutral",
    )
    parser.add_argument(
        "--cell", action="append", default=[], metavar="CELL_ID",
        help="run only this cell (repeatable); overrides --shard",
    )
    parser.add_argument(
        "--list-cells", action="store_true",
        help="print every cell id in the matrix and exit",
    )
    parser.add_argument(
        "--out", default=None,
        help="report path (default: benchmarks/results/"
        "QA-<site>-s<seed>-shard<K>of<N>.json)",
    )
    args = parser.parse_args(argv)

    shard_index, shard_count = _parse_shard(args.shard)
    try:
        workers = tuple(
            int(part) for part in args.workers.split(",") if part.strip()
        )
    except ValueError:
        raise SystemExit(f"bad --workers {args.workers!r}")
    spec = MatrixSpec(
        cache_modes=_parse_csv(args.cache, CACHE_MODES, "cache mode"),
        fault_modes=_parse_csv(args.faults, FAULT_MODES, "fault mode"),
        worker_counts=workers,
        exec_modes=_parse_csv(args.exec_modes, EXEC_MODES, "exec mode"),
        max_plans=args.max_plans,
        trace=args.trace,
        journal=args.journal,
    )
    oracle = build_oracle(args.site, seed=args.seed, spec=spec)

    if args.list_cells:
        try:
            for cell in oracle.cells():
                print(cell.cell_id)
        except BrokenPipeError:  # `... --list-cells | head` is fine
            sys.stderr.close()
        return 0

    if args.cell:
        ok = True
        for cell_id in args.cell:
            record = oracle.run_cell(cell_id)
            status = "ok" if record.ok else "FAIL"
            print(f"{status} {record.cell_id}: rows={record.rows} "
                  f"digest={record.relation_digest} pages={record.pages:g} "
                  f"light={record.light_connections:g} "
                  f"saved={record.pages_saved:g}")
            for violation in record.violations:
                print(f"  VIOLATION {violation}")
            ok = ok and record.ok
        return 0 if ok else 1

    report = oracle.run(shard_index=shard_index, shard_count=shard_count)
    site_slug = args.site.replace(":", "")
    out = args.out or (
        f"benchmarks/results/QA-{site_slug}-s{args.seed}"
        f"-shard{shard_index}of{shard_count}.json"
    )
    report.write(out)
    print(report.summary())
    print(f"report: {out}")
    print(f"summary: {summary_path(out)}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
