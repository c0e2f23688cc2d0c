"""The statistics container and the observation collector.

Statistics are keyed by *(base page-scheme, attribute path)* — the cost
model reaches them through the provenance carried on every schema field, so
estimates work at any depth of an algebraic expression.

Derived parameters follow Section 6.2 exactly:

* selectivity ``s_A = 1 / c_A``;
* repetition ``r_A = |μ_A(P)| / c_A`` where ``|μ_A(P)|`` is the cardinality
  of ``P`` unnested down to ``A``'s level (``|P|`` for top-level attributes,
  ``|P|·|L|`` for attributes one list deep, and so on);
* join selectivity ``σ = 1 / max(c_left, c_right)`` unless an explicit
  override was recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adm.page_scheme import AttrPath, URL_ATTR
from repro.errors import StatisticsError

__all__ = ["SiteStatistics", "StatsCollector"]

Key = tuple  # (scheme_name, path_string)


def _key(scheme: str, path: AttrPath | str) -> Key:
    return (scheme, str(path))


@dataclass
class SiteStatistics:
    """Quantitative description of a site instance."""

    scheme_cards: dict = field(default_factory=dict)      # scheme -> |P|
    list_sizes: dict = field(default_factory=dict)        # key -> avg |L|
    distinct_counts: dict = field(default_factory=dict)   # key -> c_A
    join_overrides: dict = field(default_factory=dict)    # (key, key) -> sel
    page_bytes: dict = field(default_factory=dict)        # scheme -> avg size

    # ------------------------------------------------------------------ #
    # base parameters
    # ------------------------------------------------------------------ #

    def card(self, scheme: str) -> float:
        """|P| — number of pages of ``scheme``."""
        try:
            return float(self.scheme_cards[scheme])
        except KeyError:
            raise StatisticsError(
                f"no cardinality for page-scheme {scheme!r}"
            ) from None

    def avg_page_bytes(self, scheme: str) -> float:
        """Average HTML size of a page of ``scheme`` (footnote 8: the cost
        model 'can be made more accurate by taking into account ... the
        size of pages')."""
        try:
            return float(self.page_bytes[scheme])
        except KeyError:
            raise StatisticsError(
                f"no page-size statistic for page-scheme {scheme!r}"
            ) from None

    def mean_page_bytes(self) -> float:
        """Average HTML size over every page of the site with a recorded
        size (0.0 when none has one)."""
        cards = self.scheme_cards
        pages = sum(cards.get(s, 0) for s in self.page_bytes)
        total = sum(cards.get(s, 0) * b for s, b in self.page_bytes.items())
        return total / pages if pages else 0.0

    def avg_list(self, scheme: str, path: AttrPath | str) -> float:
        """|L| — average number of items of list attribute ``path``."""
        try:
            return float(self.list_sizes[_key(scheme, path)])
        except KeyError:
            raise StatisticsError(
                f"no list-size statistic for {scheme}.{path}"
            ) from None

    def distinct(self, scheme: str, path: AttrPath | str) -> float:
        """c_A — number of distinct values of attribute ``path``."""
        if str(path) == URL_ATTR:
            return self.card(scheme)  # URL is a key
        try:
            return float(self.distinct_counts[_key(scheme, path)])
        except KeyError:
            raise StatisticsError(
                f"no distinct-count statistic for {scheme}.{path}"
            ) from None

    # ------------------------------------------------------------------ #
    # derived parameters (Section 6.2, items e and f)
    # ------------------------------------------------------------------ #

    def unnested_card(self, scheme: str, path: AttrPath | str) -> float:
        """|μ_A(P)| — cardinality of P unnested down to A's nesting level."""
        if isinstance(path, str):
            path = AttrPath.parse(path)
        total = self.card(scheme)
        for depth in range(1, len(path.steps)):
            prefix = AttrPath(path.steps[:depth])
            total *= self.avg_list(scheme, prefix)
        return total

    def selectivity(self, scheme: str, path: AttrPath | str) -> float:
        """s_A = 1 / c_A."""
        c = self.distinct(scheme, path)
        return 1.0 / c if c else 1.0

    def repetition(self, scheme: str, path: AttrPath | str) -> float:
        """r_A = |μ_A(P)| / c_A (average repetitions of each value)."""
        c = self.distinct(scheme, path)
        if not c:
            return 1.0
        return max(1.0, self.unnested_card(scheme, path) / c)

    def join_selectivity(
        self,
        left_scheme: str,
        left_path: AttrPath | str,
        right_scheme: str,
        right_path: AttrPath | str,
    ) -> float:
        """σ_{A,P1,P2} — defaults to 1/max(c_left, c_right)."""
        override = self.join_overrides.get(
            (_key(left_scheme, left_path), _key(right_scheme, right_path))
        )
        if override is None:
            override = self.join_overrides.get(
                (_key(right_scheme, right_path), _key(left_scheme, left_path))
            )
        if override is not None:
            return float(override)
        c_left = self.distinct(left_scheme, left_path)
        c_right = self.distinct(right_scheme, right_path)
        top = max(c_left, c_right)
        return 1.0 / top if top else 1.0

    def describe(self) -> str:
        """Human-readable dump of all recorded parameters."""
        lines = ["site statistics:"]
        for scheme in sorted(self.scheme_cards):
            lines.append(f"  |{scheme}| = {self.scheme_cards[scheme]}")
        for (scheme, path), size in sorted(self.list_sizes.items()):
            lines.append(f"  |{scheme}.{path}| = {size:.2f} items avg")
        for (scheme, path), count in sorted(self.distinct_counts.items()):
            lines.append(f"  c({scheme}.{path}) = {count}")
        return "\n".join(lines)


class StatsCollector:
    """Accumulates per-page observations into a :class:`SiteStatistics`.

    Feed it ``observe(page_scheme, plain_tuple)`` for every page seen (the
    crawler and the exact oracle both do this) and call :meth:`build`.
    """

    def __init__(self):
        self._page_counts: dict[str, int] = {}
        self._list_totals: dict[Key, int] = {}
        self._list_pages: dict[Key, int] = {}
        self._values: dict[Key, set] = {}
        self._byte_totals: dict[str, int] = {}

    def observe(
        self, page_scheme: str, plain: dict, byte_size: int = 0
    ) -> None:
        self._page_counts[page_scheme] = self._page_counts.get(page_scheme, 0) + 1
        self._byte_totals[page_scheme] = (
            self._byte_totals.get(page_scheme, 0) + byte_size
        )
        self._observe_fields(page_scheme, (), plain)

    def _observe_fields(self, scheme: str, prefix: tuple, row: dict) -> None:
        for name, value in row.items():
            if name == URL_ATTR and not prefix:
                continue
            path = prefix + (name,)
            key = (scheme, ".".join(path))
            if isinstance(value, list):
                # |L| averages item counts over every occurrence of the list
                self._list_totals[key] = self._list_totals.get(key, 0) + len(value)
                self._list_pages[key] = self._list_pages.get(key, 0) + 1
                for sub in value:
                    self._observe_fields(scheme, path, sub)
            else:
                if value is not None:
                    self._values.setdefault(key, set()).add(value)

    def build(self) -> SiteStatistics:
        stats = SiteStatistics()
        stats.scheme_cards = dict(self._page_counts)
        for key, total in self._list_totals.items():
            pages = self._list_pages.get(key, 0)
            stats.list_sizes[key] = total / pages if pages else 0.0
        for key, values in self._values.items():
            stats.distinct_counts[key] = len(values)
        for scheme, total in self._byte_totals.items():
            count = self._page_counts.get(scheme, 0)
            if count:
                stats.page_bytes[scheme] = total / count
        return stats
