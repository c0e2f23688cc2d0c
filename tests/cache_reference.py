"""The page cache one URL at a time, kept as the batched fetch path's
reference.

:class:`PerUrlClient` is a :class:`~repro.web.client.WebClient` whose
``get`` and ``get_batch`` resolve the cache and account fetches the way
the client did before it worked per batch: each cached URL takes its own
lookup, trust check, one-URL :meth:`~repro.web.client.WebClient.revalidate`
run, log-lock round trip and trace event, and each fetch outcome its own
accounting call, cache store and metrics increments.  This is what
:meth:`WebClient._serve_batch <repro.web.client.WebClient._serve_batch>`
and the per-batch ``_account`` must reproduce: the same answers, log
counters (simulated seconds to the bit), fetch records, cache contents in
LRU order, cache statistics, metrics series and trace events, in the same
order.  ``tests/test_cache_batch_property.py`` holds the two against each
other.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from repro.clock import BatchSchedule, Timeline
from repro.errors import ResourceNotFound, RetriesExhaustedError
from repro.obs.metrics import METRICS
from repro.web.cache import CachePolicy, Freshness, PageCache
from repro.web.client import (
    DEFAULT_FETCH_CONFIG,
    FetchConfig,
    FetchRecord,
    RetryPolicy,
    WebClient,
    _FetchOutcome,
)
from repro.web.resources import WebResource

#: the cache could not serve this URL: go to the network
MISS = object()


class PerUrlClient(WebClient):
    """A web client that serves and accounts one URL at a time."""

    def get(
        self,
        url: str,
        retry: Optional[RetryPolicy] = None,
        cache: Optional[PageCache] = None,
    ) -> WebResource:
        cache = cache if cache is not None else self.cache
        events: dict[tuple[str, str], int] = {}
        served = self.serve_one(url, cache, events)
        self.count_cache_events(events, cache)
        if served is not MISS:
            assert isinstance(served, WebResource)
            return served
        outcome = self._fetch_shared(url, retry or self.retry_policy)
        self.account_one(outcome, concurrency=1, cache=cache)
        if outcome.error is not None:
            raise outcome.error
        assert outcome.resource is not None
        return outcome.resource

    def get_batch(
        self,
        urls: Sequence[str],
        config: Optional[FetchConfig] = None,
        retry: Optional[RetryPolicy] = None,
        cache: Optional[PageCache] = None,
        schedule: Optional[BatchSchedule] = None,
    ) -> dict[str, Optional[WebResource]]:
        config = config or DEFAULT_FETCH_CONFIG
        retry = retry or self.retry_policy
        cache = cache if cache is not None else self.cache
        distinct = list(dict.fromkeys(urls))
        if not distinct:
            return {}
        with self.tracer.span(
            "fetch_batch", kind="fetch", urls=len(distinct)
        ) as span:
            result: dict[str, Optional[WebResource]] = {}
            to_fetch: list[str] = []
            events: dict[tuple[str, str], int] = {}
            for url in distinct:
                served = self.serve_one(url, cache, events)
                if served is MISS:
                    to_fetch.append(url)
                else:
                    assert isinstance(served, WebResource)
                    result[url] = served
            self.count_cache_events(events, cache)
            if schedule is not None:
                schedule.completed = max(schedule.completed, schedule.ready)
            if not to_fetch:
                span.set(from_cache=len(result), fetched=0)
                return result
            workers = max(
                1, min(config.effective_workers(self.network), len(to_fetch))
            )
            batch_t0 = self.log.simulated_seconds
            if workers == 1:
                outcomes = [self._fetch_shared(u, retry) for u in to_fetch]
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    outcomes = list(
                        pool.map(lambda u: self._fetch_shared(u, retry), to_fetch)
                    )
            if schedule is not None:
                lanes = schedule.timeline.lanes
                completed = schedule.ready
                for outcome in outcomes:
                    end = schedule.timeline.add(
                        outcome.seconds, ready=schedule.ready
                    )
                    lane, start, _ = schedule.timeline.intervals[-1]
                    completed = max(completed, end)
                    self.account_one(
                        outcome,
                        concurrency=lanes,
                        charge_time=False,
                        cache=cache,
                        lane=lane,
                        lane_start=schedule.base + start,
                        lane_end=schedule.base + end,
                    )
                schedule.completed = max(schedule.completed, completed)
            elif workers == 1:
                offset = 0.0
                for outcome in outcomes:
                    self.account_one(
                        outcome,
                        concurrency=1,
                        cache=cache,
                        lane=0,
                        lane_start=batch_t0 + offset,
                        lane_end=batch_t0 + offset + outcome.seconds,
                    )
                    offset += outcome.seconds
            else:
                timeline = Timeline(workers)
                for outcome in outcomes:
                    end = timeline.add(outcome.seconds)
                    lane, start, _ = timeline.intervals[-1]
                    self.account_one(
                        outcome,
                        concurrency=workers,
                        charge_time=False,
                        cache=cache,
                        lane=lane,
                        lane_start=batch_t0 + start,
                        lane_end=batch_t0 + end,
                    )
                with self.log._lock:
                    self.log.simulated_seconds += timeline.makespan
            METRICS.counter(
                "repro_fetch_batches_total", "fetch batches by pool size"
            ).inc(workers=workers)
            if schedule is not None:
                t0 = schedule.base + schedule.ready
                seconds = schedule.completed - schedule.ready
            else:
                t0, seconds = batch_t0, self.log.simulated_seconds - batch_t0
            span.set(
                from_cache=len(result),
                fetched=len(to_fetch),
                workers=workers,
                t0=t0,
                batch_seconds=seconds,
            )
            result.update((outcome.url, outcome.resource) for outcome in outcomes)
            for outcome in outcomes:
                if isinstance(outcome.error, RetriesExhaustedError):
                    raise outcome.error
            return result

    # ------------------------------------------------------------------ #
    # one cached URL
    # ------------------------------------------------------------------ #

    def serve_one(
        self,
        url: str,
        cache: Optional[PageCache],
        events: dict[tuple[str, str], int],
    ):
        """A snapshot of ``url`` from ``cache`` (the hit or revalidation
        accounted), or :data:`MISS`."""
        if cache is None or cache.policy is CachePolicy.OFF:
            return MISS
        entry = cache.lookup(url)
        if entry is None:
            cache.note(misses=1)
            self.observe_cache(events, "miss", url)
            return MISS
        if cache.policy is CachePolicy.PER_QUERY or cache.is_validated(url):
            cache.note(hits=1)
            with self.log._lock:
                self.log.cache_hits += 1
                self.log.pages_saved += 1
            self.observe_cache(events, "hit", url, entry.page_scheme)
            return entry.as_resource()
        freshness = self.revalidate((url,), (entry.last_modified,))[0]
        if freshness is Freshness.FRESH:
            cache.mark_validated(url)
            cache.note(revalidations=1)
            with self.log._lock:
                self.log.revalidations += 1
                self.log.pages_saved += 1
            self.observe_cache(events, "revalidation", url, entry.page_scheme)
            return entry.as_resource()
        cache.invalidate(url)
        cache.note(misses=1)
        self.observe_cache(events, "stale", url, entry.page_scheme)
        return MISS

    def observe_cache(
        self,
        events: dict[tuple[str, str], int],
        event: str,
        url: str,
        scheme: str = "",
    ) -> None:
        events[event, scheme] = events.get((event, scheme), 0) + 1
        if self.tracer.enabled:
            self.tracer.event(f"cache_{event}", url=url, scheme=scheme)

    @staticmethod
    def count_cache_events(
        events: dict[tuple[str, str], int], cache: Optional[PageCache]
    ) -> None:
        if not events:
            return
        assert cache is not None
        counter = METRICS.counter(
            "repro_cache_events_total",
            "page-cache lookup outcomes by event, policy, and page scheme",
        )
        for (event, scheme), count in events.items():
            counter.inc(
                count, event=event, policy=cache.policy.value, scheme=scheme
            )

    # ------------------------------------------------------------------ #
    # one fetch outcome
    # ------------------------------------------------------------------ #

    def account_one(
        self,
        outcome: _FetchOutcome,
        concurrency: int,
        charge_time: bool = True,
        cache: Optional[PageCache] = None,
        lane: Optional[int] = None,
        lane_start: Optional[float] = None,
        lane_end: Optional[float] = None,
    ) -> None:
        log = self.log
        if lane_start is None:
            lane = 0
            lane_start = log.simulated_seconds
            lane_end = lane_start + outcome.seconds
        if outcome.shared:
            if outcome.resource is not None:
                with log._lock:
                    log.cache_hits += 1
                    log.pages_saved += 1
            self.observe_fetch(outcome, concurrency, lane, lane_start, lane_end)
            return
        error = ""
        if isinstance(outcome.error, ResourceNotFound):
            error = "not_found"
        elif isinstance(outcome.error, RetriesExhaustedError):
            error = "exhausted"
        record = FetchRecord(
            url=outcome.url,
            seconds=outcome.seconds,
            attempts=outcome.attempts,
            concurrency=concurrency,
            ok=outcome.resource is not None,
            transient_failures=outcome.transient_failures,
            error=error,
        )
        with log._lock:
            log.attempts += outcome.attempts
            log.failed_requests += outcome.transient_failures
            if error == "not_found":
                log.failed_requests += 1
            if record.ok:
                log.page_downloads += 1
                log.bytes_downloaded += len(outcome.resource.html)
                log.downloaded_urls.append(outcome.url)
            if charge_time:
                log.simulated_seconds += outcome.seconds
            log.records.append(record)
        if record.ok and cache is not None and cache.policy is not CachePolicy.OFF:
            outcome.resource = cache.store(outcome.resource).as_resource()
            cache.mark_validated(outcome.url)
        self.observe_fetch(outcome, concurrency, lane, lane_start, lane_end, error)

    def observe_fetch(
        self,
        outcome: _FetchOutcome,
        concurrency: int,
        lane: Optional[int],
        lane_start: Optional[float],
        lane_end: Optional[float],
        error: str = "",
    ) -> None:
        scheme = (
            outcome.resource.page_scheme if outcome.resource is not None else ""
        )
        status = "shared" if outcome.shared else error or "ok"
        METRICS.counter(
            "repro_fetch_total", "page fetches by outcome and page scheme"
        ).inc(scheme=scheme, outcome=status)
        if outcome.shared:
            METRICS.counter(
                "repro_single_flight_dedup_total",
                "downloads shared with another in-flight fetch",
            ).inc(scheme=scheme)
        else:
            if outcome.resource is not None:
                METRICS.counter(
                    "repro_fetch_bytes_total", "page bytes downloaded"
                ).inc(len(outcome.resource.html), scheme=scheme)
            if outcome.transient_failures:
                METRICS.counter(
                    "repro_fetch_transient_faults_total",
                    "injected transient faults absorbed by retries",
                ).inc(outcome.transient_failures, scheme=scheme)
            if outcome.attempts > 1:
                METRICS.counter(
                    "repro_fetch_retries_total", "retry attempts beyond the first"
                ).inc(outcome.attempts - 1, scheme=scheme)
            METRICS.histogram(
                "repro_fetch_seconds", "simulated seconds per fetch"
            ).observe(outcome.seconds, scheme=scheme)
        if self.tracer.enabled:
            self.tracer.event(
                "fetch",
                url=outcome.url,
                scheme=scheme,
                outcome=status,
                seconds=outcome.seconds,
                attempts=outcome.attempts,
                transient_failures=outcome.transient_failures,
                shared=outcome.shared,
                concurrency=concurrency,
                lane=lane,
                start=lane_start,
                end=lane_end,
            )
