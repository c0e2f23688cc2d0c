"""The traced run: spans recorded by the benchmark around each layer.

Spans are opened here, in the benchmark's own files, around the calls into
each layer — ``env.sql`` / ``env.plan`` / ``env.execute`` called one after
the other, and thin timing subclasses of ``WebClient``, ``WrapperRegistry``
and ``Planner`` wired in through public constructors and public ``SiteEnv``
fields.  Spans inside ``src/`` are a later change (ROADMAP item 5).

A span is ``(id, name, start_ns, end_ns, parent, query_id)``, kept in
memory and written to ``perfbench/results/trace-<workload>.json`` when the run
ends.  A span's self time is its duration minus its children's.

``server_mix`` owns its worker threads and offers no per-request hook that
is not itself a sink, so spans opened on a worker (plan, wrap) carry no
parent and no ``query_id``; they are summed per layer, not per query.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from typing import Optional

from repro import Planner, QueryOptions, RemoteExecutor, WebClient, WrapperRegistry
from repro.obs.journal import Journal
from repro.obs.trace import RecordingTracer

from perfbench import RESULTS, runner, workloads

#: Operations of the sink-overhead measurement (``nav_cold`` only) and
#: how many interleaved trials the best is taken over.
SINK_OPS = 40
SINK_TRIALS = 3


class Recorder:
    """In-memory span log; one parent stack per thread.

    A closed span is the tuple ``(id, name, start_ns, end_ns, parent id,
    query_id)`` — immutable, so the collector stops tracking it and a long
    trace does not slow the (left-on) garbage collector down."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def span(self, name: str) -> "_OpenSpan":
        return _OpenSpan(self, name)

    def leaf(self, name: str, start: int, end: int) -> None:
        """Record a span that had no children — no object, no stack push:
        Algorithm 3 HEADs ~100 pages per 2 ms query, and looking must
        stay cheap next to that."""
        state = self._local.__dict__
        stack = state.get("stack")
        self.spans.append((
            next(self._ids),
            name,
            start,
            end,
            stack[-1] if stack else None,
            state.get("query_id"),
        ))

    def set_query(self, query_id: Optional[int]) -> None:
        self._local.query_id = query_id


class _OpenSpan:
    __slots__ = ("recorder", "name", "ident", "start", "state")

    def __init__(self, recorder: Recorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> None:
        state = self.state = self.recorder._local.__dict__
        stack = state.get("stack")
        if stack is None:
            stack = state["stack"] = []
        self.ident = next(self.recorder._ids)
        stack.append(self.ident)
        self.start = time.perf_counter_ns()

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter_ns()
        state = self.state
        stack = state["stack"]
        stack.pop()
        self.recorder.spans.append((
            self.ident,
            self.name,
            self.start,
            end,
            stack[-1] if stack else None,
            state.get("query_id"),
        ))


# --------------------------------------------------------------------- #
# timing subclasses, wired through public constructors
# --------------------------------------------------------------------- #


class TimedClient(WebClient):
    """``web.fetch`` = time inside the outermost ``get`` / ``get_batch`` /
    ``head`` / ``head_batch`` (a revalidating ``get`` calls ``head``).
    Nothing below the client opens a span, so these are leaves."""

    def __init__(self, server, recorder: Recorder):
        super().__init__(server)
        self.recorder = recorder
        self._inside = False

    def _timed(self, method, *args, **kwargs):
        if self._inside:
            return method(self, *args, **kwargs)
        self._inside = True
        start = time.perf_counter_ns()
        try:
            return method(self, *args, **kwargs)
        finally:
            self.recorder.leaf("web.fetch", start, time.perf_counter_ns())
            self._inside = False

    def get(self, *args, **kwargs):
        return self._timed(WebClient.get, *args, **kwargs)

    def get_batch(self, *args, **kwargs):
        return self._timed(WebClient.get_batch, *args, **kwargs)

    def head(self, url):
        return self._timed(WebClient.head, url)

    def head_batch(self, *args, **kwargs):
        return self._timed(WebClient.head_batch, *args, **kwargs)


class TimedRegistry(WrapperRegistry):
    """Delegates to the environment's registry; ``wrapper.wrap`` spans and
    the redundant-wrap count (same scheme, URL and HTML wrapped before)."""

    def __init__(self, inner: WrapperRegistry, recorder: Recorder):
        super().__init__()
        self.inner = inner
        self.recorder = recorder
        self.seen: set = set()
        self.calls = 0
        self.redundant = 0

    def wrapper(self, page_scheme: str):
        return self.inner.wrapper(page_scheme)

    def wrap(self, page_scheme: str, url: str, html: str) -> dict:
        start = time.perf_counter_ns()
        plain = self.inner.wrap(page_scheme, url, html)
        self.recorder.leaf("wrapper.wrap", start, time.perf_counter_ns())
        key = (page_scheme, url, hash(html))
        self.calls += 1
        if key in self.seen:
            self.redundant += 1
        else:
            self.seen.add(key)
        return plain

    def __contains__(self, page_scheme: str) -> bool:
        return page_scheme in self.inner

    def __len__(self) -> int:
        return len(self.inner)


class TimedPlanner(Planner):
    """``server_mix`` plans inside its workers, so the span opens here."""

    def __init__(self, view, cost_model, recorder: Recorder, on_plan):
        super().__init__(view, cost_model)
        self.recorder = recorder
        self.on_plan = on_plan

    def plan_query(self, *args, **kwargs):
        with self.recorder.span("optimizer.plan"):
            planned = super().plan_query(*args, **kwargs)
        self.on_plan(planned)
        return planned


# --------------------------------------------------------------------- #
# traced workloads
# --------------------------------------------------------------------- #


class _Traced:
    """Mixin: wires the timing subclasses into a fresh environment and
    opens one ``query`` span per operation."""

    #: ``mat_mutating`` only
    populate_s = 0.0
    refreshes = 0
    refresh_light = 0
    refresh_downloads = 0

    def __init__(self, seed: int, recorder: Recorder):
        super().__init__(seed)
        self.recorder = recorder
        self.plans = 0
        self.candidates = 0
        self._ids = itertools.count()

    def wire(self, env):
        env.client = TimedClient(env.site.server, self.recorder)
        env.registry = TimedRegistry(env.registry, self.recorder)
        env.executor = RemoteExecutor(
            env.scheme,
            env.client,
            env.registry,
            planner=env.planner,
            cost_model=env.cost_model,
        )
        return env

    def run(self, query, *args):
        recorder = self.recorder
        recorder.set_query(next(self._ids))
        with recorder.span("query"):
            return self.run_layers(query, *args)

    def planned(self, planned):
        self.plans += 1
        self.candidates += len(planned.candidates)
        return planned.best.expr


class _TracedNav(_Traced):
    def run_layers(self, query):
        env, span = self.env, self.recorder.span
        with span("views.parse"):
            parsed = env.sql(query.sql)
        with span("optimizer.plan"):
            planned = env.plan(parsed, cache=self.options.cache)
        plan = self.planned(planned)
        with span("engine.execute"):
            return env.execute(plan, options=self.options)


class TracedAdhocPlan(_TracedNav, workloads.AdhocPlan):
    pass


class TracedNavCold(_TracedNav, workloads.NavCold):
    pass


class TracedNavWarmMutating(_TracedNav, workloads.NavWarmMutating):
    pass


class TracedMatMutating(_Traced, workloads.MatMutating):
    def populate(self) -> None:
        start = time.perf_counter()
        super().populate()
        self.populate_s = time.perf_counter() - start

    def run_layers(self, query):
        env, span = self.env, self.recorder.span
        with span("views.parse"):
            parsed = env.sql(query.sql)
        with span("optimizer.plan"):
            planned = env.planner.plan_query(parsed)
        plan = self.planned(planned)
        with span("engine.execute"):
            return self.engine.execute(plan, check=True)

    def maintain(self) -> None:
        self.recorder.set_query(None)
        before = self.counters()
        with self.recorder.span("materialized.refresh"):
            super().maintain()
        after = self.counters()
        self.refreshes += 1
        self.refresh_light += after["light_connections"] - before["light_connections"]
        self.refresh_downloads += after["page_downloads"] - before["page_downloads"]


class TracedServerMix(_Traced, workloads.ServerMix):
    def wire(self, env):
        env.registry = TimedRegistry(env.registry, self.recorder)
        env.planner = TimedPlanner(
            env.view, env.cost_model, self.recorder, self.planned
        )
        return env

    def run_layers(self, query, tenant="t0"):
        return workloads.ServerMix.run(self, query, tenant)


TRACED = {
    cls.name: cls
    for cls in (
        TracedAdhocPlan,
        TracedNavCold,
        TracedNavWarmMutating,
        TracedMatMutating,
        TracedServerMix,
    )
}


# --------------------------------------------------------------------- #
# the traced run
# --------------------------------------------------------------------- #


def sink_overheads(workload) -> tuple[float, float]:
    """CPU per query with ``QueryOptions(tracer=RecordingTracer())`` and
    with ``journal=Journal()``, each over plain; interleaved, best of
    ``SINK_TRIALS``."""
    queries = next(workload.blocks())[:SINK_OPS]
    variants = {
        "plain": lambda: QueryOptions(cache="off"),
        "tracer": lambda: QueryOptions(cache="off", tracer=RecordingTracer()),
        "journal": lambda: QueryOptions(cache="off", journal=Journal()),
    }
    best = dict.fromkeys(variants, float("inf"))
    for _ in range(SINK_TRIALS):
        for name, make in variants.items():
            options = make()
            start = time.process_time_ns()
            for query in queries:
                workload.env.query(query.sql, options=options)
            best[name] = min(best[name], time.process_time_ns() - start)
    return best["tracer"] / best["plain"], best["journal"] / best["plain"]


def total_ns(name: str, spans: list) -> int:
    return sum(end - start for _, span, start, end, _, _ in spans if span == name)


def self_times(spans: list) -> dict[int, int]:
    """``span id -> self ns``: duration minus the children's durations."""
    own = {ident: end - start for ident, _, start, end, _, _ in spans}
    for _, _, start, end, parent, _ in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def per_layer(base, timed, traced, setup, spans, sinks) -> dict:
    count = len(timed.ops)
    own = self_times(spans)

    def ms_per_query(name: str) -> float:
        return total_ns(name, spans) / 1e6 / count

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    # per query: do the spans' self times add up to the query span?
    by_query: dict = {}
    for ident, _, _, _, _, query_id in spans:
        if query_id is not None:
            by_query[query_id] = by_query.get(query_id, 0) + own[ident]
    gap = max(
        (
            abs(by_query[query_id] - (end - start)) / (end - start)
            for _, name, start, end, _, query_id in spans
            if name == "query"
        ),
        default=0.0,
    )

    registry = traced.env.registry
    wrap_ns = total_ns("wrapper.wrap", spans)
    counters = timed.counters
    refreshes = traced.refreshes
    server = isinstance(traced, workloads.ServerMix)
    return {
        "views.parse_ms_per_query": (ms_per_query("views.parse"), "ms"),
        "optimizer.plan_ms_per_query": (ms_per_query("optimizer.plan"), "ms"),
        "optimizer.candidates_per_plan": (
            ratio(traced.candidates, traced.plans), "count"),
        "engine.execute_ms_per_query": (ms_per_query("engine.execute"), "ms"),
        "engine.self_ms_per_query": (
            sum(own[s[0]] for s in spans if s[1] == "engine.execute")
            / 1e6 / count, "ms"),
        "engine.rows_per_query": (
            sum(op.rows for op in timed.ops) / count, "count"),
        "wrapper.wrap_ms_per_query": (wrap_ns / 1e6 / count, "ms"),
        "wrapper.wrap_calls_per_query": (registry.calls / count, "count"),
        "wrapper.wrap_us_per_page": (
            ratio(wrap_ns / 1e3, registry.calls), "us"),
        "wrapper.redundant_wrap_ratio": (
            ratio(registry.redundant, registry.calls), "ratio"),
        "web.fetch_ms_per_query": (ms_per_query("web.fetch"), "ms"),
        "web.bytes_per_query": (timed.per_query("bytes_downloaded"), "bytes"),
        "web.cache_hit_ratio": (
            ratio(counters["pages_saved"],
                  counters["pages_saved"] + counters["page_downloads"]),
            "ratio"),
        "web.revalidations_per_query": (
            timed.per_query("revalidations"), "count"),
        "web.light_per_query": (
            timed.per_query("light_connections"), "count"),
        "materialized.populate_s": (traced.populate_s, "s"),
        "materialized.refresh_ms_per_round": (
            ratio(total_ns("materialized.refresh", spans) / 1e6, refreshes),
            "ms"),
        "materialized.refresh_light_per_round": (
            ratio(traced.refresh_light, refreshes), "count"),
        "materialized.refresh_downloads_per_round": (
            ratio(traced.refresh_downloads, refreshes), "count"),
        "server.queue_wait_ms_p50": (
            statistics.median(op.queued_s for op in timed.ops) * 1e3, "ms"),
        "server.pages_shared_ratio": (
            ratio(counters["pages_shared"],
                  counters["pages_shared"] + counters["page_downloads"]),
            "ratio"),
        "server.prefix_hits_per_query": (
            sum(op.prefixes for op in timed.ops) / count, "count"),
        "server.worker_cpu_utilization": (
            base.cpu_ns / (base.wall_ns * workloads.CLIENTS)
            if server else 0.0, "ratio"),
        "obs.tracer_overhead_ratio": (sinks[0], "ratio"),
        "obs.journal_overhead_ratio": (sinks[1], "ratio"),
        "sitegen.build_s": (setup["sitegen.build_s"], "s"),
        "sites.env_s": (setup["sites.env_s"], "s"),
        "trace.query_ms_per_query": (ms_per_query("query"), "ms"),
        "trace.overhead_ratio": (
            (timed.cpu_ns / count) / (base.cpu_ns / len(base.ops)), "ratio"),
        "trace.self_time_gap_ratio": (gap, "ratio"),
    }


def write_trace(name: str, spans: list) -> None:
    RESULTS.mkdir(exist_ok=True)
    keys = ("id", "name", "start_ns", "end_ns", "parent", "query_id")
    rows = [dict(zip(keys, span)) for span in spans]
    (RESULTS / f"trace-{name}.json").write_text(json.dumps(rows))


def run_traced(
    name: str,
    seed: int,
    *,
    seconds: Optional[float] = None,
    ops: Optional[int] = None,
) -> dict:
    """The same seeded operations twice, plain and under spans, block by
    block in turn — so a slow minute on the box slows both alike and
    ``trace.overhead_ratio`` compares like with like.  Half of ``seconds``
    goes to each."""
    plain = workloads.WORKLOADS[name](seed)
    recorder = Recorder()
    traced = TRACED[name](seed, recorder)
    plain.setup()
    setup = traced.setup()
    # set-up spans (populate, warm pass) are not the timed phase's
    set_up_spans = len(recorder.spans)
    registry = traced.env.registry
    registry.calls = registry.redundant = 0
    traced.plans = traced.candidates = 0
    try:
        base = runner.Pass(plain, seconds=seconds / 2 if seconds else None, ops=ops)
        timed = runner.Pass(traced, ops=ops)
        while base.step():
            timed.step()
        sinks = sink_overheads(plain) if name == "nav_cold" else (0.0, 0.0)
    finally:
        plain.close()
        traced.close()
    spans = recorder.spans[set_up_spans:]
    write_trace(name, spans)
    base, timed = base.finish(), timed.finish()
    return runner.report(
        [base, timed], per_layer(base, timed, traced, setup, spans, sinks)
    )
