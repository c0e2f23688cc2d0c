"""Tests for the simulated web substrate (server, client, access log)."""

import pytest

from repro.clock import SimClock
from repro.errors import ResourceNotFound, WebError
from repro.web.client import WebClient
from repro.web.server import SimulatedWebServer


@pytest.fixture()
def server():
    s = SimulatedWebServer(SimClock())
    s.publish("http://x/a.html", "<html>a</html>", page_scheme="A")
    s.publish("http://x/b.html", "<html>bb</html>", page_scheme="B")
    return s


@pytest.fixture()
def client(server):
    return WebClient(server)


class TestServer:
    def test_publish_and_resource(self, server):
        res = server.resource("http://x/a.html")
        assert res.html == "<html>a</html>"
        assert res.page_scheme == "A"

    def test_publish_stamps_date(self, server):
        before = server.resource("http://x/a.html").last_modified
        server.update("http://x/a.html", "<html>a2</html>")
        after = server.resource("http://x/a.html").last_modified
        assert after > before

    def test_publish_empty_url_rejected(self, server):
        with pytest.raises(WebError):
            server.publish("", "x")

    def test_update_unknown_rejected(self, server):
        with pytest.raises(ResourceNotFound):
            server.update("http://x/nope.html", "x")

    def test_delete(self, server):
        server.delete("http://x/a.html")
        assert not server.exists("http://x/a.html")
        with pytest.raises(ResourceNotFound):
            server.resource("http://x/a.html")

    def test_delete_unknown_rejected(self, server):
        with pytest.raises(ResourceNotFound):
            server.delete("http://x/nope.html")

    def test_touch_bumps_date_keeps_content(self, server):
        before = server.resource("http://x/a.html")
        old_html, old_date = before.html, before.last_modified
        server.touch("http://x/a.html")
        after = server.resource("http://x/a.html")
        assert after.html == old_html
        assert after.last_modified > old_date

    def test_urls_sorted(self, server):
        assert list(server.urls()) == ["http://x/a.html", "http://x/b.html"]

    def test_urls_of_scheme(self, server):
        assert server.urls_of_scheme("A") == ["http://x/a.html"]
        assert server.urls_of_scheme("Z") == []

    def test_len(self, server):
        assert len(server) == 2


class TestClient:
    def test_get_counts_downloads_and_bytes(self, client):
        res = client.get("http://x/a.html")
        assert res.html == "<html>a</html>"
        assert client.log.page_downloads == 1
        assert client.log.bytes_downloaded == len("<html>a</html>")
        assert client.log.downloaded_urls == ["http://x/a.html"]

    def test_get_missing_counts_failure(self, client):
        with pytest.raises(ResourceNotFound):
            client.get("http://x/nope.html")
        assert client.log.failed_requests == 1
        assert client.log.page_downloads == 0

    def test_repeated_get_counts_twice(self, client):
        client.get("http://x/a.html")
        client.get("http://x/a.html")
        assert client.log.page_downloads == 2  # dedup is the session's job

    def test_head_counts_light_connection(self, client):
        head = client.head("http://x/a.html")
        assert head.ok
        assert head.last_modified > 0
        assert client.log.light_connections == 1
        assert client.log.page_downloads == 0

    def test_head_missing_reports_not_ok(self, client):
        head = client.head("http://x/nope.html")
        assert not head.ok
        assert head.last_modified == 0

    def test_head_sees_updates(self, client, server):
        first = client.head("http://x/a.html").last_modified
        server.update("http://x/a.html", "<html>v2</html>")
        second = client.head("http://x/a.html").last_modified
        assert second > first


class TestAccessLog:
    def test_snapshot_delta(self, client):
        client.get("http://x/a.html")
        snap = client.log.snapshot()
        client.get("http://x/b.html")
        client.head("http://x/a.html")
        delta = client.log.delta(snap)
        assert delta.page_downloads == 1
        assert delta.light_connections == 1
        assert delta.downloaded_urls == ["http://x/b.html"]

    def test_snapshot_is_frozen(self, client):
        snap = client.log.snapshot()
        client.get("http://x/a.html")
        assert snap.page_downloads == 0

    def test_snapshot_is_constant_size_and_delta_is_unchanged(self, client):
        """A per-query mark must cost neither a copy of the log nor its
        history: the snapshot holds numbers only, a log without marks keeps
        every entry, and taking a mark folds the entries before it into the
        tallies ``reconcile`` reads — the delta is what it always was."""
        urls = ["http://x/a.html", "http://x/b.html", "http://x/missing.html"]
        for i in range(10_000):
            try:
                client.get(urls[i % 3])
            except ResourceNotFound:
                pass
        log = client.log
        assert (len(log.downloaded_urls), len(log.records)) == (6_667, 10_000)
        snap = log.snapshot()
        assert all(type(v) in (int, float) for v in vars(snap).values())
        assert log.downloaded_urls == [] and log.records == []
        assert (log.page_downloads, log.failed_requests) == (6_667, 3_333)
        assert log.reconcile() == []
        client.get_batch(urls)
        client.head(urls[0])
        delta = log.delta(snap)
        assert delta.downloaded_urls == log.downloaded_urls == urls[:2]
        assert delta.records == log.records
        assert [r.url for r in delta.records] == urls
        assert (delta.page_downloads, delta.light_connections) == (2, 1)
        assert delta.reconcile() == [] and log.reconcile() == []

    def test_lists_reach_back_to_the_oldest_live_mark(self, client):
        """20 000 fetches in marked rounds: the lists hold the rounds some
        live mark can still ask for, never the client's history; every
        delta is complete, the counters and ``reconcile`` stay exact."""
        urls = ["http://x/a.html", "http://x/b.html", "http://x/missing.html"]
        log = client.log
        held = log.snapshot()  # an outer mark, as run_shared's: keeps all
        for round_ in range(1, 101):
            inner = log.snapshot()
            assert client.get_batch(urls * 2)[urls[2]] is None
            assert [r.url for r in log.delta(inner).records] == urls
            assert len(log.records) == 3 * round_
        assert len(log.delta(held).downloaded_urls) == 200
        del held, inner
        for round_ in range(101, 6_668):
            before = log.snapshot()
            # at most the round before: ``before`` still named its mark
            assert len(log.records) <= 3 and len(log.downloaded_urls) <= 2
            client.get_batch(urls)
            delta = log.delta(before)
            assert delta.downloaded_urls == urls[:2]
            assert [(r.url, r.ok) for r in delta.records] == list(
                zip(urls, (True, True, False))
            )
            assert delta.reconcile() == []
        assert len(log.records) == 6
        assert (log.page_downloads, log.failed_requests) == (13_334, 6_667)
        assert log.attempts == 20_001
        assert log.reconcile() == []
        log.page_downloads += 1  # reconcile still sees the retired entries
        assert len(log.reconcile()) == 2

    def test_marks_taken_from_other_threads_lose_nothing(self, client):
        """One thread fetches, five take marks and deltas as fast as they
        can: a retirement counted twice or a delta cut short would show in
        ``reconcile`` or in a delta that does not reconcile."""
        import sys
        import threading

        log, done, problems = client.log, threading.Event(), []

        def mark_and_read():
            while not done.is_set():
                mark = log.snapshot()
                delta = log.delta(mark)
                # the fetching thread accounts each fetch under the log's
                # lock, so a delta never sees a counter without its record
                if delta.page_downloads != len(delta.records) or delta.reconcile():
                    problems.append(delta)

        threads = [threading.Thread(target=mark_and_read) for _ in range(5)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for i in range(3_000):
                client.get("http://x/a.html" if i % 2 else "http://x/b.html")
            done.set()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []
        assert log.page_downloads == 3_000 and len(log.records) < 3_000
        assert log.reconcile() == []

    def test_reset(self, client):
        client.get("http://x/a.html")
        client.log.reset()
        assert client.log.page_downloads == 0
        assert client.log.bytes_downloaded == 0
        assert client.log.downloaded_urls == []

    def test_independent_clients_account_separately(self, server):
        c1, c2 = WebClient(server), WebClient(server)
        c1.get("http://x/a.html")
        assert c2.log.page_downloads == 0


class TestLogLockCharges:
    def test_concurrent_charges_all_land(self):
        """Every simulated-seconds charge is a ``+=`` under the log lock:
        k-lane HEAD batches, k-lane GET batches, single HEADs and a
        pipelined query's makespan, racing on one log at a 1 µs switch
        interval, add up to the sum of the charges.  All charges are
        dyadic, so the sum is exact in any order."""
        import sys
        import threading

        from repro.engine.pipeline import PrefetchScheduler
        from repro.web.cache import NO_CACHE
        from repro.web.client import FetchConfig
        from repro.web.network import NetworkModel

        server = SimulatedWebServer(SimClock())
        urls = [f"http://x/{i}.html" for i in range(4)]
        for url in urls:
            server.publish(url, "x" * 256)
        client = WebClient(
            server, network=NetworkModel(rtt_seconds=0.25, bytes_per_second=1024)
        )
        rounds = 200

        def heads():
            for _ in range(rounds):
                client.head_batch(urls, workers=2)  # 2 × 0.25

        def head():
            for _ in range(rounds):
                client.head(urls[0])  # 0.25

        def gets():
            for _ in range(rounds):  # 2 lanes × 2 pages × 0.5
                client.get_batch(urls, FetchConfig(max_workers=2), cache=NO_CACHE)

        def pipelined():
            for _ in range(rounds):
                scheduler = PrefetchScheduler(client.log, lanes=2)
                scheduler.timeline.add(0.75)
                scheduler.finalize()  # 0.75

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=f) for f in (heads, head, gets, pipelined)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert client.log.simulated_seconds == rounds * (0.5 + 0.25 + 1.0 + 0.75)
        assert client.log.light_connections == rounds * 5
        assert client.log.reconcile() == []
