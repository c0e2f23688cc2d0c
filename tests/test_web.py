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
        """A per-query mark must not copy a log that grows for the life of
        the client: the snapshot holds numbers only, and ``delta`` slices
        the live lists from the remembered lengths — same result as the
        old copy-and-subtract."""
        urls = ["http://x/a.html", "http://x/b.html", "http://x/missing.html"]
        for i in range(10_000):
            try:
                client.get(urls[i % 3])
            except ResourceNotFound:
                pass
        log = client.log
        n_urls, n_records = len(log.downloaded_urls), len(log.records)
        snap = log.snapshot()
        assert all(type(v) in (int, float) for v in vars(snap).values())
        client.get_batch(urls)
        client.head(urls[0])
        delta = log.delta(snap)
        assert delta.downloaded_urls == log.downloaded_urls[n_urls:]
        assert delta.downloaded_urls == urls[:2]
        assert delta.records == log.records[n_records:]
        assert len(delta.records) == 3
        assert (delta.page_downloads, delta.light_connections) == (2, 1)
        assert delta.reconcile() == []

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
