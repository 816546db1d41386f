import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from musicqa.evalharness import EmbedderConfig, EmbedderError, HttpEmbedder
from musicqa.jsonpost import JsonPoster
from musicqa.llmgen import (
    LlmClient,
    LlmEndpointConfig,
    MusicDimension,
    RequestTimeoutError,
    TransportError,
    build_prompt,
    default_examples,
    generate_llm_dataset,
)
from musicqa.rulegen import QAFormat

from conftest import MockEndpoint, make_clip


class KeepAliveServer:
    """HTTP/1.1 server that counts the TCP connections it accepts and closes.

    With ``drop_idle`` it closes each connection after one reply without
    announcing it in the reply, as a server does when an idle keep-alive
    connection times out.
    """

    def __init__(self, drop_idle=False):
        self.connections = 0
        self.bodies: list[bytes] = []
        self.headers: list[dict] = []
        self.closed = threading.Semaphore(0)
        self._lock = threading.Lock()
        owner = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self):
                super().setup()
                with owner._lock:
                    owner.connections += 1

            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                with owner._lock:
                    owner.bodies.append(body)
                    owner.headers.append(dict(self.headers))
                data = json.dumps(MockEndpoint.chat_body("[]")).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                self.close_connection = drop_idle

            def log_message(self, *args):
                pass

        class Server(ThreadingHTTPServer):
            daemon_threads = True

            def shutdown_request(self, request):
                super().shutdown_request(request)
                owner.closed.release()

        self._server = Server(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def wait_closed(self, n: int) -> None:
        for _ in range(n):
            assert self.closed.acquire(timeout=5), "server connection still open"

    def close(self):
        self._server.shutdown()
        self._server.server_close()


class SilentServer:
    """Accepts connections, reads nothing and never answers."""

    def __init__(self):
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._held: list[socket.socket] = []
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self._held.append(conn)

    @property
    def url(self) -> str:
        return "http://127.0.0.1:%d" % self._sock.getsockname()[1]

    @property
    def connections(self) -> int:
        return len(self._held)

    def close(self):
        self._sock.close()
        for conn in self._held:
            conn.close()


@pytest.fixture
def keepalive():
    server = KeepAliveServer()
    yield server
    server.close()


@pytest.fixture
def dropping():
    server = KeepAliveServer(drop_idle=True)
    yield server
    server.close()


def refused_url() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


def client_for(url, sleeps=None, **overrides):
    config = LlmEndpointConfig(base_url=url, model="m", backoff_base_s=0.001,
                               backoff_cap_s=0.002, **overrides)
    return LlmClient(config, sleep=(sleeps.append if sleeps is not None else lambda s: None))


def spec_for(caption):
    clip = make_clip("clip-1", {"x"}, caption=caption)
    return build_prompt(clip, default_examples(), ((MusicDimension("mood"), QAFormat.OPEN, 1),))


def test_body_and_headers_match_a_json_post(keepalive):
    payload = {"texts": ["Jazz", "café"], "n": 1.5}
    poster = JsonPoster(keepalive.url + "/embed", timeout_s=5)
    status, body = poster.post(payload, {"Content-Type": "application/json",
                                         "Authorization": "Bearer k"})
    poster.close()
    assert status == 200 and json.loads(body) == MockEndpoint.chat_body("[]")
    assert keepalive.bodies == [json.dumps(payload, allow_nan=False).encode("utf-8")]
    assert keepalive.headers[0]["Content-Type"] == "application/json"
    assert keepalive.headers[0]["Authorization"] == "Bearer k"


def test_one_thread_reuses_one_connection(keepalive):
    poster = JsonPoster(keepalive.url, timeout_s=5)
    for i in range(5):
        assert poster.post({"i": i}, {})[0] == 200
    assert keepalive.connections == 1
    poster.close()
    keepalive.wait_closed(1)
    # a closed poster opens a new connection on its next request
    assert poster.post({"i": 5}, {})[0] == 200
    assert keepalive.connections == 2
    poster.close()


def test_run_opens_at_most_concurrency_connections_and_closes_them(keepalive):
    clips = [make_clip(f"clip-{i}", {"x"}, caption=f"Tune number {i}.") for i in range(12)]
    client = client_for(keepalive.url, concurrency=2)
    requested = ((MusicDimension("mood"), QAFormat.OPEN, 1),)
    _, report = generate_llm_dataset(clips, client, default_examples(), requested)
    assert report.failures == []
    assert client.network_calls == len(keepalive.bodies) == 12
    assert 1 <= keepalive.connections <= 2
    keepalive.wait_closed(keepalive.connections)


def test_idle_connection_closed_by_server_is_resent_once(dropping):
    sleeps = []
    client = client_for(dropping.url, sleeps)
    assert client.call(spec_for("First tune.")) == "[]"
    dropping.wait_closed(1)
    # the client still holds the dropped connection; this call finds it dead
    assert client.call(spec_for("Second tune.")) == "[]"
    assert client.network_calls == 2
    assert len(dropping.bodies) == 2
    assert dropping.connections == 2
    assert sleeps == []  # the resend is not a retry
    client.close()


def test_silent_server_times_out_after_max_retries():
    server = SilentServer()
    try:
        client = client_for(server.url, timeout_s=0.2, max_retries=2)
        with pytest.raises(RequestTimeoutError):
            client.call(spec_for("A tune."))
        assert client.network_calls == 3
        assert server.connections == 3  # a timed-out connection is not reused
        client.close()
    finally:
        server.close()


def test_refused_port_raises_transport_error():
    client = client_for(refused_url(), max_retries=1)
    with pytest.raises(TransportError, match="request failed"):
        client.call(spec_for("A tune."))
    assert client.network_calls == 2


def test_refused_port_raises_embedder_error():
    embedder = HttpEmbedder(EmbedderConfig(url=refused_url() + "/embed"))
    with pytest.raises(EmbedderError, match="embedding request failed"):
        embedder.embed(["Jazz"])


@pytest.mark.parametrize("url", ["localhost:8000", "ftp://example.invalid", "http://"])
def test_unusable_url_fails_at_call_time(url):
    client = client_for(url, max_retries=0)  # a warm run never needs the URL
    with pytest.raises(TransportError, match="unsupported URL"):
        client.call(spec_for("A tune."))


def test_non_finite_payload_is_not_sent(keepalive):
    client = client_for(keepalive.url, temperature=float("nan"), max_retries=0)
    with pytest.raises(TransportError, match="request failed"):
        client.call(spec_for("A tune."))
    assert keepalive.bodies == []
