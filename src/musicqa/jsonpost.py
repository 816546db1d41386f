"""JSON POSTs over keep-alive connections, on the standard library alone.

``JsonPoster(url, timeout_s).post(payload, headers)`` sends
``json.dumps(payload, allow_nan=False)`` and returns ``(status, body)``.
Each thread keeps one connection to the URL's host and reuses it.  When a
reused connection turns out to have been closed by the server while it sat
idle, the request goes out once more on a fresh connection; that resend is
part of the same ``post``.  ``json_headers(token_env)`` builds the headers
for such a request.  Every other failure is raised as it comes:
``TimeoutError`` on a timeout, another ``OSError`` or an
``http.client.HTTPException`` from the transport, ``ValueError`` for a URL
or payload that cannot be sent.

Connections go straight to the host: no ``HTTP(S)_PROXY`` variable is read.
HTTPS verifies certificates against the system CA store
(``ssl.create_default_context``).  ``http.client`` is imported on the first
connection, so importing this module loads no HTTP code.
"""

from __future__ import annotations

import json
import os
import threading
from functools import cached_property
from urllib.parse import urlsplit


def json_headers(token_env: str) -> dict:
    """A JSON Content-Type, plus a Bearer token when the variable ``token_env`` is set."""
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(token_env)
    if token:
        headers["Authorization"] = f"Bearer {token}"
    return headers


class JsonPoster:
    def __init__(self, url: str, timeout_s: float):
        self.url = url
        self.timeout_s = timeout_s
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: list = []

    @cached_property
    def _address(self) -> tuple[bool, str, int, str]:
        """(https?, host, port, request target); ValueError for an unusable URL."""
        parts = urlsplit(self.url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"unsupported URL {self.url!r}: need http:// or https:// and a host")
        https = parts.scheme == "https"
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        return https, parts.hostname, parts.port or (443 if https else 80), target

    def _connection(self):
        conn = getattr(self._local, "conn", None)
        if conn is None:
            import http.client

            https, host, port, _ = self._address
            if https:
                import ssl

                conn = http.client.HTTPSConnection(
                    host, port, timeout=self.timeout_s, context=ssl.create_default_context()
                )
            else:
                conn = http.client.HTTPConnection(host, port, timeout=self.timeout_s)
            self._local.conn = conn
            with self._lock:
                self._open.append(conn)
        return conn

    def post(self, payload, headers: dict) -> tuple[int, bytes]:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        conn = self._connection()
        # http.client drops the socket after a reply that ends the connection,
        # so a socket still held here has served a request and may have gone stale
        reused = conn.sock is not None
        try:
            return self._exchange(conn, body, headers)
        except ConnectionError:
            if not reused:
                raise
        return self._exchange(conn, body, headers)

    def _exchange(self, conn, body: bytes, headers: dict) -> tuple[int, bytes]:
        try:
            conn.request("POST", self._address[3], body, headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        except BaseException:
            # a half-finished exchange leaves the connection unusable; the
            # next request on it opens a new socket
            conn.close()
            raise

    def close(self) -> None:
        """Close every connection; a later ``post`` opens a new one."""
        with self._lock:
            conns, self._open = self._open, []
            self._local = threading.local()
        for conn in conns:
            conn.close()
