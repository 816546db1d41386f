"""Local chat-completions endpoint for the `llm` workload.

Run as its own process: ``python3 perfbench/endpoint.py``.  It binds an
ephemeral port on 127.0.0.1 and prints ``PORT <n>`` as its first stdout
line.  Every reply is a pure function of the prompt's user message, so a
rerun serves the same bytes:

* one prompt in eight gets HTTP 503 on its first attempt (the client's
  retry path); the next attempt succeeds;
* one reply in sixteen is prose with no JSON array;
* one element in ten is malformed: an unknown format, or an MCQ answer
  that is not among its options.

``GET /stats`` returns the counts of requests, injected 503s and valid and
malformed elements served since the last ``POST /reset``, which also
forgets which prompts have had their first attempt.
"""

from __future__ import annotations

import json
import re
import sys
import threading
from hashlib import blake2b
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

FAIL_FIRST_EVERY = 8
PROSE_EVERY = 16
MALFORMED_EVERY = 10

_REQUESTED = re.compile(r"^- (\d+) (open|binary|mcq) question\(s\) about (.+)$", re.MULTILINE)
_CONTEXT_WORD = re.compile(r"[a-z]{5,}")

_OPTION_SETS = (
    ("Calm", "Driving", "Playful", "Brooding"),
    ("Verse", "Chorus", "Bridge", "Outro"),
    ("Sparse", "Layered", "Dense", "Minimal"),
    ("Rising", "Falling", "Arched", "Flat"),
)


def _hash(*parts: str) -> int:
    h = blake2b(digest_size=8)
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "big")


def _element(user: str, index: int, fmt: str, dim: str, word: str) -> tuple[dict, bool]:
    """One response element and whether it is valid."""
    h = _hash(user, str(index))
    malformed = h % MALFORMED_EVERY == 0
    if fmt == "open":
        element = {"question": f"How does the {dim} shape the {word} in this clip?",
                   "format": "open", "answer": f"The {dim} frames the {word} clearly."}
    elif fmt == "binary":
        element = {"question": f"Is the {dim} of this clip tied to its {word}?",
                   "format": "binary", "answer": "Yes" if h >> 8 & 1 else "No"}
    else:
        options = list(_OPTION_SETS[h >> 8 & 3])
        element = {"question": f"Which word best fits the {dim} of this {word}?",
                   "format": "mcq", "options": options, "answer": options[h >> 12 & 3]}
    element["dimension"] = dim
    if malformed:
        if fmt == "mcq":
            element["answer"] = "None of these"
        else:
            element["format"] = "essay"
    return element, not malformed


def reply_for(user: str) -> tuple[str, int, int]:
    """Assistant content for a prompt, with its valid and malformed element counts."""
    h = _hash(user)
    if (h >> 16) % PROSE_EVERY == 0:
        return "I could not find enough detail in this description to write questions.", 0, 1
    words = _CONTEXT_WORD.findall(user.split("Examples:")[0].lower()) or ["sound"]
    elements, valid = [], 0
    for line in _REQUESTED.finditer(user):
        count, fmt, dim = int(line.group(1)), line.group(2), line.group(3)
        for k in range(count):
            word = words[(len(elements) * 7 + k) % len(words)]
            element, ok = _element(user, len(elements), fmt, dim, f"{word} {k + 1}")
            elements.append(element)
            valid += ok
    return "Here are the pairs:\n" + json.dumps(elements, indent=1), valid, len(elements) - valid


class State:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.seen: set[int] = set()
        self.counts = {"requests": 0, "injected_503": 0, "valid": 0, "malformed": 0}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # headers and body go out in two writes; without this, delayed ACKs
    # stall each keep-alive reply for tens of milliseconds
    disable_nagle_algorithm = True
    state: State

    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        with self.state.lock:
            counts = dict(self.state.counts)
        self._send(200, counts)

    def do_POST(self):
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        state = self.state
        if self.path == "/reset":
            with state.lock:
                state.reset()
            self._send(200, {"ok": True})
            return
        if self.path != "/v1/chat/completions":
            self._send(404, {"error": "not found"})
            return
        user = json.loads(raw)["messages"][-1]["content"]
        key = _hash(user)
        with state.lock:
            state.counts["requests"] += 1
            fail = key % FAIL_FIRST_EVERY == 0 and key not in state.seen
            state.seen.add(key)
            if fail:
                state.counts["injected_503"] += 1
        if fail:
            self._send(503, {"error": "overloaded"})
            return
        content, valid, malformed = reply_for(user)
        with state.lock:
            state.counts["valid"] += valid
            state.counts["malformed"] += malformed
        self._send(200, {"choices": [{"index": 0, "message": {"role": "assistant", "content": content}}]})

    def log_message(self, *args):
        pass


def main() -> int:
    Handler.state = State()
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
