"""Loopback OpenAI-compatible completions stub for the llm-http workload.

Answers ``POST /v1/completions`` with ``heuristic_prompt_reply(prompt)``, so
an ``LlmPolicy(HttpBackend(url))`` behind it decides exactly as the
heuristic policy does.  ``prompt`` may be a string or a list of strings (the
batched form of the completions API, so the workload keeps running when the
gateway batches its requests); each reply carries its ``index``.  The server counts the
requests, the connections that carried them, and the malformed requests.

The handler speaks HTTP/1.0 and so closes every connection after one
answer, the way the stdlib server does by default.  The benchmark serves it
from a thread of the workload process, so client and server share that
process's clock speed.
"""

from __future__ import annotations

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Iterator


class CompletionStub(HTTPServer):
    """Single-threaded stub server; one client at a time (closed loop)."""

    def __init__(self, reply, address=("127.0.0.1", 0)):
        super().__init__(address, _Handler)
        self.reply = reply
        self.requests = 0
        self.connections = 0
        self.errors = 0

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    def stats(self) -> dict:
        return {"requests": self.requests, "connections": self.connections, "errors": self.errors}


class _Handler(BaseHTTPRequestHandler):
    server: CompletionStub
    _counted = False

    def log_message(self, format, *args):  # keep the benchmark's stdout clean
        pass

    def _send_json(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self):
        server = self.server
        server.requests += 1
        if not self._counted:
            self._counted = True
            server.connections += 1
        try:
            length = int(self.headers.get("Content-Length", 0))
            prompt = json.loads(self.rfile.read(length))["prompt"]
            prompts = [prompt] if isinstance(prompt, str) else list(prompt)
            if self.path != "/v1/completions" or not all(isinstance(p, str) for p in prompts):
                raise ValueError("bad request")
        except (ValueError, KeyError, TypeError):
            server.errors += 1
            self._send_json(400, {"error": "bad request"})
            return
        choices = [{"index": i, "text": server.reply(p)} for i, p in enumerate(prompts)]
        self._send_json(200, {"choices": choices})



@contextlib.contextmanager
def serving(reply) -> Iterator[CompletionStub]:
    """Serve from a thread for the length of the block, then stop and join it."""
    server = CompletionStub(reply)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
