"""Local chat-completions server answering from an oracle transcript.

It runs in a thread of the benchmark's own process, listens on
127.0.0.1 only, answers each request by the prompt hash the gateway
computes, sleeps a fixed latency before replying, and logs every
request's service time so the traced run can split a query's client
time into provider time and transport. Import it after ``common.use_checkout()``.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from solscout.gateway import prompt_sha256


class _Handler(BaseHTTPRequestHandler):
    server: "_Server"

    def do_POST(self):
        started = time.perf_counter()
        provider = self.server.provider
        length = int(self.headers.get("Content-Length", 0))
        messages = json.loads(self.rfile.read(length))["messages"]
        answer = provider.answers.get(prompt_sha256(messages[0]["content"],
                                                    messages[1]["content"]))
        time.sleep(provider.latency)
        if answer is None:
            self.send_response(404)
            self.send_header("Content-Length", "0")
            self.end_headers()
        else:
            content, tokens_in, tokens_out = answer
            body = json.dumps({
                "choices": [{"message": {"content": content}}],
                "usage": {"prompt_tokens": tokens_in, "completion_tokens": tokens_out},
            }).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        provider.log(time.perf_counter() - started)

    def log_message(self, *args):
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = False  # server_close() joins every handler thread
    provider: "FakeProvider"


class FakeProvider:
    """Serve ``transcript_path``'s answers at ``endpoint`` until ``close()``."""

    def __init__(self, transcript_path: str, latency: float):
        self.latency = latency
        self.answers = {}
        with open(transcript_path, "r", encoding="utf-8") as fh:
            for line in fh:
                raw = json.loads(line)
                self.answers[raw["prompt_sha256"]] = (
                    raw["response"], raw["tokens_in"], raw["tokens_out"],
                )
        self._lock = threading.Lock()
        self._service: list = []
        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._server.provider = self
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="fake-provider")
        self._thread.start()

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self._server.server_address[1]}/v1/chat/completions"

    def log(self, seconds: float) -> None:
        with self._lock:
            self._service.append(seconds)

    def take_service_log(self) -> list:
        """Service times logged since the last call, and clear them."""
        with self._lock:
            taken, self._service = self._service, []
        return taken

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
