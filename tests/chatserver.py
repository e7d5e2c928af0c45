"""A scripted local chat-completions server for transport tests.

``ChatServer`` is an HTTP/1.1 ``ThreadingHTTPServer`` on 127.0.0.1, over
TLS when given a server context. It records every request it reads,
counts the connections it accepts and the ones it saw end, and answers
each request with the ``(status, body)`` pair that its
``respond(request)`` function returns. A CONNECT answered with 200
becomes a tunnel to the requested address, so the server doubles as a
proxy.
"""

from __future__ import annotations

import json
import select
import socket
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from solscout.gateway import prompt_sha256


@dataclass
class Request:
    method: str
    target: str
    headers: dict
    body: bytes

    def json(self):
        return json.loads(self.body)


def chat_body(content: str, usage: dict | None = None) -> str:
    return json.dumps({"choices": [{"message": {"content": content}}], "usage": usage or {}})


def in_order(*replies):
    """``respond`` giving ``replies`` one per request; the last one repeats."""
    pending = list(replies)
    lock = threading.Lock()

    def respond(request):
        with lock:
            return pending.pop(0) if len(pending) > 1 else pending[0]

    return respond


def by_prompt(transcript, usage: dict | None = None):
    """``respond`` answering a prompt with its response in ``transcript``, else 404."""
    answers = {ex.prompt_sha256: ex.response for ex in transcript.entries.values()}

    def respond(request):
        messages = request.json()["messages"]
        content = answers.get(prompt_sha256(messages[0]["content"], messages[1]["content"]))
        return (404, "") if content is None else (200, chat_body(content, usage))

    return respond


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # headers and body go out in two writes
    timeout = 10  # a connection the client never closes still ends its thread
    server: "_Server"

    def setup(self):
        chat = self.server.chat
        if chat.tls is not None:  # a refused handshake counts as no connection
            self.request.settimeout(self.timeout)
            self.request = chat.tls.wrap_socket(self.request, server_side=True)
        chat._opened()
        super().setup()

    def finish(self):
        try:
            super().finish()
            if self.server.chat.tls is not None:
                self.request.close()  # wrapping detached the socket the server closes
        finally:
            self.server.chat._ended()

    def do_POST(self):
        self._answer(self.rfile.read(int(self.headers.get("Content-Length", 0))))

    def do_CONNECT(self):
        if self._answer(b"") == 200:
            host, port = self.path.rsplit(":", 1)
            with socket.create_connection((host, int(port)), self.timeout) as upstream:
                _pipe(self.connection, upstream, self.timeout)
            self.close_connection = True

    def _answer(self, body: bytes) -> int:
        chat = self.server.chat
        request = Request(self.command, self.path, dict(self.headers), body)
        with chat.lock:
            chat.requests.append(request)
        status, text = chat.respond(request)
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        return status

    def log_message(self, *args):
        pass


def _pipe(client, upstream, timeout: float) -> None:
    """Copy bytes both ways until either side closes or goes quiet."""
    peers = {client: upstream, upstream: client}
    while True:
        # a TLS client may hold decrypted bytes that select cannot see
        ready = [client] if getattr(client, "pending", lambda: 0)() else \
            select.select(list(peers), [], [], timeout)[0]
        if not ready:
            return
        for sock in ready:
            data = sock.recv(65536)
            if not data:
                return
            peers[sock].sendall(data)


class _Server(ThreadingHTTPServer):
    block_on_close = False
    chat: "ChatServer"

    def handle_error(self, request, client_address):
        pass  # a refused handshake or a dropped tunnel ends that connection only


class ChatServer:
    """Serve ``respond``'s replies at ``url`` until ``close()``; over TLS with ``tls``."""

    def __init__(self, respond, tls=None):
        self.respond = respond
        self.tls = tls
        self.requests: list[Request] = []
        self.accepted = 0
        self.ended = 0
        self.lock = threading.Condition()
        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._server.chat = self
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.02,),
                                        name="chat-server", daemon=True)
        self._thread.start()

    @property
    def base(self) -> str:
        scheme = "http" if self.tls is None else "https"
        return f"{scheme}://127.0.0.1:{self._server.server_address[1]}"

    @property
    def url(self) -> str:
        return self.base + "/v1/chat/completions"

    def _opened(self) -> None:
        with self.lock:
            self.accepted += 1

    def _ended(self) -> None:
        with self.lock:
            self.ended += 1
            self.lock.notify_all()

    def wait_ended(self, count: int, timeout: float = 5.0) -> bool:
        """Wait until ``count`` connections have ended; False on timeout."""
        with self.lock:
            return self.lock.wait_for(lambda: self.ended >= count, timeout)

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(5.0)
