"""The HTTP provider: an answerer that asks a chat-completions endpoint.

``HttpProvider(config)`` is called as ``(asked, system, user)`` and
answers with ``asked`` filled in, like every answerer the gateway takes.
The provider plans its route, reads its API key and builds its request
headers once, when it is built; each query is then one request on its
own connection, sent directly, through an HTTP proxy, or tunnelled
through one. The network modules are imported when a provider is built,
never by a replay. How many queries are in flight at once is up to the
caller: a scan asks from ``max_in_flight`` worker threads.
"""

from __future__ import annotations

import io
import json
import os
import time
from dataclasses import dataclass, replace

from .errors import ProviderError, ProviderUnavailable
from .prompts import estimate_tokens


@dataclass
class ProviderConfig:
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model: str = "gpt-3.5-turbo"
    temperature: float = 0.0
    max_context_tokens: int = 4096
    price_in_per_1k: float = 0.0
    price_out_per_1k: float = 0.0
    api_key_env: str = "SOLSCOUT_API_KEY"
    timeout: float = 60.0
    max_in_flight: int = 4  # worker threads a live or record scan asks from


# statuses that say the key, the endpoint or the proxy is wrong, not the query
REFUSED_EVERY_QUERY = frozenset({401, 403, 404, 407})


class HttpProvider:
    """Asks ``config.endpoint`` each query, retrying a failed request with backoff.

    The route, the API key and the request headers are resolved once, by
    the constructor, which raises ``ProviderUnavailable`` when the key is
    not set or the endpoint or proxy cannot be reached by any route.
    After that a call changes nothing the provider holds, so threads may
    call it at once; each request runs on its caller's thread.
    """

    RETRIES = 3
    BACKOFF_BASE = 1.0

    def __init__(self, config: ProviderConfig, sleeper=time.sleep):
        self.config = config
        self._sleep = sleeper
        key = os.environ.get(config.api_key_env, "")
        if not key:
            raise ProviderUnavailable(f"API key env var {config.api_key_env} is not set")
        self._open_connection, self._target, route_headers = \
            _plan_route(config.endpoint, config.timeout)
        self._headers = {
            "Authorization": f"Bearer {key}",
            "Content-Type": "application/json",
            **route_headers,
        }

    def __call__(self, asked, system: str, user: str):
        """``asked`` with the provider's answer to ``user``, its usage and latency.

        Usage the reply leaves out is estimated with ``estimate_tokens``.
        """
        import http.client

        body = json.dumps({
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
        }).encode("utf-8")
        last_error = None
        for attempt in range(self.RETRIES):
            if attempt:
                self._sleep(self.BACKOFF_BASE * (2 ** (attempt - 1)))
            try:
                started = time.monotonic()
                status, text = self._post(body)
            except (OSError, http.client.HTTPException) as exc:
                last_error = ProviderUnavailable(f"request failed: {exc}")
                continue
            latency = time.monotonic() - started
            if status >= 500 or status == 429:
                last_error = ProviderUnavailable(f"provider returned {status}")
                continue
            if status != 200:
                error = ProviderUnavailable if status in REFUSED_EVERY_QUERY else ProviderError
                raise error(f"provider returned {status}: {text[:200]}")
            try:
                reply = json.loads(text)
                content = reply["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise ProviderError(f"malformed provider response: {exc}") from exc
            usage = reply.get("usage") or {}
            tokens_in = int(usage.get("prompt_tokens") or 0)
            tokens_out = int(usage.get("completion_tokens") or 0)
            # usage the reply does not report is estimated
            if tokens_in <= 0:
                tokens_in = estimate_tokens(system) + estimate_tokens(user)
            if tokens_out <= 0:
                tokens_out = estimate_tokens(content)
            return replace(asked, response=content, tokens_in=tokens_in,
                           tokens_out=tokens_out, latency=latency)
        raise last_error

    def _post(self, body: bytes):
        """POST ``body`` on a new connection, closed once the reply is read.

        Returns the status and the decoded reply body.
        """
        conn = self._open_connection()
        try:
            conn.request("POST", self._target, body, self._headers)
            response = conn.getresponse()
            return response.status, response.read().decode("utf-8", "replace")
        finally:
            conn.close()


_DEFAULT_PORTS = {"http": 80, "https": 443}


def _plan_route(endpoint: str, timeout: float):
    """How each query reaches ``endpoint``: (open a connection, request target, headers).

    The proxy that ``http_proxy``/``https_proxy``, else ``all_proxy``,
    names is used unless ``no_proxy`` lists the host, and credentials in
    its URL go out as ``Proxy-Authorization``. An ``http`` endpoint is
    requested from the proxy by absolute URI, an ``https`` one through a
    CONNECT tunnel; an ``https://`` proxy is itself reached over TLS.
    Certificates are checked against ``REQUESTS_CA_BUNDLE`` or
    ``CURL_CA_BUNDLE`` (a file or a directory) when one is set, else
    against the system store, which ``SSL_CERT_FILE``/``SSL_CERT_DIR``
    override.
    """
    import base64
    import http.client
    from urllib.parse import unquote, urlsplit
    from urllib.request import getproxies, proxy_bypass

    try:
        url = urlsplit(endpoint)
        host, port = url.hostname, url.port or _DEFAULT_PORTS.get(url.scheme)
        proxies = getproxies()
        proxy = proxies.get(url.scheme) or proxies.get("all")
        via = None
        if proxy and host and not proxy_bypass(host):
            via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            via_port = via.port or _DEFAULT_PORTS.get(via.scheme)
    except ValueError as exc:
        raise ProviderUnavailable(f"bad provider endpoint or proxy: {exc}") from None
    if url.scheme not in _DEFAULT_PORTS or not host:
        raise ProviderUnavailable(f"unsupported provider endpoint: {endpoint!r}")
    if via is not None and (via.scheme not in _DEFAULT_PORTS or not via.hostname):
        raise ProviderUnavailable(f"unsupported proxy: {proxy!r}")
    path = (url.path or "/") + (f"?{url.query}" if url.query else "")
    tls = url.scheme == "https" or (via is not None and via.scheme == "https")
    context = _tls_context() if tls else None

    auth = {}
    if via is not None and via.username is not None:
        credentials = f"{unquote(via.username)}:{unquote(via.password or '')}"
        auth["Proxy-Authorization"] = \
            "Basic " + base64.b64encode(credentials.encode("utf-8")).decode("ascii")

    def connection(scheme, host, port):
        if scheme == "http":
            return http.client.HTTPConnection(host, port, timeout=timeout)
        return http.client.HTTPSConnection(host, port, timeout=timeout, context=context)

    def open_connection():
        if via is None:
            return connection(url.scheme, host, port)
        if url.scheme == "http":
            return connection(via.scheme, via.hostname, via_port)
        if via.scheme == "http":
            conn = connection("https", via.hostname, via_port)
            conn.set_tunnel(host, port, headers=auth)
            return conn
        conn = connection("https", host, port)
        conn.sock = _tls_in_tls(via.hostname, via_port, host, port, auth, context, timeout)
        return conn

    if via is not None and url.scheme == "http":
        return open_connection, endpoint, auth
    return open_connection, path, {}


def _tls_context():
    import ssl

    bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    try:
        if not bundle:
            return ssl.create_default_context()
        if os.path.isdir(bundle):
            return ssl.create_default_context(capath=bundle)
        return ssl.create_default_context(cafile=bundle)
    except OSError as exc:
        raise ProviderUnavailable(f"cannot load CA bundle {bundle}: {exc}") from None


def _tls_in_tls(proxy_host, proxy_port, host, port, auth, context, timeout):
    """A TLS session to ``host`` tunnelled through an ``https://`` proxy."""
    import http.client
    import socket

    outer = context.wrap_socket(socket.create_connection((proxy_host, proxy_port), timeout),
                                server_hostname=proxy_host)
    try:
        lines = [f"CONNECT {host}:{port} HTTP/1.1", f"Host: {host}:{port}"]
        lines += [f"{name}: {value}" for name, value in auth.items()]
        outer.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        reply = http.client.HTTPResponse(outer, method="CONNECT")
        reply.begin()  # the proxy sends nothing after the header until we do
        reply.close()
        if reply.status != 200:
            raise OSError(f"Tunnel connection failed: {reply.status} {reply.reason}")
        return _NestedTls(outer, context, host)
    except BaseException:
        outer.close()
        raise


class _NestedTls(io.RawIOBase):
    """A TLS session run inside another one, which ``ssl`` cannot wrap twice.

    It offers what ``http.client`` uses of a socket: ``sendall``,
    ``makefile`` and ``close``.
    """

    def __init__(self, outer, context, hostname: str):
        import ssl

        super().__init__()
        self._outer = outer
        self._incoming, self._outgoing = ssl.MemoryBIO(), ssl.MemoryBIO()
        self._tls = context.wrap_bio(self._incoming, self._outgoing,
                                     server_hostname=hostname)
        self._run(self._tls.do_handshake)

    def _run(self, operation, *args):
        """``operation`` on the inner session, its bytes carried by the outer one."""
        import ssl

        while True:
            try:
                result = operation(*args)
            except ssl.SSLWantReadError:
                self._outer.sendall(self._outgoing.read())
                data = self._outer.recv(65536)
                if data:
                    self._incoming.write(data)
                else:
                    self._incoming.write_eof()
                continue
            pending = self._outgoing.read()
            if pending:
                self._outer.sendall(pending)
            return result

    def sendall(self, data) -> None:
        view = memoryview(data)
        while view:
            view = view[self._run(self._tls.write, view):]

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        import ssl

        try:
            return self._run(self._tls.read, len(buffer), buffer)
        except ssl.SSLZeroReturnError:
            return 0

    def makefile(self, *_args):
        return io.BufferedReader(self)

    def close(self) -> None:
        self._outer.close()
        super().close()
