"""Prompt construction, chat-completion transport, and answer parsing.

Every query is an independent two-message conversation (system + user);
no history ever leaks between queries. Exchanges are keyed by
(purpose, rule, function, prompt hash), plus the attempt for a retried
query, so a recorded transcript replays a scan bit-exactly with zero
network use. The network modules are imported by the first query sent,
never by a replay.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import threading
import time
from dataclasses import dataclass

from .errors import ProviderError, ProviderUnavailable, ReplayMiss, UnparseableAnswer
from .frontend import contains_identifier

SYSTEM_PROMPT = (
    "You are a smart contract auditor. You will be asked questions related "
    "to code properties. You can mimic answering them in the background five "
    "times and provide me with the most frequently appearing answer. "
    "Furthermore, please strictly adhere to the output format specified in "
    "the question; there is no need to explain your answer."
)

MODES = ("live", "record", "replay")


def system_prompt() -> str:
    return SYSTEM_PROMPT


def estimate_tokens(text: str) -> int:
    """Deterministic budget estimator: ceil(utf-8 bytes / 4)."""
    if not text:
        return 0
    return -(-len(text.encode("utf-8")) // 4)


def prompt_sha256(system: str, user: str) -> str:
    return hashlib.sha256((system + "\x00" + user).encode("utf-8")).hexdigest()


def exchange_key(purpose: str, rule_id: str, function_id: str, digest: str,
                 attempt: int = 0) -> tuple:
    """Transcript key; a retry of the same prompt gets one of its own."""
    key = (purpose, rule_id, function_id, digest)
    return key + (f"retry{attempt}",) if attempt else key


# ----------------------------------------------------------------------
# prompt builders


def build_scenario_prompt(scenarios: list, code: str) -> str:
    if not scenarios:
        raise ValueError("at least one scenario is required")
    shape = ", ".join(f'"{i}": "Yes" or "No"' for i in range(1, len(scenarios) + 1))
    questions = "\n".join(
        f'"{i}": {sentence}?' for i, sentence in enumerate(scenarios, 1)
    )
    return (
        "Given the following smart contract code, answer the questions below "
        f"and organize the result in a json format like {{{shape}}}.\n\n"
        f"{questions}\n\n{code}"
    )


def build_property_prompt(rule, code: str, scenario_index: int = 0) -> str:
    sentence = f"{rule.scenarios[scenario_index]} {rule.property}"
    return (
        f'Does the following smart contract code "{sentence}"? '
        f'Answer only "Yes" or "No".\n\n{code}'
    )


def build_recognition_prompt(recognition, code: str) -> str:
    lines = [
        f'In this function, {question} Please answer in a section starts with "{slot}:".'
        for slot, question in recognition.questions
    ]
    shape = ", ".join(
        f'"{slot}":{{"Variable name":"Description"}}' for slot in recognition.slots
    )
    lines.append(f"Please answer in the following json format: {{{shape}}}")
    return "\n".join(lines) + f"\n\n{code}"


# ----------------------------------------------------------------------
# answer parsing


_DECODER = json.JSONDecoder()


def _first_json_object(text: str):
    """The object decoded from the first ``{`` that starts one, or None.

    A nesting too deep to decode counts as no object there.
    """
    start = text.find("{")
    while start != -1:
        try:
            return _DECODER.raw_decode(text, start)[0]
        except (json.JSONDecodeError, RecursionError):
            start = text.find("{", start + 1)
    return None


_YES_NO_RE = re.compile(r"[A-Za-z]+")


def _as_yes(value) -> bool:
    return isinstance(value, str) and value.strip().strip(".!,").lower() == "yes"


def parse_scenario_answer(text: str, n: int) -> dict:
    """Map scenario index -> yes/no. Missing or garbled keys default to no."""
    obj = _first_json_object(text)
    if not isinstance(obj, dict):
        raise UnparseableAnswer(f"no JSON object in scenario answer: {text[:80]!r}")
    result = {}
    for i in range(1, n + 1):
        value = obj.get(str(i), obj.get(i))
        result[i] = _as_yes(value)
    return result


def parse_yes_no(text: str) -> bool:
    """First standalone yes/no token decides; anything else is unparseable."""
    for word in _YES_NO_RE.findall(text):
        lowered = word.lower()
        if lowered == "yes":
            return True
        if lowered == "no":
            return False
    raise UnparseableAnswer(f"no yes/no answer in: {text[:80]!r}")


def parse_recognition_answer(text: str, slots: list) -> dict:
    """Extract slot -> (name, description); absent slots are left out."""
    obj = _first_json_object(text)
    if not isinstance(obj, dict):
        raise UnparseableAnswer(f"no JSON object in recognition answer: {text[:80]!r}")
    out = {}
    for slot in slots:
        value = obj.get(slot)
        if isinstance(value, dict) and value:
            name, desc = next(iter(value.items()))
            out[slot] = (str(name).strip(), str(desc).strip())
        elif isinstance(value, str) and value.strip():
            out[slot] = (value.strip(), "")
    return out


@dataclass
class RecognitionAbort:
    """Validation verdict: the answer is ungrounded, candidate is dropped."""

    slot: str
    reason: str


def validate_recognition(answer: dict, context, slots: list):
    """Names must exist verbatim in the context and carry a description."""
    validated = {}
    for slot in slots:
        if slot not in answer:
            return RecognitionAbort(slot, "missing from answer")
        name, desc = answer[slot]
        if not name:
            return RecognitionAbort(slot, "empty name")
        if not desc:
            return RecognitionAbort(slot, "empty description")
        if not contains_identifier(context.text, name):
            return RecognitionAbort(slot, f"{name!r} does not occur in the context")
        validated[slot] = (name, desc)
    return validated


# ----------------------------------------------------------------------
# transcripts


@dataclass
class LlmExchange:
    purpose: str  # scenario|property|recognition
    rule_id: str
    function_id: str
    system: str
    user: str
    response: str
    tokens_in: int
    tokens_out: int
    latency: float = 0.0
    prompt_sha256: str = ""
    attempt: int = 0  # 1 for the retry of an unparseable answer

    def __post_init__(self):
        if not self.prompt_sha256:
            self.prompt_sha256 = prompt_sha256(self.system, self.user)

    @property
    def key(self) -> tuple:
        return exchange_key(self.purpose, self.rule_id, self.function_id,
                            self.prompt_sha256, self.attempt)

    def to_json(self) -> str:
        record = {
            "purpose": self.purpose,
            "rule_id": self.rule_id,
            "function_id": self.function_id,
            "prompt_sha256": self.prompt_sha256,
            "system": self.system,
            "user": self.user,
            "response": self.response,
            "tokens_in": self.tokens_in,
            "tokens_out": self.tokens_out,
        }
        if self.attempt:
            record["attempt"] = self.attempt
        return json.dumps(record, sort_keys=True)


class Transcript:
    """Keyed store of exchanges; lookups match on key, never on order."""

    def __init__(self):
        self.entries: dict[tuple, LlmExchange] = {}

    def append(self, exchange: LlmExchange) -> None:
        self.entries[exchange.key] = exchange

    def get(self, key: tuple):
        return self.entries.get(key)

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def load(cls, path: str) -> "Transcript":
        transcript = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                raw = json.loads(line)
                transcript.append(
                    LlmExchange(
                        purpose=raw["purpose"],
                        rule_id=raw["rule_id"],
                        function_id=raw["function_id"],
                        system=raw["system"],
                        user=raw["user"],
                        response=raw["response"],
                        tokens_in=int(raw["tokens_in"]),
                        tokens_out=int(raw["tokens_out"]),
                        prompt_sha256=raw["prompt_sha256"],
                        attempt=int(raw.get("attempt", 0)),
                    )
                )
        return transcript

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for exchange in self.entries.values():
                fh.write(exchange.to_json() + "\n")


# ----------------------------------------------------------------------
# provider


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
    max_in_flight: int = 4


# statuses that say the key, the endpoint or the proxy is wrong, not the query
REFUSED_EVERY_QUERY = frozenset({401, 403, 404, 407})


class LlmGateway:
    """Mode-aware completion client: live HTTP, record, or replay.

    ``answer``, when given, stands in for the HTTP provider in live and
    record mode: ``answer(purpose, rule_id, function_id, user) -> str``
    returns the response text. Latency is then 0, tokens are estimated
    as for a provider that reports no usage, and no API key is read.
    Tests and the demo author transcripts through it.
    """

    RETRIES = 3
    BACKOFF_BASE = 1.0

    def __init__(self, config: ProviderConfig, mode: str = "replay",
                 transcript: Transcript | None = None,
                 record_path: str | None = None,
                 sleeper=time.sleep, answer=None):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.config = config
        self.mode = mode
        self.transcript = transcript if transcript is not None else Transcript()
        self.exchanges: list[LlmExchange] = []
        self._sleep = sleeper
        self._answer = answer
        self._lock = threading.Lock()
        self._gate = threading.Semaphore(max(1, config.max_in_flight))
        self._route = None  # planned by the first query sent
        self._record_fh = open(record_path, "a", encoding="utf-8") if record_path else None

    def close(self) -> None:
        if self._record_fh is not None:
            self._record_fh.close()
            self._record_fh = None

    # -- core ----------------------------------------------------------

    def complete(self, purpose: str, rule_id: str, function_id: str,
                 system: str, user: str, attempt: int = 0) -> LlmExchange:
        digest = prompt_sha256(system, user)
        key = exchange_key(purpose, rule_id, function_id, digest, attempt)
        if self.mode == "replay":
            entry = self.transcript.get(key)
            if entry is None and attempt:
                # a transcript written before retries had their own key
                # holds one entry, the last answer, for both attempts
                entry = self.transcript.get(key[:4])
            if entry is None:
                raise ReplayMiss(key)
            with self._lock:
                self.exchanges.append(entry)
            return entry

        if self._answer is not None:
            response = self._answer(purpose, rule_id, function_id, user)
            tokens_in, tokens_out, latency = 0, 0, 0.0
        else:
            with self._gate:
                response, tokens_in, tokens_out, latency = self._http_call(system, user)
        if tokens_in <= 0:
            tokens_in = estimate_tokens(system) + estimate_tokens(user)
        if tokens_out <= 0:
            tokens_out = estimate_tokens(response)
        exchange = LlmExchange(
            purpose=purpose,
            rule_id=rule_id,
            function_id=function_id,
            system=system,
            user=user,
            response=response,
            tokens_in=tokens_in,
            tokens_out=tokens_out,
            latency=latency,
            prompt_sha256=digest,
            attempt=attempt,
        )
        with self._lock:
            self.exchanges.append(exchange)
            if self.mode == "record":
                self.transcript.append(exchange)
                if self._record_fh is not None:
                    self._record_fh.write(exchange.to_json() + "\n")
                    self._record_fh.flush()
        return exchange

    def ask(self, purpose: str, rule_id: str, function_id: str,
            user: str, parser):
        """Complete + parse, retrying the identical prompt once on garbage."""
        last_error = None
        for attempt in range(2):
            exchange = self.complete(purpose, rule_id, function_id, SYSTEM_PROMPT, user,
                                     attempt)
            try:
                return parser(exchange.response), exchange
            except UnparseableAnswer as exc:
                last_error = exc
        raise last_error

    # -- transport ------------------------------------------------------

    def _api_key(self) -> str:
        key = os.environ.get(self.config.api_key_env, "")
        if not key:
            raise ProviderUnavailable(
                f"API key env var {self.config.api_key_env} is not set"
            )
        return key

    def _http_call(self, system: str, user: str):
        import http.client

        body = json.dumps({
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
        }).encode("utf-8")
        headers = {
            "Authorization": f"Bearer {self._api_key()}",
            "Content-Type": "application/json",
        }
        last_error = None
        for attempt in range(self.RETRIES):
            if attempt:
                self._sleep(self.BACKOFF_BASE * (2 ** (attempt - 1)))
            started = time.monotonic()
            try:
                status, text = self._post(body, headers)
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
            return (
                content,
                int(usage.get("prompt_tokens") or 0),
                int(usage.get("completion_tokens") or 0),
                latency,
            )
        raise last_error

    def _post(self, body: bytes, headers: dict):
        """POST ``body`` on a new connection, closed once the reply is read.

        Returns the status and the decoded reply body.
        """
        if self._route is None:
            self._route = _plan_route(self.config.endpoint, self.config.timeout)
        open_connection, target, route_headers = self._route
        conn = open_connection()
        try:
            conn.request("POST", target, body, {**headers, **route_headers})
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

    def makefile(self, mode: str = "rb"):
        return io.BufferedReader(self)

    def close(self) -> None:
        self._outer.close()
        super().close()
