"""The answer seam: exchanges, transcripts and the gateway that asks.

Every query is an independent two-message conversation (system + user);
no history ever leaks between queries. Exchanges are keyed by
(purpose, rule, function, prompt hash), plus the attempt for a retried
query. ``LlmGateway`` asks one answerer each query and appends the
exchange, with its prompts, to an optional record file. An answerer is
a loaded ``Transcript`` for a bit-exact replay with zero network use,
``transport.HttpProvider`` for a live model, or a ``scripted`` callable
that tests and the demo author transcripts with; answerers compose by
wrapping one another, as ``once`` does to send each distinct prompt
once. The gateway records the usage its answerer reports. A query the
provider rejected is recorded as an ``error`` entry, so its replay
rejects it the same way.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, replace

from .errors import (
    ProviderError,
    ProviderUnavailable,
    ReplayMiss,
    TranscriptError,
    UnparseableAnswer,
)
from .prompts import SYSTEM_PROMPT, estimate_tokens


def prompt_sha256(system: str, user: str) -> str:
    return hashlib.sha256((system + "\x00" + user).encode("utf-8")).hexdigest()


def exchange_key(purpose: str, rule_id: str, function_id: str, digest: str,
                 attempt: int = 0) -> tuple:
    """Transcript key; a retry of the same prompt gets one of its own."""
    key = (purpose, rule_id, function_id, digest)
    return key + (f"retry{attempt}",) if attempt else key


@dataclass(slots=True)
class LlmExchange:
    """One query and its answer, without the prompts: the record file keeps those."""

    purpose: str  # scenario|property|recognition
    rule_id: str
    function_id: str
    response: str
    tokens_in: int
    tokens_out: int
    latency: float = 0.0
    prompt_sha256: str = ""
    attempt: int = 0  # 1 for the retry of an unparseable answer
    error: str = ""  # a rejected query: no response, nothing charged

    @property
    def key(self) -> tuple:
        return exchange_key(self.purpose, self.rule_id, self.function_id,
                            self.prompt_sha256, self.attempt)

    def to_json(self, system: str, user: str) -> str:
        """The record-file line of this exchange, asked with ``system`` and ``user``."""
        record = {"purpose": self.purpose, "rule_id": self.rule_id,
                  "function_id": self.function_id, "prompt_sha256": self.prompt_sha256,
                  "system": system, "user": user}
        if self.error:
            record["error"] = self.error
        else:
            record.update(response=self.response, tokens_in=self.tokens_in,
                          tokens_out=self.tokens_out)
        if self.attempt:
            record["attempt"] = self.attempt
        return json.dumps(record, sort_keys=True)


class Transcript:
    """The exchanges of a record file by key; lookups match on key, never on order."""

    def __init__(self):
        self.entries: dict[tuple, LlmExchange] = {}

    def answer(self, asked: LlmExchange, system: str, user: str) -> LlmExchange:
        """The replay answerer: the entry itself, so a replay keeps no copy of it.

        A rejected query raises its ``ProviderError`` again.
        """
        entry = self.entries.get(asked.key)
        if entry is None:
            raise ReplayMiss(asked.key)
        if entry.error:
            raise ProviderError(entry.error)
        return entry

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def load(cls, path: str) -> "Transcript":
        """The entries of the JSON-lines file at ``path``, without their prompts.

        A later entry replaces an earlier one with the same key. Raises
        ``TranscriptError`` naming ``path:line`` for a line that is not a
        transcript entry, such as the cut-off last line of a killed
        record scan.
        """
        transcript = cls()
        entries = transcript.entries
        shared = {}  # one copy of each id and answer text that repeats
        with open(path, "rb") as fh:
            for number, line in enumerate(fh, 1):
                if line.isspace():
                    continue
                try:
                    raw = json.loads(line)
                    purpose, rule_id, function_id, response = (
                        shared.setdefault(text, text)
                        for text in (raw["purpose"], raw["rule_id"], raw["function_id"],
                                     raw.get("response", ""))
                    )
                    exchange = LlmExchange(
                        purpose, rule_id, function_id, response,
                        int(raw.get("tokens_in", 0)), int(raw.get("tokens_out", 0)),
                        prompt_sha256=raw["prompt_sha256"],
                        attempt=int(raw.get("attempt", 0)),
                        error=raw.get("error", ""),
                    )
                except (ValueError, TypeError, KeyError) as exc:
                    reason = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
                    raise TranscriptError(f"{path}:{number}: not a transcript entry: "
                                          f"{reason}") from None
                entries[exchange.key] = exchange
        return transcript


def scripted(answer):
    """An answerer replying ``answer(purpose, rule_id, function_id, user)``, usage estimated."""
    def answerer(asked, system, user):
        response = answer(asked.purpose, asked.rule_id, asked.function_id, user)
        return replace(asked, response=response,
                       tokens_in=estimate_tokens(system) + estimate_tokens(user),
                       tokens_out=estimate_tokens(response))

    return answerer


def once(answerer):
    """``answerer``, asked each distinct prompt once per attempt.

    The first query with a prompt hash and attempt asks ``answerer``.
    Every later query with them gets that answer under its own key,
    charged nothing: 0 tokens and latency 0. At temperature 0 a repeated
    prompt is the same question. A ``ProviderError`` on the first query
    (``ProviderUnavailable`` too) is raised again, as a fresh copy, for
    each later one; any other failure is not kept, and propagates.
    No query is held back: two asking one prompt at the same moment
    would each ask ``answerer``, a duplicate request and no more. A scan
    never asks so, since a prompt embeds its function's whole source and
    ``scan`` runs functions of the same source on one worker, in order.
    A replay is not wrapped: it answers every key as recorded.
    """
    outcomes = {}  # (prompt hash, attempt) -> answer text or ProviderError

    def answer(asked, system, user):
        key = asked.prompt_sha256, asked.attempt
        outcome = outcomes.get(key)
        if isinstance(outcome, str):
            return replace(asked, response=outcome)
        if outcome is not None:
            raise type(outcome)(*outcome.args)
        try:
            exchange = answerer(asked, system, user)
        except ProviderError as exc:
            outcomes[key] = type(exc)(*exc.args)  # a copy without a traceback
            raise
        outcomes[key] = exchange.response
        return exchange

    return answer


class LlmGateway:
    """Asks one answerer each query and appends the exchange to a record file.

    ``answerer(asked, system, user)`` answers the exchange ``asked`` (its
    key parts set, no response) with an exchange that has the same key
    and the usage to charge, which the gateway records as it is: an
    answerer that is not told the usage estimates it (``scripted``,
    ``HttpProvider``), and a reused answer costs 0 (``once``). ``record``
    is the path of the file each exchange is appended to with its
    prompts, or None; ``exchanges`` keeps each answered query without
    its prompts.
    """

    def __init__(self, answerer, record: str | None = None):
        self.exchanges: list[LlmExchange] = []
        self._answer = answerer
        self._lock = threading.Lock()
        self._record_fh = open(record, "a", encoding="utf-8") if record is not None else None

    def close(self) -> None:
        if self._record_fh is not None:
            self._record_fh.close()
            self._record_fh = None

    def complete(self, purpose: str, rule_id: str, function_id: str,
                 system: str, user: str, attempt: int = 0) -> LlmExchange:
        asked = LlmExchange(purpose, rule_id, function_id, "", 0, 0,
                            prompt_sha256=prompt_sha256(system, user), attempt=attempt)
        try:
            exchange = self._answer(asked, system, user)
        except ProviderUnavailable:
            raise  # not the query's fault: a replay must not reproduce it
        except ProviderError as exc:
            with self._lock:
                self._record(replace(asked, error=str(exc)), system, user)
            raise
        with self._lock:
            self.exchanges.append(exchange)
            self._record(exchange, system, user)
        return exchange

    def _record(self, exchange: LlmExchange, system: str, user: str) -> None:
        """Append ``exchange`` with its prompts to the record file, if any; needs ``_lock``."""
        if self._record_fh is not None:
            self._record_fh.write(exchange.to_json(system, user) + "\n")
            self._record_fh.flush()

    def ask(self, purpose: str, rule_id: str, function_id: str,
            user: str, parser, made: list):
        """Complete + parse, retrying the identical prompt once on garbage.

        Each exchange is appended to ``made`` as soon as it is made, so the
        caller holds every one, in query order, also when this raises.
        """
        for attempt in range(2):
            exchange = self.complete(purpose, rule_id, function_id, SYSTEM_PROMPT, user,
                                     attempt)
            made.append(exchange)
            try:
                return parser(exchange.response)
            except UnparseableAnswer:
                if attempt:
                    raise
