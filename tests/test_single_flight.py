"""Each distinct prompt is sent once per live or record scan (``gateway.once``).

The acceptance corpus repeats code: its ``PriceOk0/1/2.lpPrice`` and
``LendOk0/1/2.harvest`` twins (among others) ask byte-identical prompts,
23 of its 114 queries. ``once`` keeps each prompt's first answer, and
the scan runs twins in order on one worker, so a repeated prompt finds
its answer kept and no query ever waits for another. Record scans here
go through ``tests/chatserver``, which counts the requests it reads.
"""

import json
import os
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

from solscout import pipeline
from solscout.errors import ProviderError, ProviderUnavailable
from solscout.gateway import LlmGateway, Transcript, once, prompt_sha256, scripted
from solscout.pipeline import scan
from solscout.rules import load_rules
from solscout.transport import HttpProvider, ProviderConfig

from chatserver import by_prompt, chat_body
from corpus import build_corpus, write_corpus
from helpers import corpus_answers, replay_config, scripted_answerer, write_transcript
from test_pipeline import _assert_replays_the_record

SHARED = ("scenario", "price-manipulation-by-amm", "PriceOk0.lpPrice")  # asked by 3 twins


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The acceptance corpus, its oracle transcript's path and the transcript."""
    root = str(tmp_path_factory.mktemp("corpus"))
    cases = build_corpus(variants=3)
    write_corpus(root, cases)
    oracle_path = str(tmp_path_factory.mktemp("oracle") / "oracle.jsonl")
    write_transcript(replay_config(root, oracle_path), corpus_answers(cases), oracle_path)
    return root, oracle_path, Transcript.load(oracle_path)


def _shared_digest(oracle) -> str:
    [digest] = [e.prompt_sha256 for e in oracle.entries.values() if e.key[:3] == SHARED]
    askers = [e.function_id for e in oracle.entries.values() if e.prompt_sha256 == digest]
    assert askers == ["PriceOk0.lpPrice", "PriceOk1.lpPrice", "PriceOk2.lpPrice"]
    return digest


def _digest(request) -> str:
    return prompt_sha256(*(m["content"] for m in request.json()["messages"]))


def _record(root, transcript_path, server):
    """A record scan of ``root`` against ``server``, 2 in flight."""
    config = replay_config(root, transcript_path, project_name="corpus")
    return replace(config, mode="record",
                   provider=replace(config.provider, endpoint=server.url, max_in_flight=2))


def _counting(respond):
    """``respond``, and a thread-safe count of the requests per prompt hash."""
    counts = Counter()
    lock = threading.Lock()

    def counted(request):
        digest = _digest(request)
        with lock:
            counts[digest] += 1
            seen = counts[digest]
        return respond(request, digest, seen)

    return counted, counts


def test_a_prompt_asked_again_gets_the_first_answer_under_its_own_key_at_no_cost():
    asked = []

    def answerer(exchange, system, user):
        asked.append((exchange.function_id, exchange.attempt))
        return replace(exchange, response="Yes", tokens_in=9, tokens_out=1, latency=0.5)

    gateway = LlmGateway(once(answerer))
    first = gateway.complete("property", "r", "C.first", "s", "u")
    later = gateway.complete("property", "r", "C.later", "s", "u")
    assert asked == [("C.first", 0)]
    assert (first.response, first.tokens_in, first.tokens_out, first.latency) == \
        ("Yes", 9, 1, 0.5)
    assert later.key == ("property", "r", "C.later", prompt_sha256("s", "u"))
    assert (later.response, later.tokens_in, later.tokens_out, later.latency) == \
        ("Yes", 0, 0, 0.0)
    # a retry of the same prompt is a query of its own, and is itself asked once
    assert gateway.complete("property", "r", "C.first", "s", "u", attempt=1).tokens_in == 9
    assert gateway.complete("property", "r", "C.later", "s", "u", attempt=1).tokens_in == 0
    assert asked == [("C.first", 0), ("C.first", 1)]
    assert [e.function_id for e in gateway.exchanges] == ["C.first", "C.later"] * 2


@pytest.mark.parametrize("failure, kept", [
    (ProviderError("provider returned 400: no"), True),
    (ProviderUnavailable("provider returned 401: bad key"), True),
    (RuntimeError("a bug"), False),
], ids=["rejected", "unavailable", "other"])
def test_a_failed_first_query_is_raised_again_for_later_ones_if_the_provider_failed(
        tmp_path, failure, kept):
    """A provider's failure is kept and raised again, as a fresh copy,
    without a new request; any other failure is not kept."""
    calls = []

    def answerer(asked, system, user):
        calls.append(asked.function_id)
        raise failure

    path = str(tmp_path / "t.jsonl")
    gateway = LlmGateway(once(answerer), path)
    raised = []
    for fid in ("C.f0", "C.f1", "C.f2"):
        with pytest.raises(type(failure)) as info:
            gateway.complete("property", "r", fid, "s", "u")
        raised.append(info.value)
    gateway.close()
    assert raised[0] is failure
    assert all(type(exc) is type(failure) and exc.args == failure.args for exc in raised)
    if kept:
        assert calls == ["C.f0"]
        assert all(exc is not failure for exc in raised[1:])
    else:
        assert calls == ["C.f0", "C.f1", "C.f2"]
    rejected = [e.function_id for e in Transcript.load(path).entries.values() if e.error]
    assert rejected == (["C.f0", "C.f1", "C.f2"] if type(failure) is ProviderError else [])


def test_a_record_scan_sends_each_distinct_prompt_once(corpus, tmp_path, monkeypatch, serve):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    root, _path, oracle = corpus
    server = serve(by_prompt(oracle))  # no usage: the provider's tokens are estimated
    record = _record(root, str(tmp_path / "t.jsonl"), server)
    recorded = scan(record)
    assert len(server.requests) == len({e.prompt_sha256 for e in oracle.entries.values()}) == 91
    with open(record.transcript_path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    assert len(lines) == len(recorded.exchanges) == len(oracle) == 114
    assert sum(1 for line in lines if line["tokens_in"] == line["tokens_out"] == 0) == 23
    assert recorded.provider_failures == []

    replayed = scan(replace(record, mode="replay"))
    _assert_replays_the_record(recorded, replayed)
    usage = {e.key: (e.tokens_in, e.tokens_out) for e in recorded.exchanges}
    assert {e.key: (e.tokens_in, e.tokens_out) for e in replayed.exchanges} == usage


def test_no_two_requests_with_one_prompt_are_ever_in_flight_at_once(corpus, tmp_path,
                                                                   monkeypatch, serve):
    """Twins share a worker, so a repeated prompt is always asked after its
    first answer is kept, and nothing waits for it."""
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    root, _path, oracle = corpus
    honest = by_prompt(oracle)
    lock = threading.Lock()
    asking, overlapped = set(), []  # prompt hashes in flight; those asked again meanwhile

    def respond(request):
        digest = _digest(request)
        with lock:
            if digest in asking:
                overlapped.append(digest)
            asking.add(digest)
        time.sleep(0.002)  # a window wide enough for the other worker to overlap
        with lock:
            asking.discard(digest)
        return honest(request)

    server = serve(respond)
    recorded = scan(_record(root, str(tmp_path / "t.jsonl"), server))
    assert overlapped == []
    assert len(server.requests) == 91
    assert recorded.provider_failures == []


def test_the_scan_s_workers_are_the_only_limit_on_requests_in_flight(corpus, tmp_path,
                                                                   monkeypatch, serve):
    """An injected provider built for 1 in flight still serves 2 workers at once."""
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    root, _path, oracle = corpus
    honest = by_prompt(oracle)
    lock = threading.Lock()
    in_flight = [0, 0, 0]  # now, most, started
    overlapped = threading.Event()

    def slow(request):
        with lock:
            in_flight[0] += 1
            in_flight[1] = max(in_flight[:2])
            in_flight[2] += 1
            first = in_flight[2] == 1
            if in_flight[0] > 1:
                overlapped.set()
        if first:  # held until the other worker's first request arrives
            overlapped.wait(5)
        with lock:
            in_flight[0] -= 1
        return honest(request)

    server = serve(slow)
    record = _record(root, str(tmp_path / "t.jsonl"), server)
    provider = HttpProvider(ProviderConfig(endpoint=server.url, max_in_flight=1))
    recorded = scan(record, LlmGateway(once(provider), record.transcript_path))
    assert recorded.provider_failures == []
    assert len(server.requests) == 91
    assert in_flight[1] == record.provider.max_in_flight == 2


def test_a_record_scan_with_no_route_to_the_provider_sends_and_records_nothing(
        corpus, tmp_path, monkeypatch, serve):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    root, _path, oracle = corpus
    server = serve(by_prompt(oracle), tls=True)
    monkeypatch.setenv("https_proxy", "socks5://127.0.0.1:1080")
    record = _record(root, str(tmp_path / "t.jsonl"), server)
    with pytest.raises(ProviderUnavailable, match="unsupported proxy"):
        scan(record)
    assert server.requests == []
    assert not os.path.exists(record.transcript_path)


def test_a_replay_answers_every_key_as_recorded(corpus):
    """Twins included: the oracle charges each of them, and so does its replay."""
    root, path, oracle = corpus
    replayed = scan(replay_config(root, path, project_name="corpus"))
    assert len(replayed.exchanges) == 114
    assert all(e.tokens_in > 0 for e in replayed.exchanges)
    assert replayed.ledger.tokens_in == sum(e.tokens_in for e in oracle.entries.values())


def test_a_garbled_answer_and_its_retry_are_each_sent_once_across_twins(corpus, tmp_path,
                                                                        monkeypatch, serve):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    root, _path, oracle = corpus
    shared, honest = _shared_digest(oracle), by_prompt(oracle)

    def respond(request, digest, seen):
        return (200, chat_body("mumble")) if (digest, seen) == (shared, 1) else honest(request)

    counted, counts = _counting(respond)
    server = serve(counted)
    record = _record(root, str(tmp_path / "t.jsonl"), server)
    recorded = scan(record)
    assert counts[shared] == 2  # the query and its retry
    assert max(counts.values()) == 2 and len(server.requests) == 92
    for twin in ("PriceOk0.lpPrice", "PriceOk1.lpPrice", "PriceOk2.lpPrice"):
        [finding] = [f for f in recorded.findings if f.function_id == twin]
        assert [key.split("|")[0] for key in finding.transcript_keys[:2]] == ["scenario"] * 2
        assert finding.transcript_keys[1].endswith("|retry1")
    _assert_replays_the_record(recorded, scan(replace(record, mode="replay")))


def test_a_rejected_shared_prompt_skips_each_twin_and_replays_the_skips(corpus, tmp_path,
                                                                       monkeypatch, serve):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    root, _path, oracle = corpus
    shared, honest = _shared_digest(oracle), by_prompt(oracle)

    def respond(request, digest, seen):
        return (400, "overloaded") if digest == shared else honest(request)

    counted, counts = _counting(respond)
    server = serve(counted)
    record = _record(root, str(tmp_path / "t.jsonl"), server)
    recorded = scan(record)
    assert counts[shared] == 1
    skipped = sorted(f.function_id for f in recorded.provider_failures)
    assert skipped == ["PriceOk0.lpPrice", "PriceOk1.lpPrice", "PriceOk2.lpPrice"]
    assert all(f.reason == "provider-error: provider returned 400: overloaded"
               for f in recorded.provider_failures)
    entries = Transcript.load(record.transcript_path).entries.values()
    assert sorted(e.function_id for e in entries if e.error) == skipped
    replayed = scan(replace(record, mode="replay"))
    _assert_replays_the_record(recorded, replayed)
    assert sorted(f.function_id for f in replayed.provider_failures) == skipped


def test_an_unavailable_provider_on_a_shared_prompt_stops_the_scan(corpus, tmp_path,
                                                                   monkeypatch, serve):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    root, _path, oracle = corpus
    shared, honest = _shared_digest(oracle), by_prompt(oracle)

    def respond(request, digest, seen):
        return (401, "bad key") if digest == shared else honest(request)

    counted, counts = _counting(respond)
    server = serve(counted)
    with pytest.raises(ProviderUnavailable, match="provider returned 401"):
        scan(_record(root, str(tmp_path / "t.jsonl"), server))
    assert counts[shared] == 1
    assert not [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]
    entries = Transcript.load(str(tmp_path / "t.jsonl")).entries.values()
    assert not any(e.error or e.prompt_sha256 == shared for e in entries)


def test_functions_with_the_same_source_run_in_unit_order_on_one_worker(corpus, tmp_path,
                                                                        monkeypatch):
    root, _path, _oracle = corpus
    process = pipeline._process_candidate

    def units_run(max_in_flight):
        """Each unit's function id and thread, in the order the units start."""
        ran = []

        def traced(fn, rules, config, graph, *args):
            ran.append((graph.id_of(fn), fn.source(), threading.get_ident()))
            time.sleep(0.002)  # long enough for both workers to take units
            return process(fn, rules, config, graph, *args)

        monkeypatch.setattr(pipeline, "_process_candidate", traced)
        config = replay_config(root, str(tmp_path / "t.jsonl"), project_name="corpus")
        record = replace(config, mode="record",
                         provider=replace(config.provider, max_in_flight=max_in_flight))
        answer = scripted(scripted_answerer(corpus_answers(build_corpus(variants=3)),
                                            load_rules(config.rules_dir)))
        scan(record, LlmGateway(answer))
        return ran

    unit_order = [fid for fid, _source, _thread in units_run(1)]
    twins = {}  # source -> [(fid, thread)] in start order
    for fid, source, thread in units_run(2):
        twins.setdefault(source, []).append((fid, thread))
    twins = [runs for runs in twins.values() if len(runs) > 1]
    assert sum(map(len, twins)) >= 9  # PriceOk*.lpPrice, LendOk*.harvest, ...
    for runs in twins:
        fids = [fid for fid, _thread in runs]
        assert fids == sorted(fids, key=unit_order.index)
        assert len({thread for _fid, thread in runs}) == 1
