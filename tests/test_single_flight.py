"""Each distinct prompt is sent once per live or record scan (``gateway.once``).

The acceptance corpus repeats code: its ``PriceOk0/1/2.lpPrice`` and
``LendOk0/1/2.harvest`` twins (among others) ask byte-identical prompts,
23 of its 114 queries. Record scans here go through ``tests/chatserver``,
which counts the requests it reads.
"""

import json
import sys
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


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


def test_two_threads_asking_one_prompt_send_one_request(monkeypatch, serve):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    release = threading.Event()

    def respond(request):
        release.wait(10)
        return 200, chat_body("Yes", {"prompt_tokens": 9, "completion_tokens": 1})

    server = serve(respond)
    gateway = LlmGateway(once(HttpProvider(ProviderConfig(endpoint=server.url))))
    made = {}

    def ask(fid):
        made[fid] = gateway.complete("property", "r", fid, "s", "u")

    first = threading.Thread(target=ask, args=("C.first",), daemon=True)
    first.start()
    _wait_for(lambda: server.requests)
    second = threading.Thread(target=ask, args=("C.second",), daemon=True)
    second.start()
    second.join(0.2)
    assert second.is_alive()  # waiting for the first query's answer
    release.set()
    for thread in (first, second):
        thread.join(10)
        assert not thread.is_alive()
    later = gateway.complete("property", "r", "C.later", "s", "u")
    gateway.close()
    assert len(server.requests) == 1
    assert (made["C.first"].tokens_in, made["C.first"].tokens_out) == (9, 1)
    for fid, exchange in (("C.second", made["C.second"]), ("C.later", later)):
        assert exchange.key == ("property", "r", fid, prompt_sha256("s", "u"))
        assert (exchange.response, exchange.tokens_in, exchange.tokens_out,
                exchange.latency) == ("Yes", 0, 0, 0.0)
    # a retry of the same prompt is a query of its own
    assert gateway.complete("property", "r", "C.first", "s", "u", attempt=1).tokens_in == 9
    assert len(server.requests) == 2


@pytest.mark.parametrize("failure, raised", [
    (ProviderError("provider returned 400: no"), ProviderError),
    (ProviderUnavailable("provider returned 401: bad key"), ProviderUnavailable),
    (RuntimeError("a bug"), ProviderUnavailable),
], ids=["rejected", "unavailable", "other"])
def test_a_failed_first_query_fails_each_waiting_query_and_leaves_none_waiting(tmp_path,
                                                                              failure, raised):
    asking, release = threading.Event(), threading.Event()
    calls = []

    def answerer(asked, system, user):
        calls.append(asked.function_id)
        asking.set()
        release.wait(10)
        raise failure

    path = str(tmp_path / "t.jsonl")
    gateway = LlmGateway(once(answerer), path)
    errors = {}

    def ask(fid):
        try:
            gateway.complete("property", "r", fid, "s", "u")
        except Exception as exc:  # each thread's failure is checked below
            errors[fid] = exc

    threads = [threading.Thread(target=ask, args=(f"C.f{i}",), daemon=True) for i in range(3)]
    threads[0].start()
    assert asking.wait(5)
    for thread in threads[1:]:
        thread.start()
    threads[1].join(0.1)
    release.set()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    gateway.close()
    assert calls == ["C.f0"]
    assert errors["C.f0"] is failure
    assert all(type(errors[f"C.f{i}"]) is raised for i in (1, 2))
    entries = Transcript.load(path).entries
    if raised is ProviderError:  # each waiting query's key is recorded as rejected
        assert sorted(e.function_id for e in entries.values() if e.error) == \
            ["C.f0", "C.f1", "C.f2"]
    else:
        assert len(entries) == 0


def test_many_threads_asking_few_prompts_ask_each_once():
    """More threads than cores, switching often: a lost update would ask a
    prompt twice, and a lost wake-up would leave a thread waiting."""
    asked = Counter()
    lock = threading.Lock()

    def answerer(exchange, system, user):
        with lock:
            asked[user, exchange.attempt] += 1
        time.sleep(0.001)
        return replace(exchange, response=f"answer to {user}", tokens_in=1, tokens_out=1)

    gateway = LlmGateway(once(answerer))
    prompts = [(f"prompt {i % 5}", i % 2) for i in range(40)]
    answers = []  # (prompt, answer) of every query

    def work(t):
        for user, attempt in prompts[t:] + prompts[:t]:
            exchange = gateway.complete("property", "r", f"C.f{t}", "s", user, attempt)
            answers.append((user, exchange.response))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,), daemon=True) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert asked == Counter(dict.fromkeys(set(prompts), 1))
    assert len(answers) == 8 * 40
    assert all(answer == f"answer to {user}" for user, answer in answers)
    assert len(gateway.exchanges) == 8 * 40
    assert sum(e.tokens_in for e in gateway.exchanges) == 10


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
