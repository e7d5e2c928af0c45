"""Self-tests of the benchmark: inputs, truth, tracing arithmetic, contract.

    python3 -m pytest -q bench/test_bench.py
"""

import gc
import hashlib
import json
import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, use_checkout  # noqa: E402

use_checkout()

import generate  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, covered, layer_metrics, self_times  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink the corpora; their shape, not their size, is under test."""
    monkeypatch.setattr(generate, "WIDE_FILLER_FILES", 4)
    monkeypatch.setattr(generate, "RECORD_FILLER_FILES", 2)
    monkeypatch.setattr(generate, "DENSE_FILES", 3)


def _tree(root: str) -> dict:
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _sol_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _s, files in os.walk(root) for f in files if f.endswith(".sol"))


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_same_seed_gives_identical_inputs(small, tmp_path, workload):
    generate.generate(workload, 7, str(tmp_path / "a"))
    generate.generate(workload, 7, str(tmp_path / "b"))
    generate.generate(workload, 8, str(tmp_path / "c"))
    a, b, c = (_tree(str(tmp_path / d)) for d in "abc")
    assert a == b
    assert set(a) == set(c)
    assert a != c, "the seed must change the inputs"
    # ... but never the amount of work
    assert _sol_bytes(str(tmp_path / "a")) == _sol_bytes(str(tmp_path / "c"))


@pytest.mark.parametrize("workload", ("wide-parse", "record-latency"))
def test_acceptance_corpus_truth_counts(small, tmp_path, workload):
    truth = generate.generate(workload, 1, str(tmp_path))["verdicts"]
    verdicts = [v for _rule, _fid, v in truth]
    assert verdicts.count("confirmed") == 18
    assert verdicts.count("rejected") == 18
    assert len({rule for rule, _fid, _v in truth}) == 6


def test_dense_truth_counts(small, tmp_path):
    truth = generate.generate("dense-graph", 1, str(tmp_path))["verdicts"]
    per_file = len(generate.DENSE_KINDS)
    assert len(truth) == 3 * per_file
    for rule in ("risky-first-deposit", "wrong-checkpoint-order"):
        verdicts = [v for r, _fid, v in truth if r == rule]
        assert verdicts.count("confirmed") == verdicts.count("rejected") == 3 * per_file // 4


# ----------------------------------------------------------------------
# span arithmetic


def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 4), (3, 6)]) == 5
    assert covered(0, 10, [(8, 12), (-2, 1)]) == 3
    assert covered(0, 10, [(2, 3), (1, 5)]) == 4


def test_self_time_of_nested_spans():
    spans = [
        (1, 0, "root", 0.0, 10.0),
        (2, 1, "child", 1.0, 4.0),
        (3, 2, "grandchild", 2.0, 3.0),
        (4, 1, "child", 5.0, 6.0),
    ]
    own = self_times(spans)
    assert own == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_self_time_of_overlapping_thread_spans():
    # two worker threads under one parent: their union, not their sum, is covered
    spans = [
        (1, 0, "scan", 0.0, 10.0),
        (2, 1, "candidate", 1.0, 5.0),
        (3, 1, "candidate", 3.0, 8.0),
        (4, 3, "complete", 4.0, 7.5),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.5)
    assert own[4] == pytest.approx(3.5)


def test_worker_thread_spans_hang_under_the_main_span():
    tracer = Tracer()
    root = tracer.open()
    work = tracer.wrap(lambda: tracer.wrap(lambda: None, "inner")(), "outer")
    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.close(root, "root", 0.0)
    by_id = {sid: (parent, name) for sid, parent, name, _s, _e in tracer.spans}
    root_id = next(sid for sid, (_p, name) in by_id.items() if name == "root")
    outers = [sid for sid, (parent, name) in by_id.items() if name == "outer"]
    assert len(outers) == 4
    assert all(by_id[sid][0] == root_id for sid in outers)
    assert sorted(p for p, name in by_id.values() if name == "inner") == sorted(outers)


def test_gc_inside_the_counter_lock_does_not_deadlock():
    tracer = Tracer()
    gc.callbacks.append(tracer._on_gc)
    try:
        def collect_while_locked():
            with tracer._lock:
                gc.collect()

        worker = threading.Thread(target=collect_while_locked, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    finally:
        gc.callbacks.remove(tracer._on_gc)
    assert sum(tracer.gc_pause.values()) > 0


def test_install_restores_every_original():
    from solscout import confirm, pipeline
    from solscout.frontend import parser
    from solscout.gateway import LlmGateway, Transcript

    owners = (pipeline, parser, confirm, LlmGateway, Transcript)
    before = [dict(vars(owner)) for owner in owners]
    callbacks = list(gc.callbacks)
    tracer = Tracer()
    tracer.install()
    assert vars(pipeline)["parse_source"] is not before[0]["parse_source"]
    tracer.restore()
    for owner, saved in zip(owners, before):
        assert all(vars(owner)[k] is v for k, v in saved.items())
    assert gc.callbacks == callbacks


def test_traced_scan_reports_every_layer_and_the_same_findings(small, tmp_path):
    from solscout.config import load_config
    from solscout.pipeline import scan

    generate.generate("dense-graph", 2, str(tmp_path))
    config = load_config(str(tmp_path / "project"), "", {
        "mode": "replay", "transcript": str(tmp_path / "transcript.jsonl")})
    config.validate()
    plain = scan(config).report("json")

    tracer = Tracer()
    tracer.install()
    try:
        result = tracer.wrap(scan, "pipeline.scan")(config)
    finally:
        tracer.restore()
    assert result.report("json") == plain
    trace = json.loads(json.dumps({"spans": tracer.spans, "gc_pause": {},
                                   "counters": dict(tracer.counters)}))
    layers = layer_metrics(trace, result.stats, len(result.meta["rules"]))
    assert set(layers) | {"trace.overhead_s"} == set(run.PER_LAYER)
    assert layers["pipeline.candidates"] == 3 * 12
    assert layers["gateway.queries"] == len(result.exchanges)
    assert layers["callgraph.edges"] == 3 * len(generate.DENSE_KINDS) * 3
    assert layers["confirm.confirmed_frac"] == 0.5
    assert layers["frontend.parse_s"] > layers["frontend.lex_s"] > 0


def test_fake_provider_answers_by_prompt_hash_and_logs_service_time(tmp_path):
    import requests

    from fakeprovider import FakeProvider
    from solscout.gateway import prompt_sha256

    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps({"prompt_sha256": prompt_sha256("s", "u"), "response": "Yes",
                                "tokens_in": 5, "tokens_out": 1}) + "\n")
    with FakeProvider(str(path), latency=0.01) as provider:
        def post(user):
            return requests.post(provider.endpoint, timeout=10, json={
                "messages": [{"role": "system", "content": "s"},
                             {"role": "user", "content": user}]})

        hit = post("u")
        assert hit.status_code == 200
        assert hit.json()["choices"][0]["message"]["content"] == "Yes"
        assert hit.json()["usage"] == {"prompt_tokens": 5, "completion_tokens": 1}
        assert post("other").status_code == 404
        log = provider.take_service_log()
    assert len(log) == 2 and min(log) >= 0.01


# ----------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(generate.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
