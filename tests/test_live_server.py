"""Record-mode scan against a real local HTTP chat-completions server."""

import json

from solscout.pipeline import scan

from chatserver import by_prompt
from conftest import fixture_path
from helpers import build_transcript, replay_config
from test_pipeline import first_deposit_answers


def test_record_over_http_then_replay(tmp_path, monkeypatch, serve):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "local-key")
    root = fixture_path("first_deposit")
    transcript_path = str(tmp_path / "recorded.jsonl")

    seed = replay_config(root, transcript_path, project_name="first_deposit")
    oracle = build_transcript(seed, first_deposit_answers())
    server = serve(by_prompt(oracle, usage={"prompt_tokens": 11, "completion_tokens": 3}))

    record = replay_config(root, transcript_path, project_name="first_deposit")
    record.mode = "record"
    record.provider.endpoint = server.url
    record.provider.max_in_flight = 4  # exercise the parallel query path
    record.validate()
    recorded = scan(record)
    # every query must be an empty-session pair
    assert all(len(r.json()["messages"]) == 2 for r in server.requests)
    assert len(recorded.confirmed) == 1
    assert all(e.tokens_in == 11 and e.tokens_out == 3 for e in recorded.exchanges)

    replay = replay_config(root, transcript_path, project_name="first_deposit")
    replay.validate()
    replayed = scan(replay)
    rec = json.loads(recorded.report("json"))["findings"]
    rep = json.loads(replayed.report("json"))["findings"]
    assert rec == rep
