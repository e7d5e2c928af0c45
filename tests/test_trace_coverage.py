"""The benchmark's tracer still sees every layer it wraps.

``bench/tracer.py`` wraps layer functions by their module-level names. A
function the program stops calling by that name (a layer reached through
another module, say) still installs cleanly, and its share of a
per-layer metric silently stops counting; this test fails instead: each
function the tracer wraps must be called through its wrapper.
"""

import os
import sys

from solscout.pipeline import scan

from conftest import ROOT
from corpus import build_corpus, write_corpus
from helpers import corpus_answers, replay_config, write_transcript


def test_a_traced_replay_records_a_span_for_every_layer_the_tracer_wraps(tmp_path, monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from tracer import Tracer

    root = str(tmp_path / "corpus")
    cases = build_corpus(variants=1)
    write_corpus(root, cases, filler_files=1)
    transcript = str(tmp_path / "transcript.jsonl")
    config = replay_config(root, transcript, project_name="corpus")
    write_transcript(config, corpus_answers(cases), transcript)

    wrapped, called = set(), set()
    wrap = Tracer.wrap

    def recording_wrap(self, func, name, counter=None):
        layer = (name, func.__module__, func.__qualname__)
        wrapped.add(layer)
        traced = wrap(self, func, name, counter)

        def counted(*args, **kwargs):
            called.add(layer)
            return traced(*args, **kwargs)

        return counted

    monkeypatch.setattr(Tracer, "wrap", recording_wrap)
    tracer = Tracer()
    tracer.install()
    try:
        layers = set(wrapped)  # a record scan would also wrap its transcript file
        result = scan(config)
    finally:
        tracer.restore()
    assert result.confirmed
    assert {name for name, _module, _function in layers} >= {
        "frontend.lex", "confirm.defuse", "gateway.transcript_io"}
    assert sorted(layers - called) == []
    assert {name for name, _module, _function in layers} <= {
        name for _sid, _parent, name, _start, _end in tracer.spans}
