"""One timed scan in a fresh interpreter, driven the way ``solscout scan`` is.

``load_config`` -> ``validate`` -> ``scan`` -> write the JSON and markdown
reports. Prints one JSON line: the monotonic time at which the scan was
ready to start (the parent subtracts its spawn time to get set-up time),
the scan's wall seconds including report writing, peak RSS, the verdicts
and the report digests the parent checks. Started by ``bench/run.py``
with ``PYTHONPATH`` pointing at the checkout's ``src`` and ``tests``.
"""

import argparse
import json
import os
import time

from solscout.config import load_config
from solscout.pipeline import scan


def _ready(args):
    config = load_config(args.project, args.config, {
        "mode": args.mode,
        "transcript": args.transcript,
        "output_dir": args.out,
    })
    config.validate()
    return config


def _write_reports(result, out_dir: str) -> dict:
    """Write both reports as ``solscout scan`` does; returns format -> text."""
    os.makedirs(out_dir, exist_ok=True)
    texts = {}
    for fmt, fname in (("json", "scan-report.json"), ("markdown", "scan-report.md")):
        texts[fmt] = result.report(fmt)
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            fh.write(texts[fmt])
    return texts


def _digests(texts: dict) -> dict:
    import hashlib

    return {fmt: hashlib.sha256(text.encode("utf-8")).hexdigest() for fmt, text in texts.items()}


def _replay_findings(args) -> tuple:
    """Findings and report digest of a replay of the transcript just recorded."""
    config = load_config(args.project, "", {
        "mode": "replay", "transcript": args.transcript, "output_dir": args.out + "-replay",
    })
    config.validate()
    texts = _write_reports(scan(config), config.output_dir)
    return json.loads(texts["json"])["findings"], _digests(texts)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--project", required=True)
    parser.add_argument("--transcript", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("replay", "record"), default="replay")
    parser.add_argument("--config", default="", help="YAML config (record mode)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default="", help="write spans to this file")
    args = parser.parse_args()

    config = _ready(args)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}), flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        started = time.perf_counter()
        if tracer is None:
            result = scan(config)
            texts = _write_reports(result, config.output_dir)
        else:
            root = tracer.open()
            try:
                result = tracer.wrap(scan, "pipeline.scan")(config)
                emit = tracer.open()
                emit_start = time.perf_counter()
                texts = _write_reports(result, config.output_dir)
                tracer.close(emit, "report.emit", emit_start)
            finally:
                tracer.close(root, "bench.scan", started)
        scan_s = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.restore()

    import resource

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(args.trace)

    out = {
        "ready": ready,
        "scan_s": scan_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "stats": result.stats,
        "rules": len(result.meta["rules"]),
        "kloc": result.ledger.kloc,
        "queries": len(result.exchanges),
        "tokens": result.ledger.tokens_in + result.ledger.tokens_out,
        "verdicts": sorted([f.rule_id, f.function_id, f.verdict] for f in result.findings),
        "digests": _digests(texts),
    }
    if args.mode == "record":
        replayed, replay_digests = _replay_findings(args)
        out["record_equals_replay"] = replayed == json.loads(texts["json"])["findings"]
        out["digests"] = replay_digests
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    status = main()
    # Every file is closed and no thread is left; skip freeing the heap
    # object by object, which takes longer than the scan's own reports.
    os._exit(status)
