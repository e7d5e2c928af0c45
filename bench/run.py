"""solscout benchmark: seeded scan workloads, end-to-end and per-layer metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

For one workload the command generates seeded inputs in a separate
process, then for ``--seconds`` seconds starts one fresh interpreter per
scan (``bench/scan_once.py``); each scan also gives one sample of
set-up time. Every scan's (rule, function) verdicts must equal the
seeded truth, replay reports must be byte-identical across the run, and
a record-mode scan must find what a replay of its own transcript finds;
any mismatch counts as a failed operation and makes the command exit 1.

With ``--trace 0`` every scan is untraced and the end-to-end metrics are
printed. With ``--trace 1`` scans alternate between untraced and traced
(``bench/tracer.py``); the per-layer metrics come from the traced ones
and ``trace.overhead_s`` is their median scan time minus the untraced
median. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BENCH_DIR, ROOT, WORK_DIR, child_env, use_checkout  # noqa: E402
from generate import WORKLOADS  # noqa: E402
from tracer import layer_metrics, layer_shares  # noqa: E402

STARTED = time.monotonic()
HARD_LIMIT_S = 170.0  # every run ends within 180 s, whatever a child does
MIN_SCANS = 3
PROVIDER_LATENCY_S = 0.020
# Client concurrency of the record workload: one in-flight query per CPU,
# at most 4, so the per-rule pool never has more threads than the machine.
IN_FLIGHT = max(1, min(4, len(os.sched_getaffinity(0))))

END_TO_END = {  # name -> (unit, better)
    "scan_s": ("s", "lower"),
    "kloc_per_s": ("KLoC/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "queries_per_candidate": ("queries/cand", "lower"),
    "tokens_per_kloc": ("tokens/KLoC", "lower"),
}


S, MS, FRAC, COUNT = "s", "ms", "frac", "count"
PER_LAYER = {  # name -> (unit, better); see bench/METRICS.md for what each moves
    "frontend.parse_s": (S, "lower"),
    "frontend.lex_s": (S, "lower"),
    "frontend.parse_self_s": (S, "lower"),
    "frontend.tokens": (COUNT, "lower"),
    "frontend.tokens_per_s": ("tokens/s", "higher"),
    "frontend.parse_failures": (COUNT, "lower"),
    "frontend.gc_pause_s": (S, "lower"),
    "pipeline.gc_pause_s": (S, "lower"),
    "project.discover_s": (S, "lower"),
    "project.files": (COUNT, "lower"),
    "project.whitelist_s": (S, "lower"),
    "project.whitelist_kept_frac": (FRAC, "lower"),
    "rules.load_s": (S, "lower"),
    "callgraph.build_s": (S, "lower"),
    "callgraph.edges": (COUNT, "lower"),
    "callgraph.unresolved": (COUNT, "lower"),
    "callgraph.reach_s": (S, "lower"),
    "callgraph.reachable_frac": (FRAC, "lower"),
    "callgraph.context_s": (S, "lower"),
    "callgraph.context_ms_per_candidate": (MS, "lower"),
    "filters.filter_s": (S, "lower"),
    "filters.pass_frac": (FRAC, "lower"),
    "confirm.defuse_s": (S, "lower"),
    "confirm.check_s": (S, "lower"),
    "confirm.ms_per_candidate": (MS, "lower"),
    "confirm.confirmed_frac": (FRAC, "higher"),
    "gateway.queries": (COUNT, "lower"),
    "gateway.retries": (COUNT, "lower"),
    "gateway.tokens_in": (COUNT, "lower"),
    "gateway.tokens_out": (COUNT, "lower"),
    "gateway.prompt_build_s": (S, "lower"),
    "gateway.transcript_io_s": (S, "lower"),
    "gateway.complete_s": (S, "lower"),
    "gateway.transport_ms_per_query": (MS, "lower"),
    "gateway.provider_busy_frac": (FRAC, "higher"),
    "report.emit_s": (S, "lower"),
    "pipeline.prepare_s": (S, "lower"),
    "pipeline.self_s": (S, "lower"),
    "pipeline.candidates": (COUNT, "lower"),
    "trace.overhead_s": (S, "lower"),
}


class ScanFailed(Exception):
    pass


def _remaining() -> float:
    return HARD_LIMIT_S - (time.monotonic() - STARTED)


def _python(script: str, args: list, env: dict) -> str:
    """Run a benchmark script to completion; returns its last stdout line."""
    timeout = _remaining()
    if timeout <= 1:
        raise ScanFailed("time budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, script), *args],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise ScanFailed(f"{script} timed out after {exc.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ScanFailed(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-1500:]}")
    return lines[-1]


def _child(args: list, env: dict) -> dict:
    spawned = time.monotonic()
    out = json.loads(_python("scan_once.py", args, env))
    out["setup_s"] = out["ready"] - spawned
    return out


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """One workload for one seed: inputs, scans, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.record = workload == "record-latency"
        self.work = os.path.join(WORK_DIR, f"{workload}-seed{seed}-{os.getpid()}")
        self.inputs = os.path.join(self.work, "input")
        self.untraced: list = []
        self.traced: list = []  # (result, per-layer metrics, shares)
        self.setups: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.reference = None  # report digests of the first scan
        self.elapsed = 0.0

    # -- scanning ------------------------------------------------------

    def _scan_args(self, index: int, traced: bool) -> list:
        transcript = os.path.join(self.inputs, "transcript.jsonl")
        args = ["--project", os.path.join(self.inputs, "project"),
                "--out", os.path.join(self.work, "out")]
        if self.record:
            args += ["--mode", "record", "--config", os.path.join(self.work, "config.yaml"),
                     "--transcript", os.path.join(self.work, f"recorded-{index}.jsonl")]
        else:
            args += ["--transcript", transcript]
        if traced:
            args += ["--trace", os.path.join(self.work, f"trace-{index}.json")]
        return args

    def _check(self, res: dict) -> list:
        problems = []
        if res["verdicts"] != self.truth:
            problems.append("verdicts differ from the seeded truth")
        if self.record and not res["record_equals_replay"]:
            problems.append("record findings differ from their replay")
        if self.reference is None:
            self.reference = res["digests"]
        elif res["digests"] != self.reference:
            problems.append("replay report bytes differ from the first scan's")
        return problems

    def _scan(self, index: int, traced: bool, env: dict, provider) -> None:
        if provider is not None:
            provider.take_service_log()
        try:
            res = _child(self._scan_args(index, traced), env)
        except ScanFailed as exc:
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"scan {index}: {exc}")
            return
        stats = res["stats"]
        problems = self._check(res)
        self.errors += [f"scan {index}: {p}" for p in problems]
        self.attempted += 1 + stats["candidates_filtered"]
        self.failed += bool(problems) + stats["skipped"]
        self.setups.append(res["setup_s"])
        if not traced:
            self.untraced.append(res)
            return
        path = os.path.join(self.work, f"trace-{index}.json")
        with open(path, "r", encoding="utf-8") as fh:
            trace = json.load(fh)
        service = sum(provider.take_service_log()) if provider is not None else 0.0
        layers = layer_metrics(trace, stats, res["rules"], service,
                               IN_FLIGHT if self.record else 1)
        self.traced.append((res, layers, layer_shares(trace["spans"])))

    def _warm_up(self, env: dict) -> None:
        """One untimed set-up that fills the byte-code and page caches."""
        _child(self._scan_args(0, False) + ["--setup-only"], env)

    def execute(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        env = child_env()
        _python("generate.py", ["--workload", self.workload, "--seed", str(self.seed),
                                "--out", self.inputs], env)
        with open(os.path.join(self.inputs, "truth.json"), encoding="utf-8") as fh:
            self.truth = json.load(fh)["verdicts"]

        provider = None
        if self.record:
            from fakeprovider import FakeProvider

            env = child_env(SOLSCOUT_API_KEY="bench-local-key")
            provider = FakeProvider(os.path.join(self.inputs, "transcript.jsonl"),
                                    PROVIDER_LATENCY_S)
        try:
            if provider is not None:
                with open(os.path.join(self.work, "config.yaml"), "w", encoding="utf-8") as fh:
                    json.dump({"provider": {"endpoint": provider.endpoint, "timeout": 30,
                                            "max_in_flight": IN_FLIGHT}}, fh)
            self._loop(env, provider)
        finally:
            if provider is not None:
                provider.close()
        if self.failed == 0:
            shutil.rmtree(self.work, ignore_errors=True)

    def _loop(self, env: dict, provider) -> None:
        self._warm_up(env)
        started = time.monotonic()
        durations = []
        minimum = 4 if self.trace else MIN_SCANS  # traced: two of each kind
        index = 0
        while True:
            began = time.monotonic()
            self._scan(index, self.trace and index % 2 == 1, env, provider)
            durations.append(time.monotonic() - began)
            index += 1
            now = time.monotonic()
            if now + max(durations) > started + self.seconds and index >= minimum:
                break
            if _remaining() < 2 * max(durations):
                break
        self.elapsed = time.monotonic() - started

    # -- metrics -------------------------------------------------------

    def end_to_end(self) -> dict:
        samples = self.untraced
        if not samples:
            return {}
        scan_s = _median([r["scan_s"] for r in samples])
        kloc = samples[0]["kloc"]
        candidates = samples[0]["stats"]["candidates_filtered"]
        return {
            "scan_s": scan_s,
            "kloc_per_s": kloc / scan_s,
            "setup_s": _median(self.setups),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in samples]),
            "queries_per_candidate": _median([r["queries"] / candidates for r in samples]),
            "tokens_per_kloc": _median([r["tokens"] / kloc for r in samples]),
        }

    def per_layer(self) -> dict:
        if not self.traced:
            return {}
        out = {name: _median([layers[name] for _r, layers, _s in self.traced])
               for name in self.traced[0][1]}
        traced_scan = _median([res["scan_s"] for res, _l, _s in self.traced])
        untraced_scan = _median([r["scan_s"] for r in self.untraced])
        out["trace.overhead_s"] = traced_scan - untraced_scan
        return out

    def shares(self) -> dict:
        layers = sorted({k for _r, _l, shares in self.traced for k in shares})
        return {k: _median([shares.get(k, 0.0) for _r, _l, shares in self.traced])
                for k in layers}

    def report(self) -> dict:
        """Print the human-readable table; return the metrics for the JSON line."""
        table = PER_LAYER if self.trace else END_TO_END
        values = self.per_layer() if self.trace else self.end_to_end()
        scans = self.untraced + [res for res, _l, _s in self.traced]
        print(f"== {self.workload}  seed {self.seed}  {len(self.untraced)} untraced + "
              f"{len(self.traced)} traced scans, {self.elapsed:.1f} s measured")
        if self.untraced:
            times = sorted(r["scan_s"] for r in self.untraced)
            print(f"   scan_s samples: median {_median(times):.4f}  min {times[0]:.4f}  "
                  f"max {times[-1]:.4f} (tail = max of {len(times)})")
        metrics = {}
        for name, (unit, _better) in table.items():
            if name in values:
                metrics[name] = {"value": values[name], "unit": unit}
                print(f"   {name:36s} {values[name]:14.6g} {unit}")
        frac = self.failed / self.attempted if self.attempted else 1.0
        print(f"   {'failed_frac':36s} {frac:14.6g} frac ({self.failed} of "
              f"{self.attempted} scans+candidates)")
        if self.trace and self.traced:
            print("   self-time share: " + "  ".join(
                f"{k} {v:.1%}" for k, v in sorted(self.shares().items(), key=lambda kv: -kv[1])))
        if scans:
            stats = scans[0]["stats"]
            print(f"   {stats['files_included']} files, {scans[0]['kloc']:.1f} KLoC, "
                  f"{stats['candidates_filtered']} candidates, "
                  f"{stats['confirmed']} confirmed / {stats['rejected']} rejected")
        for line in self.errors[:10]:
            print(f"   FAILED {line}")
        return metrics

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.untraced) and bool(self.traced or not self.trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="solscout benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace))
        try:
            run.execute()
        except ScanFailed as exc:
            run.errors.append(str(exc))
            run.failed += 1
        got = run.report()
        correct = correct and run.correct
        attempted += max(run.attempted, 1)
        failed += run.failed
        if len(names) == 1:
            metrics = got
        else:
            metrics.update({f"{name}.{k}": v for k, v in got.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
