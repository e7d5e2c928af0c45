"""End-to-end scan orchestration.

discover -> parse -> whitelist filter -> call graph -> reachability ->
per-rule filtering -> scenario matching -> property matching ->
recognition -> validation -> static confirmation -> report.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from .callgraph import assemble_context, build_call_graph, compute_reachability
from .config import ScanConfig
from .confirm import confirm_candidate
from .errors import (
    ContextOverflow,
    ProviderError,
    ProviderUnavailable,
    SoliditySyntaxError,
    UnparseableAnswer,
)
from .filters import candidates_for_rule
from .frontend import enumerate_functions, index_contracts, parse_source
from .gateway import (
    LlmGateway,
    RecognitionAbort,
    Transcript,
    build_property_prompt,
    build_recognition_prompt,
    build_scenario_prompt,
    estimate_tokens,
    parse_recognition_answer,
    parse_scenario_answer,
    parse_yes_no,
    validate_recognition,
)
from .project import discover_sources, filter_openzeppelin, load_signature_set
from .report import Finding, count_kloc, emit_report, summarize_cost
from .rules import load_rules


# reason prefix of a candidate skipped on a provider failure
PROVIDER_ERROR = "provider-error: "


@dataclass
class PreparedScan:
    """Everything the scan knows before the first LLM query."""

    config: ScanConfig
    layout: object
    parse_failures: list
    functions: list
    survivors: list
    graph: object
    reach: object
    rules: list
    scannable: list


def prepare_scan(config: ScanConfig, every_body: bool = False) -> PreparedScan:
    """Parse, whitelist, build the call graph and find what is reachable.

    The graph walks only the function bodies the scan reads, and so only
    those are parsed; ``every_body`` walks them all (see ``build_call_graph``).
    """
    layout = discover_sources(config.project_root, set(config.excluded_segments))

    units = []
    parse_failures = []
    for src in layout.included:
        try:
            units.append(parse_source(src))
        except SoliditySyntaxError as exc:
            parse_failures.append((src.path, str(exc)))

    functions = [fn for unit in units for fn in enumerate_functions(unit)]
    contracts_by_name = index_contracts(units)

    whitelist = load_signature_set(config.whitelist_path)
    survivors = filter_openzeppelin(functions, whitelist, contracts_by_name)
    graph = build_call_graph(survivors, contracts_by_name, every_body)
    reach = compute_reachability(graph, survivors, set(config.acl_modifiers))
    rules = load_rules(config.rules_dir)
    scannable = [
        fn for fn in survivors
        if fn.has_body and graph.id_of(fn) in reach.reachable
    ]
    return PreparedScan(
        config=config,
        layout=layout,
        parse_failures=parse_failures,
        functions=functions,
        survivors=survivors,
        graph=graph,
        reach=reach,
        rules=rules,
        scannable=scannable,
    )


@dataclass
class ScanResult:
    findings: list = field(default_factory=list)
    ledger: object = None
    meta: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    exchanges: list = field(default_factory=list)

    @property
    def confirmed(self) -> list:
        return [f for f in self.findings if f.verdict == "confirmed"]

    @property
    def provider_failures(self) -> list:
        """Candidates skipped because the provider failed on one of their queries."""
        return [f for f in self.findings if f.reason.startswith(PROVIDER_ERROR)]

    def report(self, fmt: str) -> str:
        return emit_report(self.findings, self.ledger, fmt, self.meta)


def scan(config: ScanConfig, gateway: LlmGateway | None = None) -> ScanResult:
    """Run a full scan. A pre-built gateway may be injected for testing.

    The configuration is validated before anything is parsed; see
    ``ScanConfig.validate`` for what an injected gateway exempts.

    The parsed project is a large, long-lived heap, so cyclic GC is kept
    off while it is built and the result is frozen, keeping later
    collections from walking it again. The heap holds no reference
    cycle, so reference counting frees it once ``_scan`` returns and no
    collection is needed; the freeze is undone on the way out and the
    caller's GC state (enabled flag, frozen objects) is left as it was
    found.
    """
    config.validate(builds_gateway=gateway is None)
    started = time.perf_counter()
    # a broken transcript is reported before anything is parsed
    replay = (Transcript.load(config.transcript_path).answer
              if gateway is None and config.mode == "replay" else None)
    enabled = gc.isenabled()
    freeze = enabled and gc.get_freeze_count() == 0
    try:
        prepared = _prepare_frozen(config, enabled, freeze)
        return _scan(prepared, config, gateway or _build_gateway(config, replay), started)
    finally:
        if freeze:
            gc.unfreeze()


def _prepare_frozen(config: ScanConfig, enabled: bool, freeze: bool) -> PreparedScan:
    gc.disable()
    try:
        prepared = prepare_scan(config)
        if freeze:
            gc.freeze()
        return prepared
    finally:
        if enabled:
            gc.enable()


def _build_gateway(config: ScanConfig, replay) -> LlmGateway:
    """The gateway of ``config.mode``: ``replay`` answers if given, else the provider.

    Record mode appends to the transcript file, opened only once the project has parsed.
    """
    return LlmGateway(config.provider, replay,
                      config.transcript_path if config.mode == "record" else None)


def _scan(prepared: PreparedScan, config: ScanConfig, gateway: LlmGateway,
          started: float) -> ScanResult:
    graph, reach = prepared.graph, prepared.reach
    acl = set(config.acl_modifiers)

    # rule-major, so findings keep the order of a rule-by-rule loop
    pairs = [
        (rule, fn)
        for rule in prepared.rules
        for fn in candidates_for_rule(prepared.scannable, rule, acl)
    ]

    stats = {
        "files_included": len(prepared.layout.included),
        "files_excluded": len(prepared.layout.excluded),
        "parse_failures": len(prepared.parse_failures),
        "functions_total": len(prepared.functions),
        "functions_after_whitelist": len(prepared.survivors),
        "functions_reachable": len(prepared.scannable),
        "candidates_filtered": len(pairs),
        "scenario_matched": 0,
        "property_matched": 0,
        "recognized": 0,
        "confirmed": 0,
        "rejected": 0,
        "skipped": 0,
    }
    workers = max(1, gateway.config.max_in_flight) if config.mode != "replay" else 1

    def process(pair):
        rule, fn = pair
        return _process_candidate(fn, rule, config, graph, reach, gateway)

    try:
        if workers > 1 and len(pairs) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(process, pairs))
        else:
            outcomes = [process(pair) for pair in pairs]
    except BaseException:
        gateway.close()  # a stopped scan still closes its transcript
        raise

    findings: list[Finding] = []
    for matched, finding in outcomes:
        stats["scenario_matched"] += matched >= 1
        stats["property_matched"] += matched >= 2
        if finding is not None:
            findings.append(finding)
            stats[finding.verdict] += 1

    stats["recognized"] = sum(1 for f in findings if f.recognized)

    kloc = count_kloc(prepared.layout.included)
    wall = time.perf_counter() - started
    if config.mode == "replay":
        # a replay's wall is the recorded latency sum, so its report is
        # deterministic; loaded entries carry latency 0 until it is persisted
        wall = round(sum(e.latency for e in gateway.exchanges), 6)
    ledger = summarize_cost(
        gateway.exchanges, wall, kloc,
        config.provider.price_in_per_1k, config.provider.price_out_per_1k,
    )

    meta = {
        "tool": "solscout",
        "version": 1,
        "project_root": config.project_root,
        "project": config.project_name,
        "mode": config.mode,
        "config_fingerprint": config.fingerprint(),
        "rules": [r.id for r in prepared.rules],
        "context_depth": "direct-neighbors",
        "loc_counting": "non-blank, non-comment lines of included files",
        "files": {
            "included": [src.path for src in prepared.layout.included],
            "excluded": [[path, reason] for path, reason in prepared.layout.excluded],
        },
        "parse_failures": [[path, msg] for path, msg in prepared.parse_failures],
        "stats": stats,
    }
    result = ScanResult(
        findings=findings,
        ledger=ledger,
        meta=meta,
        stats=stats,
        exchanges=list(gateway.exchanges),
    )
    gateway.close()
    return result


def _process_candidate(fn, rule, config, graph, reach, gateway):
    """One (rule, function) pair after filtering.

    Returns ``(matched, finding or None)``: ``matched`` counts the LLM
    stages passed (scenario, then property), whatever the exit.
    """
    fid = graph.id_of(fn)
    exchanges = []  # every query made for the pair, retries included

    def finding(verdict, reason="", recognized=None):
        return Finding(
            rule_id=rule.id,
            project=config.project_name,
            file=fn.file.path if fn.file else "",
            function_id=fid,
            contract=fn.contract,
            function=fn.display_name,
            span=fn.span,
            verdict=verdict,
            reason=reason,
            recognized=recognized or {},
            transcript_keys=["|".join(e.key) for e in exchanges],
            excerpt=fn.source(),
        )

    def ask(purpose, prompt, parser):
        return gateway.ask(purpose, rule.id, fid, prompt, parser, exchanges)

    try:
        context = assemble_context(fn, graph, rule.context_policy, config.token_budget,
                                   estimate_tokens)
    except ContextOverflow as exc:
        return 0, finding("skipped", f"too large: {exc.estimate} tokens > {exc.budget}")

    matched = 0
    answer = None
    try:
        # scenario matching: all of a rule's scenarios in one prompt
        answers = ask("scenario", build_scenario_prompt(rule.scenarios, context.text),
                      lambda text: parse_scenario_answer(text, len(rule.scenarios)))
        yes = [i for i, said_yes in sorted(answers.items()) if said_yes]
        if not yes:
            return matched, None
        matched = 1

        # property matching double-confirms scenario + property together
        if not ask("property", build_property_prompt(rule, context.text, yes[0] - 1),
                   parse_yes_no):
            return matched, None
        matched = 2

        if rule.recognition.questions:
            answer = ask("recognition", build_recognition_prompt(rule.recognition, context.text),
                         lambda text: parse_recognition_answer(text, rule.recognition.slots))
    except UnparseableAnswer:
        return matched, finding("skipped", "llm-format")
    except ProviderUnavailable:
        raise  # every later query would fail the same way
    except ProviderError as exc:
        # a query the provider rejected costs this candidate, not the scan
        return matched, finding("skipped", f"{PROVIDER_ERROR}{exc}")

    recognized = {}
    if answer is not None:
        validated = validate_recognition(answer, context, rule.recognition.slots)
        if isinstance(validated, RecognitionAbort):
            return matched, finding(
                "rejected", f"recognition abort: {validated.slot}: {validated.reason}")
        recognized = {
            slot: {"name": name, "description": desc}
            for slot, (name, desc) in validated.items()
        }
    return matched, confirm_candidate(finding("rejected", recognized=recognized),
                                      rule, context, reach)
