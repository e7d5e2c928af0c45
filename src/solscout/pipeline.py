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
from .confirm import confirm_candidate, validate_recognition
from .errors import (
    ContextOverflow,
    ProviderError,
    ProviderUnavailable,
    SoliditySyntaxError,
    UnparseableAnswer,
)
from .filters import candidates_for_rule
from .frontend import index_contracts, parse_source
from .gateway import LlmGateway, Transcript, once
from .prompts import (
    build_property_prompt,
    build_recognition_prompt,
    build_scenario_prompt,
    estimate_tokens,
    parse_recognition_answer,
    parse_scenario_answer,
    parse_yes_no,
)
from .project import discover_sources, filter_openzeppelin, load_signature_set
from .report import Finding, count_kloc, emit_report, summarize_cost
from .rules import load_rules
from .transport import HttpProvider


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

    functions = [fn for unit in units for fn in unit.functions]
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

    Outside replay, ``config.provider.max_in_flight`` threads ask the
    queries, injected gateway or not, and no more are in flight at once;
    functions with the same source text run in order on one worker.
    The gateway built here asks an ``HttpProvider`` of ``config.provider``
    through ``gateway.once``, so each distinct prompt is sent once per
    scan: a prompt embeds its function's source, so only such twins
    repeat one, and each later twin finds the answer kept. A replay
    answers every key as recorded. The gateway, built here or injected,
    is closed on the way out, also when the scan stops on an error.

    The replay transcript and the parsed project are large, long-lived
    heaps, so cyclic GC is kept off while they are built (a broken
    transcript is still reported before anything is parsed) and the
    result is frozen, keeping later collections from walking it again.
    The heap holds no reference cycle, so reference counting frees it
    once ``_scan`` returns and no collection is needed; the freeze is
    undone on the way out and the caller's GC state (enabled flag,
    frozen objects) is left as it was found.
    """
    config.validate(builds_gateway=gateway is None)
    started = time.perf_counter()
    enabled = gc.isenabled()
    freeze = enabled and gc.get_freeze_count() == 0
    try:
        replay, prepared = _prepare_frozen(config, gateway is None and config.mode == "replay",
                                           enabled, freeze)
        # record mode appends to the transcript file, opened only once the project has parsed
        gateway = gateway or LlmGateway(replay or once(HttpProvider(config.provider)),
                                        config.transcript_path if config.mode == "record" else None)
        return _scan(prepared, config, gateway, started)
    finally:
        if gateway is not None:
            gateway.close()  # a stopped scan still closes its transcript
        if freeze:
            gc.unfreeze()


def _prepare_frozen(config: ScanConfig, replays: bool, enabled: bool, freeze: bool) -> tuple:
    """The replay transcript's answerer (None unless ``replays``), then the prepared scan."""
    gc.disable()
    try:
        # a broken transcript is reported before anything is parsed
        replay = Transcript.load(config.transcript_path).answer if replays else None
        prepared = prepare_scan(config)
        if freeze:
            gc.freeze()
        return replay, prepared
    finally:
        if enabled:
            gc.enable()


def _scan(prepared: PreparedScan, config: ScanConfig, gateway: LlmGateway,
          started: float) -> ScanResult:
    graph, reach = prepared.graph, prepared.reach
    acl = set(config.acl_modifiers)

    # rule-major pairs: the order of the findings; each function is one
    # unit of work with its rules, in the order it first appears here
    pairs = [
        (rule, fn)
        for rule in prepared.rules
        for fn in candidates_for_rule(prepared.scannable, rule, acl)
    ]
    units = {}  # function -> its rules
    for rule, fn in pairs:
        units.setdefault(fn, []).append(rule)

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
    workers = config.provider.max_in_flight if config.mode != "replay" else 1
    # a work item is a list of units. With several workers, functions with
    # the same source text ask the same prompts, so they are one item, run
    # in unit order on one worker: the first asks the provider and the
    # others find its answers (``gateway.once``), so no two workers ever
    # ask one prompt. One worker asks in unit order anyway.
    if workers > 1:
        twins = {}  # focus source -> its units
        for unit in units.items():
            twins.setdefault(unit[0].source(), []).append(unit)
        items = list(twins.values())
    else:
        items = [[unit] for unit in units.items()]

    def process(item):
        """``((rule id, function), outcome)`` for each pair of the item's units."""
        return [((rule.id, fn), outcome) for fn, rules in item
                for rule, outcome in zip(rules, _process_candidate(fn, rules, config, graph,
                                                                   reach, gateway))]

    if workers > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_item = list(pool.map(process, items))
    else:
        per_item = list(map(process, items))
    outcome_of = dict(pair for item_pairs in per_item for pair in item_pairs)
    outcomes = [outcome_of[rule.id, fn] for rule, fn in pairs]

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
    return ScanResult(
        findings=findings,
        ledger=ledger,
        meta=meta,
        stats=stats,
        exchanges=list(gateway.exchanges),
    )


def _process_candidate(fn, rules, config, graph, reach, gateway):
    """One function and the rules whose filters it passed, in rule order.

    Each rule gets the context its own policy assembles, once per
    distinct policy. The rules whose contexts have the same text share
    one scenario query that numbers all their scenarios, keyed by their
    ids joined with ``,``; a rule alone asks its own scenario prompt
    under its own id. A failed shared query skips each of its rules.
    Property and recognition queries, validation and confirmation are
    per rule.

    Returns one ``(matched, finding or None)`` per rule: ``matched``
    counts the LLM stages passed (scenario, then property), whatever the
    exit.
    """
    fid = graph.id_of(fn)
    outcomes = [None] * len(rules)
    contexts = {}  # context policy -> its context, or why it is too large
    groups = {}  # context text -> [(index, rule, context)], in rule order
    for index, rule in enumerate(rules):
        context = contexts.get(rule.context_policy)
        if context is None:
            try:
                context = assemble_context(fn, graph, rule.context_policy, config.token_budget,
                                           estimate_tokens)
            except ContextOverflow as exc:
                context = f"too large: {exc.estimate} tokens > {exc.budget}"
            contexts[rule.context_policy] = context
        if isinstance(context, str):
            outcomes[index] = 0, _finding(fn, fid, rule, config, [], "skipped", context)
            continue
        groups.setdefault(context.text, []).append((index, rule, context))

    for text, members in groups.items():
        scenarios = [sentence for _i, rule, _c in members for sentence in rule.scenarios]
        asked = []  # the group's scenario queries, retries included
        try:
            answers = gateway.ask("scenario", ",".join(rule.id for _i, rule, _c in members), fid,
                                  build_scenario_prompt(scenarios, text),
                                  lambda reply: parse_scenario_answer(reply, len(scenarios)),
                                  asked)
        except ProviderUnavailable:
            raise  # every later query would fail the same way
        except (UnparseableAnswer, ProviderError) as exc:
            for index, rule, _context in members:
                outcomes[index] = 0, _finding(fn, fid, rule, config, asked, "skipped",
                                              _skip_reason(exc))
            continue
        offset = 0
        for index, rule, context in members:
            yes = [i for i in range(1, len(rule.scenarios) + 1) if answers[offset + i]]
            offset += len(rule.scenarios)
            outcomes[index] = _after_scenario(fn, fid, rule, context, yes, list(asked),
                                              config, reach, gateway)
    return outcomes


def _after_scenario(fn, fid, rule, context, yes, made, config, reach, gateway):
    """One (rule, function) pair past its scenario query.

    ``yes`` lists the rule's scenarios answered Yes, from 1; ``made``
    holds the queries made for the pair so far, and gets the rest.
    """
    if not yes:
        return 0, None

    def ask(purpose, prompt, parser):
        return gateway.ask(purpose, rule.id, fid, prompt, parser, made)

    matched = 1
    answer = None
    try:
        # property matching double-confirms scenario + property together
        if not ask("property", build_property_prompt(rule, context.text, yes[0] - 1),
                   parse_yes_no):
            return matched, None
        matched = 2

        if rule.recognition.questions:
            answer = ask("recognition", build_recognition_prompt(rule.recognition, context.text),
                         lambda text: parse_recognition_answer(text, rule.recognition.slots))
    except ProviderUnavailable:
        raise
    except (UnparseableAnswer, ProviderError) as exc:
        return matched, _finding(fn, fid, rule, config, made, "skipped", _skip_reason(exc))

    recognized = {}
    if answer is not None:
        abort = validate_recognition(answer, context, rule.recognition.slots)
        if abort is not None:
            return matched, _finding(fn, fid, rule, config, made, "rejected",
                                     f"recognition abort: {abort}")
        recognized = {
            slot: {"name": name, "description": desc}
            for slot, (name, desc) in answer.items()
        }
    return matched, confirm_candidate(
        _finding(fn, fid, rule, config, made, "rejected", recognized=recognized),
        rule, context, reach)


def _skip_reason(exc: Exception) -> str:
    """Why a pair is skipped when one of its queries fails."""
    if isinstance(exc, UnparseableAnswer):
        return "llm-format"
    # a query the provider rejected costs its candidates, not the scan
    return f"{PROVIDER_ERROR}{exc}"


def _finding(fn, fid, rule, config, made, verdict, reason="", recognized=None) -> Finding:
    """The finding of a (rule, function) pair; ``made`` is every query made for it."""
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
        transcript_keys=["|".join(e.key) for e in made],
        excerpt=fn.source(),
    )
