"""Exception types shared across the scanner."""


class SolscoutError(Exception):
    """Base class for all scanner errors."""


class SoliditySyntaxError(SolscoutError):
    """Raised when a source file cannot be parsed at all.

    Carries the 1-based line/column of the offending position so the
    scan report can point at it. Files raising this are skipped, never
    fatal for a whole scan.
    """

    def __init__(self, message: str, line: int, column: int, path: str = ""):
        self.line = line
        self.column = column
        self.path = path
        where = f"{path}:" if path else ""
        super().__init__(f"{where}{line}:{column}: {message}")


class RuleParseError(SolscoutError):
    """A rule file violates the rule schema."""

    def __init__(self, path: str, field: str, reason: str):
        self.path = path
        self.field = field
        self.reason = reason
        super().__init__(f"{path}: field '{field}': {reason}")


class ContextOverflow(SolscoutError):
    """The focus function alone exceeds the context token budget."""

    def __init__(self, function_id: str, estimate: int, budget: int):
        self.function_id = function_id
        self.estimate = estimate
        self.budget = budget
        super().__init__(
            f"{function_id}: {estimate} estimated tokens exceed budget {budget}"
        )


class UnparseableAnswer(SolscoutError):
    """The model response contained no extractable answer."""


class ProviderError(SolscoutError):
    """HTTP or network failure talking to the completion provider."""


class ProviderUnavailable(ProviderError):
    """A provider failure that every query would meet, so the scan stops.

    No API key, a bad endpoint, proxy or CA bundle, a key or route the
    provider refuses (401, 403, 404, 407), or a provider still failing
    after the last retry.
    """


class ReplayMiss(SolscoutError):
    """Replay mode found no transcript entry for a prompt key."""

    def __init__(self, key: tuple):
        self.key = key
        super().__init__(f"no transcript entry for key {key!r}")


class TruthMismatch(SolscoutError):
    """Findings reference a project absent from the ground-truth file."""


class ConfigError(SolscoutError):
    """Scan configuration is invalid or incomplete."""


class TranscriptError(SolscoutError):
    """A transcript file holds a line that is not a transcript entry."""
