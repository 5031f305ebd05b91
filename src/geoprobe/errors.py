"""Exception types shared across the package.

Tool failures are deliberately *not* exceptions: they travel in-band as
ToolResult values (the transport errors here are turned into them), so the
episode loop keeps deciding under partial failure. The other classes cover
programming errors, bad inputs, and integrity violations that stop a run.
"""

from __future__ import annotations


class GeoprobeError(Exception):
    """Base class for all package-specific errors."""


class UnknownRegionError(GeoprobeError):
    """A region id was referenced that the gazetteer does not contain;
    ``context``, when given, says where (a file and its entry)."""

    def __init__(self, region_id: str, context: str | None = None):
        where = "" if context is None else f"{context}: "
        super().__init__(f"{where}unknown region id: {region_id!r}")
        self.region_id = region_id


class GazetteerFileError(GeoprobeError):
    """Gazetteer file rejected; carries the file's path, when known, and the
    1-based line of the bad record."""

    def __init__(self, line: int, message: str, path: str | None = None):
        where = f"line {line}" if path is None else f"{path}: line {line}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.path = path


class InsufficientEvidenceError(GeoprobeError):
    """Finalization was requested while the candidate space is still global."""


class DecisionParseError(GeoprobeError):
    """Reasoner output could not be parsed into a valid decision envelope.

    ``span`` is the (start, end) character range of the offending region in
    the raw text, or None when no JSON object was found at all.
    """

    def __init__(self, message: str, span: tuple[int, int] | None = None):
        super().__init__(message)
        self.span = span


class TransportError(GeoprobeError):
    """An HTTP call failed below HTTP; chained to the socket error, or to the
    ``ValueError`` that names a framing fault in the answer."""


class TransportTimeout(TransportError):
    """An HTTP call's connect or read outlasted its timeout."""


class BackendUnavailableError(GeoprobeError):
    """The reasoner backend could not produce a decision (network, timeout)."""


class SeqGapError(GeoprobeError):
    """A trajectory event arrived with a non-contiguous sequence number."""

    def __init__(self, expected: int, got: int):
        super().__init__(f"expected seq {expected}, got {got}")
        self.expected = expected
        self.got = got


class BudgetTooSmallError(GeoprobeError):
    """Even the floor rendering of the compressed context exceeds the budget."""


class TraceFormatError(GeoprobeError):
    """Trace file is malformed; carries the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class HashMismatchError(GeoprobeError):
    """Replay diverged from the recorded trace at ``seq``."""

    def __init__(self, seq: int, message: str):
        super().__init__(f"seq {seq}: {message}")
        self.seq = seq


class DatasetError(GeoprobeError):
    """Benchmark dataset file rejected; carries line and optional field."""

    def __init__(self, line: int, message: str, field: str | None = None):
        where = f"line {line}" if field is None else f"line {line}, field {field!r}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.field = field


class EmptyDatasetError(GeoprobeError):
    """A benchmark run or metric was requested over zero samples."""


class UnmatchedPredictionError(GeoprobeError):
    """A prediction references a sample id absent from the dataset."""

    def __init__(self, sample_id: str):
        super().__init__(f"prediction for unknown sample id: {sample_id!r}")
        self.sample_id = sample_id


class EmptyPredictionsError(GeoprobeError):
    """A prediction-only metric was requested over zero predictions."""


class ConfigError(GeoprobeError):
    """Run configuration is invalid (missing file, bad value, bad schema)."""
