"""Shared exception types, and the default work cap, which the command line
reads without importing counting."""

DEFAULT_WORK_CAP = 10 ** 8  # inclusion-exclusion leaves; refuses K6 and K6-e


class CapExceeded(RuntimeError):
    """An operation refused to run because its estimated work or memory
    exceeds the configured cap.  Carries the estimate and the cap."""

    def __init__(self, message, estimate=None, cap=None):
        super().__init__(message)
        self.estimate = estimate
        self.cap = cap


class Graph6ParseError(ValueError):
    """Malformed graph6 input.  ``offset`` is the byte position of the
    first offending byte."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnsupportedSizeError(ValueError):
    """Input size outside the supported range (vertex cap 64, internal
    enumeration cap 6, color cap 64)."""
