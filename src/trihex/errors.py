"""Exception types shared across the package."""


class InternalInconsistencyError(RuntimeError):
    """Two computations that must agree did not; indicates a bug, not bad input."""


class VerificationFailureError(AssertionError):
    """A constructed enumeration disagrees with a closed-form count."""

    def __init__(self, v: int, field: str, expected: object, actual: object):
        self.v = v
        self.field = field
        self.expected = expected
        self.actual = actual
        super().__init__(f"V={v}: {field} expected {expected}, got {actual}")
