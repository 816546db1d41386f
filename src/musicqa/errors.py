"""Exception hierarchy shared across the package.

Every error carries the exit code the command line returns for it: 1 for
usage or configuration, 2 for input data, 3 for an external service.
"""


class MusicQaError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class DataError(MusicQaError):
    """Input data is malformed or inconsistent."""

    exit_code = 2


class ServiceError(MusicQaError):
    """An external service (LLM or embedding endpoint) failed."""

    exit_code = 3


class ParseError(DataError):
    """Malformed input file (not UTF-8, bad JSON, missing fields, bad types).

    ``line_no`` is set when the error can be pinned to a line of a
    line-oriented file, otherwise it is None.
    """

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no
