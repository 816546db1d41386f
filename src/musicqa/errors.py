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
    line-oriented file, otherwise it is None.  ``path`` names that file once
    a caller that knows it has added it with ``in_file``; the message then
    reads ``<path>: line <n>: <reason>``.
    """

    def __init__(self, message: str, line_no: int | None = None, path: object = None):
        self.reason = message
        self.line_no = line_no
        self.path = path
        if line_no is not None:
            message = f"line {line_no}: {message}"
            if path is not None:
                message = f"{path}: {message}"
        super().__init__(message)

    def in_file(self, path: object) -> "ParseError":
        """This error naming ``path``, unless it has no line or names a file already."""
        if self.line_no is None or self.path is not None:
            return self
        return ParseError(self.reason, self.line_no, path)
