"""The two exception types: the type states the CLI's exit code, and the
message states the reason."""


class WakimotoError(Exception):
    """A usage or domain error: the input is refused (CLI exit code 2)."""


class RealizationBug(Exception):
    """An internal inconsistency: a bug in the package (CLI exit code 3)."""
