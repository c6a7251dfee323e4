"""Shared exception types."""


class WakimotoError(Exception):
    """Base class for usage and domain errors (CLI exit code 2)."""


class InvalidRank(WakimotoError):
    pass


class DimensionError(WakimotoError):
    pass


class InvalidWeylWord(WakimotoError):
    pass


class NotInNilradical(WakimotoError):
    pass


class NotSimpleRoot(WakimotoError):
    pass


class ModuleMismatch(WakimotoError):
    pass


class EmptyWindow(WakimotoError):
    pass


class EmptyWeightSpace(WakimotoError):
    pass


class RealizationBug(Exception):
    """An internal inconsistency: a bug in the package, not a usage error."""


class SizeMismatch(WakimotoError):
    pass
