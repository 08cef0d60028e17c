"""Exception types shared across the package."""


class IfslabError(Exception):
    """Base class for all ifslab errors."""


class InvalidParameterError(IfslabError):
    """A numeric or structural argument is out of its allowed range."""


class InvalidWordError(IfslabError):
    """A word contains an index that is not a valid map index of its IFS."""


class PreconditionError(IfslabError):
    """A named hypothesis of a pipeline stage is violated (e.g. the
    renormalization requires a homogeneous target IFS with a certified
    separation gap)."""
