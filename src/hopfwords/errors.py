"""Exception types shared across the package."""


class HopfwordsError(Exception):
    """Base class for library errors."""


class ParseError(HopfwordsError):
    """Malformed textual input: polynomial, tensor, alphabet or JSON operand."""


class DomainError(HopfwordsError):
    """Operation applied outside its domain, e.g. alphabet mismatch, missing
    antipode, incompatible dimensions."""


class InconclusiveError(HopfwordsError):
    """The Hankel rank did not stabilize within the explored window; the data
    neither confirms nor refutes recognizability at this exploration length.

    The evidence is kept as attributes: r_small and r_big are the ranks of
    the (explore, explore) and (explore+1, explore+1) windows, explore the
    exploration length; each is None when not given."""

    def __init__(self, message: str, *, r_small=None, r_big=None, explore=None):
        super().__init__(message)
        self.r_small = r_small
        self.r_big = r_big
        self.explore = explore


class InternalInvariantError(HopfwordsError):
    """A condition that is guaranteed for well-formed inputs failed."""
