"""Exception hierarchy shared by all nbase modules.

Every domain error derives from NBaseError so the CLI can map any of them
to exit code 1 while printing the variant name.
"""


class NBaseError(Exception):
    """Base class for all domain errors."""


class LevelMismatch(NBaseError):
    """An element appeared at a level where the operation is undefined."""


class RangeViolation(NBaseError):
    """A graft index lies outside the slot range of the partial composite."""


class OrderViolation(NBaseError):
    """Canonical form requires nondecreasing graft indices."""


class MatchViolation(NBaseError):
    """A factor's total does not match the slot it is grafted into."""


class NotComposable(NBaseError):
    """Composition arguments fail the slot/total matching condition."""


class InvalidSequence(NBaseError):
    """A raw application sequence violates range or matching at some step."""


class InvalidTree(NBaseError):
    """Child lists do not form one tree below node 1."""


class InvalidShuffle(NBaseError):
    """Position maps of a composition do not form a shuffle."""


class DegreeMismatch(NBaseError):
    """A permutation's degree does not match the object it should act on."""


class SizeBound(NBaseError):
    """Input exceeds the size bound of an exhaustive operation."""


class NotBinary(NBaseError):
    """Operation requires a level-2 element with all entries of arity 2."""


class Overflow(NBaseError):
    """Coset enumeration exceeded its coset cap; the result is inconclusive."""


class OutOfRange(NBaseError):
    """Ordinal argument lies outside the encodable range."""


class NotImplementedLevel(NBaseError):
    """The operation is only defined for low levels."""


class ParseError(NBaseError):
    """Malformed element or ordinal literal."""


class TrustViolation(NBaseError):
    """Under NBASE_CHECK=1, a trusted construction failed full validation."""


class UnknownStrategy(NBaseError):
    """A name that selects a strategy, format, kind or suite is not known."""
