"""Exception hierarchy shared by all modules."""


class HyperinvError(Exception):
    """Base class for all library errors."""


class DuplicateEdge(HyperinvError):
    pass


class EmptyEdge(HyperinvError):
    pass


class UnknownVertex(HyperinvError):
    pass


class AntichainViolation(HyperinvError):
    """An edge contains another edge."""


class SameVertex(HyperinvError):
    pass


class NoEdges(HyperinvError):
    pass


class UnknownEdge(HyperinvError):
    pass


class SearchLimitExceeded(HyperinvError):
    """An exact search was asked to run beyond its configured cap."""


class SizeLimitExceeded(SearchLimitExceeded):
    """An exact computation was asked to run on an input beyond its size cap."""


class NotSemiInduced(HyperinvError):
    pass


class InvalidBouquet(HyperinvError):
    pass


class NotOptimalWitness(HyperinvError):
    pass


class NotSemiStronglyDisjoint(HyperinvError):
    pass


class Unsatisfiable(HyperinvError):
    """A random instance request cannot be fulfilled."""


class UnknownFilter(HyperinvError):
    pass


class UnknownSuite(HyperinvError):
    pass


class UnknownField(HyperinvError, ValueError):
    """A coefficient field other than q or f<p> for a prime p below 2^31."""
