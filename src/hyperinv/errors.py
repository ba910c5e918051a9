"""The two library errors, one per error exit code of the CLI.

Every input the library refuses raises ``HyperinvError`` (exit 2), whose
message tells the cases apart; an exact search stopped at its cap raises
the subclass ``SearchLimitExceeded`` (exit 3).
"""


class HyperinvError(Exception):
    """Base class for all library errors."""


class SearchLimitExceeded(HyperinvError):
    """An exact search was asked to run beyond its configured cap."""
