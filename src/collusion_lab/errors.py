"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError/RuntimeError so
callers (and the CLI exit-code mapping) can tell contract violations apart
from genuine runtime failures.
"""


class CollusionLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDist(CollusionLabError, ValueError):
    """A binary distribution parameter lies outside [0, 1] or is not finite."""


class LogOfZero(CollusionLabError, ValueError):
    """The log scoring rule was asked to score an outcome with probability 0."""


class InvalidPrior(CollusionLabError, ValueError):
    """A pairwise prior violates its structural assumptions."""


class ZeroLikelihood(CollusionLabError, ValueError):
    """Conditioning on an observation that has probability 0 in every state."""


class InvalidStrategy(CollusionLabError, ValueError):
    """A reporting strategy coordinate lies outside [0, 1]."""


class InvalidSetting(CollusionLabError, ValueError):
    """A mechanism setting (n, prior, rule) is malformed or inconsistent."""


class MissingWorldModel(CollusionLabError, ValueError):
    """An operation needs a generative world model but only a pairwise prior is present."""


class IndexOutOfRange(CollusionLabError, IndexError):
    """An agent/deviator index does not exist in the given profile."""


class InvalidGame(CollusionLabError, ValueError):
    """A finite Bayesian game table is malformed."""


class DimensionMismatch(CollusionLabError, ValueError):
    """A profile or certificate does not match the game's shape."""


class BudgetExceeded(CollusionLabError, RuntimeError):
    """``find_deviation`` exhausted its node budget before finishing.

    Attributes:
        nodes_searched: the count at the first node past the budget; nodes
            are utility evaluations.
    """

    def __init__(self, nodes_searched: int, message: str | None = None):
        self.nodes_searched = nodes_searched
        super().__init__(message or f"search budget exhausted at node {nodes_searched}")


class NoFiniteN(CollusionLabError, ArithmeticError):
    """No finite population size satisfies the large-n conditions."""


class ConfigError(CollusionLabError, ValueError):
    """A run configuration is malformed (CLI exit code 2)."""
