"""Exceptions shared across the library.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map errors onto exit codes without string matching.
"""

from __future__ import annotations


class MatchowError(Exception):
    """Base class for all library errors."""


class EmptyBases(MatchowError):
    """A matroid was given no bases at all."""


class ExchangeViolation(MatchowError):
    """The proposed basis family fails the basis-exchange axiom."""


class LoopPresent(MatchowError):
    """A loop was found where a loopless matroid is required."""


class LoopContract(MatchowError):
    """Attempted contraction of a loop."""


class KOutOfRange(MatchowError):
    """The coefficient index k is outside 0..r (empty for a rank-0 matroid)."""


class RangeError(MatchowError):
    """A rank range [r1, r2] is outside the valid window, or a seed is not an int."""


class NotFullRank(MatchowError):
    """Lattice generators do not span the ambient space."""


class DegeneratePoint(MatchowError):
    """An evaluation point hit a vanishing chamber denominator.

    `piecewise.chamber_denominator` raises it.  `deg_pp` cannot: its points
    have coordinates distinct modulo its primes, so no denominator vanishes.
    """


class DegenerateSystem(MatchowError):
    """A displacement choice produced a non-transversal intersection."""


class Unbalanced(MatchowError):
    """A weighted fan fails the balancing condition.

    ``certificate`` holds the first violating codimension-one cone.
    """

    def __init__(self, certificate, message="fan is not balanced"):
        super().__init__(f"{message}: at cone {certificate!r}")
        self.certificate = certificate
