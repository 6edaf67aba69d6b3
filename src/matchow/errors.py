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
    """A loop in a matroid that must be loopless, named by its least element.

    Only the guard `Matroid.degree_rank` raises it: every degree, the chain
    count, the reduced polynomial, the matroid fan and the truncation
    windows are defined on loopless matroids alone."""


class LoopContract(MatchowError):
    """Attempted contraction of a loop."""


class KOutOfRange(MatchowError):
    """The coefficient index k or a descent position is outside its range, or
    the matroid has rank 0, where r = -1 and no degree, fan or reduced
    polynomial exists (the guard `Matroid.degree_rank`)."""


class RangeError(MatchowError):
    """A truncation window [r1, r2] is outside 1 <= r1 <= r2 <= r, or a seed is
    not an int."""


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

    def __init__(self, certificate):
        super().__init__(f"fan is not balanced: at cone {certificate!r}")
        self.certificate = certificate
