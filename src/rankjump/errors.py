"""Exception types shared across the package."""


class RankJumpError(Exception):
    """Base class for all errors raised by this library."""


class ZeroInput(RankJumpError):
    """An operation that needs a nonzero integer got zero."""


class UnitClass(RankJumpError):
    """A square class equal to 1 where a nontrivial class is required."""


class PoleAtPoint(RankJumpError):
    """A rational function was evaluated where its denominator vanishes."""


class WrongDegree(RankJumpError):
    """A polynomial of the wrong degree was supplied."""


class NotMonic(RankJumpError):
    """A monic polynomial was required."""


class SingularCurve(RankJumpError):
    """4A^3 + 27B^2 = 0: the Weierstrass equation is singular."""


class PointNotOnCurve(RankJumpError):
    """A point does not satisfy the curve equation it was used with."""


class BadReduction(RankJumpError):
    """Reduction mod p was requested at a prime dividing the discriminant."""


class ToleranceUnreachable(RankJumpError):
    """The doubling depth needed for the requested tolerance exceeds the cap."""


class EmptyInput(RankJumpError):
    """A nonempty collection was required."""


class DegenerateFiber(RankJumpError):
    """The fiber at the requested parameter is singular or undefined."""


class NotOnTotalSpace(RankJumpError):
    """Claimed total-space coordinates do not satisfy the family equation."""


class LineAtInfinity(RankJumpError):
    """x + y = 0 on the cubic pencil: the point maps to the zero section."""


class SearchExhausted(RankJumpError):
    """An enumeration bound was exhausted before the goal was reached."""


class FamilyFormatError(RankJumpError):
    """A family description (JSON or CLI) does not match the schema, or the
    family fails a hypothesis that `validate` checks (an error finding)."""


class InvalidCertificate(RankJumpError):
    """A certificate's exact claim does not hold on re-checking."""
