"""Exception types shared across the package."""


class RankJumpError(Exception):
    """Base class for the library's own outcomes and refusals.

    A subclass names an outcome on well-formed input that a caller may
    handle, or a refusal that a command reports.  A malformed argument
    (zero where a nonzero value is needed, a wrong degree, an empty
    collection, a point off the stated equation) raises ValueError.
    """


class PoleAtPoint(RankJumpError):
    """A rational function was evaluated where its denominator vanishes."""


class SingularCurve(RankJumpError):
    """4A^3 + 27B^2 = 0: the Weierstrass equation is singular."""


class PointNotOnCurve(RankJumpError):
    """A point does not satisfy the curve equation it was used with."""


class ToleranceUnreachable(RankJumpError):
    """The doubling depth needed for the requested tolerance exceeds the cap."""


class DegenerateFiber(RankJumpError):
    """The fiber at the requested parameter is singular or undefined."""


class SearchExhausted(RankJumpError):
    """An enumeration bound was exhausted before the goal was reached."""


class FamilyFormatError(RankJumpError):
    """A family description (JSON or CLI) does not match the schema, or the
    family fails a hypothesis that `validate` checks (an error finding)."""


class InvalidCertificate(RankJumpError):
    """A certificate's exact claim does not hold on re-checking."""
