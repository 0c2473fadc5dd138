"""Exception types shared across the package."""


class ConjsepError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(ConjsepError, ValueError):
    """Operands have incompatible shapes."""


class NotCoprime(ConjsepError, ValueError):
    """Modular inverse requested for a non-coprime pair."""


class NotInLattice(ConjsepError, ValueError):
    """A vector violated a lattice-membership precondition."""


class SpecParseError(ConjsepError, ValueError):
    """A group-spec document or element string could not be parsed."""


class SpecRejected(ConjsepError):
    """Declared central-series data failed verification."""

    def __init__(self, check: str, detail: str = ""):
        self.check = check
        self.detail = detail
        super().__init__(f"spec rejected at check {check!r}: {detail}")


class SizeLimit(ConjsepError):
    """An enumeration exceeded its configured bound."""


class ClassTooHigh(ConjsepError):
    """The commutator-lattice conjugacy test needs nilpotency class <= 2."""


class NonAbelianPart(ConjsepError):
    """Product-group conjugacy requires an abelian matrix part."""


class AbelianGroup(ConjsepError):
    """No inseparability witness exists: the group is abelian."""


class NoZ2Rep(ConjsepError):
    """The group document declares no second-centre representative."""


class VerificationFailed(ConjsepError):
    """A witness failed one of its global re-verification checks."""

    def __init__(self, check: str, detail: str = ""):
        self.check = check
        self.detail = detail
        super().__init__(f"verification failed at {check!r}: {detail}")


class LocalCheckFailed(ConjsepError):
    """A per-level check failed: a witness's explicit conjugator, its orbit
    cross-check, or the images' membership in the level's quotient; or, in
    a tower scan, an orbit conjugator reduced from a higher level."""


class NotApplicable(ConjsepError):
    """The separation procedure's hypotheses do not hold for this group."""


class AreConjugate(ConjsepError):
    """Separation was requested for a pair that is in fact conjugate."""

    def __init__(self, conjugator, message: str = "elements are conjugate"):
        self.conjugator = conjugator
        super().__init__(message)


class IdentityElement(ConjsepError, ValueError):
    """The identity has no finite residual depth."""
