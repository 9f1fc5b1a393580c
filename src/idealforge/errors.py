"""Exception types shared across the package."""


class IdealforgeError(Exception):
    """Base class for every error this package raises on purpose."""


class DuplicateLabelError(IdealforgeError):
    pass


class UnknownLabelError(IdealforgeError):
    pass


class NotReflexiveError(IdealforgeError):
    pass


class NotTransitiveError(IdealforgeError):
    pass


class SchemaError(IdealforgeError):
    """Input JSON does not have the shape a reader requires."""


class EmptyCarrierError(IdealforgeError):
    """Raised by operations that need at least one element to make sense."""


class AlphabetMismatchError(IdealforgeError):
    """Words over different alphabets were mixed in one comparison."""


class TooLargeError(IdealforgeError):
    """A brute-force guard tripped; the exhaustive path refuses to run."""


class ScaleExceededError(IdealforgeError):
    """A verification sweep was asked to run beyond its configured bounds."""


class LevelCapExceededError(IdealforgeError):
    pass


class CombinatorialBlowupError(IdealforgeError):
    """An enumeration would exceed the configured member bound."""


class NoFactorizationError(IdealforgeError):
    """Internal invariant failure: a factorization must exist once the axioms hold."""
