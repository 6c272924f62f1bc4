"""Exception types shared across the library."""


class VotelabError(Exception):
    """Base class for all library errors."""


class InvalidProfile(VotelabError):
    """A profile, ballot, or candidate set violates a structural invariant."""


class ProfileParseError(InvalidProfile):
    """A profile or distribution text could not be parsed."""


class CapExceeded(VotelabError):
    """A bounded search counted more units of work than its ``cap`` allows.

    Raised instead of silently truncating; the caller must either raise the
    cap or switch to a rule-specific decision procedure.  ``estimate`` is
    the number of units counted when the call was refused.
    """

    def __init__(self, message: str, estimate: int | None = None):
        super().__init__(message)
        self.estimate = estimate


def within(used: int, cap: int | None) -> bool:
    """Is ``used`` at most ``cap``?  None is unbounded."""
    return cap is None or used <= cap


def charge(used: int, cap: int | None, what: str) -> int:
    """Return ``used``, or raise CapExceeded once it is above ``cap``.

    Every loop that ``cap`` bounds keeps its own counter and passes it here;
    None is unbounded.
    """
    if within(used, cap):
        return used
    raise CapExceeded(f"{what}: {used}, above the cap of {cap}", used)


class ModelMismatch(VotelabError):
    """An operation was applied to a profile outside its uncertainty model."""


class NotCompletableSP(VotelabError):
    """A ballot admits no single-peaked completion on the given axis."""


class InvalidInstance(VotelabError):
    """A partition bag or manipulation instance is malformed."""


class InvalidDistribution(VotelabError):
    """A scenario distribution violates its invariants."""
