"""Exception types shared across the package.

Every error raised by the library derives from NoonlikeError so callers
(and the CLI) can distinguish computation failures from usage mistakes.
"""


class NoonlikeError(Exception):
    """Base class for all library errors."""


class ZeroPhotonState(NoonlikeError):
    """The constituent state carries no photons; the probe is non-identifiable."""


class TruncationInsufficient(NoonlikeError):
    """A Fock-space cutoff discards more probability mass than allowed."""


class SingularMatrix(NoonlikeError):
    """Matrix conditioning too poor for a reliable inverse."""


class DenominatorNonPositive(NoonlikeError):
    """The closed-form bound denominator went non-positive; indicates a numerics bug."""


class FOutOfRange(NoonlikeError):
    """The sensitivity factor lies outside (0, 1/n_bar]."""


class NonPositivePhotonNumber(NoonlikeError):
    """A photon number that must be positive was zero or negative."""


class BracketFailure(NoonlikeError):
    """Root bracketing failed; the target value is not reachable by the family."""


class OrderingViolation(NoonlikeError):
    """A proven strict ordering between families failed numerically."""


class DegenerateOverlap(NoonlikeError):
    """Vacuum overlap of 1 makes the weight boundary undefined."""


class ConstraintInfeasible(NoonlikeError):
    """Requested weights cannot satisfy the normalization constraint."""


class EmptyPostSelection(NoonlikeError):
    """Heralding kept no probability mass."""


class ModeOutOfRange(NoonlikeError):
    """A circuit element referenced a mode outside the state."""


class ParameterOutOfRange(NoonlikeError):
    """A nonzero parameter too large or too small for its moments to be representable."""


class NonFiniteResult(NoonlikeError):
    """A reported value came out infinite or NaN."""


class UsageError(NoonlikeError):
    """Invalid command-line invocation."""
