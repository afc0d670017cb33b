"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class;
all of them derive from EllipticSelbergError so a bare `except
EllipticSelbergError` catches any domain failure without swallowing
programming errors.
"""


class EllipticSelbergError(Exception):
    """Base class for all domain errors raised by this package."""


class NonConvergence(EllipticSelbergError):
    """A series or product failed to reach its tail tolerance within max_terms."""


class PoleProximity(EllipticSelbergError):
    """An argument is closer to a pole (lattice point) than the configured floor."""


class BranchAmbiguity(EllipticSelbergError):
    """Consecutive values along a branch-tracking path subtend an angle >= pi."""


class GammaPole(EllipticSelbergError):
    """A numerator Gamma factor of the Selberg closed form is at a pole."""


class OutOfSupportedRange(EllipticSelbergError):
    """Parameters fall outside the range the implementation supports."""


class QuadratureBudgetExceeded(EllipticSelbergError):
    """A pass's quadrature points exceed the max_evals of its spec."""


class UnsupportedBuiltin(EllipticSelbergError):
    """expand_builtin was asked for a series it does not know."""


class OrderTooSmall(EllipticSelbergError):
    """A series operation would need terms beyond the truncation order."""


class DegenerateGram(EllipticSelbergError):
    """The orthogonal family hit a (numerically) zero squared norm."""


class UnsupportedP(EllipticSelbergError):
    """Block integrals are implemented for p in {0, 1, 2} only."""


class IllConditionedBasis(EllipticSelbergError):
    """A least-squares basis expansion is too ill-conditioned to trust."""
