"""Exception types shared across the package."""


class CongruenceError(Exception):
    """Base class for every library-specific error."""


class ZeroInverseError(CongruenceError):
    """Inversion of a residue that is 0 modulo the prime."""


class DenominatorDivisibleError(CongruenceError):
    """A rational whose denominator vanishes modulo the prime."""


class EvenModulusError(CongruenceError):
    """Jacobi symbol requested for an even or non-positive bottom."""


class IndexTooLargeError(CongruenceError):
    """Exact-arithmetic routine called above its size guard."""


class OutOfRangeError(CongruenceError):
    """Argument outside the range the algorithm is valid for."""


class UnsupportedModulusError(CongruenceError):
    """Closed form requested for a modulus that has none."""


class NonNegativeDiscriminantError(CongruenceError):
    """Quadratic form operation that needs a negative discriminant."""


class InvalidDiscriminantError(CongruenceError):
    """Discriminant not congruent to 0 or 1 modulo 4, or not negative."""


class NotOneModFourError(CongruenceError):
    """Two-square decomposition of a prime that is not 1 mod 4."""


class NoneRepresentsError(CongruenceError):
    """No target form class represents the prime."""


class NotCoprimeError(CongruenceError):
    """Symbol arguments that share a factor with the modulus."""


class ModulusDivisibleBy3Error(CongruenceError):
    """Cubic symbol bottom divisible by 3."""


class UnknownIdError(CongruenceError):
    """Statement id not present in the registry."""


class InvalidParametersError(CongruenceError):
    """Explicit statement parameters that are malformed or not taken."""


class RowDispatchViolationError(CongruenceError):
    """Zero or several case-table rows fired for an applicable prime."""
