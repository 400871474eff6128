"""Exception vocabulary shared by all germ modules."""


class GermError(Exception):
    """Base class for all errors raised by this package."""


# -- fields ----------------------------------------------------------------

class CompositeP(GermError):
    """The requested characteristic is not a prime number."""


class ReducibleModulus(GermError):
    """The supplied modulus is not irreducible (or not monic of the right degree)."""


class FieldTooLarge(GermError):
    """p**k exceeds the configured cap (2**64)."""


class DivisionByZero(GermError):
    """Multiplicative inverse of zero requested."""


class IncompatibleFields(GermError):
    """Operands over fields with no embedding, or series over two domains."""


class NoRootInField(GermError):
    """A polynomial has no root in the current field and extension is disabled."""


# -- series ----------------------------------------------------------------

class ZeroToPrecision(GermError):
    """All stored coefficients vanish; the order of vanishing is undetermined."""


class NonUnitReciprocal(GermError):
    """Reciprocal of a series with zero constant term requested."""


class CompositionWithUnit(GermError):
    """Composition g(h) needs ord(h) >= 1."""


class PadicObstruction(GermError):
    """Binomial power u**(a/b) needs nu_p(a) >= nu_p(b)."""


# -- invariants ------------------------------------------------------------

class InsufficientPrecision(GermError):
    """Truncation too small to pin down an invariant; never guessed."""

    def __init__(self, msg, needed=None):
        super().__init__(msg)
        self.needed = needed


class DegreeTooSmall(GermError):
    """Polynomial action at infinity needs degree >= 2."""


# -- normalizer ------------------------------------------------------------

class UnassignedDependency(GermError):
    """Internal invariant violation: a coefficient equation touched an unknown
    it has no right to depend on."""


class NotCoprime(GermError):
    """The coprime-degree (Boettcher product) path needs gcd(d, p) = 1."""


class ShapeViolation(GermError):
    """A normal form does not regroup into the expected canonical shape."""


# -- analytic --------------------------------------------------------------

class UnsolvableRoot(GermError):
    """A required root does not exist in the Laurent coefficient ring."""


class PrecisionExhausted(GermError):
    """A t-adic operation would return untrusted digits."""


# -- multidim --------------------------------------------------------------

class SingularMatrix(GermError):
    """Exponent matrix is singular."""


class DetDivisibleByP(GermError):
    """Monomial conjugacy needs det(D) coprime to p."""


# -- cli -------------------------------------------------------------------

class ParseError(GermError):
    """Input file failed to parse."""


class ValidationError(GermError, ValueError):
    """An argument or parsed input is outside what the call accepts."""


# -- failed checks ---------------------------------------------------------
# Each also derives from the class that callers of its check catch
# (UnassignedDependency, ValidationError, AssertionError); the CLI maps
# CheckFailed to exit code 2.

class CheckFailed(GermError):
    """A mathematical check of a computed result failed."""


class OracleFailure(CheckFailed, UnassignedDependency):
    """A solver's witness fails the composition oracle."""


class WitnessFailure(CheckFailed, ValidationError):
    """A monomial-conjugacy product witness fails its check."""


class ScalingFailure(CheckFailed, AssertionError):
    """A diagonal scaling fails its exact verification."""
