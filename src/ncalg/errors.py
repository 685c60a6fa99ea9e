"""Exception types shared by all ncalg modules."""


class AlgebraError(Exception):
    """Base class for every error raised by this package."""


class UnitLawViolation(AlgebraError):
    """The structure constants do not make basis element 0 a two-sided unit."""


class NonAssociative(AlgebraError):
    """The structure constants fail the associativity identity."""


class AlgebraMismatch(AlgebraError):
    """Two operands belong to different algebras (or different scalar modes)."""


class NotInvertible(AlgebraError):
    """Element has no two-sided multiplicative inverse."""


class SingularTensor(AlgebraError):
    """The operator tensor has no two-sided inverse tensor."""


class PivotNotInvertible(AlgebraError):
    """Elimination over the algebra hit a column whose nonzero entries are all
    non-invertible.  Cannot happen in a division algebra."""


class QuasideterminantUndefined(AlgebraError):
    """The minor of a quasideterminant is singular, or elimination on it met a
    column whose nonzero entries are all zero divisors."""


class EquationSyntaxError(AlgebraError):
    """Raised by the equation parser; `column` is the 1-based input offset."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class NonlinearTerm(AlgebraError):
    """A term of degree >= 2 in the unknowns appeared where the linear
    normalizer was asked to work; the message names the offending subterm."""


class UnknownSymbol(AlgebraError):
    """An identifier is neither a basis name nor a declared unknown."""


class DegreeLimitExceeded(AlgebraError):
    """Polynomial normalization exceeded the configured degree bound."""
