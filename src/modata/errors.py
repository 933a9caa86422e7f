"""Exception types shared across the package."""


class ModataError(Exception):
    """Base class for all library-specific errors."""


class NotCoprimeError(ModataError):
    """A Galois index or twist is not coprime to the relevant modulus."""


class NotEmbeddableError(ModataError):
    """A cyclotomic element does not lie in the requested smaller field."""


class OrderCapError(ModataError, ValueError):
    """A cyclotomic order exceeds MODATA_MAX_ORDER, or the cap is not an
    integer."""


class ModelFormatError(ModataError, ValueError):
    """A serialized model or cyclotomic number does not have the documented
    shape."""


class NegativeRadicandError(ModataError):
    """Square root of a negative rational was requested."""


class AxiomViolationError(ModataError):
    """Modular-data axioms failed; carries the full check report."""

    def __init__(self, report):
        self.report = report
        failed = [r.check for r in report if not r.passed]
        super().__init__("axiom check failed: " + ", ".join(failed))


class NonIntegralFusionError(ModataError):
    """A Verlinde sum did not evaluate to a nonnegative integer."""


class NonIntegralMultiplicityError(ModataError):
    """A soliton multiplicity sum did not evaluate to a nonnegative integer."""


class ConductorMismatchError(ModataError):
    """An S-matrix entry escapes the cyclotomic field cut out by the T order."""


class UnsupportedModelError(ModataError):
    """Unknown builtin model name or invalid parameter."""


class NoMonomialStructureError(ModataError):
    """The Frobenius image of S is not a signed permutation of its columns."""


class LiftNotFoundError(ModataError):
    """No coprime lift of a Galois index could be located (defensive)."""


class NotDiagonalError(ModataError):
    """An extracted phase matrix has a nonzero off-diagonal entry."""


class PhaseConstraintError(ModataError):
    """The two central charges do not differ by a multiple of four."""


class OutOfScopeError(ModataError):
    """Orbifold entry outside the computable sector range."""
