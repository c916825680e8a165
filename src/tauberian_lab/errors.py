"""Shared exception types."""


class OrderingViolation(ValueError):
    """A box family was required to be sorted by nonincreasing sidelength but is not."""


class BudgetExceeded(RuntimeError):
    """An enumeration or search exceeds its configured budget or resolution cap."""


class UnsupportedGeometry(ValueError):
    """An operation received boxes outside its supported class (e.g. non grid-aligned)."""


class DegenerateFit(ValueError):
    """A fit was requested on data that cannot determine the model parameters."""


class InvariantViolation(RuntimeError):
    """A result the library built breaks a property it must have by construction."""
