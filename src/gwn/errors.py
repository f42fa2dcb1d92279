"""Error types shared across the package.

All inherit from ValueError so callers that only care about "bad input"
can catch one base class.
"""


class DimensionError(ValueError):
    """An array length does not match the number of atoms of the measure."""


class DomainError(ValueError):
    """A numeric argument lies outside the mathematical domain of the operation."""


class ContractError(ValueError):
    """A structural precondition was violated (degree mismatch, invalid partition,
    non-disjoint supports, wrong basis)."""


class SizeError(ValueError):
    """A size cap was exceeded: a degree or partition-order cap, or the entry
    budget (``symtensor.MAX_ENTRIES``) of a table or tensor.  The budget is
    checked before anything is allocated."""
