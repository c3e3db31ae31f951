"""Exception types shared across the package.

The CLI maps these onto exit codes: InputError -> 1, BudgetError -> 3.
"""

__all__ = ["InputError", "BudgetError"]


class InputError(ValueError):
    """Bad user input: malformed files, out-of-range parameters, domain violations."""


class BudgetError(RuntimeError):
    """A requested computation exceeds its configured enumeration or node budget."""
