"""The exception type shared across the package."""


class ConsistencyError(ArithmeticError):
    """A computed quantity violated an internal physical constraint.

    Raised when a probability leaves (0, 1], a covariance matrix fails the
    Heisenberg bound, a symplectic eigenvalue drops below one beyond
    tolerance, a Schmidt spectrum or Fock-space truncation needs more than
    2^20 terms, and similar conditions that indicate a numerical problem
    rather than bad user input.
    """
