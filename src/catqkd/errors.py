"""Exception types shared across the package."""


class ConsistencyError(ArithmeticError):
    """A computed quantity violated an internal physical constraint.

    Raised when a probability leaves (0, 1], a covariance matrix fails the
    Heisenberg bound, a symplectic eigenvalue drops below one beyond
    tolerance, and similar conditions that indicate a numerical problem
    rather than bad user input.
    """


class CutoffError(ConsistencyError):
    """No Fock-space truncation fits: the adaptive cutoff passes the cap on
    terms, or the source's lam rounds to 1."""
