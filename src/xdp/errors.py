"""Exception hierarchy.

Everything deriving from XdpError is a *mathematical* failure (the CLI maps
these to exit code 2); configuration and I/O problems use the standard
ValueError/OSError family (exit code 1).
"""


class XdpError(Exception):
    """Base class for mathematical failures."""


class ContourTooClose(XdpError):
    """A zero of P sits on (or within perturbation reach of) a contour."""


class QuadratureNotConverged(XdpError):
    """Contour quadrature hit its subdivision limit without stabilizing."""


class NonConvergent(XdpError):
    """Newton refinement and its bisection fallback both failed."""


class RemainderNotProven(XdpError):
    """A series' first omitted term stayed above the target accuracy up to its cap."""


class PrecisionExhausted(XdpError):
    """Factorization pivots stayed indeterminate after precision escalation."""


class NSingular(XdpError):
    """Kernel matrix numerically singular; carries the failing pivot.

    Raised when a pivot of the audited factorization falls below 2^{-p/2}
    of the largest, p the working precision (where d^2 would drop the
    generator), or when the largest diagonal entry is not positive.
    Legitimate for small kernel order: the nonsingularity threshold in the
    underlying theory is nonconstructive, so we surface the pivot instead of
    guessing the threshold.
    """

    def __init__(self, index, pivot):
        self.index = index
        self.pivot = pivot
        super().__init__(f"kernel matrix pivot {index} is not decidedly positive: {pivot}")


class DuplicateOrdinates(XdpError):
    """Ordinates for a kernel matrix closer than the 1e-9 guard."""
