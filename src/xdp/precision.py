"""Working-precision policy.

All numeric operations in the package compute under an explicit binary
precision (mantissa bits): each takes a ``bits`` argument, and None means
DEFAULT_PRECISION_BITS. Computations always run inside ``mp.workprec`` so
the ambient mpmath state of the caller is never disturbed and results do not
depend on it.
"""

from mpmath import mp

DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 64


def resolve_bits(bits=None) -> int:
    if bits is None:
        return DEFAULT_PRECISION_BITS
    bits = int(bits)
    if bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision must be >= {MIN_PRECISION_BITS} bits, got {bits}")
    return bits


def working(bits=None):
    """Context manager: run at the resolved precision."""
    return mp.workprec(resolve_bits(bits))


def decimal_digits(bits: int) -> int:
    """Decimal digits that guarantee exact round-trip of a bits-mantissa float."""
    # ceil(bits * log10(2)) + 2 guard digits
    return int(bits * 0.3010299957) + 3
