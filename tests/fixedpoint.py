"""Hand-built systems for ``linalg.ldl_profile``, in the form its callers
hand over.

``fixed_system(G, g, bits)`` rounds each entry of a matrix and right-hand
side of mpf/mpc, int or Fraction once, to nearest, to the Gaussian integers
(re, im) that ``ldl_profile`` reads at working precision ``bits``: each
stands for itself times 2^-(bits + 64), with no scaling, so pivots come back
in the units of G.
"""

from fractions import Fraction

from mpmath import mpc
from mpmath.libmp import mpf_shift, round_nearest, to_int

GUARD = 64


def _fixed(x, frac: int) -> int:
    if isinstance(x, (int, Fraction)):
        return round(Fraction(x) * 2 ** frac)
    return to_int(mpf_shift(x._mpf_, frac), round_nearest)


def _pair(x, frac: int):
    if isinstance(x, mpc):
        return _fixed(x.real, frac), _fixed(x.imag, frac)
    return _fixed(x, frac), 0


def fixed_system(G, g, bits: int):
    frac = bits + GUARD
    return [[_pair(x, frac) for x in row] for row in G], [_pair(x, frac) for x in g]
