"""Decimal-string serialization with exact round-trip.

All numeric output is written as decimal strings carrying enough digits to
recover the binary value exactly when re-parsed at the same precision; this
is what makes cached profiles and rerun outputs byte-identical. The
helpers are careful never to push existing mpf/mpc values through a
constructor at ambient precision, which would silently re-round them.
"""

import mpmath
from mpmath import mp, mpf

from .precision import decimal_digits, resolve_bits, working


def mp_to_str(x, bits=None) -> str:
    bits = resolve_bits(bits)
    if not isinstance(x, mpf):
        with working(bits):
            x = mp.mpmathify(x)
    return mpmath.nstr(x, decimal_digits(bits), strip_zeros=True)


def str_to_mp(s: str, bits=None) -> mpf:
    with working(bits):
        return mpf(s.strip())
