"""Reference number codec for differential weight tests.

veracity.core's conversions between exact weights and text as they were
written before they went through the standard library's decimal: ints
of more than the interpreter's int/str limit (4,300 digits unless set,
never under 640) are split with divmod by a power of ten and read back
in pieces of at most _PIECE digits, and a denominator's factors of 2 and
5 are divided out by repeated squaring.  It must stay as it is; the
package's format_weight, ratio_text and as_weight are checked against it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union


def as_weight(value: Union[int, str, Fraction]) -> Fraction:
    """Convert to an exact weight in [0, 1]; floats are refused."""
    if type(value) is not Fraction:
        if isinstance(value, float):
            raise TypeError("weights must be exact: pass a Fraction or a string, not a float")
        if isinstance(value, str) and _PIECE < len(value):
            value = _long_fraction(value)
        else:
            value = Fraction(value)
    if 0 <= value.numerator <= value.denominator:
        return value
    raise ValueError(f"weight {ratio_text(value)} outside [0, 1]")


def format_weight(w: Fraction) -> str:
    """A weight as a decimal when one exists, else as ratio_text writes it."""
    if w.denominator == 1:
        return f"{_int_text(w.numerator)}.0"
    den, twos = _strip(w.denominator, 2)
    den, fives = _strip(den, 5)
    if den != 1:
        return ratio_text(w)
    digits = max(twos, fives)
    scaled = w.numerator * 10**digits // w.denominator
    text = _int_text(scaled).rjust(digits, "0")
    whole, frac = text[:-digits] or "0", text[-digits:]
    return f"{whole}.{frac}"


def _strip(n: int, p: int) -> tuple[int, int]:
    """n with every factor p divided out, and how many there were.  Each
    pass divides by the largest p**(2**k) that goes into n."""
    count = 0
    while n % p == 0:
        power, times = p, 1
        while n % (power * power) == 0:
            power, times = power * power, times * 2
        n //= power
        count += times
    return n, count


def ratio_text(w: Fraction) -> str:
    """str(w), "p/q" or "p", for a Fraction of any number of digits."""
    if w.denominator == 1:
        return _int_text(w.numerator)
    return f"{_int_text(w.numerator)}/{_int_text(w.denominator)}"


_PIECE = 600
_SHORT = 10**_PIECE
_NUMBER = re.compile(r"(\d+)(?:\.(\d+)|/(\d+))?")


def _int_text(n: int) -> str:
    """str(n) for an int n of any length."""
    if -_SHORT < n < _SHORT:
        return str(n)
    if n < 0:
        return "-" + _int_text(-n)
    # log10(2) < 0.30103, so n has at most about this many digits.
    half = (n.bit_length() * 30103 // 100000 + 1) // 2
    high, low = divmod(n, 10**half)
    return _int_text(high) + _int_text(low).zfill(half)


def _int_of(digits: str) -> int:
    """int(digits) for a run of decimal digits of any length."""
    if len(digits) <= _PIECE:
        return int(digits)
    half = len(digits) // 2
    return _int_of(digits[:-half]) * 10**half + _int_of(digits[-half:])


def _long_fraction(text: str) -> Fraction:
    """Fraction(text) for a text too long for int() to read at once: the
    forms digits, digits.digits and digits/digits are read in pieces, and
    any other text goes to Fraction."""
    found = _NUMBER.fullmatch(text)
    if found is None:
        return Fraction(text)
    whole, decimals, under = found.groups()
    if under is not None:
        return Fraction(_int_of(whole), _int_of(under))
    if decimals is None:
        return Fraction(_int_of(whole))
    return Fraction(_int_of(whole + decimals), 10 ** len(decimals))
