"""Exact rational scalars, their one reader, and the minus-infinity sentinel.

Every number the library is given is read here: ``_ratio`` reads it as
integers (n, d) in lowest terms, and ``rat`` as a ``fractions.Fraction``.
Floats are rejected at the boundary so exactness can't silently degrade
mid-computation: payoffs, thresholds and resolutions are ``Fraction``s,
or integers over a known denominator (menus and the market index).
``render_event`` writes the trace lines of propose-dispose and
refinement, on their first read, with these scalars in canonical form.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd
from typing import Tuple, Union

Rational = Fraction

# Order-compatible sentinels for "no offer" / unbounded thresholds.  They
# compare correctly against any Fraction but must never enter arithmetic.
NEG_INF = float("-inf")
POS_INF = float("inf")

RationalLike = Union[Fraction, int, str]

_DIGITS = r"\d+(?:_\d+)*"  # single underscores between digits
_LITERAL = re.compile(  # CPython 3.13's Fraction string grammar, the widest of 3.10-3.13
    rf"\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>(?:{_DIGITS})?)(?:\s*/\s*(?P<denom>{_DIGITS})"
    rf"|(?:\.(?P<decimal>(?:{_DIGITS})?))?(?:e(?P<exp>[-+]?{_DIGITS}))?)\s*",
    re.IGNORECASE,
)


def rat(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, Fraction, or string.

    Strings follow CPython 3.13's ``Fraction`` grammar on every supported
    Python: "3", "-7/2", " 3 / 4 ", "0.25", "1_000", "-2.5E-2" (decimals
    are exact).  A malformed string or a zero denominator raises
    ValueError.  So does a string whose exponent's magnitude, or whose
    value's numerator or denominator's digit count, exceeds
    ``sys.get_int_max_str_digits()`` (no cap when that is 0): such a
    number could not be printed.  Floats are rejected: binary floats do
    not carry the exactness contract, so callers must write "0.1" rather
    than 0.1.  A ``Fraction`` is returned as it is; every other value is
    the ``Fraction`` of its pair (``_ratio``).
    """
    if isinstance(value, Fraction):  # re-reading is common
        return value
    return Fraction(*_ratio(value))


def _ratio(value: RationalLike) -> Tuple[int, int]:
    """What ``rat`` reads, as the integers (n, d) in lowest terms with d > 0: the one number reader.

    Payload numbers are read here one by one, so the exact types ``int``
    and ``str`` are tried first, by identity; only other types (bool,
    float, ``Fraction``, subclasses) take the ``isinstance`` checks.  A
    plain "n", "-n", "n/d" or "-n/d" in ASCII digits is split and reduced
    with no regex: ``int()`` already refuses a digit string past the
    limit, and lowest terms have no more digits.  Every other string is
    matched once against the compiled grammar.
    """
    kind = type(value)
    if kind is int:
        return value, 1
    if kind is not str:
        if isinstance(value, Fraction):
            return value.numerator, value.denominator
        if isinstance(value, bool):
            raise TypeError("bool is not a rational payoff")
        if isinstance(value, int):
            return int(value), 1
        if isinstance(value, float):
            raise TypeError(f"float {value!r} rejected: pass an int, Fraction, or exact string like '1/10'")
        if not isinstance(value, str):
            raise TypeError(f"cannot interpret {value!r} as a rational")
    if value.isascii():
        head, slash, tail = value.partition("/")
        if (head[1:] if head[:1] == "-" else head).isdigit() and (tail.isdigit() or not slash):
            n, d = int(head), int(tail or 1)  # past the digit limit, the grammar path's error: it counts no sign
            if d:  # "n/0" is named on the grammar's path
                g = gcd(n, d)
                return n // g, d // g
    m = _LITERAL.fullmatch(value)
    if m is None:
        raise ValueError(f"Invalid literal for Fraction: {value!r}")
    sign, num, denom, decimal, exp = m.groups()
    limit = str_limit()
    e = int(exp or "0")  # bounded before 10**e is made: "1e4000000" costs seconds and 13 million bits
    if limit and abs(e) > limit:
        raise ValueError(f"exponent in {value!r} exceeds the limit of {limit} (sys.get_int_max_str_digits())")
    # n as Fraction makes it, so a digit string past the limit raises int()'s error
    n, d = int(num or "0"), int(denom or "1")
    if not d:
        raise ValueError(f"zero denominator in {value!r}")
    if decimal:
        decimal = decimal.replace("_", "")
        d = 10 ** len(decimal)
        n = n * d + int(decimal)
    n, d = (n * 10**e, d) if e >= 0 else (n, d * 10**-e)
    g = gcd(n, d)
    n, d = n // g, d // g
    if limit and _longer(max(n, d), limit):
        raise ValueError(f"{value!r} has more than {limit} digits (sys.get_int_max_str_digits())")
    return (-n if sign == "-" else n), d


# sys.get_int_max_str_digits(): the most digits str() prints, 0 for no limit
# (always 0 before Python 3.10.7, which has none)
str_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def digits_past_limit(n: int) -> int:
    """``sys.get_int_max_str_digits()`` if ``str`` would refuse the integer n, else 0."""
    limit = str_limit()
    return limit if limit and _longer(abs(n), limit) else 0


def _longer(n: int, limit: int) -> bool:
    """n >= 0 has more than ``limit`` digits; below 2**(3*limit) it cannot."""
    return n.bit_length() > 3 * limit and n >= 10**limit


def fmt(value) -> str:
    """Canonical string for a rational: integer if integral, else 'p/q'."""
    if value == NEG_INF:
        return "-inf"
    return str(Fraction(value))  # "p/q", or "n" when the denominator is 1


def render_event(name: str, **fields) -> str:
    """One trace line: ``event=<name>`` then ``key=value`` per field, in order.

    Rationals (and the minus-infinity sentinel) go through ``fmt``, bools
    read ``true``/``false``, other values through ``str``; a field whose
    value is None is left out.  Propose-dispose and refinement call it on
    the first read of their ``trace`` (``--trace`` reads it), not during
    the run, so a field too long to print raises ValueError at that read.
    """
    parts = [f"event={name}"]
    for key, value in fields.items():
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (Fraction, float)):
            try:
                value = fmt(value)
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ValueError(f"trace field {key}= has too many digits to print") from None
        parts.append(f"{key}={value}")
    return " ".join(parts)


def is_neg_inf(value) -> bool:
    return isinstance(value, float) and value == NEG_INF
