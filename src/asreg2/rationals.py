"""Exact rational numbers.

Everything in this package computes over the rationals (and cyclotomic
extensions built on top of them); no floating point anywhere.  The rational
type is the stdlib ``fractions.Fraction``.  The rest of the code relies only
on its normal form: lowest terms with a positive denominator.
"""

from fractions import Fraction

RAT = Fraction
BACKEND = "fraction"


def rat(value, den=None):
    """Coerce to the rational type."""
    if den is not None:
        return RAT(value, den)
    if isinstance(value, (int, Fraction)):
        return RAT(value)
    raise TypeError("cannot coerce %r to a rational" % (value,))


def rat_str(q):
    """Render p/q, or just p for integers."""
    n, d = q.numerator, q.denominator
    if d == 1:
        return str(n)
    return "%d/%d" % (n, d)
