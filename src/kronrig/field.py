"""Exact scalar arithmetic: prime fields F_p and the rationals Q.

Element values are kept in canonical form everywhere: residues in
``[0, p)`` for F_p, reduced ``Fraction`` objects for Q.  All operations
are exact; nothing in this module touches floating point.
"""

from fractions import Fraction

import numpy as np

# Residue products must fit a 128-bit intermediate, which Python ints do
# natively; the int64 fast paths elsewhere only engage below 2**31.
MAX_PRIME_BITS = 61

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class FieldZeroDivisionError(ZeroDivisionError):
    """Raised on division or inversion of a zero field element."""


def _is_prime(p):
    """Deterministic Miller-Rabin (the witness set is exact below 3.3e24)."""
    for q in _MR_WITNESSES:
        if p == q:
            return True
        if p % q == 0:
            return False
    d = p - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def validate_prime(p):
    """Raise ValueError unless p is a prime within the supported modulus range."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"field modulus must be an integer >= 2, got {p!r}")
    if p.bit_length() > MAX_PRIME_BITS:
        raise ValueError(f"modulus {p} exceeds the 2**{MAX_PRIME_BITS} limit")
    if not _is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


class Field:
    """Common interface for the two scalar domains.

    A field object owns the arithmetic; element *values* are plain ints
    (F_p) or Fractions (Q).
    """

    @property
    def zero(self):
        return self.canon(0)

    @property
    def one(self):
        return self.canon(1)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))


class PrimeField(Field):
    """F_p for a verified prime p < 2**61."""

    def __init__(self, p):
        validate_prime(p)
        self.p = p
        # int64 products of two canonical residues stay below 2**62 only
        # when p < 2**31; larger moduli fall back to object arrays.
        self.dtype = np.int64 if p < 2**31 else object

    def canon(self, v):
        if isinstance(v, Fraction):
            if v.denominator == 1:
                return int(v) % self.p
            return self.div(v.numerator % self.p, v.denominator % self.p)
        return int(v) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        a = int(a) % self.p
        if a == 0:
            raise FieldZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def rand(self, rng):
        return int(rng.integers(0, self.p))

    def rand_nonzero(self, rng):
        return int(rng.integers(1, self.p))

    def parse(self, text):
        try:
            return int(text) % self.p
        except ValueError:
            raise ValueError(f"bad F_{self.p} literal {text!r}") from None

    def fmt(self, v):
        return str(int(v))

    def elements(self):
        return range(self.p)

    @property
    def header(self):
        return f"Fp {self.p}"

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


class RationalField(Field):
    """Q with reduced-fraction canonical values."""

    # matrices store integer numerators over a common denominator, as
    # int64 while they fit (see matrix.py)
    dtype = np.int64

    def canon(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, (int, np.integer)):
            return Fraction(int(v))
        if isinstance(v, str):
            return Fraction(v)
        raise ValueError(f"cannot coerce {v!r} into Q")

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise FieldZeroDivisionError("inverse of zero in Q")
        return 1 / Fraction(a)

    def rand(self, rng):
        # Small numerators/denominators: enough to exercise reduction
        # without blowing up downstream products.
        num = int(rng.integers(-4, 5))
        den = int(rng.integers(1, 4))
        return Fraction(num, den)

    def rand_nonzero(self, rng):
        while True:
            v = self.rand(rng)
            if v != 0:
                return v

    def parse(self, text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad rational literal {text!r}") from None

    def fmt(self, v):
        return str(v)

    @property
    def header(self):
        return "Q"

    def __repr__(self):
        return "RationalField()"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


QQ = RationalField()


def field_from_header(text):
    """Inverse of ``Field.header``: 'Q' or 'Fp <p>'."""
    parts = text.split()
    if parts == ["Q"]:
        return QQ
    if len(parts) == 2 and parts[0] == "Fp":
        return PrimeField(int(parts[1]))
    raise ValueError(f"unrecognized field header {text!r}")

