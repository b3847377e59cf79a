"""Exact scalar arithmetic over prime fields and the rationals."""

from fractions import Fraction

import numpy as np
import pytest

from kronrig.field import (
    FieldZeroDivisionError,
    PrimeField,
    QQ,
    field_from_header,
    validate_prime,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]

# inverse tables computed by scanning residues for a*b % p == 1
INV_F5 = {1: 1, 2: 3, 3: 2, 4: 4}
INV_F7 = {1: 1, 2: 4, 3: 5, 4: 2, 5: 3, 6: 6}


def test_operator_tables_small_primes():
    for p in SMALL_PRIMES:
        f = PrimeField(p)
        for a in range(p):
            for b in range(p):
                assert f.add(a, b) == (a + b) % p
                assert f.mul(a, b) == (a * b) % p
                assert f.sub(a, b) == (a - b) % p
            assert f.neg(a) == (-a) % p


def test_frozen_inverse_tables():
    f5, f7 = PrimeField(5), PrimeField(7)
    for a, b in INV_F5.items():
        assert f5.inv(a) == b
        assert f5.mul(a, b) == 1
    for a, b in INV_F7.items():
        assert f7.inv(a) == b
        assert f7.mul(a, b) == 1


def test_inverse_by_exhaustion():
    for p in SMALL_PRIMES:
        f = PrimeField(p)
        for a in range(1, p):
            b = f.inv(a)
            # the unique residue with a*b == 1
            assert (a * b) % p == 1
            assert sum(1 for c in range(p) if (a * c) % p == 1) == 1


def test_zero_has_no_inverse():
    f = PrimeField(5)
    with pytest.raises(FieldZeroDivisionError):
        f.inv(0)
    with pytest.raises(FieldZeroDivisionError):
        f.div(1, 0)


def test_fraction_canonicalization_mod_p():
    f = PrimeField(5)
    assert f.canon(Fraction(1, 2)) == 3          # 2 * 3 == 1 (mod 5)
    assert f.canon(Fraction(-3, 7)) == 1         # 7 * 1 == -3 (mod 5)
    with pytest.raises(FieldZeroDivisionError):
        f.canon(Fraction(1, 5))                  # denominator vanishes mod 5


def test_prime_validation():
    for p in SMALL_PRIMES + [(1 << 61) - 1]:     # includes a 61-bit prime
        validate_prime(p)
    for bad in [0, 1, 4, 6, 9, 15, 21, 25, 561, 1 << 61, (1 << 61) + 29]:
        with pytest.raises(ValueError):
            validate_prime(bad)
    with pytest.raises(ValueError):
        PrimeField(91)                           # 7 * 13


def test_dtype_selection():
    assert PrimeField(5).dtype is np.int64
    assert PrimeField((1 << 31) - 1).dtype is np.int64   # largest int64-backed prime
    assert PrimeField((1 << 61) - 1).dtype is object


def test_big_prime_arithmetic():
    p = (1 << 61) - 1
    f = PrimeField(p)
    a = f.canon(1 << 60)
    b = f.canon(1 << 59)
    assert f.mul(a, b) == (1 << 119) % p
    assert f.mul(a, f.inv(a)) == 1


def test_rationals():
    q = QQ
    assert q.canon("3/4") == Fraction(3, 4)
    assert q.canon(2) == Fraction(2)
    assert q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert q.inv(Fraction(-2, 7)) == Fraction(-7, 2)
    with pytest.raises(FieldZeroDivisionError):
        q.inv(Fraction(0))
    half = Fraction(1, 2)
    assert q.add(half, half) == 1
    assert q.div(half, half) == 1


def test_header_round_trip():
    for f in [PrimeField(2), PrimeField(101), QQ]:
        assert field_from_header(f.header) == f
    assert field_from_header("Fp 7") == PrimeField(7)
    assert field_from_header("Q") == QQ
    with pytest.raises(ValueError):
        field_from_header("R")
    with pytest.raises(ValueError):
        field_from_header("Fp 10")


def test_parse_fmt_round_trip():
    f5 = PrimeField(5)
    for a in range(5):
        assert f5.parse(f5.fmt(a)) == a
    vals = [Fraction(0), Fraction(3, 4), Fraction(-7, 2), Fraction(12)]
    for v in vals:
        assert QQ.parse(QQ.fmt(v)) == v


def test_seeded_sampling_is_deterministic():
    f = PrimeField(11)
    a = [f.rand(np.random.default_rng(42)) for _ in range(3)]
    b = [f.rand(np.random.default_rng(42)) for _ in range(3)]
    assert a == b
    rng = np.random.default_rng(7)
    for _ in range(50):
        assert f.rand_nonzero(rng) != 0
        v = QQ.rand(rng)
        assert isinstance(v, Fraction)


def test_field_equality_and_hash():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert QQ == QQ
    assert QQ != PrimeField(5)
    assert len({PrimeField(5), PrimeField(5), PrimeField(7)}) == 2
