import math

import pytest

from sc7core.arith import (
    HypothesisViolation,
    divisors,
    factorize,
    is_fundamental,
    is_prime,
    is_squarefree,
    kronecker,
    kronecker_row,
    mobius,
    sigma1,
    val_decompose,
)


def _prime_sieve(limit):
    """Eratosthenes: sieve[n] is 1 iff n is prime, for n = 0..limit.  The
    oracle for both is_prime and factorize, since is_prime reads factorize."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return sieve


def test_is_prime_against_sieve():
    sieve = _prime_sieve(2000)
    for n in range(len(sieve)):
        assert is_prime(n) == bool(sieve[n])
    assert not is_prime(-7)


def test_factorize_reconstructs():
    sieve = _prime_sieve(2000)
    for n in range(1, 2001):
        fac = factorize(n)
        assert math.prod(p ** e for p, e in fac) == n
        assert all(sieve[p] and e >= 1 for p, e in fac)
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})


def test_divisors_and_sigma1():
    for n in range(1, 501):
        ds = divisors(n)
        assert ds == [d for d in range(1, n + 1) if n % d == 0]
        assert sigma1(n) == sum(ds)


def test_mobius_values():
    for n in range(1, 501):
        if not is_squarefree(n):
            assert mobius(n) == 0
        else:
            assert mobius(n) == (-1) ** len(factorize(n))


def test_mobius_summatory_identity():
    # sum over d | n of mu(d) detects n = 1
    for n in range(1, 2001):
        assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_val_decompose():
    assert val_decompose(56, 2) == (3, 7)
    assert val_decompose(7, 2) == (0, 7)
    assert val_decompose(63, 7) == (1, 9)
    assert val_decompose(1, 5) == (0, 1)
    with pytest.raises(ValueError):
        val_decompose(0, 2)
    with pytest.raises(ValueError):
        val_decompose(12, 4)


def test_kronecker_is_legendre_at_odd_primes():
    for p in (3, 5, 7, 11, 13, 17):
        residues = {x * x % p for x in range(1, p)}
        for D in range(-60, 61):
            a = D % p
            expected = 0 if a == 0 else (1 if a in residues else -1)
            assert kronecker(D, p) == expected


def test_kronecker_at_two():
    for D in range(-60, 61):
        if D % 2 == 0:
            assert kronecker(D, 2) == 0
        elif D % 8 in (1, 7):
            assert kronecker(D, 2) == 1
        else:
            assert kronecker(D, 2) == -1


def test_kronecker_completely_multiplicative():
    for D in (-3, -4, -7, -84, -91, -308, 5, 28):
        for m in range(1, 41):
            for n in range(1, 41):
                assert kronecker(D, m * n) == kronecker(D, m) * kronecker(D, n)


def test_kronecker_spot_values():
    assert kronecker(7, 2) == 1
    assert kronecker(-91, 3) == -1
    assert kronecker(-91, 1) == 1
    assert kronecker(0, 3) == 0


def test_kronecker_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        kronecker(5, 0)
    with pytest.raises(ValueError):
        kronecker(5, -3)


def test_kronecker_row_matches_pointwise():
    for D in (-3, -4, -7, -84, -91, -308, 21):
        row = kronecker_row(D, 300)
        assert row[0] == 0
        assert row[1] == 1
        for m in range(1, 301):
            assert row[m] == kronecker(D, m)


def test_is_fundamental_spot_values():
    for D in (-3, -4, -7, -8, -11, -15, -19, -20, -24, -35, -84, -91, -308):
        assert is_fundamental(D)
    for D in (-12, -16, -27, -28, -63, -75, -100, -756):
        assert not is_fundamental(D)
    with pytest.raises(ValueError):
        is_fundamental(5)


def test_is_fundamental_brute():
    # fundamental = a discriminant that is not D' * f^2 for a smaller
    # discriminant D' and f > 1
    for D in range(-400, 0):
        if D % 4 not in (0, 1):
            continue
        expected = True
        for f in range(2, 21):
            if D % (f * f) == 0 and (D // (f * f)) % 4 in (0, 1):
                expected = False
                break
        assert is_fundamental(D) is expected


def test_hypothesis_violation_is_value_error():
    # CLI code relies on the subclass ordering when mapping exceptions to
    # exit codes
    assert issubclass(HypothesisViolation, ValueError)
