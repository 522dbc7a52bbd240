"""Exact integer and rational arithmetic helpers.

Factorization, multiplicative functions, p-adic valuations, quadratic
symbols, and discriminant predicates.  Everything is exact; no floating
point anywhere in this package.
"""

from __future__ import annotations

from math import isqrt


class HypothesisViolation(ValueError):
    """Input is well-formed but falls outside a formula's hypotheses."""


class InexactCount(ArithmeticError):
    """A computed count came out non-integral or negative."""


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as [(p, exponent)], p ascending."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: need a positive integer")
    out = []
    if n % 2 == 0:
        e = 0
        while n % 2 == 0:
            n //= 2
            e += 1
        out.append((2, e))
    p = 3
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    """True iff n is prime, read off its factorization; inputs here are
    desk-scale."""
    return n > 1 and factorize(n) == [(n, 1)]


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(n))


def mobius(n: int) -> int:
    """Moebius function: 0 on a squared factor, else (-1)^(number of primes)."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def sigma1(n: int) -> int:
    """Sum of the positive divisors of n."""
    total = 1
    for p, e in factorize(n):
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total


def val_decompose(m: int, p: int) -> tuple[int, int]:
    """Split m >= 1 as (h, m') with m = p^h * m' and p not dividing m'."""
    if m < 1:
        raise ValueError(f"cannot decompose {m}: need a positive integer")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    h = 0
    while m % p == 0:
        m //= p
        h += 1
    return h, m


def _symbol_at_prime(D: int, p: int) -> int:
    # (D/2) is 0 for even D, (-1)^((D^2-1)/8) for odd D; odd p by Euler.
    if p == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 in (1, 7) else -1
    a = D % p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def kronecker(D: int, n: int) -> int:
    """Kronecker character chi_D(n) for n >= 1.

    Completely multiplicative in n: the product of (D/p)^a over the
    factorization of n, where (D/p) is the Legendre symbol for odd p and
    the symbol at 2 follows the rule in _symbol_at_prime.  kronecker(D, 1)
    is the empty product, 1.
    """
    if n < 1:
        raise ValueError(f"kronecker is defined for n >= 1 only, got n={n}")
    result = 1
    for p, e in factorize(n):
        s = _symbol_at_prime(D, p)
        if s == 0:
            return 0
        if s == -1 and e % 2:
            result = -result
    return result


def smallest_prime_factors(limit: int) -> list[int]:
    """Smallest prime factor of every m = 0..limit (0 and 1 map to themselves).

    Each i <= sqrt(limit), largest first, stamps its multiples from i^2 on
    with one slice assignment; a smaller divisor stamps later, so the
    smallest prime factor of a composite is the last word.
    """
    spf = list(range(limit + 1))
    for i in range(isqrt(limit), 1, -1):
        spf[i * i::i] = [i] * len(range(i * i, limit + 1, i))
    return spf


def kronecker_row(D: int, limit: int) -> list[int]:
    """All values chi_D(m) for m = 0..limit via a smallest-prime-factor sieve.

    chi_D(0) is set to 0 (unused sentinel; the character is defined for
    m >= 1).  Complete multiplicativity makes the fill linear once the
    sieve is built.
    """
    if limit < 0:
        raise ValueError("limit must be non-negative")
    chi = [0] * (limit + 1)
    if limit >= 1:
        chi[1] = 1
    spf = smallest_prime_factors(limit)
    sym = {}
    for m in range(2, limit + 1):
        p = spf[m]
        if p not in sym:
            sym[p] = _symbol_at_prime(D, p)
        chi[m] = sym[p] * chi[m // p]
    return chi


def is_fundamental(D: int) -> bool:
    """True iff D < 0 is the discriminant of an imaginary quadratic field:
    D ≡ 1 mod 4 with |D| squarefree, or D = 4m with m ≡ 2, 3 mod 4 and |m|
    squarefree."""
    if D >= 0:
        raise ValueError(f"is_fundamental expects a negative D, got {D}")
    if D % 4 == 1:
        return is_squarefree(-D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and is_squarefree(-m)
    return False

