"""Exact Eisenstein coefficient data for the weight-3/2 space behind the
ternary decomposition, and the closed-form evaluators for self-conjugate
7-core counts.

The coefficient of q^m in the relevant Eisenstein basis splits into local
factors: a two-adic factor, an odd-prime factor at 7, and an archimedean
factor proportional to a Hurwitz class number.  The transcendental parts
(pi, sqrt(7m)) cancel in every quantity we need, so this module is pure
rational arithmetic; the normalization is chosen so that exactly the
Hurwitz class number at 7m survives.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Callable, NamedTuple

from .arith import (
    HypothesisViolation,
    InexactCount,
    is_fundamental,
    is_prime,
    kronecker,
    val_decompose,
)
from .quadforms import dirichlet_hurwitz, hurwitz, hurwitz_scaled


class TwoAdicConvention(Enum):
    """Which variant of the two-adic factor's case table to use.

    Two assignments of the even-valuation subcases (odd part 3 vs 7 mod 8)
    circulate in the literature; they are mirror images of each other.
    EFFECTIVE is the assignment consistent with actual lattice
    representation counts (the regression tests pin this), and is the
    default everywhere.  PRINTED is the other assignment, kept first-class
    so the discrepancy stays visible and testable rather than silently
    patched.
    """

    PRINTED = "printed"
    EFFECTIVE = "effective"


def two_adic_factor(m: int, conv: TwoAdicConvention = TwoAdicConvention.EFFECTIVE) -> Fraction:
    """Local factor at 2 of the Eisenstein coefficient of q^m.

    With m = 2^h * m' (m' odd):

        h odd:                 3 / 2^((1+h)/2)
        h even, m' = 1 mod 4:  3 / 2^(1+h/2)
        h even, m' = 3 mod 8:  1 / 2^(h/2)  (EFFECTIVE)   0  (PRINTED)
        h even, m' = 7 mod 8:  0            (EFFECTIVE)   1 / 2^(h/2)  (PRINTED)

    Raises ValueError unless conv is a TwoAdicConvention member.
    """
    if not isinstance(conv, TwoAdicConvention):
        raise ValueError(f"conv must be a TwoAdicConvention, got {conv!r}")
    if m < 1:
        raise ValueError(f"need a positive m, got {m}")
    h, m1 = val_decompose(m, 2)
    if h % 2:
        return Fraction(3, 2 ** ((1 + h) // 2))
    if m1 % 4 == 1:
        return Fraction(3, 2 ** (1 + h // 2))
    value = Fraction(1, 2 ** (h // 2))
    if conv is TwoAdicConvention.EFFECTIVE:
        return value if m1 % 8 == 3 else Fraction(0)
    return Fraction(0) if m1 % 8 == 3 else value


def odd_prime_factor(p: int, m: int) -> Fraction:
    """Local factor at an odd prime p of the Eisenstein coefficient of q^m.

    With m = p^h * m' (p not dividing m'):

        h odd:                          1/p - (1+p) / p^((3+h)/2)
        h even, kronecker(-m', p) = -1: 1/p - 2 / p^(1+h/2)
        h even, kronecker(-m', p) = +1: 1/p
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    if m < 1:
        raise ValueError(f"need a positive m, got {m}")
    h, m1 = val_decompose(m, p)
    if h % 2:
        return Fraction(1, p) - Fraction(1 + p, p ** ((3 + h) // 2))
    if kronecker(-m1, p) == -1:
        return Fraction(1, p) - Fraction(2, p ** (1 + h // 2))
    return Fraction(1, p)


def _lift(N: int) -> int:
    """N when -N is a discriminant, else 4N: the level at which a class
    number written at -N is read, and the 4^epsilon of D_n."""
    return N if -N % 4 in (0, 1) else 4 * N


def class_number_factor(m: int) -> Fraction:
    """Archimedean factor at q^m, normalized to cancel all transcendentals.

    The raw factor carries pi / sqrt(7m); multiplying by pi * sqrt(7m)
    leaves an exact rational multiple of H = H(-_lift(7m)), the Hurwitz
    class number at 7m, lifted to 28m when -7m is not a discriminant:

        49 * H / 4   if m = 5 mod 8
        49 * H / 12  otherwise.
    """
    if m < 1:
        raise ValueError(f"need a positive m, got {m}")
    H = hurwitz(_lift(7 * m))
    return Fraction(49, 4 if m % 8 == 5 else 12) * H


def eisenstein_coeff(i: int, m: int,
                     conv: TwoAdicConvention = TwoAdicConvention.EFFECTIVE) -> Fraction:
    """Coefficient of q^m in the i-th basis Eisenstein series (i in 1..3).

    With L = class_number_factor(m), alpha = two_adic_factor(7m) and
    A = odd_prime_factor(7, 7m):

        g1: 2 L alpha (A - 1/7)
        g2: (2/49) L alpha
        g3: 2 L (A - 1/7)

    The convention only enters through alpha, so g3 ignores it.
    """
    if m < 1:
        raise ValueError(f"need a positive m, got {m}")
    L = class_number_factor(m)
    if i == 1:
        return 2 * L * two_adic_factor(7 * m, conv) * (odd_prime_factor(7, 7 * m) - Fraction(1, 7))
    if i == 2:
        return Fraction(2, 49) * L * two_adic_factor(7 * m, conv)
    if i == 3:
        return 2 * L * (odd_prime_factor(7, 7 * m) - Fraction(1, 7))
    raise ValueError(f"basis index must be 1, 2 or 3, got {i}")


def theta_from_eisenstein(i: int, m: int,
                          conv: TwoAdicConvention = TwoAdicConvention.EFFECTIVE,
                          printed_relation: bool = False) -> Fraction:
    """Coefficient of q^m of the i-th decomposition theta series,
    reconstructed from the Eisenstein basis:

        Theta_1 = g1 - 3 g3
        Theta_2 = g1 - (3/2) g3
        Theta_3 = g1 + 14 g2

    printed_relation=True switches the first relation to the variant
    g1 - 3 g2, which does not reproduce lattice counts; it exists only so
    a regression test can pin that failure.
    """
    if i == 1:
        other = 2 if printed_relation else 3
        return eisenstein_coeff(1, m, conv) - 3 * eisenstein_coeff(other, m, conv)
    if i == 2:
        return eisenstein_coeff(1, m, conv) - Fraction(3, 2) * eisenstein_coeff(3, m, conv)
    if i == 3:
        return eisenstein_coeff(1, m, conv) + 14 * eisenstein_coeff(2, m, conv)
    raise ValueError(f"theta index must be 1, 2 or 3, got {i}")


# The case table of `closed_rep_count`, form i -> twice its factors of H
# by column, so that every entry is an int.
_CLOSED_R_TABLE = {
    1: (4, 16, 8),
    2: (0, 4, 4),
    3: (3, 6, 0),
}


def closed_rep_count(i: int, m: int) -> int:
    """Closed form for the i-th decomposition form's representation number
    R_i(m) at odd m coprime to 7, from the case tables (n := m - 2, H :=
    H(-_lift(7m))):

        n mod 8:        1, 5      3        7
        form 1:         2H        8H       4H
        form 2:         0         2H       2H
        form 3:         (3/2)H    3H       0

    H is an int here: _lift(7m) is 7m or 28m, and neither is 3k^2 or
    4k^2, since either would force 7 | k and so 7 | m.  The table holds
    each factor doubled; the count is the entry times H, halved, and
    InexactCount is raised if that product is odd.
    """
    if i not in (1, 2, 3):
        raise ValueError(f"form index must be 1, 2 or 3, got {i}")
    if m < 3 or m % 2 == 0:
        raise HypothesisViolation(f"closed form needs odd m >= 3, got {m}")
    if m % 7 == 0:
        raise HypothesisViolation(f"closed form needs m coprime to 7, got {m}")
    n = m - 2
    col = 0 if n % 4 == 1 else (1 if n % 8 == 3 else 2)
    twice = _CLOSED_R_TABLE[i][col] * hurwitz(_lift(7 * m))
    if twice % 2:
        raise InexactCount(f"closed form R_{i}({m}) gives {Fraction(twice, 2)}")
    return twice // 2


class Discriminant(NamedTuple):
    """The negative discriminant attached to an odd n: -D with
    D = 4^epsilon * 7 * (n+2), epsilon = 1 iff n = 1 mod 4.  Build it
    with discriminant_of, which checks n."""

    n: int
    D: int
    epsilon: int


def discriminant_of(n: int) -> Discriminant:
    """D = _lift(7n + 14): 28n + 56 for n = 1 mod 4, 7n + 14 for n = 3 mod 4."""
    if n < 1 or n % 2 == 0:
        raise HypothesisViolation(f"need an odd positive n, got {n}")
    N = 7 * (n + 2)
    D = _lift(N)
    return Discriminant(n, D, int(D != N))


def _class_number_count(n: int, H_of: Callable, what: str, *args) -> int:
    """The theorem, stated once: for odd n != 5 mod 7,

        sc7(n) = 2^(-epsilon-1) H(-D_n):  H(-D_n) / 4   (n = 1 mod 4)
                                          H(-D_n) / 2   (n = 3 mod 8)
                                          0             (n = 7 mod 8)

    with H(-D_n) = H_of(D_n, *args), which the vanishing case never calls.
    Raises HypothesisViolation outside that domain, and InexactCount
    unless H(-D_n) is an int that 2^(epsilon+1) divides with a
    non-negative quotient, so a wrong class number can never pass as a
    count; the message is `what`, formatted with args and n, D and H,
    followed by the quotient.
    """
    d = discriminant_of(n)
    if n % 7 == 5:
        raise HypothesisViolation(f"no class-number expression at n = 5 mod 7 (got n={n}); "
                                  "use the qseries, eta, theta or enum routes there")
    if n % 8 == 7:
        return 0
    H = H_of(d.D, *args)
    divisor = 2 ** (d.epsilon + 1)
    if type(H) is not int or H < 0 or H % divisor:
        raise InexactCount(f"{what.format(*args, n=n, D=d.D, H=H)} gives {Fraction(H) / divisor}")
    return H // divisor


def _class_number_fields(n: int, value: int) -> dict:
    """The D_n and H(-D_n) of a class-number count value, inverting
    `_class_number_count`: H = value * 2^(epsilon+1), so no second class
    number is built; except at n = 7 mod 8, where the count reads none
    and H comes from `hurwitz`.  That D_n = 7 mod 8 is neither 3k^2 nor
    4k^2, so H is an int there, and InexactCount is raised if it is not."""
    d = discriminant_of(n)
    if n % 8 != 7:
        return {"D_n": d.D, "H": value * 2 ** (d.epsilon + 1)}
    H = hurwitz(d.D)
    if type(H) is not int:
        raise InexactCount(f"class number H(-{d.D}) at n={n} is {H}")
    return {"D_n": d.D, "H": H}


def sc7_from_class_number(n: int) -> int:
    """Self-conjugate 7-core count of odd n (n != 5 mod 7) by
    `_class_number_count`, with H(-D_n) from the reduced forms."""
    return _class_number_count(n, hurwitz, "class number route at n={n} with H(-{D}) = {H}")


# The character sum costs O(D_n) time: n = 1000001 (D_n = 2.8e7) takes
# 0.3-0.4 s and 22 MB peak RSS on one core of a 2-vCPU VM, and the time
# grows in proportion to D_n.  A larger D_n is refused; the reduced forms
# of `sc7_from_class_number` answer n = 10^9 + 1 in under a second.
COR2_MAX_D = 3 * 10**7


def _character_sum_H(D: int, n: int) -> int | Fraction:
    """H(-D) = S / (2 - chi(2)) from `dirichlet_hurwitz`, for D = D_n
    with -D fundamental, or a refusal before any sum is built: a
    HypothesisViolation if -D is not fundamental, then a ValueError that
    names the theorem route if the sum is longer than COR2_MAX_D."""
    if not is_fundamental(-D):
        raise HypothesisViolation(f"-{D} is not a fundamental discriminant (n={n})")
    if D > COR2_MAX_D:
        raise ValueError(f"cor2 needs a character sum of length D_n = {D} at n={n}, "
                         f"above its limit {COR2_MAX_D}; use --route theorem")
    return dirichlet_hurwitz(D)


def sc7_from_character_sum(n: int) -> int:
    """Same count by `_class_number_count`, for fundamental -D_n, with
    H(-D_n) = S / (2 - chi(2)) from `_character_sum_H`, S the sum of
    chi_{-D_n}(m) over the half period 0 <= m < D_n/2.

    The vanishing case n = 7 mod 8 needs no sum and no fundamentality.
    Elsewhere a non-fundamental -D_n raises HypothesisViolation, and a
    sum longer than COR2_MAX_D is refused with a ValueError before any of
    it is built.
    """
    return _class_number_count(n, _character_sum_H, "character sum route at n={n}", n)


def sc7_scaled(n: int, f: int) -> int:
    """sc7((n+2) f^2 - 2) from data at n, for odd f coprime to 7, by
    `_class_number_count` with H(-D_n f^2) from `hurwitz_scaled`:

        sc7(n) * sum_{d | f} mu(d) chi_{-D_n}(d) sigma1(f/d)

    Odd f has f^2 = 1 mod 8, so (n+2) f^2 - 2 = n mod 8, its discriminant
    is D_n f^2 and the divisor 4 or 2 stays the same.  At n = 7 mod 8 the
    count is 0 whatever -D_n is; elsewhere -D_n must be fundamental, and
    `hurwitz_scaled` raises HypothesisViolation if it is not.
    """
    if f < 1 or f % 2 == 0:
        raise HypothesisViolation(f"need a positive odd scaling factor, got f={f}")
    if gcd(f, 7) != 1:
        raise HypothesisViolation(f"scaling factor must be coprime to 7, got f={f}")
    return _class_number_count(n, hurwitz_scaled, "scaled class number route at n={n}, f={0}", f)
