"""Positive definite binary quadratic forms and Hurwitz class numbers.

H(-D) is the class count of forms of discriminant -D (imprimitive forms
included), weighted 1/2 for classes of multiples of X^2 + Y^2 and 1/3 for
multiples of X^2 + XY + Y^2; its denominator always divides 6.  Two
independent evaluations are provided, the reduced-form count (`hurwitz`)
and the Dirichlet character sum (`dirichlet_hurwitz`), plus the
multiplicative scaling from a fundamental level (`hurwitz_scaled`).

The character-sum formula needs no unit count.  For fundamental -D with
u units in Q(sqrt(-D)), the half-period class number formula is
h(-D) = (u / (2 (2 - chi(2)))) * S with S = sum_{0 <= m < D/2} chi_{-D}(m),
and H(-D) = h(-D) / (u/2), so u cancels:

    H(-D) = S / (2 - chi(2))

(Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
sections 5.3-5.4).  At fundamental -D every form is primitive, and the
weights 1/2 and 1/3 fall exactly on the one class of D = 4 and of D = 3,
so the weighted form count `hurwitz(D)` is h(-D)/(u/2) as well.

Both form routines sweep a <= sqrt(D/3) and find the b of each a as the
square roots of -D mod 4a (Cohen, section 5.3); this is exact and needs
no GRH.  The roots mod each prime power are solved once per call, by
one rule: Tonelli-Shanks at q = p for odd p not dividing D, and at every
other q a lift of the roots mod q/p, keeping those of the p residues
x + t*q/p that still solve the congruence.  Since q <= sqrt(D/3), a lift
for odd p not dividing D (q = p^k, k >= 2) needs p <= (D/3)^(1/4).

`reduced_forms(D)` lists every form: for each a the roots mod 4a are
joined by the Chinese remainder theorem and read off (`_forms`).  It
costs O(sqrt(D) log D) steps plus one per candidate root.

`hurwitz(D)` lists only where it must.  For a < sqrt(D)/2 every root
gives a form with c > a and weight 1, and their number N(4a)/2, with
N(m) the number of square roots of -D mod m, is multiplicative in a: it
is counted with one `pow` per odd prime and one multiply per odd a
(`_count_head`).  Only the a in [sqrt(D)/2, sqrt(D/3)], about 13% of the
sweep, where c = a and the weights 1/2 and 1/3 can occur, are listed by
`_forms`.  On one core of a 2-vCPU VM (Python 3.11, median of 15 runs)
`hurwitz` takes about 1 ms at D = 2.8e6, 3 ms at D = 2.8e7 and 9 ms at
D = 2.8e8 (the theorem route at n = 10^7 + 1), against 3.5, 13 and 35 ms
for `reduced_forms` at the same D.  Its value is memoised for the last
4096 distinct D: `verify` at its default bounds asks 4553 times for
2096 distinct D, and the memo serves the 2457 repeats.

`dirichlet_hurwitz(D)` evaluates S without a Python step per m.
chi_{-D} is a product of periodic factors, the Legendre symbol (m/p) for
each odd p | D and a character mod 4 or 8 for the 2-part; each factor's
residue table is filled once by C-level builtins and tiled once, and S
is read over the first (D+1)//2 residues in blocks of 2^16, each block
one slice per factor packed into one integer per mask, a byte per m, and
counted by two popcounts.  It costs O(D) byte operations, of which the
O(p) table of a large odd prime p | D can be most, and O(2^16 + p) bytes
of memory for p the largest: on one core of a 2-vCPU VM (Python 3.11,
medians) about 0.2 ms at D = 3e4, 2 ms at D = 2.8e5 and 0.17-0.23 s at
D = 28000084 = 4 * 7 * 1000003, where `sc7 1000001 --route cor2` takes
0.3-0.4 s and 22 MB peak RSS.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import isqrt, prod
from operator import mod, setitem
from typing import NamedTuple

from .arith import (
    HypothesisViolation,
    InexactCount,
    factorize,
    is_fundamental,
    kronecker,
    mobius,
    divisors,
    sigma1,
    smallest_prime_factors,
)


class BinaryQF(NamedTuple):
    """aX^2 + bXY + cY^2; tuple order gives the lexicographic form order."""

    a: int
    b: int
    c: int


def _check_discriminant(D: int) -> None:
    if D <= 0:
        raise ValueError(f"need a positive D (for discriminant -D), got {D}")
    if D % 4 not in (0, 3):
        raise HypothesisViolation(
            f"-{D} = {-D % 4} mod 4 is not a discriminant; no forms exist"
        )


def _sqrt_mod_prime(n: int, p: int) -> int:
    """A square root of n mod the odd prime p, for n a nonzero quadratic
    residue mod p (Tonelli-Shanks)."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    if s == 1:
        return pow(n, (p + 1) // 4, p)
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:  # least i with t^(2^i) = 1
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _roots_mod_prime_power(D: int, p: int, q: int, roots: dict) -> list[int]:
    """All x in [0, q) with x^2 = -D mod q, for q a power of the prime p.

    `roots` caches the answer by q and must hold {1: [0]}.  At q = p for
    odd p not dividing D, Tonelli-Shanks gives the two roots, or none.
    Every other q is lifted from q/p: each root x mod q/p stands for the
    p residues x + t*q/p mod q, and those that still solve the congruence
    are kept, p steps per root mod q/p.  The forms ask only for q <= a <=
    sqrt(D/3), so a lift for odd p not dividing D (q = p^k, k >= 2) needs
    p <= (D/3)^(1/4).
    """
    xs = roots.get(q)
    if xs is not None:
        return xs
    if q == p and p != 2 and D % p:
        n = -D % p
        xs = [x := _sqrt_mod_prime(n, p), p - x] if pow(n, (p - 1) // 2, p) == 1 else []
    else:
        r = q // p
        xs = [y for x in _roots_mod_prime_power(D, p, r, roots)
              for y in range(x, q, r) if (y * y + D) % q == 0]
    roots[q] = xs
    return xs


def _forms(D: int, a_range: range, spf: list[int], roots: dict):
    """Yield the reduced forms (a, b, c) of discriminant -D with a in
    a_range, in lexicographic order.

    The b of each a are the square roots of -D mod 4a.  With a = 2^v * a'
    (a' odd), 4a = 2^(v+2) * a', and a' is factored by `spf`, a
    smallest-prime-factor table; the roots mod each prime power come from
    `_roots_mod_prime_power` (cached in `roots`) and the Chinese remainder
    theorem joins them.  Since b^2 mod 4a has period 2a in b, the roots in
    [0, 2a) mapped into (-a, a] are the b of this a; a form is kept when
    c >= a, with b >= 0 when a = c.
    """
    # The cache is read here before any call: this loop runs once per a.
    for a in a_range:
        v = (a & -a).bit_length() - 1
        modulus, rest = 4 << v, a >> v
        xs = roots.get(modulus)
        if xs is None:
            xs = _roots_mod_prime_power(D, 2, modulus, roots)
        while rest > 1 and xs:
            p = q = spf[rest]
            rest //= p
            while rest % p == 0:
                rest //= p
                q *= p
            ys = roots.get(q)
            if ys is None:
                ys = _roots_mod_prime_power(D, p, q, roots)
            inv = pow(modulus, -1, q)
            xs = [x + modulus * ((y - x) * inv % q) for x in xs for y in ys]
            modulus *= q
        two_a, four_a = 2 * a, 4 * a
        bs = [x if x <= a else x - two_a for x in xs if x < two_a]
        bs.sort()
        for b in bs:
            c = (b * b + D) // four_a
            if c > a or (c == a and b >= 0):
                yield BinaryQF(a, b, c)


def reduced_forms(D: int) -> list[BinaryQF]:
    """All reduced forms of discriminant -D, sorted lexicographically.

    Reduction normalization: -a < b <= a <= c, with b >= 0 whenever
    a = c.  Exactly one representative per proper equivalence class;
    imprimitive forms included.  The inequalities force 3a^2 <= 4ac - b^2
    = D, which bounds the sweep over a.

    For each a the candidates b are the square roots of -D mod 4a, listed
    directly instead of tested one by one (`_forms`); each prime power
    is solved once per call.  Cost: O(sqrt(D) log D) steps plus one per
    candidate root.
    """
    _check_discriminant(D)
    amax = isqrt(D // 3)
    spf = smallest_prime_factors(amax)
    return list(_forms(D, range(1, amax + 1), spf, {1: [0]}))


def _count_head(D: int, head: int, spf: list[int], roots: dict) -> int:
    """The number of reduced forms of discriminant -D with a <= head, for
    head the largest a with 4a^2 < D; each has weight 1 in H(-D).

    There c = (b^2 + D)/4a > a, so every b in (-a, a] with b^2 = -D mod 4a
    gives a form, and a adds rho(a) = N(4a)/2 of them, where
    N(m) = #{x mod m : x^2 = -D mod m} is multiplicative in m.  For odd p
    not dividing D, N(p^k) = 1 + (-D/p), one `pow`; for p = 2 and for
    p | D, N(p^k) is the length of the lifted root list.  N(a') is filled
    over odd a' <= head from `spf`, one multiply each, and with
    a = 2^v a' the sum over a is that over v of N(2^(v+2))/2 times the sum
    of N(a') over odd a' <= head/2^v.
    """
    n_odd = [0] * (head + 2)  # N(a') at odd a'
    n_odd[1] = 1
    for m in range(3, head + 1, 2):
        p = spf[m]
        r = m // p
        if D % p == 0:  # N(p^k) from the lifted roots
            q = p
            while r % p == 0:
                r //= p
                q *= p
            n_odd[m] = n_odd[r] * len(_roots_mod_prime_power(D, p, q, roots))
        elif r % p == 0:  # N(p^k) = N(p)
            n_odd[m] = n_odd[r]
        elif r > 1:
            n_odd[m] = n_odd[r] * n_odd[p]
        else:  # m = p is prime
            n_odd[m] = 2 if pow(-D % p, (p - 1) // 2, p) == 1 else 0
    count = 0
    for v in range(head.bit_length()):
        rho2 = len(_roots_mod_prime_power(D, 2, 4 << v, roots)) // 2
        count += rho2 * sum(n_odd[1:(head >> v) + 1:2])
    return count


@lru_cache(maxsize=4096)
def _hurwitz(D: int) -> Fraction:
    """H(-D) for a checked D, memoised: see `hurwitz`."""
    amax = isqrt(D // 3)
    head = isqrt(D - 1) // 2  # the largest a with 4a^2 < D
    spf = smallest_prime_factors(amax)
    roots = {1: [0]}
    count = _count_head(D, head, spf, roots)
    halves = thirds = 0
    for f in _forms(D, range(head + 1, amax + 1), spf, roots):
        count += 1
        if f.a == f.c:
            halves += f.b == 0
            thirds += f.b == f.a
    return Fraction(6 * count - 3 * halves - 4 * thirds, 6)


def hurwitz(D: int) -> Fraction:
    """Hurwitz class number H(-D): the reduced forms of discriminant -D,
    weighted 1/2 for (a, 0, a), 1/3 for (a, a, a) and 1 for every other.

    The forms are counted, not listed, for every a with 4a^2 < D
    (`_count_head`): there c > a, so each has weight 1, and their number
    is multiplicative in a.  Only the a in [sqrt(D)/2, sqrt(D/3)], about
    13% of them, have their forms listed (`_forms`): only there can c = a
    hold and the weights 1/2 and 1/3 apply.  Cost: O(sqrt(D)) steps for
    the count, one multiply per odd a, plus the listing of the tail:
    about 1, 3 and 9 ms at D = 2.8e6, 2.8e7 and 2.8e8 on one core of a
    2-vCPU VM (Python 3.11), where listing every form takes 3.5, 13 and
    35 ms.

    D is checked on every call; the count itself (`_hurwitz`) is
    memoised for the last 4096 distinct D.  `verify` at its default
    bounds asks 4553 times for 2096 distinct D.  Of the 2457 repeats,
    1972 come within 8 calls of the last ask for the same D, in one
    check: `hurwitz_scaled` over seven f, `closed_rep_count` over the
    three forms, `theta_from_eisenstein` reading `eisenstein_coeff`
    twice.  The other 485 cross from one check to another, and this
    size keeps them too.
    """
    _check_discriminant(D)
    return _hurwitz(D)


def _legendre_signs(p: int) -> bytearray:
    """One byte per residue r mod the odd prime p: 1 where (r/p) = -1,
    0 where r is a nonzero square or r = 0."""
    signs = bytearray(b"\x01") * p
    signs[0] = 0
    # k^2 = 1 + 3 + ... + (2k - 1) for k = 1..(p-1)/2 are the nonzero
    # squares mod p; deque(maxlen=0) drains the map at C level.
    squares = map(mod, accumulate(range(1, p, 2)), repeat(p))
    deque(map(setitem, repeat(signs), squares, repeat(0)), maxlen=0)
    return signs


def _character_tables(D: int) -> list[tuple[bytes, bytes]]:
    """chi_{-D} for fundamental -D as coprime periodic factors, each given
    over one period as (sign bytes, zero bytes): 1 where the factor is -1,
    and 1 where it is 0.

    -D is the product of p* = (-1)^((p-1)/2) p over the odd primes p | D,
    whose characters are the Legendre symbols (m/p), and of d2 = 1, -4 or
    +-8; the character of d2 has period |d2| and is read off `kronecker`
    at its residues.  Every period divides D.
    """
    odd = [p for p, _ in factorize(D) if p != 2]
    tables = [(_legendre_signs(p), b"\x01" + bytes(p - 1)) for p in odd]
    d2 = -D // prod(p if p % 4 == 1 else -p for p in odd)
    if d2 != 1:
        values = [0] + [kronecker(d2, r) for r in range(1, abs(d2))]
        tables.append((bytes(v < 0 for v in values), bytes(v == 0 for v in values)))
    return tables


# The half period is read in blocks of this many residues, so the memory
# of the character sum stays bounded as D grows.
_BLOCK = 1 << 16


def _half_character_sum(D: int) -> int:
    """S = sum_{0 <= m < D/2} chi_{-D}(m) for fundamental -D.

    The first (D+1)//2 residues are read in blocks of at most _BLOCK.
    Each factor's tables are tiled once, to the block length, plus one
    period when there is more than one block, so the block from s on is
    one slice at offset s mod p; a half period that fits in one block is
    tiled only to cover itself.  The slices are packed into one integer
    per mask, a byte per m: the signs multiply by XOR and the zeros by OR.
    A block adds the count of m with chi(m) != 0 less twice the count of
    m with chi(m) = -1, two popcounts.
    """
    half = (D + 1) // 2
    step = min(half, _BLOCK)
    tiled = []
    for signs, zeros in _character_tables(D):
        p = len(signs)
        reps = -(-step // p) + (step < half)
        tiled.append((p, memoryview(signs * reps), memoryview(zeros * reps)))
    total = 0
    for s in range(0, half, step):
        n = min(step, half - s)
        sign = zero = 0
        for p, signs, zeros in tiled:
            o = s % p
            sign ^= int.from_bytes(signs[o:o + n], "little")
            zero |= int.from_bytes(zeros[o:o + n], "little")
        total += n - zero.bit_count() - 2 * (sign & ~zero).bit_count()
    return total


def dirichlet_hurwitz(D: int) -> Fraction:
    """H(-D) = S / (2 - chi(2)) for fundamental -D, with S the sum of
    chi_{-D}(m) over the half period 0 <= m < D/2 (`_half_character_sum`).

    The unit count cancels, so this holds as it stands at D = 3 and
    D = 4, where H is 1/3 and 1/2.  For D > 4, H(-D) = h(-D) is an
    integer, so S must be a multiple of 2 - chi(2): InexactCount is
    raised, naming D, if it is not.  Cost: O(D) byte operations,
    dominated at prime D by the O(D) Legendre table; on one core of a
    2-vCPU VM (Python 3.11, medians) 6-8 ms at D = 100003, 70-100 ms at
    D = 1000003 and 0.17-0.23 s at D = 28000084.
    """
    if D <= 0 or not is_fundamental(-D):
        raise HypothesisViolation(f"-{D} is not a fundamental discriminant")
    S = _half_character_sum(D)
    divisor = 2 - kronecker(-D, 2)
    if D > 4 and S % divisor:
        raise InexactCount(f"half character sum at D={D} gives S = {S}, "
                           f"not a multiple of 2 - chi(2) = {divisor}")
    return Fraction(S, divisor)


def hurwitz_scaled(D: int, f: int) -> Fraction:
    """H(-D f^2) from data at the fundamental level -D:

        H(-D) * sum_{d | f} mu(d) chi_{-D}(d) sigma1(f/d)

    The textbook form has h(-D)/w in front, h the ordinary class number
    and w = u/2 half the number of units; at fundamental -D every reduced
    form is primitive and `hurwitz` weighs the one class at D = 4 by 1/2
    and at D = 3 by 1/3, so h(-D)/w is exactly `hurwitz(D)`.
    """
    if f < 1:
        raise ValueError(f"need a positive scaling factor, got {f}")
    if D <= 0 or not is_fundamental(-D):
        raise HypothesisViolation(f"-{D} is not a fundamental discriminant")
    total = sum(mobius(d) * kronecker(-D, d) * sigma1(f // d) for d in divisors(f))
    return hurwitz(D) * total
