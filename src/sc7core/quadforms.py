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

`hurwitz(D)` counts, and lists roots only where it must.  For
a < sqrt(D)/2 every root gives a form with c > a and weight 1, and their
number N(4a)/2, with N(m) the number of square roots of -D mod m, is
multiplicative in a (`_count_head`): N(p^k) has a closed form in v_p(D)
and the residue class of the rest of -D (`_root_count`), so the head
costs one `pow` per odd prime and one multiply per odd a, and lists no
root.  Only the a in [sqrt(D)/2, sqrt(D/3)], about 13% of the sweep,
where c = a and the weights 1/2 and 1/3 can occur, have their roots mod
4a listed (`_roots_mod_4a`, shared with `_forms`), and then only where
the closed form says there are any; the forms with c > a are counted
from them and the one form with c = a, if any, is read off D, with no
form built; its docstring gives its cost and its memo.  H(-D) comes
back as an int, and as a Fraction only at D = 4k^2 and D = 3k^2.

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


def _roots_mod_4a(D: int, a: int, spf: list[int], roots: dict) -> list[int]:
    """All x in [0, 4a) with x^2 = -D mod 4a, or [] if there is none.

    With a = 2^v * a' (a' odd), 4a = 2^(v+2) * a', and a' is factored by
    `spf`, a smallest-prime-factor table; the roots mod each prime power
    come from `_roots_mod_prime_power` (cached in `roots`) and the Chinese
    remainder theorem joins them.
    """
    # The cache is read here before any call: this runs once per a.
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
    return xs


def _forms(D: int, a_range: range, spf: list[int], roots: dict):
    """Yield the reduced forms (a, b, c) of discriminant -D with a in
    a_range, in lexicographic order.

    The b of each a are the square roots of -D mod 4a (`_roots_mod_4a`).
    Since b^2 mod 4a has period 2a in b, the roots in [0, 2a) mapped into
    (-a, a] are the b of this a; a form is kept when c >= a, with b >= 0
    when a = c.
    """
    for a in a_range:
        two_a, four_a = 2 * a, 4 * a
        bs = [x if x <= a else x - two_a for x in _roots_mod_4a(D, a, spf, roots) if x < two_a]
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


def _root_count(D: int, p: int, k: int) -> int:
    """N(p^k) = #{x mod p^k : x^2 = -D mod p^k} for a prime p and k >= 1,
    in closed form.

    With D = p^e * D' (p not dividing D'): when k <= e, x^2 = 0 mod p^k
    and N = p^(k//2).  When k > e, every root has v_p(x) = e/2, so there
    is none for odd e; for even e, x = p^(e/2) y with y a unit root of
    y^2 = -D' mod p^(k-e), and each such y mod p^(k-e) stands for p^(e/2)
    roots x mod p^k.  For odd p there are 1 + (-D'/p) such y, one Euler
    `pow`.  For p = 2 (D' odd) there is 1 such y when k - e = 1, 2 when
    k - e = 2 and -D' = 1 mod 4, 4 when k - e >= 3 and -D' = 1 mod 8, and
    none otherwise.
    """
    e, rest = 0, D
    while rest % p == 0:
        rest //= p
        e += 1
    if k <= e:
        return p ** (k // 2)
    if e % 2:
        return 0
    if p == 2:
        j, n = k - e, -rest % 8
        units = 1 if j == 1 else 2 * (n % 4 == 1) if j == 2 else 4 * (n == 1)
    else:
        units = 2 if pow(-rest % p, (p - 1) // 2, p) == 1 else 0
    return units * p ** (e // 2)


def _odd_root_counts(D: int, spf: list[int]) -> list[int]:
    """N(m) = #{x mod m : x^2 = -D mod m} at every odd m < len(spf), 0 at
    even m.

    N is multiplicative, and N(p^k) is read off in closed form
    (`_root_count`); for odd p not dividing D it is 1 + (-D/p) at every
    k, one `pow`.  No root is listed: each odd m is split by `spf`, a
    smallest-prime-factor table, and filled with one multiply.
    """
    n_odd = [0] * (len(spf) + 1)
    n_odd[1] = 1
    for m in range(3, len(spf), 2):
        p = spf[m]
        r = m // p
        if D % p == 0:
            k = 1
            while r % p == 0:
                r //= p
                k += 1
            n_odd[m] = n_odd[r] * _root_count(D, p, k)
        elif r % p == 0:  # N(p^k) = N(p)
            n_odd[m] = n_odd[r]
        elif r > 1:
            n_odd[m] = n_odd[r] * n_odd[p]
        else:  # m = p is prime
            n_odd[m] = 2 if pow(-D % p, (p - 1) // 2, p) == 1 else 0
    return n_odd


def _count_head(D: int, head: int, n_odd: list[int]) -> int:
    """The number of reduced forms of discriminant -D with a <= head, for
    head the largest a with 4a^2 < D; each has weight 1 in H(-D).

    There c = (b^2 + D)/4a > a, so every b in (-a, a] with b^2 = -D mod 4a
    gives a form, and a adds rho(a) = N(4a)/2 of them, N the root count
    of `_odd_root_counts`, given at odd m <= head in n_odd.  With
    a = 2^v a' (a' odd), N(4a) = N(2^(v+2)) N(a'), so the sum over a is
    that over v of N(2^(v+2))/2 (`_root_count`) times the sum of N(a')
    over odd a' <= head/2^v.
    """
    count = 0
    for v in range(head.bit_length()):
        count += _root_count(D, 2, v + 2) // 2 * sum(n_odd[1:(head >> v) + 1:2])
    return count


@lru_cache(maxsize=4096)
def _hurwitz(D: int) -> int | Fraction:
    """H(-D) for a checked D, memoised: see `hurwitz`.

    A tail a, 4a^2 >= D, has t = 4a^2 - D >= 0, and a root b of b^2 = -D
    mod 4a in (-a, a] gives c > a exactly when b^2 > t, that is
    |b| > s = isqrt(t): the roots x in [0, 2a) with s < x < 2a - s.  The
    form with c = a is (a, s, a), there exactly when t = s^2: weight 1/2
    at s = 0 (D = 4a^2), 1/3 at s = a (D = 3a^2), else 1.  An a with
    N(a') = 0 at its odd part a' has no root, so no form, and is passed
    over before any root is listed; at the default `verify` bounds that
    is about one tail a in two.
    """
    amax = isqrt(D // 3)
    head = isqrt(D - 1) // 2  # the largest a with 4a^2 < D
    spf = smallest_prime_factors(amax)
    n_odd = _odd_root_counts(D, spf)
    count = _count_head(D, head, n_odd)
    roots = {1: [0]}
    sixths = 0  # the weight 1/2 or 1/3 of a form (a, 0, a) or (a, a, a)
    for a in range(head + 1, amax + 1):
        if not n_odd[a // (a & -a)]:  # no root mod the odd part of a
            continue
        t = 4 * a * a - D
        s = isqrt(t)
        stop = 2 * a - s
        count += len([x for x in _roots_mod_4a(D, a, spf, roots) if s < x < stop])
        if s * s == t:
            if s == 0:
                sixths += 3
            elif s == a:
                sixths += 2
            else:
                count += 1
    return Fraction(6 * count + sixths, 6) if sixths else count


def hurwitz(D: int) -> int | Fraction:
    """Hurwitz class number H(-D): the reduced forms of discriminant -D,
    weighted 1/2 for (a, 0, a), 1/3 for (a, a, a) and 1 for every other.
    It is an int, except at D = 4k^2 and D = 3k^2, where the one form
    (k, 0, k) or (k, k, k) makes it a Fraction with denominator 2 or 3.

    The forms are counted, never listed.  For every a with 4a^2 < D
    (`_count_head`) c > a, so each has weight 1, and their number is
    multiplicative in a and read off in closed form at each prime power;
    no root is listed.  Only the a in [sqrt(D)/2, sqrt(D/3)], about 13%
    of them, have their roots mod 4a listed (`_roots_mod_4a`), and those
    with c > a counted: only there can c = a hold and the weights 1/2 and
    1/3 apply.  Cost: O(sqrt(D)) steps for the head, one multiply per odd
    a, plus the roots of the tail: about 0.5, 1.6 and 4.8 ms at D = 2.8e6,
    2.8e7 and 2.8e8 on one core of a 2-vCPU VM (Python 3.11, median of 15
    runs), where listing every form takes 2.7, 10 and 30 ms.

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


def _two_part_tables(d2: int) -> tuple[bytes, bytes]:
    values = [kronecker(d2, r) if r else 0 for r in range(abs(d2))]
    return bytes(v < 0 for v in values), bytes(v == 0 for v in values)


# The character of each 2-part d2 of a fundamental discriminant, over its
# period |d2|, in the form `_character_tables` gives.
_TWO_PART_TABLES = {d2: _two_part_tables(d2) for d2 in (-4, 8, -8)}


def _character_tables(D: int) -> list[tuple[bytes, bytes]]:
    """chi_{-D} for fundamental -D as coprime periodic factors, each given
    over one period as (sign bytes, zero bytes): 1 where the factor is -1,
    and 1 where it is 0.

    -D is the product of p* = (-1)^((p-1)/2) p over the odd primes p | D,
    whose characters are the Legendre symbols (m/p), and of d2 = 1, -4 or
    +-8, whose character has period |d2| and is read from
    `_TWO_PART_TABLES`.  Every period divides D.

    One factorization of D gives the odd primes and decides that -D is
    fundamental: with D = 2^v u, u odd and squarefree, either v = 0 and
    u = 3 mod 4 (-D = 1 mod 4), or v = 2 and u = 1 mod 4 (-D/4 = 3 mod 4),
    or v = 3 (-D/4 = 2 mod 4).  Raises HypothesisViolation otherwise.
    """
    factors = dict(factorize(D)) if D > 0 else {}
    v = factors.pop(2, 0)
    if (D <= 0 or any(k > 1 for k in factors.values())
            or not (v == 3 or (v, (D >> v) % 4) in ((0, 3), (2, 1)))):
        raise HypothesisViolation(f"-{D} is not a fundamental discriminant")
    odd = list(factors)
    tables = [(_legendre_signs(p), b"\x01" + bytes(p - 1)) for p in odd]
    d2 = -D // prod(p if p % 4 == 1 else -p for p in odd)
    if d2 != 1:
        tables.append(_TWO_PART_TABLES[d2])
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


def dirichlet_hurwitz(D: int) -> int | Fraction:
    """H(-D) = S / (2 - chi(2)) for fundamental -D, with S the sum of
    chi_{-D}(m) over the half period 0 <= m < D/2 (`_half_character_sum`).

    The unit count cancels, so this holds as it stands at D = 3 and
    D = 4, where H is the Fraction 1/3 and 1/2.  For D > 4, H(-D) = h(-D)
    is an integer, returned as an int, so S must be a multiple of
    2 - chi(2): InexactCount is raised, naming D, if it is not.  Cost:
    O(D) byte operations, dominated at prime D by the O(D) Legendre
    table; on one core of a
    2-vCPU VM (Python 3.11, medians) 6-8 ms at D = 100003, 70-100 ms at
    D = 1000003 and 0.17-0.23 s at D = 28000084.  Raises
    HypothesisViolation unless -D is fundamental, from the one
    factorization of D in `_character_tables`, before any sum is built.
    """
    S = _half_character_sum(D)
    divisor = 2 - kronecker(-D, 2)
    if D > 4 and S % divisor:
        raise InexactCount(f"half character sum at D={D} gives S = {S}, "
                           f"not a multiple of 2 - chi(2) = {divisor}")
    return S // divisor if D > 4 else Fraction(S, divisor)


def hurwitz_scaled(D: int, f: int) -> int | Fraction:
    """H(-D f^2) from data at the fundamental level -D:

        H(-D) * sum_{d | f} mu(d) chi_{-D}(d) sigma1(f/d)

    The textbook form has h(-D)/w in front, h the ordinary class number
    and w = u/2 half the number of units; at fundamental -D every reduced
    form is primitive and `hurwitz` weighs the one class at D = 4 by 1/2
    and at D = 3 by 1/3, so h(-D)/w is exactly `hurwitz(D)`.

    The sum is a Dirichlet convolution of multiplicative functions, so it
    is the product over p^k || f of sigma1(p^k) - chi_{-D}(p) sigma1(p^(k-1)),
    read from one factorization of f, with sigma1(p^(k-1)) =
    sigma1(p^k) - p^k.
    """
    if f < 1:
        raise ValueError(f"need a positive scaling factor, got {f}")
    if D <= 0 or not is_fundamental(-D):
        raise HypothesisViolation(f"-{D} is not a fundamental discriminant")
    total = 1
    for p, k in factorize(f):
        sigma = sigma1(p**k)
        total *= sigma - kronecker(-D, p) * (sigma - p**k)
    return hurwitz(D) * total
