"""Truncated formal power series with exact coefficients.

A QSeries knows its coefficients for exponents 0..precision-1; exponents
at or beyond the precision are unknown, never implicitly zero.
Coefficients are exact integers, stored as given.

The series builders here, and `ternary.theta_coeffs`, never leave the
integers, and all multiply on one kernel of packed integers, a
fixed-width binary slot per coefficient (`_packed_width`), with no
Python step per coefficient.  `_product` gives sum_i row_i * prod
factors_i below q^n for dense rows and sparse factors: each row packed
once, one C-level shifted add of O(n) machine words per term of each
factor (`_packed`), one read-back.  Its slots are sized by `_bound`,
the one proved bound on the coefficients of such a product.

- `sc_series` multiplies (t-1)/2 theta series sum_x q^(t x^2 - 2 j x)
  (Jacobi's triple product): the first two as one dense row that counts
  the pair sums of their exponents (`_pair_row`), times the later ones
  in one `_product`.  Cost for fixed t: O(N) for the row, O(N^1.5) word
  operations for the shifted adds.
- `eta_quotient_series` pairs each eta(2s tau)^2 / eta(s tau) of the
  quotient into one row of Gauss's psi(q^s) = sum_n q^(s n(n+1)/2),
  about sqrt(2N/s) terms below N, and expands every other eta factor by
  Euler's pentagonal number theorem, about 2*sqrt(2N/(3s)) terms for
  scale s.  The numerator is one `_product`, as in `sc_series`: the two
  longest numerator factors as one counted dense row, times the rest.
  The division runs packed in the denominator's own variable x = q^g
  (q^4 for SC7): the denominator by one shifted add per term, its
  inverse modulo a power of 2 over ceil(N/g) slots, one multiply by it
  per residue class of the exponent mod g.  The quotient is checked
  exactly, at full length, by multiplying it back with one more
  `_product` and comparing with the numerator.  The shifted adds cost
  O(N^1.5) word operations and the products about O(N^1.58).
  It stays the independent check of `sc_series`, though the two share
  Jacobi's triple product (psi is a case of it).

On one core of a 2-vCPU VM (Python 3.11.7, best of 9 runs, 5 at
3*10^5, 2 at 10^6 and 1 at 3*10^6), `sc_series(7, N)` takes 0.0017 s
at N = 4001, 0.0043 s at 10^4, 0.017 s at 3*10^4, 0.076 s at 10^5,
0.37 s at 3*10^5, 1.4-1.9 s at 10^6 and 10.5 s at 3*10^6, a fitted
exponent of about 1.5 from 10^5 on.  The SC7 eta quotient costs about
0.0029 s at 4000, 0.0089 s at 10^4, 0.037 s at 3*10^4, 0.065 s at
4*10^4, 0.25 s at 10^5 and 1.40 s at 3*10^5 (best of 31, 21, 15, 15, 9
and 7 runs).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, count, repeat, takewhile
from math import comb, gcd, prod
from operator import sub


class QSeries:
    """Power series truncated at a fixed precision, exact arithmetic."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        c = tuple(coeffs)
        if not c:
            raise ValueError("a QSeries needs at least the constant term")
        self._coeffs = c

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def __getitem__(self, n: int):
        if not 0 <= n < len(self._coeffs):
            raise IndexError(
                f"coefficient of q^{n} is beyond precision {len(self._coeffs)}"
            )
        return self._coeffs[n]

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        head = ", ".join(map(str, self._coeffs[:8]))
        tail = ", ..." if len(self._coeffs) > 8 else ""
        return f"QSeries([{head}{tail}], precision={len(self._coeffs)})"


# Sparse series, and the dense row of a pair of them.

def _x_terms(a: int, r: int, prec: int) -> dict:
    """{exponent: multiplicity} of sum over integers x of q^(a x^2 + r x),
    exponents below prec; needs -a < r <= a, which makes the exponent grow
    with |x| on both sides of 0."""
    terms: dict = {}
    for x0, step in ((0, 1), (-1, -1)):
        x = x0
        while (t := a * x * x + r * x) < prec:
            terms[t] = terms.get(t, 0) + 1
            x += step
    return terms


def _euler_terms(scale: int, limit: int) -> list:
    """Terms (exponent, sign) of (q^scale; q^scale)_inf with
    0 < exponent < limit, in increasing order.

    Euler's pentagonal number theorem: prod_n (1 - q^n) is
    sum_k (-1)^k q^(k(3k-1)/2) over all integers k, so the k and -k terms
    sit at the exponents k(3k-1)/2 < k(3k+1)/2, both with sign (-1)^k.
    """
    terms = []
    k = 1
    while scale * k * (3 * k - 1) // 2 < limit:
        sign = -1 if k % 2 else 1
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if scale * e < limit:
                terms.append((scale * e, sign))
        k += 1
    return terms


def _psi_terms(scale: int, limit: int) -> list:
    """Terms (exponent, 1) of psi(q^scale) with exponent < limit.

    Gauss: psi(q) = (q^2; q^2)_inf^2 / (q; q)_inf = sum_{n>=0} q^(n(n+1)/2),
    the case q -> q^(1/2), z = q^(1/2) of Jacobi's triple product, whose
    two sides then read 2 psi(q).  The exponents scale*n(n+1)/2 are the
    running sums of 0, scale, 2 scale, ...
    """
    return [(e, 1) for e in takewhile(limit.__gt__, accumulate(count(0, scale)))]


def _pair_row(factors, n: int) -> list:
    """The coefficients below q^n of the product of at most two sparse
    series, each given by terms (e, m) with distinct e and m = 1 or -1
    (a missing factor is the series 1).  For each term of the shorter
    factor, its sums with the terms of the other below n are counted by
    `Counter`, apart by the sign of the pair: one Python step per term,
    none per pair or per coefficient."""
    first, second = sorted(([[(0, 1)]] * 2 + list(factors))[-2:], key=len)
    by_sign = [(sign, sorted(e for e, m in second if m == sign)) for sign in (1, -1)]
    plus, minus = Counter(), Counter()
    for e, m in first:
        for sign, es in by_sign:
            (plus if m == sign else minus).update(map(e.__add__, es[:bisect_left(es, n - e)]))
    row = list(map(plus.get, range(n), repeat(0)))
    return list(map(sub, row, map(minus.get, range(n), repeat(0)))) if minus else row


# Packed series: the coefficients c_0..c_(n-1) of a series cut below q^n
# as one integer sum_e c_e 2^(8k e), each in a slot of k bytes.  Multiplying
# by q^e is a shift by 8k*e bits, so a product with a sparse series is one
# shifted add per term, and packing and reading back are C-level.

# array typecodes of the slot widths that need no Python step per slot
_ARRAY_CODES = {array(code).itemsize: code for code in "hiq"}


def _packed_width(bound: int) -> int:
    """Bytes k per slot for packed coefficients with |c| <= bound: the
    least k with bound < 2^(8k-1), raised to 2, 4 or 8 when at most 8.

    Proof that every slot of a packed result reads back correctly when
    each of its final coefficients c_e has |c_e| <= bound.

    - The arithmetic is exact modulo 2^(8kn).  The map Z[q]/(q^n) ->
      Z/2^(8kn), q -> 2^(8k), is a ring homomorphism, because
      2^(8k)^n = 0 there.  `_pack` computes sum_e c_e 2^(8k e) exactly,
      and `_mul_packed` and every mask work modulo 2^(8kn), so the final
      integer is congruent to sum_e c_e 2^(8k e), whatever the sizes of
      the intermediate values.
    - Carries only move upward: adding or subtracting two numbers
      changes a slot only through its own bits and a carry (or borrow)
      from the slot below, and the mask drops only what leaves the top.
    - `_unpack` adds b = 2^(8k-1) to every slot.  If -b <= c_e < b for
      all e, each slot holds c_e + b in [0, 2^(8k)), nothing carries,
      and the slots are the base-2^(8k) digits of the masked sum, so
      every c_e reads back.  Otherwise the lowest slot out of range gets
      no carry from below and reads (c_e + b) mod 2^(8k) - b != c_e.

    So a result reads back correctly iff every final coefficient lies in
    [-b, b), which |c_e| <= bound < b = 2^(8k-1) ensures.  The widths 2,
    4 and 8 have array typecodes (`_ARRAY_CODES`); wider slots are
    written and read one slot at a time.
    """
    k = (bound.bit_length() + 8) // 8
    return next((w for w in (2, 4, 8) if w >= k), k)


def _bias(k: int, n: int) -> int:
    """2^(8k-1) in each of n slots of k bytes."""
    return int.from_bytes((1 << 8 * k - 1).to_bytes(k, "little") * n, "little")


def _pack(values, k: int) -> int:
    """sum_e values[e] 2^(8k e), exactly, for every |value| < 2^(8k-1).

    The slots are written in two's complement, then XOR with the bias
    turns each slot v mod 2^(8k) into v + 2^(8k-1) with no carry, and
    subtracting the bias leaves v."""
    if k in _ARRAY_CODES:
        slots = array(_ARRAY_CODES[k], values)
        if sys.byteorder == "big":
            slots.byteswap()
        data = slots.tobytes()
    else:
        data = b"".join(v.to_bytes(k, "little", signed=True) for v in values)
    bias = _bias(k, len(values))
    return (int.from_bytes(data, "little") ^ bias) - bias


def _unpack(x: int, k: int, n: int) -> list:
    """The n coefficients of the packed x as plain ints, read back as
    balanced slots: add 2^(8k-1) to every slot below n, mask to 2^(8kn),
    and XOR the bias back out, which leaves each slot in two's
    complement.  Correct when every coefficient has |c| < 2^(8k-1)
    (`_packed_width`)."""
    bias = _bias(k, n)
    data = (((x + bias) & ((1 << 8 * k * n) - 1)) ^ bias).to_bytes(k * n, "little")
    if k in _ARRAY_CODES:
        slots = array(_ARRAY_CODES[k], data)
        if sys.byteorder == "big":
            slots.byteswap()
        return slots.tolist()
    return [int.from_bytes(data[i:i + k], "little", signed=True) for i in range(0, k * n, k)]


def _mul_packed(x: int, terms, k: int, n: int) -> int:
    """x * sum m*q^e mod 2^(8kn) for the (e, m) in terms: the shifts of
    the terms that share a multiplicity m are summed, then multiplied by
    m once, so each term costs one shifted add on the packed x."""
    bits = 8 * k
    by_m: dict = {}
    for e, m in terms:
        by_m.setdefault(m, []).append(e)
    return sum(m * sum(x << bits * e for e in es) for m, es in by_m.items()) & ((1 << bits * n) - 1)


def _packed(x: int, factors, k: int, n: int) -> int:
    """The packed x times every sparse factor, each given by its terms
    (e, m): one shifted add per term (`_mul_packed`), congruent to the
    product mod 2^(8kn)."""
    for terms in factors:
        x = _mul_packed(x, terms, k, n)
    return x


def _bound(pairs) -> int:
    """sum_i max|row_i| * prod_(F in factors_i) sum |m| over F's terms:
    a bound on every |coefficient| of sum_i row_i * prod factors_i, for
    pairs (row_i, factors_i) of a coefficient list and sparse factors
    given by terms (e, m), as `_product` takes them.

    Proof.  The coefficient of q^e in X * F is the sum over F's terms
    (f, m) of m X_(e-f), at most sum |m| * max|X| in absolute value, so a
    product by F raises the largest |coefficient| at most (sum |m|)-fold,
    and cutting below q^n only drops coefficients.  By induction over
    factors_i, every |coefficient| of row_i * prod factors_i is at most
    max|row_i| * prod sum |m|, and by the triangle inequality every one
    of the sum over i is at most the sum of those bounds.  So slots of
    `_packed_width(_bound(pairs))` bytes read every coefficient back.

    max|row_i| is taken over the set of the row's values: the rows here
    hold few distinct values, and hashing them is cheaper than an abs
    per entry.
    """
    return sum(max(map(abs, set(row))) * prod(sum(abs(m) for _, m in f) for f in factors) for row, factors in pairs)


def _product(pairs, n: int) -> list:
    """The coefficients below q^n of sum_i row_i * prod factors_i, for a
    list of pairs (row_i, factors_i) as in `_bound`: each row is packed
    once in slots of `_packed_width(_bound(pairs))` bytes, multiplied by
    its factors with one shifted add per term (`_packed`), and the
    packed products are summed and read back once."""
    k = _packed_width(_bound(pairs))
    return _unpack(sum(_packed(_pack(row, k), factors, k, n) for row, factors in pairs), k, n)


def _inverse_2adic(a: int, bits: int) -> int:
    """y in [0, 2^bits) with a*y = 1 mod 2^bits, for odd a.

    Newton's iteration y <- y(2 - a y), doubling the precision each step.
    If a y = 1 + 2^h t, then y(2 - a y) = y - 2^h y t, and a times that
    is 1 - 2^(2h) t^2.  So for p <= 2h, y - 2^h (y t mod 2^(p-h)) is the
    inverse mod 2^p, and only t mod 2^(p-h) is needed.  It starts from
    y = 1, the inverse mod 2 of any odd a.  A step at precision p takes
    a product of p by p/2 bits and one of p/2 by p/2 bits, so the whole
    costs about two products of bits-bit integers.  pow(a, -1, 2**bits)
    runs a quadratic extended Euclid instead: 0.35 s against 3 ms at
    64 kbit on one core of a 2-vCPU VM (Python 3.11.7)."""
    if a % 2 == 0:
        raise ValueError("only an odd integer is invertible modulo a power of 2")
    y, h = 1, 1
    while h < bits:
        p = min(2 * h, bits)
        e = (((a & ((1 << p) - 1)) * y) >> h) & ((1 << p - h) - 1)
        y -= ((y * e) & ((1 << p - h) - 1)) << h
        h = p
    return y & ((1 << bits) - 1)


def euler_factor(scale: int, sign: int, prec: int) -> QSeries:
    """Expansion of prod_{n>=1} (1 + sign*q^(scale*n)) to the precision,
    one binomial slice-add per factor: O(prec^2/scale).  It stays dense
    as the independent check of the pentagonal `_euler_terms`."""
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if prec < 1:
        raise ValueError("precision must be positive")
    c = [0] * prec
    c[0] = 1
    for m in range(scale, prec, scale):
        c[m:] = [x + sign * y for x, y in zip(c[m:], c)]
    return QSeries(c)


def sc_series(t: int, prec: int) -> QSeries:
    """Generating function for self-conjugate t-core counts, t odd:

        prod_{n>=1} (1 - q^(2tn))^((t-1)/2) (1 + q^(2n-1)) / (1 + q^(t(2n-1)))

    The coefficient of q^n is the number of self-conjugate t-cores of n.

    For odd t = 2s+1 the denominators cancel the numerator's (1 + q^m)
    with m an odd multiple of t.  Jacobi's triple product with q -> q^t,

        sum_x z^x q^(t x^2) = prod_n (1 - q^(2tn)) (1 + z q^(t(2n-1))) (1 + q^(t(2n-1))/z),

    at z = q^(-2j) supplies the (1 + q^m) with odd m = t - 2j or t + 2j
    (mod 2t).  Over j = 1..s these are all odd m not divisible by t, so
    the cancelled product is

        prod_{j=1..s} sum_{x in Z} q^(t x^2 - 2 j x)

    (Garvan-Kim-Stanton, "Cranks and t-cores", 1990).  For t = 1 the
    product is empty and the series is 1.

    Each factor has multiplicity 1 at each of its exponents: t x^2 - 2 j x
    = t y^2 - 2 j y with x != y needs t (x + y) = 2 j, which no integer
    x + y solves as 0 < 2 j < t.  So the first two factors (those present)
    multiply as one dense row that counts the pair sums of their
    exponents below q^prec (`_pair_row`), and the row times the later
    factors F_i is one `_product`: the row packed once, one shifted add
    per term of each F_i, one read-back.

    Its slots hold `_bound`'s max(row) * prod_i len(F_i), each F_i having
    multiplicity 1 at every exponent.  The row is known before it is
    packed, so the bound costs one C-level pass.  At t = 7 it is 2868 at
    prec 10^5 + 1 and 31440 at 3*10^6, so the slots are 2 bytes up to a
    little above 3*10^6.

    Cost: s - 2 factors of about 2 sqrt(prec/t) terms each, one shifted
    add of O(prec) machine words per term, O(sqrt(t) prec^1.5) word
    operations in all, and no Python step per coefficient.  Measured at
    t = 7 in the module docstring.

    This route rests on Jacobi's triple product.  `eta_quotient_series`,
    which it is checked against, rests on Euler's pentagonal theorem and
    on Gauss's identity for psi(q), itself a case of Jacobi's triple
    product, so the two routes share that identity.  The eta and theta
    routes multiply on the same packed kernel, and the theta route builds
    its x-series with the same `_x_terms`, so one kernel fault could move
    all three series routes alike, where their comparisons with each
    other would not see it.  These comparisons still would: in `verify`,
    route-equivalence checks `sc_series` against enumeration
    (`sc_count`), the theorem route and the cor2 route, none of which
    touches the kernel or either identity; in the tests, `sc_series` is
    checked against a binomial-product oracle and against the libmpdec
    Kronecker product it replaced.
    """
    if t < 1 or t % 2 == 0:
        raise ValueError(f"t must be a positive odd integer, got {t}")
    if prec < 1:
        raise ValueError("precision must be positive")
    factors = [_x_terms(t, -2 * j, prec).items() for j in range(1, (t + 1) // 2)]
    return QSeries(_product([(_pair_row(factors[:2], prec), factors[2:])], prec))


@dataclass(frozen=True)
class EtaQuotientSpec:
    """A finite product prod_k eta(scale_k * tau)^(exp_k).

    Each eta factor contributes a global prefactor q^(scale*exp/24); the
    net power must come out a non-negative integer for the product to be
    a plain power series, and construction raises ValueError otherwise
    (a fractional net power is a hard error, not a truncation).  Every
    scale and exponent must be an int; nothing is coerced.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple((s, e) for s, e in self.factors))
        for scale, exponent in self.factors:
            if type(scale) is not int or type(exponent) is not int:
                raise ValueError(f"eta factor needs int scale and exponent, got {(scale, exponent)!r}")
            if scale < 1:
                raise ValueError(f"eta argument scale must be positive, got {scale}")
            if exponent == 0:
                raise ValueError("zero exponents are pointless; drop the factor")
        total = sum(s * e for s, e in self.factors)
        if total % 24 or total < 0:
            g = gcd(total, 24)
            power = total // 24 if g == 24 else f"{total // g}/{24 // g}"
            raise ValueError(
                f"net q-power of the eta quotient is {power}, "
                "need a non-negative integer"
            )

    @property
    def leading_power(self) -> int:
        return sum(s * e for s, e in self.factors) // 24


def eta_quotient_series(spec: EtaQuotientSpec, prec: int) -> QSeries:
    """q-expansion of the eta quotient, including the q^leading_power shift.

    The exponents of each scale are summed first.  Then each
    eta(2s tau)^2 / eta(s tau) is paired into one row of Gauss's
    psi(q^s) = (q^(2s); q^(2s))_inf^2 / (q^s; q^s)_inf, a 0/1 series with
    about sqrt(2N/s) terms below the body length N = prec - shift
    (`_psi_terms`): as many pairs at scale s as the exponent -e_s < 0 and
    half the exponent e_2s > 0 both allow.  Every other factor
    (q^scale; q^scale)_inf is taken in its sparse pentagonal form (about
    2*sqrt(2N/(3*scale)) terms, `_euler_terms`), with constant term 1:
    one unit per unit of a positive exponent goes into the numerator,
    one per unit of a negative exponent into the denominator den.  The
    body is c = num / den in Z[q]/(q^N).  For SC7 that is
    psi(q) (q^7;q^7) (q^14;q^14) (q^28;q^28) / (q^4;q^4).

    The division runs in the denominator's own variable.  Every
    denominator unit is a series in x = q^g, g the gcd of their scales
    (4 for SC7, whose one unit left is (q^4;q^4); 1 when the scales
    share no factor or there is no denominator), so den = D(x), and
    c = num / den splits by exponent mod g: with num_j the coefficients
    num[j::g] as a series in x, c[j::g] = num_j / D in Z[x]/(x^n_j),
    n_j = len(range(j, N, g)) <= n = ceil(N/g).

    num is built once, exact, as `sc_series` builds its product: the two
    longest numerator factors as one counted dense row (`_pair_row`),
    times the other numerator factors in one `_product`.  Each part is
    computed in Z/2^(8k n_j), the image of Z[x]/(x^n_j) under
    x -> 2^(8k) (`_packed_width` proves the map a ring homomorphism),
    starting at the least k that holds every coefficient of num.  D is
    the packed 1 times the denominator units in x over n slots, by one
    shifted add per term (`_packed`); it is 1 mod 2^(8k), so odd, and so
    invertible mod 2^(8kn) (`_inverse_2adic`).  Each part num[j::g] is
    packed at k bytes and multiplied by that inverse once, and its slots
    are read back in its place as c[j::g].  The intermediates need not
    fit in a slot: the arithmetic is exact modulo 2^(8k n_j), and only
    the final coefficients must have |c_e| < 2^(8k-1) to read back.  For
    g = 1 this is the division in q over N slots.

    No cheap tight bound on the c_e is known in advance, so each width
    is checked exactly, by multiplying back: c is accepted when
    `_product` of c and the denominator units in q, at the width its
    `_bound` proves, equals num, compared as exact integers at full
    length.  As den is a unit, c * den = num exactly when c is the
    quotient.  The check uses neither D's packed inverse nor the split,
    so it also catches a fault in those.  If it fails, k doubles.

    The loop stops: p(n) <= 2^n bounds the coefficients of 1/(q;q)_inf,
    so with r denominator units every coefficient of 1/den below q^N is
    at most C(N - 1 + r, r) 2^(N-1), and every |c_e| at most that times
    `_bound` of 1 times all the numerator factors, which also bounds
    every coefficient of num, so the first k is never past it.  The
    width of that bound is the last one tried (k grows as
    min(2k, last)); a failed check there is a fault, raised as
    RuntimeError.  The SC7 quotient passes at k = 2, with one inverse,
    and num is packed once: `_pack` runs at the widths 2 (the row), 2,
    2, 2, 2 (the four parts) and 2 (c for the check) at prec 20003, and
    at 2, 2, 2, 2, 2 and 4 at 40003, where max|c| * len(den) passes
    2^15 (from prec 34743 on).  From 40799 on, `_bound` of the row times
    the later factors passes 2^15 too, and the row is packed at 4 bytes,
    while num itself, and so k, stays at 2.

    Cost: O(N^1.5) word operations for the shifted adds, plus the
    inverse and the g products of 8kn-bit integers (Karatsuba, about
    O(n^1.58) each), with no Python step per coefficient.  For SC7 that
    is a quarter of the length of one division in q.  From about
    N = 10^5 on the shifted adds and the products take about half the
    time each.
    """
    if prec < 1:
        raise ValueError("precision must be positive")
    shift = spec.leading_power
    body = prec - shift
    if body <= 0:
        return QSeries([0] * prec)
    net = Counter()
    for scale, exponent in spec.factors:
        net[scale] += exponent
    num, den = [], []
    for scale in net:
        pairs = min(-net[scale], net[2 * scale] // 2)
        if pairs > 0:
            num.extend(_psi_terms(scale, body) for _ in range(pairs))
            net[scale] += pairs
            net[2 * scale] -= 2 * pairs
    for scale, exponent in net.items():
        if exponent:
            (num if exponent > 0 else den).extend([[(0, 1)] + _euler_terms(scale, body)] * abs(exponent))
    g = gcd(*(scale for scale, exponent in net.items() if exponent < 0)) or 1
    n = -(-body // g)
    den_x = [[(e // g, m) for e, m in terms] for terms in den]
    num.sort(key=len, reverse=True)
    numerator = _product([(_pair_row(num[:2], body), num[2:])], body)
    last = _packed_width((_bound([([1], num)]) * comb(body - 1 + len(den), len(den))) << (body - 1))
    k = _packed_width(_bound([(numerator, [])]))
    c = [0] * body
    while True:
        inverse = _inverse_2adic(_packed(1, den_x, k, n), 8 * k * n)
        for j in range(g):
            part = numerator[j::g]
            c[j::g] = _unpack(_pack(part, k) * inverse, k, len(part))
        if _product([(c, den)], body) == numerator:
            return QSeries([0] * shift + c)
        if k == last:
            raise RuntimeError(f"eta quotient {spec.factors} failed its exact check at the proved width of {k} bytes")
        k = min(2 * k, last)


# eta(2t)^2 eta(14t) eta(7t) eta(28t) / (eta(4t) eta(t)): its expansion is
# sum_n sc7(n) q^(n+2), so the shift of 2 places sc7(n) at exponent n+2.
SC7_ETA_QUOTIENT = EtaQuotientSpec(((2, 2), (14, 1), (7, 1), (28, 1), (4, -1), (1, -1)))
