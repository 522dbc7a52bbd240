"""Truncated formal power series with exact coefficients.

A QSeries knows its coefficients for exponents 0..precision-1; exponents
at or beyond the precision are unknown, never implicitly zero.
Coefficients are exact integers, stored as given.

The two series builders here never leave the integers:

- `sc_series` multiplies (t-1)/2 theta series sum_x q^(t x^2 - 2 j x)
  (Jacobi's triple product) by Kronecker substitution: each factor is
  written as one decimal integer with a fixed number of digits per
  coefficient, the integers are multiplied exactly by the C `decimal`
  module (libmpdec, a number-theoretic transform for large operands),
  and the coefficients are read back from the digits.  The slot width
  is proved wide enough in its docstring.  Cost: about O(N log N) for
  fixed t, plus O(N) Python steps to write and read the digits.
- `eta_quotient_series` works in a dense integer list and expands each
  eta factor by Euler's pentagonal number theorem, which leaves about
  2*sqrt(2N/(3s)) terms below N for scale s; multiplying or dividing by
  such a sparse series, one list slice-add (or one recurrence step) per
  term, costs O(N^1.5).  It stays the independent check of `sc_series`.

On one core of a 2-vCPU VM (Python 3.11.7, libmpdec 2.5.1, best of 5
runs, 2 at 10^6), `sc_series(7, N)` takes 0.011 s at N = 10^4, 0.046 s
at 3*10^4, 0.17 s at 10^5 and 0.67 s at 3*10^5: a fitted exponent of
1.2 (3.0 s at 10^6).  One slice-add per term took 0.048, 0.27 and 1.6 s
at the first three sizes.  The SC7 eta quotient costs about 0.08 s at
4000, 0.3 s at 10000 and 1.7 s at 30000.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from math import isqrt


def format_coefficient(v) -> str:
    """Exact serialization: integers bare, rationals as "p/q"."""
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    return str(v)


class QSeries:
    """Power series truncated at a fixed precision, exact arithmetic."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        c = tuple(coeffs)
        if not c:
            raise ValueError("a QSeries needs at least the constant term")
        self._coeffs = c

    @property
    def precision(self) -> int:
        return len(self._coeffs)

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

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self) -> str:
        head = ", ".join(format_coefficient(v) for v in self._coeffs[:8])
        tail = ", ..." if len(self._coeffs) > 8 else ""
        return f"QSeries([{head}{tail}], precision={len(self._coeffs)})"


# Exact integer products of any size: no rounding, no exponent limit.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


# Sparse series and in-place kernels on dense coefficient lists.

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


def _mul_sparse(c: list, terms: list) -> None:
    """c <- c * (1 + sum sign*q^e), one slice-add per term."""
    src = c[:]
    for e, sign in terms:
        if sign == 1:
            c[e:] = [x + y for x, y in zip(c[e:], src)]
        else:
            c[e:] = [x - y for x, y in zip(c[e:], src)]


def _div_sparse(c: list, terms: list) -> None:
    """c <- c / (1 + sum sign*q^e) by the recurrence
    b[i] = c[i] - sum sign*b[i-e]; the divisor has constant term 1, so
    the quotient stays integral."""
    for i in range(1, len(c)):
        acc = c[i]
        for e, sign in terms:
            if e > i:
                break
            acc -= sign * c[i - e]
        c[i] = acc


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

    The product is taken by Kronecker substitution.  Each factor, cut
    below q^prec, is written as one decimal integer with w digits per
    coefficient slot (coefficient of q^e in the digits w*e .. w*e+w-1
    from the right); the factors are multiplied exactly by libmpdec,
    which uses a number-theoretic transform for large operands; the low
    prec*w digits are kept after each product; and the slots are read
    back once at the end.

    The slot width w is the digit count of (2M + 3)^s plus 1, with
    M = isqrt(prec // t) = floor(sqrt(prec/t)).  Proof that no slot
    overflows: a coefficient below q^prec of a product of k <= s factors
    counts the x in Z^k with sum_i (t x_i^2 - 2 j_i x_i) = n < prec.  As
    1 <= j_i <= s < t/2, each term is at least |x_i|(t|x_i| - t + 1) >= 0,
    and the terms sum to n, so each is below prec; but |x_i| >= M + 2
    would make its term exceed t (|x_i| - 1)^2 >= t (M + 1)^2 > prec.
    So every |x_i| <= M + 1, and the coefficient is at most
    (2M + 3)^k <= (2M + 3)^s < 10^(w-1).  No coefficient is negative, so
    no slot borrows from the next, and the low slots of each product are
    exactly its coefficients below q^prec.

    Each of the s - 1 products multiplies two integers of prec*w digits,
    about O(prec log prec) for fixed t, where one slice-add per term
    costs O(sqrt(t) prec^1.5).  Measured at t = 7 (module docstring):
    0.011 s at prec = 10^4, 0.046 s at 3*10^4, 0.17 s at 10^5 and 0.67 s
    at 3*10^5, a fitted exponent of 1.2.  The C module `_decimal` is
    needed: the pure-Python `_pydecimal` multiplies in quadratic time.

    This route rests on Jacobi's triple product; `eta_quotient_series`,
    which it is checked against, rests on Euler's pentagonal theorem.
    The theta route builds its x-series with the same `_x_terms`, but a
    fault there cannot hide: route-equivalence compares both routes with
    eta and with enumeration.
    """
    if t < 1 or t % 2 == 0:
        raise ValueError(f"t must be a positive odd integer, got {t}")
    if prec < 1:
        raise ValueError("precision must be positive")
    s = (t - 1) // 2
    w = len(str((2 * isqrt(prec // t) + 3) ** s)) + 1
    size = prec * w
    product = Decimal(1)
    for j in range(1, s + 1):
        digits = bytearray(b"0") * size
        for e, mult in _x_terms(t, -2 * j, prec).items():
            slot = str(mult).encode()
            digits[size - e * w - len(slot):size - e * w] = slot
        product = _EXACT.multiply(product, Decimal(digits.decode()))
        if product.adjusted() >= size:  # keep the low size digits
            product = Decimal(str(product)[-size:])
    text = str(product).rjust(size, "0")
    return QSeries([int(text[i - w:i]) for i in range(size, 0, -w)])


@dataclass(frozen=True)
class EtaQuotientSpec:
    """A finite product prod_k eta(scale_k * tau)^(exp_k).

    Each eta factor contributes a global prefactor q^(scale*exp/24); the
    net power must come out a non-negative integer for the product to be
    a plain power series, and that is asserted at construction (a
    fractional net power is a hard error, not a truncation).  Every scale
    and exponent must be an int; nothing is coerced.
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
        lead = self.leading_power
        if lead.denominator != 1 or lead < 0:
            raise ValueError(
                f"net q-power of the eta quotient is {lead}, "
                "need a non-negative integer"
            )

    @property
    def leading_power(self) -> Fraction:
        return sum((Fraction(s * e, 24) for s, e in self.factors), Fraction(0))


def eta_quotient_series(spec: EtaQuotientSpec, prec: int) -> QSeries:
    """q-expansion of the eta quotient, including the q^leading_power shift.

    Each factor (q^scale; q^scale)_inf is taken in its sparse pentagonal
    form (about 2*sqrt(2N/(3*scale)) terms below the body length N =
    prec - shift).  A positive exponent multiplies by it once per unit,
    one slice-add per term; a negative exponent divides by it once per
    unit with the recurrence b[i] = c[i] - sum_e P_e b[i-e].  Both cost
    O(N^1.5).  Every divisor has constant term 1, so coefficients stay
    integers.
    """
    if prec < 1:
        raise ValueError("precision must be positive")
    shift = int(spec.leading_power)
    body = prec - shift
    if body <= 0:
        return QSeries([0] * prec)
    c = [0] * body
    c[0] = 1
    for scale, exponent in spec.factors:
        terms = _euler_terms(scale, body)
        kernel = _mul_sparse if exponent > 0 else _div_sparse
        for _ in range(abs(exponent)):
            kernel(c, terms)
    return QSeries([0] * shift + c)


# eta(2t)^2 eta(14t) eta(7t) eta(28t) / (eta(4t) eta(t)): its expansion is
# sum_n sc7(n) q^(n+2), so the shift of 2 places sc7(n) at exponent n+2.
SC7_ETA_QUOTIENT = EtaQuotientSpec(((2, 2), (14, 1), (7, 1), (28, 1), (4, -1), (1, -1)))
