"""Ternary quadratic forms and their theta series by lattice enumeration.

The box bounds come from completing squares exactly.  Writing the Gram
matrix G of Q (half-integral off-diagonal) as L^T diag(d1,d2,d3) L with L
unit upper triangular gives

    Q(x,y,z) = d1 (x + l12 y + l13 z)^2 + d2 (y + l23 z)^2 + d3 z^2,

all di > 0 exactly when Q is positive definite.  Bounding each square by
the remaining budget yields exact per-variable intervals, e.g.
|z| <= sqrt(m/d3); for the first decomposition form this is the familiar
x^2 + (y - z/2)^2 + (7/4) z^2, so |z| <= sqrt(4m/7).  All interval
endpoints are computed in integer arithmetic (isqrt on scaled numerators),
never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .qseries import QSeries


@dataclass(frozen=True)
class TernaryQF:
    """a x^2 + b y^2 + c z^2 + d yz + e xz + f xy, integer coefficients."""

    a: int
    b: int
    c: int
    d: int
    e: int
    f: int

    def __call__(self, x: int, y: int, z: int) -> int:
        return (self.a * x * x + self.b * y * y + self.c * z * z
                + self.d * y * z + self.e * x * z + self.f * x * y)

    def _ldl(self):
        """Exact LDL data (d1, d2, d3, l12, l13, l23) of the Gram matrix."""
        g11, g22, g33 = Fraction(self.a), Fraction(self.b), Fraction(self.c)
        g12, g13, g23 = Fraction(self.f, 2), Fraction(self.e, 2), Fraction(self.d, 2)
        d1 = g11
        if d1 <= 0:
            raise ValueError(f"{self} is not positive definite")
        l12 = g12 / d1
        l13 = g13 / d1
        d2 = g22 - d1 * l12 * l12
        if d2 <= 0:
            raise ValueError(f"{self} is not positive definite")
        l23 = (g23 - d1 * l12 * l13) / d2
        d3 = g33 - d1 * l13 * l13 - d2 * l23 * l23
        if d3 <= 0:
            raise ValueError(f"{self} is not positive definite")
        return d1, d2, d3, l12, l13, l23

    def is_positive_definite(self) -> bool:
        try:
            self._ldl()
        except ValueError:
            return False
        return True


def _interval(center: Fraction, dcoef: Fraction, rem: Fraction) -> tuple[int, int]:
    # integer v with dcoef*(v + center)^2 <= rem; empty interval if rem < 0.
    # (vB + A)^2 <= rem/dcoef * B^2 with center = A/B reduces to an isqrt.
    if rem < 0:
        return 0, -1
    bound = rem / dcoef
    A, B = center.numerator, center.denominator
    s = isqrt(bound.numerator * B * B // bound.denominator)
    return -((s + A) // B), (s - A) // B


def rep_count(Q: TernaryQF, m: int) -> int:
    """Number of integer triples with Q(x,y,z) = m, by exhaustive search.

    Scans one layer beyond every interval and raises RuntimeError if a
    solution lands there, so the completed-squares bounds are verified on
    every call rather than trusted (also under python -O).
    """
    if m < 0:
        raise ValueError(f"need a non-negative target, got {m}")
    d1, d2, d3, l12, l13, l23 = Q._ldl()
    budget = Fraction(m)
    zlo, zhi = _interval(Fraction(0), d3, budget)
    count = 0
    for z in range(zlo - 1, zhi + 2):
        rem2 = budget - d3 * z * z
        ylo, yhi = _interval(l23 * z, d2, rem2)
        for y in range(ylo - 1, yhi + 2):
            rem1 = rem2 - d2 * (y + l23 * z) ** 2
            xlo, xhi = _interval(l12 * y + l13 * z, d1, rem1)
            for x in range(xlo - 1, xhi + 2):
                if Q(x, y, z) == m:
                    if not (zlo <= z <= zhi and ylo <= y <= yhi and xlo <= x <= xhi):
                        raise RuntimeError(f"box bound violated at {(x, y, z)} for {Q} = {m}")
                    count += 1
    return count


def theta_coeffs(Q: TernaryQF, prec: int) -> QSeries:
    """Theta series of Q: coefficient of q^m counts Q(x,y,z) = m, m < prec.

    One sweep over the box Q < prec, not per-m searches.
    """
    if prec < 1:
        raise ValueError("precision must be positive")
    d1, d2, d3, l12, l13, l23 = Q._ldl()
    cap = Fraction(prec - 1)
    counts = [0] * prec
    a, b, c, d, e, f = Q.a, Q.b, Q.c, Q.d, Q.e, Q.f
    zlo, zhi = _interval(Fraction(0), d3, cap)
    for z in range(zlo, zhi + 1):
        rem2 = cap - d3 * z * z
        ylo, yhi = _interval(l23 * z, d2, rem2)
        for y in range(ylo, yhi + 1):
            rem1 = rem2 - d2 * (y + l23 * z) ** 2
            xlo, xhi = _interval(l12 * y + l13 * z, d1, rem1)
            # inner loop in pure integers: Q = a x^2 + B1 x + C0
            B1 = e * z + f * y
            C0 = b * y * y + c * z * z + d * y * z
            for x in range(xlo, xhi + 1):
                counts[a * x * x + B1 * x + C0] += 1
    return QSeries(counts)


# The three forms whose theta series decompose the shifted sc7 generating
# function: sum_n sc7(n) q^(n+2) = (1/14) Theta_1 - (1/7) Theta_2
# + (1/14) Theta_3.
DECOMPOSITION_FORMS = (
    TernaryQF(1, 1, 2, -1, 0, 0),
    TernaryQF(1, 4, 8, -4, 0, 0),
    TernaryQF(2, 2, 3, 2, 2, 2),
)
DECOMPOSITION_WEIGHTS = (Fraction(1, 14), Fraction(-1, 7), Fraction(1, 14))


def sc7_from_thetas(n: int) -> Fraction:
    """Self-conjugate 7-core count via representation numbers at n + 2.

    Returns the rational combination as-is; callers assert integrality,
    so any failure of the decomposition would surface as a non-integer
    rather than a silent rounding.
    """
    if n < 0:
        raise ValueError(f"need a non-negative n, got {n}")
    return sum(
        (w * rep_count(Q, n + 2) for Q, w in zip(DECOMPOSITION_FORMS, DECOMPOSITION_WEIGHTS)),
        Fraction(0),
    )
