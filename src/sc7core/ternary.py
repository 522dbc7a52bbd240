"""Ternary quadratic forms and their theta series by lattice enumeration.

Q = a x^2 + b y^2 + c z^2 + d yz + e xz + f xy has integer coefficients,
and its lattice box comes from two discriminants, in integers only.  With
(y, z) fixed, Q = a x^2 + B x + C with B = e z + f y and
C = b y^2 + c z^2 + d yz, and

    4a Q  = (2a x + B)^2 + P,   P = A y^2 + E yz + F z^2,
    4A P  = (2A y + E z)^2 + G z^2,

with A = 4ab - f^2, E = 4ad - 2ef, F = 4ac - e^2 and G = 4AF - E^2.  Q is
positive definite exactly when a, A and G are all positive, and then
Q <= m gives G z^2 + (2A y + E z)^2 <= 16aAm: one isqrt bounds |z|, one
more per z bounds y (`TernaryQF._box`).  For the first decomposition form
this is the familiar |z| <= sqrt(4m/7).

Neither kernel loops over x, and both walk the (y, z) box in lines:

- `rep_count(Q, m)` solves a x^2 + B x + (C - m) = 0 for integer x on
  half the box (Q(-v) = Q(v)), testing the discriminants of each line
  of fixed z for squares in one C-level pass: O(m) C-level steps, and
  Python steps only per line and per square, O(sqrt(m)) of each.
- `theta_coeffs(Q, N)` walks the (y, z) box in lines of fixed z and
  fixed y mod h, along which the residue r of B mod 2a is fixed and the
  lowest value of Q over x is a quadratic in y.  Each line is one
  C-level `itertools.accumulate`, O(sqrt(N)) Python steps for the O(N)
  points of the box.  Then it multiplies each residue row by the
  sparse series sum_x q^(a x^2 + r x), all rows in one
  `qseries._product`: O(sqrt(N/a)) C-level shifted adds per row.

Both replace a sweep over every lattice point of the box, O(N^1.5)
steps.  On one core of a 2-vCPU VM (Python 3.11.7, best of 15 runs,
which drift between runs), the three decomposition forms cost about
0.001-0.002 s for `theta_coeffs` at N = 4000, 0.003-0.005 s at
N = 10000 and 0.09-0.15 s at N = 10^5, where the shifted adds lead,
and together 0.001 s for `rep_count` at m = 1500, 0.010-0.011 s at
m = 20003 and 0.05 s at m = 100003.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, chain, compress, repeat
from math import gcd, isqrt, lcm
from operator import add, eq, mod, mul

from .arith import InexactCount
from .qseries import QSeries, _product, _x_terms


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

    def _completed_square(self) -> tuple[int, int, int]:
        """(A, E, F) = (4ab - f^2, 4ad - 2ef, 4ac - e^2), the coefficients of
        P = A y^2 + E yz + F z^2 in the module docstring."""
        a, b, c, d, e, f = self.a, self.b, self.c, self.d, self.e, self.f
        return 4 * a * b - f * f, 4 * a * d - 2 * e * f, 4 * a * c - e * e

    def _box(self, m: int):
        """The (y, z) at which Q(x, y, z) <= m for some real x, as
        (zmax, y_range): |z| <= zmax, and ylo <= y <= yhi for
        (ylo, yhi) = y_range(z), empty (0, -1) past zmax.  The bounds are
        derived in the module docstring.  Raises ValueError unless Q is
        positive definite."""
        A, E, F = self._completed_square()
        G = 4 * A * F - E * E
        if self.a <= 0 or A <= 0 or G <= 0:
            raise ValueError(f"{self} is not positive definite")
        budget = 16 * self.a * A * m

        def y_range(z: int) -> tuple[int, int]:
            rem = budget - G * z * z
            if rem < 0:
                return 0, -1
            s = isqrt(rem)  # |2A y + E z| <= s
            return -((s + E * z) // (2 * A)), (s - E * z) // (2 * A)

        return isqrt(budget // G), y_range


def rep_count(Q: TernaryQF, m: int) -> int:
    """Number of integer triples with Q(x,y,z) = m.

    At each (y, z), a x^2 + B x + (C - m) = 0 has integer roots exactly
    when disc = B^2 - 4a(C - m) = 4am - P(y, z) (P as in the module
    docstring) is a square s^2 and 2a divides -B +- s; there is no x loop.

    Only half the lattice is walked.  Q(-v) = Q(v), and the box of
    Q._box(m) is centrally symmetric: for |z| <= zmax, y_range(-z) is
    (-yhi, -ylo) with (ylo, yhi) = y_range(z), since rem and s depend on
    z^2 alone, so yhi(-z) = (s + E z) // 2A = -ylo(z) and
    ylo(-z) = -((s - E z) // 2A) = -yhi(z); past zmax both are empty.
    So each solution with z >= 1, or with z = 0 and y >= 1, stands for
    two, and one with y = z = 0 for itself.

    At fixed z, disc is a quadratic in y with second difference -2A, so a
    line is one C-level `accumulate` of its discs, and C-level maps of
    `isqrt`, `mul` and `eq` with one `compress` hand Python only the y
    whose disc is a perfect square: O(m) C-level steps, and Python steps
    per line and per square, O(sqrt(m)) of each.

    The box bounds are verified on every call rather than trusted (also
    under python -O): the lines are scanned one layer beyond the box, at
    ylo - 1 and yhi + 1 for z >= 1, at yhi + 1 for z = 0, and over the
    whole row y_range(zmax + 1) widened by one at z = zmax + 1, and a
    root there raises RuntimeError.  With the symmetry that covers the
    layer beyond every edge.  Its discs are negative unless the box is
    wrong, and a negative disc is no square.
    """
    if m < 0:
        raise ValueError(f"need a non-negative target, got {m}")
    zmax, y_range = Q._box(m)
    a, e, f = Q.a, Q.e, Q.f
    A, E, F = Q._completed_square()
    am4 = 4 * a * m

    def line(z: int, y0: int, y1: int, ylo: int, yhi: int) -> int:
        """Solutions at z with y0 <= y <= y1, counted twice (once at
        y = z = 0); RuntimeError for one outside ylo <= y <= yhi."""
        step = -E * z - A * (2 * y0 + 1)  # disc(y0 + 1) - disc(y0)
        disc = list(accumulate(range(step, step - 2 * A * (y1 - y0), -2 * A),
                               initial=am4 - (A * y0 + E * z) * y0 - F * z * z))
        s = list(map(isqrt, map(abs, disc)))
        count = 0
        for y in compress(range(y0, y1 + 1), map(eq, map(mul, s, s), disc)):
            B, r = e * z + f * y, s[y - y0]
            for top in {-B - r, -B + r}:  # one root when s = 0
                if top % (2 * a) == 0:
                    if not ylo <= y <= yhi:
                        raise RuntimeError(f"box bound violated at {(top // (2 * a), y, z)} for {Q} = {m}")
                    count += 1 if y == z == 0 else 2
        return count

    count = 0
    if zmax >= 0:
        _, yhi = y_range(0)
        count = line(0, 0, yhi + 1, 0, yhi)
    for z in range(1, zmax + 1):
        ylo, yhi = y_range(z)
        count += line(z, ylo - 1, yhi + 1, ylo, yhi)
    ylo, yhi = y_range(zmax + 1)
    return count + line(zmax + 1, ylo - 1, yhi + 1, 1, 0)


def theta_coeffs(Q: TernaryQF, prec: int) -> QSeries:
    """Theta series of Q: coefficient of q^m counts Q(x,y,z) = m, m < prec.

    With (y, z) fixed, Q = a x^2 + B x + C.  Writing B = 2a k + r with
    -a < r <= a and x = x' - k gives Q = a x'^2 + r x' + C', where
    a x'^2 + r x' >= 0 and C' = C - a k^2 - r k.  Every point of the
    (y, z) box with C' < N = prec adds one to a dense row P_r at exponent
    C'; then Theta_Q = sum_r T_r P_r with T_r = sum_x' q^(a x'^2 + r x'),
    which has O(sqrt(N/a)) terms.

    The box is walked in lines: z fixed and y = y0 + h t, with
    h = 2a / gcd(f, 2a), the least step that moves B = e z + f y by a
    multiple 2a kappa of 2a (kappa = f h / 2a).  Along a line r is fixed,
    k = k0 + kappa t, and C' is a quadratic in t with leading coefficient
    alpha = b h^2 - a kappa^2 = A h^2 / 4a > 0 (A as in the module
    docstring), so its differences step by 2 alpha.  Each line is one
    `accumulate` over a `range`, and one `Counter` per r counts all its
    lines; the box has O(sqrt(N)) lines of O(sqrt(N)) points, and no
    Python step runs per point.  The sum over r is one
    `qseries._product`: each row packed once, one shifted add per term
    of T_r, one read-back, in slots sized by `qseries._bound`, so no
    Python step runs per coefficient either.  At most 2a residues r
    occur; the three decomposition forms need one, one and two rows.
    """
    if prec < 1:
        raise ValueError("precision must be positive")
    zmax, y_range = Q._box(prec - 1)
    a, b, c, d, e, f = Q.a, Q.b, Q.c, Q.d, Q.e, Q.f
    h = 2 * a // gcd(f, 2 * a)  # y -> y + h moves B by 2a * kappa
    kappa = f * h // (2 * a)
    alpha = b * h * h - a * kappa * kappa  # = A h^2 / 4a > 0
    lines = defaultdict(list)  # r -> the lines of C' values with residue r
    for z in range(-zmax, zmax + 1):
        ylo, yhi = y_range(z)
        for y in range(ylo, min(ylo + h, yhi + 1)):
            B = e * z + f * y
            k, r = divmod(B, 2 * a)
            if r > a:
                k, r = k + 1, r - 2 * a
            low = b * y * y + c * z * z + d * y * z - a * k * k - r * k
            step = h * (2 * b * y + d * z) - kappa * B + alpha  # C'(y + h) - C'(y)
            last = step + 2 * alpha * ((yhi - y) // h)  # one past the last step
            lines[r].append(accumulate(range(step, last, 2 * alpha), initial=low))
    pairs = []
    for r, rs in lines.items():
        cnt = Counter(chain.from_iterable(rs))
        pairs.append((list(map(cnt.get, range(prec), repeat(0))), [_x_terms(a, r, prec).items()]))
    return QSeries(_product(pairs, prec))


# The three forms whose theta series decompose the shifted sc7 generating
# function: sum_n sc7(n) q^(n+2) = (1/14) Theta_1 - (1/7) Theta_2
# + (1/14) Theta_3.
DECOMPOSITION_FORMS = (
    TernaryQF(1, 1, 2, -1, 0, 0),
    TernaryQF(1, 4, 8, -4, 0, 0),
    TernaryQF(2, 2, 3, 2, 2, 2),
)
DECOMPOSITION_WEIGHTS = (Fraction(1, 14), Fraction(-1, 7), Fraction(1, 14))


def sc7_from_rep_columns(columns) -> list:
    """sc7 at each index of three equal-length columns of representation
    numbers, R1, R2 and R3 of the decomposition forms at the same n + 2:
    the weighted sum R1/14 - R2/7 + R3/14 at every index.

    The sums are taken in integers over the common denominator of the
    weights, which are read at each call, by C-level maps over whole
    columns (a column of scale 1 is added as it is, with no multiply
    pass), and checked over whole columns too; only a failed check scans
    index by index.  Raises ValueError unless there is one column per
    weight and all columns have the same length, and InexactCount at the
    first index where a sum is not a non-negative integer, so a failure
    of the decomposition can never pass as a count.
    """
    weights = DECOMPOSITION_WEIGHTS
    if len(columns) != len(weights) or len({len(column) for column in columns}) != 1:
        raise ValueError(f"need {len(weights)} columns of equal length, "
                         f"got lengths {[len(column) for column in columns]}")
    den = lcm(*(w.denominator for w in weights))
    scales = [w.numerator * (den // w.denominator) for w in weights]
    terms = [column if k == 1 else map(mul, repeat(k), column) for k, column in zip(scales, columns)]
    totals = list(reduce(partial(map, add), terms))
    if any(map(mod, totals, repeat(den))) or min(totals, default=0) < 0:
        for i, total in enumerate(totals):
            if total % den or total < 0:
                raise InexactCount(f"theta combination gives {Fraction(total, den)} "
                                   f"for representation numbers {tuple(c[i] for c in columns)}")
    return [total // den for total in totals]


def sc7_from_thetas(n: int) -> int:
    """Self-conjugate 7-core count via representation numbers at n + 2:
    `sc7_from_rep_columns` at one index, with its checks."""
    if n < 0:
        raise ValueError(f"need a non-negative n, got {n}")
    return sc7_from_rep_columns([[rep_count(Q, n + 2)] for Q in DECOMPOSITION_FORMS])[0]
