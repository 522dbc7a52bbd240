"""Unpack the closed formula at a few small n, one ingredient at a time.

Each claim is checked as it is made, under `python -O` too: a claim
that fails ends the walkthrough with a non-zero exit code.

Usage: python3 demos/class_number_walkthrough.py
"""

import sys
from fractions import Fraction

from sc7core import (
    discriminant_of,
    dirichlet_hurwitz,
    hurwitz,
    reduced_forms,
    sc7_from_character_sum,
    sc7_from_class_number,
    sc7_scaled,
    sc_count,
    sc_series,
)


def check(claim: bool, what: str) -> None:
    if not claim:
        sys.exit(f"claim failed: {what}")


# --- n = 9: the quarter branch -------------------------------------------
# For odd n = 1 mod 4 the relevant discriminant is -28(n+2).
d = discriminant_of(9)
print(f"n = 9: discriminant -{d.D}")

# H(-308) counts classes of positive definite forms ax^2 + bxy + cy^2
# with b^2 - 4ac = -308, weighting the two special shapes 1/2 and 1/3.
forms = reduced_forms(d.D)
for f in forms:
    print(f"  ({f.a:>2}, {f.b:>2}, {f.c:>2})")
print(f"  {len(forms)} reduced forms, H(-{d.D}) = {hurwitz(d.D)}")

# Here every class has weight 1, so H is just the count, and the count
# of self-conjugate 7-cores of 9 is a quarter of it.
check(hurwitz(d.D) == 8, "H(-308) = 8")
check(sc7_from_class_number(9) == Fraction(8, 4) == sc_count(9, 7) == 2, "sc7(9) = H/4 = 2")
print(f"  sc7(9) = H/4 = {sc7_from_class_number(9)}")

# --- n = 11: the half branch ---------------------------------------------
# For odd n = 3 mod 4 the discriminant shrinks to -7(n+2) and the
# denominator drops to 2.
d = discriminant_of(11)
print(f"\nn = 11: discriminant -{d.D}, H = {hurwitz(d.D)}")
check(sc7_from_class_number(11) == Fraction(hurwitz(d.D), 2) == 1, "sc7(11) = H/2 = 1")
print(f"  sc7(11) = H/2 = {sc7_from_class_number(11)}")

# The same number can be had without ever listing forms: the finite
# character sum -1/(2*91) * sum of kronecker(-91, m) * m over m < 91,
# the 2 being the same branch denominator as above.  It is evaluated
# over half the period: H(-91) = S / (2 - kronecker(-91, 2)) = S / 3,
# with S the sum of kronecker(-91, m) over m < 91/2.
check(dirichlet_hurwitz(91) == hurwitz(91), "the character sum gives H(-91)")
check(sc7_from_character_sum(11) == 1, "the character sum route gives sc7(11) = 1")
print(f"  character sum route: {sc7_from_character_sum(11)}")

# --- n = 7: nothing to compute -------------------------------------------
# At n = 7 mod 8 the count is zero outright; no class number is needed.
check(sc7_from_class_number(7) == 0 == sc_count(7, 7), "sc7(7) = 0")
print("\nn = 7: 7 mod 8, so sc7(7) = 0 with no further work")

# --- scaling up by a square ----------------------------------------------
# From sc7(11) = 1 one multiplier reaches n = (11+2)*15^2 - 2 = 2923:
# a divisor sum over f = 15 with Moebius and Kronecker weights.
value = sc7_scaled(11, 15)
print(f"\nsc7(2923) from sc7(11): {value}")
check(value == sc_series(7, 2924)[2923] == 25, "sc7(2923) = 25 by scaling and by the q-series")
print("matches the q-series coefficient, 25")
