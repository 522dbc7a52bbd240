"""Run every route on the same stretch of n and watch them agree.

Usage: python3 demos/five_routes.py
"""

from sc7core import (
    SC7_ETA_QUOTIENT,
    HypothesisViolation,
    eta_quotient_series,
    sc7_from_class_number,
    sc7_from_thetas,
    sc_count,
    sc_series,
)

LIMIT = 40

# Route 1: count the partitions directly.  Self-conjugate partitions are
# encoded by their distinct odd diagonal hooks, so this never touches a
# partition that isn't self-conjugate.
by_enum = [sc_count(n, 7) for n in range(LIMIT + 1)]

# Route 2: coefficients of the product generating function.
qs = sc_series(7, LIMIT + 1)

# Route 3: the eta quotient carries the same counts two slots up,
# at q^(n+2).
eta = eta_quotient_series(SC7_ETA_QUOTIENT, LIMIT + 3)

# Route 4: weighted lattice-point counts of three ternary forms,
# also read off at n+2.  The weights are fractions; sc7_from_thetas
# checks that the total is a non-negative integer and returns an int.
by_theta = [sc7_from_thetas(n) for n in range(LIMIT + 1)]

print(f"{'n':>3} {'enum':>5} {'qseries':>8} {'eta':>5} {'theta':>6} {'closed':>7}")
for n in range(LIMIT + 1):
    # Route 5 only speaks about odd n outside 5 mod 7; everywhere else
    # it raises HypothesisViolation rather than guessing.
    try:
        closed = str(sc7_from_class_number(n))
    except HypothesisViolation:
        closed = "-"
    row = (by_enum[n], qs[n], eta[n + 2], by_theta[n])
    assert len(set(row)) == 1, (n, row)
    print(f"{n:>3} {row[0]:>5} {row[1]:>8} {row[2]:>5} {row[3]:>6} {closed:>7}")

# Two patterns worth noticing in the table above:
#   * every n = 7 mod 8 row is zero (7, 15, 23, 31, 39);
#   * the closed column has gaps at n = 5 mod 7 (5, 19, 33) where no
#     class-number expression exists, yet the other four routes still
#     produce the count.
zeros = [n for n in range(7, LIMIT + 1, 8)]
assert all(qs[n] == 0 for n in zeros)
print(f"\nvanishing at n = 7 mod 8: {zeros} all zero")
