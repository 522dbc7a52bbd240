"""Run every route on the same stretch of n and watch them agree.

The routes are the entries of the CLI's route registry, `cli.ROUTES`;
each table is built once and every cell is read through `record_for`,
just as `sc7core table` does.

Usage: python3 demos/five_routes.py
"""

from sc7core.arith import HypothesisViolation
from sc7core.cli import ROUTES, record_for

LIMIT = 40

# What each route does:
#   enum     counts the partitions directly.  Self-conjugate partitions
#            are encoded by their distinct odd diagonal hooks, so this
#            never touches a partition that isn't self-conjugate.
#   qseries  reads the coefficients of the product generating function.
#   eta      reads the eta quotient, which carries the same counts two
#            slots up, at q^(n+2).
#   theta    weights lattice-point counts of three ternary forms, also
#            read off at n+2.  The weights are fractions; the route
#            checks that the total is a non-negative integer.
#   theorem  the class-number formula, with H counted by reduced forms.
#   cor2     the same formula, with H from a Kronecker-character sum.
# The last two only speak about odd n outside 5 mod 7 (cor2 also needs
# a fundamental discriminant); everywhere else they raise
# HypothesisViolation rather than guess, and the table shows "-".
caches = {name: route.table(LIMIT) for name, route in ROUTES.items() if route.table}

print(f"{'n':>3}" + "".join(f" {name:>8}" for name in ROUTES))
rows = []
for n in range(LIMIT + 1):
    row = {}
    for name in ROUTES:
        try:
            row[name] = record_for(n, name, caches).value
        except HypothesisViolation:
            pass
    assert len(set(row.values())) == 1, (n, row)
    rows.append(row)
    print(f"{n:>3}" + "".join(f" {row.get(name, '-'):>8}" for name in ROUTES))

# Two patterns worth noticing in the table above:
#   * every n = 7 mod 8 row is zero (7, 15, 23, 31, 39);
#   * the class-number columns have gaps at n = 5 mod 7 (5, 19, 33)
#     where no class-number expression exists, yet the other four routes
#     still produce the count.
zeros = [n for n in range(7, LIMIT + 1, 8)]
assert all(rows[n]["qseries"] == 0 for n in zeros)
print(f"\nvanishing at n = 7 mod 8: {zeros} all zero")
