"""Run every route on the same stretch of n and watch them agree.

The routes are the entries of the CLI's route registry, `cli.ROUTES`.
Just as `sc7core table` does, each route with a table (enum, qseries,
eta, theta) builds its count column once and is read straight from it,
and the class-number routes (theorem, cor2) answer each n through
`record_for`.  The agreement checks run under `python -O` too.

Usage: python3 demos/five_routes.py
"""

import sys

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
columns = {name: route.table(LIMIT) for name, route in ROUTES.items() if route.table}
by_cell = [name for name in ROUTES if name not in columns]

print(f"{'n':>3}" + "".join(f" {name:>8}" for name in ROUTES))
rows = []
for n in range(LIMIT + 1):
    row = {name: column[n] for name, column in columns.items()}
    for name in by_cell:
        try:
            row[name] = record_for(n, name).value
        except HypothesisViolation:
            pass
    if len(set(row.values())) != 1:
        sys.exit(f"routes disagree at n = {n}: {row}")
    rows.append(row)
    print(f"{n:>3}" + "".join(f" {row.get(name, '-'):>8}" for name in ROUTES))

# Two patterns worth noticing in the table above:
#   * every n = 7 mod 8 row is zero (7, 15, 23, 31, 39);
#   * the class-number columns have gaps at n = 5 mod 7 (5, 19, 33)
#     where no class-number expression exists, yet the other four routes
#     still produce the count.
zeros = [n for n in range(7, LIMIT + 1, 8)]
if any(rows[n]["qseries"] for n in zeros):
    sys.exit(f"a count at n = 7 mod 8 is not zero: {[rows[n] for n in zeros]}")
print(f"\nvanishing at n = 7 mod 8: {zeros} all zero")
