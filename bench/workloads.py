"""The benchmark's workloads: the CLI calls each one makes, built from a
seed, and the check that each call's output is correct.

Every workload is one pass of CLI calls (operations), run in a closed
loop with one client.  References for the checks are computed here,
outside the timed region, by a different route from the one timed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional


@dataclass
class Workload:
    name: str
    ops: list  # argv of each CLI call in one pass
    check: Callable[[int, str], Optional[str]]  # (op index, stdout) -> failure or None
    sizes: dict  # input sizes, for the comparable record


# ---------------------------------------------------------------------------
# series-table: the batch path, where the O(N^2) series kernels dominate.

TABLE_ROUTES = ("qseries", "eta", "theta")
# Four small tables and one large one per pass: the large call dominates
# the pass time and sets p90, and the small calls give p50 enough
# samples to be steady.
TABLE_SIZES = (1000, 1000, 1000, 1000, 4000)


def series_table(seed: int, sizes=TABLE_SIZES) -> Workload:
    # The seed moves each size by at most 0.5%, so different seeds give
    # different tables at nearly the same cost.  No size repeats in a pass.
    rng = random.Random(seed)
    limits = []
    for n in sizes:
        limits.append(rng.choice([m for m in range(n - n // 200, n + n // 200 + 1)
                                  if m not in limits]))
    ops = [["table", "--max", str(n), "--routes", ",".join(TABLE_ROUTES)] for n in limits]
    return Workload("series-table", ops, lambda i, out: check_table(out, limits[i]),
                    {"max": limits, "routes": list(TABLE_ROUTES)})


def check_table(out: str, limit: int) -> Optional[str]:
    """Rows n = 0..limit, one per route in order, all routes agreeing."""
    rows = list(csv.reader(io.StringIO(out)))
    if rows[:1] != [["n", "route", "value", "D_n", "H"]]:
        return f"bad header {rows[:1]}"
    body = rows[1:]
    width = len(TABLE_ROUTES)
    if len(body) != width * (limit + 1):
        return f"{len(body)} rows, expected {width * (limit + 1)}"
    for n in range(limit + 1):
        cells = body[width * n: width * (n + 1)]
        if [c[:2] for c in cells] != [[str(n), r] for r in TABLE_ROUTES]:
            return f"rows for n={n} missing or out of order"
        values = {c[2] for c in cells}
        if len(values) != 1 or not cells[0][2].isdigit():
            return f"n={n}: routes disagree or non-integral: {[c[2] for c in cells]}"
    return None


# ---------------------------------------------------------------------------
# point-queries: the single-answer path.

# Upper end of each route's log-uniform draw.
POINT_LIMITS = {"theorem": 100_000, "cor2": 10_000, "theta": 1500, "enum": 1500}
POINT_PER_ROUTE = 60


def point_queries(seed: int, per_route: int = POINT_PER_ROUTE, limits=POINT_LIMITS) -> Workload:
    """A seeded stream of `sc7 n --route R` calls.

    n is drawn log-uniformly from each route's domain, stratified: query i
    of a route falls in the i-th of `per_route` equal slices of log n, and
    the class-number routes cycle through n = 1, 3, 5, 7 mod 8 (their cost
    depends on n mod 4).  Stratifying keeps the latency quantiles of
    different seeds close while every n is still drawn at random.  A draw
    that lands on an n its route already has moves to the next free one,
    so no query repeats in a pass.
    """
    from sc7core import is_fundamental, sc_series

    rng = random.Random(seed)
    queries = []
    for route, hi in limits.items():
        taken = set()
        for i in range(per_route):
            x = math.exp((i + rng.random()) / per_route * math.log(hi))
            n = _pick_n(route, int(x), hi, 2 * (i % 4) + 1, taken, is_fundamental)
            taken.add(n)
            queries.append((route, n))
    rng.shuffle(queries)
    small = [n for route, n in queries if route in ("enum", "theta")]
    series = sc_series(7, max(small) + 1) if small else None
    refs = [_reference(route, n, series) for route, n in queries]
    ops = [["sc7", str(n), "--route", route] for route, n in queries]

    def check(i, out):
        try:
            rec = json.loads(out)
            got = {k: rec[k] for k in refs[i]}
            for k in ("value", "H"):
                if k in got:
                    got[k] = Fraction(str(got[k]))
        except (ValueError, KeyError, TypeError) as exc:
            return f"{ops[i]}: unreadable output {out[:80]!r} ({exc!r})"
        return None if got == refs[i] else f"{ops[i]}: got {got}, expected {refs[i]}"

    sizes = {"per_route": per_route, "max_n": dict(limits), "queries": len(queries)}
    return Workload("point-queries", ops, check, sizes)


def _pick_n(route, x, hi, residue, taken, is_fundamental) -> int:
    """The first n >= x (else the last n <= hi) not in `taken` and in the
    route's domain.  For the class-number routes that is n = residue mod 8,
    not 5 mod 7, and for cor2 a fundamental -D_n unless n = 7 mod 8."""
    def ok(n):
        if n in taken:
            return False
        if route in ("theta", "enum"):
            return True
        if n % 8 != residue or n % 7 == 5:
            return False
        return route == "theorem" or n % 8 == 7 or is_fundamental(-_disc(n))
    n = next((n for n in range(max(x, 1), hi + 1) if ok(n)), None)
    return n if n is not None else next(n for n in range(hi, 0, -1) if ok(n))


def _disc(n: int) -> int:
    """D_n = 28n + 56 for n = 1 mod 4, 7n + 14 for n = 3 mod 4."""
    return (4 if n % 4 == 1 else 1) * 7 * (n + 2)


def _reference(route: str, n: int, series) -> dict:
    """The expected output fields of `sc7 n --route R`, by another route:
    enum and theta against the q-series; for the class-number routes, H
    from the character sum with Cohen's scaling (both print H from the
    reduced-form count), the theorem value from that H and the cor2 value
    from the reduced-form count (cor2 computes it from the character sum)."""
    from sc7core import sc7_from_class_number

    ref = {"n": n, "route": route}
    if route in ("enum", "theta"):
        ref["value"] = Fraction(series[n])
        return ref
    D = _disc(n)
    H = character_sum_hurwitz(D)
    if route == "cor2":
        ref["value"] = sc7_from_class_number(n)
    else:
        ref["value"] = Fraction(0) if n % 8 == 7 else H / (4 if n % 4 == 1 else 2)
    ref["H"] = H
    ref["D_n"] = D
    return ref


def character_sum_hurwitz(D: int) -> Fraction:
    """H(-D) from the Dirichlet character sum at the fundamental
    discriminant -D0, where D = D0 f^2, scaled up by

        H(-D0 f^2) = H(-D0) * sum_{d | f} mu(d) chi_{-D0}(d) sigma1(f/d).
    """
    from sc7core import dirichlet_hurwitz, is_fundamental, kronecker
    from sc7core.arith import divisors, mobius, sigma1

    f = next(f for f in range(1, math.isqrt(D) + 1)
             if D % (f * f) == 0 and is_fundamental(-(D // (f * f))))
    D0 = D // (f * f)
    scale = sum(mobius(d) * kronecker(-D0, d) * sigma1(f // d) for d in divisors(f))
    return dirichlet_hurwitz(D0) * scale


# ---------------------------------------------------------------------------
# verify-sweep: every consistency check at its default bounds.

# Cases each check reports at its default bound.
VERIFY_CASES = {
    "route-equivalence": 3927,
    "vanishing-7mod8": 250,
    "theta-identity": 499,
    "closed-R-tables": 384,
    "g-basis": 387,
    "cohen-scaling": 1071,
    "dirichlet-vs-forms": 611,
}


def verify_sweep(seed: int, argv=("verify",), cases=VERIFY_CASES) -> Workload:
    # `verify` at its defaults is the workload, so the seed changes nothing.
    ops = [list(argv)]
    return Workload("verify-sweep", ops, lambda i, out: check_verify(out, cases),
                    {"argv": list(argv), "cases": dict(cases)})


def check_verify(out: str, cases: dict) -> Optional[str]:
    """Each check's `<name>: OK <count> cases` line, with any fields that
    follow it ignored."""
    for name, count in cases.items():
        m = re.search(rf"^{re.escape(name)}: OK (\d+) cases\b", out, re.M)
        if m is None:
            return f"no OK line for {name}"
        if int(m.group(1)) != count:
            return f"{name}: {m.group(1)} cases, expected {count}"
    return None


WORKLOADS = {
    "series-table": series_table,
    "point-queries": point_queries,
    "verify-sweep": verify_sweep,
}
