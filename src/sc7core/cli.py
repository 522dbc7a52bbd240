"""Command-line front end.

Subcommands: sc7 (one count, chosen route), table (batch CSV/JSON),
verify (cross-validation sweeps), forms and hurwitz (class-number data).

One registry, ROUTES, describes the routes, and `sc7`, `table`, `verify`
and the demos all go through it.  One cell reader, `_cell`, reads a
route's value at n from a given column, else by its count(n), else from
its table(N = n), and checks that it is a count; `record_for` adds the
route's extras.  `table` prints a column route's cells straight from its
column and the other routes' cells through `record_for`, CHUNK n at a
time, by one of two paths.  When every route has a column and the
chunk's values are all counts, a row template built from the line
formatter writes each n in one format call; otherwise one loop over n,
then over the routes, writes the cells one by one with the same
formatter.  Each verify check in CHECKS yields its comparisons
(n, (label, lhs), (label, rhs)), reading route cells through `_cell`
and its tables from a per-run memo that builds each table on its first
read; one sweep loop counts them and stops at the first mismatch.

Exit codes: 0 success; 1 usage error, malformed input, or a query too
large for the chosen route; 2 input that is well-formed but outside a
route's hypotheses; 3 a verification sweep hit a counterexample, or a
computed count is not a non-negative int: a fraction, a negative number
or a bool (an `error:` line on stderr names the value).  All output is
exact: integers bare, rationals "p/q".

A reader that closes stdout early (`sc7core table --max 3000 | head -2`)
ends the command quietly with exit code 0: the rest of the output is
dropped, and no traceback is printed.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from itertools import chain
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional, Sequence

from .arith import HypothesisViolation, InexactCount, is_fundamental
from .eisenstein import (
    _class_number_fields,
    closed_rep_count,
    sc7_from_character_sum,
    sc7_from_class_number,
    theta_from_eisenstein,
)
from .partitions import sc_count, sc_count_column
from .qseries import SC7_ETA_QUOTIENT, eta_quotient_series, sc_series
from .quadforms import dirichlet_hurwitz, hurwitz, hurwitz_scaled, reduced_forms
from .ternary import DECOMPOSITION_FORMS, sc7_from_rep_columns, sc7_from_thetas, theta_coeffs

CSV_HEADER = "n,route,value,D_n,H\n"
# `table` checks, formats and writes the cells of CHUNK n at once, so a
# reader that stops early stops the work within one chunk.
CHUNK = 1024


class OutputRecord(NamedTuple):
    n: int
    route: str
    value: int
    extras: dict


# The line formatters take the fields of an OutputRecord.  Every field is
# an int or a route name, so no CSV field needs quoting, and the JSON line
# is what json.dumps writes for {"n", "route", "value", **extras}.
def _csv_line(n: int, route: str, value: int, extras) -> str:
    return f"{n},{route},{value},{extras.get('D_n', '')},{extras.get('H', '')}\n"


def _json_line(n: int, route: str, value: int, extras) -> str:
    fields = "".join([f', "{key}": {v}' for key, v in extras.items()]) if extras else ""
    return f'{{"n": {n}, "route": "{route}", "value": {value}{fields}}}\n'


_NO_EXTRAS = MappingProxyType({})  # the extras of a route that reports none


class Route(NamedTuple):
    """One way to compute sc7(n).  table(N) builds the count column
    sc7(0..N) at once (enum, qseries, eta, theta).  count(n) answers one n
    on its own: the only path of theorem and cor2, and a faster one than a
    table to N = n for enum and theta.  extras(n, value) gives the D_n and
    H fields a class-number route reports with its checked count: for
    theorem and cor2 that is `eisenstein._class_number_fields`, the inverse
    of the library's one class-number evaluator, so this module does no
    class-number arithmetic.  Where a route applies is stated only by its
    functions, which raise HypothesisViolation elsewhere.  The table and
    count entries call the library through this module's names at call
    time, so patching `cli.sc_series` (say) reaches them; the extras read
    `hurwitz` from `eisenstein`."""

    table: Optional[Callable[[int], Sequence]] = None
    count: Optional[Callable[[int], int]] = None
    extras: Optional[Callable[[int, int], dict]] = None


def _theta_reps(N: int) -> list:
    """The representation numbers R_i(m), m <= N + 2, of the three
    decomposition forms: what the theta column to N is combined from."""
    return [theta_coeffs(Q, N + 3).coeffs for Q in DECOMPOSITION_FORMS]


def _theta_column(reps: list, N: int) -> list:
    """sc7(n) for n <= N from the R_i(n + 2), checked at every n."""
    return sc7_from_rep_columns([r[2:N + 3] for r in reps])


ROUTES = {
    "enum": Route(table=lambda N: sc_count_column(N, 7), count=lambda n: sc_count(n, 7)),
    "qseries": Route(table=lambda N: sc_series(7, N + 1).coeffs),
    # the eta quotient carries sc7(n) at q^(n+2)
    "eta": Route(table=lambda N: eta_quotient_series(SC7_ETA_QUOTIENT, N + 3).coeffs[2:]),
    "theta": Route(table=lambda N: _theta_column(_theta_reps(N), N),
                   count=lambda n: sc7_from_thetas(n)),
    "theorem": Route(count=lambda n: sc7_from_class_number(n), extras=_class_number_fields),
    "cor2": Route(count=lambda n: sc7_from_character_sum(n), extras=_class_number_fields),
}


def _route(name: str) -> Route:
    if name not in ROUTES:
        raise ValueError(f"unknown route {name!r}; valid routes: {', '.join(ROUTES)}")
    return ROUTES[name]


def _cell(route: str, n: int, column=None) -> int:
    """The (n, route) cell: column[n] when a column of the route is given,
    else the route's count(n), else its table built to N = n, at n.  Every
    cell that `sc7`, `table` and `verify` read one by one comes through
    here.  Raises InexactCount (exit code 3) unless the value is a
    non-negative int; HypothesisViolation from count(n) passes through."""
    if column is not None:
        value = column[n]
    else:
        r = ROUTES[route]
        value = r.count(n) if r.count else r.table(n)[n]
    # type(...) is int, not isinstance: a bool is an int, but prints as True
    if type(value) is not int or value < 0:
        raise InexactCount(f"{route} route at n={n} gives {value}")
    return value


def record_for(n: int, route: str) -> OutputRecord:
    """Evaluate one (n, route) cell by `_cell`, with the route's extras.
    Raises HypothesisViolation when the route does not apply at n; table
    mode skips such cells, single mode turns them into exit code 2.
    Raises InexactCount (exit code 3) unless the count is a non-negative
    int (a bool is not one)."""
    r = _route(route)
    value = _cell(route, n)
    return OutputRecord(n, route, value, r.extras(n, value) if r.extras else _NO_EXTRAS)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract reserves 2
    # for hypothesis violations, so usage problems exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    value = _nonneg(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be >= 1, got 0")
    return value


def cmd_sc7(args) -> int:
    sys.stdout.write(_json_line(*record_for(args.n, args.route)))
    return 0


def cmd_table(args) -> int:
    """Print the cells (n, route), n = 0..N in (n, route) order, as CSV
    rows under a header or as JSON lines.  A route with a table builds its
    column once and prints its cells straight from it; a class-number
    route computes each cell through `record_for` and skips the cells
    outside its hypotheses.  The cells go out CHUNK n at a time, one
    write per chunk, so a reader that stops early stops the work within
    one chunk; `_chunk` writes each chunk by the row template or by the
    per-cell loop.  A cell that fails (a count that is not a non-negative
    int, a bool included) ends the table after the cells before it, and
    no cell after it is computed."""
    routes = args.routes.split(",")
    for route in routes:
        _route(route)
    limit = args.max
    columns = {r: ROUTES[r].table(limit) for r in dict.fromkeys(routes) if ROUTES[r].table}

    if args.format == "json":
        line = _json_line
    else:
        line = _csv_line
        sys.stdout.write(CSV_HEADER)
    for lo in range(0, limit + 1, CHUNK):
        text, fault = _chunk(routes, columns, lo, min(lo + CHUNK, limit + 1), line)
        sys.stdout.write(text)
        if fault is not None:
            raise fault
    return 0


def _row_format(routes: list, line: Callable) -> str:
    """A %-format template for the lines of one n of column routes:
    `line` for each route in turn, with %d for its n and for its value,
    which `line` writes in that order."""
    return "".join(line("\0", route, "\1", _NO_EXTRAS).replace("%", "%%")
                   .replace("\0", "%d").replace("\1", "%d") for route in routes)


def _chunk(routes: list, columns: dict, lo: int, hi: int, line: Callable) -> tuple:
    """The text of the cells n = lo..hi-1 in (n, route) order, and None;
    or, when a cell fails, the text of the cells before it and the
    exception it raised.

    When every route has a column and every slice to print holds only
    non-negative ints, each n is one format call with the `_row_format`
    template.  Otherwise the cells are written one by one in (n, route)
    order: a column route's value is read from its column by `_cell`, a
    class-number route's cell comes from `record_for` and is skipped
    outside the route's hypotheses.  Nothing after a failed cell is
    computed.
    """
    if all(route in columns for route in routes):
        slices = [columns[route][lo:hi] for route in routes]
        if all(set(map(type, s)) <= {int} and min(s) >= 0 for s in slices):
            fields = zip(*chain.from_iterable((range(lo, hi), s) for s in slices))
            return "".join(map(_row_format(routes, line).__mod__, fields)), None
    lines = []
    for n in range(lo, hi):
        for route in routes:
            try:
                if route in columns:
                    lines.append(line(n, route, _cell(route, n, columns[route]), _NO_EXTRAS))
                else:
                    lines.append(line(*record_for(n, route)))
            except HypothesisViolation:
                pass  # cell outside this route's hypotheses
            except Exception as exc:
                return "".join(lines), exc
    return "".join(lines), None


def cmd_forms(args) -> int:
    for form in reduced_forms(args.D):
        print(f"({form.a}, {form.b}, {form.c})")
    return 0


def cmd_hurwitz(args) -> int:
    print(hurwitz(args.D))
    return 0


# ---------------------------------------------------------------------------
# verification sweeps
#
# A check yields its comparisons (n, (label, lhs), (label, rhs)) lazily,
# so a sweep that fails stops computing.  It asks the run's memo
# table(name, N) for each table it reads, at the largest n it reads
# there, and reads each route cell through `_cell`, as `table` does.

def _tables() -> Callable[[str, int], Sequence]:
    """A per-run memo table(name, N): a route's count column sc7(0..N),
    or "reps", the representation numbers R_i(m), m <= N + 2, of the three
    decomposition forms.  A table is built on its first read, and built
    again, longer, when a later read goes past its end.  The theta column
    is combined at each read from the memo's own reps, so one set of theta
    series serves both."""
    built: dict = {}  # name -> (N, its table to N); a name not built is absent

    def table(name: str, N: int):
        if name == "theta":
            return _theta_column(table("reps", N), N)
        if name not in built or built[name][0] < N:
            built[name] = N, (_theta_reps if name == "reps" else ROUTES[name].table)(N)
        return built[name][1]
    return table


def _against_qseries(route: str, limit: int, table: Callable, keep=None):
    qs = table("qseries", limit)
    column = table(route, limit) if ROUTES[route].table else None
    for n in range(limit + 1):
        if keep is None or keep(n):
            try:
                lhs = _cell(route, n, column)
            except HypothesisViolation:
                continue  # n outside the route's hypotheses
            yield n, (route, lhs), ("qseries", _cell("qseries", n, qs))


# route-equivalence checks each route against the q-series, in this
# order: up to the smaller of the bound and the route's cap, at every n
# where the route applies and its keep test, if any, holds.  cor2
# answers n = 7 mod 8 with the theorem route's 0, so it is checked only
# where its character sum is taken.
EQUIVALENCE = {
    "eta": (math.inf, None),
    "theta": (498, None),
    "enum": (300, None),
    "theorem": (math.inf, None),
    "cor2": (1000, lambda n: n % 8 != 7),
}


def _route_equivalence(limit: int, table: Callable):
    for route, (cap, keep) in EQUIVALENCE.items():
        yield from _against_qseries(route, min(limit, cap), table, keep)


def _vanishing(limit: int, table: Callable):
    qs = table("qseries", limit)
    for n in range(7, limit + 1, 8):
        yield n, ("qseries", _cell("qseries", n, qs)), (None, 0)


def _against_lattice(label: str, formula: Callable, first: int):
    """A formula for the lattice count R_i(m) of each of the three forms,
    against the reps table, at odd m >= first coprime to 7."""
    def cases(limit: int, table: Callable):
        reps = table("reps", limit - 2)
        for m in range(first, limit + 1, 2):
            if m % 7:
                for i in (1, 2, 3):
                    yield m, (f"{label}({i})", formula(i, m)), ("rep_count", reps[i - 1][m])
    return cases


def _fundamental(limit: int):
    return (D for D in range(3, limit + 1) if is_fundamental(-D))


def _cohen_scaling(limit: int, table: Callable):
    for D in _fundamental(limit):
        for f in (1, 3, 5, 9, 11, 13, 15):
            yield (D, (f"hurwitz_scaled(f={f})", hurwitz_scaled(D, f)),
                   ("hurwitz", hurwitz(D * f * f)))


def _dirichlet_vs_forms(limit: int, table: Callable):
    for D in _fundamental(limit):
        yield D, ("dirichlet", dirichlet_hurwitz(D)), ("forms", hurwitz(D))


class Check(NamedTuple):
    bound: int  # default sweep bound
    cases: Callable  # (bound, table) -> comparisons, table the run's memo


# The formulas are looked up by name at call time, so a wrapper put on
# this module's names (a tracer, a test) sees their calls.
CHECKS = {
    "route-equivalence": Check(2000, _route_equivalence),
    "vanishing-7mod8": Check(2000, _vanishing),
    "theta-identity": Check(498, lambda n, table: _against_qseries("theta", n, table)),
    "closed-R-tables": Check(301, _against_lattice(
        "closed_rep_count", lambda i, m: closed_rep_count(i, m), 3)),
    "g-basis": Check(301, _against_lattice(
        "theta_from_eisenstein", lambda i, m: theta_from_eisenstein(i, m), 1)),
    "cohen-scaling": Check(500, _cohen_scaling),
    "dirichlet-vs-forms": Check(2000, _dirichlet_vs_forms),
}


def _side(label: Optional[str], value) -> str:
    return str(value) if label is None else f"{label}:{value}"


def cmd_verify(args) -> int:
    if args.check == "all":
        names = list(CHECKS)
    elif args.check in CHECKS:
        names = [args.check]
    else:
        raise ValueError(f"unknown check {args.check!r}; valid checks: "
                         f"{', '.join(CHECKS)}, all")
    table = _tables()
    for name in names:
        check, cases = CHECKS[name], 0
        for n, lhs, rhs in check.cases(check.bound if args.max is None else args.max, table):
            if lhs[1] != rhs[1]:
                print(f"FAIL {name}: n={n} lhs={_side(*lhs)} rhs={_side(*rhs)}")
                return 3
            cases += 1
        print(f"{name}: OK {cases} cases" if len(names) > 1 else f"OK {cases} cases")
    return 0


# Built once per process: `main` is called many times in one process by the
# tests and the benchmark, and building the parser costs about 1 ms.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sc7core",
                     description="Self-conjugate 7-core partition counts, five ways.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sc7", help="count for a single n by one route")
    p.add_argument("n", type=_nonneg)
    p.add_argument("--route", choices=ROUTES, default="qseries")
    p.set_defaults(func=cmd_sc7)

    p = sub.add_parser("table", help="batch table over n = 0..N")
    p.add_argument("--max", type=_nonneg, required=True, metavar="N")
    p.add_argument("--routes", default="qseries",
                   help="comma-separated route list (default: qseries); "
                        "rows outside a route's hypotheses are omitted")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run cross-validation sweeps")
    p.add_argument("--check", default="all",
                   help=f"one of: {', '.join(CHECKS)}, all (default: all)")
    p.add_argument("--max", type=_positive, default=None, metavar="N",
                   help="override the check's default sweep bound")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("forms", help="reduced forms of discriminant -D")
    p.add_argument("D", type=_positive)
    p.set_defaults(func=cmd_forms)

    p = sub.add_parser("hurwitz", help="Hurwitz class number H(-D)")
    p.add_argument("D", type=_positive)
    p.set_defaults(func=cmd_hurwitz)

    return parser


# The exit code of each error main reports, most specific first:
# HypothesisViolation is a ValueError.
_EXIT_CODES = {HypothesisViolation: 2, InexactCount: 3, ValueError: 1}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Send what is still buffered to devnull, so the flush at exit
        # cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
