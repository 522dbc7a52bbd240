"""Command-line front end.

Subcommands: sc7 (one count, chosen route), table (batch CSV/JSON),
verify (cross-validation sweeps), forms and hurwitz (class-number data).

Exit codes: 0 success; 1 usage error or malformed input; 2 input that is
well-formed but outside a route's hypotheses; 3 a verification sweep hit
a counterexample, or a computed count came out non-integral or negative
(an `error:` line on stderr names the value).  All output is exact:
integers bare, rationals "p/q".

A reader that closes stdout early (`sc7core table --max 3000 | head -2`)
ends the command quietly with exit code 0: the rest of the output is
dropped, and no traceback is printed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from typing import NamedTuple, Optional

from .arith import HypothesisViolation, InexactCount, is_fundamental
from .eisenstein import (
    closed_rep_count,
    discriminant_of,
    sc7_from_character_sum,
    sc7_from_class_number,
    theorem_discriminant,
    theta_from_eisenstein,
)
from .partitions import sc_count
from .qseries import SC7_ETA_QUOTIENT, eta_quotient_series, format_coefficient, sc_series
from .quadforms import dirichlet_hurwitz, hurwitz, hurwitz_scaled, reduced_forms
from .ternary import DECOMPOSITION_FORMS, sc7_from_reps, sc7_from_thetas, theta_coeffs

ROUTES = ("enum", "qseries", "eta", "theta", "theorem", "cor2")

CSV_HEADER = ["n", "route", "value", "D_n", "H"]


class OutputRecord(NamedTuple):
    n: int
    route: str
    value: int
    extras: dict

    def json_line(self) -> str:
        rec = {"n": self.n, "route": self.route, "value": self.value}
        for key, val in self.extras.items():
            rec[key] = _json_value(val)
        return json.dumps(rec)

    def csv_row(self) -> list:
        return [
            str(self.n),
            self.route,
            str(self.value),
            str(self.extras["D_n"]) if "D_n" in self.extras else "",
            format_coefficient(self.extras["H"]) if "H" in self.extras else "",
        ]


def _json_value(v):
    """Integers as JSON numbers, non-integral rationals as "p/q" strings."""
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else format_coefficient(v)
    return v


def record_for(n: int, route: str, caches: Optional[dict] = None) -> OutputRecord:
    """Evaluate one (n, route) cell.  Raises HypothesisViolation when the
    route does not apply at n; table mode skips such cells, single mode
    turns them into exit code 2."""
    caches = caches or {}
    extras: dict = {}
    if route == "enum":
        value = sc_count(n, 7)
    elif route == "qseries":
        series = caches.get("qseries") or sc_series(7, n + 1)
        value = series[n]
    elif route == "eta":
        series = caches.get("eta") or eta_quotient_series(SC7_ETA_QUOTIENT, n + 3)
        value = series[n + 2]
    elif route == "theta":
        thetas = caches.get("theta")
        if thetas is None:
            value = sc7_from_thetas(n)
        else:
            value = sc7_from_reps([t[n + 2] for t in thetas])
    elif route == "theorem":
        d = theorem_discriminant(n)
        H = hurwitz(d.D)
        value = sc7_from_class_number(n, H)
        extras = {"D_n": d.D, "H": H}
    elif route == "cor2":
        value = sc7_from_character_sum(n)
        d = discriminant_of(n)
        extras = {"D_n": d.D, "H": hurwitz(d.D)}
    else:
        raise ValueError(f"unknown route {route!r}; valid routes: {', '.join(ROUTES)}")
    return OutputRecord(n, route, value, extras)


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


def _series_tables(precs: dict) -> dict:
    """Build each series named in `precs` once, at the given precision:
    "qseries" and "eta" as one series each, "theta" as a list of the
    three decomposition forms' theta series."""
    builders = {
        "qseries": lambda prec: sc_series(7, prec),
        "eta": lambda prec: eta_quotient_series(SC7_ETA_QUOTIENT, prec),
        "theta": lambda prec: [theta_coeffs(Q, prec) for Q in DECOMPOSITION_FORMS],
    }
    return {name: builders[name](prec) for name, prec in precs.items()}


def cmd_sc7(args) -> int:
    print(record_for(args.n, args.route).json_line())
    return 0


def cmd_table(args) -> int:
    routes = args.routes.split(",")
    for route in routes:
        if route not in ROUTES:
            raise ValueError(f"unknown route {route!r}; valid routes: {', '.join(ROUTES)}")
    limit = args.max
    precs = {"qseries": limit + 1, "eta": limit + 3, "theta": limit + 3}
    caches = _series_tables({r: precs[r] for r in routes if r in precs})

    as_json = args.format == "json"
    if not as_json:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_HEADER)
    # Rows go out as they are computed, so a reader that stops early
    # stops the work too.
    for n in range(limit + 1):
        for route in routes:
            try:
                rec = record_for(n, route, caches)
            except HypothesisViolation:
                continue  # cell outside this route's hypotheses
            if as_json:
                print(rec.json_line())
            else:
                writer.writerow(rec.csv_row())
    return 0


def cmd_forms(args) -> int:
    for form in reduced_forms(args.D):
        print(f"({form.a}, {form.b}, {form.c})")
    return 0


def cmd_hurwitz(args) -> int:
    print(format_coefficient(hurwitz(args.D)))
    return 0


# ---------------------------------------------------------------------------
# verification sweeps
#
# Each runner takes its sweep bound and the series tables of cmd_verify,
# which are built once per run at the largest precision any selected
# check needs; a runner reads only the entries its own bound covers.

def _check_route_equivalence(limit: int, tables: dict):
    """Every route against the q-series on its own domain: eta everywhere,
    theta to 498, enumeration to 300, the class-number routes over odd n
    away from 5 mod 7."""
    qs = tables["qseries"]
    cases = 0

    eta = tables["eta"]
    for n in range(limit + 1):
        if eta[n + 2] != qs[n]:
            return cases, f"n={n} lhs=eta:{eta[n + 2]} rhs=qseries:{qs[n]}"
        cases += 1

    thetas = tables["theta"]
    for n in range(min(limit, 498) + 1):
        value = sc7_from_reps([t[n + 2] for t in thetas])
        if value != qs[n]:
            return cases, f"n={n} lhs=theta:{value} rhs=qseries:{qs[n]}"
        cases += 1

    for n in range(min(limit, 300) + 1):
        value = sc_count(n, 7)
        if value != qs[n]:
            return cases, f"n={n} lhs=enum:{value} rhs=qseries:{qs[n]}"
        cases += 1

    for n in range(1, limit + 1, 2):
        if n % 7 == 5:
            continue
        value = sc7_from_class_number(n)
        if value != qs[n]:
            return cases, f"n={n} lhs=theorem:{format_coefficient(value)} rhs=qseries:{qs[n]}"
        cases += 1

    for n in range(1, min(limit, 1000) + 1, 2):
        if n % 7 == 5 or n % 8 == 7:
            continue
        if not is_fundamental(-discriminant_of(n).D):
            continue
        value = sc7_from_character_sum(n)
        if value != qs[n]:
            return cases, f"n={n} lhs=cor2:{format_coefficient(value)} rhs=qseries:{qs[n]}"
        cases += 1

    return cases, None


def _check_vanishing(limit: int, tables: dict):
    qs = tables["qseries"]
    cases = 0
    for n in range(7, limit + 1, 8):
        if qs[n] != 0:
            return cases, f"n={n} lhs=qseries:{qs[n]} rhs=0"
        cases += 1
    return cases, None


def _check_theta_identity(limit: int, tables: dict):
    qs, thetas = tables["qseries"], tables["theta"]
    cases = 0
    for n in range(limit + 1):
        value = sc7_from_reps([t[n + 2] for t in thetas])
        if value != qs[n]:
            return cases, f"n={n} lhs=theta:{value} rhs=qseries:{qs[n]}"
        cases += 1
    return cases, None


def _check_closed_r_tables(limit: int, tables: dict):
    thetas = tables["theta"]
    cases = 0
    for m in range(3, limit + 1, 2):
        if m % 7 == 0:
            continue
        for i in (1, 2, 3):
            closed = closed_rep_count(i, m)
            lattice = thetas[i - 1][m]
            if closed != lattice:
                return cases, (f"n={m} lhs=closed_rep_count({i}):{format_coefficient(closed)} "
                               f"rhs=rep_count:{lattice}")
            cases += 1
    return cases, None


def _check_g_basis(limit: int, tables: dict):
    thetas = tables["theta"]
    cases = 0
    for m in range(1, limit + 1, 2):
        if math.gcd(m, 14) != 1:
            continue
        for i in (1, 2, 3):
            recon = theta_from_eisenstein(i, m)
            lattice = thetas[i - 1][m]
            if recon != lattice:
                return cases, (f"n={m} lhs=theta_from_eisenstein({i}):{format_coefficient(recon)} "
                               f"rhs=rep_count:{lattice}")
            cases += 1
    return cases, None


def _check_cohen_scaling(limit: int, tables: dict):
    cases = 0
    for D in range(3, limit + 1):
        if not is_fundamental(-D):
            continue
        for f in (1, 3, 5, 9, 11, 13, 15):
            scaled = hurwitz_scaled(D, f)
            direct = hurwitz(D * f * f)
            if scaled != direct:
                return cases, (f"n={D} lhs=hurwitz_scaled(f={f}):{format_coefficient(scaled)} "
                               f"rhs=hurwitz:{format_coefficient(direct)}")
            cases += 1
    return cases, None


def _check_dirichlet_vs_forms(limit: int, tables: dict):
    cases = 0
    for D in range(3, limit + 1):
        if not is_fundamental(-D):
            continue
        via_sum = dirichlet_hurwitz(D)
        via_forms = hurwitz(D)
        if via_sum != via_forms:
            return cases, (f"n={D} lhs=dirichlet:{format_coefficient(via_sum)} "
                           f"rhs=forms:{format_coefficient(via_forms)}")
        cases += 1
    return cases, None


# name -> (default sweep bound, runner, precision of each series table the
# runner reads at a given bound)
CHECKS = {
    "route-equivalence": (2000, _check_route_equivalence,
                          lambda n: {"qseries": n + 1, "eta": n + 3, "theta": min(n, 498) + 3}),
    "vanishing-7mod8": (2000, _check_vanishing, lambda n: {"qseries": n + 1}),
    "theta-identity": (498, _check_theta_identity,
                       lambda n: {"qseries": n + 1, "theta": n + 3}),
    "closed-R-tables": (301, _check_closed_r_tables, lambda n: {"theta": n + 1}),
    "g-basis": (301, _check_g_basis, lambda n: {"theta": n + 1}),
    "cohen-scaling": (500, _check_cohen_scaling, lambda n: {}),
    "dirichlet-vs-forms": (2000, _check_dirichlet_vs_forms, lambda n: {}),
}


def cmd_verify(args) -> int:
    if args.check == "all":
        names = list(CHECKS)
    elif args.check in CHECKS:
        names = [args.check]
    else:
        print(f"error: unknown check {args.check!r}; valid checks: "
              f"{', '.join(CHECKS)}, all", file=sys.stderr)
        return 1
    limits = {name: args.max if args.max is not None else CHECKS[name][0] for name in names}
    precs: dict = {}
    for name in names:
        for series, prec in CHECKS[name][2](limits[name]).items():
            precs[series] = max(precs.get(series, 0), prec)
    tables = _series_tables(precs)
    for name in names:
        cases, failure = CHECKS[name][1](limits[name], tables)
        if failure is not None:
            print(f"FAIL {name}: {failure}")
            return 3
        if len(names) > 1:
            print(f"{name}: OK {cases} cases")
        else:
            print(f"OK {cases} cases")
    return 0


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
    except HypothesisViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InexactCount as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
