import json
import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from sc7core import cli


def run_cli(*argv):
    """In-process invocation; returns (exit_code, stdout_text)."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def test_sc7_theorem_route():
    code, out = run_cli("sc7", "9", "--route", "theorem")
    assert code == 0
    rec = json.loads(out)
    assert rec == {"n": 9, "route": "theorem", "value": 2, "D_n": 308, "H": 8}


def test_sc7_qseries_route_large():
    code, out = run_cli("sc7", "2923", "--route", "qseries")
    assert code == 0
    assert json.loads(out)["value"] == 25


def test_sc7_enum_route_zero():
    code, out = run_cli("sc7", "0", "--route", "enum")
    assert code == 0
    assert json.loads(out)["value"] == 1


def test_sc7_enum_route_builds_no_column(monkeypatch):
    def unreachable(N, t):
        raise AssertionError("enum column built")

    monkeypatch.setattr(cli, "sc_count_column", unreachable)
    for n, value in ((0, 1), (9, 2), (1500, 30)):
        code, out = run_cli("sc7", str(n), "--route", "enum")
        assert code == 0 and json.loads(out)["value"] == value


def _record_builds(monkeypatch, *names):
    """Wrap each named library function of `cli`; returns the list that
    collects (name, *args) of every call."""
    builds = []

    def recorded(name):
        real = getattr(cli, name)

        def wrapper(*args):
            builds.append((name, *args))
            return real(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, recorded(name))
    return builds


@pytest.mark.parametrize("route, n, value, built", [
    ("theta", 1500, 30, []),  # one rep_count per form, no theta series
    ("theorem", 1509, 22, []),
    ("theorem", 1511, 0, []),  # n = 7 mod 8: H from `hurwitz`
    ("cor2", 1509, 22, []),
    ("qseries", 1500, 30, [("sc_series", 7, 1501)]),
    ("eta", 1500, 30, [("eta_quotient_series", cli.SC7_ETA_QUOTIENT, 1503)]),
])
def test_sc7_builds_at_most_one_column(monkeypatch, route, n, value, built):
    # a route with count(n) builds no column (enum: the test above); the
    # others build one, to N = n
    builds = _record_builds(monkeypatch, "sc_series", "eta_quotient_series",
                            "theta_coeffs", "sc_count_column")
    code, out = run_cli("sc7", str(n), "--route", route)
    assert code == 0 and json.loads(out)["value"] == value
    assert builds == built


def test_sc7_every_route_small():
    for route in cli.ROUTES:
        code, out = run_cli("sc7", "9", "--route", route)
        assert code == 0
        assert json.loads(out)["value"] == 2


def test_sc7_hypothesis_violations_exit_2(capsys):
    assert cli.main(["sc7", "12", "--route", "theorem"]) == 2
    assert cli.main(["sc7", "19", "--route", "theorem"]) == 2
    # n = 5 mod 7: the message names every route that answers there
    assert capsys.readouterr().err.endswith(
        "use the qseries, eta, theta or enum routes there\n")
    assert cli.main(["sc7", "25", "--route", "cor2"]) == 2
    err = capsys.readouterr().err
    assert "hypothesis" in err or "error" in err


@pytest.mark.parametrize("argv, name", [
    (["verify", "--max", "0"], "argument --max"),
    (["forms", "0"], "argument D"),
    (["hurwitz", "0"], "argument D"),
])
def test_zero_bound_or_discriminant_exits_1(capsys, argv, name):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"sc7core {argv[0]}: error: {name}: must be >= 1, got 0\n")


def test_sc7_malformed_input_exits_1():
    with pytest.raises(SystemExit) as exc:
        cli.main(["sc7", "nine"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["sc7", "-4"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["sc7", "9", "--route", "psychic"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 1


def test_table_csv_header_and_rows():
    code, out = run_cli("table", "--max", "13", "--routes", "theorem,qseries")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,route,value,D_n,H"
    assert "9,theorem,2,308,8" in lines
    assert "9,qseries,2,," in lines
    # rows come out sorted by n
    ns = [int(line.split(",")[0]) for line in lines[1:]]
    assert ns == sorted(ns)


def test_table_max_zero():
    code, out = run_cli("table", "--max", "0")
    assert code == 0
    assert out.splitlines() == ["n,route,value,D_n,H", "0,qseries,1,,"]
    # each series route's count column at N = 0 and N = 1: the eta column
    # starts after its q^2 shift, the theta column at R_i(2)
    routes = ("qseries", "eta", "theta")
    code, out = run_cli("table", "--max", "0", "--routes", ",".join(routes))
    assert code == 0
    assert out.splitlines() == ["n,route,value,D_n,H", *(f"0,{r},1,," for r in routes)]
    code, out = run_cli("table", "--max", "1", "--routes", ",".join(routes))
    assert code == 0
    assert out.splitlines()[1:] == [f"{n},{r},1,," for n in (0, 1) for r in routes]


def test_table_cor2():
    code, out = run_cli("table", "--max", "11", "--routes", "cor2")
    assert code == 0
    lines = out.splitlines()
    assert "11,cor2,1,91,2" in lines
    # even n and n = 5 (both out of hypothesis) are skipped, not errors
    assert all(int(line.split(",")[0]) % 2 for line in lines[1:])
    assert not any(line.startswith("5,") for line in lines)


def test_table_json_lines():
    code, out = run_cli("table", "--max", "4", "--routes", "enum,theta", "--format", "json")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert len(recs) == 10
    assert all(rec["value"] == v for rec, v in zip(recs[::2], [1, 1, 0, 1, 1]))
    assert [rec["route"] for rec in recs[:2]] == ["enum", "theta"]


def test_table_rejects_unknown_route(capsys):
    assert cli.main(["table", "--max", "3", "--routes", "qseries,banana"]) == 1
    assert "banana" in capsys.readouterr().err


def test_table_determinism():
    args = ("table", "--max", "30", "--routes", "enum,qseries,eta,theta,theorem,cor2")
    assert run_cli(*args) == run_cli(*args)


def test_forms_command():
    code, out = run_cli("forms", "308")
    assert code == 0
    assert out.splitlines() == [
        "(1, 0, 77)", "(2, 2, 39)", "(3, -2, 26)", "(3, 2, 26)",
        "(6, -2, 13)", "(6, 2, 13)", "(7, 0, 11)", "(9, 4, 9)",
    ]


def test_forms_invalid_discriminant(capsys):
    assert cli.main(["forms", "5"]) == 2
    assert "not a discriminant" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["forms", "-3"])
    assert exc.value.code == 1


def test_hurwitz_command():
    assert run_cli("hurwitz", "756") == (0, "16\n")
    assert run_cli("hurwitz", "3") == (0, "1/3\n")
    assert cli.main(["hurwitz", "5"]) == 2


def test_verify_vanishing_count():
    code, out = run_cli("verify", "--check", "vanishing-7mod8", "--max", "500")
    assert code == 0
    assert out == "OK 62 cases\n"


def test_verify_small_sweeps():
    for check, bound in (("theta-identity", "60"), ("closed-R-tables", "40"),
                         ("g-basis", "40"), ("cohen-scaling", "30"),
                         ("dirichlet-vs-forms", "100"), ("route-equivalence", "60")):
        code, out = run_cli("verify", "--check", check, "--max", bound)
        assert code == 0, (check, out)
        assert out.startswith("OK ") and out.endswith(" cases\n")


def test_verify_unknown_check(capsys):
    assert cli.main(["verify", "--check", "bogus"]) == 1
    err = capsys.readouterr().err
    assert "vanishing-7mod8" in err and "g-basis" in err
    # main reports the error as one line, with the code of a ValueError
    assert cli.main(["verify", "--check", "nope"]) == 1
    assert capsys.readouterr() == ("", (
        "error: unknown check 'nope'; valid checks: route-equivalence, "
        "vanishing-7mod8, theta-identity, closed-R-tables, g-basis, "
        "cohen-scaling, dirichlet-vs-forms, all\n"))


def test_verify_counterexample_exits_3(monkeypatch, capsys):
    # sabotage the series the vanishing check reads; the sweep must report
    # the first bad index and stop with code 3
    from sc7core.qseries import sc_series as real

    def corrupted(t, prec):
        s = real(t, prec)
        coeffs = list(s.coeffs)
        if len(coeffs) > 15:
            coeffs[15] = 99
        return type(s)(coeffs)

    monkeypatch.setattr(cli, "sc_series", corrupted)
    code = cli.main(["verify", "--check", "vanishing-7mod8", "--max", "100"])
    out = capsys.readouterr().out
    assert code == 3
    assert out == "FAIL vanishing-7mod8: n=15 lhs=qseries:99 rhs=0\n"


def test_verify_counterexample_names_both_routes(monkeypatch, capsys):
    # a labelled mismatch: the eta route against the q-series
    real = cli.eta_quotient_series

    def corrupted(spec, prec):
        coeffs = list(real(spec, prec).coeffs)
        coeffs[17] = 99  # sc7(15) sits at q^17
        return type(real(spec, 1))(coeffs)

    monkeypatch.setattr(cli, "eta_quotient_series", corrupted)
    assert cli.main(["verify", "--check", "route-equivalence", "--max", "100"]) == 3
    assert capsys.readouterr().out == "FAIL route-equivalence: n=15 lhs=eta:99 rhs=qseries:0\n"


def test_verify_case_counts():
    # every check's case count, at a bound above and at the bottom of its range
    assert run_cli("verify", "--max", "40") == (0, (
        "route-equivalence: OK 151 cases\n"
        "vanishing-7mod8: OK 5 cases\n"
        "theta-identity: OK 41 cases\n"
        "closed-R-tables: OK 48 cases\n"
        "g-basis: OK 51 cases\n"
        "cohen-scaling: OK 98 cases\n"
        "dirichlet-vs-forms: OK 14 cases\n"))
    assert run_cli("verify", "--max", "1") == (0, (
        "route-equivalence: OK 8 cases\n"
        "vanishing-7mod8: OK 0 cases\n"
        "theta-identity: OK 2 cases\n"
        "closed-R-tables: OK 0 cases\n"
        "g-basis: OK 3 cases\n"
        "cohen-scaling: OK 0 cases\n"
        "dirichlet-vs-forms: OK 0 cases\n"))
    # past every per-route cap: theta 498, enum 300, cor2 1000
    assert run_cli("verify", "--check", "route-equivalence", "--max", "1001") == (
        0, "OK 2500 cases\n")


# Each check alone at the two smallest bounds.  At --max 1 and 2 the
# lattice checks read their reps table to N = -1 and 0.
SMALLEST_BOUNDS = {
    "route-equivalence": (8, 11),
    "vanishing-7mod8": (0, 0),
    "theta-identity": (2, 3),
    "closed-R-tables": (0, 0),
    "g-basis": (3, 3),
    "cohen-scaling": (0, 0),
    "dirichlet-vs-forms": (0, 0),
}


@pytest.mark.parametrize("check", SMALLEST_BOUNDS)
def test_each_check_alone_at_the_smallest_bounds(check):
    for bound, cases in zip(("1", "2"), SMALLEST_BOUNDS[check]):
        assert run_cli("verify", "--check", check, "--max", bound) == (0, f"OK {cases} cases\n")


@pytest.mark.parametrize("value, text", [
    (Fraction(4, 3), "4/3"), (Fraction(-1, 2), "-1/2"), (Fraction(8, 4), "2")])
def test_verify_prints_a_formula_side_exactly(monkeypatch, capsys, value, text):
    # a rational side prints as "p/q", an integral one bare
    monkeypatch.setattr(cli, "closed_rep_count", lambda i, m: value)
    assert cli.main(["verify", "--check", "closed-R-tables", "--max", "3"]) == 3
    assert capsys.readouterr().out == (
        f"FAIL closed-R-tables: n=3 lhs=closed_rep_count(1):{text} rhs=rep_count:8\n")


def test_cli_end_to_end_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "sc7core.cli", "sc7", "9", "--route", "eta"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 2
    proc = subprocess.run(
        [sys.executable, "-m", "sc7core.cli", "sc7", "12", "--route", "theorem"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    # a pipe that stays open gets the same bytes as an in-process call
    argv = ["table", "--max", "300", "--routes", "qseries,eta,theta", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "sc7core.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == run_cli(*argv)[1]


def test_closed_stdout_exits_cleanly():
    # With the read end closed before the command starts, the first write
    # fails: inside cmd_table for a table larger than the stdout buffer,
    # at the final flush for a one-line sc7 answer.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for argv in (["table", "--max", "1000"], ["sc7", "9"]):
            proc = subprocess.run([sys.executable, "-m", "sc7core.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  timeout=120)
            assert (proc.returncode, proc.stderr) == (0, "")
    finally:
        os.close(write_end)


def test_theta_route_rejects_a_non_integral_count(monkeypatch, capsys):
    from fractions import Fraction

    from sc7core import ternary

    monkeypatch.setattr(ternary, "DECOMPOSITION_WEIGHTS",
                        (Fraction(1, 14), Fraction(-1, 7), Fraction(1, 13)))
    for argv in (["sc7", "9", "--route", "theta"],
                 ["table", "--max", "20", "--routes", "theta"],
                 ["verify", "--check", "theta-identity", "--max", "20"]):
        assert cli.main(argv) == 3, argv
        out, err = capsys.readouterr()
        assert "/" not in out
        assert err.startswith("error: theta combination gives ") and "/" in err


def _theta_builds(prec):
    return [("theta_coeffs", Q, prec) for Q in cli.DECOMPOSITION_FORMS]


def test_verify_builds_each_series_once(monkeypatch):
    # one build per series, at the n the first check to read it reads it
    # to, which covers every later read here: at the default bounds,
    # qseries and eta to 2000 and the reps to 498 (the theta column's
    # cap, above the lattice checks' 299), shared with the theta column;
    # the theta route is never counted one n at a time
    for argv, N, theta in ((["--max", "40"], 40, 40), ([], 2000, 498)):
        builds = _record_builds(monkeypatch, "sc_series", "eta_quotient_series",
                                "theta_coeffs", "sc7_from_thetas")
        code, out = run_cli("verify", *argv)
        assert code == 0 and out.count(": OK ") == len(cli.CHECKS)
        assert builds == [("sc_series", 7, N + 1),
                          ("eta_quotient_series", cli.SC7_ETA_QUOTIENT, N + 3),
                          *_theta_builds(theta + 3)], argv


def test_verify_builds_a_table_again_only_past_its_end(monkeypatch):
    # at 600, route-equivalence reads the theta column to its cap of 498
    # and theta-identity then reads it to 600: the theta series are built
    # a second time, longer, and the lattice checks' 598 is inside them
    builds = _record_builds(monkeypatch, "sc_series", "eta_quotient_series",
                            "theta_coeffs", "sc7_from_thetas")
    code, out = run_cli("verify", "--max", "600")
    assert code == 0 and out.count(": OK ") == len(cli.CHECKS)
    assert builds == [("sc_series", 7, 601), ("eta_quotient_series", cli.SC7_ETA_QUOTIENT, 603),
                      *_theta_builds(501), *_theta_builds(603)]


def test_verify_builds_the_enum_column_once(monkeypatch):
    # to the bound, up to route-equivalence's cap of 300 for enum, and
    # no n counted on its own
    for argv, N in ((["--max", "40"], 40), ([], 300)):
        builds = _record_builds(monkeypatch, "sc_count_column", "sc_count")
        code, out = run_cli("verify", *argv)
        assert code == 0 and out.count(": OK ") == len(cli.CHECKS)
        assert builds == [("sc_count_column", N, 7)], argv


def test_verify_computes_each_class_number_once(monkeypatch):
    # the checks ask for some D many times; the memo counts each D once
    from sc7core import eisenstein, quadforms

    asked, counted_D = [], []

    def recorded(real, calls):
        def wrapper(D, *args):
            calls.append(D)
            return real(D, *args)
        return wrapper

    for module in (cli, eisenstein, quadforms):
        monkeypatch.setattr(module, "hurwitz", recorded(module.hurwitz, asked))
    monkeypatch.setattr(quadforms, "_count_head", recorded(quadforms._count_head, counted_D))
    code, out = run_cli("verify", "--max", "40")
    assert code == 0 and out.count(": OK ") == len(cli.CHECKS)
    assert len(asked) > len(set(asked))
    assert sorted(counted_D) == sorted(set(asked))


def test_table_streams_rows(monkeypatch):
    # A reader gone before the first write: the table stops within one
    # chunk instead of computing every cell first.
    class ClosedPipe:
        writes = 0

        def write(self, text):
            self.writes += 1
            raise BrokenPipeError

    lines = []
    real = cli._json_line

    def counted(*fields):
        lines.append(fields[:2])
        return real(*fields)

    monkeypatch.setattr(cli, "_json_line", counted)
    chunks = []
    real_chunk = cli._chunk

    def recorded_chunk(routes, columns, lo, hi, line):
        chunks.append(lo)
        return real_chunk(routes, columns, lo, hi, line)

    monkeypatch.setattr(cli, "_chunk", recorded_chunk)
    pipe = ClosedPipe()
    monkeypatch.setattr(sys, "stdout", pipe)
    args = cli.build_parser().parse_args(
        ["table", "--max", str(3 * cli.CHUNK), "--routes", "qseries,eta", "--format", "json"])
    with pytest.raises(BrokenPipeError):
        args.func(args)
    assert pipe.writes == 1
    assert len(lines) <= 2 * cli.CHUNK  # of 2 * (3 * CHUNK + 1)
    assert chunks == [0]  # the rows of one chunk formatted, then the write failed

    # a class-number route computes at most one chunk of cells
    cells = []
    real_record = cli.record_for

    def recorded(n, route):
        cells.append((n, route))
        return real_record(n, route)

    monkeypatch.setattr(cli, "record_for", recorded)
    args = cli.build_parser().parse_args(
        ["table", "--max", str(3 * cli.CHUNK), "--routes", "qseries,theorem", "--format", "json"])
    with pytest.raises(BrokenPipeError):
        args.func(args)
    assert 0 < len(cells) <= cli.CHUNK  # of 3 * CHUNK + 1


def _ref_table(argv):
    """The per-cell table writer, as an oracle for `cmd_table`: each
    column route's cells read from its column and checked here, each
    class-number route's cells through `record_for`, written one by one
    through csv.writer or json.dumps.  Returns (exit code, stdout,
    stderr) with the exit codes of `cli.main`."""
    import csv
    import io

    from sc7core.arith import HypothesisViolation, InexactCount

    args = cli.build_parser().parse_args(argv)
    out = io.StringIO()
    try:
        routes = args.routes.split(",")
        for route in routes:
            cli._route(route)
        columns = {r: cli.ROUTES[r].table(args.max)
                   for r in dict.fromkeys(routes) if cli.ROUTES[r].table}
        writer = csv.writer(out, lineterminator="\n")
        if args.format == "csv":
            writer.writerow(["n", "route", "value", "D_n", "H"])
        for n in range(args.max + 1):
            for route in routes:
                if route in columns:
                    value, extras = columns[route][n], {}
                    if type(value) is not int or value < 0:
                        raise InexactCount(f"{route} route at n={n} gives {value}")
                else:
                    try:
                        _, _, value, extras = cli.record_for(n, route)
                    except HypothesisViolation:
                        continue
                if args.format == "json":
                    out.write(json.dumps({"n": n, "route": route,
                                          "value": value, **extras}) + "\n")
                else:
                    writer.writerow([str(n), route, str(value),
                                     str(extras.get("D_n", "")), str(extras.get("H", ""))])
    except InexactCount as exc:
        return 3, out.getvalue(), f"error: {exc}\n"
    except ValueError as exc:
        return 1, out.getvalue(), f"error: {exc}\n"
    return 0, out.getvalue(), ""


def _run_table(argv):
    """cli.main in process: (exit code, stdout, stderr)."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


ALL_ROUTES = "enum,qseries,eta,theta,theorem,cor2,qseries"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_matches_the_per_cell_writer(fmt):
    for N in (0, 1, cli.CHUNK - 1, cli.CHUNK, cli.CHUNK + 1):
        for routes in (ALL_ROUTES, "qseries,eta,theta"):
            argv = ["table", "--max", str(N), "--routes", routes, "--format", fmt]
            expected = _ref_table(argv)
            assert expected[0] == 0 and expected[1]
            assert _run_table(argv) == expected, argv


def _corrupt_eta(monkeypatch, n, value):
    real = cli.eta_quotient_series

    def corrupted(spec, prec):
        coeffs = list(real(spec, prec).coeffs)
        coeffs[n + 2] = value  # sc7(n) sits at q^(n+2)
        return SimpleNamespace(coeffs=tuple(coeffs))

    monkeypatch.setattr(cli, "eta_quotient_series", corrupted)


def _corrupt_qseries(monkeypatch, n, value):
    real = cli.sc_series

    def corrupted(t, prec):
        coeffs = list(real(t, prec).coeffs)
        coeffs[n] = value
        return SimpleNamespace(coeffs=tuple(coeffs))

    monkeypatch.setattr(cli, "sc_series", corrupted)


def _corrupt_theorem(monkeypatch, n, value):
    real = cli.sc7_from_class_number
    monkeypatch.setattr(cli, "sc7_from_class_number",
                        lambda m: value if m == n else real(m))


@pytest.mark.parametrize("value", [True, Fraction(1)])
def test_verify_checks_every_cell_it_reads(monkeypatch, capsys, value):
    # sc7(11) = 1, and both values compare equal to it: verify refuses
    # them as a count, with the line `sc7` prints, before any comparison
    _corrupt_eta(monkeypatch, 11, value)
    assert cli.main(["sc7", "11", "--route", "eta"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: eta route at n=11 gives {value}\n"
    assert cli.main(["verify", "--check", "route-equivalence", "--max", "20"]) == 3
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("corrupt, n, value", [
    (_corrupt_eta, 0, -1),
    (_corrupt_eta, 0, Fraction(1, 2)),
    (_corrupt_qseries, 5, -3),
    (_corrupt_qseries, 5, Fraction(7, 3)),
    (_corrupt_qseries, 5, True),
    (_corrupt_theorem, 9, -1),
])
def test_table_fault_prefix_matches_the_per_cell_writer(monkeypatch, fmt, corrupt, n, value):
    # a bad count in the second chunk: the same cells before it, the
    # same error line and exit 3 as cell by cell, and no cell after it
    # computed
    corrupt(monkeypatch, cli.CHUNK + n, value)
    argv = ["table", "--max", str(cli.CHUNK + 20),
            "--routes", "theorem,qseries,eta,cor2,eta,theta", "--format", fmt]
    expected = _ref_table(argv)
    assert expected[0] == 3 and expected[2].startswith("error: ") and str(value) in expected[2]
    real_record, computed = cli.record_for, []

    def recorded(n, route):
        computed.append(n)
        return real_record(n, route)

    monkeypatch.setattr(cli, "record_for", recorded)
    assert _run_table(argv) == expected
    assert max(computed) == cli.CHUNK + n


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("corrupt, n, value", [
    (_corrupt_eta, 3, Fraction(1, 2)),
    (_corrupt_qseries, 5, Fraction(7, 3)),
    (_corrupt_qseries, 5, 999),
    (_corrupt_qseries, 5, True),
    (_corrupt_eta, 0, 998),
])
def test_column_table_matches_the_per_cell_writer(monkeypatch, fmt, corrupt, n, value):
    # column routes only, one cell changed in the second chunk: a value
    # that is not an int ends the table as cell by cell does, and an int
    # that disagrees with the other routes prints in its own place
    corrupt(monkeypatch, cli.CHUNK + n, value)
    argv = ["table", "--max", str(cli.CHUNK + 20),
            "--routes", "qseries,eta,theta,eta", "--format", fmt]
    expected = _ref_table(argv)
    assert expected[0] == (0 if type(value) is int else 3)
    assert _run_table(argv) == expected


def test_row_format_keeps_the_line_text():
    # braces and percent signs in a line format print as they are
    template = cli._row_format(["a", "b"], lambda n, route, value, extras: f"{{{n}}}%{route}={value}\n")
    assert template % (1, 2, 3, 4) == "{1}%a=2\n{3}%b=4\n"


def test_table_refusal_prefix_matches_the_per_cell_writer(monkeypatch):
    # cor2 refuses a character sum too large in the second chunk: exit 1
    # after the same cells
    from sc7core import eisenstein

    monkeypatch.setattr(eisenstein, "COR2_MAX_D", 28 * (cli.CHUNK + 10))
    argv = ["table", "--max", str(cli.CHUNK + 40), "--routes", "qseries,cor2,eta"]
    expected = _ref_table(argv)
    assert expected[0] == 1 and "theorem" in expected[2]
    assert _run_table(argv) == expected


def test_class_number_route_rejects_a_non_integral_count(monkeypatch, capsys):
    # H = 1/3 gives sc7(9) = 1/12: exit 3 with an error line, never a count
    from fractions import Fraction

    from sc7core import eisenstein

    for module in (cli, eisenstein):
        monkeypatch.setattr(module, "hurwitz", lambda D: Fraction(1, 3))
    for argv in (["sc7", "9", "--route", "theorem"],
                 ["table", "--max", "20", "--routes", "theorem"],
                 ["verify", "--check", "route-equivalence", "--max", "20"]):
        assert cli.main(argv) == 3, argv
        out, err = capsys.readouterr()
        assert "1/12" not in out
        assert err.startswith("error: class number route at n=") and "1/12" in err


def test_vanishing_row_reports_an_integral_class_number(monkeypatch, capsys):
    # at n = 7 mod 8 the count reads no class number and H comes from
    # hurwitz(D_n); a non-integral H is refused, never printed as "p/q"
    from fractions import Fraction

    code, out = run_cli("sc7", "15", "--route", "theorem")
    assert code == 0 and out == '{"n": 15, "route": "theorem", "value": 0, "D_n": 119, "H": 10}\n'
    from sc7core import eisenstein

    monkeypatch.setattr(eisenstein, "hurwitz", lambda D: Fraction(1, 3))
    for route in ("theorem", "cor2"):
        assert cli.main(["sc7", "15", "--route", route]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: class number H(-119) at n=15 is 1/3")


def test_theorem_row_computes_the_class_number_once(monkeypatch):
    from sc7core import eisenstein

    calls = []
    real = cli.hurwitz

    def counted(D):
        calls.append(D)
        return real(D)

    for module in (cli, eisenstein):
        monkeypatch.setattr(module, "hurwitz", counted)
    for n in (9, 11, 15):  # n = 1 mod 4, 3 mod 8, 7 mod 8
        code, out = run_cli("sc7", str(n), "--route", "theorem")
        assert code == 0 and json.loads(out)["D_n"] == calls[-1]
    assert len(calls) == 3


FAKE_CLASS_NUMBER = """
import sys
from fractions import Fraction
from sc7core import cli, eisenstein
print(sys.flags.optimize)
cli.hurwitz = eisenstein.hurwitz = lambda D: Fraction(1, 3)
sys.exit(cli.main(["sc7", "9", "--route", "theorem"]))
"""


def _run_optimized(code):
    """Run `code` in a fresh `python -O` that imports this sc7core."""
    from pathlib import Path

    import sc7core

    src = str(Path(sc7core.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)


def test_class_number_count_check_survives_optimize():
    proc = _run_optimized(FAKE_CLASS_NUMBER)
    assert proc.stdout == "1\n"  # assert statements are stripped in this run
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: class number route at n=9")


def test_cor2_refuses_an_inexact_half_sum(monkeypatch, capsys):
    # at n = 11, D_n = 91 and chi(2) = -1, so S must be a multiple of 3;
    # a half sum off by one leaves a remainder: exit 3 and no count
    from sc7core import quadforms

    real = quadforms._half_character_sum
    monkeypatch.setattr(quadforms, "_half_character_sum", lambda D: real(D) + 1)
    assert cli.main(["sc7", "11", "--route", "cor2"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: half character sum at D=91")
    assert err.rstrip().endswith("not a multiple of 2 - chi(2) = 3")


FAKE_HALF_SUM = """
import sys
from sc7core import cli, quadforms
print(sys.flags.optimize)
real = quadforms._half_character_sum
quadforms._half_character_sum = lambda D: real(D) + 1
sys.exit(cli.main(["sc7", "11", "--route", "cor2"]))
"""


def test_half_sum_division_check_survives_optimize():
    proc = _run_optimized(FAKE_HALF_SUM)
    assert proc.stdout == "1\n"  # assert statements are stripped in this run
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: half character sum at D=91")


def test_cor2_refuses_a_character_row_too_large(monkeypatch, capsys):
    # D_n = 280000084 is ten times the limit; the refusal must come before
    # any sum is started
    from sc7core import eisenstein

    def unreachable(D):
        raise AssertionError("character sum started")

    monkeypatch.setattr(eisenstein, "dirichlet_hurwitz", unreachable)
    assert cli.main(["sc7", "10000001", "--route", "cor2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "theorem" in err


def test_cor2_limit_refuses_only_a_character_sum(monkeypatch, capsys):
    from sc7core import eisenstein

    monkeypatch.setattr(eisenstein, "COR2_MAX_D", 308)
    assert json.loads(run_cli("sc7", "9", "--route", "cor2")[1])["D_n"] == 308
    monkeypatch.setattr(eisenstein, "COR2_MAX_D", 307)
    assert cli.main(["sc7", "9", "--route", "cor2"]) == 1
    assert "theorem" in capsys.readouterr().err
    monkeypatch.setattr(eisenstein, "COR2_MAX_D", 10)
    assert json.loads(run_cli("sc7", "7", "--route", "cor2")[1])["value"] == 0  # 7 mod 8
    assert cli.main(["sc7", "25", "--route", "cor2"]) == 2  # -756 is not fundamental
    assert cli.main(["sc7", "19", "--route", "cor2"]) == 2  # 5 mod 7


def test_cor2_row_builds_no_reduced_forms(monkeypatch):
    # H is read back from the character-sum count; only the vanishing
    # case, which has no sum, counts the forms of -D_n for its H
    from sc7core import eisenstein, quadforms

    calls = []

    def counted(real):
        def wrapper(D):
            calls.append(D)
            return real(D)
        return wrapper

    for module in (cli, eisenstein, quadforms):
        monkeypatch.setattr(module, "hurwitz", counted(module.hurwitz))
    monkeypatch.setattr(quadforms, "reduced_forms", counted(quadforms.reduced_forms))
    for n, H in ((9, 8), (11, 2), (13, 8)):  # 1 mod 4, 3 mod 8, 5 mod 8
        code, out = run_cli("sc7", str(n), "--route", "cor2")
        assert code == 0 and json.loads(out)["H"] == H
    assert calls == []
    code, out = run_cli("sc7", "15", "--route", "cor2")  # 7 mod 8
    assert code == 0 and calls == [json.loads(out)["D_n"]]


def test_theorem_and_cor2_rows_report_the_same_class_number():
    code, out = run_cli("table", "--max", "2000", "--routes", "theorem,cor2",
                        "--format", "json")
    assert code == 0
    rows: dict = {}
    for line in out.splitlines():
        rec = json.loads(line)
        rows.setdefault(rec["n"], {})[rec["route"]] = rec
    both = [r for r in rows.values() if len(r) == 2]
    assert len(both) > 300
    for r in both:
        assert ((r["theorem"]["D_n"], r["theorem"]["H"])
                == (r["cor2"]["D_n"], r["cor2"]["H"])), r


@pytest.mark.parametrize("value", [-1, True])
def test_every_emitted_count_is_checked(monkeypatch, capsys, value):
    # a negative or bool coefficient from a series route never prints as
    # a count
    real = cli.eta_quotient_series

    def corrupted(spec, prec):
        coeffs = list(real(spec, prec).coeffs)
        coeffs[11] = value  # sc7(9) sits at q^11
        return type(real(spec, 1))(coeffs)

    monkeypatch.setattr(cli, "eta_quotient_series", corrupted)
    assert cli.main(["sc7", "9", "--route", "eta"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: eta route at n=9 gives {value}\n"
    assert cli.main(["table", "--max", "20", "--routes", "eta"]) == 3
    out, err = capsys.readouterr()
    assert [line.split(",")[0] for line in out.splitlines()] == ["n", *map(str, range(9))]
    assert err == f"error: eta route at n=9 gives {value}\n"
