"""Mutant runner: each catalogued mutant must be killed by its tests.

A mutant is one exact text replacement in one file under src/.  For each
entry of MUTANTS the runner copies src/ to a temporary directory, makes
the replacement there (the repository is never touched), runs the
entry's tier-1 tests against the copy with pytest, and checks that every
one of them fails.  Before any mutant, the same tests run once against
an unchanged copy and must all pass, so a test that fails anyway kills
nothing.

An entry whose old text does not occur exactly once in its file is
reported STALE and counts as a failure, never a skip: the code moved,
and the entry must be rewritten to follow it.  So does an entry whose
tests pytest cannot run (ERROR), such as a test that was renamed.

Usage, from anywhere, stdlib and pytest only (pytest does not collect
this file: its name does not start with test_):

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # the named entries

Exit code 0 when every mutant is killed by all of its tests, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/sc7core
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = (
    # the class-number theorem, stated once in eisenstein
    Mutant("vanishing residue 7 -> 3", "eisenstein.py",
           "    if n % 8 == 7:\n        return 0\n",
           "    if n % 8 == 3:\n        return 0\n",
           ("tests/test_eisenstein.py::test_sc7_from_class_number",
            "tests/test_eisenstein.py::test_class_number_count_states_the_domain_once")),
    Mutant("divisor 2^epsilon", "eisenstein.py",
           "    divisor = 2 ** (d.epsilon + 1)\n",
           "    divisor = 2 ** d.epsilon\n",
           ("tests/test_eisenstein.py::test_sc7_from_class_number",
            "tests/test_eisenstein.py::test_class_number_count_is_exact_integer_division")),
    Mutant("no n % 7 check", "eisenstein.py",
           "    if n % 7 == 5:\n",
           "    if False:\n",
           ("tests/test_eisenstein.py::test_sc7_from_class_number",
            "tests/test_cli.py::test_sc7_hypothesis_violations_exit_2")),
    Mutant("inverse at 2^epsilon", "eisenstein.py",
           '"H": value * 2 ** (d.epsilon + 1)}',
           '"H": value * 2 ** d.epsilon}',
           ("tests/test_cli.py::test_sc7_theorem_route",
            "tests/test_cli.py::test_cor2_row_builds_no_reduced_forms")),
    Mutant("cor2 refusal before is_fundamental", "eisenstein.py",
           '''    if not is_fundamental(-D):
        raise HypothesisViolation(f"-{D} is not a fundamental discriminant (n={n})")
    if D > COR2_MAX_D:
        raise ValueError(f"cor2 needs a character sum of length D_n = {D} at n={n}, "
                         f"above its limit {COR2_MAX_D}; use --route theorem")
''',
           '''    if D > COR2_MAX_D:
        raise ValueError(f"cor2 needs a character sum of length D_n = {D} at n={n}, "
                         f"above its limit {COR2_MAX_D}; use --route theorem")
    if not is_fundamental(-D):
        raise HypothesisViolation(f"-{D} is not a fundamental discriminant (n={n})")
''',
           ("tests/test_cli.py::test_cor2_limit_refuses_only_a_character_sum",)),
    Mutant("completed square E = 4ad - ef", "ternary.py",
           "4 * a * d - 2 * e * f,",
           "4 * a * d - e * f,",
           ("tests/test_ternary.py::test_box_is_the_completed_squares_box",
            "tests/test_ternary.py::test_rep_count_matches_the_box_sweep")),
    # rep_count over half the lattice
    Mutant("rep_count: no edge scan at z = 0", "ternary.py",
           "        count = line(0, 0, yhi + 1, 0, yhi)\n",
           "        count = line(0, 0, yhi, 0, yhi)\n",
           ("tests/test_ternary.py::test_box_bound_check_raises_where_the_box_sweep_raises[layers0]",
            "tests/test_ternary.py::test_box_bound_check_raises_where_the_box_sweep_raises[layers2]")),
    Mutant("rep_count: no row at z = zmax + 1", "ternary.py",
           "    return count + line(zmax + 1, ylo - 1, yhi + 1, 1, 0)\n",
           "    return count\n",
           ("tests/test_ternary.py::test_box_bound_check_covers_each_layer[2]",
            "tests/test_ternary.py::test_box_bound_check_survives_optimize")),
    Mutant("rep_count: z = zmax skipped", "ternary.py",
           "    for z in range(1, zmax + 1):\n",
           "    for z in range(1, zmax):\n",
           ("tests/test_ternary.py::test_rep_count_matches_the_box_sweep",)),
    Mutant("rep_count: origin weighed twice", "ternary.py",
           "count += 1 if y == z == 0 else 2",
           "count += 2",
           ("tests/test_ternary.py::test_rep_count_matches_the_box_sweep",)),
    Mutant("rep_count: square set one short", "ternary.py",
           "    roots = range(isqrt(am4) + 1)\n",
           "    roots = range(isqrt(am4))\n",
           ("tests/test_ternary.py::test_rep_count_at_the_largest_square",
            "tests/test_ternary.py::test_rep_count_matches_reference")),
    # the chain walk shared by sc_count and sc_count_column
    Mutant("_heads: bisect_left cuts", "partitions.py",
           "from bisect import bisect_right\n",
           "from bisect import bisect_left as bisect_right\n",
           ("tests/test_partitions.py::test_heads_match_the_recursive_walk",
            "tests/test_partitions.py::test_sc_count_known_values",
            "tests/test_partitions.py::test_sc_count_matches_reference_walk")),
    Mutant("_heads: second table cut at N", "partitions.py",
           "second[:bisect_right(masses, N - m)]",
           "second[:bisect_right(masses, N)]",
           ("tests/test_partitions.py::test_heads_match_the_recursive_walk",)),
    # the t-core test on the Frobenius coordinates of the diagonal hooks
    Mutant("hook test: a > t", "partitions.py",
           "a - t in frobenius if a >= t else",
           "a - t in frobenius if a > t else",
           ("tests/test_partitions.py::test_hook_test_matches_the_rebuilt_partition",)),
    Mutant("hook test: t - a", "partitions.py",
           "t - 1 - a not in frobenius",
           "t - a not in frobenius",
           ("tests/test_partitions.py::test_hook_test_matches_the_rebuilt_partition",
            "tests/test_partitions.py::test_sc_count_known_values",
            "tests/test_partitions.py::test_sc_count_matches_reference_walk")),
    # the packed-product coefficient bound
    Mutant("_bound: len(f) for sum |m|", "qseries.py",
           "prod(sum(abs(m) for _, m in f) for f in factors)",
           "prod(len(f) for f in factors)",
           ("tests/test_qseries.py::test_bound_by_hand",
            "tests/test_qseries.py::test_product_matches_schoolbook[17]")),
    Mutant("_bound: max(row) for max |row|", "qseries.py",
           "max(map(abs, set(row)))",
           "max(set(row))",
           ("tests/test_qseries.py::test_bound_by_hand",
            "tests/test_qseries.py::test_product_matches_schoolbook[17]")),
    # the eta quotient divided in x = q^g, g the gcd of the denominator scales
    Mutant("eta split: part j written to residue j + 1", "qseries.py",
           "            c[j::g] = _unpack(",
           "            c[(j + 1) % g::g] = _unpack(",
           ("tests/test_qseries.py::test_sc7_quotient_holds_at_the_first_width",
            "tests/test_qseries.py::test_eta_quotient_divides_in_the_denominator_variable[spec2-4]")),
    Mutant("eta split: body // g slots", "qseries.py",
           "    n = -(-body // g)\n",
           "    n = body // g\n",
           ("tests/test_qseries.py::test_sc7_inverse_runs_over_a_quarter_of_the_body",
            "tests/test_qseries.py::test_eta_quotient_divides_in_the_denominator_variable[spec1-3]",
            "tests/test_qseries.py::test_eta_quotient_divides_in_the_denominator_variable[spec2-4]")),
    Mutant("eta split: g over the numerator's scales", "qseries.py",
           "if exponent < 0)) or 1",
           "if exponent > 0)) or 1",
           ("tests/test_qseries.py::test_sc7_quotient_holds_at_the_first_width",
            "tests/test_qseries.py::test_sc7_inverse_runs_over_a_quarter_of_the_body")),
    # the eta quotient's width loop: the division starts at the numerator's
    # width, and c is checked by multiplying it back on the shared kernel
    Mutant("eta loop: division starts at 2 bytes", "qseries.py",
           "    k = _packed_width(_bound([(numerator, [])]))\n",
           "    k = 2\n",
           ("tests/test_qseries.py::test_eta_quotient_matches_reference_in_wide_slots",)),
    Mutant("eta loop: division starts at the numerator's proved bound", "qseries.py",
           "    k = _packed_width(_bound([(numerator, [])]))\n",
           "    k = _packed_width(_bound([([1], num)]))\n",
           ("tests/test_qseries.py::test_sc7_quotient_holds_at_the_first_width",
            "tests/test_qseries.py::test_sc7_numerator_packed_once[40003-2-80]",
            "tests/test_qseries.py::test_eta_quotient_divides_in_the_denominator_variable[spec4-12]")),
    Mutant("eta check: read back at the division width", "qseries.py",
           "        if _product([(c, den)], body) == numerator:\n",
           "        if _unpack(_packed(_pack(c, k), den, k, body), k, body) == numerator:\n",
           ("tests/test_qseries.py::test_eta_quotient_matches_reference_in_wide_slots",)),
    Mutant("eta loop: k quadruples", "qseries.py",
           "        k = min(2 * k, last)\n",
           "        k = min(4 * k, last)\n",
           ("tests/test_qseries.py::test_eta_quotient_matches_reference_in_wide_slots",
            "tests/test_qseries.py::test_eta_quotient_check_alone_rejects_a_faulty_split")),
    # the design rules' cases
    Mutant("exit codes: ValueError first", "cli.py",
           "_EXIT_CODES = {HypothesisViolation: 2, InexactCount: 3, ValueError: 1}",
           "_EXIT_CODES = {ValueError: 1, HypothesisViolation: 2, InexactCount: 3}",
           ("tests/test_cli.py::test_sc7_hypothesis_violations_exit_2",)),
    Mutant("closed R table, form 3", "eisenstein.py",
           "    3: (3, 6, 0),\n",
           "    3: (2, 6, 0),\n",
           ("tests/test_eisenstein.py::test_closed_rep_count_matches_lattice",
            "tests/test_acceptance.py::test_criterion_7_closed_r_tables")),
    Mutant("hurwitz_scaled: sigma1(p^(k-1))", "quadforms.py",
           "        sigma = sigma1(p**k)\n",
           "        sigma = sigma1(p**(k - 1))\n",
           ("tests/test_quadforms.py::test_hurwitz_scaled_matches_direct",
            "tests/test_acceptance.py::test_criterion_6_cohen_scaling")),
    Mutant("roots memo: -D mod p for -D mod q", "quadforms.py",
           "        ys = _roots_mod_prime_power(-D % q, p, q)\n",
           "        ys = _roots_mod_prime_power(-D % p, p, q)\n",
           ("tests/test_quadforms.py::test_reduced_forms_matches_reference_below_3000",
            "tests/test_quadforms.py::test_hurwitz_matches_weighted_forms_below_5000",
            "tests/test_quadforms.py::test_hurwitz_golden_values")),
    Mutant("_count_head: N(2^(v+1))", "quadforms.py",
           "_root_count(D, 2, v + 2) // 2",
           "_root_count(D, 2, v + 1) // 2",
           ("tests/test_quadforms.py::test_count_head_matches_lifted_roots",
            "tests/test_quadforms.py::test_hurwitz_golden_values")),
    Mutant("tail weight 1/2 at (a, 0, a) as 1/3", "quadforms.py",
           "                sixths += 3\n",
           "                sixths += 2\n",
           ("tests/test_quadforms.py::test_hurwitz_matches_weighted_forms_below_5000",
            "tests/test_quadforms.py::test_hurwitz_golden_values",
            "tests/test_quadforms.py::test_dirichlet_matches_forms")),
    Mutant("is_prime: n >= 0", "arith.py",
           "    return n > 1 and factorize(n) == [(n, 1)]\n",
           "    return n >= 0 and factorize(n) == [(n, 1)]\n",
           ("tests/test_arith.py::test_is_prime_against_sieve",)),
    Mutant("is_prime: n > 2", "arith.py",
           "    return n > 1 and factorize(n) == [(n, 1)]\n",
           "    return n > 2 and factorize(n) == [(n, 1)]\n",
           ("tests/test_arith.py::test_is_prime_against_sieve",
            "tests/test_arith.py::test_val_decompose")),
)


def _failed(src: Path, tests, report: Path) -> set:
    """Run `tests` with sc7core imported from `src`; the set of those
    that did not pass.  Raises RuntimeError if pytest did not run them
    all (a missing test, a collection error)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           f"--junitxml={report}", *tests],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1) or not report.exists():
        raise RuntimeError(f"pytest exit code {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    ran, failed = set(), set()
    for case in ET.parse(report).iter("testcase"):
        module = case.get("classname", "").replace(".", "/")
        node = f"{module}.py::{case.get('name')}"
        ran.add(node)
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add(node)
    if ran != set(tests):
        raise RuntimeError(f"asked for {sorted(tests)}, pytest ran {sorted(ran)}")
    return failed


def _copy(work: Path) -> Path:
    src = work / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 1
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tests = sorted({t for m in chosen for t in m.tests})
        try:
            failed = _failed(_copy(tmp / "clean"), tests, tmp / "clean.xml")
        except RuntimeError as exc:
            print(f"ERROR on unchanged code: {exc}")
            return 1
        if failed:
            print(f"FAIL on unchanged code, so they kill nothing: {sorted(failed)}")
            return 1
        for i, m in enumerate(chosen):
            work = tmp / f"m{i}"
            src = _copy(work)
            target = src / "sc7core" / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                print(f"STALE     {m.name}: old text occurs {text.count(m.old)} times in {m.path}")
                ok = False
                continue
            target.write_text(text.replace(m.old, m.new))
            try:
                survivors = sorted(set(m.tests) - _failed(src, m.tests, work / "report.xml"))
            except RuntimeError as exc:
                print(f"ERROR     {m.name}: {exc}")
                ok = False
                continue
            if survivors:
                print(f"SURVIVED  {m.name}: passes {', '.join(survivors)}")
                ok = False
            else:
                print(f"killed    {m.name}")
    print(f"{len(chosen)} mutants, {'all killed' if ok else 'NOT all killed'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
