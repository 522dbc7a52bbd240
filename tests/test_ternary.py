import os
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

import sc7core
from sc7core.arith import InexactCount
from sc7core.partitions import sc_count
from sc7core.qseries import QSeries
from sc7core.ternary import (
    DECOMPOSITION_FORMS,
    DECOMPOSITION_WEIGHTS,
    TernaryQF,
    _interval,
    rep_count,
    sc7_from_reps,
    sc7_from_thetas,
    theta_coeffs,
)


# Reference kernels: the box sweeps that rep_count and theta_coeffs
# replaced, visiting every lattice point of the completed-squares box.

def _ref_rep_count(Q, m):
    d1, d2, d3, l12, l13, l23 = Q._ldl()
    budget = Fraction(m)
    zlo, zhi = _interval(Fraction(0), d3, budget)
    count = 0
    for z in range(zlo - 1, zhi + 2):
        rem2 = budget - d3 * z * z
        ylo, yhi = _interval(l23 * z, d2, rem2)
        for y in range(ylo - 1, yhi + 2):
            rem1 = rem2 - d2 * (y + l23 * z) ** 2
            xlo, xhi = _interval(l12 * y + l13 * z, d1, rem1)
            for x in range(xlo - 1, xhi + 2):
                if Q(x, y, z) == m:
                    count += 1
    return count


def _ref_theta_coeffs(Q, prec):
    d1, d2, d3, l12, l13, l23 = Q._ldl()
    cap = Fraction(prec - 1)
    counts = [0] * prec
    zlo, zhi = _interval(Fraction(0), d3, cap)
    for z in range(zlo, zhi + 1):
        rem2 = cap - d3 * z * z
        ylo, yhi = _interval(l23 * z, d2, rem2)
        for y in range(ylo, yhi + 1):
            rem1 = rem2 - d2 * (y + l23 * z) ** 2
            xlo, xhi = _interval(l12 * y + l13 * z, d1, rem1)
            for x in range(xlo, xhi + 1):
                counts[Q(x, y, z)] += 1
    return counts


# Forms with e, f coprime, so that B = e z + f y meets every residue
# class mod 2a: between them every residue r in (-a, a] for a = 1..5.
MIXED_FORMS = (
    TernaryQF(1, 2, 3, 1, 1, 1),
    TernaryQF(2, 3, 4, 1, 1, 1),
    TernaryQF(2, 2, 3, -1, -1, 1),
    TernaryQF(3, 3, 5, 1, 1, 2),
    TernaryQF(3, 4, 4, 0, -2, -1),
    TernaryQF(4, 5, 6, 2, 1, 3),
    TernaryQF(5, 6, 7, 1, 3, 2),
)


def test_mixed_forms_meet_every_residue():
    # (y, z) with |y|, |z| <= 2 all lie in the box at precision 200.
    for Q in MIXED_FORMS:
        assert Q.is_positive_definite()
        a = Q.a
        residues = set()
        for y in range(-2, 3):
            for z in range(-2, 3):
                r = (Q.e * z + Q.f * y) % (2 * a)
                residues.add(r - 2 * a if r > a else r)
        assert residues == set(range(-a + 1, a + 1)), Q


def test_theta_coeffs_matches_reference():
    for Q in DECOMPOSITION_FORMS + MIXED_FORMS:
        for prec in (1, 2, 3, 401):
            assert list(theta_coeffs(Q, prec).coeffs) == _ref_theta_coeffs(Q, prec), (Q, prec)


def test_rep_count_matches_reference():
    # Every m < 200 against the reference sweep's table; the reference
    # search itself costs O(m^1.5) per call, so it is asked only at a few m.
    for Q in DECOMPOSITION_FORMS + MIXED_FORMS:
        table = _ref_theta_coeffs(Q, 200)
        for m in range(200):
            assert rep_count(Q, m) == table[m], (Q, m)
        for m in (*range(12), 97, 199):
            assert rep_count(Q, m) == _ref_rep_count(Q, m), (Q, m)


def test_decomposition_constants():
    assert DECOMPOSITION_FORMS == (
        TernaryQF(1, 1, 2, -1, 0, 0),
        TernaryQF(1, 4, 8, -4, 0, 0),
        TernaryQF(2, 2, 3, 2, 2, 2),
    )
    assert DECOMPOSITION_WEIGHTS == (Fraction(1, 14), Fraction(-1, 7), Fraction(1, 14))
    for Q in DECOMPOSITION_FORMS:
        assert Q.is_positive_definite()


def test_ternary_call():
    Q = TernaryQF(1, 1, 2, -1, 0, 0)
    assert Q(1, 0, 0) == 1
    assert Q(0, 1, 0) == 1
    assert Q(0, 0, 1) == 2
    assert Q(0, 1, 1) == 2  # the -yz cross term
    assert Q(1, 1, 1) == 3


def test_not_positive_definite():
    assert not TernaryQF(1, 1, -1, 0, 0, 0).is_positive_definite()
    assert not TernaryQF(0, 1, 1, 0, 0, 0).is_positive_definite()
    assert not TernaryQF(1, 1, 1, 4, 0, 0).is_positive_definite()
    with pytest.raises(ValueError):
        rep_count(TernaryQF(1, 1, -1, 0, 0, 0), 5)


def test_rep_count_brute_force():
    # accumulate all small values over a box that certainly contains every
    # solution: the least eigenvalue of each decomposition form is > 1/2,
    # so Q = m forces every coordinate below sqrt(2m)
    limit = 40
    box = isqrt(2 * limit) + 2
    for Q in DECOMPOSITION_FORMS:
        counts = [0] * (limit + 1)
        for x in range(-box, box + 1):
            for y in range(-box, box + 1):
                for z in range(-box, box + 1):
                    v = Q(x, y, z)
                    if v <= limit:
                        counts[v] += 1
        for m in range(limit + 1):
            assert rep_count(Q, m) == counts[m]


def test_rep_count_known_values():
    Q1, Q2, Q3 = DECOMPOSITION_FORMS
    assert rep_count(Q1, 0) == 1
    assert rep_count(Q1, 1) == 4
    assert rep_count(Q2, 1) == 2
    assert rep_count(Q3, 1) == 0
    assert rep_count(Q1, 13) == 16
    with pytest.raises(ValueError):
        rep_count(Q1, -1)


def test_theta_matches_rep_count():
    for Q in DECOMPOSITION_FORMS:
        th = theta_coeffs(Q, 81)
        assert isinstance(th, QSeries)
        assert th.precision == 81
        assert th[0] == 1
        for m in range(81):
            assert th[m] == rep_count(Q, m)


def test_sc7_from_thetas_matches_enumeration():
    for n in range(61):
        value = sc7_from_thetas(n)
        assert type(value) is int
        assert value == sc_count(n, 7)


def test_sc7_from_reps_is_checked_exact():
    # R(n + 2) of the three forms at n = 9: (16 - 2*0 + 12)/14 = 2
    reps = [rep_count(Q, 11) for Q in DECOMPOSITION_FORMS]
    assert reps == [16, 0, 12]
    assert sc7_from_reps(reps) == 2 and type(sc7_from_reps(reps)) is int
    with pytest.raises(InexactCount, match="29/14"):
        sc7_from_reps([17, 0, 12])
    with pytest.raises(InexactCount, match="-1"):
        sc7_from_reps([0, 7, 0])


def test_sc7_from_thetas_spot():
    assert sc7_from_thetas(9) == 2
    assert sc7_from_thetas(11) == 1
    assert sc7_from_thetas(25) == 4


# Narrows every box interval by one on each side, so that rep_count's
# one-layer-beyond scan finds solutions outside the box it was given.
NARROW_BOX = """
import sys
from sc7core import ternary

interval = ternary._interval


def narrow(center, dcoef, rem):
    lo, hi = interval(center, dcoef, rem)
    return lo + 1, hi - 1


ternary._interval = narrow
print(sys.flags.optimize)
ternary.sc7_from_thetas(9)
"""


def test_box_bound_check_survives_optimize():
    src = str(Path(sc7core.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", NARROW_BOX],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout == "1\n"  # assert statements are stripped in this run
    assert proc.returncode == 1
    assert "RuntimeError: box bound violated at" in proc.stderr


@pytest.mark.parametrize("layer", [1, 2])
def test_box_bound_check_covers_each_layer(monkeypatch, layer):
    # Narrow only the y intervals (coefficient d2 = 1 in Q1) or only the
    # z interval (d3 = 7/4): solutions at the extreme y or z then land on
    # the extra layer beyond it.
    from sc7core import ternary

    Q1 = DECOMPOSITION_FORMS[0]
    dcoef_narrowed = Q1._ldl()[layer]
    interval = ternary._interval

    def narrow(center, dcoef, rem):
        lo, hi = interval(center, dcoef, rem)
        return (lo + 1, hi - 1) if dcoef == dcoef_narrowed else (lo, hi)

    monkeypatch.setattr(ternary, "_interval", narrow)
    with pytest.raises(RuntimeError, match="box bound violated at"):
        rep_count(Q1, 11)
