import os
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

import sc7core
from sc7core.partitions import sc_count
from sc7core.qseries import QSeries
from sc7core.ternary import (
    DECOMPOSITION_FORMS,
    DECOMPOSITION_WEIGHTS,
    TernaryQF,
    rep_count,
    sc7_from_thetas,
    theta_coeffs,
)


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
        assert value.denominator == 1
        assert value == sc_count(n, 7)


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
