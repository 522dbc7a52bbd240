import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest

import sc7core
from sc7core.arith import InexactCount
from sc7core.eisenstein import sc7_from_class_number
from sc7core.partitions import sc_count
from sc7core.qseries import QSeries, _mul_packed, _pack, _packed_width, _unpack, _x_terms
from sc7core.ternary import (
    DECOMPOSITION_FORMS,
    DECOMPOSITION_WEIGHTS,
    TernaryQF,
    rep_count,
    sc7_from_rep_columns,
    sc7_from_thetas,
    theta_coeffs,
)


# The box of the reference kernels comes from completing squares in
# Fraction arithmetic, independently of TernaryQF._box: the Gram matrix
# G of Q (half-integral off-diagonal) is L^T diag(d1, d2, d3) L with L
# unit upper triangular, so that
#     Q(x,y,z) = d1 (x + l12 y + l13 z)^2 + d2 (y + l23 z)^2 + d3 z^2,
# and each square is bounded by what the outer ones leave of the budget.

def _ref_ldl(Q):
    """Exact LDL data (d1, d2, d3, l12, l13, l23) of the Gram matrix of Q;
    None unless Q is positive definite."""
    g11, g22, g33 = Fraction(Q.a), Fraction(Q.b), Fraction(Q.c)
    g12, g13, g23 = Fraction(Q.f, 2), Fraction(Q.e, 2), Fraction(Q.d, 2)
    d1 = g11
    if d1 <= 0:
        return None
    l12 = g12 / d1
    l13 = g13 / d1
    d2 = g22 - d1 * l12 * l12
    if d2 <= 0:
        return None
    l23 = (g23 - d1 * l12 * l13) / d2
    d3 = g33 - d1 * l13 * l13 - d2 * l23 * l23
    if d3 <= 0:
        return None
    return d1, d2, d3, l12, l13, l23


def _interval(center, dcoef, rem):
    # integer v with dcoef*(v + center)^2 <= rem; empty interval if rem < 0.
    # (vB + A)^2 <= rem/dcoef * B^2 with center = A/B reduces to an isqrt.
    if rem < 0:
        return 0, -1
    bound = rem / dcoef
    A, B = center.numerator, center.denominator
    s = isqrt(bound.numerator * B * B // bound.denominator)
    return -((s + A) // B), (s - A) // B


# Reference kernels: the box sweeps that rep_count and theta_coeffs
# replaced, visiting every lattice point of the completed-squares box.

def _ref_rep_count(Q, m):
    d1, d2, d3, l12, l13, l23 = _ref_ldl(Q)
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


def _ref_lattice_theta_coeffs(Q, prec):
    d1, d2, d3, l12, l13, l23 = _ref_ldl(Q)
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


def _ref_theta_coeffs(Q, prec):
    """The (y, z) sweep that `theta_coeffs` replaced: one Python step per
    point of the box, adding each (y, z) to its residue row at C'."""
    if prec < 1:
        raise ValueError("precision must be positive")
    zmax, y_range = Q._box(prec - 1)
    a, b, c, d, e, f = Q.a, Q.b, Q.c, Q.d, Q.e, Q.f
    rows: dict = {}
    for z in range(-zmax, zmax + 1):
        ylo, yhi = y_range(z)
        for y in range(ylo, yhi + 1):
            B = e * z + f * y
            k, r = divmod(B, 2 * a)
            if r > a:
                k, r = k + 1, r - 2 * a
            low = b * y * y + c * z * z + d * y * z - a * k * k - r * k
            if low < prec:
                row = rows.get(r)
                if row is None:
                    row = rows[r] = [0] * prec
                row[low] += 1
    terms = {r: _x_terms(a, r, prec) for r in rows}
    k = _packed_width(sum(sum(terms[r].values()) * max(row) for r, row in rows.items()))
    total = sum(_mul_packed(_pack(row, k), terms[r].items(), k, prec) for r, row in rows.items())
    return QSeries(_unpack(total, k, prec))


def _ref_box_rep_count(Q, m):
    """The (y, z) sweep that `rep_count` replaced: the whole box of
    Q._box(m) plus one layer beyond every edge, one Python step and one
    isqrt per point, raising RuntimeError for a root on the extra layer."""
    if m < 0:
        raise ValueError(f"need a non-negative target, got {m}")
    zmax, y_range = Q._box(m)
    a, b, c, d, e, f = Q.a, Q.b, Q.c, Q.d, Q.e, Q.f
    count = 0
    for z in range(-zmax - 1, zmax + 2):
        ylo, yhi = y_range(z)
        for y in range(ylo - 1, yhi + 2):
            B = e * z + f * y
            disc = B * B - 4 * a * (b * y * y + c * z * z + d * y * z - m)
            if disc < 0:
                continue
            s = isqrt(disc)
            if s * s != disc:
                continue
            for top in {-B - s, -B + s}:  # one root when s = 0
                if top % (2 * a) == 0:
                    if not (-zmax <= z <= zmax and ylo <= y <= yhi):
                        x = top // (2 * a)
                        raise RuntimeError(f"box bound violated at {(x, y, z)} for {Q} = {m}")
                    count += 1
    return count


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
        assert _ref_ldl(Q) is not None
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
            assert list(theta_coeffs(Q, prec).coeffs) == _ref_lattice_theta_coeffs(Q, prec), (Q, prec)


# Forms with e, f != 0 and a >= 2: the lines of theta_coeffs step y by
# h = 2a / gcd(f, 2a) > 1, and several residues r occur.
SWEEP_FORMS = (
    TernaryQF(3, 5, 7, 1, 2, 3),
    TernaryQF(5, 3, 4, -1, 3, -2),
    TernaryQF(2, 3, 5, 1, 1, 1),
)


def _random_forms(seed, count):
    rng = random.Random(seed)
    forms = []
    while len(forms) < count:
        Q = TernaryQF(*(rng.randint(1, 12) for _ in range(3)),
                      *(rng.randint(-8, 8) for _ in range(3)))
        if _ref_ldl(Q) is not None:
            forms.append(Q)
    return forms


def test_theta_coeffs_matches_the_row_sweep():
    for Q in SWEEP_FORMS:
        assert _ref_ldl(Q) is not None and Q.a >= 2 and Q.e and Q.f
        assert 2 * Q.a // gcd(Q.f, 2 * Q.a) > 1
    for Q in DECOMPOSITION_FORMS + SWEEP_FORMS + MIXED_FORMS:
        for prec in (1, 2, 3, 50, 2001):
            assert theta_coeffs(Q, prec).coeffs == _ref_theta_coeffs(Q, prec).coeffs, (Q, prec)
    for Q in _random_forms(23, 40):
        for prec in (1, 7, 300):
            assert theta_coeffs(Q, prec).coeffs == _ref_theta_coeffs(Q, prec).coeffs, (Q, prec)


def test_rep_count_matches_reference():
    # Every m < 200 against the reference sweep's table; the reference
    # search itself costs O(m^1.5) per call, so it is asked only at a few m.
    for Q in DECOMPOSITION_FORMS + MIXED_FORMS:
        table = _ref_lattice_theta_coeffs(Q, 200)
        for m in range(200):
            assert rep_count(Q, m) == table[m], (Q, m)
        for m in (*range(12), 97, 199):
            assert rep_count(Q, m) == _ref_rep_count(Q, m), (Q, m)


def test_rep_count_matches_the_box_sweep():
    rng = random.Random(29)
    forms = DECOMPOSITION_FORMS + MIXED_FORMS + SWEEP_FORMS + tuple(_random_forms(29, 20))
    for Q in forms:
        for m in (*range(300), *(rng.randrange(300, 5001) for _ in range(20))):
            assert rep_count(Q, m) == _ref_box_rep_count(Q, m), (Q, m)


def test_rep_count_at_the_largest_square():
    # At m = a k^2 the point (+-k, 0, 0) has disc exactly 4am, the largest
    # square that rep_count looks up.
    for Q in DECOMPOSITION_FORMS + MIXED_FORMS:
        for k in range(21):
            m = Q.a * k * k
            assert rep_count(Q, m) == _ref_box_rep_count(Q, m), (Q, m)


def test_decomposition_constants():
    assert DECOMPOSITION_FORMS == (
        TernaryQF(1, 1, 2, -1, 0, 0),
        TernaryQF(1, 4, 8, -4, 0, 0),
        TernaryQF(2, 2, 3, 2, 2, 2),
    )
    assert DECOMPOSITION_WEIGHTS == (Fraction(1, 14), Fraction(-1, 7), Fraction(1, 14))
    for Q in DECOMPOSITION_FORMS:
        assert _ref_ldl(Q) is not None


def test_ternary_call():
    Q = TernaryQF(1, 1, 2, -1, 0, 0)
    assert Q(1, 0, 0) == 1
    assert Q(0, 1, 0) == 1
    assert Q(0, 0, 1) == 2
    assert Q(0, 1, 1) == 2  # the -yz cross term
    assert Q(1, 1, 1) == 3


def test_not_positive_definite():
    for Q in (TernaryQF(1, 1, -1, 0, 0, 0), TernaryQF(0, 1, 1, 0, 0, 0),
              TernaryQF(1, 1, 1, 4, 0, 0)):
        with pytest.raises(ValueError, match="not positive definite"):
            rep_count(Q, 5)
        with pytest.raises(ValueError, match="not positive definite"):
            theta_coeffs(Q, 5)


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
        assert len(th) == 81
        assert th[0] == 1
        for m in range(81):
            assert th[m] == rep_count(Q, m)


def test_sc7_from_thetas_matches_enumeration():
    for n in range(61):
        value = sc7_from_thetas(n)
        assert type(value) is int
        assert value == sc_count(n, 7)


def test_sc7_from_rep_columns_is_checked_exact():
    # R(n + 2) of the three forms at n = 9: (16 - 2*0 + 12)/14 = 2
    reps = [rep_count(Q, 11) for Q in DECOMPOSITION_FORMS]
    assert reps == [16, 0, 12]
    value = sc7_from_rep_columns([[r] for r in reps])
    assert value == [2] and type(value[0]) is int
    with pytest.raises(InexactCount, match="29/14"):
        sc7_from_rep_columns([[17], [0], [12]])
    with pytest.raises(InexactCount, match="-1"):
        sc7_from_rep_columns([[0], [7], [0]])


def test_sc7_from_rep_columns_names_the_first_bad_index():
    # index 1 gives 29/14 and index 2 gives -1: the error names index 1,
    # and with the two faults swapped, the negative count at index 1
    columns = [[14, 17, 0], [0, 0, 7], [0, 12, 0]]
    with pytest.raises(InexactCount, match=re.escape(
            "theta combination gives 29/14 for representation numbers (17, 0, 12)")):
        sc7_from_rep_columns(columns)
    columns = [[14, 0, 17], [0, 7, 0], [0, 0, 12]]
    with pytest.raises(InexactCount, match=re.escape(
            "theta combination gives -1 for representation numbers (0, 7, 0)")):
        sc7_from_rep_columns(columns)


def test_sc7_from_rep_columns_rejects_malformed_columns():
    # columns of unequal length, or not one per weight, are refused
    # rather than truncated to the shortest
    for columns in ([[14, 28, 0], [0], [0, 0, 0]],
                    [[16], [0], [12], [5]],
                    [[16], [0]]):
        with pytest.raises(ValueError, match="columns of equal length"):
            sc7_from_rep_columns(columns)
    assert sc7_from_rep_columns([[16, 14], [0, 0], [12, 0]]) == [2, 1]


def test_sc7_from_thetas_spot():
    assert sc7_from_thetas(9) == 2
    assert sc7_from_thetas(11) == 1
    assert sc7_from_thetas(25) == 4


def test_box_is_the_completed_squares_box():
    # _box gives, at every z, the same y range as the Fraction box of the
    # reference kernels, and the same z range.
    for Q in DECOMPOSITION_FORMS + MIXED_FORMS:
        _, d2, d3, _, _, l23 = _ref_ldl(Q)
        for m in (*range(40), 97, 401, 1502, 20003):
            zmax, y_range = Q._box(m)
            assert (-zmax, zmax) == _interval(Fraction(0), d3, Fraction(m)), (Q, m)
            for z in range(-zmax - 2, zmax + 3):
                assert y_range(z) == _interval(l23 * z, d2, m - d3 * z * z), (Q, m, z)


def test_box_is_centrally_symmetric():
    # rep_count walks z >= 0 only: y_range(-z) is (-yhi, -ylo) inside the
    # box, and past zmax both ranges are empty.
    for Q in DECOMPOSITION_FORMS + MIXED_FORMS:
        for m in (*range(40), 97, 401, 1502, 20003):
            zmax, y_range = Q._box(m)
            for z in range(-zmax - 2, zmax + 3):
                if abs(z) <= zmax:
                    ylo, yhi = y_range(z)
                    assert y_range(-z) == (-yhi, -ylo), (Q, m, z)
                else:
                    assert y_range(z) == y_range(-z) == (0, -1), (Q, m, z)


def _rep_count_accepts(Q):
    """False iff rep_count refuses Q with a ValueError, its decision that
    Q is not positive definite."""
    try:
        rep_count(Q, 0)
    except ValueError:
        return False
    return True


def test_positive_definite_matches_ldl():
    forms = [TernaryQF(a, b, c, d, e, f)
             for a in range(-1, 3) for b in range(-1, 3) for c in range(-1, 3)
             for d in range(-2, 3) for e in range(-2, 3) for f in range(-2, 3)]
    assert sum(_rep_count_accepts(Q) for Q in forms) > 100
    for Q in forms:
        assert _rep_count_accepts(Q) == (_ref_ldl(Q) is not None), Q


def test_sc7_from_thetas_at_large_n():
    # the only rep_count calls far past m = 3000: the box at m = n + 2
    for n, value in ((20001, 122), (100001, 88)):
        assert sc7_from_thetas(n) == sc7_from_class_number(n) == value


def _narrowed(box, layer):
    """TernaryQF._box with its y range (layer 1) or its zmax (layer 2)
    narrowed by one on each side, so that solutions at the extreme y or z
    land on the extra layer that rep_count scans beyond the box."""
    def narrow(Q, m):
        zmax, y_range = box(Q, m)
        if layer == 2:
            return zmax - 1, y_range

        def narrow_y(z):
            lo, hi = y_range(z)
            return lo + 1, hi - 1
        return zmax, narrow_y
    return narrow


# Runs sc7_from_thetas(9) with the box narrowed in the layer given as
# the first argument; this file is imported for _narrowed.
NARROW_BOX = """
import sys
from sc7core.ternary import TernaryQF, sc7_from_thetas
from test_ternary import _narrowed

TernaryQF._box = _narrowed(TernaryQF._box, int(sys.argv[1]))
print(sys.flags.optimize)
sc7_from_thetas(9)
"""


def test_box_bound_check_survives_optimize():
    paths = (str(Path(sc7core.__file__).resolve().parents[1]),
             str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    for layer in (1, 2):
        proc = subprocess.run([sys.executable, "-O", "-c", NARROW_BOX, str(layer)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.stdout == "1\n"  # assert statements are stripped in this run
        assert proc.returncode == 1, layer
        assert "RuntimeError: box bound violated at" in proc.stderr, layer


@pytest.mark.parametrize("layer", [1, 2])
def test_box_bound_check_covers_each_layer(monkeypatch, layer):
    Q1 = DECOMPOSITION_FORMS[0]
    monkeypatch.setattr(TernaryQF, "_box", _narrowed(TernaryQF._box, layer))
    with pytest.raises(RuntimeError, match="box bound violated at"):
        rep_count(Q1, 11)


@pytest.mark.parametrize("layers", [(1,), (2,), (1, 2)])
def test_box_bound_check_raises_where_the_box_sweep_raises(monkeypatch, layers):
    # With the box narrowed in y, in z or in both, the half-lattice scan
    # of the extra layer raises at exactly the (Q, m) where the whole-box
    # sweep raises, and elsewhere the two counts still agree; both
    # outcomes occur.
    box = TernaryQF._box
    for layer in layers:
        box = _narrowed(box, layer)
    monkeypatch.setattr(TernaryQF, "_box", box)
    cases = [(Q, m) for Q in DECOMPOSITION_FORMS + MIXED_FORMS for m in range(400)]
    raised = 0
    for Q, m in cases:
        try:
            expected = _ref_box_rep_count(Q, m)
        except RuntimeError:
            raised += 1
            with pytest.raises(RuntimeError, match="box bound violated at"):
                rep_count(Q, m)
        else:
            assert rep_count(Q, m) == expected, (Q, m)
    assert 0 < raised < len(cases)
