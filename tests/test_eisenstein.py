import math
from fractions import Fraction

import pytest

from sc7core import eisenstein, quadforms
from sc7core.arith import HypothesisViolation, InexactCount, is_fundamental, kronecker
from sc7core.eisenstein import (
    Discriminant,
    TwoAdicConvention,
    class_number_factor,
    closed_rep_count,
    discriminant_of,
    eisenstein_coeff,
    odd_prime_factor,
    sc7_from_character_sum,
    sc7_from_class_number,
    sc7_scaled,
    theta_from_eisenstein,
    two_adic_factor,
)
from sc7core.quadforms import hurwitz

PRINTED = TwoAdicConvention.PRINTED
EFFECTIVE = TwoAdicConvention.EFFECTIVE


def test_two_adic_factor_cases():
    # odd valuation: convention-free
    assert two_adic_factor(8, PRINTED) == Fraction(3, 4)
    assert two_adic_factor(8, EFFECTIVE) == Fraction(3, 4)
    assert two_adic_factor(2) == Fraction(3, 2)
    # even valuation, odd part 1 mod 4: convention-free
    assert two_adic_factor(1) == Fraction(3, 2)
    assert two_adic_factor(4) == Fraction(3, 4)
    # even valuation, odd part 3 mod 8: the conventions part ways
    assert two_adic_factor(91, EFFECTIVE) == 1
    assert two_adic_factor(91, PRINTED) == 0
    assert two_adic_factor(4 * 91, EFFECTIVE) == Fraction(1, 2)
    # even valuation, odd part 7 mod 8: mirrored
    assert two_adic_factor(7, EFFECTIVE) == 0
    assert two_adic_factor(7, PRINTED) == 1
    with pytest.raises(ValueError):
        two_adic_factor(0)
    # a convention given by its value, not its member, is refused
    with pytest.raises(ValueError):
        two_adic_factor(91, "effective")
    with pytest.raises(ValueError):
        theta_from_eisenstein(1, 1, "effective")


def test_two_adic_factor_at_7m_for_m_3_mod_4():
    # 7m = 21 mod 28 has odd part = 1 mod 4, so both conventions give 3/2
    for m in (3, 11, 15, 23):
        assert two_adic_factor(7 * m, PRINTED) == Fraction(3, 2)
        assert two_adic_factor(7 * m, EFFECTIVE) == Fraction(3, 2)


def test_odd_prime_factor():
    # valuation 1 at 7: the workhorse case
    for m in (1, 2, 3, 4, 13):
        if m % 7:
            assert odd_prime_factor(7, 7 * m) == Fraction(1, 7) - Fraction(8, 49)
    assert odd_prime_factor(7, 49) == Fraction(5, 49)
    assert odd_prime_factor(3, 2) == Fraction(1, 3)  # chi(-2 mod 3) = 1
    with pytest.raises(ValueError):
        odd_prime_factor(2, 8)
    with pytest.raises(ValueError):
        odd_prime_factor(9, 8)
    with pytest.raises(ValueError):
        odd_prime_factor(7, 0)


def test_odd_prime_factor_brute():
    # against a literal restatement of the three cases
    from sc7core.arith import kronecker, val_decompose
    for p in (3, 5, 7, 11):
        for m in range(1, 200):
            h, m1 = val_decompose(m, p)
            if h % 2:
                expected = Fraction(1, p) - Fraction(1 + p, p ** ((3 + h) // 2))
            elif kronecker(-m1, p) == -1:
                expected = Fraction(1, p) - Fraction(2, p ** (1 + h // 2))
            else:
                expected = Fraction(1, p)
            assert odd_prime_factor(p, m) == expected


def test_class_number_factor():
    assert class_number_factor(13) == Fraction(49, 2)
    assert class_number_factor(11) == Fraction(98, 3)
    assert class_number_factor(3) == Fraction(49, 3)
    # -7m = 1 mod 4 reads H(-7), -7m = 2 mod 4 lifts to H(-56), and
    # -7m = 0 mod 4 reads H(-28)
    assert class_number_factor(1) == Fraction(49, 12)
    assert class_number_factor(2) == Fraction(49, 3)
    assert class_number_factor(4) == Fraction(49, 6)
    # branch selector: 5 mod 8 divides by 4, everything else by 12; odd m
    # reads H at 7m for m = 1 mod 4 and at 28m for m = 3 mod 4
    for m in (5, 13, 21, 29):
        assert class_number_factor(m) == Fraction(49, 4) * hurwitz(7 * m)
    for m in (1, 3, 7, 9, 11):
        assert class_number_factor(m) == Fraction(49, 12) * hurwitz(7 * m if m % 4 == 1 else 28 * m)


def test_eisenstein_coeff_examples():
    assert eisenstein_coeff(2, 13, EFFECTIVE) == 1
    assert eisenstein_coeff(3, 13, EFFECTIVE) == -8
    assert eisenstein_coeff(3, 13, PRINTED) == -8  # g3 has no alpha inside
    # printed alpha vanishes at 7m when m = 5 mod 8 (7m odd part = 3 mod 8)
    for m in (5, 13, 29):
        assert eisenstein_coeff(1, m, PRINTED) == 0
        assert eisenstein_coeff(2, m, PRINTED) == 0
    with pytest.raises(ValueError):
        eisenstein_coeff(4, 13)


def test_closed_rep_count_examples():
    assert closed_rep_count(1, 11) == 2 * hurwitz(308) == 16
    assert closed_rep_count(1, 13) == 8 * hurwitz(91) == 16
    for m in (9, 17, 25):  # n = m - 2 = 7 mod 8 kills the third form
        assert closed_rep_count(3, m) == 0
    with pytest.raises(ValueError):
        closed_rep_count(4, 11)
    with pytest.raises(HypothesisViolation):
        closed_rep_count(1, 12)
    with pytest.raises(HypothesisViolation):
        closed_rep_count(1, 21)
    with pytest.raises(HypothesisViolation):
        closed_rep_count(1, 1)


def test_closed_rep_count_rejects_an_odd_product(monkeypatch):
    # form 3 at n = m - 2 = 1 mod 4 is (3/2)H: an odd H cannot give a count
    monkeypatch.setattr(eisenstein, "hurwitz", lambda D: 5)
    with pytest.raises(InexactCount, match=r"R_3\(3\) gives 15/2"):
        closed_rep_count(3, 3)
    assert closed_rep_count(1, 3) == 10


def test_closed_rep_count_matches_lattice(theta_tables):
    for m in range(3, 302, 2):
        if m % 7 == 0:
            continue
        for i in (1, 2, 3):
            value = closed_rep_count(i, m)
            assert type(value) is int and value == theta_tables[i - 1][m], (i, m)


def test_theta_from_eisenstein_matches_lattice(theta_tables):
    for m in range(1, 302, 2):
        if math.gcd(m, 14) != 1:
            continue
        for i in (1, 2, 3):
            assert theta_from_eisenstein(i, m) == theta_tables[i - 1][m]


def test_printed_combination_fails():
    # the displayed first relation with the displayed two-adic table does
    # not reproduce the lattice; pin the failure so nobody "simplifies"
    # the effective convention away
    from sc7core.ternary import DECOMPOSITION_FORMS, rep_count
    Q1 = DECOMPOSITION_FORMS[0]
    mismatches = [m for m in range(1, 102, 2) if math.gcd(m, 14) == 1
                  and theta_from_eisenstein(1, m, PRINTED, printed_relation=True)
                  != rep_count(Q1, m)]
    assert mismatches
    assert mismatches[0] == 1


def test_theta_relations_match_closed_tables():
    # two independent in-module paths to the same numbers
    for m in range(3, 102, 2):
        if m % 7 == 0:
            continue
        for i in (1, 2, 3):
            assert theta_from_eisenstein(i, m) == closed_rep_count(i, m)


def test_discriminant_of():
    d = discriminant_of(9)
    assert (d.n, d.D, d.epsilon) == (9, 308, 1)
    assert discriminant_of(11).D == 91
    assert discriminant_of(25).D == 756
    assert discriminant_of(3).epsilon == 0
    for n in range(1, 60, 2):
        d = discriminant_of(n)
        assert d.D == (28 * n + 56 if n % 4 == 1 else 7 * n + 14)
        assert (-d.D) % 4 in (0, 1)
    assert discriminant_of(9) == Discriminant(9, 308, 1)
    with pytest.raises(HypothesisViolation):
        discriminant_of(12)
    with pytest.raises(HypothesisViolation):
        discriminant_of(-3)


def test_sc7_from_class_number():
    assert sc7_from_class_number(9) == 2
    assert sc7_from_class_number(25) == 4
    assert sc7_from_class_number(11) == 1
    assert sc7_from_class_number(7) == 0
    assert sc7_from_class_number(2923) == 25
    with pytest.raises(HypothesisViolation):
        sc7_from_class_number(12)
    with pytest.raises(HypothesisViolation):
        sc7_from_class_number(5)  # 5 mod 7
    with pytest.raises(HypothesisViolation):
        sc7_from_class_number(19)  # 19 = 5 mod 7


def test_sc7_from_character_sum():
    assert sc7_from_character_sum(11) == 1
    assert sc7_from_character_sum(9) == 2
    # the vanishing residue needs no fundamentality, -63 included
    assert sc7_from_character_sum(7) == 0
    assert not is_fundamental(-discriminant_of(7).D)
    with pytest.raises(HypothesisViolation):
        sc7_from_character_sum(25)  # -756 = -4 * 189 is not fundamental
    with pytest.raises(HypothesisViolation):
        sc7_from_character_sum(19)


def test_character_sum_agrees_with_class_number():
    for n in range(1, 1001, 2):
        if n % 7 == 5:
            continue
        if n % 8 != 7 and not is_fundamental(-discriminant_of(n).D):
            continue
        assert sc7_from_character_sum(n) == sc7_from_class_number(n)


def test_sc7_scaled_examples(qs7):
    assert sc7_scaled(11, 15) == 25
    assert sc7_scaled(11, 3) == 5
    for n in (1, 3, 9, 11, 13):
        assert sc7_scaled(n, 1) == sc7_from_class_number(n)
    # the scaled value really is the count at (n+2) f^2 - 2
    for n, f in ((1, 3), (1, 15), (3, 9), (9, 13), (11, 5), (11, 15), (13, 5), (15, 3), (17, 11)):
        assert sc7_scaled(n, f) == qs7[(n + 2) * f * f - 2]


def test_scaled_count_in_printed_form():
    # sc7((n+2) p^(2k) - 2) = sc7(n) * (1 + (p^(k+1) - p)/(p - 1)
    #   - (p^k - 1)/(p - 1) * (-D_n/p)) at every odd n <= 120 with
    # n != 5 mod 7 and -D_n fundamental: 336 cases, scaled n up to 3284513
    chis = []
    for n in range(1, 121, 2):
        D = discriminant_of(n).D
        if n % 7 == 5 or not is_fundamental(-D):
            continue
        for p in (3, 5, 11, 13):
            chi = kronecker(-D, p)
            for k in (1, 2):
                factor = 1 + (p**(k + 1) - p) // (p - 1) - (p**k - 1) // (p - 1) * chi
                scaled = sc7_from_class_number((n + 2) * p**(2 * k) - 2)
                assert scaled == sc7_from_class_number(n) * factor == sc7_scaled(n, p**k), (n, p, k)
                chis.append(chi)
    assert [chis.count(c) for c in (-1, 0, 1)] == [136, 46, 154]


def test_sc7_scaled_rejects():
    with pytest.raises(HypothesisViolation):
        sc7_scaled(11, 2)  # even f
    with pytest.raises(HypothesisViolation):
        sc7_scaled(11, 7)  # f divisible by 7
    with pytest.raises(HypothesisViolation):
        sc7_scaled(25, 3)  # -756 not fundamental
    with pytest.raises(HypothesisViolation):
        sc7_scaled(19, 3)  # n = 5 mod 7


def test_class_number_routes_return_int():
    for n in (1, 3, 7, 9, 11, 13, 2923):
        assert type(sc7_from_class_number(n)) is int
    for n in (7, 9, 11):
        assert type(sc7_from_character_sum(n)) is int
    assert type(sc7_scaled(11, 15)) is int


def test_count_from_H_is_exact_integer_division():
    # H / 2^(epsilon+1) in int arithmetic: an int count or InexactCount,
    # never a float, for n = 1 mod 4 (divisor 4) and n = 3 mod 8 (2)
    quarter, half = discriminant_of(9), discriminant_of(11)
    with pytest.raises(InexactCount, match="gives 3/2"):
        eisenstein._count_from_H(quarter, 6, "H = 6 at n = 9")
    with pytest.raises(InexactCount, match="gives 3/2"):
        eisenstein._count_from_H(half, 3, "H = 3 at n = 11")
    for H in range(0, 200, 4):
        for d in (quarter, half):
            count = eisenstein._count_from_H(d, H, "")
            assert type(count) is int and count == H // 2 ** (d.epsilon + 1)


def test_class_number_routes_reject_inexact_counts(monkeypatch):
    # each route raises, not returns, a count that is non-integral or negative
    monkeypatch.setattr(eisenstein, "hurwitz", lambda D: Fraction(1, 3))
    with pytest.raises(InexactCount, match="gives 1/12"):
        sc7_from_class_number(9)
    assert sc7_from_class_number(7) == 0  # the vanishing case reads no H
    monkeypatch.setattr(eisenstein, "hurwitz", lambda D: Fraction(-2))
    with pytest.raises(InexactCount):
        sc7_from_class_number(11)
    monkeypatch.undo()

    # at n = 9 (D_n = 308, chi(2) = 0) a half sum of 2 passes the sum
    # check and gives H = 1, so the count H/4 is not an integer
    monkeypatch.setattr(quadforms, "_half_character_sum", lambda D: 2)
    with pytest.raises(InexactCount, match="gives 1/4"):
        sc7_from_character_sum(9)
    monkeypatch.undo()

    # chi(p) -> 5 turns the scaling factor sigma1(3) - 5 sigma1(1) negative
    monkeypatch.setattr(quadforms, "kronecker", lambda D, m: 5)
    with pytest.raises(InexactCount):
        sc7_scaled(11, 3)


def test_character_sum_refuses_a_sum_too_long(monkeypatch):
    # D_n = 280000084 is above COR2_MAX_D: the library refuses before any
    # sum is started, and names the route that can answer
    def unreachable(D):
        raise AssertionError("character sum started")

    monkeypatch.setattr(eisenstein, "dirichlet_hurwitz", unreachable)
    with pytest.raises(ValueError, match="theorem") as exc:
        sc7_from_character_sum(10000001)
    assert not isinstance(exc.value, HypothesisViolation)
