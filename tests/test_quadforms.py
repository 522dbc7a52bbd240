import random
from fractions import Fraction
from itertools import compress
from math import isqrt

import pytest

from sc7core import quadforms
from sc7core.arith import (
    HypothesisViolation,
    InexactCount,
    divisors,
    is_fundamental,
    kronecker,
    kronecker_row,
    mobius,
    sigma1,
    smallest_prime_factors,
)
from sc7core.eisenstein import discriminant_of
from sc7core.quadforms import (
    BinaryQF,
    _character_tables,
    _count_head,
    _odd_root_counts,
    _root_count,
    _roots_mod_prime_power,
    _sqrt_mod_prime,
    dirichlet_hurwitz,
    hurwitz,
    hurwitz_scaled,
    reduced_forms,
)

FORMS_308 = [(1, 0, 77), (2, 2, 39), (3, -2, 26), (3, 2, 26),
             (6, -2, 13), (6, 2, 13), (7, 0, 11), (9, 4, 9)]


def test_binary_qf():
    f = BinaryQF(2, 2, 39)
    assert (f.a, f.b, f.c) == (2, 2, 39)
    assert f.b * f.b - 4 * f.a * f.c == -308
    assert BinaryQF(1, 0, 77) < f < BinaryQF(3, -2, 26)  # lexicographic


def _ref_reduced_forms(D):
    """The scan that reduced_forms replaced: try every b in (-a, a] for
    every a <= sqrt(D/3).  About D/3 steps; a test oracle only."""
    out = []
    a = 1
    while 3 * a * a <= D:
        for b in range(-a + 1, a + 1):
            num = b * b + D
            if num % (4 * a) == 0:
                c = num // (4 * a)
                if c >= a and not (a == c and b < 0):
                    out.append(BinaryQF(a, b, c))
        a += 1
    return sorted(out)


# D that send reduced_forms down each of its branches:
BRANCH_D = (
    # high powers of 2 in D, and D = 7 mod 8, where -D has roots mod
    # every power of 2
    2**20, 3 * 2**16, 7 * 2**15, 4 * 2**11 * 5, 2**17 - 1,
    # odd p with p^2 | D, so the roots mod p^k are lifted from p^(k-1)
    9 * 49 * 3, 7**3, 7**3 * 5, 3**9, 5**4 * 3 * 4, 3**4 * 7**3 * 4, 11**4 * 3,
    # -D a residue mod p = 1 mod 8 whose Tonelli-Shanks run takes the most
    # rounds (s = 4, 3, 5, 8): p = 17, 41, 97, 257 alone, then all four
    875, 5048, 28235, 198156, 199463,
    # the edges and a theorem-route discriminant
    3, 4, 2800056,
)


def test_reduced_forms_matches_reference_below_3000():
    for D in range(3, 3000):
        if D % 4 in (0, 3):
            assert reduced_forms(D) == _ref_reduced_forms(D), D


def test_reduced_forms_matches_reference_on_each_branch():
    for D in BRANCH_D:
        assert reduced_forms(D) == _ref_reduced_forms(D), D


def _ref_hurwitz(D):
    """H(-D) as the weighted count of the listed reduced forms: 1/2 for
    (a, 0, a), 1/3 for (a, a, a), 1 for every other; a test oracle only."""
    forms = reduced_forms(D)
    halves = sum(1 for f in forms if f.b == 0 and f.a == f.c)
    thirds = sum(1 for f in forms if f.a == f.b == f.c)
    return Fraction(6 * len(forms) - 3 * halves - 4 * thirds, 6)


# D that send hurwitz down each of its branches.  The forms (k, 0, k) and
# (k, k, k) of D = 4k^2 and 3k^2 carry the weights, and at D = 4k^2 the
# a = k is the first to be listed, not counted; D = 4k^2 - 1 and 4k^2 + 4
# put k just inside the listed tail and just inside the counted head.
# Powers of 2 and of 7 in D give N(2^j) and N(7^k) from lifted roots.
HURWITZ_CASES = {
    "3k^2": [3 * k * k for k in (1, 2, 3, 30, 210, 1001)],
    "4k^2": [4 * k * k for k in (1, 2, 3, 30, 210, 1001)],
    "4k^2 edges": [4 * k * k + e for k in (2, 30, 210, 1001) for e in (-1, 4)],
    "2^8 | D": [2**8 * 3, 2**8 * 7, 2**8 * 4095, 2**12 * 11, 2**20, 2**26],
    "7^3 | D": [7**3, 7**3 * 5, 7**3 * 12, 7**5 * 4, 3**4 * 7**3 * 4, 7**7],
}


@pytest.mark.parametrize("branch", HURWITZ_CASES)
def test_hurwitz_matches_weighted_forms_on_each_branch(branch):
    for D in HURWITZ_CASES[branch]:
        assert hurwitz(D) == _ref_hurwitz(D), D


def test_hurwitz_matches_weighted_forms_below_5000():
    for D in range(3, 5001):
        if D % 4 in (0, 3):
            assert hurwitz(D) == _ref_hurwitz(D), D


def test_hurwitz_matches_weighted_forms_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
    @hypothesis.given(st.integers(3, 10**8).filter(lambda D: D % 4 in (0, 3)))
    def check(D):
        assert hurwitz(D) == _ref_hurwitz(D)

    check()


def test_hurwitz_memo_matches_weighted_forms_cold_and_warm():
    expected = {D: _ref_hurwitz(D) for D in range(3, 3001) if D % 4 in (0, 3)}
    for D, H in expected.items():  # cold: each D is counted
        assert hurwitz(D) == H, D
    for D, H in expected.items():  # warm: each D is read from the memo
        assert hurwitz(D) == H, D
    info = quadforms._hurwitz.cache_info()
    assert (info.misses, info.hits) == (len(expected), len(expected))


def test_root_count_matches_a_scan():
    # N(p^k) = #{x mod p^k : x^2 = -D mod p^k} in closed form, against
    # counting the squares mod p^k: every branch of p = 2 and of odd p,
    # dividing D or not, to any power
    for p in (2, 3, 5, 7):
        for k in range(1, 7):
            q = p**k
            squares = [0] * q
            for x in range(q):
                squares[x * x % q] += 1
            for D in range(3, 800):
                if D % 4 in (0, 3):
                    assert _root_count(D, p, k) == squares[-D % q], (D, p, k)


def _ref_count_head(D, head, spf):
    """The count that `_count_head` replaced, with N(p^k) for p = 2 and
    for p | D the length of the lifted root list; a test oracle only."""
    n_odd = [0] * (head + 2)  # N(a') at odd a'
    n_odd[1] = 1
    for m in range(3, head + 1, 2):
        p = spf[m]
        r = m // p
        if D % p == 0:  # N(p^k) from the lifted roots
            q = p
            while r % p == 0:
                r //= p
                q *= p
            n_odd[m] = n_odd[r] * len(_roots_mod_prime_power(-D % q, p, q))
        elif r % p == 0:  # N(p^k) = N(p)
            n_odd[m] = n_odd[r]
        elif r > 1:
            n_odd[m] = n_odd[r] * n_odd[p]
        else:  # m = p is prime
            n_odd[m] = 2 if pow(-D % p, (p - 1) // 2, p) == 1 else 0
    count = 0
    for v in range(head.bit_length()):
        q = 4 << v
        rho2 = len(_roots_mod_prime_power(-D % q, 2, q)) // 2
        count += rho2 * sum(n_odd[1:(head >> v) + 1:2])
    return count


def test_count_head_matches_lifted_roots():
    # every discriminant D <= 5000 and every theorem D_n with n <= 2000
    theorem_D = [discriminant_of(n).D for n in range(1, 2001, 2) if n % 7 != 5]
    for D in [D for D in range(3, 5001) if D % 4 in (0, 3)] + theorem_D:
        head, amax = isqrt(D - 1) // 2, isqrt(D // 3)
        spf = smallest_prime_factors(amax)
        new = _count_head(D, head, _odd_root_counts(D, spf))
        assert new == _ref_count_head(D, head, spf), D


def test_hurwitz_is_an_int_except_at_3k2_and_4k2():
    # the weights 1/2 and 1/3 fall only on (k, 0, k) and (k, k, k)
    special = {c * k * k for c in (3, 4) for k in range(1, 40)}
    for D in range(3, 3001):
        if D % 4 in (0, 3):
            H = hurwitz(D)
            assert (type(H) is int) == (D not in special), D
            if D in special:
                assert type(H) is Fraction and H.denominator in (2, 3), D


def test_dirichlet_hurwitz_is_an_int_above_4():
    assert type(dirichlet_hurwitz(3)) is type(dirichlet_hurwitz(4)) is Fraction
    for D in range(5, 3001):
        if is_fundamental(-D):
            assert type(dirichlet_hurwitz(D)) is int, D


def test_lifted_roots_match_a_scan():
    # roots mod 2^j for odd D in each class mod 8 that is a discriminant,
    # for 2^2 .. 2^12 dividing D, mod p^k for odd p | D, and mod p^k for
    # odd p not dividing D, -D a square mod p or not (every p^k <= 3e4),
    # against trying every residue
    def scan(D, q):
        return [x for x in range(q) if (x * x + D) % q == 0]

    for D in (3, 7, 11, 15, 4, 8, 12, 16, 20, 28, 2**8 * 3, 2**10 * 7, 2**12, 2**12 * 5):
        for j in range(13):
            q = 2**j
            assert sorted(_roots_mod_prime_power(-D % q, 2, q)) == scan(D, q), (D, j)
    for D, p, kmax in ((3**9, 3, 8), (7**3 * 5, 7, 5), (7**3 * 12, 3, 6),
                       (5**4 * 3 * 4, 5, 5), (11**4 * 3, 11, 4),
                       (7, 11, 4), (4, 13, 4), (7, 5, 6), (91, 3, 9)):
        for k in range(kmax + 1):
            q = p**k
            assert sorted(_roots_mod_prime_power(-D % q, p, q)) == scan(D, q), (D, p, k)
    # and every residue n mod every prime power q <= 2048 of a small
    # prime, whichever D reaches it: n = 0 mod p, non-residues and high
    # powers of 2, against squaring every x mod q
    for p in (2, 3, 5, 7, 11, 13):
        q = 1
        while q <= 2048:
            roots_of = [[] for _ in range(q)]
            for x in range(q):
                roots_of[x * x % q].append(x)
            for n in range(q):
                roots = _roots_mod_prime_power(n, p, q)
                assert type(roots) is tuple and sorted(roots) == roots_of[n], (n, p, q)
            q *= p


def test_sqrt_mod_prime():
    for p in (3, 5, 7, 13, 17, 41, 97, 257):
        residues = {x * x % p for x in range(1, p)}
        for n in residues:
            r = _sqrt_mod_prime(n, p)
            assert 0 <= r < p and r * r % p == n, (n, p)


def test_reduced_forms_matches_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
    @hypothesis.given(st.integers(3, 200000).filter(lambda D: D % 4 in (0, 3)))
    def check(D):
        assert reduced_forms(D) == _ref_reduced_forms(D)

    check()


def test_dirichlet_matches_forms_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
    @hypothesis.given(st.integers(3, 30000).filter(lambda D: is_fundamental(-D)))
    def check(D):
        assert dirichlet_hurwitz(D) == hurwitz(D)

    check()


def test_reduced_forms_308():
    assert [(f.a, f.b, f.c) for f in reduced_forms(308)] == FORMS_308


def test_reduced_forms_well_formed():
    for D in range(3, 401):
        if D % 4 not in (0, 3):
            continue
        forms = reduced_forms(D)
        assert forms == sorted(set(forms))
        for f in forms:
            assert f.b * f.b - 4 * f.a * f.c == -D
            assert -f.a < f.b <= f.a <= f.c
            assert not (f.a == f.c and f.b < 0)


def test_reduced_forms_rejects():
    with pytest.raises(ValueError):
        reduced_forms(0)
    with pytest.raises(ValueError):
        reduced_forms(-3)
    with pytest.raises(HypothesisViolation):
        reduced_forms(5)
    with pytest.raises(HypothesisViolation):
        reduced_forms(6)


def _gauss_reduce(a, b, c):
    """Textbook reduction by translations and flips; independent of the
    sweep in reduced_forms."""
    assert a > 0 and 4 * a * c - b * b > 0
    while True:
        k = (a - b) // (2 * a)  # shift b into (-a, a]
        if k:
            b, c = b + 2 * a * k, a * k * k + b * k + c
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
            continue
        return a, b, c


def test_reduction_oracle_transversal():
    # reduced_forms must list exactly one representative per class: every
    # listed form is a reduction fixed point, every brute-enumerated form
    # of the discriminant reduces to a listed one, and random unimodular
    # images reduce back to their source form
    rng = random.Random(7)
    for D in (3, 4, 12, 35, 63, 84, 91, 308, 756):
        forms = reduced_forms(D)
        listed = {(f.a, f.b, f.c) for f in forms}
        for f in forms:
            assert _gauss_reduce(f.a, f.b, f.c) == tuple(f)
        for a in range(1, 15):
            for b in range(-20, 21):
                num = b * b + D
                if num % (4 * a):
                    continue
                c = num // (4 * a)
                assert _gauss_reduce(a, b, c) in listed
        for f in forms:
            for _ in range(20):
                a, b, c = f
                for _ in range(6):
                    if rng.random() < 0.5:
                        k = rng.randint(-4, 4)
                        b, c = b + 2 * a * k, a * k * k + b * k + c
                    else:
                        a, b, c = c, -b, a
                assert _gauss_reduce(a, b, c) == tuple(f)


def test_hurwitz_golden_values():
    assert hurwitz(3) == Fraction(1, 3)
    assert hurwitz(4) == Fraction(1, 2)
    assert hurwitz(12) == Fraction(4, 3)
    assert hurwitz(35) == 2
    assert hurwitz(63) == 5
    assert hurwitz(84) == 4
    assert hurwitz(91) == 2
    assert hurwitz(308) == 8
    assert hurwitz(756) == 16
    assert hurwitz(20475) == 50


def test_hurwitz_kronecker_relation():
    # sum over t^2 <= 4n of H(4n - t^2) equals 2 sigma1(n) minus the sum
    # of min(d, n/d) over divisors, with H(0) = -1/12.  Strong independent
    # check, and it exercises non-fundamental arguments too.
    for n in range(1, 61):
        total = Fraction(0)
        for t in range(-2 * isqrt(n) - 2, 2 * isqrt(n) + 3):
            r = 4 * n - t * t
            if r < 0:
                continue
            total += Fraction(-1, 12) if r == 0 else hurwitz(r)
        assert total == 2 * sum(divisors(n)) - sum(min(d, n // d) for d in divisors(n))


def test_hurwitz_denominator_divides_six():
    for D in range(3, 201):
        if D % 4 in (0, 3):
            value = hurwitz(D)
            assert value > 0
            assert 6 % value.denominator == 0


def test_dirichlet_matches_forms():
    for D in range(3, 301):
        if is_fundamental(-D):
            assert dirichlet_hurwitz(D) == hurwitz(D)


def _ref_dirichlet_hurwitz(D):
    """H(-D) = h(-D) / (u/2) with h(-D) = -(u/2D) * sum m chi(m) summed
    over the sieved character row, u the unit count of Q(sqrt(-D)) at
    fundamental -D; a test oracle only, which keeps the units that
    dirichlet_hurwitz cancels."""
    u = {3: 6, 4: 4}.get(D, 2)
    h = Fraction(-u * sum(m * v for m, v in enumerate(kronecker_row(-D, D))), 2 * D)
    return h / (u // 2)


def test_dirichlet_hurwitz_matches_character_row():
    for D in range(3, 3000):
        if is_fundamental(-D):
            assert dirichlet_hurwitz(D) == _ref_dirichlet_hurwitz(D), D


def _ref_character_moment(D):
    """The full-period sum that the half-period popcounts replaced: each
    factor's tables tiled to length D and packed into one integer per
    mask, a byte per m; the m coprime to D add D/2 in pairs, and
    `compress` picks out the m with chi(m) = -1, summed one by one.  A
    test oracle only."""
    sign = zero = 0
    for signs, zeros in _character_tables(D):
        sign ^= int.from_bytes(signs * (D // len(signs)), "little")
        zero |= int.from_bytes(zeros * (D // len(zeros)), "little")
    live = int.from_bytes(b"\x01" * D, "little") ^ zero
    minus = (sign & live).to_bytes(D, "little")
    return D * live.bit_count() // 2 - 2 * sum(compress(range(D), minus))


def test_dirichlet_hurwitz_matches_full_period_below_3000():
    for D in range(3, 3000):
        if is_fundamental(-D):
            assert dirichlet_hurwitz(D) == Fraction(-_ref_character_moment(D), D), D


def test_dirichlet_hurwitz_matches_full_period_at_block_edges():
    # half periods (D+1)//2 from 2^16 - 11 to 2^16 + 10 and around 2^17:
    # one full block, one block and a few residues, two blocks and a few
    edges = [D for h in (2**16, 2**17) for D in range(2 * h - 22, 2 * h + 22)
             if is_fundamental(-D)]
    assert {2**16 - 4, 2**16, 2**16 + 4, 2**17 + 2} <= {(D + 1) // 2 for D in edges}
    for D in edges:
        assert dirichlet_hurwitz(D) == Fraction(-_ref_character_moment(D), D), D


def test_dirichlet_hurwitz_matches_full_period_in_small_blocks(monkeypatch):
    # blocks of 8 residues: factor periods both shorter and longer than a
    # block, and a last block of every length
    monkeypatch.setattr(quadforms, "_BLOCK", 8)
    for D in range(3, 400):
        if is_fundamental(-D):
            assert dirichlet_hurwitz(D) == Fraction(-_ref_character_moment(D), D), D


@pytest.mark.parametrize("D", [262147, 262148, 262184, 262168])
def test_dirichlet_hurwitz_matches_full_period_past_2_18(D):
    # one D > 2^18 for each 2-part of chi_{-D}: none, -4, -8 and 8
    assert is_fundamental(-D)
    assert dirichlet_hurwitz(D) == Fraction(-_ref_character_moment(D), D)


# H(-D) at fundamental -D, by the 2-part of chi_{-D}: none (D odd), the
# character of -4 (D = 4m, m = 1 mod 4), of -8 (D = 8m, m = 1 mod 4) and
# of 8 (D = 8m, m = 3 mod 4).  D = 3, 4, 8 have 6, 4 and 2 units.
DIRICHLET_CASES = {
    "odd": {3: Fraction(1, 3), 7: 1, 15: 2, 23: 3, 47: 5, 700035: 224},
    "-4": {4: Fraction(1, 2), 20: 2, 52: 2, 84: 4, 116: 6},
    "-8": {8: 1, 40: 2, 104: 6, 136: 4},
    "8": {24: 2, 56: 4, 88: 2, 120: 4},
}


@pytest.mark.parametrize("part", DIRICHLET_CASES)
def test_dirichlet_hurwitz_named_cases(part):
    for D, H in DIRICHLET_CASES[part].items():
        assert dirichlet_hurwitz(D) == H == hurwitz(D), D


def test_dirichlet_hurwitz_matches_character_row_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
    @hypothesis.given(st.integers(3, 200000).filter(lambda D: is_fundamental(-D)))
    def check(D):
        assert dirichlet_hurwitz(D) == _ref_dirichlet_hurwitz(D)

    check()


def test_dirichlet_hurwitz_rejects_a_half_sum_off_by_one(monkeypatch):
    # S must be a multiple of 2 - chi(2) itself: at D = 308 (chi(2) = 0)
    # and at D = 51 (chi(2) = -1, 3 | D), -D*S is one for any S
    real = quadforms._half_character_sum
    monkeypatch.setattr(quadforms, "_half_character_sum", lambda D: real(D) + 1)
    for D in (308, 51):
        with pytest.raises(InexactCount, match=f"half character sum at D={D}"):
            dirichlet_hurwitz(D)


def test_dirichlet_rejects_nonfundamental():
    for D in (12, 63, 756):
        with pytest.raises(HypothesisViolation):
            dirichlet_hurwitz(D)
    with pytest.raises(HypothesisViolation):
        dirichlet_hurwitz(-3)


def test_dirichlet_hurwitz_factors_D_once(monkeypatch):
    # one factorization of D decides fundamentality and gives the odd
    # primes of the character; it refuses exactly the D with -D not
    # fundamental, with the same message
    from sc7core import arith

    calls = []
    real = arith.factorize

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "factorize", counted)
    monkeypatch.setattr(quadforms, "factorize", counted)
    for D in range(1, 3001):
        fundamental = is_fundamental(-D)
        calls.clear()
        if fundamental:
            dirichlet_hurwitz(D)
        else:
            with pytest.raises(HypothesisViolation, match=f"^-{D} is not a fundamental discriminant$"):
                dirichlet_hurwitz(D)
        assert calls.count(D) == 1, (D, calls)
    for D in (0, -3, -4):
        calls.clear()
        with pytest.raises(HypothesisViolation, match=f"^-{D} is not a fundamental discriminant$"):
            dirichlet_hurwitz(D)
        assert calls == [], D


def test_hurwitz_scaled_matches_direct():
    # the scaling identity holds for any f >= 1, even f included
    for D in (3, 4, 7, 8, 84, 91):
        for f in range(1, 10):
            assert hurwitz_scaled(D, f) == hurwitz(D * f * f)


def _ref_scaling_sum(D, f):
    """sum_{d | f} mu(d) chi_{-D}(d) sigma1(f/d), over the divisors one
    by one; a test oracle only."""
    return sum(mobius(d) * kronecker(-D, d) * sigma1(f // d) for d in divisors(f))


def test_hurwitz_scaled_matches_the_divisor_sum():
    for D in range(3, 301):
        if is_fundamental(-D):
            for f in range(1, 201):
                assert hurwitz_scaled(D, f) == hurwitz(D) * _ref_scaling_sum(D, f), (D, f)


def test_hurwitz_scaled_rejects():
    with pytest.raises(HypothesisViolation):
        hurwitz_scaled(12, 3)
    with pytest.raises(ValueError):
        hurwitz_scaled(3, 0)
