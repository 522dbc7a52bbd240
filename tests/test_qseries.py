import random
from bisect import bisect_right
from collections import Counter
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from functools import partial
from itertools import accumulate, product
from math import comb, isqrt, prod

import pytest

from sc7core import qseries
from sc7core.partitions import c_count, sc_count
from sc7core.qseries import (
    QSeries,
    SC7_ETA_QUOTIENT,
    EtaQuotientSpec,
    _ARRAY_CODES,
    _bound,
    _euler_terms,
    _inverse_2adic,
    _mul_packed,
    _pack,
    _packed_width,
    _product,
    _psi_terms,
    _unpack,
    _x_terms,
    euler_factor,
    eta_quotient_series,
    sc_series,
)


def test_qseries_basics():
    s = QSeries([1, 2, 3])
    assert len(s) == 3
    assert s[0] == 1 and s[2] == 3
    with pytest.raises(IndexError):
        s[3]
    assert QSeries([1, 2]) == QSeries([1, 2])
    assert QSeries([1, 2]) != QSeries([1, 3])
    assert QSeries([1, Fraction(4, 2)]) == QSeries([1, 2])


def test_pentagonal_number_theorem():
    # prod (1 - q^n) = sum_k (-1)^k q^(k(3k-1)/2), k over all integers
    prec = 400
    expected = [0] * prec
    expected[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 < prec:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e < prec:
                expected[e] = (-1) ** k
        k += 1
    assert euler_factor(1, -1, prec).coeffs == tuple(expected)


def test_euler_factor_rejects():
    with pytest.raises(ValueError):
        euler_factor(0, -1, 10)
    with pytest.raises(ValueError):
        euler_factor(1, 2, 10)
    with pytest.raises(ValueError):
        euler_factor(1, 1, 0)


def test_tcore_generating_function():
    # prod (1 - q^(tn))^t / (1 - q^n) counts t-cores; the filter count is
    # the independent side
    prec = 25
    for t in (2, 3, 5, 7):
        c = [1] + [0] * (prec - 1)
        for _ in range(t):
            _ref_mul_sparse(c, _euler_terms(t, prec))
        _ref_div_sparse(c, _euler_terms(1, prec))
        assert c == [c_count(n, t) for n in range(prec)]


def test_sc_series_matches_enumeration():
    for t in (3, 5, 7):
        s = sc_series(t, 401)
        for n in range(401):
            assert s[n] == sc_count(n, t)
    s = sc_series(7, 8002)
    for n, expected in ((1499, 10), (3001, 32), (8001, 56)):
        assert s[n] == sc_count(n, 7) == expected


def test_sc_series_known_values():
    s = sc_series(7, 20)
    assert list(s.coeffs) == [1, 1, 0, 1, 1, 1, 1, 0, 1, 2, 1, 1, 2, 2, 0, 0, 3, 1, 1, 1]


def test_sc_series_rejects():
    with pytest.raises(ValueError):
        sc_series(4, 10)
    with pytest.raises(ValueError):
        sc_series(7, 0)


def test_eta_quotient_matches_sc_series():
    # the identity behind the eta route to n = 10000: the triple-product
    # series against the pentagonal one
    prec = 10003
    eta = eta_quotient_series(SC7_ETA_QUOTIENT, prec)
    assert eta[0] == 0 and eta[1] == 0
    assert eta.coeffs[2:] == sc_series(7, prec - 2).coeffs


def test_eta_quotient_single_factor():
    # eta(8 tau)^3 has net power exactly 1, and Jacobi's identity
    # (q;q)^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2) puts its terms at
    # q^(1 + 4k(k+1))
    spec = EtaQuotientSpec(((8, 3),))
    assert spec.leading_power == 1
    prec = 400
    expected = [0] * prec
    k = 0
    while 1 + 4 * k * (k + 1) < prec:
        expected[1 + 4 * k * (k + 1)] = (-1) ** k * (2 * k + 1)
        k += 1
    assert eta_quotient_series(spec, prec).coeffs == tuple(expected)


def test_eta_quotient_spec_rejects():
    with pytest.raises(ValueError):
        EtaQuotientSpec(((1, 1),))  # net power 1/24
    with pytest.raises(ValueError):
        EtaQuotientSpec(((24, -1),))  # net power -1
    with pytest.raises(ValueError):
        EtaQuotientSpec(((2, 0),))
    with pytest.raises(ValueError):
        EtaQuotientSpec(((0, 1),))
    with pytest.raises(ValueError):
        EtaQuotientSpec(((24.9, 1),))  # not truncated to 24
    with pytest.raises(ValueError):
        EtaQuotientSpec((("24", 1),))  # not parsed as 24


def test_eta_quotient_short_precision():
    # precision that ends inside the leading q^2 shift
    assert eta_quotient_series(SC7_ETA_QUOTIENT, 2).coeffs == (0, 0)


def test_sc7_eta_quotient_spec():
    assert SC7_ETA_QUOTIENT.factors == ((2, 2), (14, 1), (7, 1), (28, 1), (4, -1), (1, -1))
    assert SC7_ETA_QUOTIENT.leading_power == 2


# Reference builders: the quadratic-time binomial algorithms that
# sc_series and eta_quotient_series used before their triple-product and
# pentagonal rewrites, kept here as independent oracles.

def _ref_mul_sparse(c, terms):
    # c <- c * (1 + sum m*q^e), one slice-add per term: the kernel
    # eta_quotient_series used before its packed shifted adds
    src = c[:]
    for e, m in terms:
        c[e:] = [x + m * y for x, y in zip(c[e:], src)]


def _ref_div_sparse(c, terms):
    # c <- c / (1 + sum sign*q^e) by the recurrence
    # b[i] = c[i] - sum sign*b[i-e]: the pentagonal division
    # eta_quotient_series used before its 2-adic inverse
    for i in range(1, len(c)):
        acc = c[i]
        for e, sign in terms:
            if e > i:
                break
            acc -= sign * c[i - e]
        c[i] = acc


def _ref_mul_binomial(c, m, sign):
    # c <- c * (1 + sign*q^m)
    c[m:] = [x + sign * y for x, y in zip(c[m:], c)]


def _ref_div_binomial(c, m, sign):
    # c <- c / (1 + sign*q^m): a running alternating sum per residue class mod m
    for r in range(m):
        seg = c[r::m]
        if len(seg) > 1:
            if sign == -1:
                c[r::m] = accumulate(seg)
            else:
                c[r::m] = accumulate(seg, lambda acc, x: x - acc)


def _ref_sc_series(t, prec):
    c = [0] * prec
    c[0] = 1
    for m in range(2 * t, prec, 2 * t):
        for _ in range((t - 1) // 2):
            _ref_mul_binomial(c, m, -1)
    for m in range(1, prec, 2):
        _ref_mul_binomial(c, m, 1)
    for m in range(t, prec, 2 * t):
        _ref_div_binomial(c, m, 1)
    return tuple(c)


def _ref_eta_quotient_series(spec, prec):
    shift = int(spec.leading_power)
    body = prec - shift
    if body <= 0:
        return (0,) * prec
    c = [0] * body
    c[0] = 1
    for scale, exponent in spec.factors:
        for m in range(scale, body, scale):
            for _ in range(abs(exponent)):
                if exponent > 0:
                    _ref_mul_binomial(c, m, -1)
                else:
                    _ref_div_binomial(c, m, -1)
    return (0,) * shift + tuple(c)


def _ref_numerator(spec, body):
    # the body of the spec's positive eta factors alone, in q below
    # q^body: the numerator of a spec with no psi pair
    c = [0] * body
    c[0] = 1
    for scale, exponent in spec.factors:
        for m in range(scale, body, scale):
            for _ in range(max(exponent, 0)):
                _ref_mul_binomial(c, m, -1)
    return c


def _ref_pentagonal_eta_series(spec, prec):
    # eta_quotient_series before it paired eta(2s tau)^2 / eta(s tau) into
    # psi(q^s): every factor a pentagonal unit, the numerator bounded by the
    # product of the unit lengths
    if prec < 1:
        raise ValueError("precision must be positive")
    shift = int(spec.leading_power)
    body = prec - shift
    if body <= 0:
        return QSeries([0] * prec)
    num, den = [], []
    for scale, exponent in spec.factors:
        (num if exponent > 0 else den).extend([[(0, 1)] + _euler_terms(scale, body)] * abs(exponent))
    num_bound, den_bound = prod(map(len, num)), prod(map(len, den))
    last = _packed_width((num_bound * comb(body - 1 + len(den), len(den))) << (body - 1))

    def packed(units, k, x=1):
        for terms in units:
            x = _mul_packed(x, terms, k, body)
        return x

    k = 2
    while True:
        a = packed(num, k)
        c = _unpack(a * _inverse_2adic(packed(den, k), 8 * k * body), k, body)
        check = max(k, _packed_width(max(num_bound, max(map(abs, c)) * den_bound)))
        if check > k:
            a = packed(num, check)
        if (packed(den, check, _pack(c, check)) - a) & ((1 << 8 * check * body) - 1) == 0:
            return QSeries([0] * shift + c)
        if k == last:
            raise RuntimeError(f"eta quotient {spec.factors} failed its exact check at the proved width of {k} bytes")
        k = min(2 * k, last)


# 70 is a generalized pentagonal number, and so are 70/2 = 35 and 70/14 = 5:
# a body of length 70 stops just short of a term of (q;q), (q^2;q^2) and
# (q^14;q^14).
PENTAGONAL_EDGE = 70


def _precisions(shift):
    return (1, 2, shift + 1, shift + PENTAGONAL_EDGE, 602)


@pytest.mark.parametrize("scale", [1, 2, 7, 14, 28])
def test_euler_terms_match_binomial_product(scale):
    # 5 is pentagonal, so prec = 5*scale ends exactly on a term
    for prec in (1, 2, 5 * scale, 5 * scale + 1, 400):
        dense = [0] * prec
        dense[0] = 1
        for e, sign in _euler_terms(scale, prec):
            assert dense[e] == 0
            dense[e] = sign
        assert tuple(dense) == euler_factor(scale, -1, prec).coeffs


REFERENCE_SPECS = [
    SC7_ETA_QUOTIENT,
    EtaQuotientSpec(((8, 3),)),
    EtaQuotientSpec(((1, -3), (3, 9))),
    EtaQuotientSpec(((2, 5), (1, -2), (4, -2))),
    EtaQuotientSpec(((4, -3), (12, 3))),
    EtaQuotientSpec(((6, -2), (3, 4), (2, 6), (1, 12))),
]


@pytest.mark.parametrize("spec", REFERENCE_SPECS)
def test_eta_quotient_matches_reference(spec):
    for prec in _precisions(int(spec.leading_power)):
        assert eta_quotient_series(spec, prec).coeffs == _ref_eta_quotient_series(spec, prec)


@pytest.mark.parametrize("spec", REFERENCE_SPECS)
def test_eta_quotient_matches_pentagonal_reference(spec):
    for prec in _precisions(int(spec.leading_power)):
        assert eta_quotient_series(spec, prec) == _ref_pentagonal_eta_series(spec, prec)


def test_sc7_quotient_matches_pentagonal_reference():
    # 40003 is past 34743, where the check widens to 4 bytes
    for prec in (4003, 20003, 40003):
        assert eta_quotient_series(SC7_ETA_QUOTIENT, prec) == _ref_pentagonal_eta_series(SC7_ETA_QUOTIENT, prec)


# Specs for the pairing rule, each eta(2s tau)^2 / eta(s tau) becoming one
# psi(q^s) row, with the scale s of each pair in the order they are made.
PAIRING_SPECS = [
    (EtaQuotientSpec(((1, -1), (2, 2), (3, -1), (6, 2), (12, 1))), [1, 3]),  # pairs at two scales
    (EtaQuotientSpec(((1, -2), (2, 4), (18, 1))), [1, 1]),  # two pairs at one scale
    (EtaQuotientSpec(((2, -1), (4, 3), (14, 1))), [2]),  # eta(4 tau) left over
    (EtaQuotientSpec(((2, 1), (14, 1), (7, 1), (2, 1), (28, 1), (4, -1), (1, -1))), [1]),  # SC7, scale 2 split
    (EtaQuotientSpec(((1, -1), (2, 1), (23, 1))), []),  # eta(2 tau) only once: no pair
]


@pytest.mark.parametrize("spec, scales", PAIRING_SPECS)
def test_eta_quotient_pairs_into_psi(spec, scales):
    for prec in _precisions(int(spec.leading_power)):
        made = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qseries, "_psi_terms", lambda scale, limit: made.append(scale) or _psi_terms(scale, limit))
            c = eta_quotient_series(spec, prec).coeffs
        assert c == _ref_eta_quotient_series(spec, prec), (spec, prec)
        assert made == (scales if prec > spec.leading_power else []), (spec, prec)


# eta(tau)^-24 eta(2 tau)^24 at precision 200, which pairs into
# psi(q)^12 / (q; q)^12: the numerator psi(q)^12 needs slots of 8 bytes,
# where the division starts, and the quotient's coefficients reach far
# beyond 2^63, so it fails its exact check at widths 8 and 16 and reads
# back in slots of 32 bytes, wider than any array typecode.  The
# reference takes 2-3 s at the precision 602 of _precisions and 0.3 s
# at 200, so this spec is checked at 200 only.
WIDE_SPEC = EtaQuotientSpec(((1, -24), (2, 24)))


def _count_widths(monkeypatch, body, g):
    # the slot width k of each packed division: the denominator is
    # inverted in x = q^g, the gcd of its scales, over ceil(body/g) slots,
    # as 8*k*ceil(body/g) bits
    widths = []
    real = qseries._inverse_2adic

    def counted(a, bits):
        widths.append(bits // (8 * -(-body // g)))
        return real(a, bits)

    monkeypatch.setattr(qseries, "_inverse_2adic", counted)
    return widths


def test_eta_quotient_matches_reference_in_wide_slots(monkeypatch):
    body = 199
    c = [1] + [0] * (body - 1)
    for _ in range(24):
        _ref_div_sparse(c, _euler_terms(1, body))
    assert max(map(abs, c)) >= 2**63
    num = [1] + [0] * (body - 1)
    for _ in range(12):
        _ref_mul_sparse(num, [(e, 1) for e in accumulate(range(1, body)) if e < body])
    assert 2**31 <= max(map(abs, num)) < 2**63
    widths = _count_widths(monkeypatch, body, 1)
    assert eta_quotient_series(WIDE_SPEC, 200).coeffs == _ref_eta_quotient_series(WIDE_SPEC, 200)
    assert widths == [8, 16, 32]


def _record_packs(monkeypatch):
    # (width, length) of every _pack call
    packs = []
    monkeypatch.setattr(qseries, "_pack", lambda values, k: packs.append((k, len(values))) or _pack(values, k))
    return packs


def _record_inverse_bits(monkeypatch):
    # the precision in bits of every 2-adic inverse
    bits = []
    real = qseries._inverse_2adic
    monkeypatch.setattr(qseries, "_inverse_2adic", lambda a, b: bits.append(b) or real(a, b))
    return bits


def test_sc7_quotient_holds_at_the_first_width(monkeypatch):
    # one 2-adic inverse at k = 2: the check passes at the first width,
    # which is what makes the route fast.  Every pack is at 2 bytes, and
    # each is made once: the numerator's row in its one _product (its
    # bound max|row| * prod len(rest) stays below 2^15, where the product
    # of all the unit lengths would take 8 bytes), each residue class mod
    # 4 of the numerator (lengths 5001, 5000, 5000, 5000 of body 20001),
    # and the quotient for the check.
    widths = _count_widths(monkeypatch, 20001, 4)
    packs = _record_packs(monkeypatch)
    eta = eta_quotient_series(SC7_ETA_QUOTIENT, 20003)
    assert widths == [2]
    assert packs == [(2, 20001), (2, 5001), (2, 5000), (2, 5000), (2, 5000), (2, 20001)]
    assert eta[20002] == 64


@pytest.mark.parametrize("prec, row, value", [(40003, 2, 80), (100003, 4, 186)])
def test_sc7_numerator_packed_once(prec, row, value, monkeypatch):
    # from prec 34743 max|c| * len(den) passes 2^15, so the check packs c
    # at 4 bytes, and from 40799 the row's bound times the later factors
    # does too, so the numerator's row is packed at 4 bytes; the numerator
    # is still packed once, and it fits in 2 bytes, so the division holds
    # with one inverse at k = 2
    body = prec - 2
    widths = _count_widths(monkeypatch, body, 4)
    packs = _record_packs(monkeypatch)
    eta = eta_quotient_series(SC7_ETA_QUOTIENT, prec)
    quarter = body // 4
    assert widths == [2]
    assert packs == [(row, body), (2, quarter + 1), (2, quarter), (2, quarter), (2, quarter), (4, body)]
    assert eta[prec - 1] == value


def test_sc7_inverse_runs_over_a_quarter_of_the_body(monkeypatch):
    # the only denominator unit left after the psi pairing is (q^4;q^4),
    # so it is inverted in x = q^4 over ceil(body/4) slots, not body
    bits = _record_inverse_bits(monkeypatch)
    for body in (4000, 4001, 4002, 4003):
        bits.clear()
        eta_quotient_series(SC7_ETA_QUOTIENT, body + 2)
        assert bits == [8 * 2 * -(-body // 4)], body


# Specs for the division in x = q^g, g the gcd of the denominator
# scales left after the psi pairing, each with its g: the numerator has
# terms in every residue class mod g, and the quotient is put together
# from g products of ceil(body/g) slots.  None of them pairs into psi, so
# its numerator is the product of its positive factors (_ref_numerator).
SPLIT_SPECS = [
    (EtaQuotientSpec(((1, 6), (2, -1), (4, -1), (6, 4))), 2),
    (EtaQuotientSpec(((1, 9), (3, -1), (6, -1))), 3),
    (EtaQuotientSpec(((1, 8), (2, 2), (4, -1), (8, -1))), 4),
    (EtaQuotientSpec(((2, 12), (3, 4), (6, -1), (12, -1), (18, -1))), 6),
    (EtaQuotientSpec(((1, 12), (2, 12), (12, -1), (24, -1))), 12),
    (EtaQuotientSpec(((1, 5), (2, -1), (3, -1))), 1),
]


@pytest.mark.parametrize("spec, g", SPLIT_SPECS)
def test_eta_quotient_divides_in_the_denominator_variable(spec, g, monkeypatch):
    # every body mod g, from body 1 and bodies below g up, and again
    # at bodies near 120; the first inverse runs over ceil(body/g) slots
    # at the width of the numerator's largest |coefficient|
    shift = int(spec.leading_power)
    bits = _record_inverse_bits(monkeypatch)
    for body in [*range(1, 2 * g + 2), *range(120, 120 + g)]:
        bits.clear()
        assert eta_quotient_series(spec, shift + body).coeffs == _ref_eta_quotient_series(spec, shift + body), body
        width = _packed_width(max(map(abs, _ref_numerator(spec, body))))
        assert bits[0] == 8 * width * -(-body // g), body


def test_eta_quotient_raises_when_the_check_fails(monkeypatch):
    # a wrong inverse fails the exact check at every width up to the
    # proved bound, and the loop stops there; a loop that did not stop
    # would fail here instead of hanging
    calls = []

    def wrong(a, bits):
        calls.append(bits)
        if len(calls) > 50:
            raise AssertionError("the width loop does not stop")
        return 3

    monkeypatch.setattr(qseries, "_inverse_2adic", wrong)
    with pytest.raises(RuntimeError):
        eta_quotient_series(SC7_ETA_QUOTIENT, 40)
    assert 1 < len(calls) < 10


def test_eta_quotient_check_alone_rejects_a_faulty_split(monkeypatch):
    # the parts' read-back gives part 1 (exponents 1 mod 4) one
    # coefficient off at every width, with the real inverse and products:
    # the check, which multiplies c back by the denominator on the shared
    # kernel, fails at each width, and the loop raises at the proved
    # width, 8 bytes for SC7 at body 38, where the numerator's factors
    # have 9, 4, 3 and 2 terms and (216 * C(38, 1)) << 37 < 2^51
    body = 38
    bits = _record_inverse_bits(monkeypatch)
    parts = []

    def faulty(x, k, n):
        values = _unpack(x, k, n)
        if n < body:
            parts.append(n)
            if len(parts) % 4 == 2:
                values[0] += 1
        return values

    monkeypatch.setattr(qseries, "_unpack", faulty)
    with pytest.raises(RuntimeError, match="proved width of 8 bytes"):
        eta_quotient_series(SC7_ETA_QUOTIENT, body + 2)
    assert bits == [8 * k * 10 for k in (2, 4, 8)]
    assert parts == [10, 10, 9, 9] * 3


def test_eta_quotient_pure_product_beyond_the_first_width():
    # eta(tau)^24 = sum tau(n) q^n, Ramanujan's tau: no denominator, and
    # coefficients past 2^15, so the division starts at 4 bytes, the
    # width of the numerator itself, not at 2
    tau = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920,
           534612, -370944, -577738, 401856, 1217160, 987136)
    assert eta_quotient_series(EtaQuotientSpec(((1, 24),)), 17).coeffs == (0,) + tau


@pytest.mark.parametrize("bits", [1, 2, 3, 64, 65, 10**5])
def test_inverse_2adic(bits):
    rng = random.Random(bits)
    for a in (1, 3, -1, 2**bits - 1, 2**bits + 1, rng.getrandbits(bits + 7) | 1):
        y = _inverse_2adic(a, bits)
        assert 0 <= y < 2**bits
        assert a * y % 2**bits == 1, a


def test_inverse_2adic_rejects_even():
    for a in (0, 2, -4, 2**70):
        with pytest.raises(ValueError):
            _inverse_2adic(a, 64)


def _random_specs(count, seed):
    # specs with scales <= 6 and |exponent| <= 4 whose net power is a
    # non-negative integer, each with a precision <= 80
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        scales = rng.sample(range(1, 7), rng.randint(1, 4))
        factors = tuple((s, rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))) for s in scales)
        net = sum(s * e for s, e in factors)
        if net >= 0 and net % 24 == 0:
            specs.append((EtaQuotientSpec(factors), rng.randint(1, 80)))
    return specs


def test_eta_quotient_matches_reference_on_random_specs():
    for spec, prec in _random_specs(40, 1907):
        assert eta_quotient_series(spec, prec).coeffs == _ref_eta_quotient_series(spec, prec), spec


@pytest.mark.parametrize("k", [2, 4, 8, 9])
def test_mul_packed_matches_slice_adds(k):
    # multiplicities -1, 1, 2 and 3, with terms beyond the precision too;
    # the coefficients are as large as width k allows, so each slot of the
    # product is near its limit
    n = 60
    rng = random.Random(k)
    terms = [(e, rng.choice((-1, 1, 2, 3))) for e in sorted(rng.sample(range(1, 70), 25))]
    top = (2 ** (8 * k - 1) - 1) // (1 + sum(abs(m) for _, m in terms))
    c = [rng.choice((-top, top, rng.randint(-top, top))) for _ in range(n)]
    expected = c[:]
    _ref_mul_sparse(expected, terms)
    assert _packed_width(max(map(abs, expected))) <= k
    assert _unpack(_mul_packed(_pack(c, k), [(0, 1)] + terms, k, n), k, n) == expected


def test_packed_width_at_its_boundaries():
    # the least of 2, 4, 8 bytes, then of any byte count k, with bound < 2^(8k-1)
    for bound, k in ((0, 2), (2**15 - 1, 2), (2**15, 4), (2**31 - 1, 4), (2**31, 8),
                     (2**63 - 1, 8), (2**63, 9), (2**71 - 1, 9), (2**71, 10)):
        assert _packed_width(bound) == k, bound


@pytest.mark.parametrize("k", [2, 4, 8, 9, 16])
def test_pack_reads_back_the_extreme_slots(k):
    # every pair of the extreme values -2^(8k-1), -1, 0, 1 and 2^(8k-1) - 1
    # side by side, so that each slot borrows from or carries into the next
    b = 2 ** (8 * k - 1)
    extremes = (-b, -1, 0, 1, b - 1)
    values = [v for u in extremes for w in extremes for v in (u, w)]
    x = _pack(values, k)
    assert x == sum(v << 8 * k * e for e, v in enumerate(values))
    assert _unpack(x, k, len(values)) == values
    assert _unpack(x, k, 3) == values[:3]



def _ref_product(pairs, n):
    # sum_i row_i * prod factors_i below q^n, schoolbook: one dense pass
    # per factor, one Python step per coefficient and term
    total = [0] * n
    for row, factors in pairs:
        c = (list(row) + [0] * n)[:n]
        for terms in factors:
            c = [sum(m * c[e - f] for f, m in terms if f <= e) for e in range(n)]
        total = [x + y for x, y in zip(total, c)]
    return total


def _random_pairs(rng, count, n):
    # rows of either sign, up to 2^70 in size, each times up to three
    # factors of up to five terms with multiplicities +-1..3, their
    # exponents drawn below n + 3, so some at or past n
    pairs = []
    for _ in range(count):
        top = 2 ** rng.choice((3, 15, 40, 70))
        row = [rng.randint(-top, top) for _ in range(n)]
        factors = []
        for _ in range(rng.randint(0, 3)):
            es = rng.sample(range(n + 3), rng.randint(1, min(5, n + 3)))
            factors.append({e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in es}.items())
        pairs.append((row, factors))
    return pairs


@pytest.mark.parametrize("n", [1, 2, 17, 300])
def test_product_matches_schoolbook(n):
    rng = random.Random(n)
    for count in (1, 2) * 15:
        pairs = _random_pairs(rng, count, n)
        expected = _ref_product(pairs, n)
        assert _product(pairs, n) == expected, pairs
        assert max(map(abs, expected)) <= _bound(pairs), pairs
    # a negative row entry larger than the row's maximum, and a factor whose
    # multiplicity exceeds its term count: each needs the wider slot
    assert _product([([1, -2**20], [])], 2) == [1, -2**20]
    assert _product([([2**14, 1], [[(0, 3)]]), ([0, -1], [])], 2) == [3 * 2**14, 2]


def test_bound_by_hand():
    f, g = [(0, 1), (2, -3)], {1: 2, 5: -1}.items()  # sum |m|: 4 and 3
    assert _bound([]) == 0
    assert _bound([([0, 7, -2], [])]) == 7
    assert _bound([([3, -5, 2], [f, g])]) == 5 * 4 * 3
    assert _bound([([3, -5, 2], [f]), ([-1, 6], [g, g])]) == 5 * 4 + 6 * 3 * 3


def test_product_width_ticks_at_2_to_the_15():
    # 4681 * 7 = 2^15 - 1 at q^2 packs in 2 bytes; one more there needs 4,
    # and both read back exactly
    seven = [(0, 1), (1, 3), (2, 3)]
    low = [([4681] * 3, [seven])]
    for pairs, top, width in ((low, 2**15 - 1, 2), (low + [([0, 0, 1], [])], 2**15, 4)):
        widths = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qseries, "_pack", lambda values, k: widths.append(k) or _pack(values, k))
            c = _product(pairs, 3)
        assert _bound(pairs) == c[2] == top
        assert c == _ref_product(pairs, 3)
        assert widths == [width] * len(pairs)


def _ref_sparse_sc_series(t, prec):
    # the triple-product factors multiplied in with one slice-add per term,
    # as sc_series did before its Kronecker substitution
    c = [0] * prec
    c[0] = 1
    for j in range(1, (t + 1) // 2):
        _ref_mul_sparse(c, [(e, 1) for e in _x_terms(t, -2 * j, prec) if e])
    return tuple(c)


# 57 = 7*3^2 - 2*3 and 69 = 7*3^2 + 2*3 are exponents of the j = 1 theta
# factor of sc_series(7, .): precisions 57 and 69 stop just short of a
# term, 58 and 70 take it in.
THETA_EDGES = (57, 58, 69, 70)


def _box_bound(t, prec):
    # (2M + 3)^(s - 1), the lattice-box bound on every coefficient of
    # sc_series(t, prec), with M = isqrt(prec // t) and t = 2s + 1.  The
    # coefficient of q^n counts the x in Z^s with
    # sum_i (t x_i^2 - 2 j_i x_i) = n < prec.  Each term is at least
    # |x_i| (t |x_i| - t + 1) >= 0, so below prec, which bounds every
    # |x_i| by M + 1: 2M + 3 values for each of the first s - 1
    # coordinates, and then at most one integer root for the last, as the
    # two roots of t x^2 - 2 j x = c sum to 2j/t, strictly between 0 and 1.
    return (2 * isqrt(prec // t) + 3) ** max((t - 3) // 2, 0)


def _row_bound(t, prec):
    # max(row) * prod len(F_i), the bound that sc_series sizes its slots
    # from: the row, the product of the first two factors below q^prec,
    # is counted here pair by pair, and the F_i are the later factors
    factors = [_x_terms(t, -2 * j, prec) for j in range(1, (t + 1) // 2)]
    row = Counter(e for e in map(sum, product(*factors[:2])) if e < prec)
    return max(row.values()) * prod(map(len, factors[2:]))


def _slot_width(t, prec):
    # the bytes per packed slot that sc_series derives from that bound
    return _packed_width(_row_bound(t, prec))


def _width_ticks(t, lo, hi):
    # each prec in (lo, hi] whose slot width differs from prec - 1's, with
    # prec - 1: the last precision of the old width and the first of the
    # new.  The bound never falls as prec grows (the row and the factors
    # only gain terms), so each new width is found by bisection.
    ticks = []
    p = max(lo, 1)
    while (w := _slot_width(t, p)) != _slot_width(t, hi):
        p += bisect_right(range(p, hi + 1), w, key=partial(_slot_width, t))
        ticks += [p - 1, p]
    return tuple(ticks)


def _check_sc_series(t, prec, reference):
    # sc_series(t, prec) against the reference and under both bounds,
    # packed at the width that the row bound gives: its coefficients are
    # below the bound, so a narrower slot might read them back all the
    # same, and only the recorded width shows it
    widths = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qseries, "_pack", lambda values, k: widths.append(k) or _pack(values, k))
        c = sc_series(t, prec).coeffs
    assert widths == [_slot_width(t, prec)], (t, prec)
    assert c == reference(t, prec), (t, prec)
    assert max(c) <= min(_row_bound(t, prec), _box_bound(t, prec)), (t, prec)
    return c


# The width ticks below 10^5 under the row bound.  At t = 7 the bound is
# 2868 at 10^5 and passes 2^15 only above 3*10^6.  For t = 3 and 5 there
# is no later factor and the bound is max(row), a few units.  At t = 31
# it passes 2^15, 2^31, 2^63, 2^71, 2^79 and 2^87, so the slots leave the
# array typecodes at 5448.
WIDTH_TICKS = {
    3: (),
    5: (),
    7: (),
    9: (12099, 12100),
    11: (1160, 1161),
    13: (408, 409, 57156, 57157),
    15: (177, 178, 11536, 11537),
    21: (64, 65, 931, 932),
    31: (43, 44, 184, 185, 5447, 5448, 12760, 12761, 28560, 28561, 66976, 66977),
}


def test_width_ticks_are_where_the_bound_gains_a_digit():
    # the digits are slots of 2, 4, 8 and then any number of bytes
    for t, ticks in WIDTH_TICKS.items():
        assert _width_ticks(t, 0, 10**5) == ticks, t
    assert [_slot_width(31, p) for p in WIDTH_TICKS[31][4:6]] == [8, 9]


# The binomial oracle is quadratic: it checks the width ticks below 3000.
@pytest.mark.parametrize("t", [1, 3, 5, 7, 9, 11, 13, 15, 21])
def test_sc_series_matches_reference(t):
    for prec in _precisions(0) + THETA_EDGES + _width_ticks(t, 0, 3000):
        _check_sc_series(t, prec, _ref_sc_series)


def test_sc_series_matches_sparse_reference():
    _check_sc_series(7, 20000, _ref_sparse_sc_series)
    for t in (9, 15):
        for prec in _width_ticks(t, 3000, 2 * 10**4):
            _check_sc_series(t, prec, _ref_sparse_sc_series)


# Exact integer products of any size: no rounding, no exponent limit.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _ref_decimal_sc_series(t, prec):
    # sc_series before it moved onto the packed binary kernel: Kronecker
    # substitution in decimal.  Each factor is one decimal integer with w
    # digits per coefficient slot, w the digit count of (2M + 3)^s plus 1;
    # libmpdec multiplies the factors exactly (by a number-theoretic
    # transform for large operands), the low prec*w digits are kept after
    # each product, and the slots are read back once at the end.
    s = (t - 1) // 2
    w = len(str((2 * isqrt(prec // t) + 3) ** s)) + 1
    size = prec * w
    product = Decimal(1)
    for j in range(1, s + 1):
        digits = bytearray(b"0") * size
        for e, mult in _x_terms(t, -2 * j, prec).items():
            slot = str(mult).encode()
            digits[size - e * w - len(slot):size - e * w] = slot
        product = _EXACT.multiply(product, Decimal(digits.decode()))
        if product.adjusted() >= size:  # keep the low size digits
            product = Decimal(str(product)[-size:])
    text = str(product).rjust(size, "0")
    return tuple(int(text[i - w:i]) for i in range(size, 0, -w))


def test_sc_series_matches_decimal_reference():
    # t = 7 at the sizes the CLI serves, and at 56699 and 56700, where the
    # lattice-box bound widened the slots from 2 to 4 bytes; t = 31 where
    # the slots grow past 8 bytes and leave the array path for one
    # to_bytes call per slot.  The last 8-byte precision is checked
    # against the checked 9-byte series, which holds it as a prefix.
    for prec in (30001, 56699, 56700, 100001):
        _check_sc_series(7, prec, _ref_decimal_sc_series)
    last8, first9 = WIDTH_TICKS[31][4:6]
    wide = _check_sc_series(31, first9, _ref_decimal_sc_series)
    _check_sc_series(31, last8, lambda t, prec: wide[:prec])


def test_decimal_is_the_c_module():
    # the decimal oracle needs the C module (libmpdec): the pure-Python
    # _pydecimal multiplies in quadratic time, so without it the oracle
    # tests would slow down with no error.
    import _decimal

    assert Context is _decimal.Context


def test_array_codes_cover_the_packed_widths():
    # the packed kernels move slots of 2, 4 and 8 bytes through array; a
    # width without a typecode takes one Python step per slot, so without
    # these the kernels would slow down with no error.
    assert set(_ARRAY_CODES) == {2, 4, 8}
