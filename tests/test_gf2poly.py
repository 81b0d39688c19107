import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ONE,
    X,
    _berlekamp_factors,
    all_ones_poly,
    berlekamp_factor,
    berlekamp_massey,
    coset_minimal_polys,
    cyclotomic_cosets,
    cyclotomic_poly,
    divides,
    gcd_by_divmod,
    is_irreducible,
    lfsr_regenerate,
    linear_complexity,
    minimal_polys_of_order,
    mul_int,
    poly_add,
    poly_from_seq,
    poly_mul,
    recombine,
    smallest_irreducible,
    x_pow_plus_one,
)
from slce.cli import _odd_prime_powers_upto
from slce.cyclotomic import ideal_factors
from slce.fields import build_field, divisors
from slce import gf2poly
from slce.gf2poly import (
    _cyclotomic_plan,
    _divmod_int,
    _fold,
    _gcd_int,
    _mod_cyclotomic,
    _mod_int,
    _multiplier_certificate,
    _multiplier_group,
    _smooth_length,
    _sqr_int,
    _times_binomials,
    Gf2Poly,
    cyclotomic_mod2,
    factor_squarefree,
    factored_str,
    gcd,
    gcd_factors,
)
from slce.sequences import generate

polys = st.integers(min_value=1, max_value=(1 << 48) - 1).map(Gf2Poly)


def test_poly_basics():
    f = Gf2Poly.from_coeffs([1, 1, 0, 1])
    assert f.degree == 3
    assert str(f) == "x^3+x+1"
    assert Gf2Poly(0).degree == -1
    assert str(Gf2Poly(0)) == "0"
    assert str(ONE) == "1"
    assert poly_add(f, f).is_zero()
    q, r = map(Gf2Poly, _divmod_int(f.bits, X.bits))
    assert poly_add(poly_mul(q, X), r) == f
    assert Gf2Poly(3) != 3  # no int equals a Gf2Poly, so == agrees with the hash
    assert 3 not in {Gf2Poly(3)}


@given(bits=st.one_of(polys.map(lambda f: f.bits), st.integers(min_value=1, max_value=(1 << 3000) - 1)))
@settings(max_examples=200, deadline=None)
def test_str_lists_the_set_bits_in_descending_order(bits):
    f = Gf2Poly(bits)
    terms = ("1" if i == 0 else "x" if i == 1 else f"x^{i}" for i in range(f.degree, -1, -1) if (f.bits >> i) & 1)
    assert str(f) == "+".join(terms)


def test_poly_from_seq():
    assert poly_from_seq(generate(build_field(5, 1))) == Gf2Poly(0b11)  # 1 + x
    assert str(poly_from_seq(generate(build_field(5, 1)))) == "x+1"
    assert poly_from_seq(generate(build_field(3, 1))) == ONE

    class FakeSeq:
        v = 4

        def as_int(self):
            return 0

    assert poly_from_seq(FakeSeq()).is_zero()


def test_gcd_fixtures():
    # x^4 + 1 = (x+1)^4 in characteristic 2
    assert gcd(Gf2Poly(0b10001), Gf2Poly(0b11)) == Gf2Poly(0b11)
    f = Gf2Poly(0b1011001)
    assert gcd(f, Gf2Poly(0)) == f
    assert gcd(Gf2Poly(0), f) == f
    with pytest.raises(ValueError):
        gcd(Gf2Poly(0), Gf2Poly(0))


def test_gcd_reference_q25():
    seq = generate(build_field(5, 2))
    assert factored_str(gcd_factors(24, poly_from_seq(seq))) == "(x+1)^4"


@given(a=polys, b=polys, c=polys)
@settings(max_examples=150, deadline=None)
def test_gcd_properties(a, b, c):
    g = gcd(a, b)
    assert divides(g, a) and divides(g, b)
    assert gcd(a, b) == gcd(b, a)
    assert gcd(gcd(a, b), c) == gcd(a, gcd(b, c))


@st.composite
def binomial_gcd_cases(draw):
    """(v, s): v with 2-adic valuation 0..6, s zero, below degree v, or above it."""
    e = draw(st.integers(min_value=0, max_value=6))
    v = (draw(st.integers(min_value=0, max_value=120)) * 2 + 1) << e
    kind = draw(st.sampled_from(["zero", "short", "long", "shared"]))
    if kind == "zero":
        return v, 0
    deg = draw(st.integers(min_value=0, max_value=v - 1 if kind == "short" else 3 * v))
    s = draw(st.integers(min_value=0, max_value=(1 << deg) - 1)) | (1 << deg)
    if kind == "shared":  # force repeated factors of x^v + 1 into s
        w = v >> e
        f = gcd_by_divmod((1 << w) | 1, draw(st.integers(min_value=1, max_value=(1 << w) - 1)))
        for _ in range(draw(st.integers(min_value=1, max_value=(1 << e) + 2))):
            s = mul_int(s, f)
    return v, s


@given(case=binomial_gcd_cases())
@settings(max_examples=300, deadline=None)
def test_gcd_with_binomial_matches_euclid(case):
    v, s = case
    assert recombine(gcd_factors(v, Gf2Poly(s))).bits == gcd_by_divmod((1 << v) | 1, s)


def test_gcd_with_binomial_matches_euclid_on_every_field_to_3000():
    fields = _odd_prime_powers_upto(3000)
    assert len(fields) == 455
    for q, p, m in fields:
        s2 = poly_from_seq(generate(build_field(p, m)))
        assert recombine(gcd_factors(q - 1, s2)).bits == gcd_by_divmod((1 << (q - 1)) | 1, s2.bits), q


def test_cyclotomic_mod2_is_phi_mod_2():
    for d in [*range(1, 2000, 2), 15015, 92823]:
        assert cyclotomic_mod2(d) == Gf2Poly.from_coeffs(cyclotomic_poly(d)), d


@st.composite
def odd_moduli(draw):
    """Odd d with up to four distinct prime factors, one of them possibly squared."""
    primes = draw(st.lists(st.sampled_from([3, 5, 7, 11, 13]), max_size=4, unique=True))
    d = math.prod(primes)
    return d * primes[0] if primes and draw(st.booleans()) else d


@given(d=odd_moduli(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_psi_remainder_matches_long_division(d, data):
    f = data.draw(st.integers(min_value=0, max_value=(1 << 3 * d) - 1))
    assert _mod_cyclotomic(f, d) == _mod_int(f, cyclotomic_mod2(d).bits)


@given(
    a=st.integers(min_value=0, max_value=(1 << 600) - 1),
    c=st.integers(min_value=1, max_value=300),
    k=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=200, deadline=None)
def test_division_by_binomials_inverts_multiplication(a, c, k):
    factors = [(c, 1)] * k
    assert _times_binomials(a, factors + [(c, -1)] * k) == a
    assert _times_binomials(_times_binomials(a, factors), [(c, -1)] * k) == a


def test_inexact_division_by_a_binomial_raises():
    for a, c in [(0b111, 1), (1, 3), (0b1011, 2), ((1 << 10) | 1, 3)]:
        with pytest.raises(ArithmeticError):
            _times_binomials(a, [(c, -1)])


@pytest.mark.parametrize("v", [15015 << e for e in range(4)] + [1009, 4 * 1009, 2 * 8191])
def test_gcd_with_binomial_matches_euclid_across_cyclotomic_factors(v):
    # s shares factors of several Phi_d, d | w, to powers on both sides of 2^e
    rng = random.Random(v)
    e = (v & -v).bit_length() - 1
    w = v >> e
    s = rng.getrandbits(v // 2) | (1 << (v // 2))
    for d in rng.sample(divisors(w), min(4, len(divisors(w)))):
        for _ in range(rng.randint(1, (1 << e) + 1)):
            s = mul_int(s, cyclotomic_mod2(d).bits)
    want = gcd_by_divmod((1 << v) | 1, s)
    assert want != 1
    assert recombine(gcd_factors(v, Gf2Poly(s))).bits == want


def _certificate_cases(p, m):
    """(d, r, p) for every d > 1 dividing the odd part w of v = q - 1, r = S2 mod x^d + 1."""
    v = p**m - 1
    w = v >> ((v & -v).bit_length() - 1)
    f = _fold(generate(build_field(p, m)).as_int(), w)
    return [(d, _fold(f, d), p) for d in divisors(w)[1:]]


def _check_certificate(d, r, p):
    """The certificate agrees with Euclid on Phi_d; returns (t' = 1, verdict)."""
    group = _multiplier_group(d, p)
    verdict = _multiplier_certificate(r, d, p, group)
    assert verdict == (_gcd_int(_cyclotomic_plan(d)[0], r) == 1), (p, d)
    return cyclotomic_mod2(d).degree == group.size, verdict


def test_multiplier_certificate_matches_euclid_on_every_field_to_3000():
    outcomes = set()
    for q, p, m in _odd_prime_powers_upto(3000):
        for d, r, p in _certificate_cases(p, m):
            outcomes.add(_check_certificate(d, r, p))
    # one orbit and several, each with G_d = 1 and G_d != 1
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize(
    "p,m,outcomes",
    [(13, 5, {(True, True), (False, True)}), (17, 5, {(True, True)})],  # 13^5 has two orbits at d = 92,823
)
def test_multiplier_certificate_matches_euclid_at_long_periods(p, m, outcomes):
    assert {_check_certificate(*case) for case in _certificate_cases(p, m)} == outcomes
    s = Gf2Poly(generate(build_field(p, m)).as_int())
    assert gcd_factors(p**m - 1, s, multiplier=p) == gcd_factors(p**m - 1, s)


def test_multiplier_group_is_generated_by_2_and_p():
    for d, p in [(7, 3), (15, 7), (91, 3), (105, 11), (1023, 5), (4069, 5)]:
        want, frontier = {1}, [1]
        while frontier:
            a = frontier.pop()
            for b in (2 * a % d, p * a % d):
                if b not in want:
                    want.add(b)
                    frontier.append(b)
        got = _multiplier_group(d, p)
        assert sorted(got.tolist()) == sorted(want), (d, p)


def test_certificate_falls_back_when_p_is_not_a_multiplier():
    v, p = 13**5 - 1, 13
    s = generate(build_field(13, 5)).as_int() ^ 2  # flip the coefficient of x: D is no longer fixed by t -> 13 t
    for d in [30941, 92823]:
        assert _multiplier_certificate(_fold(s, d), d, p, _multiplier_group(d, p)) is None
    assert gcd_factors(v, Gf2Poly(s), multiplier=p) == gcd_factors(v, Gf2Poly(s))
    assert gcd_factors(v, Gf2Poly(s), multiplier=p) == gcd_factors(v, Gf2Poly(s), multiplier=3)


def test_certificate_of_zero_and_one():
    for d, p in [(7, 3), (15, 7), (73, 3), (4069, 5)]:
        # 0 vanishes at every root of Phi_d, 1 at none
        assert _multiplier_certificate(0, d, p, _multiplier_group(d, p)) is False
        assert _multiplier_certificate(1, d, p, _multiplier_group(d, p)) is True
    for v in [1, 4, 7, 12, 45, 96, 252]:
        assert gcd_factors(v, Gf2Poly(0), multiplier=5) == berlekamp_factor(x_pow_plus_one(v)), v


def test_rounding_guard_falls_back_to_euclid(monkeypatch):
    s = Gf2Poly(generate(build_field(13, 5)).as_int())
    want = gcd_factors(13**5 - 1, s)
    calls = []
    convolve = gf2poly._convolve

    def off_by_three_tenths(a, b, n):
        calls.append(n)
        return convolve(a, b, n) + 0.3

    monkeypatch.setattr(gf2poly, "_convolve", off_by_three_tenths)
    d, p = 92823, 13
    assert _multiplier_certificate(_fold(s.bits, d), d, p, _multiplier_group(d, p)) is None
    calls.clear()
    assert gcd_factors(13**5 - 1, s, multiplier=13) == want
    assert calls  # the certificate ran, failed its guard, and Euclid decided


def test_smooth_length_is_the_least_5_smooth_bound():
    def smooth(n):
        for f in (2, 3, 5):
            while n % f == 0:
                n //= f
        return n == 1

    for n in range(1, 3000):
        want = next(k for k in range(n, 2 * n + 1) if smooth(k))
        assert _smooth_length(n) == want, n


@given(
    da=st.integers(min_value=0, max_value=1500),
    db=st.integers(min_value=0, max_value=1500),
    common=st.integers(min_value=1, max_value=(1 << 300) - 1),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_euclid_matches_divmod_euclid(da, db, common, data):
    # degree gaps on both sides of the window, with and without a shared factor
    a = data.draw(st.integers(min_value=0, max_value=(1 << da) - 1)) | (1 << da)
    b = data.draw(st.integers(min_value=0, max_value=(1 << db) - 1)) | (1 << db)
    if data.draw(st.booleans()):
        a, b = mul_int(a, common), mul_int(b, common)
    assert _gcd_int(a, b) == gcd_by_divmod(a, b)
    assert _gcd_int(b, a) == gcd_by_divmod(b, a)


@given(k=st.sampled_from([3, 5, 7, 9, 15, 21, 23, 31, 45, 63]), data=st.data())
@settings(max_examples=300, deadline=None)
def test_divisibility_survives_the_fold(k, data):
    # each g of ideal_factors(k) divides x^k + 1, so g | s iff g | (s mod x^k + 1)
    ideals = ideal_factors(k)
    deg = data.draw(st.integers(min_value=0, max_value=20 * k))
    s = Gf2Poly(data.draw(st.integers(min_value=0, max_value=(1 << deg) - 1)) | (1 << deg))
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):  # so that g | s occurs
        s = poly_mul(s, data.draw(st.sampled_from(ideals)))
    folded = Gf2Poly(_fold(s.bits, k))
    assert folded == s % x_pow_plus_one(k)
    for g in ideals:
        assert divides(g, s) == divides(g, folded)


@given(
    a=st.integers(min_value=0, max_value=(1 << 1200) - 1),
    db=st.integers(min_value=0, max_value=400),
    low=st.integers(min_value=0, max_value=(1 << 400) - 1),
)
@settings(max_examples=300, deadline=None)
def test_windowed_remainder_matches_long_division(a, db, low):
    b = (1 << db) | (low & ((1 << db) - 1))
    assert _mod_int(a, b) == _divmod_int(a, b)[1]


@given(a=st.integers(min_value=0, max_value=(1 << 2000) - 1))
@settings(max_examples=100, deadline=None)
def test_square_matches_product(a):
    assert _sqr_int(a) == mul_int(a, a)


def test_factor_fixtures():
    assert gcd_factors(3, Gf2Poly(0b111)) == [(Gf2Poly(0b111), 1)]  # irreducible quadratic
    # x^7 + 1: oracle below divides out all cubics exhaustively
    f = Gf2Poly((1 << 7) | 1)
    got = gcd_factors(7, f)
    cubics = [Gf2Poly(bits) for bits in range(0b1000, 0b10000) if divides(Gf2Poly(bits), f)]
    assert [g for g, _ in got] == sorted([Gf2Poly(0b11)] + cubics, key=lambda g: (g.degree, g.bits))
    assert all(e == 1 for _, e in got)

    p4 = Gf2Poly(0b11)
    p4 = poly_mul(poly_mul(poly_mul(p4, p4), p4), p4)
    assert gcd_factors(4, p4) == [(Gf2Poly(0b11), 4)]
    assert gcd_factors(4, ONE) == []
    assert gcd_factors(6, Gf2Poly(0b1011)) == []  # x^3 + x + 1 divides x^7 + 1, not x^6 + 1
    # (x + 1)^8 meets x^12 + 1 = (x + 1)^4 (x^2 + x + 1)^4 in (x + 1)^4
    assert gcd_factors(12, poly_mul(p4, p4)) == [(Gf2Poly(0b11), 4)]
    for v in [1, 4, 7, 12, 45, 96, 252]:  # gcd(x^v + 1, 0) = x^v + 1
        assert gcd_factors(v, Gf2Poly(0)) == berlekamp_factor(x_pow_plus_one(v)), v


@st.composite
def binomial_divisors(draw):
    """(g, v): g a random product of factors of Phi_d mod 2, d | w, each to a power <= 2^e."""
    e = draw(st.integers(min_value=0, max_value=5))
    w = draw(st.sampled_from([1, 3, 7, 9, 15, 21, 45, 63, 73, 105, 255]))
    g = ONE
    for d in divisors(w):
        for h in _berlekamp_factors(Gf2Poly.from_coeffs(cyclotomic_poly(d)).bits):
            for _ in range(draw(st.integers(min_value=0, max_value=1 << e))):
                g = poly_mul(g, Gf2Poly(h))
    return (g if g.degree >= 1 else Gf2Poly(0b11)), w << e


@given(case=binomial_divisors())
@settings(max_examples=150, deadline=None)
def test_factor_matches_berlekamp_oracle(case):
    # g | x^v + 1, so gcd(x^v + 1, g) = g
    g, v = case
    assert gcd_factors(v, g) == berlekamp_factor(g)


@given(bits=st.integers(min_value=2, max_value=(1 << 44) - 1))
@settings(max_examples=150, deadline=None)
def test_factor_recombines_and_is_irreducible(bits):
    # the oracle itself, on polynomials that need not divide any x^n + 1
    f = Gf2Poly(bits)
    fac = berlekamp_factor(f)
    assert recombine(fac) == f
    for g, e in fac:
        assert is_irreducible(g)
        assert e >= 1
    assert fac == sorted(fac, key=lambda item: (item[0].degree, item[0].bits))


def test_factor_squarefree_matches_berlekamp_oracle():
    for k in range(3, 300, 2):
        f = Gf2Poly.from_coeffs(cyclotomic_poly(k))
        want = sorted(map(Gf2Poly, _berlekamp_factors(f.bits)), key=lambda g: g.bits)
        assert factor_squarefree(f, k) == want, k
    # k = 2047: 176 factors of degree 11.  Factorization is unique, so
    # distinct sorted irreducibles whose product is Phi_k are the oracle's
    # answer, without its 1936 x 1936 Q-matrix.
    f = Gf2Poly.from_coeffs(cyclotomic_poly(2047))
    got = factor_squarefree(f, 2047)
    assert len(got) == 176
    assert all(g.degree == 11 and is_irreducible(g) for g in got)
    assert [g.bits for g in got] == sorted({g.bits for g in got})
    assert recombine([(g, 1) for g in got]) == f


def test_factor_squarefree_structured_case():
    # two reciprocal degree-18 irreducibles that defeat naive trace splitting;
    # their roots have order 2^18 - 1 = 262143
    f = Gf2Poly(0x145114514F)
    parts = factor_squarefree(f, 262143)
    assert len(parts) == 2
    assert all(g.degree == 18 and is_irreducible(g) for g in parts)
    assert poly_mul(parts[0], parts[1]) == f


def test_cyclotomic_cosets():
    assert cyclotomic_cosets(5) == [[0], [1, 2, 4, 3]]
    assert cyclotomic_cosets(7) == [[0], [1, 2, 4], [3, 6, 5]]
    assert cyclotomic_cosets(3) == [[0], [1, 2]]
    with pytest.raises(ValueError):
        cyclotomic_cosets(6)


def test_minimal_polys_fixtures():
    assert minimal_polys_of_order(5) == [Gf2Poly(0b11111)]
    assert [str(g) for g in minimal_polys_of_order(5)] == ["x^4+x^3+x^2+x+1"]
    assert [str(g) for g in minimal_polys_of_order(7)] == ["x^3+x+1", "x^3+x^2+1"]
    assert [str(g) for g in minimal_polys_of_order(3)] == ["x^2+x+1"]
    with pytest.raises(ValueError):
        minimal_polys_of_order(10)


@pytest.mark.parametrize("k", [3, 5, 7, 9, 11, 15, 21, 23, 31, 33, 35])
def test_coset_minimal_poly_product(k):
    prod = ONE
    for orbit, g in coset_minimal_polys(k):
        assert is_irreducible(g)
        assert g.degree == len(orbit)
        prod = poly_mul(prod, g)
    assert prod == all_ones_poly(k)


@pytest.mark.parametrize("q,k", [(25, 3), (361, 5), (729, 7), (81, 5)])
def test_all_ones_divides_x_pow_plus_one(q, k):
    assert (q - 1) % k == 0
    assert divides(all_ones_poly(k), x_pow_plus_one(q - 1))


def test_linear_complexity_fixtures():
    assert linear_complexity(generate(build_field(5, 1))) == 3
    assert linear_complexity(generate(build_field(5, 2))) == 20
    assert linear_complexity(generate(build_field(3, 4))) == 70

    class ZeroSeq:
        v = 4

        def as_int(self):
            return 0

    with pytest.warns(UserWarning):
        assert linear_complexity(ZeroSeq()) == 0


def test_berlekamp_massey_fixtures():
    seq = generate(build_field(5, 1))
    big_l, conn = berlekamp_massey(seq)
    assert big_l == 3
    assert conn.bits & 1 == 1

    ones = SimpleNamespace(v=2, bits=np.array([1, 1], dtype=np.uint8))
    big_l, conn = berlekamp_massey(ones)
    assert big_l == 1

    seq25 = generate(build_field(5, 2))
    assert berlekamp_massey(seq25)[0] == 20

    with pytest.raises(ValueError):
        berlekamp_massey(seq, n_terms=5)


@pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (3, 2), (13, 1), (3, 4), (5, 2), (11, 2)])
def test_bm_agrees_with_gcd_formula_and_regenerates(p, m):
    seq = generate(build_field(p, m))
    want = linear_complexity(seq)
    big_l, conn = berlekamp_massey(seq)
    assert big_l == want
    bits = [int(b) for b in seq.bits] * 2
    regen = lfsr_regenerate(conn, big_l, bits[:big_l], len(bits))
    assert regen == bits


def test_factored_str_format():
    f = Gf2Poly(0b11)
    items = [(f, 4), (Gf2Poly(0b111), 1)]
    assert factored_str(items) == "(x+1)^4 (x^2+x+1)"
    assert factored_str([]) == "1"


def test_smallest_irreducible():
    assert smallest_irreducible(1) == X
    assert str(smallest_irreducible(2)) == "x^2+x+1"
    assert str(smallest_irreducible(3)) == "x^3+x+1"
    got = smallest_irreducible(11)
    assert got.degree == 11 and is_irreducible(got)
