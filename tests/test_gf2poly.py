import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import field_bundle
from oracles import (
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
    multiplier_group,
    mul_int,
    poly_from_seq,
    recombine,
    smallest_irreducible,
    x_pow_plus_one,
)
from slce.cli import _odd_prime_powers_upto
from slce.fields import build_field, divisors, multiplicative_order
from slce import gf2poly
from slce.gf2poly import (
    _CERTIFICATE_DEGREE,
    _adjoin,
    _coefficients,
    _cyclotomic_plan,
    _divmod_int,
    _fold,
    _from_coefficients,
    _gcd_int,
    _mod_cyclotomic,
    _mod_int,
    _multiplier_certificate,
    _smooth_length,
    _sqr_int,
    _times_binomials,
    cyclotomic_mod2,
    factored_str,
    gcd_cyclotomic,
    gcd_factors,
    ideal_factors,
    to_str,
)
from slce.sequences import generate

polys = st.integers(min_value=1, max_value=(1 << 48) - 1)


def test_poly_basics():
    f = _from_coefficients([1, 1, 0, 1])
    assert f == 0b1011 and f.bit_length() - 1 == 3
    assert to_str(f) == "x^3+x+1"
    assert _from_coefficients(np.array([1, 1, 0, 1], dtype=np.int64)) == f  # the criterion's int64 parities
    assert _from_coefficients([]) == 0
    assert to_str(0) == "0"
    assert to_str(1) == "1"
    assert f ^ f == 0
    q, r = _divmod_int(f, 0b10)
    assert mul_int(q, 0b10) ^ r == f


@given(bits=st.one_of(polys, st.integers(min_value=1, max_value=(1 << 3000) - 1)))
@settings(max_examples=200, deadline=None)
def test_str_lists_the_set_bits_in_descending_order(bits):
    terms = ("1" if i == 0 else "x" if i == 1 else f"x^{i}" for i in range(bits.bit_length() - 1, -1, -1) if (bits >> i) & 1)
    assert to_str(bits) == "+".join(terms)
    assert _from_coefficients(_coefficients(bits, bits.bit_length() + 9)) == bits


def test_poly_from_seq():
    assert poly_from_seq(generate(build_field(5, 1))) == 0b11  # 1 + x
    assert to_str(poly_from_seq(generate(build_field(5, 1)))) == "x+1"
    assert poly_from_seq(generate(build_field(3, 1))) == 1

    class FakeSeq:
        v = 4

        def as_int(self):
            return 0

    assert poly_from_seq(FakeSeq()) == 0


def test_gcd_fixtures():
    # x^4 + 1 = (x+1)^4 in characteristic 2
    assert _gcd_int(0b10001, 0b11) == 0b11
    f = 0b1011001
    assert _gcd_int(f, 0) == f
    assert _gcd_int(0, f) == f
    assert _gcd_int(0, 0) == 0


def test_gcd_reference_q25():
    seq = generate(build_field(5, 2))
    assert factored_str(gcd_factors(24, poly_from_seq(seq), 1)) == "(x+1)^4"
    assert factored_str(gcd_factors(24, poly_from_seq(seq), 5)) == "(x+1)^4"


@given(a=polys, b=polys, c=polys)
@settings(max_examples=150, deadline=None)
def test_gcd_properties(a, b, c):
    g = _gcd_int(a, b)
    assert divides(g, a) and divides(g, b)
    assert _gcd_int(a, b) == _gcd_int(b, a)
    assert _gcd_int(_gcd_int(a, b), c) == _gcd_int(a, _gcd_int(b, c))


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
    assert recombine(gcd_factors(v, s, 1)) == gcd_by_divmod((1 << v) | 1, s)


def test_gcd_with_binomial_matches_euclid_on_every_field_to_3000():
    fields = _odd_prime_powers_upto(3000)
    assert len(fields) == 455
    for q, p, m in fields:
        s2 = poly_from_seq(generate(build_field(p, m)))
        assert recombine(gcd_factors(q - 1, s2, p)) == gcd_by_divmod((1 << (q - 1)) | 1, s2), q


def test_reciprocal_law_on_the_direct_data_to_3000():
    # K conj(K) = q gives S2(x^-1) = S2(x) + [q = 3 mod 4] mod Phi_d for every odd d > 1 dividing v
    # (ROADMAP item 9), and S2(1) = [q = 3 mod 4] too.  So x + 1 divides S2 exactly when q = 1 mod 4,
    # and at q = 3 mod 4 at most one root of each pair beta, 1/beta is a root of the gcd, at most twice
    # (v = 2 w, w odd): the linear complexity is at least v - (w - 1) = (q + 1)/2, with equality
    # only at q = 3 (as measured to 20000)
    at_3_mod_4 = 0
    for q, p, m in _odd_prime_powers_upto(3000):
        _, seq, s2 = field_bundle(p, m)
        factors = gcd_factors(seq.v, s2, p)
        assert any(h == 0b11 for h, _ in factors) == (q % 4 == 1), q
        if q % 4 == 3:
            complexity = seq.v - sum((h.bit_length() - 1) * e for h, e in factors)
            assert complexity >= (q + 1) // 2, q
            assert (complexity == (q + 1) // 2) == (q == 3), q
            at_3_mod_4 += 1
    assert at_3_mod_4 == 223


def test_cyclotomic_mod2_is_phi_mod_2():
    for d in [*range(1, 2000, 2), 15015, 92823]:
        assert cyclotomic_mod2(d) == _from_coefficients(np.array(cyclotomic_poly(d)) & 1), d


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
    assert _mod_cyclotomic(f, d) == _mod_int(f, cyclotomic_mod2(d))


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
            s = mul_int(s, cyclotomic_mod2(d))
    want = gcd_by_divmod((1 << v) | 1, s)
    assert want != 1
    assert recombine(gcd_factors(v, s, 1)) == want


def _certificate_cases(p, m):
    """(d, r, p) for every d > 1 dividing the odd part w of v = q - 1, r = S2 mod x^d + 1."""
    v = p**m - 1
    w = v >> ((v & -v).bit_length() - 1)
    f = _fold(generate(build_field(p, m)).as_int(), w)
    return [(d, _fold(f, d), p) for d in divisors(w)[1:]]


def _check_certificate(d, r, p):
    """The certificate agrees with Euclid on Phi_d; returns (t' = 1, verdict)."""
    verdict = _multiplier_certificate(r, d, p)
    assert verdict == (_gcd_int(_cyclotomic_plan(d)[0], r) == 1), (p, d)
    return cyclotomic_mod2(d).bit_length() - 1 == len(multiplier_group(d, p)), verdict


def _reciprocal_int(r, d):
    """r(x^-1) mod x^d + 1 for r of degree < d: coefficient j moves to -j mod d."""
    bits = format(r, f"0{d}b")[::-1]  # bits[j] is the coefficient of x^j
    return int((bits[0] + bits[:0:-1])[::-1], 2)


def _certificate_branch(d, r, p, q, orbit_steps):
    """The certificate with -1 tried agrees with Euclid on Phi_d; returns (branch, <2, p> has several orbits).

    The branch is read off r(x^-1) mod Phi_d, which for an SLCE sequence is
    r + [q = 3 mod 4] (the reciprocal law, checked here): -1 is adjoined to H
    when it is r, the q = 3 rule fires when it is r + 1 and -1 lies in <2, p>,
    and neither otherwise.  The orbits the certificate multiplies over, the
    product of its cyclic steps' sizes in `orbit_steps`, are those the branch
    leaves: none after the rule, else phi(d) / |H|.
    """
    phi_d = _cyclotomic_plan(d)[0]
    reduced = _mod_int(r, phi_d)
    reciprocal = _mod_int(_reciprocal_int(r, d), phi_d)
    assert reciprocal == reduced ^ (q % 4 == 3), (q, d)
    group = multiplier_group(d, p)
    several = (phi_d.bit_length() - 1) // len(group) > 1
    if reciprocal == reduced:
        branch, group = "adjoined", multiplier_group(d, p, -1)
    else:
        branch = "rule" if d - 1 in group else "neither"
    orbit_steps.clear()
    assert _multiplier_certificate(r, d, p, -1) == (_gcd_int(phi_d, r) == 1), (q, d)
    orbits = 1 if branch == "rule" else (phi_d.bit_length() - 1) // len(group)
    assert math.prod(orbit_steps) == orbits, (q, d, branch)
    return branch, several


def _count_orbit_steps(monkeypatch):
    """The sizes of the certificate's cyclic steps, one entry per `_power_product`, as they run."""
    steps = []
    power_product = gf2poly._power_product

    def counted(f, powers, d):
        steps.append(powers.size)
        return power_product(f, powers, d)

    monkeypatch.setattr(gf2poly, "_power_product", counted)
    return steps


def _factors_by_euclid(v, s, monkeypatch):
    """gcd_factors with the certificate switched off, so that Euclid finds every G_d."""
    with monkeypatch.context() as patch:
        patch.setattr(gf2poly, "_multiplier_certificate", lambda *args: None)
        return gcd_factors(v, s, 1)


def test_multiplier_certificate_matches_euclid_on_every_field_to_3000(monkeypatch):
    outcomes, branches = set(), set()
    orbit_steps = _count_orbit_steps(monkeypatch)
    pairs = 0
    for q, p, m in _odd_prime_powers_upto(3000):
        for d, r, p in _certificate_cases(p, m):
            outcomes.add(_check_certificate(d, r, p))
            branches.add(_certificate_branch(d, r, p, q, orbit_steps))
            pairs += 1
    assert pairs == 1664
    # one orbit and several, each with G_d = 1 and G_d != 1
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
    # with -1 tried, each branch is taken where <2, p> alone has several orbits
    assert {("adjoined", True), ("rule", True), ("neither", True)} <= branches


@pytest.mark.parametrize(
    "p,m,outcomes",
    # 13^5 has two orbits of <2, 13> at d = 92,823, and one of <2, 13, -1>, which gcd_factors uses
    [(13, 5, {(True, True), (False, True)}), (17, 5, {(True, True)})],
)
def test_multiplier_certificate_matches_euclid_at_long_periods(monkeypatch, p, m, outcomes):
    assert {_check_certificate(*case) for case in _certificate_cases(p, m)} == outcomes
    s = generate(build_field(p, m)).as_int()
    assert gcd_factors(p**m - 1, s, p) == _factors_by_euclid(p**m - 1, s, monkeypatch)


@pytest.mark.parametrize(
    "p,m,d,branch",
    # q = 13^5 = 1 mod 4: -1 joins <2, 13>, 2 orbits become 1.  q = 7^7 = 3 mod 4: -1 lies in
    # <2, 7> (52 orbits), so r(x^-1) = r + 1 leaves no zero among the roots of Phi_d
    [(13, 5, 92823, "adjoined"), (7, 7, 137257, "rule")],
)
def test_reciprocal_law_decides_without_a_product(monkeypatch, p, m, d, branch):
    _, _, s2 = field_bundle(p, m)
    r = _fold(s2, d)
    assert _certificate_branch(d, r, p, p**m, []) == (branch, True)

    def no_product(*args):
        raise AssertionError("the certificate formed a product")

    monkeypatch.setattr(gf2poly, "_power_product", no_product)
    assert _multiplier_certificate(r, d, p, -1) is True
    assert gcd_cyclotomic(d, _mod_cyclotomic(r, d), p, -1) == 1
    with pytest.raises(AssertionError, match="formed a product"):
        _multiplier_certificate(r, d, p)  # p alone leaves several orbits


def test_gcd_cyclotomic_takes_the_certificate_where_it_is_cheaper(monkeypatch):
    # the certificate is tried exactly when phi(d) >= _CERTIFICATE_DEGREE, r != 0 and the
    # multiplier is prime to d (1 suits any r); it shows G_d = 1 and leaves G_d != 1 to Euclid.
    # 9,973 and 10,007 are the primes around the threshold; 20,029 has one orbit of <2>, 20,023 two
    assert 9973 - 1 < _CERTIFICATE_DEGREE <= 10007 - 1  # phi(d) = d - 1 for a prime d
    runs = []
    certificate = gf2poly._multiplier_certificate
    monkeypatch.setattr(gf2poly, "_multiplier_certificate", lambda *args: runs.append(args[1]) or certificate(*args))
    rng = random.Random(20023)
    for d in [9973, 10007, 20029, 20023]:
        phi_d = cyclotomic_mod2(d)
        r = rng.getrandbits(phi_d.bit_length() - 1)
        shares_g = _mod_int(mul_int(ideal_factors(d)[0], r), phi_d)  # 0 when Phi_d is irreducible
        for case in [r, shares_g, 0]:
            for multiplier in [1, d]:  # d is not prime to d
                assert gcd_cyclotomic(d, case, multiplier) == _gcd_int(phi_d, case), d
    # 9,973 runs Euclid alone; r = 0 goes straight to Euclid
    assert runs == [10007, 10007, 20029, 20023, 20023]


def test_multiplier_group_is_generated_by_2_and_p():
    # the certificate's group: 2, then p, adjoined to {1}, each by its powers until one lands in H
    for d, p in [(7, 3), (15, 7), (91, 3), (105, 11), (1023, 5), (4069, 5), (83333, 1999993)]:
        members = np.arange(d) == 1
        orders = [_adjoin(members, a, d).size for a in (2, p % d)]
        assert set(np.flatnonzero(members).tolist()) == multiplier_group(d, p), (d, p)
        assert orders[0] == multiplicative_order(2, d), (d, p)
        assert orders[0] * orders[1] == members.sum(), (d, p)


def test_adjoin_returns_the_powers_until_one_lands_in_the_group():
    # in (Z/91)*, <2> has order 12; 3 then adds the cosets 3^i <2> for i below the first 3^t in <2>
    members = np.arange(91) == 1
    assert _adjoin(members, 2, 91).tolist() == [pow(2, i, 91) for i in range(12)]
    two = set(np.flatnonzero(members).tolist())
    t = next(i for i in range(1, 91) if pow(3, i, 91) in two)
    assert _adjoin(members, 3, 91).tolist() == [pow(3, i, 91) for i in range(t)]
    assert set(np.flatnonzero(members).tolist()) == multiplier_group(91, 3)
    assert _adjoin(members, 3, 91).tolist() == [1]  # already in H: t = 1, H unchanged
    assert set(np.flatnonzero(members).tolist()) == multiplier_group(91, 3)


@pytest.mark.parametrize(
    "p,m,d,orbits",
    [(7, 7, 137257, 52), (7, 7, 411771, 104), (1999993, 1, 83333, 498)],
)
def test_multiplier_certificate_matches_euclid_with_many_orbits(monkeypatch, p, m, d, orbits):
    # t' = phi(d) / |<2, p>| orbits; each cyclic step of the quotient, with t cosets, may take
    # at most 2 ceil(log2 t) products, and the steps' t multiply to t'
    _, _, s2 = field_bundle(p, m)
    r = _fold(s2, d)
    steps = []  # [t, one entry per product] for each cyclic step
    power_product, product_mod2 = gf2poly._power_product, gf2poly._product_mod2

    def counted_step(f, powers, d):
        steps.append([powers.size])
        return power_product(f, powers, d)

    def counted_product(*args):
        steps[-1].append(1)
        return product_mod2(*args)

    monkeypatch.setattr(gf2poly, "_power_product", counted_step)
    monkeypatch.setattr(gf2poly, "_product_mod2", counted_product)
    assert _check_certificate(d, r, p) == (False, True)
    assert (cyclotomic_mod2(d).bit_length() - 1) // len(multiplier_group(d, p)) == orbits
    assert math.prod(t for t, *_ in steps) == orbits
    for t, *calls in steps:
        assert len(calls) <= 2 * math.ceil(math.log2(t)), (t, len(calls))
    if p == 1999993:
        assert len(steps) >= 2  # <2, p> = <2> here, and its quotient takes several cyclic steps


def test_certificate_falls_back_when_p_is_not_a_multiplier(monkeypatch):
    v, p = 13**5 - 1, 13
    s = generate(build_field(13, 5)).as_int() ^ 2  # flip the coefficient of x: D is no longer fixed by t -> 13 t
    for d in [30941, 92823]:
        assert _multiplier_certificate(_fold(s, d), d, p) is None
    want = _factors_by_euclid(v, s, monkeypatch)
    assert gcd_factors(v, s, p) == want
    assert gcd_factors(v, s, 3) == want
    assert gcd_factors(v, s, 1) == want


def test_certificate_of_zero_and_one():
    for d, p in [(7, 3), (15, 7), (73, 3), (4069, 5)]:
        # 0 vanishes at every root of Phi_d, 1 at none
        assert _multiplier_certificate(0, d, p) is False
        assert _multiplier_certificate(1, d, p) is True
    for v in [1, 4, 7, 12, 45, 96, 252]:
        assert gcd_factors(v, 0, 5) == berlekamp_factor(x_pow_plus_one(v)), v


def test_rounding_guard_falls_back_to_euclid(monkeypatch):
    # at 3^11 (q = 3 mod 4), d = 88,573 has two orbits of <2, 3>, which does not hold -1,
    # so the certificate still forms a product there
    s = generate(build_field(3, 11)).as_int()
    want = _factors_by_euclid(3**11 - 1, s, monkeypatch)
    calls = []
    convolve = gf2poly._convolve

    def off_by_three_tenths(a, b, n):
        calls.append(n)
        return convolve(a, b, n) + 0.3

    monkeypatch.setattr(gf2poly, "_convolve", off_by_three_tenths)
    d, p = 88573, 3
    assert _multiplier_certificate(_fold(s, d), d, p, -1) is None
    calls.clear()
    assert gcd_factors(3**11 - 1, s, 3) == want
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
    s = data.draw(st.integers(min_value=0, max_value=(1 << deg) - 1)) | (1 << deg)
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):  # so that g | s occurs
        s = mul_int(s, data.draw(st.sampled_from(ideals)))
    folded = _fold(s, k)
    assert folded == _mod_int(s, x_pow_plus_one(k))
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
    assert gcd_factors(3, 0b111, 1) == [(0b111, 1)]  # irreducible quadratic
    # x^7 + 1: oracle below divides out all cubics exhaustively
    f = (1 << 7) | 1
    got = gcd_factors(7, f, 1)
    cubics = [bits for bits in range(0b1000, 0b10000) if divides(bits, f)]
    assert [g for g, _ in got] == [0b11] + cubics  # sorted as ints: by degree, then bit pattern
    assert all(e == 1 for _, e in got)

    p4 = 0b11
    p4 = mul_int(mul_int(mul_int(p4, p4), p4), p4)
    assert gcd_factors(4, p4, 1) == [(0b11, 4)]
    assert gcd_factors(4, 1, 1) == []
    assert gcd_factors(6, 0b1011, 1) == []  # x^3 + x + 1 divides x^7 + 1, not x^6 + 1
    # (x + 1)^8 meets x^12 + 1 = (x + 1)^4 (x^2 + x + 1)^4 in (x + 1)^4
    assert gcd_factors(12, mul_int(p4, p4), 1) == [(0b11, 4)]
    for v in [1, 4, 7, 12, 45, 96, 252]:  # gcd(x^v + 1, 0) = x^v + 1
        assert gcd_factors(v, 0, 1) == berlekamp_factor(x_pow_plus_one(v)), v


@st.composite
def binomial_divisors(draw):
    """(g, v): g a random product of factors of Phi_d mod 2, d | w, each to a power <= 2^e."""
    e = draw(st.integers(min_value=0, max_value=5))
    w = draw(st.sampled_from([1, 3, 7, 9, 15, 21, 45, 63, 73, 105, 255]))
    g = 1
    for d in divisors(w):
        for h in _berlekamp_factors(cyclotomic_mod2(d)):
            for _ in range(draw(st.integers(min_value=0, max_value=1 << e))):
                g = mul_int(g, h)
    return (g if g > 1 else 0b11), w << e


@given(case=binomial_divisors())
@settings(max_examples=150, deadline=None)
def test_factor_matches_berlekamp_oracle(case):
    # g | x^v + 1, so gcd(x^v + 1, g) = g
    g, v = case
    assert gcd_factors(v, g, 1) == berlekamp_factor(g)


@given(bits=st.integers(min_value=2, max_value=(1 << 44) - 1))
@settings(max_examples=150, deadline=None)
def test_factor_recombines_and_is_irreducible(bits):
    # the oracle itself, on polynomials that need not divide any x^n + 1
    fac = berlekamp_factor(bits)
    assert recombine(fac) == bits
    for g, e in fac:
        assert is_irreducible(g)
        assert e >= 1
    assert fac == sorted(fac, key=lambda item: (item[0].bit_length(), item[0]))


def test_cyclotomic_split_matches_berlekamp_oracle():
    for n in range(1, 300, 2):
        f = _from_coefficients(np.array(cyclotomic_poly(n)) & 1)
        assert ideal_factors(n) == tuple(sorted(_berlekamp_factors(f))), n
    # n = 2047: 176 factors of degree 11.  Factorization is unique, so
    # distinct sorted irreducibles whose product is Phi_n are the oracle's
    # answer, without its 1936 x 1936 Q-matrix.
    f = _from_coefficients(np.array(cyclotomic_poly(2047)) & 1)
    got = ideal_factors(2047)
    assert len(got) == 176
    assert all(g.bit_length() - 1 == 11 and is_irreducible(g) for g in got)
    assert list(got) == sorted(set(got))
    assert recombine([(g, 1) for g in got]) == f


def test_gcd_factors_of_order_d_are_factors_of_phi_d_on_every_field_to_3000():
    # each h of the gcd has order d, the least d | w with h | x^d + 1, and is one of ideal_factors(d)
    checked = 0
    for _, p, m in _odd_prime_powers_upto(3000):
        seq = field_bundle(p, m)[1]
        w = seq.v >> ((seq.v & -seq.v).bit_length() - 1)
        for h, _ in gcd_factors(seq.v, seq.as_int(), p):
            d = next(d for d in divisors(w) if _mod_int((1 << d) | 1, h) == 0)
            assert h in ideal_factors(d), (p, m, h)
            checked += 1
    assert checked > 0


def test_cyclotomic_cosets():
    assert cyclotomic_cosets(5) == [[0], [1, 2, 4, 3]]
    assert cyclotomic_cosets(7) == [[0], [1, 2, 4], [3, 6, 5]]
    assert cyclotomic_cosets(3) == [[0], [1, 2]]
    with pytest.raises(ValueError):
        cyclotomic_cosets(6)


def test_minimal_polys_fixtures():
    assert minimal_polys_of_order(5) == [0b11111]
    assert [to_str(g) for g in minimal_polys_of_order(5)] == ["x^4+x^3+x^2+x+1"]
    assert [to_str(g) for g in minimal_polys_of_order(7)] == ["x^3+x+1", "x^3+x^2+1"]
    assert [to_str(g) for g in minimal_polys_of_order(3)] == ["x^2+x+1"]
    with pytest.raises(ValueError):
        minimal_polys_of_order(10)


@pytest.mark.parametrize("k", [3, 5, 7, 9, 11, 15, 21, 23, 31, 33, 35])
def test_coset_minimal_poly_product(k):
    prod = 1
    for orbit, g in coset_minimal_polys(k):
        assert is_irreducible(g)
        assert g.bit_length() - 1 == len(orbit)
        prod = mul_int(prod, g)
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
    assert conn & 1 == 1

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
    items = [(0b11, 4), (0b111, 1)]
    assert factored_str(items) == "(x+1)^4 (x^2+x+1)"
    assert factored_str([]) == "1"


def test_smallest_irreducible():
    assert smallest_irreducible(1) == 0b10
    assert to_str(smallest_irreducible(2)) == "x^2+x+1"
    assert to_str(smallest_irreducible(3)) == "x^3+x+1"
    got = smallest_irreducible(11)
    assert got.bit_length() - 1 == 11 and is_irreducible(got)
