import math
import random

import pytest

from oracles import add, dlog, inv, mul, power, sub, trace
from slce.fields import (
    FieldElt,
    build_field,
    canonical_modulus,
    divisors,
    euler_phi,
    is_prime,
    multiplicative_order,
    prime_factors,
    _is_irreducible,
    _ppowmod,
    _psub,
)


def brute_order(a, p):
    x, n = a % p, 1
    while x != 1:
        x = (x * a) % p
        n += 1
    return n


def test_build_field_smallest_primitive_root_mod_5():
    # oracle: exhaustive order check over {2, 3, 4}
    want = min(a for a in range(2, 5) if brute_order(a, 5) == 4)
    ctx = build_field(5, 1)
    assert ctx.q == 5
    assert ctx.alpha == FieldElt((want,)) == FieldElt((2,))


def test_build_field_q3():
    ctx = build_field(3, 1)
    assert ctx.q == 3
    assert ctx.alpha == FieldElt((2,))


def test_build_field_q9_alpha_has_order_8():
    ctx = build_field(3, 2)
    assert ctx.q == 9
    # exhaustive order check over all 8 nonzero elements using context ops
    x = ctx.alpha
    seen = set()
    y = x
    for _ in range(8):
        seen.add(y.coeffs)
        y = mul(ctx, y, x)
    assert len(seen) == 8  # order exactly 8


def test_build_field_errors():
    with pytest.raises(ValueError):
        build_field(2, 1)
    with pytest.raises(ValueError):
        build_field(9, 1)
    with pytest.raises(ValueError):
        build_field(3, 20, max_q=10**6)


def test_power_examples():
    ctx = build_field(5, 1)
    assert power(ctx, 0) == ctx.one()
    assert power(ctx, 1) == FieldElt((2,))
    assert power(ctx, 6) == FieldElt((4,))  # 2^6 mod 5 = 4
    assert power(ctx, -1) == power(ctx, 3)


def test_dlog_examples():
    ctx = build_field(5, 1)
    assert dlog(ctx, FieldElt((1,))) == 0
    assert dlog(ctx, FieldElt((2,))) == 1
    assert dlog(ctx, FieldElt((4,))) == 2
    with pytest.raises(ValueError):
        dlog(ctx, FieldElt((0,)))


def test_trace_examples():
    ctx = build_field(5, 1)
    assert trace(ctx, FieldElt((3,))) == 3  # identity map when m = 1
    ctx9 = build_field(3, 2)
    assert trace(ctx9, ctx9.zero()) == 0
    assert trace(ctx9, ctx9.one()) == 2  # m mod p


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 4), (101, 1), (11, 3)])
def test_dlog_power_round_trip_exhaustive(p, m):
    ctx = build_field(p, m)
    for t in range(ctx.q - 1):
        assert dlog(ctx, power(ctx, t)) == t


@pytest.mark.parametrize("p,m", [(3, 3), (7, 2), (13, 2), (5, 4)])
def test_trace_is_linear(p, m):
    ctx = build_field(p, m)
    rng = random.Random(1234)
    for _ in range(200):
        x = ctx.decode(rng.randrange(ctx.q))
        y = ctx.decode(rng.randrange(ctx.q))
        assert trace(ctx, add(ctx, x, y)) == (trace(ctx, x) + trace(ctx, y)) % p


@pytest.mark.parametrize("p,m", [(3, 2), (5, 3), (7, 2), (11, 2), (3, 5)])
def test_modulus_divides_frobenius_polynomial(p, m):
    # the canonical modulus divides x^(p^m) - x over GF(p)
    f = list(canonical_modulus(p, m))
    t = [0, 1]
    for _ in range(m):
        t = _ppowmod(t, p, f, p)
    assert _psub(t, [0, 1], p) == []


def test_canonical_modulus_is_smallest_irreducible():
    # brute force over all monic quadratics over GF(3) in tuple order
    found = None
    for c0 in range(3):
        for c1 in range(3):
            f = [c0, c1, 1]
            # trial: f irreducible iff it has no root in GF(3)
            if all((c0 + c1 * a + a * a) % 3 != 0 for a in range(3)):
                found = (c0, c1, 1)
                break
        if found:
            break
    assert canonical_modulus(3, 2) == found == (1, 0, 1)


def test_is_irreducible_against_root_counting():
    # degree-2 polynomials over GF(p) are irreducible iff they have no root
    for p in (3, 5, 7):
        for c0 in range(p):
            for c1 in range(p):
                f = [c0, c1, 1]
                has_root = any((c0 + c1 * a + a * a) % p == 0 for a in range(p))
                assert _is_irreducible(f, p) == (not has_root)


def test_trace_table_matches_pointwise():
    ctx = build_field(7, 2)
    for t in range(0, ctx.q - 1, 5):
        assert int(ctx.trace_table[t]) == trace(ctx, power(ctx, t))


def test_zech_table_definition():
    ctx = build_field(5, 2)
    one = ctx.one()
    for t in range(1, ctx.q - 1):
        val = sub(ctx, one, power(ctx, t))
        assert power(ctx, int(ctx.zech_table[t])) == val
    assert ctx.zech_table[0] == -1


def test_tables_match_powering_at_block_boundaries():
    # q - 1 = 6560 spans two column blocks of 4096 and is not a multiple of one
    ctx = build_field(3, 8)
    p, f = ctx.p, list(ctx.modulus)

    def alpha_pow(t):
        c = _ppowmod(list(ctx.alpha.coeffs), t, f, p)
        return c + [0] * (ctx.m - len(c))

    for t in (1, 4095, 4096, 4097, ctx.q - 2):
        a = alpha_pow(t)
        assert int(ctx.exp_table[t]) == sum(c * p**i for i, c in enumerate(a)), t
        one_minus = [(-c) % p for c in a]
        one_minus[0] = (1 - a[0]) % p
        assert alpha_pow(int(ctx.zech_table[t])) == one_minus, t
        assert int(ctx.trace_table[t]) == trace(ctx, FieldElt(tuple(a))), t


def test_field_ops():
    ctx = build_field(7, 2)
    a = power(ctx, 11)
    b = power(ctx, 30)
    assert mul(ctx, a, b) == power(ctx, 41)
    assert mul(ctx, a, inv(ctx, a)) == ctx.one()
    assert sub(ctx, a, a).is_zero()
    with pytest.raises(ZeroDivisionError):
        inv(ctx, ctx.zero())


def test_describe_echo_is_deterministic():
    a = build_field(3, 4).describe()
    b = build_field(3, 4).describe()
    assert a == b
    assert set(a) == {"p", "m", "q", "modulus", "alpha"}


def test_is_prime_matches_trial_division_and_known_pseudoprimes():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(-3, 30000) if is_prime(n)] == [n for n in range(-3, 30000) if by_trial_division(n)]
    # OEIS A014233: the least odd composites that pass Miller-Rabin to the first 1, 2, ..., 12 prime bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
              3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1) and not is_prime(2**67 - 1)
    assert not is_prime(2**89 + 1)  # above the bound, but divisible by 3
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)


def test_number_helpers():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert prime_factors(360) == [2, 3, 5]
    assert euler_phi(23) == 22
    assert euler_phi(49) == 42
    assert multiplicative_order(2, 7) == 3
    with pytest.raises(ValueError):
        multiplicative_order(6, 9)


def test_multiplicative_order_matches_powering_loop():
    # the loop the divisor test replaced: multiply by a until reaching 1
    for n in range(2, 200):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            order, x = 1, a
            while x != 1:
                x = (x * a) % n
                order += 1
            assert multiplicative_order(a, n) == order, (a, n)


def test_divisors_match_scan():
    for n in range(1, 2000):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


def test_bounded_prime_factors_are_exact_or_refused():
    refused = 0
    for bound in (1, 2, 3, 10, 30):
        for n in range(1, 5000):
            cofactor = n
            for r in range(2, bound + 1):
                while cofactor % r == 0:
                    cofactor //= r
            try:
                got = prime_factors(n, bound)
            except ValueError:
                refused += 1
                assert cofactor > bound * bound, (n, bound)  # the bound was really reached
                continue
            assert got == prime_factors(n), (n, bound)
            assert divisors(n, bound) == divisors(n), (n, bound)
    assert refused > 1000
