import math
import random
import tracemalloc

import pytest

import numpy as np

from conftest import ORACLE_FIELDS
from gaussnum import _traces
from oracles import (
    FieldElt,
    add,
    decode,
    dlog,
    exp_dlog,
    field_by_lists,
    inv,
    is_irreducible_by_gcd,
    is_zero,
    mul,
    one,
    power,
    ppowmod,
    psub,
    sub,
    tables_by_int64,
    trace,
    zero,
)
from slce import fields
from slce.cli import _odd_prime_powers_upto
from slce.fields import (
    build_field,
    canonical_modulus,
    divisors,
    euler_phi,
    is_prime,
    multiplicative_order,
    prime_factors,
    _companion,
    _invertible,
    _is_irreducible,
    _primitive_element,
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
    assert ctx.alpha == (want,) == (2,)


def test_build_field_q3():
    ctx = build_field(3, 1)
    assert ctx.q == 3
    assert ctx.alpha == (2,)


def test_build_field_q9_alpha_has_order_8():
    ctx = build_field(3, 2)
    assert ctx.q == 9
    # exhaustive order check over all 8 nonzero elements using context ops
    x = FieldElt(ctx.alpha)
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
    with pytest.raises(ValueError, match="exceeds the size bound 2000000"):
        build_field(3, 14)  # q = 4,782,969


def test_power_examples():
    ctx = build_field(5, 1)
    assert power(ctx, 0) == one(ctx)
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
    assert trace(ctx9, zero(ctx9)) == 0
    assert trace(ctx9, one(ctx9)) == 2  # m mod p


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
        x = decode(ctx, rng.randrange(ctx.q))
        y = decode(ctx, rng.randrange(ctx.q))
        assert trace(ctx, add(ctx, x, y)) == (trace(ctx, x) + trace(ctx, y)) % p


@pytest.mark.parametrize("p,m", [(3, 2), (5, 3), (7, 2), (11, 2), (3, 5)])
def test_modulus_divides_frobenius_polynomial(p, m):
    # the canonical modulus divides x^(p^m) - x over GF(p)
    f = list(canonical_modulus(p, m))
    t = [0, 1]
    for _ in range(m):
        t = ppowmod(t, p, f, p)
    assert psub(t, [0, 1], p) == []


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
    # the Frobenius sum over the powers of alpha against the trace of the multiplication matrix
    for p, m in ((7, 2), (3, 5), (5, 3), (13, 1)):
        ctx = build_field(p, m)
        traces = _traces(ctx)
        for t in range(ctx.q - 1):
            assert int(traces[t]) == trace(ctx, power(ctx, t)), (p, m, t)


def test_zech_table_definition():
    ctx = build_field(5, 2)
    for t in range(1, ctx.q - 1):
        val = sub(ctx, one(ctx), power(ctx, t))
        assert power(ctx, int(ctx.zech_table[t])) == val
    assert ctx.zech_table[0] == -1


def test_tables_match_powering_at_block_boundaries():
    # q - 1 = 6560 spans two column blocks of 4096 and is not a multiple of one
    ctx = build_field(3, 8)
    p, f = ctx.p, list(ctx.modulus)

    def alpha_pow(t):
        c = ppowmod(list(ctx.alpha), t, f, p)
        return c + [0] * (ctx.m - len(c))

    traces = _traces(ctx)
    for t in (1, 4095, 4096, 4097, ctx.q - 2):
        a = alpha_pow(t)
        assert int(exp_dlog(ctx)[0][t]) == sum(c * p**i for i, c in enumerate(a)), t
        one_minus = [(-c) % p for c in a]
        one_minus[0] = (1 - a[0]) % p
        assert alpha_pow(int(ctx.zech_table[t])) == one_minus, t
        assert int(traces[t]) == trace(ctx, FieldElt(tuple(a))), t


def test_tables_match_int64_oracle():
    assert len(ORACLE_FIELDS) == 455 + 7
    for p, m in ORACLE_FIELDS:
        ctx = build_field(p, m)
        _, A = _primitive_element(p, m, _companion(ctx.modulus, p))
        _, dlog_, zech = tables_by_int64(p, m, A)
        assert np.array_equal(ctx.zech_table, zech), (p, m)
        assert ctx.zech_table.dtype == np.int32 and not ctx.zech_table.flags.writeable, (p, m)
        assert ctx.log4 == int(dlog_[4 % p]) and type(ctx.log4) is int, (p, m)


def test_a_context_keeps_only_its_zech_table():
    # the context keeps one int32 array of length q - 1, 4 bytes per element (4.03 q measured);
    # building it also holds an int32 discrete log table of length q, but never a table of the
    # powers of alpha (peak 11.2 q measured at 5^8, 10.3 q at 100003), nor every element of GF(p)
    # as a Python int while it looks for alpha (40 q at 100003)
    for p, m in [(5, 8), (100003, 1)]:
        q = p**m
        tracemalloc.start()
        try:
            ctx = build_field(p, m)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 13 * q, (p, m)
        assert retained < 5 * q, (p, m)
        arrays = [v for v in vars(ctx).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is ctx.zech_table and arrays[0].shape == (q - 1,)


def test_int32_tables_hold_every_code_and_log_up_to_the_size_bound():
    # _build_tables keeps codes (below q + p) and logs plus n/2 (below 3n/2) in int32
    assert fields.FIELD_SIZE_BOUND * 3 // 2 < 2**31
    assert 2 * fields.FIELD_SIZE_BOUND < 2**31


def test_float_giant_steps_are_exact_up_to_the_size_bound():
    # _build_tables multiplies matrices with entries in [0, p) in float64: every partial sum
    # of a dot product is an integer of at most m (p - 1)^2, exact below 2^53, and _reduce_mod
    # needs that plus p below 2^53
    bound = fields.FIELD_SIZE_BOUND
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for r in range(2, math.isqrt(bound) + 1):
        if sieve[r]:
            sieve[r * r :: r] = False
    odd_primes = np.flatnonzero(sieve)[1:]
    worst = []  # for each m, the largest m (p - 1)^2 + p is at the largest p with p^m <= bound
    for m in range(1, bound.bit_length()):
        root = int(bound ** (1 / m)) + 1
        while root**m > bound:
            root -= 1
        fit = odd_primes[odd_primes <= root]
        if fit.size:
            p = int(fit[-1])
            worst.append((m * (p - 1) ** 2 + p, p, m))
    largest, p, m = max(worst)
    assert largest < 2**53
    assert (p, m) == (1999993, 1)  # the field of the CI's largest gcd step


def test_reduce_mod_is_exact_up_to_its_bound():
    rng = np.random.default_rng(13)
    for p in (3, 13, 1999993, 2**26 - 5, 2**31 - 1):
        k_max = (2**53 - p) // p - 1  # the largest k with k p + p - 1 < 2^53 - p
        ks = np.concatenate([[0, 1, k_max], rng.integers(0, k_max, 2000, endpoint=True)])
        rs = np.concatenate([[0, 1, p - 1], rng.integers(0, p, 2000)])
        Y = [int(k) * p + int(r) for k in ks for r in rs[:3]] + [int(k) * p + int(r) for k, r in zip(ks, rs)]
        got = fields._reduce_mod(np.array(Y, dtype=np.float64), p)
        assert [int(y) % p for y in Y] == got.astype(np.int64).tolist(), p


def test_field_ops():
    ctx = build_field(7, 2)
    a = power(ctx, 11)
    b = power(ctx, 30)
    assert mul(ctx, a, b) == power(ctx, 41)
    assert mul(ctx, a, inv(ctx, a)) == one(ctx)
    assert is_zero(sub(ctx, a, a))
    with pytest.raises(ZeroDivisionError):
        inv(ctx, zero(ctx))


def test_describe_echo_is_deterministic():
    a = build_field(3, 4).describe()
    b = build_field(3, 4).describe()
    assert a == b
    assert set(a) == {"p", "m", "q", "modulus", "alpha"}
    ctx = build_field(5, 3)
    assert ctx.describe() == {"p": 5, "m": 3, "q": 125, "modulus": "x^3+x^2+1", "alpha": "2x^2"}
    assert repr(ctx) == "FieldCtx(p=5, m=3, q=125, modulus=x^3+x^2+1, alpha=2x^2)"
    assert str(FieldElt(ctx.alpha)) == "2x^2"


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


def test_bounded_prime_factors_are_exact_or_refused(monkeypatch):
    exact = {n: (prime_factors(n), divisors(n)) for n in range(1, 5000)}
    refused = 0
    for bound in (1, 2, 3, 10, 30):
        monkeypatch.setattr(fields, "_TRIAL_DIVISION_BOUND", bound)
        for n in range(1, 5000):
            cofactor = n
            for r in range(2, bound + 1):
                while cofactor % r == 0:
                    cofactor //= r
            try:
                got = prime_factors(n), divisors(n)
            except ValueError:
                refused += 1
                assert cofactor > bound * bound, (n, bound)  # the bound was really reached
                continue
            assert got == exact[n], (n, bound)
    assert refused > 1000


def test_trial_division_stops_at_2_to_the_20():
    assert prime_factors(1048573 * 1048583) == [1048573, 1048583]  # both below 2^20 + 2^4
    with pytest.raises(ValueError):
        prime_factors(1048583 * 1048589)  # two primes above 2^20
    # 2^40 + 15 is below (2^20 + 1)^2, so trial division ends before passing 2^20
    assert prime_factors(2 * (2**40 + 15)) == [2, 2**40 + 15]


def test_prime_cofactor_beyond_the_cut_off_is_certified():
    k = 4398046511119  # the least prime above 2^42, past (2^20 + 1)^2
    assert prime_factors(k) == [k]
    assert prime_factors(6 * k) == [2, 3, k]
    assert divisors(k) == [1, k]
    with pytest.raises(ValueError):  # a composite cofactor is still refused
        prime_factors(1048583 * k)
    big = 124545264471348586573478659339011644717351  # prime or not, above the Miller-Rabin bound
    with pytest.raises(ValueError):
        prime_factors(big)


def test_matrix_ben_or_matches_gcd_ben_or():
    # every monic polynomial of degree 1..4 over GF(3), GF(5), GF(7)
    for p in (3, 5, 7):
        for m in range(1, 5):
            for tail in np.ndindex(*(p,) * m):
                f = [*tail, 1]
                assert _is_irreducible(f, p) == is_irreducible_by_gcd(f, p), (p, f)


def test_invertible_matches_kernel_search():
    def has_kernel(M, p):
        return any(not (M @ np.array(v) % p).any() for v in np.ndindex(*(p,) * len(M)) if any(v))

    rng = np.random.default_rng(7)
    cases = [(np.array(M, dtype=np.int64).reshape(2, 2), 3) for M in np.ndindex(3, 3, 3, 3)]
    cases += [(rng.integers(0, p, (n, n)), p) for p, n in ((3, 3), (5, 3), (3, 4), (7, 2)) for _ in range(200)]
    cases += [(rng.integers(0, 2, (3, 3)) * 5 - 5, 5)]  # entries outside [0, p)
    for M, p in cases:
        assert _invertible(M, p) == (not has_kernel(M % p, p)), (M.tolist(), p)


def test_field_matches_list_construction():
    # modulus, alpha and the matrix of multiplication by alpha, as the list arithmetic finds them
    pms = [(p, m) for _, p, m in _odd_prime_powers_upto(3000)]
    assert len(pms) == 455
    for p, m in pms + [(3, 8), (5, 8), (13, 5), (3, 13)]:
        modulus, alpha, A = field_by_lists(p, m)
        assert canonical_modulus(p, m) == modulus, (p, m)
        got_alpha, got_A = _primitive_element(p, m, _companion(modulus, p))
        assert got_alpha == alpha, (p, m)
        assert np.array_equal(got_A, A), (p, m)


@pytest.mark.parametrize("p,root", [(110881, 69), (760321, 73)])
def test_least_primitive_root_past_the_first_stack(p, root):
    primes = prime_factors(p - 1)

    def is_root(a):
        return all(pow(a, (p - 1) // r, p) != 1 for r in primes)

    assert is_root(root) and not any(is_root(a) for a in range(1, root))
    assert root > fields._STACK  # the search goes past its first stack
    assert build_field(p, 1).alpha == (root,)
