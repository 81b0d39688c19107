import json
import math
import random
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from oracles import (
    all_ones_poly,
    as_integer,
    check_eq3,
    coprime_coset_minimal_polys,
    criterion_by_elements,
    cyc_add,
    cyc_conj,
    cyc_mul,
    cyclotomic_poly,
    divides,
    dlog,
    from_int,
    from_integer,
    half_K_plus_one,
    is_zero,
    jacobi_with_rho,
    mul_int,
    multiplier_group,
    one,
    parity,
    poly_from_seq,
    power,
    reduce_by_long_division,
    reduce_mod_ideal,
    sub,
    zeta_power,
)
from slce import cyclotomic
from slce.cli import _odd_prime_powers_upto
from slce.cyclotomic import (
    CycInt,
    _CHECK_PRIME,
    _psi_plan,
    _reduce,
    _reduce_wrapped,
    _times_mobius,
    criterion,
    ideal_factors,
    jacobi_K,
)
from slce.fields import FIELD_SIZE_BOUND, build_field, divisors, mobius_factors
from slce.gf2poly import _gcd_int, _mod_int, _multiplier_certificate, cyclotomic_mod2, gcd_cyclotomic, to_str
from slce.sequences import generate


# ---------------------------------------------------------------------------
# Oracles: the recursive-division Phi_k and the dense-table reduction that
# the Moebius product and `_reduce` replaced.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _phi_by_division(k):
    """Phi_k = (x^k - 1) / prod of Phi_d over the proper divisors d of k."""
    den = np.ones(1, dtype=np.int64)
    for d in range(1, k):
        if k % d == 0:
            den = np.convolve(den, _phi_by_division(d))
    rem = np.zeros(k + 1, dtype=np.int64)
    rem[0], rem[k] = -1, 1
    n = len(den) - 1
    quo = np.zeros(k + 1 - n, dtype=np.int64)
    for i in range(k, n - 1, -1):
        quo[i - n] = rem[i]
        rem[i - n : i + 1] -= rem[i] * den
    assert not rem.any()
    return quo


def _table_reduce(k, vec):
    """sum vec[j] * (x^j mod Phi_k): the rows of the old k x phi(k) table, one at a time."""
    phi = _phi_by_division(k)
    n = len(phi) - 1
    acc = np.zeros(n, dtype=np.int64)
    row = np.zeros(n, dtype=np.int64)
    row[0] = 1
    top = 0
    for v in vec:
        acc += v * row
        top = max(top, int(np.abs(row).max()))
        lead = row[-1]
        row = np.roll(row, 1)
        row[0] = 0
        row -= lead * phi[:n]
    assert top * sum(abs(v) for v in vec) < 2**62  # int64 stayed exact
    return tuple(int(c) for c in acc)


@pytest.mark.parametrize(
    "ks",
    [pytest.param(range(3, 400, 2), id="odd-below-400"), pytest.param([1155, 15015], id="non-flat")],
)
def test_reduce_and_phi_match_oracles(ks):
    rng = np.random.default_rng(7)
    for k in ks:
        phi = cyclotomic_poly(k)
        assert phi == tuple(int(c) for c in _phi_by_division(k)), k
        n = len(phi) - 1
        counts = rng.integers(-1000, 1000, size=k)
        assert CycInt.from_exponent_counts(k, counts).coeffs == _table_reduce(k, counts), k
        product = [int(c) for c in rng.integers(-50, 50, size=2 * n - 1)]  # as long as a * b
        assert _reduce(k, product) == _table_reduce(k, product), k


@pytest.mark.parametrize(
    "ks,scales",
    [
        # 2^62 and 2^63 (all of int64) push `_reduce` through its residue check and the oracle onto Python integers
        pytest.param(range(3, 400, 2), (10**3, 2**40, 2**61, 2**62, 2**63), id="odd-below-400"),
        pytest.param([1155, 15015], (10**3,), id="non-flat"),
    ],
)
def test_reduce_matches_long_division(ks, scales):
    rng = random.Random(11)
    for k in ks:
        n = len(cyclotomic_poly(k)) - 1
        for length in (k, 2 * n - 1, 3 * k + 1):
            scale = rng.choice(scales)
            vec = [rng.randrange(-scale, scale) for _ in range(length)]
            assert _reduce(k, vec) == reduce_by_long_division(k, vec), (k, length, scale)
        if 2**63 in scales:
            edges = [rng.choice((2**62, -(2**62), -(2**63))) for _ in range(3 * k + 1)]
            assert _reduce(k, edges) == reduce_by_long_division(k, edges), k
        counts = np.array([rng.randrange(0, 2 * k) for _ in range(k)], dtype=np.int64)
        assert _reduce(k, counts) == reduce_by_long_division(k, counts), k


@pytest.mark.parametrize("k", [15015, 3 * 5 * 7 * 11 * 17])
def test_residue_steps_match_exact_products_where_their_bound_passes_2_62(k):
    # `_times_mobius` with a modulus reduces only when its a priori bound would pass 2^62; along
    # Psi_k and Phi_k for these k that happens mid-chain, and the residues must equal the exact
    # products (Python integers) reduced once at the end, as must those of the whole reduction
    P = _CHECK_PRIME
    a = np.random.default_rng(k).integers(-(2**62), 2**62, size=k)
    for factors in (_psi_plan(k)[1], mobius_factors(k)):
        bound, n = P, k
        for d, e in sorted(factors, key=lambda f: -f[1]):
            bound, n = bound * (2 if e > 0 else -(-n // d)), n + d * e
        assert bound >= 2**62 * P  # more than one reduction along the chain
        exact = _times_mobius(a.astype(object), factors)
        assert _times_mobius(a, factors, P).tolist() == [c % P for c in exact.tolist()], factors
    exact = _reduce_wrapped(k, a.astype(object))
    assert _reduce_wrapped(k, a, P).tolist() == [c % P for c in exact.tolist()]


def test_residue_steps_are_exact_where_the_product_leaves_int64():
    # a (x - 1)^40 has coefficients beyond 2^63 for random a below P: steps that let them wrap
    # modulo 2^64 would give wrong residues, so `_times_mobius` must reduce along the way
    P = _CHECK_PRIME
    a = np.random.default_rng(40).integers(0, P, size=1000)
    exact = _times_mobius(a.astype(object), [(1, 1)] * 40)
    assert max(abs(c) for c in exact.tolist()) >= 2**63
    assert _times_mobius(a, [(1, 1)] * 40, P).tolist() == [c % P for c in exact.tolist()]


def test_reduce_results_beyond_int64_are_exact():
    # every input fits in int64; some reduced coordinates do not
    assert CycInt.from_exponent_counts(3, [2**62, 0, -(2**62)]) == CycInt(3, (2**63, 2**62))
    k = 105  # some x^j mod Phi_105 have a coordinate +-2
    for j in range(k):
        vec = [0] * k
        vec[j] = 2**62
        scaled = CycInt.from_exponent_counts(k, vec).coeffs
        assert scaled == tuple(2**62 * c for c in zeta_power(k, j).coeffs), j
    # abs(-2^63) wraps to -2^63 in int64; the bound must not
    wrapped = np.array([-(2**63), 1, 0], dtype=np.int64)
    assert _reduce(3, wrapped) == (-(2**63), 1)


def test_reduce_refuses_an_input_beyond_int64():
    for vec in ([2**63, 0, 0], np.array([0, -(2**63) - 1, 0], dtype=object)):
        with pytest.raises(ValueError, match="does not fit in int64"):
            _reduce(3, vec)


def test_reduce_refuses_a_bound_at_the_guard():
    k = 8191  # prime: Psi_k = x - 1 and |Phi_k|_1 = k, so the growth is 2^13
    assert _psi_plan(k)[0] == 2**13
    at_guard = np.full(2**17, -(2**63), dtype=np.int64)  # |vec|_1 * growth = 2^80 * 2^13
    with pytest.raises(ValueError, match="exact below a bound of 2\\^93"):
        _reduce(k, at_guard)
    # one term fewer is reduced: 2^17 - 1 = 16 k + 15 folds to 17 copies on the first 15 classes, 16 elsewhere
    assert _reduce(k, at_guard[1:]) == (-(2**63),) * 15 + (0,) * (k - 16)


def test_reachable_orders_stay_below_the_guard():
    # K comes from counts over q - 2 field elements, so |counts|_1 * growth <= (FIELD_SIZE_BOUND - 2) * growth.
    # k = 983,535 divides q - 1 for q = 1,967,071, and the omega(k) = 6 orders 345,345, 373,065 and 435,435
    # divide q - 1 for q = 1,381,381, 1,492,261 and 870,871.
    assert ((FIELD_SIZE_BOUND - 2) * _psi_plan(983535)[0]).bit_length() <= 69
    for k in (345345, 373065, 435435):
        assert ((FIELD_SIZE_BOUND - 2) * _psi_plan(k)[0]).bit_length() <= 58, k


def test_reduction_memory_is_linear_in_k():
    k = 9841  # phi(k) = 9072: a k x phi(k) int64 table alone is about 0.7 GB
    counts = np.random.default_rng(0).integers(0, 50, size=k)
    tracemalloc.start()
    try:
        CycInt.from_exponent_counts(k, counts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_cyclotomic_poly_fixtures():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_poly(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)
    assert cyclotomic_poly(105)[7] == -2  # first coefficient outside {0, +/-1}


def test_cyc_mul_fixtures():
    one = from_integer(3, 1)
    zeta = zeta_power(3, 1)
    assert cyc_mul(one, zeta) == zeta
    assert cyc_mul(zeta, zeta) == CycInt(3, (-1, -1))  # zeta^2 = -1 - zeta
    with pytest.raises(ValueError):
        cyc_mul(zeta, from_integer(5, 1))


def test_cyc_conj():
    zeta = zeta_power(5, 1)
    assert cyc_conj(zeta) == zeta_power(5, 4)
    a = CycInt(5, (3, -2, 7, 1))
    assert cyc_conj(cyc_conj(a)) == a


def test_zero_sum_of_all_roots():
    # 1 + zeta + zeta^2 = 0 in Z[zeta_3]
    s = CycInt.from_exponent_counts(3, [1, 1, 1])
    assert is_zero(s)


def test_jacobi_K_q361_is_19():
    ctx = build_field(19, 2)
    k = jacobi_K(ctx, 5)
    assert as_integer(k) == 19


def test_jacobi_K_q13_modulus():
    ctx = build_field(13, 1)
    k = jacobi_K(ctx, 3)
    assert as_integer(cyc_mul(k, cyc_conj(k))) == 13


def test_jacobi_K_brute_force_q13():
    # independent accumulation straight from the definition
    ctx = build_field(13, 1)
    counts = [0, 0, 0]
    for i in range(1, 12):
        val = sub(ctx, one(ctx), power(ctx, i))
        counts[(i + dlog(ctx, val)) % 3] += 1
    dlog4 = dlog(ctx, from_int(ctx, 4))
    shifted = [0, 0, 0]
    for j, c in enumerate(counts):
        shifted[(j + dlog4) % 3] += c
    assert jacobi_K(ctx, 3) == CycInt.from_exponent_counts(3, shifted)


def test_jacobi_K_eq3_congruence_q81():
    ctx = build_field(3, 4)
    k = jacobi_K(ctx, 5)
    assert check_eq3(k, 81)
    assert as_integer(k) == 9


@pytest.mark.parametrize("p,m,k", [(19, 2, 5), (13, 1, 3), (5, 2, 3)])
def test_jacobi_with_rho_equals_K(p, m, k):
    ctx = build_field(p, m)
    assert jacobi_with_rho(ctx, k) == jacobi_K(ctx, k)


def test_check_eq3_rejects_shifted_value():
    ctx = build_field(13, 1)
    k = jacobi_K(ctx, 3)
    assert check_eq3(k, 13)
    bumped = CycInt(3, (k.coeffs[0] + 1, k.coeffs[1]))
    assert not check_eq3(bumped, 13)


def test_jacobi_K_validation_errors():
    ctx = build_field(13, 1)
    with pytest.raises(ValueError):
        jacobi_K(ctx, 4)
    with pytest.raises(ValueError):
        jacobi_K(ctx, 5)
    with pytest.raises(ValueError):
        jacobi_K(ctx, 1)


def test_ideal_factors_fixtures():
    f5 = ideal_factors(5)
    assert len(f5) == 1 and to_str(f5[0]) == "x^4+x^3+x^2+x+1" and f5[0].bit_length() - 1 == 4
    f7 = ideal_factors(7)
    assert [to_str(g) for g in f7] == ["x^3+x+1", "x^3+x^2+1"]
    f3 = ideal_factors(3)
    assert len(f3) == 1 and to_str(f3[0]) == "x^2+x+1"
    with pytest.raises(ValueError):
        ideal_factors(6)


def test_ideal_factors_match_coset_oracle():
    # the coset split of Phi_k mod 2 against minimal polynomials built in GF(2^f);
    # 255, 511 and 1023 = 2^f - 1 split into 16, 48 and 60 factors of degree f
    for k in [*range(3, 150, 2), 255, 511, 1023]:
        pairs = coprime_coset_minimal_polys(k)
        ideals = ideal_factors(k)
        assert list(ideals) == sorted(g for _, g in pairs), k
        coset_of = {g: orbit for orbit, g in pairs}
        assert all(len(coset_of[g]) == g.bit_length() - 1 for g in ideals), k
        units = [j for j in range(1, k) if math.gcd(j, k) == 1]
        assert sorted(j for orbit, _ in pairs for j in orbit) == units, k
    assert {orbit for orbit, _ in coprime_coset_minimal_polys(7)} == {(1, 2, 4), (3, 6, 5)}
    assert [orbit for orbit, _ in coprime_coset_minimal_polys(5)] == [(1, 2, 4, 3)]
    # 23: two ideals, cosets are the quadratic residues and non-residues
    cosets23 = [set(orbit) for orbit, _ in coprime_coset_minimal_polys(23)]
    assert len(cosets23) == 2 and {j * j % 23 for j in range(1, 23)} in cosets23


def test_reduce_mod_ideal_fixtures():
    g = ideal_factors(5)[0]
    two = from_integer(5, 2)
    assert reduce_mod_ideal(two, g) == 0
    zeta = zeta_power(5, 1)
    assert reduce_mod_ideal(zeta, g) == 0b10
    zero_sum = CycInt.from_exponent_counts(3, [1, 1, 1])
    assert reduce_mod_ideal(zero_sum, ideal_factors(3)[0]) == 0
    with pytest.raises(ValueError):
        reduce_mod_ideal(zeta, ideal_factors(3)[0])


@pytest.mark.parametrize("k", [5, 7, 9, 15])
def test_reduce_mod_ideal_is_ring_hom(k):
    rng = random.Random(99)
    phi = len(cyclotomic_poly(k)) - 1
    for g in ideal_factors(k):
        for _ in range(25):
            a = CycInt(k, tuple(rng.randrange(-9, 10) for _ in range(phi)))
            b = CycInt(k, tuple(rng.randrange(-9, 10) for _ in range(phi)))
            ra, rb = reduce_mod_ideal(a, g), reduce_mod_ideal(b, g)
            assert reduce_mod_ideal(cyc_add(a, b), g) == _mod_int(ra ^ rb, g)
            assert reduce_mod_ideal(cyc_mul(a, b), g) == _mod_int(mul_int(ra, rb), g)


@pytest.mark.parametrize("k", [3, 5, 7, 9, 11, 15, 21, 23])
def test_distinct_zeta_powers_stay_distinct_mod_every_ideal(k):
    for g in ideal_factors(k):
        residues = {reduce_mod_ideal(zeta_power(k, j), g) for j in range(k)}
        assert len(residues) == k


def test_criterion_reference_cases():
    assert criterion(build_field(19, 2), 5) == (True,)
    assert criterion(build_field(5, 2), 3) == (False,)
    assert criterion(build_field(3, 6), 7) == (True, True)


def _with_extra_count(ctx, k, j):
    """The class counts of K + zeta^j: one more i in class j."""
    counts = cyclotomic._class_counts(ctx, k)
    counts[j] += 1
    return counts


def test_half_K_plus_one_hard_error_path(monkeypatch):
    # shifting K by 1 breaks the parity guarantee and must raise
    ctx = build_field(13, 1)
    k = jacobi_K(ctx, 3)
    u = half_K_plus_one(ctx, 3)
    w = list(k.coeffs)
    w[0] += 1
    assert all(c % 2 == 0 for c in w)
    assert u == CycInt(3, tuple(c // 2 for c in w))
    counts = _with_extra_count(ctx, 3, 0)
    monkeypatch.setattr(cyclotomic, "_class_counts", lambda *_: counts)
    assert jacobi_K(ctx, 3) == CycInt(3, (k.coeffs[0] + 1, k.coeffs[1]))
    with pytest.raises(ArithmeticError):
        half_K_plus_one(ctx, 3)
    with pytest.raises(ArithmeticError):
        criterion(ctx, 3)


def test_criterion_raises_on_odd_coordinate_beyond_the_first(monkeypatch):
    ctx = build_field(31, 1)
    K = jacobi_K(ctx, 5)
    counts = _with_extra_count(ctx, 5, 3)
    monkeypatch.setattr(cyclotomic, "_class_counts", lambda *_: counts)
    assert jacobi_K(ctx, 5) == cyc_add(K, zeta_power(5, 3))
    with pytest.raises(ArithmeticError):
        criterion(ctx, 5)


@pytest.mark.parametrize("p,m,k", [(31, 1, 5), (3, 6, 7), (3, 4, 5)])
def test_criterion_on_coordinates_beyond_int64(monkeypatch, p, m, k):
    # 2^62 more i in class j and 2^62 fewer in class k - 1 add 2^62 (zeta^j - zeta^(k-1)) to K:
    # the same (K + 1)/2 mod 2, but an exact K with a coordinate beyond int64
    ctx = build_field(p, m)
    expected = criterion(ctx, k)

    def shifted(j, extra):
        counts = cyclotomic._class_counts(ctx, k)
        counts[j] += 2**62 + extra
        counts[k - 1] -= 2**62
        monkeypatch.setattr(cyclotomic, "_class_counts", lambda *_: counts)
        assert any(abs(c) >= 2**63 for c in jacobi_K(ctx, k).coeffs)

    shifted(1, 0)
    assert criterion(ctx, k) == expected == criterion_by_elements(ctx, k)
    monkeypatch.undo()
    shifted(2, 1)  # one more i in class 2: an odd coordinate beyond int64
    with pytest.raises(ArithmeticError):
        criterion(ctx, k)


def test_wrapped_reduction_holds_exact_reduction_mod_4_beyond_int64():
    # the criterion reads K mod 4 from `_reduce_wrapped`; on inputs whose bound reaches 2^62, where
    # `_reduce` needs its residue check, the wrapped coordinates still agree with it mod 4
    def check(k, vec):
        exact = _reduce(k, vec)
        wrapped = _reduce_wrapped(k, np.array(vec, dtype=np.int64)) & 3
        assert wrapped.tolist() == [c & 3 for c in exact], (k, vec)
        return exact

    assert check(3, [2**62, 0, -(2**62)]) == (2**63, 2**62)
    assert check(3, [-(2**63), 1, 0]) == (-(2**63), 1)
    k = 105  # some x^j mod Phi_105 have a coordinate +-2
    beyond = 0
    for j in range(k):
        for top in (2**62, 2**62 + 1, -(2**62) - 3):
            vec = [0] * k
            vec[j], vec[(j + 1) % k] = top, 2**62 - 1
            beyond += any(abs(c) >= 2**63 for c in check(k, vec))
    assert beyond > 0  # some exact coordinates leave int64
    rng = random.Random(11)
    for k in range(3, 400, 2):
        check(k, [rng.choice((2**62, -(2**62), -(2**63))) for _ in range(3 * k + 1)])


def test_criterion_forms_no_exact_K(monkeypatch):
    # the criterion reads K mod 4 from the wrapped reduction: no CycInt, no residue check, no 2^93 guard
    rows = []
    for q, p, m in _odd_prime_powers_upto(300):
        ctx = build_field(p, m)
        rows += [(ctx, k) for k in divisors(q - 1) if k % 2 and k >= 3]
    expected = [criterion_by_elements(ctx, k) for ctx, k in rows]

    def refuse(*_):
        raise AssertionError("the criterion asked for exact K")

    monkeypatch.setattr(cyclotomic, "_reduce", refuse)
    monkeypatch.setattr(cyclotomic, "jacobi_K", refuse)
    assert [criterion(ctx, k) for ctx, k in rows] == expected
    assert len(rows) == 148


def test_criterion_matches_element_path_on_every_row_to_3000():
    rows = 0
    for q, p, m in _odd_prime_powers_upto(3000):
        ctx = build_field(p, m)
        for k in divisors(q - 1):
            if k % 2 and k >= 3:
                assert criterion(ctx, k) == criterion_by_elements(ctx, k), (q, k)
                rows += 1
    assert rows == 1664


def test_parity_of_half_K_plus_one_has_the_multiplier_p_on_every_row_to_3000():
    # sigma_p fixes K, so u = (K + 1)/2 mod 2 has u(x^p) = u(x) mod Phi_k, the property that
    # lets the criterion take gcd_cyclotomic's certificate with the multiplier p
    rows = uniform = 0
    for q, p, m in _odd_prime_powers_upto(3000):
        ctx = build_field(p, m)
        for k in divisors(q - 1):
            if k % 2 == 0 or k < 3:
                continue
            u = parity(half_K_plus_one(ctx, k))
            phi_k = cyclotomic_mod2(k)
            u_of_x_p = 0
            for j in range(u.bit_length()):
                u_of_x_p ^= ((u >> j) & 1) << (j * p % k)
            assert _mod_int(u_of_x_p, phi_k) == u, (q, k)
            shared = _gcd_int(phi_k, u)
            assert gcd_cyclotomic(k, u, p) == shared, (q, k)
            assert _multiplier_certificate(u, k, p) == (shared == 1), (q, k)
            verdicts = criterion(ctx, k)
            if len(multiplier_group(k, p)) == len(cyclotomic_poly(k)) - 1 and len(verdicts) >= 2:
                # <2, p> = (Z/k)*: one orbit, so every ideal gets the verdict u == 0
                assert set(verdicts) == {u == 0}, (q, k)
                uniform += 1
            rows += 1
    assert rows == 1664
    assert uniform == 16


def test_criterion_takes_the_multiplier_p_alone(monkeypatch):
    # the gcd with x^v + 1 also tries -1, a property of the sequence (K conj(K) = q); the
    # criterion reads K and must not lean on it, so it hands gcd_cyclotomic p and nothing else
    calls = []
    shared = cyclotomic.gcd_cyclotomic
    monkeypatch.setattr(cyclotomic, "gcd_cyclotomic", lambda *args: calls.append(args) or shared(*args))
    for q, p, m in _odd_prime_powers_upto(300):
        ctx = build_field(p, m)
        for k in divisors(q - 1):
            if k % 2 == 0 or k < 3:
                continue
            calls.clear()
            criterion(ctx, k)
            assert [(args[0], args[2], len(args)) for args in calls] == [(k, p, 3)], (q, k)


@pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (13, 1), (3, 2), (5, 2), (31, 1), (3, 4), (11, 2)])
def test_criterion_matches_direct_divisibility(p, m):
    ctx = build_field(p, m)
    q = ctx.q
    s2 = poly_from_seq(generate(ctx))
    for k in range(3, q - 1, 2):
        if (q - 1) % k != 0:
            continue
        direct = tuple(divides(g, s2) for g in ideal_factors(k))
        assert criterion(ctx, k) == direct, (p, m, k)


def test_full_product_divisibility_equals_all_factors():
    ctx = build_field(3, 6)
    s2 = poly_from_seq(generate(ctx))
    k = 7
    per_factor = [divides(g, s2) for g in ideal_factors(k)]
    assert divides(all_ones_poly(k), s2) == all(per_factor)


def test_json_emission():
    ctx = build_field(19, 2)
    blob = jacobi_K(ctx, 5).to_json()
    assert blob == {"k": 5, "basis": "power", "coeffs": [19, 0, 0, 0]}
    json.dumps(blob)
