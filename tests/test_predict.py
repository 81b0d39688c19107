import json
import math
import time
from collections import Counter

import pytest

from slce.cli import _odd_prime_powers_upto
from slce.cyclotomic import jacobi_K
from slce.fields import build_field, divisors, is_prime
from oracles import (
    all_ones_poly,
    as_integer,
    closed_form_index2_K,
    closed_form_prediction,
    closed_form_pure_K,
    cyc_conj,
    divides,
    least_t,
    minimal_polys_of_order,
    poly_from_seq,
    predict_index2,
    predict_pure,
    pure_ts,
    subgroup_index,
)
from slce.predict import NoClosedForm, class_number, predict, represent
from slce.sequences import generate


def test_subgroup_index_fixtures():
    assert subgroup_index(23, 13) == 2
    assert subgroup_index(5, 19) == 2
    assert subgroup_index(7, 3) == 1  # 3 is a primitive root mod 7
    with pytest.raises(ValueError):
        subgroup_index(9, 3)


def test_pure_case_params_fixtures():
    for p, m, k, t, s in [(19, 2, 5, 1, 1), (3, 4, 5, 2, 1)]:
        assert pure_ts(p, m, k) == (t, s)
        pred = predict(p, m, k)
        assert pred.regime == "pure" and pred.params == {"t": t, "s": s}
    assert least_t(13, 23) is None and pure_ts(13, 11, 23) is None
    assert predict(13, 11, 23).regime != "pure"


@pytest.mark.parametrize("k", [5, 7, 9, 11, 13, 15, 23])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 19])
def test_pure_params_structure(p, k):
    import math

    if math.gcd(p, k) != 1:
        return
    from slce.fields import multiplicative_order

    order = multiplicative_order(p, k)
    t = least_t(p, k)
    has_minus_one = any(pow(p, x, k) == k - 1 for x in range(1, order + 1))
    assert (t is not None) == has_minus_one
    try:
        routed = predict(p, 2 * order, k)
    except NoClosedForm:
        routed = None
    assert (routed is not None and routed.regime == "pure") == has_minus_one
    if t is not None:
        assert pow(p, t, k) == k - 1
        assert all(pow(p, x, k) != k - 1 for x in range(1, t))
        assert order == 2 * t  # -1 is the unique involution of <p>
        assert routed.params == {"t": t, "s": 2}  # m = 2 order = 4t


def test_predict_pure_fixtures():
    assert predict_pure(19, 2, 5).divides is True
    assert predict_pure(5, 2, 3).divides is False
    assert predict_pure(3, 8, 5).divides is True
    assert predict_pure(7, 4, 5).divides is False
    with pytest.raises(NoClosedForm):
        predict_pure(13, 11, 23)


@pytest.mark.parametrize(
    "p,m,k,expected",
    [
        (19, 2, 5, 19),
        (3, 4, 5, 9),
        (3, 8, 5, -81),
        (11, 2, 3, 11),
        (3, 8, 41, 81),
        (5, 4, 13, 25),
        (7, 4, 5, 49),
    ],
)
def test_closed_form_pure_K_matches_exact(p, m, k, expected):
    assert closed_form_pure_K(p, m, k) == expected
    ctx = build_field(p, m)
    assert as_integer(jacobi_K(ctx, k)) == expected


def test_class_number_fixtures():
    assert class_number(23) == 3
    assert class_number(7) == 1
    assert class_number(31) == 3
    with pytest.raises(ValueError):
        class_number(13)  # 1 mod 4
    with pytest.raises(ValueError):
        class_number(15)  # not prime


def dirichlet_class_number(ell):
    # independent oracle: h = -(1/ell) * sum of legendre(a|ell) * a
    total = sum((1 if pow(a, (ell - 1) // 2, ell) == 1 else -1) * a for a in range(1, ell))
    assert total % ell == 0
    return -total // ell


def test_class_number_against_dirichlet_oracle_up_to_500():
    from slce.fields import is_prime

    checked = 0
    for ell in range(7, 501, 4):
        if not is_prime(ell):
            continue
        assert class_number(ell) == dirichlet_class_number(ell), ell
        checked += 1
    assert checked >= 40


def class_number_by_reduced_forms(ell):
    """Oracle: count reduced primitive forms (A, B, C), B^2 - 4AC = -ell,
    |B| <= A <= C, and B > 0 when |B| = A or A = C."""
    count = 0
    for a in range(1, math.isqrt(ell // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b + ell) % (4 * a) != 0:
                continue
            c = (b * b + ell) // (4 * a)
            if c < a:
                continue
            if b < 0 and (abs(b) == a or a == c):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) != 1:
                continue
            count += 1
    return count


def test_class_number_against_reduced_forms_below_5000():
    ells = [ell for ell in range(7, 5000, 4) if is_prime(ell)]
    assert len(ells) > 300
    for ell in ells:
        assert class_number(ell) == class_number_by_reduced_forms(ell), ell


def test_class_number_is_fast_at_a_million():
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        assert class_number(999983) == 1171
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.010


def test_class_number_published_spot_values():
    published = {7: 1, 11: 1, 19: 1, 23: 3, 31: 3, 43: 1, 47: 5, 67: 1, 71: 7, 163: 1, 191: 13}
    for ell, h in published.items():
        assert class_number(ell) == h


def test_represent_reference_case():
    a, b_abs = represent(13, 23, 3, 11)
    assert (a, b_abs) == (74, 12)
    assert 74**2 + 23 * 12**2 == 8788 == 4 * 13**3
    assert (a - b_abs) % 2 == 0


def represent_by_scan(p, ell, h, e):
    # the linear scan over |a| that represent() replaced: ~2 p^(h/2) steps
    target = 4 * p**h
    candidates = []
    for a_abs in range(1, math.isqrt(target) + 1):
        rem = target - a_abs * a_abs
        if rem % ell != 0:
            continue
        b2 = rem // ell
        b_abs = math.isqrt(b2)
        if b_abs * b_abs != b2:
            continue
        if (a_abs - b_abs) % 2 != 0:
            continue
        if a_abs % p == 0 or b_abs % p == 0:
            continue
        candidates.append((a_abs, b_abs))
    if len(candidates) != 1:
        raise ArithmeticError(
            f"expected a unique representation 4*{p}^{h} = a^2 + {ell} b^2, found {candidates}"
        )
    a_abs, b_abs = candidates[0]
    if (e + h) % 2 != 0:
        raise ArithmeticError(f"(e + h)/2 is not integral for e={e}, h={h}")
    want = (-2 * pow(p, (e + h) // 2, ell)) % ell
    if a_abs % ell == want:
        a = a_abs
    elif (-a_abs) % ell == want:
        a = -a_abs
    else:
        raise ArithmeticError(f"neither sign of a = {a_abs} satisfies the congruence mod {ell}")
    return a, b_abs


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return str(exc)


def test_represent_matches_scan_oracle():
    # ell = 3 mod 8 (11, 19, 43) gives odd a and b; p with -ell a non-residue
    # mod p (equivalently p a non-residue mod ell) has no representation
    odd_ab = no_rep = 0
    for ell in (7, 11, 19, 23, 31, 43, 47, 71, 79, 103):
        h, e = class_number(ell), (ell - 1) // 2
        for p in range(3, 400, 2):
            if not is_prime(p) or math.isqrt(4 * p**h) > 200_000:
                continue
            want = _outcome(represent_by_scan, p, ell, h, e)
            assert _outcome(represent, p, ell, h, e) == want, (p, ell)
            if isinstance(want, str):
                assert want.endswith("found []"), (p, ell, want)
                no_rep += 1
            elif want[0] % 2:
                odd_ab += 1
    assert odd_ab >= 30 and no_rep >= 100


def test_represent_rejects_p_not_an_odd_prime():
    for p in (2, 9, 15):
        with pytest.raises(ValueError, match="must be an odd prime"):
            represent(p, 7, 1, 3)


def test_represent_beyond_scan_reach():
    # the scan needs ~2 p^3.5 = 3.7e8 steps here
    p, ell, h, e = 229, 71, 7, 35
    a, b_abs = represent(p, ell, h, e)
    assert 4 * p**h == a * a + ell * b_abs * b_abs
    assert a % p != 0 and b_abs % p != 0
    assert a % ell == (-2 * pow(p, (e + h) // 2, ell)) % ell


@pytest.mark.parametrize("p,ell,e", [(11, 7, 3), (23, 7, 3), (37, 7, 3), (53, 7, 3), (3, 23, 11), (13, 23, 11)])
def test_represent_invariants(p, ell, e):
    h = class_number(ell)
    a, b_abs = represent(p, ell, h, e)
    assert 4 * p**h == a * a + ell * b_abs * b_abs
    assert a % p != 0 and b_abs % p != 0
    assert (a - b_abs) % 2 == 0
    assert a % ell == (-2 * pow(p, (e + h) // 2, ell)) % ell


def test_predict_index2_reference_case():
    pred = predict_index2(13, 11, 23, 1)
    assert pred.divides is True
    assert pred.params["h"] == 3
    assert pred.params["a"] == 74
    assert pred.params["b_abs"] == 12
    assert pred.params["e"] == 11 and pred.params["s"] == 1
    blob = pred.to_json()
    assert blob["divides"] is True
    json.dumps(blob)


def test_predict_index2_indeterminate_path():
    pred = predict_index2(11, 3, 7, 1)
    assert pred.divides is None
    assert pred.to_json()["divides"] == "indeterminate"
    assert "value(+b)" in pred.condition_trace and "value(-b)" in pred.condition_trace


def test_indeterminate_only_when_b_is_2_mod_4():
    # a verdict can depend on the sign of b only when |b| = 2 mod 4
    cases = [(37, 3, 7), (53, 3, 7), (109, 3, 7), (137, 3, 7), (11, 6, 7),
             (11, 3, 7), (23, 3, 7), (13, 11, 23), (3, 11, 23)]
    for p, m, ell in cases:
        pred = predict_index2(p, m, ell, 1)
        if pred.params["b_abs"] % 4 == 0:
            assert pred.divides is not None, (p, m, ell)
        if pred.divides is None:
            assert pred.params["b_abs"] % 4 == 2, (p, m, ell)
            assert pred.params["s"] % 2 == 1, (p, m, ell)  # even s squares the branch values


def test_predict_index2_precondition_errors():
    with pytest.raises(NoClosedForm):
        predict_index2(13, 11, 11, 1)  # 11 = 3 mod 8
    with pytest.raises(NoClosedForm):
        predict_index2(5, 3, 7, 1)  # index 1, not 2
    with pytest.raises(NoClosedForm):
        predict_index2(13, 3, 7, 1)  # 13 = -1 mod 7: pure regime
    with pytest.raises(NoClosedForm):
        predict_index2(11, 4, 7, 1)  # m not a multiple of e = 3


@pytest.mark.parametrize(
    "p,m,expected",
    [(37, 3, False), (53, 3, True), (11, 6, True)],
)
def test_predict_index2_definite_verdicts_match_direct(p, m, expected):
    pred = predict_index2(p, m, 7, 1)
    assert pred.divides is expected
    if p**m <= 200_000:  # keep the unit suite fast; bigger checks live in acceptance
        ctx = build_field(p, m)
        s2 = poly_from_seq(generate(ctx))
        assert divides(all_ones_poly(7), s2) is expected


@pytest.mark.parametrize("p,m,ell", [(11, 3, 7), (23, 3, 7), (3, 11, 23)])
def test_index2_indeterminate_brackets_per_factor_truth(p, m, ell):
    # branch values correspond to conjugate characters: exactly one of the
    # two order-ell minimal-polynomial classes divides when branches differ
    pred = predict_index2(p, m, ell, 1)
    assert pred.divides is None
    ctx = build_field(p, m)
    s2 = poly_from_seq(generate(ctx))
    outcomes = sorted(divides(g, s2) for g in minimal_polys_of_order(ell))
    assert outcomes == [False, True]


@pytest.mark.parametrize(
    "p,m,ell,eps,b_sign",
    [
        (37, 3, 7, 1, 1),
        (53, 3, 7, 1, 1),
        (11, 3, 7, 1, -1),
        (23, 3, 7, 1, -1),
        (3, 11, 23, 1, 1),
    ],
)
def test_closed_form_index2_K_matches_exact_jacobi(p, m, ell, eps, b_sign):
    pred = predict_index2(p, m, ell, 1)
    want = closed_form_index2_K(pred, b_sign)
    ctx = build_field(p, m)
    assert jacobi_K(ctx, ell) == want
    # and the opposite sign is the conjugate value
    assert cyc_conj(want) == closed_form_index2_K(pred, -b_sign)


def test_closed_form_index2_K_s2_case():
    # s = 2 instance: K = -(p^2) * ((a + b sqrt(-7))/2)^2 for one b sign
    pred = predict_index2(11, 6, 7, 1)
    ctx = build_field(11, 6)
    exact = jacobi_K(ctx, 7)
    assert exact in (closed_form_index2_K(pred, 1), closed_form_index2_K(pred, -1))


def test_predict_router():
    assert predict(19, 2, 5).regime == "pure"
    assert predict(13, 11, 23).regime == "index2"
    assert predict(7, 4, 5).divides is False
    with pytest.raises(NoClosedForm):
        predict(5, 6, 31)  # index 10: out of scope
    with pytest.raises(ValueError):
        predict(5, 2, 4)  # even k
    with pytest.raises(ValueError):
        predict(5, 2, 7)  # 7 does not divide 24
    with pytest.raises(ValueError, match="positive"):
        predict(2, -3, 7)  # 2^-3 = 1 mod 7, but q is no integer


def test_predict_factors_k_once_on_the_index2_route(monkeypatch):
    import slce.fields

    seen = []
    real = slce.fields.prime_factors

    def counted(n):
        seen.append(n)
        return real(n)

    monkeypatch.setattr(slce.fields, "prime_factors", counted)
    pred = predict(229, 35, 71)
    assert pred.regime == "index2"
    assert seen.count(71) == 1


def test_index2_params_validation():
    params = predict_index2(13, 11, 23, 1).params
    assert list(params) == ["ell", "r", "k", "e", "s", "h", "a", "b_abs"]
    assert params["k"] == 23 and params["e"] == 11
    assert 4 * 13**3 == params["a"] ** 2 + 23 * params["b_abs"] ** 2


def test_predict_equals_the_applicable_oracle_on_every_row_up_to_20000():
    # the router against the oracles' own hypothesis checks, NoClosedForm
    # exactly where neither regime's hypotheses hold
    regimes = Counter()
    for q, p, m in _odd_prime_powers_upto(20000):
        for k in divisors(q - 1):
            if k < 3 or k % 2 == 0:
                continue
            try:
                want = closed_form_prediction(p, m, k)
            except NoClosedForm:
                with pytest.raises(NoClosedForm):
                    predict(p, m, k)
                regimes["none"] += 1
                continue
            assert predict(p, m, k) == want, (p, m, k)
            regimes[want.regime] += 1
    assert regimes == {"pure": 75, "index2": 2, "none": 11388}
