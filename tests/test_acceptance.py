"""Acceptance suite: one criterion per numbered test, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
recorded observations.  Criterion 1's q = 5^6 sub-case is a strict
expected failure: the published reference row for that field is internally
inconsistent (see fixtures/gcd_reference.json) and no choice of primitive
element reproduces it; the independently verified computed value is locked
in fixtures/gcd_computed.json.
"""

import json
import math
import re
import time

import pytest

from conftest import field_bundle
from gaussnum import REL_TOL, check_identities, modulus_suite
from oracles import (
    all_ones_poly,
    as_integer,
    berlekamp_massey,
    check_eq3,
    closed_form_pure_K,
    cyc_conj,
    cyc_mul,
    decimate,
    divides,
    jacobi_with_rho,
    lce_shift_check,
    linear_complexity,
    minimal_polys_of_order,
    mul_int,
    poly_from_seq,
    predict_index2,
    predict_pure,
    pure_ts,
    recombine,
)
from slce.cli import _odd_prime_powers_upto
from slce.cyclotomic import criterion, ideal_factors, jacobi_K
from slce.fields import is_prime
from slce.gf2poly import factored_str, gcd_factors, to_str
from slce.sequences import autocorrelation_profile

GCD_REFERENCE = json.load(open("fixtures/gcd_reference.json"))["cases"]
GCD_COMPUTED = json.load(open("fixtures/gcd_computed.json"))["cases"]


def parse_factored(s: str) -> int:
    """'(x+1)^4 (x^2+x+1)^10' as a polynomial product over GF(2)."""
    out = 1
    for body, exp in re.findall(r"\(([^)]+)\)(?:\^(\d+))?", s):
        bits = 0
        for term in body.split("+"):
            term = term.strip()
            if term == "1":
                bits |= 1
            elif term == "x":
                bits |= 2
            else:
                bits |= 1 << int(term[2:])
        for _ in range(int(exp) if exp else 1):
            out = mul_int(out, bits)
    return out


def _case_ids():
    ids = []
    for case in GCD_REFERENCE:
        marks = []
        if case["q"] == 15625:
            marks.append(
                pytest.mark.xfail(
                    strict=True,
                    reason=(
                        "reference row for q=5^6 is internally inconsistent"
                        " (duplicated quintic; (x+1)^4 and two quintics missing);"
                        " no primitive element reproduces it"
                    ),
                )
            )
        ids.append(pytest.param(case, marks=marks, id=f"q{case['q']}"))
    return ids


@pytest.mark.parametrize("case", _case_ids())
def test_acceptance_1_reference_gcd_table(case):
    p, m = case["p"], case["m"]
    t0 = time.perf_counter()
    ctx, seq, s2 = field_bundle(p, m)
    factors = gcd_factors(seq.v, s2, p)
    got = factored_str(factors)
    g = recombine(factors)
    reference_poly = parse_factored(case["gcd_factored"])

    computed_row = next(c for c in GCD_COMPUTED if c["q"] == case["q"])
    assert got == computed_row["gcd_factored"], "regression against frozen computed table"

    if g == reference_poly:
        assert got == case["gcd_factored"]
        print(
            f"ACCEPTANCE 1 [q={case['q']}] PASS: canonical alpha matches reference"
            f" ({time.perf_counter() - t0:.2f}s)"
        )
        return
    # canonical alpha differs: rerun across all primitive elements (each is a
    # decimation of the canonical sequence) and report
    v = seq.v
    matches = []
    for u in range(1, v):
        if math.gcd(u, v) != 1:
            continue
        s2_u = poly_from_seq(decimate(seq, u))
        g_u = recombine(gcd_factors(v, s2_u, p))
        if g_u == reference_poly:
            matches.append(u)
    if matches:
        u = matches[0]
        print(
            f"ACCEPTANCE 1 [q={case['q']}] CONDITIONAL PASS: reference matched for"
            f" alpha^{u} (exponents {matches[:5]}...), not the canonical alpha"
        )
        return
    pytest.fail(
        f"q={case['q']}: no primitive element reproduces the reference factorization;"
        f" computed (alpha-invariant) gcd is {got}"
    )


def test_computed_gcd_table_regression():
    # plain (non-xfail) lock on the frozen computed table, all seven rows
    for case in GCD_COMPUTED:
        ctx, seq, s2 = field_bundle(case["p"], case["m"])
        echo = ctx.describe()
        assert echo["modulus"] == case["modulus"] and echo["alpha"] == case["alpha"]
        factors = gcd_factors(seq.v, s2, case["p"])
        assert factored_str(factors) == case["gcd_factored"]
        assert seq.v - (recombine(factors).bit_length() - 1) == case["linear_complexity"]


def test_acceptance_2_quintic_factor_at_q361():
    t0 = time.perf_counter()
    ctx, seq, s2 = field_bundle(19, 2)
    g = recombine(gcd_factors(360, s2, 19))
    target = all_ones_poly(5)
    assert divides(target, g)
    ideals = ideal_factors(5)
    assert len(ideals) == 1
    assert criterion(ctx, 5) == (True,)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"ACCEPTANCE 2 PASS: 1+x+x^2+x^3+x^4 divides the q=361 gcd; criterion true ({dt:.3f}s)")


def test_acceptance_3_index2_reference_prediction():
    t0 = time.perf_counter()
    pred = predict_index2(13, 11, 23, 1)
    dt = time.perf_counter() - t0
    assert pred.params["h"] == 3
    assert pred.params["a"] == 74
    assert pred.params["b_abs"] == 12
    assert pred.divides is True
    assert dt < 1.0
    print(f"ACCEPTANCE 3 PASS: (p=13, m=11, ell=23) -> h=3, a=74, |b|=12, divides ({dt:.3f}s)")


def test_acceptance_4_criterion_equals_direct_divisibility_grid():
    t0 = time.perf_counter()
    pairs = 0
    mismatches = []
    for q, p, m in _odd_prime_powers_upto(3000):
        ctx, seq, s2 = field_bundle(p, m)
        for k in range(3, q - 1, 2):
            if (q - 1) % k != 0:
                continue
            for g, crit in zip(ideal_factors(k), criterion(ctx, k)):
                pairs += 1
                if crit != divides(g, s2):
                    mismatches.append((q, k, to_str(g)))
    assert not mismatches, mismatches[:10]
    dt = time.perf_counter() - t0
    assert dt < 600
    print(f"ACCEPTANCE 4 PASS: criterion == direct on {pairs} (q, k, ideal) triples, q <= 3000 ({dt:.1f}s)")


def test_acceptance_5_pure_evaluations():
    t0 = time.perf_counter()
    # K = p for every (p <= 200, m = 2, odd k >= 3 dividing p + 1)
    checked_kp = 0
    for p in range(3, 201, 2):
        if not is_prime(p):
            continue
        ctx, _, _ = field_bundle(p, 2)
        for k in range(3, p + 2, 2):
            if (p + 1) % k != 0:
                continue
            assert as_integer(jacobi_K(ctx, k)) == p, (p, k)
            checked_kp += 1
    # closed-form sign matches exact K on every pure instance with q <= 10^4
    checked_pure = 0
    for q, p, m in _odd_prime_powers_upto(10_000):
        if m < 2:
            continue
        for k in range(3, q - 1, 2):
            if (q - 1) % k != 0:
                continue
            if pure_ts(p, m, k) is None:
                continue
            ctx, _, _ = field_bundle(p, m)
            assert as_integer(jacobi_K(ctx, k)) == closed_form_pure_K(p, m, k), (p, m, k)
            checked_pure += 1
    dt = time.perf_counter() - t0
    print(
        f"ACCEPTANCE 5 PASS: K = p at {checked_kp} (p, k) pairs (m=2, p<=200);"
        f" closed-form sign exact on {checked_pure} pure instances q <= 10^4 ({dt:.1f}s)"
    )


def test_acceptance_6_identity_suite():
    t0 = time.perf_counter()
    checked = 0
    for q, p, m in _odd_prime_powers_upto(2000):
        ctx = None
        for k in range(3, q - 1, 2):
            if (q - 1) % k != 0:
                continue
            if ctx is None:
                ctx, _, _ = field_bundle(p, m)
            kval = jacobi_K(ctx, k)
            assert check_eq3(kval, q), (q, k)
            assert jacobi_with_rho(ctx, k) == kval, (q, k)
            assert as_integer(cyc_mul(kval, cyc_conj(kval))) == q, (q, k)
            checked += 1
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE 6 PASS: congruence, rho-identity and |K|^2 = q on {checked} (q, k) pairs ({dt:.1f}s)")


def test_acceptance_7_predictors_match_direct():
    t0 = time.perf_counter()
    # pure regime, exhaustively for q <= 10^4
    checked_pure = 0
    for q, p, m in _odd_prime_powers_upto(10_000):
        if m < 2:
            continue
        prepared = None
        for k in range(3, q - 1, 2):
            if (q - 1) % k != 0 or pure_ts(p, m, k) is None:
                continue
            if prepared is None:
                prepared = field_bundle(p, m)
            _, _, s2 = prepared
            pred = predict_pure(p, m, k)
            assert pred.divides == divides(all_ones_poly(k), s2), (p, m, k)
            checked_pure += 1
    # index-2 regime: every definite desk-scale instance (ell = 7), plus the
    # indeterminate ones, whose two branches must bracket the per-factor truth
    definite = [(37, 3, False), (53, 3, True), (109, 3, False), (137, 3, False), (11, 6, True)]
    for p, m, expected in definite:
        pred = predict_index2(p, m, 7, 1)
        assert pred.divides is expected, (p, m)
        _, _, s2 = field_bundle(p, m)
        assert divides(all_ones_poly(7), s2) is expected, (p, m)
    indeterminate = [(11, 3, 7), (23, 3, 7), (3, 11, 23)]
    for p, m, ell in indeterminate:
        pred = predict_index2(p, m, ell, 1)
        assert pred.divides is None, (p, m, ell)
        _, _, s2 = field_bundle(p, m)
        outcomes = sorted(divides(g, s2) for g in minimal_polys_of_order(ell))
        assert outcomes == [False, True], (p, m, ell)
    dt = time.perf_counter() - t0
    print(
        f"ACCEPTANCE 7 PASS: pure predictor exact on {checked_pure} instances;"
        f" index-2 exact on {len(definite)} definite + {len(indeterminate)} indeterminate instances ({dt:.1f}s)"
    )


def test_acceptance_8_berlekamp_massey_agrees_with_gcd_formula():
    t0 = time.perf_counter()
    checked = 0
    for q, p, m in _odd_prime_powers_upto(10_000):
        _, seq, _ = field_bundle(p, m)
        assert seq.weight() == (q - 1) // 2, (p, m)  # balance, exhaustive to 10^4
        want = linear_complexity(seq)
        got, _conn = berlekamp_massey(seq)
        assert got == want, (p, m, got, want)
        checked += 1
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE 8 PASS: register synthesis == gcd formula on {checked} sequences q <= 10^4 ({dt:.1f}s)")


def test_acceptance_9_numeric_gauss_suite():
    t0 = time.perf_counter()
    checked_mod = 0
    for q, p, m in _odd_prime_powers_upto(2401):
        ctx, _, _ = field_bundle(p, m)
        assert modulus_suite(ctx) <= REL_TOL, (p, m)
        checked_mod += 1
    checked_k = 0
    for q, p, m in _odd_prime_powers_upto(343):
        ctx = None
        for k in range(3, q - 1, 2):
            if (q - 1) % k != 0:
                continue
            if ctx is None:
                ctx, _, _ = field_bundle(p, m)
            rep = check_identities(ctx, k)
            assert rep["K_rel_err"] <= REL_TOL, (q, k)
            assert rep["ok"], (q, k)
            checked_k += 1
    dt = time.perf_counter() - t0
    print(
        f"ACCEPTANCE 9 PASS: |G| = sqrt(q) for all characters over {checked_mod} fields q <= 2401;"
        f" quotient route reproduces exact K on {checked_k} (q, k) pairs q <= 343 ({dt:.1f}s)"
    )


def test_acceptance_10_structure_suite():
    t0 = time.perf_counter()
    worst = (0, None)
    checked = 0
    for q, p, m in _odd_prime_powers_upto(2000):
        ctx, seq, _ = field_bundle(p, m)
        assert seq.weight() == (q - 1) // 2, (p, m)
        assert lce_shift_check(ctx), (p, m)
        prof = autocorrelation_profile(seq)
        off_peak = int(max(abs(int(c)) for c in prof[1:])) if q > 3 else 0
        if off_peak > worst[0]:
            worst = (off_peak, q)
        checked += 1
    dt = time.perf_counter() - t0
    print(
        f"ACCEPTANCE 10 PASS: balance and shift-structure hold on {checked} fields q <= 2000;"
        f" recorded max off-peak |C_tau| = {worst[0]} (at q = {worst[1]}) ({dt:.1f}s)"
    )
