import numpy as np
import pytest

from conftest import ORACLE_FIELDS
from oracles import (
    autocorrelation,
    bits_by_mark,
    decimate,
    decode,
    encode,
    exp_dlog,
    from_int,
    is_zero,
    lce_shift_check,
    mul,
    one,
    power,
    set_Y,
    set_Z,
    sub,
    support_set,
)
from slce.fields import build_field
from slce.sequences import autocorrelation_csv, autocorrelation_profile, generate, sequence_text


def brute_support_codes(ctx):
    """Literal definition: { alpha^(2i+1) - 1 } over all i, dropping zero."""
    out = set()
    for i in range(ctx.q - 1):
        cand = sub(ctx, power(ctx, 2 * i + 1), one(ctx))
        if not is_zero(cand):
            out.add(encode(ctx, cand))
    return out


def nonsquare_support_codes(ctx):
    """Oracle: D = { n - 1 : n a nonzero non-square } minus zero."""
    squares = {encode(ctx, power(ctx, 2 * t)) for t in range((ctx.q - 1) // 2)}
    out = set()
    for code in map(int, exp_dlog(ctx)[0]):
        if code in squares:
            continue
        elt = sub(ctx, decode(ctx, code), one(ctx))
        if not is_zero(elt):
            out.add(encode(ctx, elt))
    return out


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1), (5, 2), (3, 4)])
def test_support_set_against_both_oracles(p, m):
    ctx = build_field(p, m)
    d = support_set(ctx)
    codes = set(map(int, d.element_codes))
    assert codes == brute_support_codes(ctx)
    assert codes == nonsquare_support_codes(ctx)
    assert d.size == (ctx.q - 1) // 2
    assert d.element_codes.dtype == d.exponents.dtype == np.int64
    assert np.array_equal(d.element_codes, sorted(codes))
    assert np.array_equal(d.exponents, sorted(int(exp_dlog(ctx)[1][c]) for c in codes))


def test_support_set_q5():
    ctx = build_field(5, 1)
    d = support_set(ctx)
    assert set(map(int, d.element_codes)) == {1, 2}
    assert set(map(int, d.exponents)) == {0, 1}
    assert {str(decode(ctx, int(c))) for c in d.element_codes} == {"1", "2"}


def test_generate_fixtures():
    assert generate(build_field(5, 1)).to01() == "1100"
    assert generate(build_field(3, 1)).to01() == "10"


def test_generate_matches_the_support_mark_oracle():
    for p, m in ORACLE_FIELDS:
        ctx = build_field(p, m)
        seq = generate(ctx)
        assert seq.bits.dtype == np.uint8 and seq.v == ctx.q - 1, (p, m)
        assert np.array_equal(seq.bits, bits_by_mark(ctx)), (p, m)


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2), (3, 4), (7, 2)])
def test_balance(p, m):
    seq = generate(build_field(p, m))
    assert seq.weight() == (p**m - 1) // 2


def test_bits_match_support_membership():
    ctx = build_field(7, 2)
    seq = generate(ctx)
    member = set(map(int, support_set(ctx).element_codes))
    for t in range(ctx.q - 1):
        assert bool(seq.bits[t]) == (encode(ctx, power(ctx, t)) in member)


def test_autocorrelation_fixtures():
    seq = generate(build_field(5, 1))
    assert autocorrelation(seq, 0) == seq.v
    assert autocorrelation(seq, 1) == 0
    assert autocorrelation(seq, 2) == -4


@pytest.mark.parametrize("p,m", [(5, 1), (13, 1), (3, 2), (5, 2)])
def test_profile_matches_pointwise(p, m):
    seq = generate(build_field(p, m))
    prof = autocorrelation_profile(seq)
    for tau in range(seq.v):
        assert prof[tau] == autocorrelation(seq, tau)


def test_set_Y_Z_q5():
    ctx = build_field(5, 1)
    assert {str(e) for e in set_Y(ctx)} == {"3", "4"}
    assert {str(e) for e in set_Z(ctx)} == {"1", "2"}


@pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (3, 2), (13, 1), (5, 2)])
def test_Y_Z_partition(p, m):
    ctx = build_field(p, m)
    y, z = set_Y(ctx), set_Z(ctx)
    assert len(y) + len(z) == ctx.q - 1
    assert not (y & z)


@pytest.mark.parametrize("p,m", [(5, 1), (3, 2), (7, 1), (11, 1), (3, 4), (7, 2), (13, 1)])
def test_lce_shift_check(p, m):
    assert lce_shift_check(build_field(p, m))


@pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (3, 2), (13, 1)])
def test_representation_counts(p, m):
    # each nonzero gamma is x(1-x) for 1 + rho(1 - 4 gamma) values of x,
    # with rho(0) counted as 0; exactly one gamma is represented once
    ctx = build_field(p, m)
    counts = {}
    for t in range(ctx.q - 1):
        x = power(ctx, t)
        val = mul(ctx, x, sub(ctx, one(ctx), x))
        if is_zero(val):
            continue
        counts[val.coeffs] = counts.get(val.coeffs, 0) + 1
    squares = {encode(ctx, power(ctx, 2 * t)) for t in range((ctx.q - 1) // 2)}
    once = 0
    for t in range(ctx.q - 1):
        gamma = power(ctx, t)
        w = sub(ctx, one(ctx), mul(ctx, from_int(ctx, 4), gamma))
        if is_zero(w):
            rho = 0
        else:
            rho = 1 if encode(ctx, w) in squares else -1
        assert counts.get(gamma.coeffs, 0) == 1 + rho
        once += counts.get(gamma.coeffs, 0) == 1
    assert once == 1


def test_decimation_identity_and_coprimality():
    ctx = build_field(7, 1)
    seq = generate(ctx)
    assert decimate(seq, 1).to01() == seq.to01()
    with pytest.raises(ValueError):
        decimate(seq, 2)


def test_decimation_is_alpha_swap():
    # sequence for alpha^u equals the u-decimation of the canonical sequence
    ctx = build_field(7, 2)
    seq = generate(ctx)
    u = 5  # coprime to 48
    alt = power(ctx, u)
    member = set(map(int, support_set(ctx).element_codes))
    bits_alt = []
    x = one(ctx)
    for _ in range(ctx.q - 1):
        bits_alt.append(1 if encode(ctx, x) in member else 0)
        x = mul(ctx, x, alt)
    assert bits_alt == [int(b) for b in decimate(seq, u).bits]


def test_exports_match_fixtures():
    seq = generate(build_field(5, 1))
    assert sequence_text(seq) == open("fixtures/sequence_q5.txt").read()
    assert autocorrelation_csv(seq) == open("fixtures/autocorrelation_q5.csv").read()
