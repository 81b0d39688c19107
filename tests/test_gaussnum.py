import cmath

import pytest

from gaussnum import (
    REL_TOL,
    check_identities,
    gauss_sum,
    gauss_sum_all,
    jacobi_sum_numeric,
    modulus_suite,
    quadratic_gauss_closed_form,
)
from slce.fields import build_field


def test_quadratic_sum_q5_positive_real():
    got = gauss_sum(build_field(5, 1), 2, 1)
    assert abs(got - 5**0.5) < 1e-9


def test_quadratic_sum_q7_positive_imaginary():
    got = gauss_sum(build_field(7, 1), 2, 1)
    assert abs(got - 1j * 7**0.5) < 1e-9


def test_quartic_character_modulus_and_direct_sum():
    ctx = build_field(5, 1)
    got = gauss_sum(ctx, 4, 1)
    assert abs(abs(got) - 5**0.5) < 1e-9
    direct = sum(
        cmath.exp(2j * cmath.pi * t / 4) * cmath.exp(2j * cmath.pi * pow(2, t, 5) / 5)
        for t in range(4)
    )
    assert abs(got - direct) < 1e-9


def test_gauss_sum_errors():
    ctx = build_field(7, 1)
    with pytest.raises(ValueError):
        gauss_sum(ctx, 4, 1)  # 4 does not divide 6
    with pytest.raises(ValueError):
        gauss_sum(ctx, 3, 0)  # trivial character


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2), (3, 4), (7, 2)])
def test_all_characters_have_modulus_sqrt_q(p, m):
    ctx = build_field(p, m)
    assert modulus_suite(ctx) <= REL_TOL
    sums = gauss_sum_all(ctx)
    assert abs(sums[0] - (-1)) < 1e-9  # trivial character over nonzero elements


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_quadratic_closed_form(p, m):
    ctx = build_field(p, m)
    got = gauss_sum(ctx, 2, 1)
    want = quadratic_gauss_closed_form(ctx)
    assert abs(got - want) <= REL_TOL * abs(want)


def test_gauss_sum_all_against_single():
    ctx = build_field(13, 1)
    sums = gauss_sum_all(ctx)
    for n, j in [(2, 1), (3, 1), (3, 2), (4, 1), (12, 5)]:
        assert abs(sums[j * 12 // n] - gauss_sum(ctx, n, j)) < 1e-9


def test_eq6_identity_sampled_pairs():
    for p, m in [(13, 1), (7, 2), (5, 2)]:
        ctx = build_field(p, m)
        v = ctx.q - 1
        sums = gauss_sum_all(ctx)
        for j1 in range(1, v, max(1, v // 7)):
            for j2 in range(1, v, max(1, v // 7)):
                if (j1 + j2) % v == 0:
                    continue
                got = jacobi_sum_numeric(ctx, (v, j1), (v, j2))
                want = sums[j1] * sums[j2] / sums[(j1 + j2) % v]
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_check_identities_pure_and_not():
    rep = check_identities(build_field(3, 4), 5)
    assert rep["ok"] and rep["pure"]
    assert rep["K_rel_err"] <= REL_TOL
    rep = check_identities(build_field(13, 1), 3)
    assert rep["ok"] and not rep["pure"]
    with pytest.raises(ValueError):
        check_identities(build_field(13, 1), 4)
