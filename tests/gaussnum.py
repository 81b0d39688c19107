"""Floating-point Gauss sums: numeric validation of the exact machinery.

Gauss sums are evaluated as plain complex sums (or all at once by FFT over
the character group).  They validate, at small q, the identities the
closed-form predictors rest on: the modulus |G| = sqrt(q), the quotient
identity J(chi, phi) = G(chi) G(phi) / G(chi phi), the classical closed
form for the quadratic-character sum, and the purity classification.
Exact values stay in the cyclotomic module; nothing here feeds results
back into exact computations.  The package never evaluates these
identities; the tests check them here.
"""

from __future__ import annotations

import numpy as np

from oracles import embed, exp_dlog, pure_ts
from slce.cyclotomic import jacobi_K
from slce.fields import FieldCtx

REL_TOL = 1e-6


def _character_phases(ctx: FieldCtx, n: int, j: int) -> np.ndarray:
    """epsilon(alpha^t) for t = 0..q-2, epsilon of order dividing n, index j."""
    if (ctx.q - 1) % n != 0:
        raise ValueError(f"character order {n} does not divide q - 1 = {ctx.q - 1}")
    t = np.arange(ctx.q - 1)
    return np.exp(2j * np.pi * (j % n) * t / n)


def _traces(ctx: FieldCtx) -> np.ndarray:
    """Tr(alpha^t) for t = 0..q-2.

    Tr(alpha^t) = sum over i < m of alpha^(t p^i); the trace lies in GF(p),
    so it is the sum of the constant coordinates, exp[.] mod p.
    """
    n = ctx.q - 1
    exp = exp_dlog(ctx)[0]
    t = np.arange(n, dtype=np.int64)
    tr = np.zeros(n, dtype=np.int64)
    for _ in range(ctx.m):
        tr += exp[t] % ctx.p
        t = t * ctx.p % n
    return tr % ctx.p


def _additive_phases(ctx: FieldCtx) -> np.ndarray:
    return np.exp(2j * np.pi * _traces(ctx) / ctx.p)


def gauss_sum(ctx: FieldCtx, n: int, j: int) -> complex:
    """G = sum over nonzero x of epsilon(x) e^(2 pi i tr(x)/p).

    epsilon is the order-n index-j multiplicative character (nontrivial
    characters vanish at 0, so the sum runs over the nonzero elements).
    """
    if j % n == 0:
        raise ValueError("character must be nontrivial")
    values = _character_phases(ctx, n, j) * _additive_phases(ctx)
    return complex(values.sum())


def gauss_sum_all(ctx: FieldCtx) -> np.ndarray:
    """G for every character of the full group at once (index j = 0..q-2).

    Entry j is the Gauss sum of the character alpha^t -> e^(2 pi i jt/(q-1));
    entry 0 (the trivial character, summed over nonzero x) equals -1.
    """
    psi = _additive_phases(ctx)
    return np.fft.ifft(psi) * (ctx.q - 1)


def jacobi_sum_numeric(ctx: FieldCtx, char1: tuple[int, int], char2: tuple[int, int]) -> complex:
    """J(eps1, eps2) = sum over i of eps1(alpha^i) eps2(1 - alpha^i), numerically."""
    n1, j1 = char1
    n2, j2 = char2
    q = ctx.q
    i = np.arange(1, q - 1)
    ph1 = np.exp(2j * np.pi * (j1 % n1) * i / n1)
    ph2 = np.exp(2j * np.pi * (j2 % n2) * ctx.zech_table[i] / n2)
    if (q - 1) % n1 or (q - 1) % n2:
        raise ValueError("character orders must divide q - 1")
    return complex((ph1 * ph2).sum())


def quadratic_gauss_closed_form(ctx: FieldCtx) -> complex:
    """Classical evaluation of the quadratic-character Gauss sum."""
    p, m = ctx.p, ctx.m
    sign = (-1) ** ((m - 1) % 2)
    if p % 4 == 1:
        return complex(sign * p ** (m / 2))
    return sign * (1j**m) * p ** (m / 2)


def _rel_err(got: complex, want: complex) -> float:
    scale = max(abs(want), 1.0)
    return abs(got - want) / scale


def check_identities(ctx: FieldCtx, k: int) -> dict:
    """Cross-validate exact K against the Gauss-sum quotient route, plus purity.

    Returns a report dict; see the 'ok' flag for the overall verdict at the
    standard relative tolerance.
    """
    if k < 3 or k % 2 == 0 or (ctx.q - 1) % k != 0:
        raise ValueError(f"k = {k} must be an odd divisor >= 3 of q - 1")
    q = ctx.q
    v = q - 1
    g_rho = gauss_sum(ctx, 2, 1)
    g_chi = gauss_sum(ctx, k, 1)
    g_chi_rho = gauss_sum(ctx, 2 * k, k + 2)  # chi * rho: exponent 1/k + 1/2 = (k+2)/(2k)
    k_eq6 = g_rho * g_chi / g_chi_rho
    k_exact = jacobi_K(ctx, k)
    k_embedded = embed(k_exact)

    rho_closed = quadratic_gauss_closed_form(ctx)
    pure = pure_ts(ctx.p, ctx.m, k)
    report = {
        "q": q,
        "k": k,
        "K_eq6": k_eq6,
        "K_exact": k_embedded,
        "K_rel_err": _rel_err(k_eq6, k_embedded),
        "G_rho": g_rho,
        "G_rho_closed_form": rho_closed,
        "G_rho_rel_err": _rel_err(g_rho, rho_closed),
        "gauss_moduli_rel_err": max(
            abs(abs(g) - q**0.5) / q**0.5 for g in (g_rho, g_chi, g_chi_rho)
        ),
        "pure": pure is not None,
    }
    if pure is not None:
        # a pure G(chi) here is real: the closed form is a signed power of p
        t, s = pure
        g_closed = (-1) ** ((s - 1 + (ctx.p**t + 1) * s // k) % 2) * ctx.p ** (ctx.m / 2)
        report["G_chi_closed_form"] = complex(g_closed)
        report["G_chi_rel_err"] = _rel_err(g_chi, complex(g_closed))
        report["purity_consistent"] = report["G_chi_rel_err"] <= REL_TOL
    else:
        # non-pure G(chi) cannot be real
        report["purity_consistent"] = abs(g_chi.imag) > REL_TOL * abs(g_chi)
    report["ok"] = (
        report["K_rel_err"] <= REL_TOL
        and report["G_rho_rel_err"] <= REL_TOL
        and report["gauss_moduli_rel_err"] <= REL_TOL
        and report["purity_consistent"]
    )
    return report


def modulus_suite(ctx: FieldCtx) -> float:
    """Worst relative error of |G| = sqrt(q) over all nontrivial characters."""
    sums = gauss_sum_all(ctx)[1:]
    return float(np.abs(np.abs(sums) - ctx.q**0.5).max() / ctx.q**0.5)
