"""Exact arithmetic in Z[zeta_k] and the Jacobi-sum divisibility test.

Elements are integer coordinate vectors in the power basis 1, zeta, ...,
zeta^(phi(k)-1) modulo the k-th cyclotomic polynomial (an integral basis,
so "divisible by 2" means "all coordinates even").  The module computes
the normalized Jacobi sum K = chi(4) J(chi, chi) for the canonical
character chi(alpha) = zeta_k and the divisibility test.  Each prime ideal
above 2 is (2, g(zeta_k)) for an irreducible factor g of Phi_k mod 2, and
the package names it by g alone (`ideal_factors`, from `gf2poly`, where
the gcd with x^v + 1 reads the same split): g divides the sequence
polynomial exactly when (K + 1)/2 lies in (2, g(zeta_k)).

Phi_k is the Moebius product of the x^d - 1 over d | k, and every
element enters the power basis through one reduction, `_reduce_wrapped`:
with Psi_k = (x^k - 1)/Phi_k, the remainder mod Phi_k is (vec * Psi_k mod
x^k - 1) / Psi_k, and multiplying or dividing by Psi_k is one shift or one
strided cumulative sum per factor (x^d - 1)^(+-1).  So a reduction is
O(2^omega(k)) array operations of length O(k), in O(k) memory, in int64
and exact modulo 2^64.  The criterion reads K mod 4 alone, straight from
K mod 2^64.  Only exact K (`jacobi_K`, through `_reduce`) pays for more:
where an a priori bound does not keep it inside int64, the same steps
modulo a prime P < 2^31 give each coordinate by CRT, and a bound of 2^93
or more raises ValueError.

The criterion packs the parity u of (K + 1)/2 into a GF(2) polynomial in
one numpy pass and takes G = gcd(Phi_k mod 2, u) by the step the factored
gcd with x^v + 1 takes for each Phi_d (`gf2poly.gcd_cyclotomic`).  Its
multiplier is p: sigma_p fixes K, since J(chi^p, chi^p) = J(chi, chi) and
4^p = 4, so u(x^p) = u(x) mod Phi_k.  When <2, p> is all of (Z/k)*, or the
product over its orbits is nonzero mod Phi_k, the certificate shows G = 1
without Euclid, for phi(k) at or above the threshold of `gcd_cyclotomic`.
The gcd with x^v + 1 also tries -1 there, a property of the sequence
(K conj(K) = q); the criterion, which is to decide from K alone, does
not.  Each ideal's g divides Phi_k, so g | u exactly when g | G: one
remainder per ideal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import FieldCtx, euler_phi, mobius_factors
from .gf2poly import _from_coefficients, _mod_int, gcd_cyclotomic, ideal_factors


def _times_mobius(a: np.ndarray, factors, modulus: int = 0) -> np.ndarray:
    """a * prod (x^d - 1)^e over (d, e) in factors, e = +-1; constant first.

    Multiplies first and then divides exactly, so every partial result is a
    polynomial.  int64 arithmetic wraps modulo 2^64 and both steps commute
    with that wrap (x^d - 1 is a unit at both ends), so the result is exact
    whenever its own coefficients fit.  With a modulus, every step is
    reduced modulo it, and the result is the product's residues.
    """
    for d, e in sorted(factors, key=lambda f: -f[1]):
        n = len(a)
        if e > 0:
            nxt = np.zeros(n + d, dtype=a.dtype)
            nxt[d:] += a
            nxt[:-d] -= a
            a = nxt
        else:
            # a = quo * (x^d - 1) means quo[i] = quo[i - d] - a[i]
            if n % d:
                a = np.concatenate((a, np.zeros(d - n % d, dtype=a.dtype)))
            acc = np.cumsum(a.reshape(-1, d), axis=0).ravel()
            if modulus:
                acc %= modulus
            if acc[n - d : n].any():
                raise ArithmeticError(f"x^{d} - 1 does not divide the partial product")
            a = -acc[: n - d]
        if modulus:
            a %= modulus
    return a


def _fold_sum(a: np.ndarray, k: int) -> np.ndarray:
    """a mod (x^k - 1): the sum of a's length-k slices."""
    if len(a) == k:
        return a
    out = np.zeros(k, dtype=a.dtype)
    for start in range(0, len(a), k):
        chunk = a[start : start + k]
        out[: len(chunk)] += chunk
    return out


@lru_cache(maxsize=None)
def _psi_plan(k: int) -> tuple[int, tuple, tuple]:
    """(growth, Psi_k, 1/Psi_k), the last two as Moebius factors; Psi_k = (x^k - 1)/Phi_k.

    growth = 1 + max|Psi_k| |Phi_k|_1.  Phi_k is palindromic, so 1/Phi_k =
    -Psi_k (1 + x^k + x^2k + ...): every quotient coefficient of a division
    by Phi_k is a sum of input coefficients times coefficients of Psi_k, and
    no remainder coefficient exceeds |vec|_1 * growth.
    """
    factors = mobius_factors(k)
    psi = tuple((d, -e) for d, e in factors if d != k)
    one = np.ones(1, dtype=np.int64)
    growth = 1 + int(np.abs(_times_mobius(one, psi)).max()) * int(np.abs(_times_mobius(one, factors)).sum())
    return growth, psi, tuple((d, -e) for d, e in psi)


# The residue check's prime: odd, above 2^30 so that 2^63 P > 2^93, and below
# 2^31 so that its cumulative sums stay far inside int64.
_CHECK_PRIME = 2**31 - 1


def _reduce_wrapped(k: int, a: np.ndarray, modulus: int = 0) -> np.ndarray:
    """The coordinates of sum a[j] x^j modulo Phi_k, modulo 2^64 (int64 wraps) or modulo `modulus`.

    Folds a mod x^k - 1, multiplies by Psi_k, folds again and divides by
    Psi_k exactly: (a mod Phi_k) Psi_k = a Psi_k mod (x^k - 1).  Each step is
    a ring operation or an exact division by a monic x^d - 1 (a shift and
    subtract or a strided cumulative sum, O(k 2^omega(k)) in all), so the
    result is exact modulo every divisor of 2^64, 4 included.
    """
    _, psi, inverse = _psi_plan(k)
    times_psi = _fold_sum(_times_mobius(_fold_sum(a, k), psi, modulus), k)
    return _times_mobius(times_psi, inverse, modulus)


def _reduce(k: int, vec) -> tuple[int, ...]:
    """Coordinates of sum vec[j] x^j modulo Phi_k, exactly.

    vec must fit in int64, and `_reduce_wrapped` gives each coordinate
    modulo 2^64.  No coordinate exceeds B = |vec|_1 * growth (see
    `_psi_plan`).  Where B reaches 2^62, the same steps also run modulo
    P = `_CHECK_PRIME`, and each coordinate whose two residues mod P
    disagree comes from CRT, exact while B < 2^63 P.  B >= 2^93 raises
    ValueError.  (B is summed in float64; its rounding is far inside the
    factor 2 each threshold leaves.)
    """
    if not (isinstance(vec, np.ndarray) and vec.dtype == np.int64):
        try:
            vec = np.array([int(c) for c in vec], dtype=np.int64)
        except OverflowError:
            raise ValueError(f"an input coordinate of the reduction mod Phi_{k} does not fit in int64") from None
    bound = float(np.abs(vec, dtype=np.float64).sum()) * _psi_plan(k)[0]
    if bound >= 2.0**93:
        raise ValueError(
            f"the reduction mod Phi_{k} is exact below a bound of 2^93; this input's is 2^{math.log2(bound):.1f}"
        )
    wrapped = _reduce_wrapped(k, vec)
    coords = wrapped.tolist()
    if bound >= 2.0**62:
        P = _CHECK_PRIME
        residues = _reduce_wrapped(k, vec % P, P)
        inverse_of_2_64 = pow(2**64, -1, P)
        for i in np.flatnonzero(wrapped % P != residues).tolist():
            # the coordinate is coords[i] + 2^64 t with |t| <= (P - 1)/2
            t = (int(residues[i]) - coords[i]) * inverse_of_2_64 % P
            coords[i] += (t - P if t > P // 2 else t) << 64
    return tuple(coords)


@dataclass(frozen=True)
class CycInt:
    """An element of Z[zeta_k] in the power basis modulo Phi_k."""

    k: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.k < 3 or self.k % 2 == 0:
            raise ValueError(f"k = {self.k} must be an odd integer >= 3")
        expected = euler_phi(self.k)
        if len(self.coeffs) != expected:
            raise ValueError(f"need {expected} coordinates for k = {self.k}")

    @classmethod
    def from_exponent_counts(cls, k: int, counts) -> "CycInt":
        """sum counts[j] * zeta^j reduced into the power basis."""
        if np.shape(counts) != (k,):
            raise ValueError(f"need {k} exponent classes")
        return cls(k, _reduce(k, counts))

    def to_json(self) -> dict:
        return {"k": self.k, "basis": "power", "coeffs": list(self.coeffs)}


# ---------------------------------------------------------------------------
# K = chi(4) J(chi, chi) for the canonical character chi(alpha) = zeta_k.
# ---------------------------------------------------------------------------


def _require_valid_k(q: int, k: int) -> None:
    if k < 3:
        raise ValueError(f"k = {k} must be >= 3")
    if k % 2 == 0:
        raise ValueError(f"k = {k} must be odd")
    if (q - 1) % k != 0:
        raise ValueError(f"k = {k} does not divide q - 1 = {q - 1}")


def _class_counts(ctx: FieldCtx, k: int) -> np.ndarray:
    """counts[j] = #{i in [1, q - 2] : i + log(1 - alpha^i) + log 4 = j mod k}, so K = sum counts[j] zeta^j."""
    q = ctx.q
    _require_valid_k(q, k)
    i = np.arange(1, q - 1, dtype=np.int64)
    return np.bincount((i + ctx.zech_table[1 : q - 1] + ctx.log4) % k, minlength=k)


def jacobi_K(ctx: FieldCtx, k: int) -> CycInt:
    """K = chi(4) * sum over i of chi(alpha^i) chi(1 - alpha^i), exactly: the class counts, reduced once."""
    return CycInt.from_exponent_counts(k, _class_counts(ctx, k))


# ---------------------------------------------------------------------------
# The divisibility criterion modulo the prime ideals above 2.
# ---------------------------------------------------------------------------


def criterion(ctx: FieldCtx, k: int) -> tuple[bool, ...]:
    """For each g of ideal_factors(k), in order: True iff (K + 1)/2 lies in (2, g(zeta_k)).

    Equivalent to: g divides the sequence polynomial of the SLCE sequence
    for ctx.  Since k is odd, chi(-1) = 1 and no sign adjustment is needed.
    The ideal (2, g(zeta)) contains (K + 1)/2 exactly when g divides its
    coordinates mod 2, read as a polynomial in zeta over GF(2).
    """
    # the parity of (K + 1)/2 needs K mod 4 only, which K mod 2^64 holds
    w = _reduce_wrapped(k, _class_counts(ctx, k)) & 3
    w[0] += 1
    if (w & 1).any():
        raise ArithmeticError("K + 1 is not divisible by 2; upstream computation is inconsistent")
    # u(x^p) = u(x) mod Phi_k; each g divides Phi_k mod 2, so g | u exactly when g | gcd(Phi_k, u)
    shared = gcd_cyclotomic(k, _from_coefficients((w >> 1) & 1), ctx.p)
    return tuple(_mod_int(shared, g) == 0 for g in ideal_factors(k))
