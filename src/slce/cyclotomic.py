"""Exact arithmetic in Z[zeta_k] and the Jacobi-sum divisibility test.

Elements are integer coordinate vectors in the power basis 1, zeta, ...,
zeta^(phi(k)-1) modulo the k-th cyclotomic polynomial (an integral basis,
so "divisible by 2" means "all coordinates even").  The module computes
the Jacobi sums J(chi, chi) and J(chi, rho) for the canonical character
chi(alpha) = zeta_k, the normalized sum K = chi(4) J(chi, chi), reduction
modulo the prime ideals above 2, and the divisibility test: the minimal
polynomial attached to an ideal factor divides the sequence polynomial
exactly when (K + 1)/2 reduces to zero modulo that ideal.

Phi_k is built as the Moebius product of the x^d - 1 over d | k, and every
element enters the power basis through one routine, `_reduce`: monic long
division by Phi_k, exact, in O(k) memory.  It works in int64 when an a
priori bound allows and in Python integers otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import FieldCtx, euler_phi, prime_factors
from .gf2poly import Gf2Poly, factor_squarefree


def _mobius_factors(k: int) -> list[tuple[int, int]]:
    """(d, mu(k/d)) for every divisor d of k with mu(k/d) != 0."""
    out = [(k, 1)]
    for r in prime_factors(k):
        out += [(d // r, -e) for d, e in out]
    return out


def _mobius_product(factors) -> np.ndarray:
    """prod (x^d - 1)^e over (d, e) in factors, e = +-1; int64, constant first.

    Multiplies first and then divides exactly, so every partial result is a
    polynomial.  int64 arithmetic wraps modulo 2^64 and both steps commute
    with that wrap, so the result is exact whenever its own coefficients fit.
    """
    out = np.ones(1, dtype=np.int64)
    for d, e in sorted(factors, key=lambda f: -f[1]):
        if e > 0:
            nxt = np.zeros(len(out) + d, dtype=np.int64)
            nxt[d:] += out
            nxt[:-d] -= out
            out = nxt
        else:
            # out = quo * (x^d - 1) means quo[i] = quo[i - d] - out[i]
            padded = np.zeros(-(-len(out) // d) * d, dtype=np.int64)
            padded[: len(out)] = out
            quo = -np.cumsum(padded.reshape(-1, d), axis=0).ravel()
            if quo[len(out) - d :].any():
                raise ArithmeticError(f"x^{d} - 1 does not divide the partial product")
            out = quo[: len(out) - d]
    return out


def cyclotomic_poly(k: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the k-th cyclotomic polynomial."""
    return tuple(int(c) for c in _mobius_product(_mobius_factors(k)))


def _reduce(k: int, vec) -> tuple[int, ...]:
    """Coordinates of sum vec[j] x^j modulo Phi_k, exactly, by monic long division."""
    factors = _mobius_factors(k)
    phi = _mobius_product(factors)
    n = len(phi) - 1
    psi = _mobius_product([(d, -e) for d, e in factors if d != k])
    # Each quotient coefficient is a sum of vec[j] times coefficients of
    # Psi_k = (x^k - 1)/Phi_k, because Phi_k is palindromic and 1/Phi_k =
    # -Psi_k (1 + x^k + x^2k + ...); so no partial remainder exceeds
    # |vec|_1 (1 + max|Psi_k| |Phi_k|_1), and below 2^63 int64 is exact.
    vec = [int(c) for c in vec]
    bound = sum(map(abs, vec)) * (1 + int(np.abs(psi).max()) * int(np.abs(phi).sum()))
    dtype = np.int64 if bound < 2**63 else object
    rem = np.zeros(max(len(vec), n), dtype=dtype)
    rem[: len(vec)] = vec
    head = phi[:n].astype(dtype)
    for i in range(len(rem) - 1, n - 1, -1):
        if rem[i]:
            rem[i - n : i] -= rem[i] * head
    return tuple(int(c) for c in rem[:n])


def _require_odd_k(k: int) -> None:
    if k < 3 or k % 2 == 0:
        raise ValueError(f"k = {k} must be an odd integer >= 3")


@dataclass(frozen=True)
class CycInt:
    """An element of Z[zeta_k] in the power basis modulo Phi_k."""

    k: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        _require_odd_k(self.k)
        expected = euler_phi(self.k)
        if len(self.coeffs) != expected:
            raise ValueError(f"need {expected} coordinates for k = {self.k}")

    @classmethod
    def from_integer(cls, k: int, n: int) -> "CycInt":
        return cls(k, (n,) + (0,) * (euler_phi(k) - 1))

    @classmethod
    def zeta_power(cls, k: int, j: int) -> "CycInt":
        vec = [0] * k
        vec[j % k] = 1
        return cls.from_exponent_counts(k, vec)

    @classmethod
    def from_exponent_counts(cls, k: int, counts) -> "CycInt":
        """sum counts[j] * zeta^j reduced into the power basis."""
        if np.shape(counts) != (k,):
            raise ValueError(f"need {k} exponent classes")
        return cls(k, _reduce(k, counts))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.k, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.k, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycInt":
        return CycInt(self.k, tuple(-a for a in self.coeffs))

    def _check(self, other: "CycInt") -> None:
        if self.k != other.k:
            raise ValueError(f"mismatched cyclotomic orders {self.k} and {other.k}")

    def as_integer(self) -> int | None:
        """The rational integer this element equals, or None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def embed(self) -> complex:
        """Numeric embedding at zeta_k = exp(2 pi i / k)."""
        angles = 2j * np.pi * np.arange(len(self.coeffs)) / self.k
        return complex(np.sum(np.array(self.coeffs) * np.exp(angles)))

    def to_json(self) -> dict:
        return {"k": self.k, "basis": "power", "coeffs": list(self.coeffs)}


def cyc_mul(a: CycInt, b: CycInt) -> CycInt:
    """Exact product reduced modulo Phi_k."""
    a._check(b)
    conv = np.convolve(np.array(a.coeffs, dtype=object), np.array(b.coeffs, dtype=object))
    return CycInt(a.k, _reduce(a.k, conv))


def cyc_conj(a: CycInt) -> CycInt:
    """Complex conjugation: zeta maps to zeta^(-1)."""
    counts = [0] * a.k
    for i, c in enumerate(a.coeffs):
        counts[(-i) % a.k] += c
    return CycInt(a.k, _reduce(a.k, counts))


# ---------------------------------------------------------------------------
# Jacobi sums for the canonical character chi with chi(alpha) = zeta_k.
# ---------------------------------------------------------------------------


def _require_valid_k(ctx: FieldCtx, k: int) -> None:
    if k < 3:
        raise ValueError(f"k = {k} must be >= 3")
    if k % 2 == 0:
        raise ValueError(f"k = {k} must be odd")
    if (ctx.q - 1) % k != 0:
        raise ValueError(f"k = {k} does not divide q - 1 = {ctx.q - 1}")


def jacobi_K(ctx: FieldCtx, k: int) -> CycInt:
    """K = chi(4) * sum over i of chi(alpha^i) chi(1 - alpha^i), exactly.

    Accumulates one integer count per exponent class mod k, then performs a
    single reduction into the power basis.
    """
    _require_valid_k(ctx, k)
    q = ctx.q
    i = np.arange(1, q - 1, dtype=np.int64)
    dlog4 = int(ctx.dlog_table[ctx.encode(ctx.from_int(4))])
    classes = (i + ctx.zech_table[i] + dlog4) % k
    counts = np.bincount(classes, minlength=k)
    return CycInt.from_exponent_counts(k, counts)


def jacobi_with_rho(ctx: FieldCtx, k: int) -> CycInt:
    """J(chi, rho) with rho the quadratic character: rho(alpha^t) = (-1)^t."""
    _require_valid_k(ctx, k)
    q = ctx.q
    i = np.arange(1, q - 1, dtype=np.int64)
    classes = (i % k).astype(np.int64)
    signs_neg = (ctx.zech_table[i] & 1).astype(bool)
    plus = np.bincount(classes[~signs_neg], minlength=k)
    minus = np.bincount(classes[signs_neg], minlength=k)
    return CycInt.from_exponent_counts(k, plus - minus)


def check_eq3(kval: CycInt, q: int) -> bool:
    """Exact test that kval + q is divisible by 2 (1 - zeta_k) in Z[zeta_k]."""
    phi = np.array(cyclotomic_poly(kval.k), dtype=object)
    # (1 - zeta)^(-1) = B(zeta) / Phi(1) with B = (Phi(x) - Phi(1)) / (x - 1),
    # whose coefficient j is the sum of the coefficients of Phi above j
    b = np.cumsum(phi[::-1])[::-1][1:]
    w = np.array(kval.coeffs, dtype=object)
    w[0] += q
    denom = 2 * int(phi.sum())
    return all(c % denom == 0 for c in _reduce(kval.k, np.convolve(w, b)))


# ---------------------------------------------------------------------------
# Prime ideals above 2 and the divisibility criterion.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdealFactor:
    """A prime ideal above 2 in Z[zeta_k]: (2, g(zeta_k)) for g | Phi_k mod 2.

    The residue field is GF(2)[x]/(g) of order 2^f, f = ord_k(2); the class
    of zeta_k maps to x, an element of order k whose minimal polynomial is g.
    """

    k: int
    g: Gf2Poly
    f: int


@lru_cache(maxsize=None)
def ideal_factors(k: int) -> tuple[IdealFactor, ...]:
    """The prime ideals above 2, one per irreducible factor of Phi_k mod 2."""
    _require_odd_k(k)
    gs = factor_squarefree(Gf2Poly.from_coeffs(cyclotomic_poly(k)), k)
    return tuple(IdealFactor(k=k, g=g, f=g.degree) for g in gs)


def _parity(a: CycInt) -> Gf2Poly:
    """The coordinates of a mod 2, as a polynomial in zeta over GF(2)."""
    return Gf2Poly(int("".join("1" if c & 1 else "0" for c in reversed(a.coeffs)), 2))


def reduce_mod_ideal(a: CycInt, ideal: IdealFactor) -> Gf2Poly:
    """Residue of a in GF(2)[x]/(g): coordinates mod 2, then zeta -> x mod g."""
    if a.k != ideal.k:
        raise ValueError(f"mismatched cyclotomic orders {a.k} and {ideal.k}")
    return _parity(a) % ideal.g


def half_K_plus_one(ctx: FieldCtx, k: int) -> CycInt:
    """(K + 1)/2, exact; every power-basis coordinate of K + 1 must be even."""
    kval = jacobi_K(ctx, k)
    w = list(kval.coeffs)
    w[0] += 1
    if any(c & 1 for c in w):
        raise ArithmeticError("K + 1 is not divisible by 2; upstream computation is inconsistent")
    return CycInt(k, tuple(c >> 1 for c in w))


def criterion(ctx: FieldCtx, k: int) -> tuple[bool, ...]:
    """For each ideal of ideal_factors(k), in order: True iff (K + 1)/2 lies in it.

    Equivalent to: the minimal polynomial g attached to the ideal divides
    the sequence polynomial of the SLCE sequence for ctx.  Since k is odd,
    chi(-1) = 1 and no sign adjustment is needed.
    """
    u = _parity(half_K_plus_one(ctx, k))
    return tuple((u % ideal.g).is_zero() for ideal in ideal_factors(k))
