"""Closed-form divisibility predictors for SLCE sequence polynomials.

Two regimes admit closed forms for K and hence for divisibility of the
sequence polynomial by cyclotomic-type factors:

* pure: some power of p is -1 mod k.  K is a rational integer
  (+/- p^(m/2)) and divisibility depends only on the parities of s and ts.

* index 2: the subgroup generated by p has index 2 in the units mod
  k = ell^r, with ell = 7 mod 8 prime.  K lies in the imaginary quadratic
  field of discriminant -ell:

      K = (-1)^(s-1) * p^((e-h)s/2) * ((a + b*sqrt(-ell))/2)^s,

  with e = phi(k)/2, m = es, h the class number of the field, and (a, b)
  the (sign-resolved a, |b|) solution of 4p^h = a^2 + ell b^2.  The sign
  of b varies with the character and is never resolved here; when the two
  sign branches disagree the prediction is reported as indeterminate.

The index-2 prefactor (-1)^(s-1) is pinned by exact Jacobi-sum
computations at q = 37^3, 53^3, 109^3, 137^3, 11^3, 23^3, 11^6 and 3^11
and by direct gcd computations at those sizes; it also reproduces the
known h = 3 reference evaluation at ell = 23.

Class numbers come from Dirichlet's sum of Legendre symbols, ell/2
numpy-vectorised steps (the tests check it against a count of reduced
forms); the representation 4p^h = a^2 + ell b^2 comes from Cornacchia's
algorithm in O(log p^h) steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import check_field, is_prime, order_and_primes


class NoClosedForm(ValueError):
    """Raised when (p, m, k) falls in neither the pure nor the index-2 regime."""


@dataclass(frozen=True)
class PureCaseParams:
    p: int
    m: int
    k: int
    order: int  # of p mod k
    k_primes: tuple[int, ...]  # prime factors of k
    t: int | None  # least positive t with p^t = -1 mod k, if any
    s: int | None  # m / (2t) when integral
    applicable: bool
    reason: str


def pure_case_params(p: int, m: int, k: int) -> PureCaseParams:
    """Find the least t with p^t = -1 (mod k); set s = m/(2t) if exact."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"k = {k} must be an odd integer >= 3")
    if math.gcd(p, k) != 1:
        raise ValueError(f"gcd({p}, {k}) != 1")
    order, k_primes = order_and_primes(p, k)
    # -1 is the only element of order 2 in the cyclic group <p>, so it is a
    # power of p iff p^(order/2) = -1, and then t = order/2 is the least one
    t = order // 2 if order % 2 == 0 and pow(p, order // 2, k) == k - 1 else None
    if t is None:
        return PureCaseParams(p, m, k, order, k_primes, None, None, False, "no power of p is -1 mod k")
    if m % (2 * t) != 0:
        reason = f"m = {m} is not a multiple of 2t = {2 * t}"
        return PureCaseParams(p, m, k, order, k_primes, t, None, False, reason)
    return PureCaseParams(p, m, k, order, k_primes, t, m // (2 * t), True, "pure")


@dataclass(frozen=True)
class Prediction:
    """Outcome of a closed-form predictor.

    divides is True/False for a definite verdict and None when the verdict
    depends on the unresolved sign of b (index-2 case only).
    """

    p: int
    m: int
    k: int
    regime: str
    target: str
    divides: bool | None
    params: dict
    condition_trace: str

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "k": self.k,
            "regime": self.regime,
            "params": self.params,
            "divides": self.divides if self.divides is not None else "indeterminate",
            "condition_trace": self.condition_trace,
        }


def _all_ones_name(k: int) -> str:
    return f"1+x+...+x^{k - 1}"


def pure_prediction(params: PureCaseParams) -> Prediction:
    """Pure-regime verdict for the full factor 1 + x + ... + x^(k-1); params.applicable must hold.

    The same verdict applies to every minimal polynomial of an element of
    order dividing k (order exactly k included), so the full-factor and
    per-factor answers coincide.
    """
    p, m, k, t, s = params.p, params.m, params.k, params.t, params.s
    if p % 4 == 1:
        divides = s % 2 == 0
        trace = f"p=1 mod 4: divides iff s even; t={t}, s={s}"
    else:
        divides = (s % 2 == 0) or (t * s % 2 == 1)
        trace = f"p=3 mod 4: divides iff s even or ts odd; t={t}, s={s}, ts={t * s}"
    return Prediction(
        p=p,
        m=m,
        k=k,
        regime="pure",
        target=_all_ones_name(k),
        divides=divides,
        params={"t": t, "s": s},
        condition_trace=trace,
    )


# ---------------------------------------------------------------------------
# Index-2 regime.
# ---------------------------------------------------------------------------


_CLASS_NUMBER_BLOCK = 1 << 14  # small enough to stay in cache
_CLASS_NUMBER_ELL_BOUND = 1 << 32  # below it, x^2 < 2^62 for every x < ell/2


def class_number(ell: int) -> int:
    """Class number of the imaginary quadratic field of discriminant -ell.

    Dirichlet: h = S / (2 - (2|ell)) with S the sum of the Legendre symbols
    (a|ell) over 0 < a < ell/2.  Each residue is x^2 mod ell for exactly one
    x in that range, so S = 2 * #{x : x^2 mod ell < ell/2} - (ell - 1)/2,
    counted in numpy blocks.  Requires ell prime, ell = 3 mod 4, ell > 3
    (so -ell is a fundamental discriminant) and ell < 2^32, so that the
    squares fit int64.
    """
    if ell >= _CLASS_NUMBER_ELL_BOUND:
        raise ValueError(f"ell = {ell} is not below the class-number bound 2^32")
    if ell % 4 != 3:
        raise ValueError(f"ell = {ell} must be 3 mod 4")
    if ell <= 3 or not is_prime(ell):
        raise ValueError(f"ell = {ell} must be a prime > 3")
    half = (ell - 1) // 2
    residues = 0
    for start in range(1, half + 1, _CLASS_NUMBER_BLOCK):
        x = np.arange(start, min(start + _CLASS_NUMBER_BLOCK, half + 1), dtype=np.int64)
        residues += int(np.count_nonzero(x * x % ell <= half))
    h, rem = divmod(2 * residues - half, 1 if ell % 8 == 7 else 3)
    if rem or h < 1:
        raise ArithmeticError(f"Dirichlet sum gave a non-positive or fractional class number for ell = {ell}")
    return h


@dataclass(frozen=True)
class Index2Params:
    p: int
    m: int
    ell: int
    r: int
    k: int
    e: int  # phi(k)/2
    s: int  # m / e
    h: int  # class number of the quadratic field
    a: int  # sign-resolved
    b_abs: int

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "r": self.r,
            "k": self.k,
            "e": self.e,
            "s": self.s,
            "h": self.h,
            "a": self.a,
            "b_abs": self.b_abs,
        }


def _sqrt_mod_prime(n: int, p: int) -> int | None:
    """A square root of n modulo the odd prime p (Tonelli-Shanks), or None.

    None when n is 0 or a non-residue mod p.
    """
    n %= p
    if n == 0 or pow(n, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _cornacchia(p: int, ell: int, h: int) -> tuple[int, int] | None:
    """(|a|, |b|) with 4M = a^2 + ell b^2, M = p^h, p not dividing ab; or None.

    Modified Cornacchia (Cohen, Alg. 1.5.3): a square root of -ell mod p by
    Tonelli-Shanks, Newton-lifted to M and made odd, is a root mod 4M; Euclid
    on (2M, root) stops at the first remainder <= floor(2 sqrt(M)), which is
    |a| if (4M - a^2)/ell is a square.  A root prime to p gives exactly the
    solutions with p not dividing ab, so None means there are none.
    """
    root = _sqrt_mod_prime(-ell, p)
    if root is None:
        return None
    modulus = p**h
    lifted = p
    while lifted < modulus:
        lifted = min(lifted * lifted, modulus)
        root = (root - (root * root + ell) * pow(2 * root, -1, lifted)) % lifted
    if root % 2 == 0:
        root += modulus  # M is odd
    x, y = 2 * modulus, root
    bound = math.isqrt(4 * modulus)
    while y > bound:
        x, y = y, x % y
    b2, rem = divmod(4 * modulus - y * y, ell)
    b_abs = math.isqrt(b2)
    if rem != 0 or b_abs * b_abs != b2:
        return None
    return y, b_abs


def represent(p: int, ell: int, h: int, e: int) -> tuple[int, int]:
    """Solve 4p^h = a^2 + ell b^2 with p not dividing ab and a = b mod 2.

    The solution is unique up to signs and found by Cornacchia's algorithm
    in O(log p^h) steps; the sign of a is resolved by
    a = -2 p^((e+h)/2) (mod ell) and b is returned as |b|.  Requires p an
    odd prime.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p = {p} must be an odd prime")
    solution = _cornacchia(p, ell, h)
    if solution is None:
        raise ArithmeticError(f"expected a unique representation 4*{p}^{h} = a^2 + {ell} b^2, found []")
    a_abs, b_abs = solution
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


def index2_case_params(p: int, m: int, ell: int, r: int, e: int) -> Index2Params:
    """The derived quantities of the index-2 regime.

    Requires ell = 7 mod 8 prime, r >= 1 and p of index 2 mod k = ell^r, so
    that e = ord_k(p) = phi(k)/2; then no power of p is -1 mod k, as -1 is
    no square mod ell^r.  Raises NoClosedForm when e does not divide m.
    """
    if m % e != 0:
        raise NoClosedForm(f"m = {m} is not a multiple of e = phi(k)/2 = {e}")
    s = m // e
    h = class_number(ell)
    if h % 2 == 0:
        raise ArithmeticError(f"class number h = {h} is unexpectedly even for ell = {ell}")
    a, b_abs = represent(p, ell, h, e)
    if a % 2 != 0 or b_abs % 2 != 0:
        raise ArithmeticError(f"a = {a}, b = {b_abs} should both be even for ell = 7 mod 8")
    return Index2Params(p=p, m=m, ell=ell, r=r, k=ell**r, e=e, s=s, h=h, a=a, b_abs=b_abs)


def _index2_condition_value(params: Index2Params, b: int) -> int:
    """Signed integer whose class mod 4 decides divisibility for one b sign."""
    p, s, e, h = params.p, params.s, params.e, params.h
    exponent = s - 1
    if p % 4 == 3:
        exponent += (e - h) * s // 2
    return (-1) ** (exponent % 2) * ((params.a + b) // 2) ** s


def index2_prediction(params: Index2Params) -> Prediction:
    """Index-2 verdict; definite only when both b-sign branches agree.

    Branch values correspond to conjugate characters (conjugation flips the
    sign of b), so for r = 1 a definite verdict covers the full factor
    1 + x + ... + x^(k-1); for r > 1 the verdict is per minimal polynomial
    of an order-k element.  When b = 0 mod 4 the branches always agree.
    """
    ell, r = params.ell, params.r
    values = {b: _index2_condition_value(params, b) for b in (params.b_abs, -params.b_abs)}
    branch = {b: value % 4 == 3 for b, value in values.items()}
    agree = branch[params.b_abs] == branch[-params.b_abs]
    target = _all_ones_name(params.k) if r == 1 else f"each minimal polynomial of an element of order {params.k}"
    trace = (
        f"ell={ell} r={r} e={params.e} s={params.s} h={params.h} a={params.a} b=+/-{params.b_abs}; "
        f"value(+b)={values[params.b_abs]}={values[params.b_abs] % 4} (mod 4), "
        f"value(-b)={values[-params.b_abs]}={values[-params.b_abs] % 4} (mod 4); divides iff 3 (mod 4)"
    )
    if agree:
        divides = branch[params.b_abs]
    else:
        divides = None
        trace += "; sign branches disagree: indeterminate (b is known only up to sign)"
    return Prediction(
        p=params.p,
        m=params.m,
        k=params.k,
        regime="index2",
        target=target,
        divides=divides,
        params=params.to_json(),
        condition_trace=trace,
    )


# ---------------------------------------------------------------------------
# Regime routing.
# ---------------------------------------------------------------------------


def _prime_power(k: int, k_primes: tuple[int, ...]) -> tuple[int, int] | None:
    """(ell, r) with k = ell^r, from the prime factors of k; None if k has two or more."""
    if len(k_primes) != 1:
        return None
    ell, r = k_primes[0], 0
    while k > 1:
        k //= ell
        r += 1
    return ell, r


def predict(p: int, m: int, k: int) -> Prediction:
    """Route to the applicable closed form; raise NoClosedForm otherwise."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"k = {k} must be an odd integer >= 3")
    if m < 1:
        raise ValueError(f"m = {m} must be a positive integer")
    check_field(p, m)  # rejects a p that is not an odd prime
    if pow(p, m, k) != 1:
        q_minus_1 = p**m - 1 if m * p.bit_length() <= 300 else f"{p}^{m} - 1"  # never print a huge p**m
        raise ValueError(f"k = {k} does not divide q - 1 = {q_minus_1}")
    params = pure_case_params(p, m, k)  # factors k, once for both routes
    if params.applicable:
        return pure_prediction(params)
    pp = _prime_power(k, params.k_primes)
    if pp is not None:
        ell, r = pp  # ell is prime: it came out of prime_factors
        if ell % 8 == 7 and (ell - 1) * ell ** (r - 1) == 2 * params.order:  # index 2
            return index2_prediction(index2_case_params(p, m, ell, r, params.order))
    raise NoClosedForm(f"no closed form in scope for (p={p}, m={m}, k={k})")
