"""Closed-form divisibility predictors for SLCE sequence polynomials.

`predict(p, m, k)` routes on the order e of p mod k to the one regime
whose hypotheses hold, and raises NoClosedForm when none does.  Each
regime is one function of the numbers its hypotheses fix:

* pure(p, m, k, t, s), when e is even and p^(e/2) = -1 (mod k): t = e/2 is
  the least t with p^t = -1 (mod k), and s = m/e.  K is a rational integer
  (+/- p^(m/2)) and divisibility depends only on the parities of s and ts.

* index2(p, m, ell, r, e), when k = ell^r with ell = 7 mod 8 prime and
  phi(k) = 2e, so that p generates the subgroup of index 2 in the units
  mod k.  K lies in the imaginary quadratic field of discriminant -ell:

      K = (-1)^(s-1) * p^((e-h)s/2) * ((a + b*sqrt(-ell))/2)^s,

  with m = es, h the class number of the field, and (a, b) the
  (sign-resolved a, |b|) solution of 4p^h = a^2 + ell b^2.  The sign
  of b varies with the character and is never resolved here; when the two
  sign branches disagree the prediction is reported as indeterminate.
  Each branch's class mod 4 comes from a modular power; the trace prints
  the branch value in full while it has at most 4300 decimal digits (or
  fewer, where Python's integer-printing limit is set lower), and beyond
  that as the signed power of its base.

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
import sys
from dataclasses import dataclass

import numpy as np

from .fields import check_field, is_prime, order_and_primes


class NoClosedForm(ValueError):
    """Raised when (p, m, k) falls in neither the pure nor the index-2 regime."""


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


def pure(p: int, m: int, k: int, t: int, s: int) -> Prediction:
    """Pure-regime verdict for the full factor 1 + x + ... + x^(k-1).

    Requires t to be the least positive integer with p^t = -1 (mod k), and
    m = 2ts.  The same verdict applies to every minimal polynomial of an
    element of order dividing k (order exactly k included), so the
    full-factor and per-factor answers coincide.
    """
    if p % 4 == 1:
        divides = s % 2 == 0
        trace = f"p=1 mod 4: divides iff s even; t={t}, s={s}"
    else:
        divides = (s % 2 == 0) or (t * s % 2 == 1)
        trace = f"p=3 mod 4: divides iff s even or ts odd; t={t}, s={s}, ts={t * s}"
    return Prediction(p, m, k, "pure", _all_ones_name(k), divides, {"t": t, "s": s}, trace)


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


_TRACE_DIGITS = 4300  # a branch value with more decimal digits is printed as a power


def _power_str(sign: int, base: int, s: int) -> str:
    """sign * base^s in decimal while it has at most `digits` digits, else as that power.

    `digits` is _TRACE_DIGITS, Python's default integer-printing limit, or
    that limit where it is set lower (0 means no limit, as in `cmd_verify`).
    |base|^s >= 2^(s (bitlength(base) - 1)), so the power is formed only
    when that bound leaves it below 10^digits.
    """
    digits = min(_TRACE_DIGITS, getattr(sys, "get_int_max_str_digits", lambda: 0)() or _TRACE_DIGITS)
    if s * (abs(base).bit_length() - 1) < digits * math.log2(10):
        value = sign * base**s
        if abs(value) < 10**digits:
            return str(value)
    return f"{'-' if sign < 0 else ''}({base})^{s}"


def index2(p: int, m: int, ell: int, r: int, e: int) -> Prediction:
    """Index-2 verdict; definite only when both b-sign branches agree.

    Requires ell = 7 mod 8 prime, r >= 1 and p of index 2 mod k = ell^r, so
    that e = ord_k(p) = phi(k)/2; then no power of p is -1 mod k, as -1 is
    no square mod ell^r.  Raises NoClosedForm when e does not divide m.

    Branch values correspond to conjugate characters (conjugation flips the
    sign of b), so for r = 1 a definite verdict covers the full factor
    1 + x + ... + x^(k-1); for r > 1 the verdict is per minimal polynomial
    of an order-k element.  When b = 0 mod 4 the branches always agree.
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
    k = ell**r
    exponent = s - 1 + ((e - h) * s // 2 if p % 4 == 3 else 0)
    sign = -1 if exponent % 2 else 1
    # the signed branch value sign * ((a + b)/2)^s decides by its class mod 4
    mod4 = {b: sign * pow((a + b) // 2, s, 4) % 4 for b in (b_abs, -b_abs)}
    shown = {b: _power_str(sign, (a + b) // 2, s) for b in (b_abs, -b_abs)}
    target = _all_ones_name(k) if r == 1 else f"each minimal polynomial of an element of order {k}"
    trace = (
        f"ell={ell} r={r} e={e} s={s} h={h} a={a} b=+/-{b_abs}; "
        f"value(+b)={shown[b_abs]}={mod4[b_abs]} (mod 4), "
        f"value(-b)={shown[-b_abs]}={mod4[-b_abs]} (mod 4); divides iff 3 (mod 4)"
    )
    if (mod4[b_abs] == 3) == (mod4[-b_abs] == 3):
        divides = mod4[b_abs] == 3
    else:
        divides = None
        trace += "; sign branches disagree: indeterminate (b is known only up to sign)"
    params = {"ell": ell, "r": r, "k": k, "e": e, "s": s, "h": h, "a": a, "b_abs": b_abs}
    return Prediction(p, m, k, "index2", target, divides, params, trace)


# ---------------------------------------------------------------------------
# Regime routing.
# ---------------------------------------------------------------------------


def predict(p: int, m: int, k: int) -> Prediction:
    """Route to the applicable closed form by the order of p mod k; raise NoClosedForm otherwise."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"k = {k} must be an odd integer >= 3")
    if m < 1:
        raise ValueError(f"m = {m} must be a positive integer")
    check_field(p, m)  # rejects a p that is not an odd prime
    if pow(p, m, k) != 1:
        q_minus_1 = p**m - 1 if m * p.bit_length() <= 300 else f"{p}^{m} - 1"  # never print a huge p**m
        raise ValueError(f"k = {k} does not divide q - 1 = {q_minus_1}")
    order, k_primes = order_and_primes(p, k)  # factors k, once for both routes; order | m as k | p^m - 1
    # -1 is the only element of order 2 in the cyclic group <p>, so it is a
    # power of p iff p^(order/2) = -1, and then t = order/2 is the least one
    if order % 2 == 0 and pow(p, order // 2, k) == k - 1:
        return pure(p, m, k, order // 2, m // order)
    ell = k_primes[0]  # a prime: it came out of prime_factors
    if len(k_primes) == 1 and ell % 8 == 7 and k - k // ell == 2 * order:  # k = ell^r, phi(k) = 2 order
        r = 1
        while ell**r != k:
            r += 1
        return index2(p, m, ell, r, order)
    raise NoClosedForm(f"no closed form in scope for (p={p}, m={m}, k={k})")
