"""Explicit finite fields GF(p^m), kept as their Zech logarithm table.

A field context is deterministic: the modulus is the lexicographically
smallest monic irreducible of its degree (coefficient tuple ordered
constant term first) and the generator is the lexicographically smallest
primitive element under the same ordering.  Every report downstream echoes
both, so results are reproducible bit for bit.

All arithmetic goes through the companion matrix C of the modulus f, the
matrix of multiplication by x on GF(p)[x]/(f): an element g is the matrix
g(C), whose column i holds the coordinates of g * x^i.  The package reads
a field only through the Zech logarithm, the log of 1 - alpha^t (the
sequence reads its parity, the Jacobi sum counts it by class), and the log
of 4.  The powers of alpha come from giant steps by a power of the matrix
of alpha, in float64 so that the products run in BLAS; they are exact
because m (p - 1)^2 + p < 2^53 for every field up to FIELD_SIZE_BOUND.
Their logs, kept only while the context is built, give the Zech table
through -1 = alpha^((q-1)/2): 1 - alpha^t = -(alpha^t - 1), and alpha^t - 1
differs from alpha^t in the constant coordinate only.  Intended scale is q
up to FIELD_SIZE_BOUND; a context keeps one int32 array of length q - 1,
4 bytes per element.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

FIELD_SIZE_BOUND = 2_000_000
_TRIAL_DIVISION_BOUND = 1 << 20  # prime_factors refuses a cofactor with no prime factor up to this

_BLOCK = 4096  # columns per giant step; a power of two (see _build_tables)
_STACK = 64  # candidate primitive elements tested together (see _primitive_element)


# (base, least odd composite that passes Miller-Rabin to it and every base before it): OEIS A014233
_MR_STEPS = tuple(zip((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41), (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321, 341550071728321,
    3825123056546413051, 3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)))
_MR_BOUND = _MR_STEPS[-1][1]


def is_prime(n: int) -> bool:
    """Miller-Rabin to as many of the first 13 prime bases as n needs; exact below _MR_BOUND, else ValueError."""
    if n < 2:
        return False
    for a, _ in _MR_STEPS:
        if n % a == 0:
            return n == a
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is not below the primality-test bound {_MR_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a, pseudoprime in _MR_STEPS:
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < pseudoprime:
            break
    return True


def prime_factors(n: int) -> list[int]:
    """Sorted list of the distinct prime factors of n >= 1, by trial division.

    Trial division stops at the first divisor d above _TRIAL_DIVISION_BOUND.
    The cofactor left then is prime if it is below d^2 or if `is_prime`
    certifies it (below _MR_BOUND); otherwise it raises ValueError, so a
    returned list is always exact.
    """
    out = []
    d = 2
    while d * d <= n:
        if d > _TRIAL_DIVISION_BOUND:
            if n < _MR_BOUND and is_prime(n):
                break
            raise ValueError(f"trial division to {_TRIAL_DIVISION_BOUND} leaves a cofactor of {n.bit_length()} bits")
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def divisors(n: int) -> list[int]:
    """Sorted list of the divisors of n >= 1; ValueError as for prime_factors."""
    out = [1]
    for r in prime_factors(n):
        powers = [1]
        while n % (powers[-1] * r) == 0:
            powers.append(powers[-1] * r)
        out = [d * s for d in out for s in powers]
    return sorted(out)


def mobius_factors(n: int) -> list[tuple[int, int]]:
    """(d, mu(n/d)) for every divisor d of n with mu(n/d) != 0; ValueError as for prime_factors.

    The n-th cyclotomic polynomial is the product of (x^d - 1)^mu(n/d).
    """
    out = [(n, 1)]
    for r in prime_factors(n):
        out += [(d // r, -e) for d, e in out]
    return out


def euler_phi(n: int) -> int:
    out = n
    for r in prime_factors(n):
        out -= out // r
    return out


def multiplicative_order(a: int, n: int) -> int:
    """Order of a modulo n; requires gcd(a, n) = 1, and n and phi(n) factored by prime_factors."""
    return order_and_primes(a, n)[0]


def order_and_primes(a: int, n: int) -> tuple[int, tuple[int, ...]]:
    """(order of a modulo n, prime factors of n), with n factored once; as multiplicative_order."""
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    try:
        n_primes = prime_factors(n)
        order = n // math.prod(n_primes) * math.prod(r - 1 for r in n_primes)  # phi(n)
        primes = prime_factors(order)
    except ValueError as exc:
        raise ValueError(f"cannot find the order of {a} modulo {n}: {exc}") from None
    for r in primes:
        while order % r == 0 and pow(a, order // r, n) == 1:
            order //= r
    return order, tuple(n_primes)


# ---------------------------------------------------------------------------
# Matrices over GF(p), entries in [0, p): int64, except in the giant steps of
# FieldCtx._build_tables, which run in float64.  Products stay below
# m * p^2, far inside int64 for every field up to FIELD_SIZE_BOUND.
# ---------------------------------------------------------------------------


def _companion(f, p: int) -> np.ndarray:
    """Companion matrix of monic f (constant term first): column i is x * x^i mod f."""
    m = len(f) - 1
    C = np.zeros((m, m), dtype=np.int64)
    C[1:, :-1] = np.eye(m - 1, dtype=np.int64)
    C[:, -1] = [(-c) % p for c in f[:-1]]
    return C


def _mat_pow(M: np.ndarray, e: int, p: int) -> np.ndarray:
    """M^e mod p for e >= 1; M may be a stack of shape (..., m, m)."""
    out = None
    while True:
        if e & 1:
            out = M if out is None else out @ M % p
        e >>= 1
        if not e:
            return out
        M = M @ M % p


def _reduce_mod(Y: np.ndarray, p: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """Y mod p in place, for float64 Y holding integers in [0, 2^53 - p).

    Y - p floor(Y / p) is exact there: with Y = k p + r, 0 <= r < p, the
    quotient k + r/p lies at least 1/p below k + 1, more than half an ulp
    of k + 1 because p (k + 1) <= Y + p < 2^53, so the correctly rounded
    Y / p floors to k.  (np.fmod is exact too, but several times slower.)
    `scratch`, of Y's shape, saves one temporary.
    """
    scratch = np.divide(Y, p, out=scratch)
    np.floor(scratch, out=scratch)
    scratch *= p
    Y -= scratch
    return Y


def _invertible(M: np.ndarray, p: int) -> bool:
    """Whether the square matrix M is invertible mod p, by Gaussian elimination."""
    M = M % p
    for c in range(len(M)):
        rows = np.flatnonzero(M[c:, c])
        if rows.size == 0:
            return False
        M[[c, c + rows[0]]] = M[[c + rows[0], c]]
        M[c] = M[c] * pow(int(M[c, c]), -1, p) % p
        M[c + 1 :] = (M[c + 1 :] - np.outer(M[c + 1 :, c], M[c])) % p
    return True


def _is_irreducible(f, p: int) -> bool:
    """Ben-Or test: monic f of degree m >= 1 has no factor of degree <= m/2.

    gcd(x^(p^i) - x, f) = 1 iff x^(p^i) - x is a unit mod f, iff its
    matrix C^(p^i) - C is invertible (C the companion matrix of f).
    """
    C = _companion(f, p)
    T = C
    for _ in range((len(f) - 1) // 2):
        T = _mat_pow(T, p, p)
        if not _invertible(T - C, p):
            return False
    return True


def _primitive_element(p: int, m: int, C: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """The least primitive g, coordinates (g_0, ..., g_{m-1}) read as the base-p code g_0 g_1 ..., and g(C).

    Codes go in stacks of _STACK; g is primitive iff g^((q-1)/r) != 1 for every prime r | q - 1.
    """
    n = p**m - 1
    exponents = [n // r for r in prime_factors(n)]
    eye = np.eye(m, dtype=np.int64)
    places = p ** np.arange(m - 1, -1, -1, dtype=np.int64)
    for start in range(1, n + 1, _STACK):  # code 0 is zero
        coords = np.arange(start, min(start + _STACK, n + 1), dtype=np.int64)[:, None] // places % p
        G = np.zeros((len(coords), m, m), dtype=np.int64)
        for g_j in coords.T[::-1]:  # Horner: g(C) = (...(g_{m-1} C + g_{m-2}) C + ...) + g_0
            G = (G @ C + g_j[:, None, None] * eye) % p
        primitive = np.ones(len(coords), dtype=bool)
        for e in exponents:
            primitive &= ~(_mat_pow(G, e, p) == eye).all(axis=(1, 2))
        if primitive.any():
            i = int(np.argmax(primitive))
            return tuple(coords[i].tolist()), G[i]
    raise RuntimeError("no primitive element found")  # unreachable for a field


def poly_str(coeffs) -> str:
    """Render a GF(p) polynomial, descending powers: 'x^2+4x+1'."""
    coeffs = np.asarray(coeffs)
    exponents = np.flatnonzero(coeffs)[::-1]
    terms = []
    for i, c in zip(exponents.tolist(), coeffs[exponents].tolist()):
        if i == 0:
            terms.append(str(c))
        else:
            var = "x" if i == 1 else f"x^{i}"
            terms.append(var if c == 1 else f"{c}{var}")
    return "+".join(terms) if terms else "0"


def canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p).

    Coefficient tuples (c0, ..., c_{m-1}) are compared constant term first;
    the returned tuple includes the leading 1.
    """
    if m == 1:
        return (0, 1)  # x itself: the smallest monic linear, trivially irreducible
    for c0 in range(1, p):  # zero constant term would make x a factor
        for tail in product(range(p), repeat=m - 1):
            f = [c0, *tail, 1]
            if _is_irreducible(f, p):
                return tuple(f)
    raise RuntimeError(f"no irreducible of degree {m} over GF({p})")  # unreachable


def check_field(p: int, m: int) -> None:
    """Raise ValueError unless p is an odd prime and m a positive integer."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if p == 2:
        raise ValueError("p must be an odd prime")
    if m < 1:
        raise ValueError(f"m = {m} must be a positive integer")


def bounded_field_order(p: int, m: int) -> int:
    """q = p^m after `check_field` and a check that q is within FIELD_SIZE_BOUND."""
    check_field(p, m)
    if m * p.bit_length() > 300:  # then p^m >= 2^150: neither formed nor printed
        raise ValueError(f"q = p^m = {p}^{m} exceeds the size bound {FIELD_SIZE_BOUND}")
    q = p**m
    if q > FIELD_SIZE_BOUND:
        raise ValueError(f"q = p^m = {q} exceeds the size bound {FIELD_SIZE_BOUND}")
    return q


class FieldCtx:
    """A concrete GF(p^m): canonical modulus and generator, and the Zech table.

    `alpha` is the generator's coordinate tuple, constant first, as
    `modulus` is the modulus's.  zech_table[t] is the log of 1 - alpha^t
    (-1 at t = 0, where 1 - alpha^t = 0), and log4 is the log of 4.
    Immutable after construction; all operations are pure, so a context is
    safe to share across threads.
    """

    def __init__(self, p: int, m: int):
        q = bounded_field_order(p, m)
        self.p = p
        self.m = m
        self.q = q
        self.modulus = canonical_modulus(p, m)
        self.alpha, A = _primitive_element(p, m, _companion(self.modulus, p))
        self._build_tables(A)

    def _build_tables(self, A: np.ndarray) -> None:
        """zech_table and log4 from A, the matrix of multiplication by alpha.

        The columns of X are the coordinates of alpha^t for one block of t,
        and a giant step X <- A^block X mod p moves to the next block.  The
        matrix products run in float64 (BLAS), which is exact: entries lie
        in [0, p), so every partial sum of a dot product is an integer of at
        most m (p - 1)^2, and that plus p stays below 2^53 for every field up
        to FIELD_SIZE_BOUND (a test pins this), as `_reduce_mod` needs to
        bring the products back into [0, p).  The code of an element, below
        q, is sum c_i p^i over its coordinates c_i; a discrete log table,
        dlog[code of alpha^t] = t, lives only while the context is built.

        The Zech logarithm zech[t] = dlog(1 - alpha^t) needs no second pass
        over the coordinates: -1 = alpha^(n/2), so 1 - alpha^t is
        alpha^(n/2) (alpha^t - 1), and alpha^t - 1 differs from alpha^t only
        in the constant coordinate c0.  Its code is that of alpha^t minus 1,
        or plus p - 1 when c0 = 0; then zech[t] = dlog[that code] + n/2 mod
        n, and zech[0] = -1.  A constant c has the code c mod p, so log4 is
        dlog[4 mod p].  Both tables are int32: a code is below q + p and a
        log plus n/2 below 3n/2, under 2^31 for every q up to FIELD_SIZE_BOUND.
        """
        p, m, q = self.p, self.m, self.q
        n = q - 1
        block = min(_BLOCK, n)
        # Columns 0..block-1 hold alpha^t, built by doubling: X = [X | A^w X]
        # with w the current width.  When n > block, block = _BLOCK is a power
        # of two, so the last A^w is A^block, the giant step between blocks.
        X = np.zeros((m, 1))
        X[0, 0] = 1
        step = A.astype(np.float64)
        while X.shape[1] < block:
            X = np.hstack([X, _reduce_mod(step @ X[:, : block - X.shape[1]], p)])
            step = _reduce_mod(step @ step, p)

        pow_p = p ** np.arange(m, dtype=np.float64)
        zech = np.empty(n, dtype=np.int32)  # the code of alpha^t - 1 until dlog is known
        dlog = np.full(q, -1, dtype=np.int32)
        codes = np.empty(block)
        next_X = np.empty_like(X)
        scratch = np.empty_like(X)

        start = 0
        while start < n:
            width = min(block, n - start)
            np.matmul(pow_p, X, out=codes)
            dlog[codes[:width].astype(np.int64)] = np.arange(start, start + width, dtype=np.int32)
            codes += p * (X[0] == 0) - 1
            zech[start : start + width] = codes[:width]
            start += width
            if start < n:
                _reduce_mod(np.matmul(step, X, out=next_X), p, scratch)
                X, next_X = next_X, X

        if np.count_nonzero(dlog < 0) != 1 or dlog[0] != -1:
            raise RuntimeError("the powers of alpha are not a bijection; element is not primitive")

        for start in range(0, n, block):
            zech[start : start + block] = dlog[zech[start : start + block]]
        zech += n // 2
        zech %= n
        zech[0] = -1  # 1 - alpha^0 = 0
        zech.setflags(write=False)
        self.zech_table = zech
        self.log4 = int(dlog[4 % p])

    def describe(self) -> dict:
        """Echo of the deterministic choices, embedded in every report."""
        return {
            "p": self.p,
            "m": self.m,
            "q": self.q,
            "modulus": poly_str(self.modulus),
            "alpha": poly_str(self.alpha),
        }

    def __repr__(self) -> str:
        return f"FieldCtx({', '.join(f'{key}={value}' for key, value in self.describe().items())})"


def build_field(p: int, m: int) -> FieldCtx:
    """Construct GF(p^m) with the canonical modulus and primitive element."""
    return FieldCtx(p, m)
