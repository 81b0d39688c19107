"""Explicit finite fields GF(p^m) with full exponent and discrete-log tables.

A field context is deterministic: the modulus is the lexicographically
smallest monic irreducible of its degree (coefficient tuple ordered
constant term first) and the generator is the lexicographically smallest
primitive element under the same ordering.  Every report downstream echoes
both, so results are reproducible bit for bit.

The full tables (alpha^t by exponent, discrete log by element, the log of
1 - alpha^t, and the trace of alpha^t) turn character sums and sequence
constructions into O(q) array lookups.  Intended scale is q up to a few
million; memory is four int32 arrays of length q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_MAX_Q = 2_000_000

_BLOCK = 4096  # columns per giant step; a power of two (see _build_tables)


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


def prime_factors(n: int, bound: int | None = None) -> list[int]:
    """Sorted list of the distinct prime factors of n >= 1, by trial division.

    With a bound, trial division stops at the first divisor d above it: a
    cofactor of at least d^2 left then raises ValueError, and a smaller one
    is prime, so a returned list is always exact.
    """
    out = []
    d = 2
    while d * d <= n:
        if bound is not None and d > bound:
            raise ValueError(f"trial division to {bound} leaves a cofactor of {n.bit_length()} bits")
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def divisors(n: int, bound: int | None = None) -> list[int]:
    """Sorted list of the divisors of n >= 1; bound as for prime_factors."""
    out = [1]
    for r in prime_factors(n, bound):
        powers = [1]
        while n % (powers[-1] * r) == 0:
            powers.append(powers[-1] * r)
        out = [d * s for d in out for s in powers]
    return sorted(out)


def euler_phi(n: int) -> int:
    out = n
    for r in prime_factors(n):
        out -= out // r
    return out


def multiplicative_order(a: int, n: int) -> int:
    """Order of a modulo n; requires gcd(a, n) = 1."""
    import math

    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    order = euler_phi(n)
    for r in prime_factors(order):
        while order % r == 0 and pow(a, order // r, n) == 1:
            order //= r
    return order


# ---------------------------------------------------------------------------
# Dense polynomial arithmetic over GF(p).  Coefficient lists, constant first,
# trailing zeros trimmed.  Only what the field construction needs.
# ---------------------------------------------------------------------------


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: list[int], f: list[int], p: int) -> list[int]:
    a = list(a)
    n = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    while len(a) - 1 >= n:
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - n
        if c:
            for i, fi in enumerate(f):
                a[shift + i] = (a[shift + i] - c * fi) % p
        a.pop()
        _ptrim(a)
        if not a:
            break
    return a


def _pmulmod(a, b, f, p):
    return _pmod(_pmul(a, b, p), f, p)


def _ppowmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(a, f, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return result


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def _psub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _ptrim([(x - y) % p for x, y in zip(a, b)])


def _is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or test: monic f of degree m has no factor of degree <= m/2."""
    m = len(f) - 1
    if m < 1:
        return False
    if m == 1:
        return True
    x_red = _pmod([0, 1], f, p)
    t = x_red
    for _ in range(m // 2):
        t = _ppowmod(t, p, f, p)
        if len(_pgcd(_psub(t, x_red, p), f, p)) - 1 != 0:
            return False
    return True


def poly_str(coeffs) -> str:
    """Render a GF(p) polynomial, descending powers: 'x^2+4x+1'."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
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
    from itertools import product

    if m == 1:
        return (0, 1)  # x itself: the smallest monic linear, trivially irreducible
    for c0 in range(1, p):  # zero constant term would make x a factor
        for tail in product(range(p), repeat=m - 1):
            f = [c0, *tail, 1]
            if _is_irreducible(f, p):
                return tuple(f)
    raise RuntimeError(f"no irreducible of degree {m} over GF({p})")  # unreachable


def field_order(p: int, m: int) -> int:
    """q = p^m after checking that p is an odd prime and m a positive integer."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if p == 2:
        raise ValueError("p must be an odd prime")
    if m < 1:
        raise ValueError(f"m = {m} must be a positive integer")
    return p**m


@dataclass(frozen=True)
class FieldElt:
    """Field element as coordinates in the power basis of the modulus."""

    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self) -> str:
        return poly_str(self.coeffs)


class FieldCtx:
    """A concrete GF(p^m) with canonical modulus, generator and log tables.

    Immutable after construction; all operations are pure, so a context is
    safe to share across threads.
    """

    def __init__(self, p: int, m: int, max_q: int = DEFAULT_MAX_Q):
        q = field_order(p, m)
        if q > max_q:
            raise ValueError(f"q = p^m = {q} exceeds the size bound {max_q}")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = canonical_modulus(p, m)
        self._q_minus_1_primes = prime_factors(q - 1)
        alpha = self._find_primitive()
        self.alpha = FieldElt(alpha)
        self._trace_basis = self._compute_trace_basis()
        self._build_tables(alpha)

    # -- construction helpers -------------------------------------------------

    def _elt_mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        prod = _pmulmod(list(a), list(b), list(self.modulus), self.p)
        return tuple(prod + [0] * (self.m - len(prod)))

    def _elt_pow(self, a: tuple[int, ...], e: int) -> tuple[int, ...]:
        r = _ppowmod(list(a), e, list(self.modulus), self.p)
        return tuple(r + [0] * (self.m - len(r)))

    def _find_primitive(self) -> tuple[int, ...]:
        from itertools import product

        one = (1,) + (0,) * (self.m - 1)
        n = self.q - 1
        for cand in product(range(self.p), repeat=self.m):
            # product() yields coefficient tuples in lexicographic order,
            # constant term most significant, matching the modulus ordering.
            if not any(cand):
                continue
            if all(self._elt_pow(cand, n // r) != one for r in self._q_minus_1_primes):
                return cand
        raise RuntimeError("no primitive element found")  # unreachable for a field

    def _compute_trace_basis(self) -> np.ndarray:
        # trace(x^i) for each power-basis monomial; trace is GF(p)-linear.
        f = list(self.modulus)
        vals = []
        for i in range(self.m):
            acc = [0]
            y = _pmod([0] * i + [1], f, self.p)
            t = y
            for _ in range(self.m):
                acc = _ptrim([(a + b) % self.p for a, b in zip(acc + [0] * len(t), t + [0] * len(acc))])
                t = _ppowmod(t, self.p, f, self.p)
            if len(acc) > 1:
                raise RuntimeError("trace of a basis monomial is not scalar")
            vals.append(acc[0] if acc else 0)
        return np.array(vals, dtype=np.int64)

    def _mul_by_alpha_matrix(self) -> np.ndarray:
        cols = []
        a = tuple(self.alpha.coeffs)
        for i in range(self.m):
            basis = tuple(1 if j == i else 0 for j in range(self.m))
            cols.append(self._elt_mul(a, basis))
        return np.array(cols, dtype=np.int64).T  # column i = alpha * x^i

    def _build_tables(self, alpha: tuple[int, ...]) -> None:
        p, m, q = self.p, self.m, self.q
        n = q - 1
        A = self._mul_by_alpha_matrix()
        block = min(_BLOCK, n)
        # Columns 0..block-1 hold alpha^t, built by doubling: X = [X | A^w X]
        # with w the current width.  When n > block, block = _BLOCK is a power
        # of two, so the last A^w is A^block, the giant step between blocks.
        X = np.zeros((m, 1), dtype=np.int64)
        X[0, 0] = 1
        step = A
        while X.shape[1] < block:
            X = np.hstack([X, (step @ X[:, : block - X.shape[1]]) % p])
            step = (step @ step) % p

        pow_p = p ** np.arange(m, dtype=np.int64)
        exp = np.empty(n, dtype=np.int64)
        one_minus_code = np.empty(n, dtype=np.int64)
        tr = np.empty(n, dtype=np.int64)

        start = 0
        while start < n:
            width = min(block, n - start)
            Xb = X[:, :width]
            exp[start : start + width] = pow_p @ Xb
            Y = (-Xb) % p
            Y[0, :] = (1 - Xb[0, :]) % p
            one_minus_code[start : start + width] = pow_p @ Y
            tr[start : start + width] = (self._trace_basis @ Xb) % p
            start += width
            if start < n:
                X = (step @ X) % p

        dlog = np.full(q, -1, dtype=np.int64)
        dlog[exp] = np.arange(n, dtype=np.int64)
        if int((dlog >= 0).sum()) != n or dlog[0] != -1:
            raise RuntimeError("exponent table is not a bijection; element is not primitive")

        self.exp_table = exp
        self.dlog_table = dlog
        self.zech_table = dlog[one_minus_code]  # dlog(1 - alpha^t); -1 at t = 0
        self.trace_table = tr
        for arr in (self.exp_table, self.dlog_table, self.zech_table, self.trace_table):
            arr.setflags(write=False)

    # -- element encoding ------------------------------------------------------

    def encode(self, x: FieldElt) -> int:
        code = 0
        for c in reversed(x.coeffs):
            code = code * self.p + c
        return code

    def decode(self, code: int) -> FieldElt:
        cs = []
        for _ in range(self.m):
            code, c = divmod(code, self.p)
            cs.append(c)
        return FieldElt(tuple(cs))

    def zero(self) -> FieldElt:
        return FieldElt((0,) * self.m)

    def one(self) -> FieldElt:
        return FieldElt((1,) + (0,) * (self.m - 1))

    def from_int(self, c: int) -> FieldElt:
        """The constant c, i.e. the image of the integer c in the field."""
        return FieldElt((c % self.p,) + (0,) * (self.m - 1))

    def describe(self) -> dict:
        """Echo of the deterministic choices, embedded in every report."""
        return {
            "p": self.p,
            "m": self.m,
            "q": self.q,
            "modulus": poly_str(self.modulus),
            "alpha": str(self.alpha),
        }

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, m={self.m}, q={self.q}, modulus={poly_str(self.modulus)}, alpha={self.alpha})"


def build_field(p: int, m: int, max_q: int = DEFAULT_MAX_Q) -> FieldCtx:
    """Construct GF(p^m) with the canonical modulus and primitive element."""
    return FieldCtx(p, m, max_q=max_q)
