"""Polynomial arithmetic over GF(2): the factored gcd with x^v + 1.

Polynomials are bit-packed Python ints: bit i is the coefficient of x^i.
Addition is xor, squaring is a byte-table bit spread, and remainders come
from long division that feeds a long dividend into a short running
remainder a window at a time, so a remainder costs about
deg(dividend) * deg(divisor) / 64 word operations.  Euclid (`_gcd_int`)
runs that xor-and-shift loop inline, step after step, and calls the
windowed division only when a degree gap exceeds the window.

The linear-complexity gcd, gcd(x^v + 1, s), is never built as one
polynomial: `gcd_factors` returns its irreducible factors with their
multiplicities, one cyclotomic factor of x^v + 1 at a time.  With
v = 2^e * w and w odd, x^w + 1 is the product of the pairwise coprime
Phi_d mod 2 over d | w.  Each Phi_d is a Moebius product of binomials
x^c + 1, built and divided out by shifts and strided prefix xors
(`_times_binomials`); s is reduced mod Phi_d through
Psi_d = (x^d + 1)/Phi_d, with no long division.  Then one step,
`gcd_cyclotomic`, finds G_d = gcd(Phi_d, s mod Phi_d) on degree phi(d),
which costs the sum of phi(d)^2 rather than w^2, the same when w is
prime.  The criterion of `slce.cyclotomic` takes the same step with
Phi_k.  Its caller names a multiplier p with r(x^p) = r(x) mod Phi_d (for
an SLCE sequence, and for the parity of (K + 1)/2, p is the
characteristic; 1 suits any r).  From one size threshold on phi(d), a
certificate may settle G_d = 1 by doubling, with O(log t') float-FFT
products, t' the number of <2, p>-orbits of (Z/d)*; for t' = 1 it needs no
product, as G_d = 1 iff r != 0 (`_multiplier_certificate`).  For the
sequence the certificate also tries -1, by the reciprocal law
S2(x^-1) = S2(x) + [q = 3 mod 4] mod Phi_d: at q = 1 mod 4, -1 joins
<2, p> and may halve t'; at q = 3 mod 4 with -1 in <2, p>, G_d = 1 with
no product.  Euclid runs whenever the certificate does not show G_d = 1.
The factors of G_d are those of Phi_d that divide it; Phi_d is split once,
by sums of x^j over 2-cyclotomic cosets (`ideal_factors`, cached, the
criterion's prime ideals above 2 too); the power 2^e enters only through
each factor's multiplicity.

Degree of the zero polynomial is the sentinel -1; nonzero polynomials over
GF(2) are automatically monic.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fields import divisors, mobius_factors, multiplicative_order, poly_str, prime_factors

# byte -> bits interleaved with zeros (for squaring)
_SPREAD = [sum(((b >> i) & 1) << (2 * i) for i in range(8)) for b in range(256)]
_SPREAD_LO = bytes(w & 0xFF for w in _SPREAD)
_SPREAD_HI = bytes(w >> 8 for w in _SPREAD)


def _sqr_int(a: int) -> int:
    # Frobenius: byte i of a spreads to bytes 2i and 2i + 1 of a^2
    buf = a.to_bytes((a.bit_length() + 7) // 8, "little")
    out = bytearray(2 * len(buf))
    out[0::2] = buf.translate(_SPREAD_LO)
    out[1::2] = buf.translate(_SPREAD_HI)
    return int.from_bytes(out, "little")


def _divmod_int(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = b.bit_length() - 1
    q = 0
    da = a.bit_length() - 1
    while da >= db:
        q |= 1 << (da - db)
        a ^= b << (da - db)
        da = a.bit_length() - 1
    return q, a


_WINDOW = 128  # bits of the dividend brought into the running remainder at a time


def _mod_int(a: int, b: int) -> int:
    """a mod b by long division.

    A long dividend is consumed from the top, _WINDOW bits at a time, into
    a running remainder of degree < deg b + _WINDOW, so each aligned xor
    touches deg b + _WINDOW bits rather than the whole of a.
    """
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = b.bit_length() - 1
    da = a.bit_length() - 1
    step = _WINDOW // 8
    lo = 0
    if da - db > _WINDOW:
        buf = a.to_bytes(da // 8 + 1, "little")
        lo = (len(buf) - 1) // step * step
        a = int.from_bytes(buf[lo:], "little")
    while True:
        da = a.bit_length() - 1
        while da >= db:
            a ^= b << (da - db)
            da = a.bit_length() - 1
        if lo == 0:
            return a
        lo -= step
        a = (a << _WINDOW) | int.from_bytes(buf[lo : lo + step], "little")


def _gcd_int(a: int, b: int) -> int:
    """Euclid; each remainder is long division in place, windowed when the degree gap is wide."""
    while b:
        db = b.bit_length()
        da = a.bit_length()
        if da - db > _WINDOW:
            a = _mod_int(a, b)
        else:
            while da >= db:
                a ^= b << (da - db)
                da = a.bit_length()
        a, b = b, a
    return a


def _fold(a: int, w: int) -> int:
    """a mod (x^w + 1): the xor of a's w-bit slices, halving a per round."""
    n = a.bit_length()
    while n > w:
        half = w
        while 2 * half < n:
            half *= 2
        a = (a & ((1 << half) - 1)) ^ (a >> half)  # x^half = 1 mod x^w + 1
        n = a.bit_length()
    return a


def _times_binomials(a: int, factors) -> int:
    """a * prod (x^c + 1)^e over (c, e) in factors, e = +-1; multiplications first.

    Multiplying by x^c + 1 is a ^ (a << c).  Dividing by it exactly is a
    stride-c prefix xor, a * (1 + x^c + x^2c + ...) cut to deg a + 1 bits,
    whose top c bits must then be zero: about log(deg a / c) big-int
    operations.  Multiplying first keeps every partial result a polynomial;
    a division that is not exact raises ArithmeticError.
    """
    for c, e in sorted(factors, key=lambda f: -f[1]):
        if e > 0:
            a ^= a << c
            continue
        n = a.bit_length()
        mask = (1 << n) - 1
        step = c
        while step < n:
            a = (a ^ (a << step)) & mask
            step <<= 1
        if a >> max(n - c, 0):
            raise ArithmeticError(f"x^{c} + 1 does not divide the partial product")
    return a


@lru_cache(maxsize=None)
def _cyclotomic_plan(d: int) -> tuple[int, tuple, tuple]:
    """(Phi_d mod 2, Psi_d, 1/Psi_d), the last two as Moebius factors; Psi_d = (x^d + 1)/Phi_d."""
    factors = mobius_factors(d)
    psi = tuple((c, -e) for c, e in factors if c != d)
    return _times_binomials(1, factors), psi, tuple((c, -e) for c, e in psi)


def cyclotomic_mod2(d: int) -> int:
    """The d-th cyclotomic polynomial mod 2, a Moebius product of the x^c + 1 over c | d."""
    return _cyclotomic_plan(d)[0]


def _mod_cyclotomic(f: int, d: int) -> int:
    """f mod Phi_d without long division.

    With Psi_d = (x^d + 1)/Phi_d, (f mod Phi_d) * Psi_d has degree < d and
    equals f * Psi_d mod (x^d + 1): fold f mod x^d + 1, multiply by Psi_d,
    fold again and divide by Psi_d exactly (`_times_binomials`).
    """
    _, psi, inverse = _cyclotomic_plan(d)
    return _times_binomials(_fold(_times_binomials(_fold(f, d), psi), d), inverse)


# ---------------------------------------------------------------------------
# Factorization of Phi_n mod 2, n odd: split by the idempotents of binary
# cyclic codes, the sums of x^j over the 2-cyclotomic cosets of Z/n.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def ideal_factors(n: int) -> tuple[int, ...]:
    """The irreducible factors g of Phi_n mod 2, n odd, sorted.

    Each names the prime ideal (2, g(zeta_n)) above 2 in Z[zeta_n], whose
    residue field GF(2)[x]/(g) has order 2^f with f = deg g = ord_n(2);
    zeta_n maps to x, an element of order n whose minimal polynomial is g.
    For each 2-cyclotomic coset C of Z/n, e_C = sum of x^j over j in C
    satisfies e_C^2 = e_C mod x^n + 1; these are the idempotents of binary
    cyclic codes (MacWilliams and Sloane, ch. 8), and they span Berlekamp's
    algebra of every divisor of x^n + 1.  So splitting each piece by
    gcd(piece, e_C mod piece), over the cosets C != {0} in turn, separates
    every factor.  Each e_C is set in a byte buffer and read as one int:
    or-ing each 1 << j into a growing int would cost O(n) per bit of a
    long coset.
    """
    f = multiplicative_order(2, n)
    pieces = [cyclotomic_mod2(n)]
    count = (pieces[0].bit_length() - 1) // f
    seen = bytearray(n)
    seen[0] = 1
    for c in range(1, n):
        if len(pieces) == count:
            break
        if seen[c]:
            continue
        buf = bytearray((n + 7) // 8)
        j = c
        while not seen[j]:
            seen[j] = 1
            buf[j >> 3] |= 1 << (j & 7)
            j = 2 * j % n
        e_c = int.from_bytes(buf, "little")
        split = []
        for piece in pieces:
            g = _gcd_int(piece, _mod_int(e_c, piece)) if piece.bit_length() - 1 > f else piece
            split += [piece] if g in (1, piece) else [g, _divmod_int(piece, g)[0]]
        pieces = split
    if len(pieces) != count:
        raise RuntimeError(f"the cyclotomic cosets of Z/{n} did not separate the factors")
    return tuple(sorted(pieces))


# ---------------------------------------------------------------------------
# A multiplier certificate for gcd(Phi_d, r) = 1.  Let r(x^p) = r(x) mod
# Phi_d with p prime to d, and beta a root of Phi_d.  Then r(beta^(pj)) =
# r(beta^j) and r(beta^(2j)) = r(beta^j)^2, so the zeros of r among the
# roots beta^j, j in (Z/d)*, form a union of orbits of <2, p>.  Multiplying
# j by a unit permutes the orbits, so N = prod r(x^a), over one a per orbit,
# vanishes at every root of Phi_d or at none: gcd(Phi_d, r) = 1 exactly when
# N mod Phi_d != 0.  N is formed by doubling, over subgroups H >= <2, p>
# grown one cyclic step at a time.  A unit a with r(x^a) = r(x) + 1 instead
# maps the zeros to roots where r is 1, so if a lies in H there is no zero;
# the SLCE sequence polynomial has a = -1 either way, from K conj(K) = q.
# Each r(x^c) is an index gather and each product one float FFT of 0/1
# arrays, whose exact coefficients are at most d (below 2^21 for every
# field the CLI builds, far inside float64's 2^53).
# ---------------------------------------------------------------------------


def _coefficients(a: int, n: int) -> np.ndarray:
    """Coefficients 0 .. n - 1 of a as a uint8 array; a has degree < n."""
    packed = np.frombuffer(a.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little")


def _from_coefficients(coeffs: np.ndarray) -> int:
    """The polynomial whose coefficients, constant first, are the 0/1 entries of coeffs."""
    packed = np.packbits(np.asarray(coeffs, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _smooth_length(n: int) -> int:
    """The least 2^i 3^j 5^k >= n: an FFT length numpy transforms by small radices."""
    best = 1 << (n - 1).bit_length()
    fives = 1
    while fives < best:
        odd = fives
        while odd < best:
            length = odd << ((n - 1) // odd).bit_length()  # least odd * 2^i >= n
            best = min(best, length)
            odd *= 3
        fives *= 5
    return best


def _convolve(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The linear convolution of a and b as n floats, n >= len(a) + len(b) - 1."""
    spectrum = np.fft.rfft(a, n)
    spectrum *= np.fft.rfft(b, n)
    return np.fft.irfft(spectrum, n)


def _product_mod2(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray | None:
    """a * b mod (x^d + 1) over GF(2), for 0/1 arrays of length d; None if the floats are not near integers."""
    product = _convolve(a, b, _smooth_length(2 * d - 1))[: 2 * d - 1]
    exact = np.rint(product)
    if np.abs(product - exact).max() >= 0.25:  # the largest error seen is about 1e-10
        return None
    del product
    coeffs = exact.astype(np.int64)
    del exact
    coeffs[: d - 1] += coeffs[d:]  # x^d = 1
    return (coeffs[:d] & 1).astype(np.uint8)


def _adjoin(members: np.ndarray, a: int, d: int) -> np.ndarray:
    """a^0 .. a^(t - 1) mod d, t the least with a^t in H, the subgroup of (Z/d)* members marks; marks <H, a>."""
    powers = np.ones(1, dtype=np.int64)
    while not members[powers[1:]].any():  # a^(n + i) = a^n a^i
        powers = np.concatenate([powers, powers * pow(a, powers.size, d) % d])
    powers = powers[: 1 + np.argmax(members[powers[1:]])]
    members[(powers[:, None] * np.flatnonzero(members) % d).ravel()] = True  # <H, a>: the cosets a^i H
    return powers


def _power_product(f: np.ndarray, powers: np.ndarray, d: int) -> np.ndarray | None:
    """prod f(x^(1/a^i)) mod x^d + 1 over i < t, powers = a^0 .. a^(t - 1) mod d; None as `_product_mod2`."""
    index = np.arange(d, dtype=np.int64)  # g[index * c % d] is g(x^(1/c)) mod x^d + 1
    product, t = f, powers.size  # R(n), the product over i < n, for n the leading bits of t
    for shift in range(t.bit_length() - 2, -1, -1):
        product = _product_mod2(product, product[index * powers[t >> (shift + 1)] % d], d)  # R(2n)
        if product is not None and t >> shift & 1:
            product = _product_mod2(f, product[index * powers[1] % d], d)  # R(n + 1)
        if product is None:
            return None
    return product


def _multiplier_certificate(r: int, d: int, p: int, *tried: int) -> bool | None:
    """Whether gcd(Phi_d, r) = 1, r of degree < d, from the multiplier p, prime to d > 1.

    Each further a in `tried` (`gcd_factors` tries -1) joins H when
    r(x^a) = r(x) mod Phi_d.  When r(x^a) = r(x) + 1 and a lies in H, the
    gcd is 1 with no product: a zero beta would have r(beta^a) = 0, as the
    zeros are a union of orbits, and r(beta^a) = 1.  None when it cannot
    tell: r(x^p) != r(x) mod Phi_d, or a float product is not near integers.
    """
    coeffs = _coefficients(r, d)
    index = np.arange(d, dtype=np.int64)
    reduced = _mod_cyclotomic(r, d)
    # the gather is r(x^(1/a)) mod x^d + 1, equal to r mod Phi_d exactly when r(x^a) is
    images = {a: _mod_cyclotomic(_from_coefficients(coeffs[index * (a % d) % d]), d) for a in (p, *tried)}
    if images[p] != reduced:
        return None
    units = np.ones(d, dtype=bool)
    for ell in prime_factors(d):
        units[::ell] = False
    members = index == 1
    for a in (2, p, *(a for a in tried if images[a] == reduced)):  # H: its cosets are the orbits
        _adjoin(members, a % d, d)
    if any(images[a] == reduced ^ 1 and members[a % d] for a in tried):
        return True
    product = coeffs  # over one a per orbit in H, then in <H, a> for the least unit a outside H
    while product is not None and (outside := units & ~members).any():
        product = _power_product(product, _adjoin(members, int(np.argmax(outside)), d), d)
    return None if product is None else _mod_cyclotomic(_from_coefficients(product), d) != 0


# gcd_cyclotomic tries the certificate from this phi(d) on.  Timed best of 3
# on a 2-core x86-64 (Python 3.11, numpy 2.4) over 599 calls with phi(d) in
# [4000, 40000], Euclid and the certificate broke even between 8,192 and
# 10,000 (205 against 214 ms summed); the certificate won in every band above.
_CERTIFICATE_DEGREE = 10_000


def gcd_cyclotomic(d: int, r: int, multiplier: int, *tried: int) -> int:
    """gcd(Phi_d mod 2, r) for r reduced mod Phi_d and a multiplier p of r: r(x^p) = r(x) mod Phi_d.

    For r != 0, p prime to d and phi(d) >= _CERTIFICATE_DEGREE, the multiplier certificate,
    which also tries each unit in `tried`, may show that the gcd is 1; Euclid decides the
    rest.  Every r has the multiplier 1.
    """
    phi_d = cyclotomic_mod2(d)
    big = phi_d.bit_length() - 1 >= _CERTIFICATE_DEGREE
    if r and big and math.gcd(multiplier, d) == 1 and _multiplier_certificate(r, d, multiplier, *tried):
        return 1
    return _gcd_int(phi_d, r)


def gcd_factors(v: int, s: int, multiplier: int) -> list[tuple[int, int]]:
    """gcd(x^v + 1, s) as (irreducible, multiplicity) pairs, sorted by the irreducible.

    Sorting the bit-packed irreducibles as ints sorts them by degree, then
    by bit pattern.  With v = 2^e * w and w odd, x^v + 1 = (x^w + 1)^(2^e),
    and x^w + 1 is the product of the Phi_d mod 2 over d | w, squarefree
    and pairwise coprime.  So the factors of the gcd whose roots have order
    d are those of G_d = gcd(Phi_d, s mod Phi_d): one `gcd_cyclotomic` on
    degree phi(d), after a reduction through Psi_d (`_mod_cyclotomic`): the
    h of `ideal_factors(d)` that divide G_d.  Each such h enters the gcd
    min(2^e, nu_h(s)) times, which is deg gcd(h^(2^e), s mod h^(2^e)) /
    deg h; h^(2^e) divides x^(d 2^e) + 1, so s may first be folded mod that
    binomial.  s = 0 gives the factorization of x^v + 1.

    The multiplier p has s(x^p) = s(x) mod x^v + 1 (the SLCE support set is
    fixed by t -> p t; 1 suits any s), so each s mod Phi_d has it too.  The
    certificate also tries -1: for an SLCE sequence, s(x^-1) = s(x) +
    [q = 3 mod 4] mod Phi_d for every d > 1, from K conj(K) = q (the
    criterion, which reads K itself, keeps p alone).
    """
    e = (v & -v).bit_length() - 1
    w = v >> e
    f = _fold(s, w)
    found = []
    for d in divisors(w):
        g = gcd_cyclotomic(d, _mod_cyclotomic(f, d), multiplier, -1)
        if g == 1:
            continue
        folded = _fold(s, d << e)
        for h in ideal_factors(d):
            if _mod_int(g, h):  # h divides Phi_d, so h | s exactly when h | G_d
                continue
            top = h
            for _ in range(e):
                top = _sqr_int(top)
            shared = _gcd_int(top, _mod_int(folded, top))
            found.append((h, (shared.bit_length() - 1) // (h.bit_length() - 1)))
    return sorted(found)


def to_str(g: int) -> str:
    """g with descending powers, as `fields.poly_str` prints it: 'x^3+x+1'; '0' for zero."""
    return poly_str(_coefficients(g, g.bit_length()))


def factored_str(factors: list[tuple[int, int]]) -> str:
    """Canonical rendering: '(x+1)^4 (x^2+x+1)^10'; '1' for an empty product."""
    if not factors:
        return "1"
    parts = []
    for g, e in factors:
        parts.append(f"({to_str(g)})" + (f"^{e}" if e != 1 else ""))
    return " ".join(parts)
