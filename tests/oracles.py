"""Reference implementations that the tests compare the package against.

The coset construction builds the factors of Phi_k mod 2 as minimal
polynomials of the powers of an element of order k inside an explicit
GF(2^f), f = ord_k(2), without factoring anything.  It is the oracle of
`slce.gf2poly.ideal_factors`.

`berlekamp_factor` factors any polynomial over GF(2): a squarefree split by
derivatives and square roots, then Berlekamp's Q-matrix method on each
squarefree part.  It is the oracle of `slce.gf2poly.gcd_factors` and
`ideal_factors`, which factor only Phi_n mod 2, n odd, by splitting with
the cyclotomic-coset idempotents.

`gcd_by_divmod` is textbook Euclid on `_divmod_int` alone, the oracle of
`_gcd_int` and of the factored gcd with x^v + 1.  `multiplier_group` finds
<2, p> (or <2, p, -1>) in (Z/d)* by search, the oracle of the group the
multiplier certificate builds by cyclic steps (`gf2poly._adjoin`).
`divides` tests g | s by one remainder against the whole of s; the CLI
reads the same answer off the factors of gcd(x^v + 1, s).
`linear_complexity` (one Euclid with all of x^v + 1, `poly_from_seq` the
sequence polynomial) and Berlekamp-Massey give the linear complexity two
ways, from the gcd and from the shortest register.

`tables_by_int64` builds the exp, dlog and Zech tables with int64 giant
steps and a second coordinate pass for 1 - alpha^t, the oracle of
`slce.fields.FieldCtx._build_tables`, which keeps only the Zech table and
the log of 4.  `exp_dlog` gives the tests the exponent and log tables of
a context from it, cached on (p, m).  `bits_by_mark` builds the sequence
by marking the codes of D = {alpha^(2i+1) - 1} and looking up each
alpha^t, the oracle of `slce.sequences.generate`, which reads the parity
of the Zech table.  `support_set`, the sets Y and Z, `lce_shift_check`
(Z = (-4)^(-1) D), pointwise `autocorrelation` and `decimate` check the
sequence's structure.

The package keeps a `CycInt` as coordinates only; the element arithmetic
(`cyc_add`, `cyc_mul`, `cyc_conj`, `from_integer`, `zeta_power`,
`as_integer`, `embed`), Phi_k over Z (`cyclotomic_poly`), J(chi, rho) and
the congruence K + q = 0 mod 2(1 - zeta_k) (`check_eq3`) check the
paper's identities here.  `reduce_by_long_division` is the row-by-row
monic long division by Phi_k that `slce.cyclotomic._reduce` replaced;
`half_K_plus_one` and `reduce_mod_ideal` are the element-level path
through Z[zeta_k] that `slce.cyclotomic.criterion` replaced with one
packed array.

`predict_pure` and `predict_index2` call one regime function of
`slce.predict` after checking that regime's hypotheses themselves: the
least t with p^t = -1 (mod k) found by a scan, the order of p equal to 2t,
the subgroup index 2 and ell = 7 mod 8.  `closed_form_prediction` is the
oracle of the router `predict`: the prediction of whichever regime's
hypotheses hold, or NoClosedForm.  `closed_form_pure_K` and
`closed_form_index2_K` give K itself in closed form, for comparison with
the exact Jacobi sum.

The GF(p)[x] list arithmetic (coefficient lists, constant term first) is
the construction `slce.fields` replaced with the companion matrix of the
modulus: `is_irreducible_by_gcd` is Ben-Or's test by polynomial gcds and
`field_by_lists` finds the modulus, alpha and the matrix of multiplication
by alpha (`alpha_matrix`) with lists alone.  `trace` takes the trace of the
multiplication matrix, independent of the Frobenius sum in
`gaussnum._traces`.

The element operations (`encode`, `decode`, `zero`, `one`, `from_int`,
arithmetic, `dlog`, `trace`) act on one `FieldElt`, a coordinate tuple,
at a time through the `exp_dlog` tables of a context; the tests use them
to check the tables and the vectorised constructions built on them.
GF(2)[x] polynomials are bit-packed ints, as in `slce.gf2poly`; `mul_int`
multiplies them, which the package never needs to.

`grid_report` assembles the whole `grid` report in one process: one dict
of every field's block, encoded by one `json.dumps(report, indent=2)`, or
the CSV and text loops over the blocks.  It is the oracle of
`slce.cli.cmd_grid`, which writes blocks rendered in its workers one by one.
"""

import io
import json
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd as intgcd

import numpy as np

from slce import cyclotomic
from slce.cli import DIRECT_VERIFY_BOUND, _odd_prime_powers_upto, _verify_rows
from slce.cyclotomic import CycInt, _reduce, _require_valid_k, _times_mobius
from slce.fields import (
    FieldCtx,
    divisors,
    euler_phi,
    is_prime,
    mobius_factors,
    multiplicative_order,
    poly_str,
    prime_factors,
)
from slce.gf2poly import _divmod_int, _gcd_int, _mod_int, _sqr_int, to_str
from slce.predict import NoClosedForm, Prediction, index2, pure
from slce.sequences import BitSeq

# ---------------------------------------------------------------------------
# GF(2)[x]: Euclid, irreducibility, products, linear complexity.
# ---------------------------------------------------------------------------


def mul_int(a: int, b: int) -> int:
    """Product of bit-packed polynomials by shifted xors, one per set bit of the sparser factor."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    r = 0
    while a:
        low = a & -a
        r ^= b << (low.bit_length() - 1)
        a ^= low
    return r


def x_pow_plus_one(v: int) -> int:
    """x^v + 1."""
    return (1 << v) | 1


def poly_from_seq(seq) -> int:
    """Sequence polynomial: coefficient t equals bits[t] of one period."""
    return seq.as_int()


def divides(g: int, s: int) -> bool:
    """g | s, by one remainder of s against all of g."""
    return _mod_int(s, g) == 0


def gcd_by_divmod(a: int, b: int) -> int:
    """Euclid with a full quotient and remainder at every step."""
    while b:
        a, b = b, _divmod_int(a, b)[1]
    return a


def multiplier_group(d: int, p: int, *more: int) -> set[int]:
    """The subgroup <2, p, *more> of (Z/d)*, d odd and each generator prime to d.

    By search from 1 under j -> 2j, j -> pj and j -> aj for each a in more.
    """
    group, frontier = {1}, [1]
    while frontier:
        a = frontier.pop()
        for b in (g * a % d for g in (2, p, *more)):
            if b not in group:
                group.add(b)
                frontier.append(b)
    return group


def is_irreducible(f: int) -> bool:
    """Ben-Or test: no factor of degree <= degree/2."""
    d = f.bit_length() - 1
    if d < 1:
        return False
    if d == 1:
        return True
    t = _mod_int(2, f)  # the polynomial x
    for _ in range(d // 2):
        t = _mod_int(_sqr_int(t), f)
        if _gcd_int(t ^ 2, f) != 1:
            return False
    return True


def all_ones_poly(k: int) -> int:
    """1 + x + ... + x^(k-1)."""
    return (1 << k) - 1


def recombine(factors: list[tuple[int, int]]) -> int:
    out = 1
    for g, e in factors:
        for _ in range(e):
            out = mul_int(out, g)
    return out


def linear_complexity(seq) -> int:
    """v - deg gcd(x^v + 1, sequence polynomial); 0 for the zero sequence."""
    s2 = poly_from_seq(seq)
    if s2 == 0:
        warnings.warn("all-zero sequence: linear complexity 0 by convention")
        return 0
    return seq.v - (_gcd_int(x_pow_plus_one(seq.v), s2).bit_length() - 1)


def berlekamp_massey(seq, n_terms: int | None = None) -> tuple[int, int]:
    """Shortest-register synthesis from two periods of the sequence.

    Returns (L, connection polynomial c with c_0 = 1, ascending bits).  The
    connection polynomial satisfies sum_i c_i s_(n-i) = 0 for n >= L.
    """
    v = seq.v
    if n_terms is None:
        n_terms = 2 * v
    if n_terms < 2 * v:
        raise ValueError(f"need at least 2v = {2 * v} terms, got {n_terms}")
    reps = -(-n_terms // v)
    bits = [int(b) for b in seq.bits] * reps
    bits = bits[:n_terms]
    n_total = len(bits)
    s_rev = 0
    for b in bits:  # bit j of s_rev = bits[n_total - 1 - j]
        s_rev = (s_rev << 1) | b
    c, b_poly = 1, 1
    big_l, last = 0, -1
    for n in range(n_total):
        d = (c & (s_rev >> (n_total - 1 - n))).bit_count() & 1
        if d:
            t = c
            c ^= b_poly << (n - last)
            if 2 * big_l <= n:
                big_l = n + 1 - big_l
                b_poly = t
                last = n
    return big_l, c


def lfsr_regenerate(connection: int, big_l: int, seed: list[int], count: int) -> list[int]:
    """Run the register s_n = sum_(i=1..L) c_i s_(n-i) from the seed bits."""
    out = list(seed[:big_l])
    for n in range(len(out), count):
        acc = 0
        for i in range(1, big_l + 1):
            acc ^= (connection >> i) & out[n - i]
        out.append(acc)
    return out[:count]


# ---------------------------------------------------------------------------
# Z[zeta_k]: element arithmetic, the identities K satisfies, long division by
# Phi_k, and the criterion one element at a time.
# ---------------------------------------------------------------------------


def cyclotomic_poly(k: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the k-th cyclotomic polynomial."""
    return tuple(_times_mobius(np.ones(1, dtype=np.int64), mobius_factors(k)).tolist())


def from_integer(k: int, n: int) -> CycInt:
    return CycInt(k, (n,) + (0,) * (euler_phi(k) - 1))


def zeta_power(k: int, j: int) -> CycInt:
    vec = [0] * k
    vec[j % k] = 1
    return CycInt.from_exponent_counts(k, vec)


def _same_order(a: CycInt, b: CycInt) -> None:
    if a.k != b.k:
        raise ValueError(f"mismatched cyclotomic orders {a.k} and {b.k}")


def cyc_add(a: CycInt, b: CycInt) -> CycInt:
    _same_order(a, b)
    return CycInt(a.k, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def cyc_mul(a: CycInt, b: CycInt) -> CycInt:
    """Exact product reduced modulo Phi_k."""
    _same_order(a, b)
    conv = np.convolve(np.array(a.coeffs, dtype=object), np.array(b.coeffs, dtype=object))
    return CycInt(a.k, _reduce(a.k, conv))


def cyc_conj(a: CycInt) -> CycInt:
    """Complex conjugation: zeta maps to zeta^(-1)."""
    counts = [0] * a.k
    for i, c in enumerate(a.coeffs):
        counts[(-i) % a.k] += c
    return CycInt(a.k, _reduce(a.k, counts))


def as_integer(a: CycInt) -> int | None:
    """The rational integer a equals, or None."""
    if any(a.coeffs[1:]):
        return None
    return a.coeffs[0]


def embed(a: CycInt) -> complex:
    """Numeric embedding at zeta_k = exp(2 pi i / k)."""
    angles = 2j * np.pi * np.arange(len(a.coeffs)) / a.k
    return complex(np.sum(np.array(a.coeffs) * np.exp(angles)))


def is_zero(a) -> bool:
    """True when every coordinate of a (a CycInt or a FieldElt) is 0."""
    return not any(a.coeffs)


def jacobi_with_rho(ctx: FieldCtx, k: int) -> CycInt:
    """J(chi, rho) with rho the quadratic character: rho(alpha^t) = (-1)^t."""
    q = ctx.q
    _require_valid_k(q, k)
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


def reduce_by_long_division(k: int, vec) -> tuple[int, ...]:
    """sum vec[j] x^j mod Phi_k by monic long division, one row update per quotient term.

    int64 when |vec|_1 (1 + max|Psi_k| |Phi_k|_1) < 2^63, Python integers
    otherwise; Psi_k = (x^k - 1)/Phi_k is the product of Phi_d, d | k, d < k.
    """
    phi = np.array(cyclotomic_poly(k), dtype=np.int64)
    n = len(phi) - 1
    psi = np.ones(1, dtype=np.int64)
    for d in divisors(k)[:-1]:
        psi = np.convolve(psi, cyclotomic_poly(d))
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


def half_K_plus_one(ctx: FieldCtx, k: int) -> CycInt:
    """(K + 1)/2, exact; every power-basis coordinate of K + 1 must be even."""
    kval = cyclotomic.jacobi_K(ctx, k)
    w = list(kval.coeffs)
    w[0] += 1
    if any(c & 1 for c in w):
        raise ArithmeticError("K + 1 is not divisible by 2; upstream computation is inconsistent")
    return CycInt(k, tuple(c >> 1 for c in w))


def parity(a: CycInt) -> int:
    """The coordinates of a mod 2, as a polynomial in zeta over GF(2)."""
    return int("".join("1" if c & 1 else "0" for c in reversed(a.coeffs)), 2)


def reduce_mod_ideal(a: CycInt, g: int) -> int:
    """Residue of a modulo the ideal (2, g(zeta_k)): coordinates mod 2, then zeta -> x mod g."""
    if g not in cyclotomic.ideal_factors(a.k):
        raise ValueError(f"{to_str(g)} is not an irreducible factor of Phi_{a.k} mod 2")
    return _mod_int(parity(a), g)


def criterion_by_elements(ctx: FieldCtx, k: int) -> tuple[bool, ...]:
    """`criterion` through CycInt: (K + 1)/2 reduced modulo each ideal in turn."""
    u = half_K_plus_one(ctx, k)
    return tuple(reduce_mod_ideal(u, g) == 0 for g in cyclotomic.ideal_factors(k))


# ---------------------------------------------------------------------------
# Each closed-form regime on its own, with its hypotheses checked, and the
# closed forms of K that the exact Jacobi sum is checked against.
# ---------------------------------------------------------------------------


def subgroup_index(k: int, p: int) -> int:
    """Index of the subgroup generated by p inside the units mod k."""
    if intgcd(p, k) != 1:
        raise ValueError(f"gcd({p}, {k}) != 1")
    return euler_phi(k) // multiplicative_order(p, k)


def least_t(p: int, k: int) -> int | None:
    """The least t >= 1 with p^t = -1 (mod k), by a scan over the powers of p; None if there is none.

    -1 is the unique involution of the cyclic group <p>, so the order of p
    is then 2t; the scan checks it.
    """
    order = multiplicative_order(p, k)
    t = next((t for t in range(1, order + 1) if pow(p, t, k) == k - 1), None)
    if t is not None and order != 2 * t:
        raise ArithmeticError(f"order {order} of {p} mod {k} is not 2t for the least t = {t} with p^t = -1")
    return t


def pure_ts(p: int, m: int, k: int) -> tuple[int, int] | None:
    """(t, s) of the pure regime, m = 2ts; None when no power of p is -1 mod k or 2t does not divide m."""
    t = least_t(p, k)
    if t is None or m % (2 * t) != 0:
        return None
    return t, m // (2 * t)


def predict_pure(p: int, m: int, k: int) -> Prediction:
    """The pure-regime verdict; NoClosedForm when no power of p is -1 mod k or 2t does not divide m."""
    ts = pure_ts(p, m, k)
    if ts is None:
        raise NoClosedForm(f"pure case inapplicable for (p={p}, m={m}, k={k})")
    return pure(p, m, k, *ts)


def predict_index2(p: int, m: int, ell: int, r: int) -> Prediction:
    """The index-2 verdict at k = ell^r, after checking the index-2 hypotheses."""
    if not is_prime(ell) or ell % 8 != 7:
        raise NoClosedForm(f"ell = {ell} is not a prime congruent to 7 mod 8")
    if r < 1:
        raise ValueError(f"r = {r} must be a positive integer")
    k = ell**r
    if intgcd(p, k) != 1:
        raise NoClosedForm(f"p = {p} divides k = {k}")
    e = multiplicative_order(p, k)
    idx = euler_phi(k) // e
    if idx != 2:
        raise NoClosedForm(f"subgroup index of p mod k is {idx}, need 2")
    if least_t(p, k) is not None:
        raise NoClosedForm(f"some power of p is -1 mod {k}: pure regime applies, not index 2")
    return index2(p, m, ell, r, e)


def closed_form_prediction(p: int, m: int, k: int) -> Prediction:
    """The prediction of the regime whose hypotheses hold for (p, m, k); NoClosedForm when none do."""
    ts = pure_ts(p, m, k)
    if ts is not None:
        return pure(p, m, k, *ts)
    primes = prime_factors(k)
    if len(primes) != 1:
        raise NoClosedForm(f"k = {k} is not a prime power")
    ell, r = primes[0], 1
    while ell**r != k:
        r += 1
    return predict_index2(p, m, ell, r)


def closed_form_pure_K(p: int, m: int, k: int) -> int:
    """The rational integer K in the pure regime: a signed power of p."""
    params = predict_pure(p, m, k).params
    t, s = params["t"], params["s"]
    quotient = (p**t + 1) * s // (2 * k)  # integral: k odd and k | p^t + 1
    if p % 4 == 1:
        sign = (-1) ** ((1 + quotient) % 2)
    else:
        sign = (-1) ** ((1 + m // 2 + quotient) % 2)
    return sign * p ** (m // 2)


def closed_form_index2_K(pred: Prediction, b_sign: int) -> CycInt:
    """Exact K for one sign of b, as an element of Z[zeta_ell] (r = 1 only).

    K = (-1)^(s-1) p^((e-h)s/2) ((a + b sqrt(-ell))/2)^s, with sqrt(-ell)
    realized as the quadratic Gauss sum inside the cyclotomic field; pred
    is an index-2 prediction.
    """
    params = pred.params
    if params["r"] != 1:
        raise ValueError("exact cyclotomic embedding implemented for r = 1 only")
    ell = params["ell"]
    counts = [0] * ell
    for j in range(1, ell):
        counts[j] = 1 if pow(j, (ell - 1) // 2, ell) == 1 else -1
    root = CycInt.from_exponent_counts(ell, counts)  # sqrt(-ell)
    b = b_sign * params["b_abs"]
    num = cyc_add(from_integer(ell, params["a"]), CycInt(ell, tuple(b * c for c in root.coeffs)))
    if any(c % 2 for c in num.coeffs):
        raise ArithmeticError("(a + b sqrt(-ell))/2 is not integral in the power basis")
    base = CycInt(ell, tuple(c // 2 for c in num.coeffs))
    sign = (-1) ** ((params["s"] - 1) % 2)
    out = from_integer(ell, sign * pred.p ** ((params["e"] - params["h"]) * params["s"] // 2))
    for _ in range(params["s"]):
        out = cyc_mul(out, base)
    return out


# ---------------------------------------------------------------------------
# Cyclotomic cosets and minimal polynomials of roots of unity over GF(2).
# ---------------------------------------------------------------------------


def _powmod_int(base: int, e: int, mod: int) -> int:
    result = 1 if mod.bit_length() > 1 else 0
    base = _mod_int(base, mod)
    while e:
        if e & 1:
            result = _mod_int(mul_int(result, base), mod)
        base = _mod_int(_sqr_int(base), mod)
        e >>= 1
    return result


def cyclotomic_cosets(k: int) -> list[list[int]]:
    """Orbits of Z/kZ under multiplication by 2, each in cycle order."""
    if k % 2 == 0:
        raise ValueError("k must be odd")
    seen = [False] * k
    orbits = []
    for j in range(k):
        if seen[j]:
            continue
        orbit = []
        c = j
        while not seen[c]:
            seen[c] = True
            orbit.append(c)
            c = (2 * c) % k
        orbits.append(orbit)
    return orbits


def smallest_irreducible(degree: int) -> int:
    """The degree-d irreducible over GF(2) with the smallest bit pattern."""
    if degree == 1:
        return 2  # x
    for cand in range((1 << degree) + 1, 1 << (degree + 1), 2):
        if is_irreducible(cand):
            return cand
    raise RuntimeError(f"no irreducible of degree {degree}")  # unreachable


def _element_of_order(k: int, modulus: int, f: int) -> int:
    n = (1 << f) - 1
    if n % k != 0:
        raise ValueError(f"no element of order {k} in GF(2^{f})")
    cofactor = n // k
    kprimes = prime_factors(k)
    g = 2
    while True:
        gamma = _powmod_int(g, cofactor, modulus)
        if gamma != 1 and all(_powmod_int(gamma, k // r, modulus) != 1 for r in kprimes):
            return gamma
        g += 1


def _orbit_min_poly(beta: int, orbit: list[int], modulus: int) -> int:
    # product of (x - beta^c) over the orbit; coefficients must land in GF(2)
    poly = [1]
    for c in orbit:
        root = _powmod_int(beta, c, modulus)
        nxt = [0] * (len(poly) + 1)
        for i, coef in enumerate(poly):
            nxt[i + 1] ^= coef
            nxt[i] ^= _mod_int(mul_int(coef, root), modulus)
        poly = nxt
    bits = 0
    for i, coef in enumerate(poly):
        if coef == 1:
            bits |= 1 << i
        elif coef != 0:
            raise RuntimeError("orbit product has a coefficient outside GF(2)")
    return bits


def coset_minimal_polys(k: int) -> list[tuple[tuple[int, ...], int]]:
    """(coset, minimal polynomial) for every nonzero 2-cyclotomic coset mod k.

    Built inside an explicit GF(2^f), f = ord_k(2), independently of any
    cyclotomic-polynomial factorization.
    """
    if k % 2 == 0:
        raise ValueError("k must be odd")
    f = multiplicative_order(2, k)
    modulus = smallest_irreducible(f)
    beta = _element_of_order(k, modulus, f)
    out = []
    for orbit in cyclotomic_cosets(k):
        if orbit == [0]:
            continue
        out.append((tuple(orbit), _orbit_min_poly(beta, orbit, modulus)))
    return out


def coprime_coset_minimal_polys(k: int) -> list[tuple[tuple[int, ...], int]]:
    """The pairs of `coset_minimal_polys` for the elements of order exactly k."""
    return [(orbit, g) for orbit, g in coset_minimal_polys(k) if intgcd(orbit[0], k) == 1]


def minimal_polys_of_order(k: int) -> list[int]:
    """Distinct minimal polynomials of the elements of order exactly k."""
    return sorted({g for _, g in coprime_coset_minimal_polys(k)})


# ---------------------------------------------------------------------------
# General factorization: squarefree split, then Berlekamp's Q-matrix method.
# ---------------------------------------------------------------------------

_COMPRESS = [sum(((b >> (2 * i)) & 1) << i for i in range(4)) for b in range(256)]


def _sqrt_int(a: int) -> int:
    r = 0
    shift = 0
    while a:
        chunk = a & 0xFFFF
        if chunk & 0xAAAA:
            raise ValueError("not a square over GF(2)")
        r |= (_COMPRESS[chunk & 0xFF] | (_COMPRESS[chunk >> 8] << 4)) << shift
        a >>= 16
        shift += 8
    return r


def _derivative(a: int) -> int:
    n = (a.bit_length() + 1) & ~1  # even length so the mask below is exact
    mask = ((1 << n) - 1) // 3  # bits at even positions: 0b...010101
    return (a >> 1) & mask


def _squarefree_parts(f: int) -> dict[int, int]:
    out: dict[int, int] = {}
    df = _derivative(f)
    if df == 0:
        for g, e in _squarefree_parts(_sqrt_int(f)).items():
            out[g] = out.get(g, 0) + 2 * e
        return out
    c = _gcd_int(f, df)
    w = _divmod_int(f, c)[0]
    i = 1
    while w != 1:
        y = _gcd_int(w, c)
        z = _divmod_int(w, y)[0]
        if z != 1:
            out[z] = out.get(z, 0) + i
        w = y
        c = _divmod_int(c, y)[0]
        i += 1
    if c != 1:
        for g, e in _squarefree_parts(_sqrt_int(c)).items():
            out[g] = out.get(g, 0) + 2 * e
    return out


def _left_nullspace_gf2(rows: list[int]) -> list[int]:
    """Combos v (bit i = row i) with xor of the selected rows = 0."""
    pivots: dict[int, tuple[int, int]] = {}
    null = []
    for i, row in enumerate(rows):
        combo = 1 << i
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = (row, combo)
                break
            prow, pcombo = pivots[top]
            row ^= prow
            combo ^= pcombo
        if row == 0:
            null.append(combo)
    return null


def _berlekamp_factors(f: int) -> list[int]:
    """Irreducible factors of a squarefree f (deterministic Q-matrix method)."""
    n = f.bit_length() - 1
    if n <= 1:
        return [f]
    x2 = _mod_int(4, f)  # x^2
    rows = []
    r = 1
    for i in range(n):
        rows.append(r ^ (1 << i))  # row i of Q - I, where Q row i = x^(2i) mod f
        r = _mod_int(mul_int(r, x2), f)
    basis = _left_nullspace_gf2(rows)
    pieces = [f]
    for v in basis:
        if v == 1:  # constant splitting polynomial carries no information
            continue
        refined = []
        for piece in pieces:
            vm = _mod_int(v, piece) if piece.bit_length() - 1 > 1 else 0
            g = _gcd_int(vm, piece) if vm else piece
            if 0 < g.bit_length() - 1 < piece.bit_length() - 1:
                refined.append(g)
                refined.append(_divmod_int(piece, g)[0])
            else:
                refined.append(piece)
        pieces = refined
    if len(pieces) != len(basis):
        raise RuntimeError("splitting basis did not separate all factors")
    return pieces


def berlekamp_factor(f: int) -> list[tuple[int, int]]:
    """Complete factorization into (irreducible, multiplicity) pairs.

    Pairs are sorted by the irreducible, that is by (degree, bit pattern);
    the product recombines to f.
    """
    if f < 2:
        raise ValueError("factor requires a nonzero polynomial of degree >= 1")
    found: dict[int, int] = {}
    for part, mult in _squarefree_parts(f).items():
        for g in _berlekamp_factors(part):
            found[g] = found.get(g, 0) + mult
    return sorted(found.items())


# ---------------------------------------------------------------------------
# GF(p)[x] coefficient lists, constant term first, trailing zeros trimmed.
# ---------------------------------------------------------------------------


def ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return ptrim(out)


def pmod(a: list[int], f: list[int], p: int) -> list[int]:
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
        ptrim(a)
        if not a:
            break
    return a


def pmulmod(a, b, f, p):
    return pmod(pmul(a, b, p), f, p)


def ppowmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = pmod(a, f, p)
    while e:
        if e & 1:
            result = pmulmod(result, base, f, p)
        base = pmulmod(base, base, f, p)
        e >>= 1
    return result


def pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def psub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return ptrim([(x - y) % p for x, y in zip(a, b)])


def is_irreducible_by_gcd(f: list[int], p: int) -> bool:
    """Ben-Or test: monic f of degree m >= 1 has no factor of degree <= m/2, by gcd(x^(p^i) - x, f)."""
    x_red = pmod([0, 1], f, p)
    t = x_red
    for _ in range((len(f) - 1) // 2):
        t = ppowmod(t, p, f, p)
        if len(pgcd(psub(t, x_red, p), f, p)) - 1 != 0:
            return False
    return True


def field_by_lists(p: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
    """(modulus, alpha, A) of the canonical GF(p^m), by list arithmetic alone.

    The modulus is the first monic irreducible in constant-term-first tuple
    order (x when m = 1), alpha the first element in the same order whose
    (q-1)/r-th power is not 1 for any prime r | q - 1, and column i of A is
    alpha * x^i.
    """
    f = [0, 1]
    if m > 1:
        monic = ([c0, *tail, 1] for c0 in range(1, p) for tail in product(range(p), repeat=m - 1))
        f = next(g for g in monic if is_irreducible_by_gcd(g, p))
    n = p**m - 1
    primes = prime_factors(n)
    alpha = next(
        g for g in product(range(p), repeat=m) if any(g) and all(ppowmod(list(g), n // r, f, p) != [1] for r in primes)
    )
    return tuple(f), alpha, alpha_matrix(p, f, alpha)


def alpha_matrix(p: int, modulus, alpha) -> np.ndarray:
    """The matrix of multiplication by alpha mod the modulus: column i is alpha * x^i."""
    m = len(modulus) - 1
    A = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        column = pmulmod(list(alpha), [0] * i + [1], list(modulus), p)
        A[: len(column), i] = column
    return A


# ---------------------------------------------------------------------------
# Field tables and SLCE sequences by the constructions the package replaced.
# ---------------------------------------------------------------------------


def tables_by_int64(p: int, m: int, A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(exp, dlog, zech) of GF(p^m) from A, the matrix of multiplication by alpha.

    Giant steps X <- A^block X mod p in int64, and a second pass over the
    coordinates of every block that encodes 1 - alpha^t for the Zech table.
    """
    q = p**m
    n = q - 1
    block = min(4096, n)
    X = np.zeros((m, 1), dtype=np.int64)
    X[0, 0] = 1
    step = A
    while X.shape[1] < block:
        X = np.hstack([X, (step @ X[:, : block - X.shape[1]]) % p])
        step = (step @ step) % p

    pow_p = p ** np.arange(m, dtype=np.int64)
    exp = np.empty(n, dtype=np.int64)
    one_minus_code = np.empty(n, dtype=np.int64)
    start = 0
    while start < n:
        width = min(block, n - start)
        Xb = X[:, :width]
        exp[start : start + width] = pow_p @ Xb
        Y = (-Xb) % p
        Y[0, :] = (1 - Xb[0, :]) % p
        one_minus_code[start : start + width] = pow_p @ Y
        start += width
        if start < n:
            X = (step @ X) % p

    dlog = np.full(q, -1, dtype=np.int64)
    dlog[exp] = np.arange(n, dtype=np.int64)
    return exp, dlog, dlog[one_minus_code]


@dataclass(frozen=True)
class FieldElt:
    """Field element as coordinates in the power basis of the modulus."""

    coeffs: tuple[int, ...]

    def __str__(self) -> str:
        return poly_str(self.coeffs)


def exp_dlog(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """(exp, dlog) of ctx by `tables_by_int64`: exp[t] is the code of alpha^t, dlog[code] is t (-1 for zero).

    The package keeps only the Zech table; the tests read the powers and
    logs of alpha from here, built from the modulus and alpha of ctx.
    """
    return _exp_dlog(ctx.p, ctx.m, ctx.modulus, ctx.alpha)


@lru_cache(maxsize=4)
def _exp_dlog(p: int, m: int, modulus: tuple[int, ...], alpha: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    exp, dlog, _ = tables_by_int64(p, m, alpha_matrix(p, modulus, alpha))
    exp.setflags(write=False)
    dlog.setflags(write=False)
    return exp, dlog


def _minus_one_codes(ctx: FieldCtx, codes: np.ndarray) -> np.ndarray:
    """Encoded x - 1 for each encoded x (constant coordinate decrement)."""
    c0 = codes % ctx.p
    return codes - c0 + (c0 - 1) % ctx.p


def _support_mark(ctx: FieldCtx) -> np.ndarray:
    """mark[c] is True iff element code c is in D (a boolean array of length q)."""
    q = ctx.q
    odd_exp = np.arange(1, q - 1, 2, dtype=np.int64)
    mark = np.zeros(q, dtype=bool)
    mark[_minus_one_codes(ctx, exp_dlog(ctx)[0][odd_exp])] = True
    mark[0] = False
    return mark


def bits_by_mark(ctx: FieldCtx) -> np.ndarray:
    """One period of the SLCE sequence: bits[t] = 1 iff alpha^t is marked as a member of D."""
    return _support_mark(ctx)[exp_dlog(ctx)[0]].astype(np.uint8)


@dataclass(frozen=True)
class SupportSet:
    """Support set D of an SLCE sequence: exponents and element codes.

    `exponents` holds the t with alpha^t in D, `element_codes` the encoded
    elements themselves; both sorted ascending.  Exactly half the nonzero
    elements belong to D.
    """

    ctx: FieldCtx
    exponents: np.ndarray
    element_codes: np.ndarray

    @property
    def size(self) -> int:
        return int(self.exponents.size)


def support_set(ctx: FieldCtx) -> SupportSet:
    """D = { alpha^(2i+1) - 1 : 0 <= i <= q-2 }, minus zero, deduplicated."""
    codes = np.flatnonzero(_support_mark(ctx))
    exp_mark = np.zeros(ctx.q - 1, dtype=bool)
    exp_mark[exp_dlog(ctx)[1][codes]] = True
    return SupportSet(ctx=ctx, exponents=np.flatnonzero(exp_mark), element_codes=codes)


def autocorrelation(seq: BitSeq, tau: int) -> int:
    """C_tau = sum over i of (-1)^(bits[i] + bits[i+tau])."""
    shifted = np.roll(seq.bits, -tau)
    disagreements = int(np.count_nonzero(seq.bits ^ shifted))
    return seq.v - 2 * disagreements


def _y_codes(ctx: FieldCtx) -> np.ndarray:
    """Encoded nonzero values x(1-x); uses 1 - alpha^i = alpha^zech(i)."""
    q = ctx.q
    i = np.arange(1, q - 1, dtype=np.int64)  # i = 0 gives x = 1, x(1-x) = 0
    y_exp = (i + ctx.zech_table[i]) % (q - 1)
    return np.unique(exp_dlog(ctx)[0][y_exp])


def _z_codes(ctx: FieldCtx) -> np.ndarray:
    nonzero = exp_dlog(ctx)[0]  # all nonzero codes, as a set
    return np.setdiff1d(nonzero, _y_codes(ctx))


def set_Y(ctx: FieldCtx) -> frozenset[FieldElt]:
    """Y: the nonzero field values representable as x(1-x) with x nonzero."""
    return frozenset(decode(ctx, int(c)) for c in _y_codes(ctx))


def set_Z(ctx: FieldCtx) -> frozenset[FieldElt]:
    """Z: complement of Y among the nonzero elements."""
    return frozenset(decode(ctx, int(c)) for c in _z_codes(ctx))


def lce_shift_check(ctx: FieldCtx) -> bool:
    """Structural self-test: Z equals (-4)^(-1) * D."""
    d = support_set(ctx)
    exp, dlog_ = exp_dlog(ctx)
    code_m4 = encode(ctx, from_int(ctx, -4))
    shift = (-int(dlog_[code_m4])) % (ctx.q - 1)
    shifted_exp = (dlog_[d.element_codes] + shift) % (ctx.q - 1)
    shifted_codes = np.sort(exp[shifted_exp])
    return np.array_equal(shifted_codes, np.sort(_z_codes(ctx)))


def decimate(seq: BitSeq, u: int) -> BitSeq:
    """The u-decimation bits[u*t mod v]: the sequence for alpha^u, gcd(u, v) = 1.

    Swapping the primitive element alpha for alpha^u permutes the time axis
    of the sequence by t -> u*t, so every alternative generator's sequence
    is a decimation of the canonical one.
    """
    if intgcd(u, seq.v) != 1:
        raise ValueError(f"u = {u} is not coprime to the period {seq.v}")
    idx = (u * np.arange(seq.v, dtype=np.int64)) % seq.v
    bits = seq.bits[idx]
    bits.setflags(write=False)
    return BitSeq(bits=bits, v=seq.v)


# ---------------------------------------------------------------------------
# Field element operations, one element at a time.
# ---------------------------------------------------------------------------


def encode(ctx: FieldCtx, x: FieldElt) -> int:
    """The table code of x: its coordinates as the base-p digits, constant first."""
    code = 0
    for c in reversed(x.coeffs):
        code = code * ctx.p + c
    return code


def decode(ctx: FieldCtx, code: int) -> FieldElt:
    cs = []
    for _ in range(ctx.m):
        code, c = divmod(code, ctx.p)
        cs.append(c)
    return FieldElt(tuple(cs))


def zero(ctx: FieldCtx) -> FieldElt:
    return FieldElt((0,) * ctx.m)


def one(ctx: FieldCtx) -> FieldElt:
    return FieldElt((1,) + (0,) * (ctx.m - 1))


def from_int(ctx: FieldCtx, c: int) -> FieldElt:
    """The constant c, i.e. the image of the integer c in the field."""
    return FieldElt((c % ctx.p,) + (0,) * (ctx.m - 1))


def power(ctx: FieldCtx, t: int) -> FieldElt:
    """alpha^(t mod (q-1))."""
    return decode(ctx, int(exp_dlog(ctx)[0][t % (ctx.q - 1)]))


def dlog(ctx: FieldCtx, x: FieldElt) -> int:
    code = encode(ctx, x)
    if code == 0:
        raise ValueError("discrete log of zero is undefined")
    return int(exp_dlog(ctx)[1][code])


def trace(ctx: FieldCtx, x: FieldElt) -> int:
    """Tr(x), the trace of the matrix of multiplication by x: the sum of the x^i coordinates of x * x^i."""
    f = list(ctx.modulus)
    total = 0
    for i in range(ctx.m):
        column = pmulmod(list(x.coeffs), [0] * i + [1], f, ctx.p)
        total += column[i] if i < len(column) else 0
    return total % ctx.p


def add(ctx: FieldCtx, x: FieldElt, y: FieldElt) -> FieldElt:
    return FieldElt(tuple((a + b) % ctx.p for a, b in zip(x.coeffs, y.coeffs)))


def sub(ctx: FieldCtx, x: FieldElt, y: FieldElt) -> FieldElt:
    return FieldElt(tuple((a - b) % ctx.p for a, b in zip(x.coeffs, y.coeffs)))


def mul(ctx: FieldCtx, x: FieldElt, y: FieldElt) -> FieldElt:
    if is_zero(x) or is_zero(y):
        return zero(ctx)
    return power(ctx, dlog(ctx, x) + dlog(ctx, y))


def inv(ctx: FieldCtx, x: FieldElt) -> FieldElt:
    if is_zero(x):
        raise ZeroDivisionError("inverse of zero")
    return power(ctx, -dlog(ctx, x))


# ---------------------------------------------------------------------------
# The grid report, assembled whole.
# ---------------------------------------------------------------------------


def _text_block(block: dict, out) -> None:
    fe = block["field"]
    mod = fe["modulus"] if fe["modulus"] is not None else "(not built)"
    alpha = fe["alpha"] if fe["alpha"] is not None else "(not built)"
    print(f"field: p={fe['p']} m={fe['m']} q={fe['q']} modulus={mod} alpha={alpha}", file=out)
    if "gcd_factored" in block:
        print(f"gcd = {block['gcd_factored']}; linear complexity = {block['linear_complexity']}", file=out)
    for row in block["rows"]:
        print(f"k={row['k']}:", file=out)
        if row["factors"] is not None:
            for f in row["factors"]:
                print(f"  g={f['g']}: criterion={f['criterion']} direct={f['direct']} match={f['match']}", file=out)
        else:
            print(f"  direct: {row['direct_all']}", file=out)
        pred = row.get("prediction")
        if pred is not None:
            print(f"  prediction [{pred['regime']}]: divides={pred['divides']} match={row['prediction_match']}", file=out)
            print(f"    {pred['condition_trace']}", file=out)
        elif "prediction_note" in row:
            print(f"  prediction: {row['prediction_note']}", file=out)
    s = block["summary"]
    print(f"summary: rows={s['rows']} mismatches={s['mismatches']} indeterminate={s['indeterminate_predictions']}", file=out)


def _csv_lines(block: dict) -> list[str]:
    lines = []
    for row in block["rows"]:
        pred = row.get("prediction")
        if pred is None:
            pred_str = "none"
        elif pred["divides"] == "indeterminate":
            pred_str = "indeterminate"
        else:
            pred_str = str(pred["divides"])
        pmatch = row.get("prediction_match")
        if row["factors"] is not None:
            for f in row["factors"]:
                lines.append(f"{row['q']},{row['k']},{f['g']},{f['criterion']},{f['direct']},{f['match']},{pred_str},{pmatch}")
        else:
            lines.append(f"{row['q']},{row['k']},,,skipped,,{pred_str},{pmatch}")
    return lines


def grid_report(q_max: int, fmt: str, timings: bool) -> tuple[str, str]:
    """(stdout, stderr) of `slce grid --q-max q_max [--json | --csv] [--timings]`, fmt "json", "csv" or "text".

    Every block is verified here, kept, and the report built from all of
    them at once.  With --timings, text and CSV put one `# timings` line
    per field on stderr and JSON keeps each block's timings inline.
    """
    blocks = [_verify_rows(p, m, None, q <= DIRECT_VERIFY_BOUND) for q, p, m in _odd_prime_powers_upto(q_max)]
    out, err = io.StringIO(), io.StringIO()
    if timings and fmt != "json":
        for block in blocks:
            spans = " ".join(f"{name}={seconds:.6f}" for name, seconds in block["_timings"].items())
            print(f"# timings q={block['field']['q']} {spans}", file=err)
    reported = [{("timings" if k == "_timings" else k): v for k, v in b.items() if timings or k != "_timings"} for b in blocks]
    mismatches = sum(block["summary"]["mismatches"] for block in blocks)
    if fmt == "json":
        report = {"q_max": q_max, "fields": reported, "summary": {"fields": len(blocks), "mismatches": mismatches}}
        print(json.dumps(report, indent=2), file=out)
    elif fmt == "csv":
        print("q,k,g,criterion,direct,match,prediction,prediction_match", file=out)
        for block in reported:
            for line in _csv_lines(block):
                print(line, file=out)
    else:
        for block in reported:
            _text_block(block, out)
        print(f"grid summary: fields={len(blocks)} mismatches={mismatches}", file=out)
    return out.getvalue(), err.getvalue()
