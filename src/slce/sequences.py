"""SLCE sequence construction, support sets, and autocorrelation.

The SLCE sequence over GF(q), q = p^m odd, has period v = q - 1 and
s_t = 1 exactly when alpha^t lands in the support set D, the set of
nonzero elements of the form alpha^(2i+1) - 1.  The set Y collects the
nonzero values x(1-x), and Z is its complement; Z is always a
multiplicative shift of D by (-4)^(-1), which `lce_shift_check` verifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldCtx, FieldElt


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


@dataclass(frozen=True)
class BitSeq:
    """One period of a binary sequence; bits[t] in {0, 1}, period v."""

    bits: np.ndarray
    v: int

    def weight(self) -> int:
        return int(self.bits.sum())

    def to01(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    def as_int(self) -> int:
        """Bits packed into an integer, bit t = bits[t]."""
        packed = np.packbits(self.bits, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")


def _minus_one_codes(ctx: FieldCtx, codes: np.ndarray) -> np.ndarray:
    """Encoded x - 1 for each encoded x (constant coordinate decrement)."""
    c0 = codes % ctx.p
    return codes - c0 + (c0 - 1) % ctx.p


def _support_mark(ctx: FieldCtx) -> np.ndarray:
    """mark[c] is True iff element code c is in D (a boolean array of length q)."""
    q = ctx.q
    odd_exp = np.arange(1, q - 1, 2, dtype=np.int64)
    mark = np.zeros(q, dtype=bool)
    mark[_minus_one_codes(ctx, ctx.exp_table[odd_exp])] = True
    mark[0] = False
    return mark


def support_set(ctx: FieldCtx) -> SupportSet:
    """D = { alpha^(2i+1) - 1 : 0 <= i <= q-2 }, minus zero, deduplicated."""
    codes = np.flatnonzero(_support_mark(ctx))
    exp_mark = np.zeros(ctx.q - 1, dtype=bool)
    exp_mark[ctx.dlog_table[codes]] = True
    return SupportSet(ctx=ctx, exponents=np.flatnonzero(exp_mark), element_codes=codes)


def generate(ctx: FieldCtx) -> BitSeq:
    """The SLCE sequence for ctx: bits[t] = 1 iff alpha^t is in D."""
    bits = _support_mark(ctx)[ctx.exp_table].astype(np.uint8)
    bits.setflags(write=False)
    return BitSeq(bits=bits, v=ctx.q - 1)


def autocorrelation(seq: BitSeq, tau: int) -> int:
    """C_tau = sum over i of (-1)^(bits[i] + bits[i+tau])."""
    shifted = np.roll(seq.bits, -tau)
    disagreements = int(np.count_nonzero(seq.bits ^ shifted))
    return seq.v - 2 * disagreements


def autocorrelation_profile(seq: BitSeq) -> np.ndarray:
    """All C_tau for tau = 0..v-1, via FFT; exact for desk-scale periods."""
    x = 1.0 - 2.0 * seq.bits.astype(np.float64)
    f = np.fft.rfft(x)
    c = np.fft.irfft(f * np.conj(f), n=seq.v)
    prof = np.rint(c).astype(np.int64)
    if prof[0] != seq.v:
        raise RuntimeError("autocorrelation profile failed its peak self-check")
    return prof


def _y_codes(ctx: FieldCtx) -> np.ndarray:
    """Encoded nonzero values x(1-x); uses 1 - alpha^i = alpha^zech(i)."""
    q = ctx.q
    i = np.arange(1, q - 1, dtype=np.int64)  # i = 0 gives x = 1, x(1-x) = 0
    y_exp = (i + ctx.zech_table[i]) % (q - 1)
    return np.unique(ctx.exp_table[y_exp])


def _z_codes(ctx: FieldCtx) -> np.ndarray:
    nonzero = ctx.exp_table  # all nonzero codes, as a set
    return np.setdiff1d(nonzero, _y_codes(ctx))


def set_Y(ctx: FieldCtx) -> frozenset[FieldElt]:
    """Y: the nonzero field values representable as x(1-x) with x nonzero."""
    return frozenset(ctx.decode(int(c)) for c in _y_codes(ctx))


def set_Z(ctx: FieldCtx) -> frozenset[FieldElt]:
    """Z: complement of Y among the nonzero elements."""
    return frozenset(ctx.decode(int(c)) for c in _z_codes(ctx))


def lce_shift_check(ctx: FieldCtx) -> bool:
    """Structural self-test: Z equals (-4)^(-1) * D."""
    d = support_set(ctx)
    code_m4 = ctx.encode(ctx.from_int(-4))
    shift = (-int(ctx.dlog_table[code_m4])) % (ctx.q - 1)
    shifted_exp = (ctx.dlog_table[d.element_codes] + shift) % (ctx.q - 1)
    shifted_codes = np.sort(ctx.exp_table[shifted_exp])
    return np.array_equal(shifted_codes, np.sort(_z_codes(ctx)))


def decimate(seq: BitSeq, u: int) -> BitSeq:
    """The u-decimation bits[u*t mod v]: the sequence for alpha^u, gcd(u, v) = 1.

    Swapping the primitive element alpha for alpha^u permutes the time axis
    of the sequence by t -> u*t, so every alternative generator's sequence
    is a decimation of the canonical one.
    """
    import math

    if math.gcd(u, seq.v) != 1:
        raise ValueError(f"u = {u} is not coprime to the period {seq.v}")
    idx = (u * np.arange(seq.v, dtype=np.int64)) % seq.v
    bits = seq.bits[idx]
    bits.setflags(write=False)
    return BitSeq(bits=bits, v=seq.v)


def sequence_text(seq: BitSeq) -> str:
    """Plain-text export: the 0/1 characters of one period on one line."""
    return seq.to01() + "\n"


def autocorrelation_csv(seq: BitSeq) -> str:
    """CSV export of the full autocorrelation profile (tau, C_tau)."""
    prof = autocorrelation_profile(seq)
    lines = ["tau,C_tau"]
    lines.extend(f"{tau},{int(c)}" for tau, c in enumerate(prof))
    return "\n".join(lines) + "\n"
