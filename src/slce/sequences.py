"""SLCE sequence construction, autocorrelation, and text/CSV export.

The SLCE sequence over GF(q), q = p^m odd, has period v = q - 1 and
s_t = 1 exactly when alpha^t lands in the support set D, the set of
nonzero elements of the form alpha^(2i+1) - 1, that is, when 1 + alpha^t
is a nonsquare.  Since -1 = alpha^(v/2), 1 + alpha^t = 1 - alpha^(t + v/2),
so s_t is the parity of the Zech logarithm zech[t + v/2 mod v] (s_(v/2) = 0):
the same table that the Jacobi sum K = chi(4) sum chi(alpha^i) chi(1 - alpha^i)
reads in `slce.cyclotomic`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldCtx


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


def generate(ctx: FieldCtx) -> BitSeq:
    """The SLCE sequence for ctx: bits[t] = 1 iff alpha^t is in D.

    alpha^t is in D iff 1 + alpha^t is a nonzero nonsquare, and with
    -1 = alpha^(v/2), 1 + alpha^t = 1 - alpha^(t + v/2), whose log is
    zech[t + v/2 mod v].  So bits[t] is the parity of that log, except at
    t = v/2, where 1 + alpha^t = 0.
    """
    v = ctx.q - 1
    h = v // 2
    zech = ctx.zech_table
    bits = np.empty(v, dtype=np.uint8)
    np.bitwise_and(zech[h:], 1, out=bits[:h], casting="unsafe")
    np.bitwise_and(zech[:h], 1, out=bits[h:], casting="unsafe")
    bits[h] = 0
    bits.setflags(write=False)
    return BitSeq(bits=bits, v=v)


def autocorrelation_profile(seq: BitSeq) -> np.ndarray:
    """All C_tau for tau = 0..v-1, via FFT; exact for desk-scale periods."""
    x = 1.0 - 2.0 * seq.bits.astype(np.float64)
    f = np.fft.rfft(x)
    c = np.fft.irfft(f * np.conj(f), n=seq.v)
    prof = np.rint(c).astype(np.int64)
    if prof[0] != seq.v:
        raise RuntimeError("autocorrelation profile failed its peak self-check")
    return prof


def sequence_text(seq: BitSeq) -> str:
    """Plain-text export: the 0/1 characters of one period on one line."""
    return seq.to01() + "\n"


def autocorrelation_csv(seq: BitSeq) -> str:
    """CSV export of the full autocorrelation profile (tau, C_tau)."""
    prof = autocorrelation_profile(seq)
    lines = ["tau,C_tau"]
    lines.extend(f"{tau},{int(c)}" for tau, c in enumerate(prof))
    return "\n".join(lines) + "\n"
