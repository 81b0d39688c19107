from oracles import poly_from_seq
from slce import fields
from slce.cli import _odd_prime_powers_upto
from slce.fields import build_field
from slce.sequences import generate

_CACHE = {}
_CACHE_LIMIT_Q = 3000
_BUNDLE_MAX_Q = 3_000_000  # acceptance 7 checks a prediction at q = 137^3, above the CLI's bound

# (p, m) on which the field tables and the sequence are checked against their oracles: every
# q <= 3000, a q - 1 past one block of giant steps (3^8), the benchmark's long periods, and
# the largest q of each shape up to the size bound (1999993 is the largest prime below it)
ORACLE_FIELDS = [(p, m) for _, p, m in _odd_prime_powers_upto(3000)] + [
    (3, 8), (5, 8), (13, 5), (3, 12), (7, 7), (3, 13), (1999993, 1)
]


def field_bundle(p, m):
    """(ctx, seq, s2) for GF(p^m), q up to 3,000,000; small fields are memoized across tests."""
    key = (p, m)
    found = _CACHE.get(key)
    if found is not None:
        return found
    bound, fields.FIELD_SIZE_BOUND = fields.FIELD_SIZE_BOUND, _BUNDLE_MAX_Q
    try:
        ctx = build_field(p, m)
    finally:
        fields.FIELD_SIZE_BOUND = bound
    seq = generate(ctx)
    bundle = (ctx, seq, poly_from_seq(seq))
    if ctx.q <= _CACHE_LIMIT_Q:
        _CACHE[key] = bundle
    return bundle
