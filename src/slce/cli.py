"""Command-line front end: generation, direct computation, prediction,
and cross-validation of SLCE sequences.

Subcommands:
  seq      print one period (and optionally the autocorrelation CSV)
  gcd      factored gcd of the sequence polynomial with x^v + 1, and the
           linear complexity
  jacobi   exact K in the power basis, as fixture-ready JSON
  predict  closed-form divisibility prediction for one (p, m, k)
  verify   per-factor criterion vs direct divisibility vs prediction
  grid     verify swept over all odd prime powers q <= bound, one forked
           worker process per available CPU (the report does not depend
           on how many); each worker renders the fields it verified, and
           the report is written from those pieces, one field at a time,
           in ascending q

Exit codes: 0 = all checks match, 1 = a mismatch was found, 2 = usage
error, 141 = stdout was closed before the report was written (the shell's
code for a process ended by SIGPIPE).  Output is deterministic for fixed flags; timing data is emitted
only when --timings is given so that default reports are byte-stable.
There is no randomness anywhere (--seed-free is accepted as a no-op).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from . import cyclotomic, gf2poly, sequences
from .predict import NoClosedForm, predict as run_predict
from .fields import bounded_field_order, build_field, check_field, divisors, is_prime, prime_factors

DIRECT_VERIFY_BOUND = 20_000
# grid refuses a --q-max above this.  On a 2-core x86-64 (Python 3.11), listing the odd
# prime powers up to 10^6 took 0.68 s (4.1 s to 4 * 10^6, one primality test per odd
# number), and the whole `grid --q-max 1000000 --predict-only --json` 29.5 s and 269 MB
# of RSS for a 211 MB report; each grows about linearly with the bound.
GRID_BOUND = 1_000_000


def _odd_prime_powers_upto(q_max: int) -> list[tuple[int, int, int]]:
    """(q, p, m) for every odd prime power q <= q_max, ascending."""
    out = []
    for p in range(3, q_max + 1, 2):
        if not is_prime(p):
            continue
        q, m = p, 1
        while q <= q_max:
            out.append((q, p, m))
            q *= p
            m += 1
    return sorted(out)


def _least_odd_prime_power_above(bound: int, q_max: int) -> int | None:
    """The least odd prime power q with bound < q <= q_max, or None; a prime lies below 2 * bound."""
    return next((n for n in range((bound + 1) | 1, q_max + 1, 2) if len(prime_factors(n)) == 1), None)


def _verify_rows(p: int, m: int, ks: list[int] | None, direct: bool) -> dict:
    """Assemble the verification block for one field (the report core)."""
    q = p**m  # every caller has checked p and m, and that q is not huge; build_field checks the rest
    for k in sorted(ks or ()):  # before any field is built
        if k < 3 or k % 2 == 0 or (q - 1) % k != 0:
            raise ValueError(f"k = {k} is not an odd divisor >= 3 of q - 1 = {q - 1}")
    t_start = time.perf_counter()
    if direct:
        ctx = build_field(p, m)
        block: dict = {"field": ctx.describe(), "rows": []}
    else:
        block = {"field": {"p": p, "m": m, "q": q, "modulus": None, "alpha": None}, "rows": []}
    timings = {"field_build_s": time.perf_counter() - t_start}

    if direct:
        t0 = time.perf_counter()
        seq = sequences.generate(ctx)
        common_factors = gf2poly.gcd_factors(seq.v, seq.as_int(), p)
        block["gcd_factored"] = gf2poly.factored_str(common_factors)
        block["linear_complexity"] = seq.v - sum(mult * (h.bit_length() - 1) for h, mult in common_factors)
        # each g of a row divides x^k + 1 | x^v + 1: g | S2 iff g is an irreducible factor of the gcd
        gcd_irreducibles = {h for h, _ in common_factors}
        timings["sequence_and_gcd_s"] = time.perf_counter() - t0

    if ks is None:
        try:
            ks = [d for d in divisors(q - 1) if d % 2 and d >= 3]
        except ValueError:
            raise ValueError(
                f"q - 1 = {p}^{m} - 1 is not factored by trial division to 2^20; pass -k to verify a single k"
            ) from None
    mismatches = 0
    indeterminate = 0
    t0 = time.perf_counter()
    for k in sorted(ks):
        row: dict = {"q": q, "k": k}
        if direct:
            ideals = cyclotomic.ideal_factors(k)
            row["f"] = ideals[0].bit_length() - 1
            factors = []
            for g, crit in zip(ideals, cyclotomic.criterion(ctx, k)):
                div = g in gcd_irreducibles
                factors.append({"g": gf2poly.to_str(g), "criterion": crit, "direct": div, "match": crit == div})
                if crit != div:
                    mismatches += 1
            row["factors"] = factors
            row["criterion_all"] = all(f["criterion"] for f in factors)
            direct_all = all(f["direct"] for f in factors)
            row["direct_all"] = direct_all
        else:
            row["factors"] = None
            row["direct_all"] = f"skipped: q = {p}^{m} infeasible"
        try:
            pred = run_predict(p, m, k)
            row["prediction"] = pred.to_json()
            if pred.divides is None:
                indeterminate += 1
                row["prediction_match"] = None
            elif direct:
                row["prediction_match"] = pred.divides == direct_all
                if pred.divides != direct_all:
                    mismatches += 1
            else:
                row["prediction_match"] = None
        except NoClosedForm:
            row["prediction"] = None
            row["prediction_note"] = "no closed form in scope"
            row["prediction_match"] = None
        block["rows"].append(row)
    timings["rows_s"] = time.perf_counter() - t0
    block["summary"] = {
        "rows": len(block["rows"]),
        "mismatches": mismatches,
        "indeterminate_predictions": indeterminate,
    }
    block["_timings"] = timings
    return block


def _text_block(block: dict) -> str:
    fe = block["field"]
    mod = fe["modulus"] if fe["modulus"] is not None else "(not built)"
    alpha = fe["alpha"] if fe["alpha"] is not None else "(not built)"
    lines = [f"field: p={fe['p']} m={fe['m']} q={fe['q']} modulus={mod} alpha={alpha}"]
    if "gcd_factored" in block:
        lines.append(f"gcd = {block['gcd_factored']}; linear complexity = {block['linear_complexity']}")
    for row in block["rows"]:
        lines.append(f"k={row['k']}:")
        if row["factors"] is not None:
            for f in row["factors"]:
                lines.append(f"  g={f['g']}: criterion={f['criterion']} direct={f['direct']} match={f['match']}")
        else:
            lines.append(f"  direct: {row['direct_all']}")
        pred = row.get("prediction")
        if pred is not None:
            lines.append(f"  prediction [{pred['regime']}]: divides={pred['divides']} match={row['prediction_match']}")
            lines.append(f"    {pred['condition_trace']}")
        elif "prediction_note" in row:
            lines.append(f"  prediction: {row['prediction_note']}")
    s = block["summary"]
    lines.append(f"summary: rows={s['rows']} mismatches={s['mismatches']} indeterminate={s['indeterminate_predictions']}")
    return "\n".join(lines) + "\n"


_CSV_HEADER = "q,k,g,criterion,direct,match,prediction,prediction_match\n"


def _csv_block(block: dict) -> str:
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
                lines.append(
                    f"{row['q']},{row['k']},{f['g']},{f['criterion']},{f['direct']},{f['match']},"
                    f"{pred_str},{pmatch}\n"
                )
        else:
            lines.append(f"{row['q']},{row['k']},,,skipped,,{pred_str},{pmatch}\n")
    return "".join(lines)


def _render(block: dict, args, indent: str = "") -> tuple[str, str, int]:
    """One field's report in the format of `args`: (text, timings line, mismatches).

    JSON is `json.dumps(block, indent=2)` with `indent` before each line,
    which is exact because JSON escapes every newline inside a string, and
    it has no final newline, so that `grid` can join blocks.  CSV (without
    its header) and text end every line with one.  The `_timings` entry is
    renamed `timings` in JSON with --timings, and dropped otherwise; the
    timings line, for stderr, is "" unless --timings is given in text or CSV
    mode.
    """
    spans = block.pop("_timings")
    timings_line = ""
    if args.timings and args.json:
        block["timings"] = spans
    elif args.timings:
        timings_line = f"# timings q={block['field']['q']} " + " ".join(f"{k}={s:.6f}" for k, s in spans.items())
    if args.json:
        text = indent + json.dumps(block, indent=2).replace("\n", "\n" + indent)
    elif args.csv:
        text = _csv_block(block)
    else:
        text = _text_block(block)
    return text, timings_line, block["summary"]["mismatches"]


def cmd_seq(args, out) -> int:
    ctx = build_field(args.p, args.m)
    seq = sequences.generate(ctx)
    if args.autocorr:
        text = sequences.autocorrelation_csv(seq)
    else:
        text = sequences.sequence_text(seq)
        print(f"# p={args.p} m={args.m} q={ctx.q} weight={seq.weight()}", file=sys.stderr)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        out.write(text)
    return 0


def cmd_gcd(args, out) -> int:
    bounded_field_order(args.p, args.m)  # before q is formed
    block = _verify_rows(args.p, args.m, ks=[], direct=True)
    if args.json:
        report = {
            "field": block["field"],
            "gcd_factored": block["gcd_factored"],
            "linear_complexity": block["linear_complexity"],
        }
        print(json.dumps(report, indent=2), file=out)
    else:
        print(f"gcd = {block['gcd_factored']}", file=out)
        print(f"linear complexity = {block['linear_complexity']}", file=out)
    return 0


def cmd_jacobi(args, out) -> int:
    cyclotomic._require_valid_k(bounded_field_order(args.p, args.m), args.k)  # before the tables
    ctx = build_field(args.p, args.m)
    kval = cyclotomic.jacobi_K(ctx, args.k)
    report = dict(ctx.describe())
    report.update(kval.to_json())
    print(json.dumps(report, indent=2), file=out)
    return 0


def cmd_predict(args, out) -> int:
    try:
        pred = run_predict(args.p, args.m, args.k)
    except NoClosedForm as exc:
        print(f"no closed form in scope: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(pred.to_json(), indent=2), file=out)
    else:
        verdict = {True: "divides", False: "does not divide", None: "indeterminate"}[pred.divides]
        print(f"{pred.target}: {verdict} [{pred.regime}]", file=out)
        print(pred.condition_trace, file=out)
    return 0


def cmd_verify(args, out) -> int:
    check_field(args.p, args.m)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit, or a Python without one
    # an m above (digits + 1) / log10 p puts q past the limit without forming it; below, q decides
    if digits and (args.m > (digits + 1) / math.log10(args.p) or args.p**args.m >= 10**digits):
        print(
            f"error: q = {args.p}^{args.m} has more than {digits} decimal digits,"
            " the limit for printing an integer in a report",
            file=sys.stderr,
        )
        return 2
    q = args.p**args.m
    direct = q <= args.q_max
    if not direct and not args.predict_only:
        print(
            f"error: q = {q} exceeds the direct-verification bound {args.q_max};"
            " pass --predict-only for a prediction-only report",
            file=sys.stderr,
        )
        return 2
    ks = [args.k] if args.k is not None else None
    try:
        text, timings_line, mismatches = _render(_verify_rows(args.p, args.m, ks, direct), args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if timings_line:
        print(timings_line, file=sys.stderr)
    out.write(_CSV_HEADER + text if args.csv else text + "\n" if args.json else text)
    return 0 if mismatches == 0 else 1


def _verify_field(field: tuple[int, int, int], args) -> tuple[str, str, int] | ValueError:
    """`_render` of one grid field (q, p, m) at the report's depth, or the ValueError that stopped it.

    A pool task: module level, so that it pickles by name, and it looks up
    `_verify_rows` when called, so a forked worker runs whatever the parent has.
    """
    q, p, m = field
    try:
        block = _verify_rows(p, m, None, q <= DIRECT_VERIFY_BOUND)
    except ValueError as exc:
        return exc
    return _render(block, args, indent="    ")


def _tie_to_parent(parent: int) -> None:
    """Pool initializer: the worker dies with the CLI process and holds none of its output.

    No `finally` runs when the CLI process is killed, so the kernel is asked
    (PR_SET_PDEATHSIG) to SIGKILL the worker when its parent dies, and the
    getppid check covers a parent that died before the request.  Stdout and
    stderr become /dev/null, so a reader of the CLI's output sees EOF when the
    CLI process ends, not when its last worker does.  Blocks and errors go
    back through the pool, never through these streams.
    """
    import ctypes
    import signal

    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)
    os.close(devnull)
    prctl = ctypes.CDLL(None, use_errno=True).prctl  # Linux, as is sched_getaffinity
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    if prctl(1, signal.SIGKILL) != 0:  # 1 = PR_SET_PDEATHSIG
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:
        os._exit(1)


def _verify_fields(fields: list[tuple[int, int, int]], args) -> list[tuple[str, str, int]]:
    """The rendered `_verify_field`s of `fields` in their order, one forked worker per available CPU.

    The fields are independent.  Workers take them largest q first, in chunks
    of 8, so that no heavy field starts last, and each renders the fields it
    verified, so only their text comes back.  The first field in order that
    raised ValueError raises it here, as a serial loop would.  With one CPU
    (or no `sched_getaffinity`, which only Linux has) the fields run here, one
    by one, and stop at the first error.  The CPUs are those the process may
    run on; a cgroup CPU quota is not seen.  The workers are forked, not
    spawned, so they start from the package as imported here instead of
    paying ~0.1 s each to import it again; the pool forks them all, from this
    thread, before it starts its own.  Each worker dies with this process
    (`_tie_to_parent`), and none outlives this call.
    """
    task = functools.partial(_verify_field, args=args)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(fields))
    if workers <= 1:
        results = map(task, fields)
    else:
        import multiprocessing  # not at module top: these imports cost every other command ~16 ms
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_tie_to_parent,
            initargs=(os.getpid(),),
        )
        try:
            results = list(pool.map(task, fields[::-1], chunksize=8))[::-1]
        finally:
            pool.shutdown(cancel_futures=True)
    rendered = []
    for result in results:
        if isinstance(result, ValueError):
            raise result
        rendered.append(result)
    return rendered


def cmd_grid(args, out) -> int:
    """The report of every field, written block by block in ascending q.

    Each block is written as it was rendered, between a header and a footer,
    and released once written, so the whole report is never built here:
    not as one dict, one string, or the chunks of one encoder.
    """
    beyond = None if args.predict_only else _least_odd_prime_power_above(DIRECT_VERIFY_BOUND, args.q_max)
    if beyond is not None:
        print(
            f"error: grid reaches q = {beyond} above the direct bound {DIRECT_VERIFY_BOUND};"
            " pass --predict-only to include prediction-only rows",
            file=sys.stderr,
        )
        return 2
    if args.q_max > GRID_BOUND:
        print(f"error: --q-max {args.q_max} exceeds the grid bound {GRID_BOUND}", file=sys.stderr)
        return 2
    blocks = _verify_fields(_odd_prime_powers_upto(args.q_max), args)
    if args.json:
        out.write(f'{{\n  "q_max": {args.q_max},\n  "fields": [')
    elif args.csv:
        out.write(_CSV_HEADER)
    mismatches = 0
    for i, (text, timings_line, field_mismatches) in enumerate(blocks):
        blocks[i] = None  # the text goes with the loop variables
        if timings_line:
            print(timings_line, file=sys.stderr)
        out.write((("\n" if i == 0 else ",\n") + text) if args.json else text)
        mismatches += field_mismatches
    if args.json:
        summary = json.dumps({"fields": len(blocks), "mismatches": mismatches}, indent=2).replace("\n", "\n  ")
        # json.dumps writes an empty list as [] on one line
        out.write(("\n  ]" if blocks else "]") + f',\n  "summary": {summary}\n}}\n')
    elif not args.csv:
        out.write(f"grid summary: fields={len(blocks)} mismatches={mismatches}\n")
    return 0 if mismatches == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slce",
        description="SLCE sequences: linear complexity, Jacobi-sum tests, closed-form predictions",
    )
    parser.add_argument(
        "--seed-free",
        action="store_true",
        help="reserved no-op: the toolkit is deterministic, nothing is seeded",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pm(sp):
        sp.add_argument("-p", type=int, required=True, help="odd prime p")
        sp.add_argument("-m", type=int, required=True, help="extension degree m")

    sp = sub.add_parser("seq", help="print one period of the sequence")
    add_pm(sp)
    sp.add_argument("--autocorr", action="store_true", help="emit the autocorrelation profile CSV")
    sp.add_argument("--out", help="write to a file instead of stdout")
    sp.set_defaults(func=cmd_seq)

    sp = sub.add_parser("gcd", help="factored gcd with x^v + 1 and linear complexity")
    add_pm(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_gcd)

    sp = sub.add_parser("jacobi", help="exact K in the power basis (fixture JSON)")
    add_pm(sp)
    sp.add_argument("-k", type=int, required=True, help="odd character order k >= 3 dividing q-1")
    sp.set_defaults(func=cmd_jacobi)

    sp = sub.add_parser("predict", help="closed-form divisibility prediction")
    add_pm(sp)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("verify", help="criterion vs direct divisibility vs prediction")
    add_pm(sp)
    sp.add_argument("-k", type=int, default=None, help="restrict to one k (default: all valid k)")
    sp.add_argument("--q-max", type=int, default=DIRECT_VERIFY_BOUND, help="direct-verification bound")
    sp.add_argument("--predict-only", action="store_true")
    fmt = sp.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true", help="per-factor rows as CSV")
    sp.add_argument("--timings", action="store_true", help="timing data: in the JSON, else a stderr line per field")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("grid", help="sweep all odd prime powers q <= --q-max")
    sp.add_argument("--q-max", type=int, required=True)
    sp.add_argument("--predict-only", action="store_true")
    fmt = sp.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true", help="per-factor rows as CSV")
    sp.add_argument("--timings", action="store_true", help="timing data: in the JSON, else a stderr line per field")
    sp.set_defaults(func=cmd_grid)
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    out = out if out is not None else sys.stdout
    try:
        return args.func(args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone (`| head`); send what is still buffered to devnull,
        # or the flush at exit raises again
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
