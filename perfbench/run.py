"""End-to-end benchmark of the slce CLI.

    python3 perfbench/run.py --workload {sweep,longperiod,closedform}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout: the package is imported from ./src.
Closed loop, one client: each CLI invocation (`slce.cli.main(argv)`) runs
in its own fresh child process, one at a time, under a per-invocation time
limit and an address-space cap.  A pass runs the workload's invocation list
once; passes repeat while one more would end within --seconds (at least one).

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 the run alternates untraced and traced
passes and reports the per-layer metrics of perfbench/spans.py instead.
Every invocation's report is checked: exit code, the sha256 digest
recorded at the seed commit (perfbench/expected.json), and semantic checks
that hold for any input.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 1  # the held-out seed is 2
SETUP_PROBES = 5
MB = 1 << 20

# ---------------------------------------------------------------------------
# Workloads.  Each closed-form pool holds cases of near-equal cost (the
# represent scan depends on p and h only), so that which cases a seed picks
# moves the totals little.
# ---------------------------------------------------------------------------


def _index2(ell: int, ps, ss) -> list[tuple[int, int, int]]:
    e = (ell - 1) // 2
    return [(p, e * s, ell) for p in ps for s in ss]


CLOSEDFORM_POOLS = {
    # index 2, h = 1 (ell = 7): a few ms, CLI overhead dominates
    "index2_h1": _index2(7, (317, 331, 347, 359, 373, 389), (1, 2)),
    # index 2, h = 3: ~10^4-step represent scan, a few ms
    "index2_h3": _index2(23, (307, 311, 317, 331, 347), (1, 2)) + _index2(31, (307, 317, 359), (1, 2)),
    # index 2, h = 5: ~6*10^6-step represent scan at p = 397 or 401, about 1 s
    "index2_h5": _index2(47, (397, 401), (1, 2)) + _index2(79, (397,), (1, 2)) + _index2(103, (401,), (1, 2)),
    # index 2, h = 7 (ell = 71): ~10^7-step scan at p = 73, about 1 s; p >= 200 does not finish
    "index2_h7": _index2(71, (73,), (1, 2, 3)),
    # pure, p = 3 a primitive root mod prime k: t = (k-1)/2, m = 2t s
    "pure_small": [(3, (k - 1) * s, k) for k in (1013, 1039, 1049, 1061, 1063, 1087, 1097) for s in (1, 2)],
    "pure_large": [(3, k - 1, k) for k in (999007, 999029, 999043, 999091, 999149, 999199, 999221, 999233)],
}
# cases per pass from each pool: 4 of a few ms, 1 of ~0.4 s, 7 of ~1 s.  The
# median invocation falls among the compute-bound index2_h5 cases, whose
# time is the represent scan; few-ms times are mostly fresh-process start-up
# and vary more from run to run.
CLOSEDFORM_PICKS = {
    "index2_h1": 1,
    "index2_h3": 2,
    "pure_small": 1,
    "pure_large": 1,
    "index2_h5": 6,
    "index2_h7": 1,
}


def _predict_argv(case: tuple[int, int, int]) -> list[str]:
    p, m, k = case
    return ["predict", "-p", str(p), "-m", str(m), "-k", str(k), "--json"]


def closedform_pool_argvs() -> list[list[str]]:
    return [_predict_argv(case) for pool in CLOSEDFORM_POOLS.values() for case in pool]


def _closedform(rng: random.Random) -> list[list[str]]:
    picked = []
    for pool, n in CLOSEDFORM_PICKS.items():
        picked += rng.sample(CLOSEDFORM_POOLS[pool], n)
    return [_predict_argv(case) for case in picked]


@dataclass(frozen=True)
class Workload:
    build: Callable[[random.Random], list[list[str]]]  # one pass's argvs, before shuffling
    limit_s: float  # per-invocation time limit, charged to a failed invocation
    mem_cap: int  # address-space cap of each child, bytes


WORKLOADS = {
    "sweep": Workload(lambda rng: [["grid", "--q-max", "3000", "--json"]], 75.0, 3072 * MB),
    # two periods of near-equal length (v = 390624 and 371292, a few s each),
    # so that a run holds several passes and its medians drift less
    "longperiod": Workload(
        lambda rng: [["gcd", "-p", "5", "-m", "8", "--json"], ["gcd", "-p", "13", "-m", "5", "--json"]],
        40.0,
        1024 * MB,
    ),
    "closedform": Workload(_closedform, 6.0, 1024 * MB),
}


def invocations(name: str, seed: int) -> list[list[str]]:
    """The seed picks the cases and sets the order of one pass."""
    rng = random.Random(seed)
    argvs = WORKLOADS[name].build(rng)
    rng.shuffle(argvs)
    return argvs


# ---------------------------------------------------------------------------
# One invocation in a child process.
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    argv: list[str]
    status: str  # ok | timeout | memory | raised | exit code | digest | check
    detail: str = ""
    setup_s: float | None = None
    work_s: float = 0.0  # time inside main; the limit when the invocation failed
    maxrss_kb: int = 0
    spans: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    @property
    def wrong_output(self) -> bool:
        return self.status not in ("ok", "timeout", "memory")


def run_child(
    args: list[str], limit_s: float, mem_cap: int, trace: bool = False, src: Path = ROOT / "src"
) -> tuple[str, bytes, dict]:
    """(status, report bytes, child result) for one child process."""
    cmd = [sys.executable, str(CHILD), str(src), str(mem_cap), str(int(limit_s) + 1), "1" if trace else "0", *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return "timeout", b"", {}
    body, _, last = out[:-1].rpartition(b"\n")
    try:
        result = json.loads(last)
    except ValueError:
        tail = err.decode(errors="replace").strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return "raised", b"", {"detail": tail[0]}
    return result["status"], body, result


def run_invocation(argv: list[str], wl: Workload, trace: bool = False, src: Path = ROOT / "src") -> Invocation:
    status, body, result = run_child(argv, wl.limit_s, wl.mem_cap, trace, src)
    inv = Invocation(argv, status, result.get("detail", ""), result.get("setup_s"), wl.limit_s)
    inv.maxrss_kb = result.get("maxrss_kb", 0)
    if status != "ok":
        return inv
    inv.spans = result.get("spans", {})
    if result["rc"] != 0:
        inv.status, inv.detail = "exit code", f"exit code {result['rc']}, expected 0"
        return inv
    problem = check_report(argv, body)
    if problem is not None:
        inv.status, inv.detail = problem
        return inv
    inv.work_s = result["work_s"]
    return inv


# ---------------------------------------------------------------------------
# Correctness: the recorded digest, then semantic checks for any input.
# ---------------------------------------------------------------------------

_FACTOR = re.compile(r"\(([^()]*)\)(?:\^(\d+))?")


def _poly_degree(text: str) -> int:
    return max(int(t[2:]) if t.startswith("x^") else int(t == "x") for t in text.split("+"))


def _gcd_problem(block: dict) -> str | None:
    text = block["gcd_factored"]
    degree = sum(_poly_degree(g) * int(e or 1) for g, e in _FACTOR.findall(text))
    v = block["field"]["q"] - 1
    if degree != v - block["linear_complexity"]:
        return f"q={v + 1}: gcd degrees sum to {degree}, not v - LC = {v - block['linear_complexity']}"
    return None


def _predict_problem(pred: dict) -> str | None:
    p, m, k, params = pred["p"], pred["m"], pred["k"], pred["params"]
    if pred["regime"] == "index2":
        a, b, h, ell = params["a"], params["b_abs"], params["h"], params["ell"]
        if 4 * p**h != a * a + ell * b * b or a % p == 0 or b % p == 0:
            return f"4*{p}^{h} = a^2 + {ell} b^2 with p not dividing ab fails for a={a}, b={b}"
    elif pred["regime"] == "pure":
        t, s = params["t"], params["s"]
        if pow(p, t, k) != k - 1 or m != 2 * t * s:
            return f"pure parameters t={t}, s={s} do not satisfy p^t = -1 mod k, m = 2ts"
    return None


def check_report(argv: list[str], body: bytes) -> tuple[str, str] | None:
    """(status, detail) for a wrong report, None for a correct one."""
    want = EXPECTED_DIGESTS.get(" ".join(argv))
    if want is not None and hashlib.sha256(body).hexdigest() != want:
        return "digest", "report differs from the one recorded at the seed commit"
    report = json.loads(body)
    if argv[0] == "grid":
        blocks = report["fields"]
        problems = [f"summary.mismatches = {report['summary']['mismatches']}"] if report["summary"]["mismatches"] else []
        problems += [f"q={b['field']['q']}: mismatches" for b in blocks if b["summary"]["mismatches"]]
        problems += [pr for b in blocks if "gcd_factored" in b and (pr := _gcd_problem(b))]
        problem = problems[0] if problems else None
    elif argv[0] == "gcd":
        problem = _gcd_problem(report)
    else:
        problem = _predict_problem(report)
    return ("check", problem) if problem else None


EXPECTED_DIGESTS = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}

# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_rate": "fraction",
}


SPAN_UNITS = {"calls": "count", "self_s": "s", "rss_growth_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {f"{s}.{m}": unit for s in spans.SPAN_NAMES for m, unit in SPAN_UNITS.items()}
    units.update(
        {
            "fields.build_field.q_sum": "count",
            "gf2poly.gcd.in_bits": "bits",
            "predict.represent.scan_len": "steps",
            "cyclotomic.ideal_factors.hit_ratio": "fraction",
            "cyclotomic.jacobi_K.reuse_ratio": "fraction",
            "trace.overhead_s": "s",
        }
    )
    return units


def pass_wall(invs: list[Invocation]) -> float:
    return sum(inv.work_s for inv in invs)


def end_to_end(passes: list[list[Invocation]], setups: list[float]) -> dict[str, float]:
    invs = [inv for p in passes for inv in p]
    return {
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "latency_p50_ms": 1000 * statistics.median(inv.work_s for inv in invs),
        "peak_rss_mb": max(inv.maxrss_kb for inv in invs) / 1024,
        "setup_s": statistics.median(setups),
        "ok_rate": sum(not inv.failed for inv in invs) / len(invs),
    }


def layer_pass(invs: list[Invocation]) -> dict[str, float]:
    """Per-layer values of one traced pass: sums over its invocations, RSS growth as the max."""
    out: dict[str, float] = {}
    for inv in invs:
        for name, value in inv.spans.items():
            if name.endswith(".rss_growth_mb"):
                out[name] = max(out.get(name, 0.0), value)
            else:
                out[name] = out.get(name, 0) + value
    hits, lookups = out.pop("cyclotomic.ideal_factors.hits", 0), out.pop("cyclotomic.ideal_factors.lookups", 0)
    distinct, calls = out.pop("cyclotomic.jacobi_K.distinct", 0), out.get("cyclotomic.jacobi_K.calls", 0)
    out["cyclotomic.ideal_factors.hit_ratio"] = hits / lookups if lookups else 0.0
    out["cyclotomic.jacobi_K.reuse_ratio"] = 1 - distinct / calls if calls else 0.0
    return out


def per_layer(plain: list[list[Invocation]], traced: list[list[Invocation]]) -> dict[str, float]:
    layers = [layer_pass(p) for p in traced]
    out = {name: statistics.median(layer.get(name, 0) for layer in layers) for name in per_layer_units()}
    out["trace.overhead_s"] = statistics.median(map(pass_wall, traced)) - statistics.median(map(pass_wall, plain))
    return out


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    argvs = invocations(name, seed)
    # warm-up import (writes bytecode caches), then timed set-up probes
    run_child([], wl.limit_s, wl.mem_cap)
    setups = [run_child([], wl.limit_s, wl.mem_cap)[2]["setup_s"] for _ in range(SETUP_PROBES)]
    plain: list[list[Invocation]] = []
    traced: list[list[Invocation]] = []
    start = time.perf_counter()
    while True:  # stop before a pass that would end past --seconds
        t0 = time.perf_counter()
        plain.append([run_invocation(argv, wl) for argv in argvs])
        if trace:
            traced.append([run_invocation(argv, wl, trace=True) for argv in argvs])
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    invs = [inv for p in plain + traced for inv in p]
    setups += [inv.setup_s for inv in invs if inv.setup_s is not None]
    if trace:
        units, values = per_layer_units(), per_layer(plain, traced)
    else:
        units, values = END_TO_END, end_to_end(plain, setups)

    failed = [inv for inv in invs if inv.failed]
    print(f"workload {name}, seed {seed}: {len(plain)} pass(es) of {len(argvs)} invocation(s)"
          f"{' plus as many traced' if trace else ''}, {len(failed)} of {len(invs)} failed")
    for inv in failed:
        print(f"  FAILED [{inv.status}] slce {' '.join(inv.argv)}: {inv.detail}")
    if not trace:
        print(f"  {'fail_rate':<44} {len(failed) / len(invs):>14.6g} fraction")
    for metric, value in values.items():
        print(f"  {metric:<44} {value:>14.6g} {units[metric]:<8} {spans.COUNT_SOURCES.get(metric, '')}".rstrip())
    return {
        "correct": not any(inv.wrong_output for inv in invs),
        "attempted": len(invs),
        "failed": len(failed),
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "slce" / "cli.py").is_file():
        print(f"error: no slce package under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if not EXPECTED_DIGESTS:
        print(f"error: missing {EXPECTED}", file=sys.stderr)
        return 2
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
