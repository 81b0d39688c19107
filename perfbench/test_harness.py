"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

import contextlib
import io
import json
import math
import sys

import pytest

import run
import spans

sys.path.insert(0, str(run.ROOT / "src"))


def test_aggregate_charges_time_and_rss_to_innermost_span():
    # name, start, end, parent, rss_start_kb, rss_end_kb
    trace = [
        ["A", 0.0, 10.0, -1, 100, 400],
        ["B", 1.0, 4.0, 0, 150, 250],
        ["C", 2.0, 3.0, 1, 160, 200],
        ["B", 5.0, 6.0, 0, 300, 300],
        ["D", 7.0, 9.5, 0, 350, 390],
    ]
    agg = spans.aggregate(trace)
    assert agg == {"A": (1, 3.5, 160), "B": (2, 3.0, 60), "C": (1, 1.0, 40), "D": (1, 2.5, 40)}
    assert sum(s for _, s, _ in agg.values()) == 10.0
    assert sum(kb for _, _, kb in agg.values()) == 400 - 100


def _report(argv):
    import slce.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = slce.cli.main(argv)
    return rc, buf.getvalue()


def test_install_passes_through_and_skips_missing_names(monkeypatch):
    import slce.cyclotomic

    argv = ["predict", "-p", "317", "-m", "11", "-k", "23", "--json"]
    plain = _report(argv)
    monkeypatch.delattr(slce.cyclotomic, "criterion")
    rec = spans.Recorder()
    installed = spans.install(rec)
    try:
        traced = _report(argv)
    finally:
        for owner, leaf, original in installed:
            setattr(owner, leaf, original)
    assert traced == plain
    summary = rec.summary()
    assert summary["cli.main.calls"] == 1
    assert summary["predict.represent.calls"] == 1
    assert summary["predict.represent.scan_len"] == math.isqrt(4 * 317**3)
    assert summary["cyclotomic.criterion.calls"] == 0
    assert sum(summary[f"{name}.self_s"] for name in spans.SPAN_NAMES) == pytest.approx(rec.spans[0][2] - rec.spans[0][1])


def _fake_package(tmp_path, body):
    pkg = tmp_path / "src" / "slce"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(f"def main(argv=None):\n    {body}\n")
    return tmp_path / "src"


def test_forced_time_limit_is_a_failure_charged_the_limit(tmp_path):
    src = _fake_package(tmp_path, "while True: pass")
    wl = run.Workload(None, 1.0, 512 * run.MB)
    inv = run.run_invocation(["predict"], wl, src=src)
    assert (inv.status, inv.failed, inv.wrong_output, inv.work_s) == ("timeout", True, False, 1.0)
    ok = run.Invocation(["predict"], "ok", work_s=0.25, maxrss_kb=2048)
    metrics = run.end_to_end([[inv, ok]], [0.1, 0.3, 0.2])
    assert metrics == {"wall_s": 1.25, "latency_p50_ms": 625.0, "peak_rss_mb": 2.0, "setup_s": 0.2, "ok_rate": 0.5}


def test_memory_cap_is_a_failure_charged_the_limit(tmp_path):
    src = _fake_package(tmp_path, "bytearray(1 << 31)")
    inv = run.run_invocation(["predict"], run.Workload(None, 5.0, 512 * run.MB), src=src)
    assert (inv.status, inv.failed, inv.wrong_output, inv.work_s) == ("memory", True, False, 5.0)


def test_checks_reject_wrong_reports():
    block = {"field": {"q": 25}, "gcd_factored": "(x+1)^4 (x^2+x+1)^2", "linear_complexity": 16}
    assert run._gcd_problem(block) is None
    assert run._gcd_problem(dict(block, linear_complexity=17)) is not None
    pred = {"p": 317, "m": 11, "k": 23, "regime": "index2", "params": {"a": 0, "b_abs": 0, "h": 3, "ell": 23}}
    assert run._predict_problem(pred) is not None
    argv = ["predict", "-p", "317", "-m", "11", "-k", "23", "--json"]
    rc, body = _report(argv)
    assert rc == 0 and run.check_report(argv, body.encode()) is None
    assert run.check_report(argv, body.replace('"h": 3', '"h": 3 ').encode())[0] == "digest"


def test_benchmark_json_names_what_run_py_reports():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
