import concurrent.futures
import hashlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import field_bundle
from oracles import divides, grid_report
import slce
from slce.cli import _least_odd_prime_power_above, _odd_prime_powers_upto, _verify_rows, main
from slce.cyclotomic import ideal_factors
from slce.gf2poly import gcd_factors, to_str


def run(argv):
    buf = io.StringIO()
    rc = main(argv, out=buf)
    return rc, buf.getvalue()


def test_seq_q5():
    rc, out = run(["seq", "-p", "5", "-m", "1"])
    assert rc == 0
    assert out == "1100\n"


def test_seq_rejects_even_p(capsys):
    rc, _ = run(["seq", "-p", "2", "-m", "1"])
    assert rc == 2
    assert "odd" in capsys.readouterr().err


def test_seq_autocorr_csv():
    rc, out = run(["seq", "-p", "5", "-m", "1", "--autocorr"])
    assert rc == 0
    assert out == "tau,C_tau\n0,4\n1,0\n2,-4\n3,0\n"


def test_seq_out_file(tmp_path):
    target = tmp_path / "seq.txt"
    rc, out = run(["seq", "-p", "5", "-m", "1", "--out", str(target)])
    assert rc == 0 and out == ""
    assert target.read_text() == "1100\n"


def test_seq_out_to_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "seq.txt"
    rc, out = run(["seq", "-p", "5", "-m", "1", "--out", str(target)])
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err.splitlines()[-1] == f"error: cannot write {target}: No such file or directory"
    assert not target.parent.exists()


def test_gcd_q25():
    rc, out = run(["gcd", "-p", "5", "-m", "2"])
    assert rc == 0
    assert "gcd = (x+1)^4" in out
    assert "linear complexity = 20" in out


def test_gcd_q729_json():
    rc, out = run(["gcd", "-p", "3", "-m", "6", "--json"])
    assert rc == 0
    blob = json.loads(out)
    assert blob["gcd_factored"] == (
        "(x+1)^2 (x^3+x+1)^4 (x^3+x^2+1)^4"
        " (x^12+x^11+x^10+x^9+x^8+x^7+x^6+x^5+x^4+x^3+x^2+x+1)^2"
    )
    assert blob["linear_complexity"] == 678


def test_gcd_q6561():
    rc, out = run(["gcd", "-p", "3", "-m", "8", "--json"])
    assert rc == 0
    blob = json.loads(out)
    assert blob["gcd_factored"] == "(x+1)^26 (x^4+x^3+x^2+x+1)^18"


def test_predict_reference():
    rc, out = run(["predict", "-p", "13", "-m", "11", "-k", "23", "--json"])
    assert rc == 0
    blob = json.loads(out)
    assert blob["divides"] is True
    assert blob["regime"] == "index2"
    assert blob["params"]["h"] == 3 and blob["params"]["a"] == 74
    assert blob == json.load(open("fixtures/index2_prediction.json"))


def test_predict_pure_cases():
    rc, out = run(["predict", "-p", "19", "-m", "2", "-k", "5"])
    assert rc == 0 and "divides [pure]" in out
    rc, out = run(["predict", "-p", "7", "-m", "4", "-k", "5"])
    assert rc == 0 and "does not divide" in out


def test_predict_out_of_scope(capsys):
    rc, _ = run(["predict", "-p", "5", "-m", "6", "-k", "31"])
    assert rc == 2
    assert "no closed form in scope" in capsys.readouterr().err


def test_predict_invalid_k(capsys):
    rc, _ = run(["predict", "-p", "5", "-m", "2", "-k", "4"])
    assert rc == 2
    capsys.readouterr()
    rc, _ = run(["predict", "-p", "5", "-m", "2", "-k", "7"])
    assert rc == 2
    assert capsys.readouterr().err == "error: k = 7 does not divide q - 1 = 24\n"


@pytest.mark.parametrize(
    "p,message",
    [("9", "error: p = 9 is not prime\n"), ("2", "error: p must be an odd prime\n"), ("-3", "error: p = -3 is not prime\n")],
)
def test_predict_rejects_a_p_that_is_not_an_odd_prime(capsys, p, message):
    rc, out = run(["predict", "-p", p, "-m", "2", "-k", "5"])
    assert (rc, out, capsys.readouterr().err) == (2, "", message)


def test_predict_invalid_k_with_huge_q(capsys):
    # q - 1 = 3^100001 - 1 has 47,713 digits, past Python's int-to-str limit
    rc, _ = run(["predict", "-p", "3", "-m", "100001", "-k", "7"])
    assert rc == 2
    assert capsys.readouterr().err == "error: k = 7 does not divide q - 1 = 3^100001 - 1\n"


@pytest.mark.parametrize("command", [["seq"], ["gcd"], ["jacobi", "-k", "5"]])
def test_a_q_too_long_to_print_is_named_in_the_size_bound_message(capsys, command):
    # q = 3^100001 has 47,713 digits, past Python's int-to-str limit
    rc, out = run([command[0], "-p", "3", "-m", "100001", *command[1:]])
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err == "error: q = p^m = 3^100001 exceeds the size bound 2000000\n"


@pytest.mark.parametrize(
    "command,message",
    [
        (["seq"], "q = p^m = 3^100000000 exceeds the size bound 2000000"),
        (["gcd"], "q = p^m = 3^100000000 exceeds the size bound 2000000"),
        (["jacobi", "-k", "5"], "q = p^m = 3^100000000 exceeds the size bound 2000000"),
        (["verify", "-k", "5", "--predict-only"], "q = 3^100000000 has more than 4300 decimal digits"),
    ],
)
def test_a_huge_m_is_refused_before_q_is_formed(capsys, command, message):
    # 3^(10^8) has 158 million bits; forming it alone takes seconds
    t0 = time.perf_counter()
    rc, out = run([command[0], "-p", "3", "-m", str(10**8), *command[1:]])
    assert time.perf_counter() - t0 < 1.0
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_gcd_at_7_7_decides_its_two_largest_d_by_the_certificate(monkeypatch):
    # d = 137,257 and 411,771 divide the odd part of 7^7 - 1, with 52 and 104 orbits of <2, 7>
    verdicts = {}
    certificate = slce.gf2poly._multiplier_certificate

    def record(r, d, *multipliers):
        verdicts[d] = certificate(r, d, *multipliers)
        return verdicts[d]

    monkeypatch.setattr(slce.gf2poly, "_multiplier_certificate", record)
    rc, out = run(["gcd", "-p", "7", "-m", "7", "--json"])
    assert rc == 0
    assert (json.loads(out)["gcd_factored"], json.loads(out)["linear_complexity"]) == ("1", 823542)
    assert verdicts == {137257: True, 411771: True}


def test_predict_rejects_ell_beyond_class_number_bound(capsys):
    # ell = 4294967543 > 2^32: the Dirichlet sum would run for hours
    t0 = time.perf_counter()
    rc, _ = run(["predict", "-p", "3", "-m", "2147483771", "-k", "4294967543"])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2
    assert capsys.readouterr().err == "error: ell = 4294967543 is not below the class-number bound 2^32\n"


def test_predict_index2_large_class_number_is_fast():
    # h = 7: a linear scan for 4p^h = a^2 + ell b^2 never finishes here
    t0 = time.perf_counter()
    rc, out = run(["predict", "-p", "229", "-m", "35", "-k", "71", "--json"])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 0
    params = json.loads(out)["params"]
    assert 4 * 229**7 == params["a"] ** 2 + 71 * params["b_abs"] ** 2


def _index2_branch_mod4(p, params, b_sign, s):
    # oracle: the signed branch value (-1)^(s-1) p^((e-h)s/2) ((a + b)/2)^s,
    # up to squares, formed in full and then reduced mod 4
    exponent = params["s"] - 1 + ((params["e"] - params["h"]) * params["s"] // 2 if p % 4 == 3 else 0)
    base = (params["a"] + b_sign * params["b_abs"]) // 2
    return (-1) ** (exponent % 2) * base**s % 4


@pytest.mark.parametrize("m", [35000, 350000000])
def test_predict_index2_at_large_s_is_fast_and_exact(m):
    # s = m/35 = 10^3 and 10^7: each branch value has over 4300 digits, so
    # it is reduced mod 4 by a modular power and printed as a power
    t0 = time.perf_counter()
    rc, out = run(["predict", "-p", "229", "-m", str(m), "-k", "71", "--json"])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 0
    blob = json.loads(out)
    params = blob["params"]
    s = params["s"]
    assert s == m // 35
    # base^s mod 4 depends on the parity of s alone once s >= 2, so the
    # oracle forms the full power at s = 1000 and at 2 + s % 2 beyond
    s_formed = s if s <= 1000 else 2 + s % 2
    branch = {b_sign: _index2_branch_mod4(229, params, b_sign, s_formed) for b_sign in (1, -1)}
    want = branch[1] == 3 if (branch[1] == 3) == (branch[-1] == 3) else "indeterminate"
    assert blob["divides"] == want
    for b_sign, label in ((1, "+b"), (-1, "-b")):  # p = 1 mod 4 and s even: the sign is (-1)^(s-1) = -1
        base = (params["a"] + b_sign * params["b_abs"]) // 2
        assert f"value({label})=-({base})^{s}={branch[b_sign]} (mod 4)" in blob["condition_trace"]


def test_predict_index2_trace_prints_values_up_to_4300_digits_in_full():
    # s = 100 (the values have about 800 digits): the trace of the formula
    # with each branch value formed and printed in full
    rc, out = run(["predict", "-p", "229", "-m", "3500", "-k", "71", "--json"])
    assert rc == 0
    blob = json.loads(out)
    params = blob["params"]
    a, b_abs = params["a"], params["b_abs"]
    values = {b: -(((a + b) // 2) ** 100) for b in (b_abs, -b_abs)}  # (-1)^(s-1) = -1, p = 1 mod 4
    want = (
        f"ell=71 r=1 e=35 s=100 h=7 a={a} b=+/-{b_abs}; "
        f"value(+b)={values[b_abs]}={values[b_abs] % 4} (mod 4), "
        f"value(-b)={values[-b_abs]}={values[-b_abs] % 4} (mod 4); divides iff 3 (mod 4)"
    )
    assert blob["condition_trace"] == want
    assert blob["divides"] is (values[b_abs] % 4 == 3)
    assert values[b_abs] % 4 == values[-b_abs] % 4


def test_predict_index2_trace_switches_to_a_power_past_4300_digits():
    # at ell = 23, p = 13 the branch base 43 has 4300 digits in its 2632nd
    # power and 4301 in its 2633rd
    for s, full in ((2632, True), (2633, False)):
        rc, out = run(["predict", "-p", "13", "-m", str(11 * s), "-k", "23", "--json"])
        assert rc == 0
        trace = json.loads(out)["condition_trace"]
        value = (-1) ** (s - 1) * 43**s
        assert (abs(value) < 10**4300) is full and abs(value) >= 10**4299
        shown = str(value) if full else f"{'-' if s % 2 == 0 else ''}(43)^{s}"
        assert f"value(+b)={shown}={value % 4} (mod 4)" in trace


def test_every_recorded_benchmark_report_is_reproduced():
    # perfbench/expected.json holds the sha256 of every report the benchmark
    # can request: grid --q-max 3000, two gcd fields and 61 predict cases
    expected = json.loads(Path("perfbench/expected.json").read_text())
    assert len(expected) == 64
    for argv, digest in expected.items():
        rc, out = run(argv.split())
        assert rc == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_jacobi_fixture():
    rc, out = run(["jacobi", "-p", "19", "-m", "2", "-k", "5"])
    assert rc == 0
    assert out == open("fixtures/jacobi_q361_k5.json").read()
    blob = json.loads(out)
    assert blob["basis"] == "power" and blob["coeffs"] == [19, 0, 0, 0]


def test_verify_reference_rows():
    rc, out = run(["verify", "-p", "5", "-m", "2", "-k", "3", "--json"])
    assert rc == 0
    blob = json.loads(out)
    row = blob["rows"][0]
    assert row["criterion_all"] is False
    assert row["direct_all"] is False
    assert row["prediction"]["divides"] is False
    assert row["prediction_match"] is True
    assert blob["summary"]["mismatches"] == 0

    rc, out = run(["verify", "-p", "3", "-m", "6", "-k", "7", "--json"])
    blob = json.loads(out)
    row = blob["rows"][0]
    assert [f["criterion"] for f in row["factors"]] == [True, True]
    assert row["direct_all"] is True and row["prediction_match"] is True


def test_verify_q361_matches_fixture():
    rc, out = run(["verify", "-p", "19", "-m", "2", "-k", "5", "--json"])
    assert rc == 0
    assert out == open("fixtures/verify_q361_k5.json").read()


def test_verify_csv_mode():
    rc, out = run(["verify", "-p", "3", "-m", "6", "-k", "7", "--csv"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,k,g,criterion,direct,match,prediction,prediction_match"
    assert lines[1] == "729,7,x^3+x+1,True,True,True,True,True"
    rc, _ = run(["verify", "-p", "3", "-m", "6", "--csv", "--json"])
    assert rc == 2  # mutually exclusive formats


def test_verify_all_k():
    rc, out = run(["verify", "-p", "3", "-m", "4", "--json"])
    assert rc == 0
    blob = json.loads(out)
    assert [row["k"] for row in blob["rows"]] == [5]  # odd divisors >= 3 of 80


def test_verify_bound_and_predict_only(capsys):
    rc, _ = run(["verify", "-p", "13", "-m", "11", "-k", "23"])
    assert rc == 2
    assert "exceeds the direct-verification bound" in capsys.readouterr().err
    rc, out = run(["verify", "-p", "13", "-m", "11", "-k", "23", "--predict-only", "--json"])
    assert rc == 0
    blob = json.loads(out)
    assert blob["rows"][0]["direct_all"].startswith("skipped: q = 13^11 infeasible")
    assert blob["rows"][0]["prediction"]["divides"] is True


@pytest.mark.parametrize(
    "pm,message",
    [
        (["-p", "2", "-m", "20"], "error: p must be an odd prime\n"),
        (["-p", "1000001", "-m", "2"], "error: p = 1000001 is not prime\n"),
        (["-p", "3", "-m", "-1", "--q-max", "0"], "error: m = -1 must be a positive integer\n"),
    ],
)
def test_verify_predict_only_checks_p_and_m(capsys, pm, message):
    rc, out = run(["verify", *pm, "--predict-only"])
    assert (rc, out, capsys.readouterr().err) == (2, "", message)
    rc, _ = run(["verify", *pm, "--q-max", str(10**12)])  # a direct run says the same
    assert (rc, capsys.readouterr().err) == (2, message)


def test_verify_predict_only_checks_a_large_p_quickly():
    t0 = time.perf_counter()
    rc, out = run(["verify", "-p", str(2**61 - 1), "-m", "1", "-k", "3", "--predict-only", "--json"])
    assert time.perf_counter() - t0 < 2.0
    assert rc == 0 and json.loads(out)["field"]["q"] == 2**61 - 1


@pytest.mark.parametrize("p,m", [(3, 97), (5, 61)])
def test_verify_all_k_refuses_an_unfactored_q_minus_1(capsys, p, m):
    # trial division of q - 1 stops at 2^20 and leaves a cofactor that may be composite
    t0 = time.perf_counter()
    rc, out = run(["verify", "-p", str(p), "-m", str(m), "--predict-only"])
    assert time.perf_counter() - t0 < 2.0
    assert (rc, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: q - 1 = {p}^{m} - 1 is not factored") and "-k" in err


@pytest.mark.parametrize("command", [["predict"], ["verify", "--predict-only"]])
def test_k_beyond_trial_division_is_refused_quickly(capsys, command):
    # k | 3^97 - 1 has no prime factor below 2^20, so neither k nor phi(k) is factored
    k = 124545264471348586573478659339011644717351
    t0 = time.perf_counter()
    rc, out = run([command[0], "-p", "3", "-m", "97", "-k", str(k), *command[1:]])
    assert time.perf_counter() - t0 < 2.0
    assert (rc, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot find the order of 3 modulo {k}: trial division to 1048576")


@pytest.mark.parametrize("fmt", [[], ["--json"], ["--csv"]])
def test_verify_refuses_a_q_too_long_to_print(capsys, fmt):
    # Python converts an int of at most 4300 decimal digits to str by default: 3^9012 has 4300
    rc, out = run(["verify", "-p", "3", "-m", "9012", "-k", "5", "--predict-only", *fmt])
    assert rc == 0 and str(3**9012) in out
    for m in (9013, 10000):
        rc, out = run(["verify", "-p", "3", "-m", str(m), "-k", "5", "--predict-only", *fmt])
        assert (rc, out) == (2, "")
        assert capsys.readouterr().err.startswith(f"error: q = 3^{m} has more than 4300 decimal digits")


def test_prime_k_beyond_trial_division_reaches_the_predictor(capsys):
    # k = 4398046511119 is prime, 43 bits: trial division stops at 2^20 and Miller-Rabin certifies it
    rc, out = run(["predict", "-p", "131941395333571", "-m", "1", "-k", "4398046511119"])
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err.startswith("no closed form in scope")


def test_verify_all_k_predict_only_factors_q_minus_1_exactly():
    rc, out = run(["verify", "-p", "3", "-m", "40", "--predict-only", "--json"])
    assert rc == 0
    assert json.loads(out)["summary"]["rows"] == 143


def test_verify_invalid_k(capsys):
    rc, _ = run(["verify", "-p", "5", "-m", "2", "-k", "5"])
    assert rc == 2


def _refuse(*_):
    raise AssertionError("called before the arguments were checked")


def test_verify_rejects_a_bad_k_before_building_the_field(monkeypatch, capsys):
    monkeypatch.setattr(slce.cli, "build_field", _refuse)
    rc, out = run(["verify", "-p", "7", "-m", "7", "-k", "4", "--q-max", "2000000"])
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err == "error: k = 4 is not an odd divisor >= 3 of q - 1 = 823542\n"


def test_jacobi_rejects_a_bad_k_before_building_the_field(monkeypatch, capsys):
    monkeypatch.setattr(slce.cli, "build_field", _refuse)
    rc, out = run(["jacobi", "-p", "1999993", "-m", "1", "-k", "4"])
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err == "error: k = 4 must be odd\n"
    # the size bound is checked first
    rc, out = run(["jacobi", "-p", "3", "-m", "14", "-k", "4"])
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err == "error: q = p^m = 4782969 exceeds the size bound 2000000\n"


def test_grid_refuses_a_q_above_the_direct_bound_before_any_row(monkeypatch, capsys):
    monkeypatch.setattr(slce.cli, "_verify_rows", _refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse)
    rc, out = run(["grid", "--q-max", "20100"])
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: grid reaches q = 20011 above the direct bound 20000;"
        " pass --predict-only to include prediction-only rows\n"
    )
    assert multiprocessing.active_children() == []


def test_least_odd_prime_power_above_a_bound_is_the_first_listed():
    listed = [q for q, _, _ in _odd_prime_powers_upto(3002)]
    for bound in range(3000):
        for q_max in (bound, bound + 1, bound + 2, 3000):
            want = next((q for q in listed if bound < q <= q_max), None)
            assert _least_odd_prime_power_above(bound, q_max) == want, (bound, q_max)


def test_grid_refuses_a_huge_q_max_without_listing_the_fields(monkeypatch, capsys):
    monkeypatch.setattr(slce.cli, "_odd_prime_powers_upto", _refuse)
    t0 = time.perf_counter()
    rc, out = run(["grid", "--q-max", str(10**12)])
    assert time.perf_counter() - t0 < 1.0
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: grid reaches q = 20011 above the direct bound 20000;")


@pytest.mark.parametrize("q_max", [slce.cli.GRID_BOUND + 1, 10**12])
def test_grid_predict_only_refuses_a_q_max_above_its_bound_at_once(monkeypatch, capsys, q_max):
    # listing the fields alone would take about 0.7 s per 10^6 (days at 10^12)
    monkeypatch.setattr(slce.cli, "_odd_prime_powers_upto", _refuse)
    t0 = time.perf_counter()
    rc, out = run(["grid", "--q-max", str(q_max), "--predict-only"])
    assert time.perf_counter() - t0 < 1.0
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err == f"error: --q-max {q_max} exceeds the grid bound 1000000\n"


def test_predict_index2_trace_follows_a_lower_int_printing_limit():
    # as under PYTHONINTMAXSTRDIGITS=640: the branch values of about 800 digits print as powers
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no integer-printing limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rc, out = run(["predict", "-p", "229", "-m", "3500", "-k", "71"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert rc == 0
    assert "value(+b)=-(-97770973)^100=3 (mod 4), value(-b)=-(-131263633)^100=3 (mod 4)" in out


# grid runs its fields on one forked worker per CPU in os.sched_getaffinity(0); one CPU runs them in-process
SERIAL, POOLED = {0}, {0, 1}


@pytest.mark.parametrize("fmt", [["--json"], ["--csv"], []])
def test_grid_report_is_the_same_from_the_pool_and_in_process(monkeypatch, fmt):
    reports = []
    for cpus in (SERIAL, POOLED):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        reports.append(run(["grid", "--q-max", "300", *fmt]))
        assert multiprocessing.active_children() == []
    assert reports[0] == reports[1]
    assert reports[0][0] == 0 and reports[0][1]


_SECONDS = re.compile(r'(_s(?:": |=))[-+.e0-9]+')  # a timing value, in JSON or on a `# timings` line


@pytest.mark.parametrize("q_max", [300, 2, 3])  # 2: no field, "fields": []; 3: one field
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("timings", [False, True])
def test_grid_streams_the_report_that_assembling_it_whole_gives(monkeypatch, capsys, q_max, fmt, timings):
    expected = [_SECONDS.sub(r"\1T", text) for text in grid_report(q_max, fmt, timings)]
    argv = ["grid", "--q-max", str(q_max), *{"json": ["--json"], "csv": ["--csv"], "text": []}[fmt]]
    for cpus in (SERIAL, POOLED):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        rc, out = run(argv + ["--timings"] * timings)
        assert rc == 0
        assert [_SECONDS.sub(r"\1T", text) for text in (out, capsys.readouterr().err)] == expected
        assert multiprocessing.active_children() == []


class _Discard:
    """An output that keeps only the number of characters written to it."""

    def __init__(self):
        self.length = 0

    def write(self, text):
        self.length += len(text)


def test_grid_never_holds_the_whole_report(monkeypatch):
    # in one process the rendered blocks are about 1.4 times the report at their peak; one
    # json.dumps of a dict of every block peaked at 7.4 times, with the dict and its chunk list
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: SERIAL)
    argv = ["grid", "--q-max", "1000", "--json"]
    assert main(argv, out=_Discard()) == 0  # fills the per-k caches, which outlive the call
    sink = _Discard()
    tracemalloc.start()
    try:
        rc = main(argv, out=sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and sink.length > 400_000
    assert peak < 3 * sink.length


def test_grid_pool_runs_the_fields_in_worker_processes(monkeypatch):
    real = slce.cli._verify_rows

    def tagged(p, m, ks, direct):
        block = real(p, m, ks, direct)
        block["_timings"]["pid"] = os.getpid()
        return block

    monkeypatch.setattr(slce.cli, "_verify_rows", tagged)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: POOLED)
    rc, out = run(["grid", "--q-max", "300", "--json", "--timings"])
    assert rc == 0
    pids = {block["timings"]["pid"] for block in json.loads(out)["fields"]}
    assert os.getpid() not in pids and 1 <= len(pids) <= 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [SERIAL, POOLED])
def test_grid_error_in_a_field_exits_2_on_both_paths(monkeypatch, capsys, cpus):
    real = slce.cli._verify_rows

    def boom_at_q_121(p, m, ks, direct):
        if p**m == 121:
            raise ValueError("boom")
        return real(p, m, ks, direct)

    monkeypatch.setattr(slce.cli, "_verify_rows", boom_at_q_121)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    rc, out = run(["grid", "--q-max", "300", "--json"])
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err == "error: boom\n"
    assert multiprocessing.active_children() == []


def test_grid_pool_raises_the_error_of_the_smallest_q_as_the_serial_loop_does(monkeypatch, capsys):
    def boom(p, m, ks, direct):
        raise ValueError(f"boom at q = {p**m}")

    monkeypatch.setattr(slce.cli, "_verify_rows", boom)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: POOLED)
    rc, out = run(["grid", "--q-max", "300"])
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err == "error: boom at q = 3\n"
    assert multiprocessing.active_children() == []


def _running(pid):
    """Whether pid is a live process (a zombie has finished running)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_grid_workers_die_with_a_killed_cli_process(tmp_path):
    # each worker records its pid and stalls in its first field; the CLI
    # process is then SIGKILLed, so no `finally` of it runs
    script = f"""
import os, sys, time
import slce.cli
os.sched_getaffinity = lambda pid: {POOLED!r}
def stall(p, m, ks, direct):
    open(os.path.join({str(tmp_path)!r}, str(os.getpid())), "w").close()
    time.sleep(60)
slce.cli._verify_rows = stall
sys.exit(slce.cli.main(["grid", "--q-max", "300", "--json"]))
"""
    src = str(Path(slce.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    deadline = time.monotonic() + 30
    while len(list(tmp_path.iterdir())) < len(POOLED) and time.monotonic() < deadline:
        time.sleep(0.02)
    workers = [int(path.name) for path in tmp_path.iterdir()]
    proc.kill()
    try:
        out, err = proc.communicate(timeout=5)  # EOF: no worker holds stdout or stderr
        deadline = time.monotonic() + 5
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert [pid for pid in workers if _running(pid)] == []
    finally:
        for pid in filter(_running, workers):
            os.kill(pid, 9)
    assert len(workers) == len(POOLED)
    assert (out, err) == (b"", b"")


def test_grid_small_and_deterministic():
    rc1, out1 = run(["grid", "--q-max", "100", "--json"])
    rc2, out2 = run(["grid", "--q-max", "100", "--json"])
    assert rc1 == rc2 == 0
    assert out1 == out2  # byte-stable
    blob = json.loads(out1)
    assert blob["summary"]["mismatches"] == 0
    qs = [b["field"]["q"] for b in blob["fields"]]
    assert qs == sorted(qs)
    assert 81 in qs and 49 in qs


def test_grid_timings_per_field():
    rc, out = run(["grid", "--q-max", "30", "--json", "--timings"])
    assert rc == 0
    fields = json.loads(out)["fields"]
    assert [b["field"]["q"] for b in fields] == [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29]
    for block in fields:
        assert "_timings" not in block
        assert set(block["timings"]) == {"field_build_s", "sequence_and_gcd_s", "rows_s"}


def test_verify_splits_each_phi_d_once():
    # the gcd and the rows ask for the factors of the same Phi_d, and each d is split once;
    # at q = 3^6 the gcd's factors have orders 1, 7 and 13, and no row asks for d = 1
    ideal_factors.cache_clear()
    rc, out = run(["verify", "-p", "3", "-m", "6", "--json"])
    misses = ideal_factors.cache_info().misses
    assert rc == 0
    rows = {row["k"] for row in json.loads(out)["rows"]}
    gcd = gcd_factors(728, field_bundle(3, 6)[1].as_int(), 3)
    orders = {d for d in [1, *rows] if any(h in ideal_factors(d) for h, _ in gcd)}
    assert (rows, orders) == ({7, 13, 91}, {1, 7, 13})
    assert misses == len(rows | orders)


def test_direct_column_matches_division_oracle_to_3000():
    # the report reads g | S2 off the factors of gcd(x^v + 1, S2); the oracle divides S2 by g
    trivial = 0
    for q, p, m in _odd_prime_powers_upto(3000):
        block = _verify_rows(p, m, None, True)
        s2 = field_bundle(p, m)[2]
        trivial += block["gcd_factored"] == "1"
        for row in block["rows"]:
            gs = ideal_factors(row["k"])
            assert [f["g"] for f in row["factors"]] == [to_str(g) for g in gs]
            assert [f["direct"] for f in row["factors"]] == [divides(g, s2) for g in gs], (q, row["k"])
    assert trivial == 213  # gcd 1: every direct verdict comes from the empty set of factors


def test_grid_text_mode():
    rc, out = run(["grid", "--q-max", "30"])
    assert rc == 0
    assert "grid summary:" in out


def test_seed_free_flag_is_noop():
    rc1, out1 = run(["--seed-free", "seq", "-p", "5", "-m", "1"])
    rc2, out2 = run(["seq", "-p", "5", "-m", "1"])
    assert (rc1, out1) == (rc2, out2)


def test_usage_error_exit_code():
    rc, _ = run(["bogus"])
    assert rc == 2
    rc, _ = run(["seq", "-p", "5"])
    assert rc == 2


def test_timings_go_to_stderr_in_text_and_csv_mode(capsys):
    # one line per field on stderr; stdout is the report without --timings, byte for byte
    grid_qs = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29]
    for argv, qs in [(["verify", "-p", "5", "-m", "2"], [25]), (["grid", "--q-max", "30"], grid_qs)]:
        for fmt in [[], ["--csv"]]:
            plain = run(argv + fmt)
            assert capsys.readouterr().err == ""
            assert run(argv + fmt + ["--timings"]) == plain
            lines = capsys.readouterr().err.splitlines()
            assert [line.split()[:3] for line in lines] == [["#", "timings", f"q={q}"] for q in qs]
            for line in lines:
                spans = dict(item.split("=") for item in line.split()[3:])
                assert list(spans) == ["field_build_s", "sequence_and_gcd_s", "rows_s"]
                assert all(float(s) >= 0 for s in spans.values())
    run(["verify", "-p", "5", "-m", "2", "--json", "--timings"])
    assert capsys.readouterr().err == ""  # JSON carries its timings inline


def test_timings_flag_included_only_on_request():
    rc, out = run(["verify", "-p", "5", "-m", "2", "--json"])
    assert "timings" not in json.loads(out)
    rc, out = run(["verify", "-p", "5", "-m", "2", "--json", "--timings"])
    assert "timings" in json.loads(out)


class _ClosedPipe(io.StringIO):
    """An output whose reader has gone, as stdout is under `| head`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_output_ends_quietly(capsys):
    assert main(["verify", "-p", "3", "-m", "2000", "-k", "5", "--predict-only"], out=_ClosedPipe()) == 141
    assert capsys.readouterr().err == ""


def test_closed_output_ends_grid_quietly(monkeypatch, capsys):
    # the report is written in pieces, after the workers have finished: the first piece meets the closed pipe
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: POOLED)
    assert main(["grid", "--q-max", "300", "--json"], out=_ClosedPipe()) == 141
    assert capsys.readouterr().err == ""
    assert multiprocessing.active_children() == []


def test_closed_stdout_pipe_ends_without_a_traceback():
    # the read end is closed before the report is written, so the first flush fails
    src = str(Path(slce.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argv = [sys.executable, "-m", "slce.cli", "verify", "-p", "3", "-m", "2000", "-k", "5", "--predict-only"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=30) == 141
    assert err == b""
