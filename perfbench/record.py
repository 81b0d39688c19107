"""Record the sha256 digest of every report the benchmark can request.

    python3 perfbench/record.py

Runs each invocation of sweep and longperiod and every case of the
closedform pools once, requires exit code 0 and the semantic checks of
run.py, and writes perfbench/expected.json.  The committed file was
recorded at the commit that added the benchmark; run.py compares every
report against it byte for byte.
"""

import hashlib
import json
import sys

import run


def main() -> int:
    run.EXPECTED_DIGESTS.clear()
    cases = [(argv, run.WORKLOADS[name]) for name in ("sweep", "longperiod") for argv in run.invocations(name, 0)]
    cases += [(argv, run.WORKLOADS["closedform"]) for argv in run.closedform_pool_argvs()]
    digests = {}
    for argv, wl in cases:
        status, body, result = run.run_child(argv, wl.limit_s, wl.mem_cap)
        problem = run.check_report(argv, body) if status == "ok" and result["rc"] == 0 else (status, "")
        if problem is not None:
            print(f"error: slce {' '.join(argv)}: {problem}", file=sys.stderr)
            return 1
        digests[" ".join(argv)] = hashlib.sha256(body).hexdigest()
        print(f"{result['work_s']:8.3f} s  slce {' '.join(argv)}")
    run.EXPECTED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
