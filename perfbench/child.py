"""One CLI invocation in a fresh process, as a user runs it.

    python3 child.py SRC_DIR MEM_CAP_BYTES CPU_LIMIT_S TRACE [ARG ...]

Caps this process's address space and CPU time, imports `slce.cli` from
SRC_DIR (timed: that is the set-up every CLI call pays), optionally
installs the span recorder, and calls `slce.cli.main(ARGS)` with stdout
captured.  With no ARGS it only imports.  It writes the captured report,
then one JSON line: exit code, set-up and work seconds, ru_maxrss, and the
span summary when tracing.  A MemoryError under the cap is reported as
status "memory"; any other exception ends the process with a traceback.
"""

import contextlib
import io
import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    src, mem_cap, cpu_limit, trace, cli_args = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1", argv[4:]
    resource.setrlimit(resource.RLIMIT_AS, (mem_cap, mem_cap))
    resource.setrlimit(resource.RLIMIT_CPU, (cpu_limit, cpu_limit + 1))
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import slce.cli

    setup_s = time.perf_counter() - t0
    result = {"status": "ok", "rc": 0, "setup_s": setup_s, "work_s": 0.0}
    buf = io.StringIO()
    if cli_args:
        rec = None
        if trace:
            import spans

            rec = spans.Recorder()
            spans.install(rec)
        t1 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                result["rc"] = slce.cli.main(cli_args)
        except MemoryError:
            result["status"] = "memory"
        result["work_s"] = time.perf_counter() - t1
        if rec is not None:
            result["spans"] = rec.summary()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(buf.getvalue())
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
