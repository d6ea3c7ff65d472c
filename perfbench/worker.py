"""Run one psqlab CLI command in this fresh process and record what it cost.

Usage: worker.py JOB_JSON, where the job names the op id, the CLI argv, the
result file to write, whether to trace, the address-space cap in MB and the
parent's CLOCK_MONOTONIC reading just before it started this process.

The worker caps its own address space with setrlimit before importing
numpy, so a runaway op ends in MemoryError, which is reported as a failed
op, instead of taking memory from the rest of the machine.  The parent pins
BLAS/OpenMP threads to 1 in the environment and enforces the op's timeout.
An empty argv only imports psqlab (a warm-up).
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def main() -> int:
    job = json.loads(sys.argv[1])
    cap = int(job["mem_cap_mb"]) << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    import psqlab.cli as cli

    setup_s = time.monotonic() - job["spawned_at"]
    out = {"setup_s": setup_s, "exit_code": None, "status": "ok", "spans": [], "absent": []}
    argv = job["argv"]
    if argv:
        tracer = None
        if job["trace"]:
            import spans

            tracer = spans.Tracer(job["op"])
            out["absent"] = spans.install(tracer)
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                out["exit_code"] = cli.run(argv)
            else:
                out["exit_code"] = tracer.call(spans.ROOT_SPAN, cli.run, (argv,), {})
        except MemoryError:
            out["status"] = "memory_cap"
        except Exception:
            out["status"] = "crash"
            sys.stderr.write(traceback.format_exc())
        end = time.perf_counter_ns()
        sys.stdout.flush()
        out["op_s"] = (end - start) / 1e9
        if tracer is not None:
            out["spans"] = tracer.finished()
            if out["spans"]:
                root = out["spans"][0]
                out["op_s"] = (root.end_ns - root.start_ns) / 1e9
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(job["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
