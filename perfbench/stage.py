"""Run one pqforecast CLI stage the way the console script does, and time it.

    python3 perfbench/stage.py REPORT TRACE WORKLOAD STAGE -- CLI-ARGS...

The launcher imports ``pqforecast.cli`` and calls ``main(argv)``, exactly
as the installed ``pqforecast`` entry point does. It writes a JSON report
to REPORT with CLOCK_MONOTONIC stamps for interpreter start, import done
and ``main`` done, so the parent can split set-up from work, and the
process's peak resident set. With TRACE=1
it first wraps the layer boundaries (see ``tracer.py``) and adds the
recorded spans to the report; with TRACE=0 it imports nothing else.
"""

import json
import sys
import time

CLOCK = time.CLOCK_MONOTONIC


def peak_rss_kb() -> int:
    """This process's own peak resident set (VmHWM). wait4's ru_maxrss is
    not used: on Linux it also holds the spawning parent's resident set,
    which exec records when the child replaces the parent's address space."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main() -> int:
    started = time.clock_gettime(CLOCK)
    report_path, trace, workload, stage = sys.argv[1:5]
    if sys.argv[5] != "--":
        raise SystemExit("usage: stage.py REPORT TRACE WORKLOAD STAGE -- CLI-ARGS...")
    argv = sys.argv[6:]

    import pqforecast.cli as cli

    imported = time.clock_gettime(CLOCK)
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer(workload, stage)
        tracer.install()
        code = tracer.run_stage(cli.main, argv)
    else:
        code = cli.main(argv)
    finished = time.clock_gettime(CLOCK)

    report = {"started": started, "imported": imported, "finished": finished, "exit": code,
              "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        report.update(tracer.dump())
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
