"""Child processes of the benchmark.

``child.py setup WORKLOAD`` imports the library, performs the workload's
set-up and prints the CLOCK_MONOTONIC time in nanoseconds at which it was
ready; the parent subtracts the time it spawned the process.

``child.py cli STATS_PATH ARGS...`` installs the tracer, runs
``mwslice.cli.main(ARGS)`` and writes the trace aggregates to STATS_PATH,
exiting with the CLI's own exit code (an escaping exception still prints
its traceback and exits 1, as it does without the tracer).
"""

from __future__ import annotations

import json
import sys
import time


def setup(workload: str) -> None:
    if workload == "cli_session":
        import mwslice.cli  # noqa: F401  (what every CLI request imports)
        from mwslice import fields

        fields.discrete_log_table(fields.parse_field("Fq(10007)"))
    else:
        from workloads import IN_PROCESS

        IN_PROCESS[workload][1]()
    print(time.clock_gettime_ns(time.CLOCK_MONOTONIC), flush=True)


def traced_cli(stats_path: str, argv: list[str]) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    import mwslice.cli

    try:
        return mwslice.cli.main(argv)
    finally:
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2])
    elif mode == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
