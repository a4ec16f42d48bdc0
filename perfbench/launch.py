"""Start one command, wait for it, and record its wall time and peak memory.

    python3 launch.py RECORD TIMEOUT_S -- COMMAND...

Linux carries a process's peak RSS across exec into the program it
execs, so a child's ``ru_maxrss`` is at least the peak of the process
that started it. The benchmark's own process grows while it builds the
oracle and reads snapshots; this launcher stays small, so the rusage it
reads with ``os.wait4`` is the command's own peak. The command inherits
stdout and stderr and is killed after TIMEOUT_S seconds. RECORD receives
``{"launch_ns", "end_ns", "exit_code", "maxrss_kb"}`` on the monotonic
clock, which every process on the machine shares.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time


def _kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def main(argv) -> int:
    record, timeout_s, separator, *command = argv
    if separator != "--" or not command:
        print("usage: launch.py RECORD TIMEOUT_S -- COMMAND...", file=sys.stderr)
        return 2
    launch = time.monotonic_ns()
    proc = subprocess.Popen(command)
    killer = threading.Timer(float(timeout_s), _kill, (proc.pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(
            {"launch_ns": launch, "end_ns": end, "exit_code": proc.returncode, "maxrss_kb": usage.ru_maxrss},
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
