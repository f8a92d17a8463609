"""Spawns the benchmark's timed processes and measures them.

    python bench/launcher.py

Reads one JSON request per line on standard input, ``{"argv": [...],
"cwd": ..., "env": {...}, "err": path}``, runs the command with standard
output discarded and standard error to ``err``, and answers with one JSON
line ``{"wall": seconds, "rss_mb": ..., "rc": ...}``: wall time from spawn to
exit, the child's ``ru_maxrss`` from ``os.wait4``, and its exit code.  It
exits when its standard input closes.

It exists to stay small.  A child that Python spawns with vfork reports as
its own ``ru_maxrss`` at least the peak RSS of the process that spawned it,
so the benchmark process, which reads and compares outputs, must not be the
one that spawns.  This process imports little and holds nothing, so its peak
(about 10 MB) stays below that of any rspin process.
"""

import json
import os
import signal
import subprocess
import sys
import time


def run(request: dict) -> dict:
    with open(request["err"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"], env=request["env"], stdout=subprocess.DEVNULL, stderr=err
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024, "rc": proc.returncode}


def main() -> None:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so the child is stopped
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
