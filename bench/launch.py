"""Start one process and report its wall time and its own peak RSS.

    python3 -I -S bench/launch.py TIMEOUT_S OUT ERR -- ARGV...

A child started from a large process by vfork or fork records that
process's peak RSS as its own ``ru_maxrss`` when it calls exec.  The
benchmark holds its inputs in memory, so it starts program processes
through this small interpreter: the peak read here with ``os.wait4`` is
then the child's.  Prints one JSON object: exit code, wall seconds, the
child's CPU seconds (user plus system) and ``ru_maxrss`` in KiB.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> None:
    timeout, out_path, err_path = float(sys.argv[1]), sys.argv[2], sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1 :]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, timeout)
        _, status, rusage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = rusage.ru_utime + rusage.ru_stime
    print(json.dumps({"code": proc.returncode, "wall_s": wall, "cpu_s": cpu, "maxrss_kb": rusage.ru_maxrss}))


if __name__ == "__main__":
    main()
