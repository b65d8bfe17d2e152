"""Runs job processes for the benchmark and reports each one's resource use.

The peak RSS that wait4 reports for a child starts from the high-water mark
of the process that spawned it. The benchmark's own memory grows with the
inputs it generates and checks, so it hands every job to this small process,
whose children then report their own peak.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "stderr": path}``, answered by one JSON line
on stdout, ``{"exit_code", "wall_s", "cpu_s", "peak_rss_mb"}``. It exits at
the end of stdin.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "exit_code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
