"""Start ``detmax run`` children from a small process and report their rusage.

A child's ``ru_maxrss`` counts the resident set of the process it was
forked from, up to the moment it execs.  Started from the benchmark, which
holds the generated documents and loaded instances, every child would
report at least the benchmark's own peak.  So the benchmark starts this
process first, while it is still small, and has it start each child.

Protocol: one JSON object per line on stdin, ``{"cmd", "cwd", "env",
"stderr"}``; one JSON object per line on stdout, ``{"wall_s", "maxrss_kib",
"exit"}``.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["stderr"], "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(job["cmd"], cwd=job["cwd"], env=job["env"],
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({
            "wall_s": wall,
            "maxrss_kib": usage.ru_maxrss,
            "exit": proc.returncode,
        }) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
