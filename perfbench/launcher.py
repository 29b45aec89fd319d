"""Starts the benchmark's child processes from a small process of its own.

Linux counts the resident set of the process a child was spawned from in the
child's maximum RSS, so children started from run.py, which holds the
generated inputs, would report run.py's memory. This process
stays small. It reads one JSON request per line on stdin (argv, cwd, env,
stdout and stderr paths, timeout), runs the command and answers with one
JSON line: wall seconds, max RSS in KiB, exit code. It ends at end of input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                    stdout=out, stderr=err)
            killer = threading.Timer(request["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "rss_kb": usage.ru_maxrss, "code": proc.returncode}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
