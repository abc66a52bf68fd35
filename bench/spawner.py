"""Starts the cli workload's ffkakeya processes, one at a time.

The kernel counts into a child's peak RSS the peak of the process that
started it.  This helper imports nothing heavy, so what it passes on is far
below an ffkakeya process's own peak, and its RUSAGE_CHILDREN peak is the
largest ffkakeya process's.  It reads one JSON argv per line and answers
one JSON line per process: returncode, stdout, stderr, maxrss_kb (the
largest child so far).  It stops at the end of its input.
"""

import json
import resource
import subprocess
import sys


def main() -> None:
    for line in sys.stdin:
        proc = subprocess.run(json.loads(line), capture_output=True, text=True, timeout=60)
        print(json.dumps({
            "returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }), flush=True)


if __name__ == "__main__":
    main()
