"""Runs the CLI processes of a cli_queries pass from a small process.

    python3 -S bench/spawner.py

Reads one JSON argv list per stdin line, runs it, and answers with one
JSON line [exit code, stdout, seconds]. An empty line ends the session;
the answer is the children's peak RSS in MB. Linux carries a spawning
process's peak RSS across exec into each child's ru_maxrss, so children
spawned from the worker (which has imported relaygain) would all read at
least the worker's peak; this process, started without site packages,
keeps that floor below a CLI child's own footprint.
"""

import json
import resource
import subprocess
import sys
import time

CHILD_TIMEOUT_S = 60


def main() -> None:
    for line in sys.stdin:
        if not line.strip():
            break
        cmd = json.loads(line)
        t = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        seconds = time.perf_counter() - t
        print(json.dumps([proc.returncode, proc.stdout, seconds]), flush=True)
    print(json.dumps(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0), flush=True)


if __name__ == "__main__":
    main()
