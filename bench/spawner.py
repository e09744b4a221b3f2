"""Starts and times child processes for bench/run.py.

Reads one JSON request per line on stdin, {"argv": [...], "stdout": path,
"stderr": path}, runs the command with stdin from /dev/null and its output
in the given files, and answers each with one JSON line: seconds from spawn
to exit, the exit code, and the child's own peak RSS from wait4.

It stays small on purpose. Linux carries the spawning process's peak RSS
over exec into the child's ru_maxrss, so a child's peak can only be read
from a parent whose own peak is lower than the child's.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        argv = request["argv"]
        with open(request["stdout"], "wb") as out, \
                open(request["stderr"], "wb") as err:
            actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                       (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                       (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
            start = time.perf_counter()
            pid = os.posix_spawn(argv[0], argv, os.environ,
                                 file_actions=actions)
            _, status, usage = os.wait4(pid, 0)
            seconds = time.perf_counter() - start
        print(json.dumps({"seconds": seconds,
                          "exit_code": os.waitstatus_to_exitcode(status),
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
