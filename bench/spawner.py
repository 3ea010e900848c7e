"""Start, time and reap the benchmark's child processes.

    python3 bench/spawner.py    # started by bench/run.py, one per run

On Linux a process's peak RSS (``ru_maxrss``) includes the peak RSS of the
process it was forked from, because the kernel keeps the pre-exec high-water
mark across exec.  The harness grows while it checks large outputs, so it
does not fork the measured children itself: this small helper, started
while the harness is still small, forks them instead.

Reads one JSON request per line on stdin,
``{"argv", "cwd", "stdout", "stderr", "timeout"}``, runs the child with its
stdout and stderr sent to the named files, and answers with one JSON line,
``{"seconds", "maxrss_kib", "code"}``.  Exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run_child(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, cwd=request["cwd"])
        # os.kill, not proc.kill: Popen.kill may reap the child before wait4 does
        timer = threading.Timer(request["timeout"], os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "maxrss_kib": usage.ru_maxrss, "code": code}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run_child(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
