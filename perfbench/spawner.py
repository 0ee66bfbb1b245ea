"""Child-process spawner for the benchmark.

Linux carries a process's peak RSS across fork and exec, so a child spawned
straight from the benchmark (which holds scipy and its inputs) would report
the benchmark's peak as its own.  This small process is started first and
spawns every CLI call instead, so each child's `ru_maxrss` is its own.

Protocol: one JSON request per stdin line, one JSON reply per stdout line.
Request: {"cmd", "cwd", "env", "out", "err", "spawn_env"}; when `spawn_env`
names a variable, it is set to time.monotonic() just before the spawn.
Reply: {"rc", "wall_s", "maxrss_kb"}.  The spawner exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def serve(requests, replies):
    for line in requests:
        req = json.loads(line)
        env = req["env"]
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            if req.get("spawn_env"):
                env = dict(env, **{req["spawn_env"]: repr(time.monotonic())})
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        replies.write(json.dumps({"rc": proc.returncode, "wall_s": wall,
                                  "maxrss_kb": usage.ru_maxrss}) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
