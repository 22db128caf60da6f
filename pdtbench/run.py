#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 pdtbench/run.py --workload build_cold --seed 1 --seconds 10 --trace 0
    python3 pdtbench/run.py --self-test

Run from the root of a PDT checkout.  Builds pdtbench/pdtbench.exe with
dune (the build's progress goes to standard error), then runs it with the
given arguments; the last line of standard output is the result object.
"""
import os
import signal
import subprocess
import sys

TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "pdtbench", "pdtbench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("pdtbench", "dune"))):
        print("pdtbench: run from the root of a PDT source checkout",
              file=sys.stderr)
        return 2
    # the shared dune cache lives outside the checkout; keep the build in it
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./pdtbench/pdtbench.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("pdtbench: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    proc = subprocess.Popen([EXE] + sys.argv[1:], start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("pdtbench: timed out after %d s" % TIMEOUT_S, file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
