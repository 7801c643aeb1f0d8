#!/usr/bin/env python3
"""Build the simulator and tlbbench from source, then run one workload.

Run from the repository root:

    python3 tlbbench/run.py --workload storm --seed 1 --seconds 20 --trace 0

Arguments are passed to tlbbench/main.exe unchanged. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. The
exit code is non-zero, with no result printed, when the tree to build is
not there.
"""

import os
import shutil
import subprocess
import sys


def main():
    for need in ("dune-project", os.path.join("lib", "core"), os.path.join("tlbbench", "dune")):
        if not os.path.exists(need):
            print(f"tlbbench: {need} not found; run from the repository root", file=sys.stderr)
            return 2
    dune = shutil.which("dune")
    if dune:
        cmd = [dune]
    elif shutil.which("opam"):
        cmd = ["opam", "exec", "--", "dune"]
    else:
        print("tlbbench: dune not found", file=sys.stderr)
        return 2
    # Keep every build artefact inside the tree: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        cmd + ["build", "--root", ".", "./tlbbench/main.exe"],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("tlbbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "tlbbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
