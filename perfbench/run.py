#!/usr/bin/env python3
"""Build and run the source-to-bytes benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune from the checkout that contains this
file, then runs one workload for S seconds.  Everything it writes stays in
the checkout: the build in _build/, input and output arrays and the Chrome
trace of a --trace 1 run in .perfbench/.  The last line of standard output
is the JSON result; build logs go to standard error.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
RUN_TIMEOUT = 175


def source_id(env):
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark is built from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True, env=env)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha1()
    for top in ("dune-project", "lib", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".ml", ".mli")) or f in ("dune", "dune-project"))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at %s; run from a full checkout" % ROOT,
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    # The benchmark fixes the domain count itself and never injects faults.
    env.pop("RIOT_JOBS", None)
    env.pop("RIOT_FAILPOINTS", None)
    # Keep dune's shared cache out of the home directory.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(WORK, "cache")
    os.makedirs(WORK, exist_ok=True)

    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", WORK, "--commit", source_id(env)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
