#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout; its output goes to stderr so the
benchmark's own last stdout line stays the result. See perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def cmake(args):
    return subprocess.run(["cmake"] + args, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(out):
    configure = ["-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if cmake(configure) != 0:
        # A build tree configured for another source path cannot be reused.
        shutil.rmtree(out, ignore_errors=True)
        if cmake(configure) != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return cmake(["--build", out, "--target", "perfbench", "-j", jobs]) == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the library sources (src/) are not in this checkout",
              file=sys.stderr)
        return 2
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    binary = os.path.join(out, "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
