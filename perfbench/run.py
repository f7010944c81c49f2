#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the AIMES libraries, the aimesd
daemon and the benchmark binary (aimes-perfbench) from source in Release
(perfbench/CMakeLists.txt, build tree .bench_build/), runs one workload,
checks every op's outputs, and prints one JSON line last: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 is the separate traced run
that reports the per-layer metrics and writes its spans as Chrome trace-event
JSON to .bench_build/traces/<workload>.json. Workloads: paper_small,
paper_large, campaign, daemon (see perfbench/NOTES.md). The exit code is 0
only when every op succeeded and the witness held.
"""

import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("paper_small", "paper_large", "campaign", "daemon")
BUILD = ".bench_build"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def cached_source_dir(build):
    """The source directory an existing build tree was configured from."""
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(root):
    """Configures (once) and builds aimes-perfbench and aimesd; True on success."""
    source = os.path.join(root, "perfbench")
    tree = os.path.join(root, BUILD)
    cached = cached_source_dir(tree)
    if cached is not None and os.path.realpath(cached) != os.path.realpath(source):
        shutil.rmtree(tree)  # a tree configured for another checkout
        cached = None
    os.makedirs(tree, exist_ok=True)
    with open(os.path.join(tree, "build.log"), "a") as log:
        if cached is None:
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", source, "-B", tree,
                         "-DCMAKE_BUILD_TYPE=Release"] + generator
            if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        compile_ = ["cmake", "--build", tree, "--target", "aimes-perfbench", "-j", jobs]
        return subprocess.run(compile_, stdout=log, stderr=log).returncode == 0


def die_with_parent():
    """Child-side hook: aimes-perfbench (and through it aimesd) dies with us."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-op", type=int, default=None,
                        help="test hook: corrupt this op's output once")
    args = parser.parse_args()
    if args.seed < 0:
        return fail("--seed must be a non-negative integer")

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        return fail("run from the repository root: no CMakeLists.txt and src/ here")
    if not build(root):
        log = os.path.join(root, BUILD, "build.log")
        return fail("build failed; see " + log)

    binary = os.path.join(root, BUILD, "aimes-perfbench")
    work = os.path.join(root, BUILD, "run", "%s-%d" % (args.workload, os.getpid()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--repo", root, "--aimesd", os.path.join(root, BUILD, "aimes", "tools", "aimesd"),
               "--work-dir", work]
    if args.trace:
        traces = os.path.join(root, BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    if args.perturb_op is not None:
        command += ["--perturb-op", str(args.perturb_op)]
    sys.stdout.flush()
    code = subprocess.run(command, preexec_fn=die_with_parent).returncode
    if code == 0:
        shutil.rmtree(work, ignore_errors=True)  # a failed run keeps aimesd's logs
    return code


if __name__ == "__main__":
    sys.exit(main())
