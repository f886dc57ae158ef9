#!/usr/bin/env python3
"""End-to-end benchmark of the sparse analyzer.

Run from the root of a source tree:

    python3 perfbench/run.py --workload interval-large --seed 1 \
        --seconds 20 --trace 0

Builds the harness (perfbench/CMakeLists.txt, which compiles ../src and
the spa-serve daemon) into .bench_build/perfbench when the sources changed
since the last build, runs one measured run of the workload and prints
its JSON result as the last line of stdout.  Build output goes to
stderr.  See perfbench/README.md.
"""

import time

# setup_s runs from here, the start of the process, to the harness's
# first timed operation (less the build, when this run builds).
START = time.monotonic()

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_REL = os.path.join(".bench_build", "perfbench")
BUILD = os.path.join(ROOT, BUILD_REL)
WORKLOADS = ["interval-large", "check-batch", "octagon", "serve-edits"]
RUN_TIMEOUT_S = 175


def source_files():
    """Every file the harness build reads."""
    files = [os.path.join(ROOT, "tools", "spa-serve.cpp"),
             os.path.join(HERE, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "harness")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    return sorted(f for f in files if os.path.isfile(f))


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build():
    """Configures and builds when the sources differ from the last build.
    Returns the binaries and whether it built."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "tools", "spa-serve.cpp")):
        sys.exit("perfbench: no analyzer sources (src/, tools/) next to "
                 "perfbench/; run from the root of a source tree")
    want = stamp()
    stamp_file = os.path.join(BUILD, "sources.sha256")
    bins = [os.path.join(BUILD, b) for b in ("spa-perfbench", "spa-serve")]
    if all(os.path.isfile(b) for b in bins) and os.path.isfile(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == want:
                return bins, False
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    with open(stamp_file, "w") as fh:
        fh.write(want + "\n")
    return bins, True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    start = START
    t0 = time.monotonic()
    (harness, serve), built = build()
    if built:
        start += time.monotonic() - t0
    work = os.path.join(".bench_build", "work",
                        "%s-%d" % (args.workload, os.getpid()))
    cmd = [harness, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--serve-bin", serve,
           "--work-dir", work, "--start", repr(start)]
    # Own process group, so a run that overstays is stopped together with
    # the analysis children and the daemon it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: harness exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
