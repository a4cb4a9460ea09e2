#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

    python3 perfbench/run.py --workload tp0_refute --seed 1 --seconds 30 \
        --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) as a Release build of perfbench/CMakeLists.txt.
The driver's stdout is passed through: a host header line, then, with
--trace 1, a span summary line, then the op sample count, and last the
result line {"correct", "attempted", "failed", "metrics"}. A table of every metric
with its unit goes to stderr. The exit code is the driver's: 0 when every
output was checked correct, 1 on any failure, 2 on a usage error or a
Debug/sanitizer build.

    python3 perfbench/run.py --list-metrics

prints every metric by name with its unit and checks them against
BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no tango sources next to perfbench/ (src/ missing)")
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """SHA-256 over every file of src/ and perfbench/, path and content."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    # The ceiling keeps git from reporting an enclosing repository when
    # the checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10,
                           env=env)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none"


def list_metrics(exe):
    out = subprocess.run([exe, "--list-metrics"], capture_output=True,
                         text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    for kind, name, unit in rows:
        print(f"{kind:10} {name:32} {unit}")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return 0
    with open(spec_path) as f:
        spec = json.load(f)
    declared = [(kind, m["name"], m["unit"])
                for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    if sorted(declared) != sorted(tuple(r) for r in rows):
        log("perfbench: BENCHMARK.json and the driver disagree on the metrics")
        return 1
    return 0


def main():
    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(config["workloads"]))
    ap.add_argument("--seed", type=int, default=config["default_seed"])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list-metrics", action="store_true")
    args = ap.parse_args()
    if not args.list_metrics and args.workload is None:
        ap.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    exe = build(build_dir)
    if exe is None:
        log("perfbench: build failed")
        return 2
    if args.list_metrics:
        return list_metrics(exe)

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir,
           "--rate", str(config["serve_sessions"]["open_loop_rate_per_s"]),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=3 * args.seconds + 60)
    except subprocess.TimeoutExpired:
        log("perfbench: the driver timed out")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
            for name, m in result.get("metrics", {}).items():
                log(f"{name:32} {m['value']:>16.6g} {m['unit']}")
        except (ValueError, AttributeError, KeyError):
            pass
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
