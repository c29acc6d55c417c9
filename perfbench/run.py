#!/usr/bin/env python3
"""Build perfbench from this checkout and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload static-query --seed 1 --seconds 20 --trace 0

The engine and the load generator are compiled with CMake into the build
directory named by $CARGO_TARGET_DIR (default .bench_build). The run keeps
its stores under .bench_data/ and, with --trace 1, writes its spans to
.bench_out/. The binary's output is passed through; its last line is the
result JSON.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("static-query", "mixed-update", "served-mixed")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def local_tmp_env():
    """The environment with TMPDIR inside the checkout (compiler temp files)."""
    tmp = os.path.join(ROOT, ".bench_data", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configure and build; returns the binary path or None on failure."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=local_tmp_env()) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                return None
    return os.path.join(out, "perfbench")


def source_hash():
    """Hash of the engine and benchmark sources, for like-with-like checks."""
    h = hashlib.sha1()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:12]


def git_rev():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        sys.stderr.write("perfbench: build failed\n")
        return 2

    run_id = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    data_dir = os.path.join(ROOT, ".bench_data", run_id)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", data_dir, "--git-rev", git_rev(), "--source-hash", source_hash()]
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir, "spans-%s.jsonl" % run_id)]
    sys.stdout.flush()
    try:
        code = subprocess.call(cmd, timeout=RUN_TIMEOUT_S, env=local_tmp_env())
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        code = 3
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
