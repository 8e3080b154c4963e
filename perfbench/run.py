#!/usr/bin/env python3
"""Builds the awr benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build)/perfbench, and the benchmark runs in its work/
subdirectory, where awrd's socket and the traced run's span file are
written.  Build output goes to stderr; the benchmark's result JSON is the
last line of stdout.  --test builds and runs the benchmark's own tests.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir, target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no awr sources under {ROOT / 'src'}; nothing to benchmark")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run(cmd, cwd):
    proc = subprocess.Popen(cmd, cwd=cwd)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main(argv):
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    work_dir = build_dir / "work"
    target = "perfbench_test" if argv == ["--test"] else "perfbench"
    if not build(build_dir, target):
        return 2
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / target)] + ([] if target == "perfbench_test" else argv)
    return run(cmd, work_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
