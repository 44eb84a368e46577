#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first call configures and
builds the library and the benchmark (Release) into the directory named by
CARGO_TARGET_DIR (default: .bench_build) under perfbench/; later calls
rebuild only what changed. Build output goes to build.log there, never to
stdout: the last stdout line of a run is its JSON result. Inputs are
generated under .bench_work/ and removed afterwards; traced runs leave their
Chrome trace-event JSON under .bench_out/. Nothing is written outside the
checkout: temporary files (the worker result handoff) go to .bench_work/tmp.

Exits nonzero without printing a result when the build fails, for instance
when the library sources are not present.
"""
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build() -> Path:
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4", "--target",
                  "perfbench", "perfbench_selftest"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("perfbench: build failed (%s):\n%s\n"
                                 % (log_path, "\n".join(tail)))
                sys.exit(1)
    return out


def run(command: list) -> int:
    """Runs `command` in its own process group; kills the whole group
    (worker processes included) if it overruns."""
    env = dict(os.environ)
    tmp = ROOT / ".bench_work" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    child = subprocess.Popen(command, cwd=ROOT, env=env,
                             preexec_fn=os.setpgrp)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.stderr.write("perfbench: run exceeded %d s, killed\n"
                         % RUN_TIMEOUT_S)
        return 1


def main() -> int:
    args = sys.argv[1:]
    out = build()
    if args == ["--self-test"]:
        return run([str(out / "perfbench_selftest"),
                    str(ROOT / ".bench_work")])
    return run([str(out / "perfbench"), *args,
                "--work-dir", str(ROOT / ".bench_work"),
                "--out-dir", str(ROOT / ".bench_out")])


if __name__ == "__main__":
    sys.exit(main())
