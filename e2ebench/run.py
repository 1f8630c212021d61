#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The e2ebench binary (driver.cpp) and the
repo's libraries build into $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench) on first use; build output goes to stderr. With
--trace 0 the binary is also launched a few times with --setup-only before
and after the main run, and setup_s in the result becomes the median over
all those launches and the main one, so it spans the whole run rather than
the host's state in its first second. The main run's standard output is
passed through, and the last line is the JSON result.
Every run appends one provenance-stamped record to e2ebench/records.jsonl,
which is tracked so the trajectory survives across changes (or to
--record FILE); nothing is ever truncated. Exit status: the binary's
(1 when its correctness gate fails), 2 when the benchmark cannot build or
run.
"""
import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 150
# Set-up launches before and again after the main run: at least this many
# each time, and more while they have taken less than the budget
# (paper_figures' set-up is about 12 ms, loaded_recovery's about 0.4 s).
SETUP_LAUNCHES = 3
SETUP_LAUNCHES_MAX = 20
SETUP_BUDGET_S = 0.5


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "e2ebench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "e2ebench")


def git_sha():
    """HEAD, suffixed -dirty when tracked files differ from it."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    if r.returncode != 0:
        return "unknown"
    status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                             "--untracked-files=no", "--", ".",
                             ":!e2ebench/records.jsonl"],
                            capture_output=True, text=True)
    return r.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def launch(cmd):
    """Runs cmd, passing it its own launch time; returns (code, stdout)."""
    cmd = cmd + ["--launched-ns", str(time.monotonic_ns())]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"e2ebench exceeded {RUN_TIMEOUT_S} s")
    return r.returncode, r.stdout


def setup_samples(cmd):
    """Set-up seconds of separate --setup-only launches."""
    samples = []
    t0 = time.monotonic()
    while len(samples) < SETUP_LAUNCHES or (
            len(samples) < SETUP_LAUNCHES_MAX and
            time.monotonic() - t0 < SETUP_BUDGET_S):
        code, out = launch(cmd + ["--setup-only"])
        last = out.splitlines()[-1] if out else ""
        if code != 0 or not last.startswith("setup_s "):
            sys.stdout.write(out)
            fail(f"set-up launch failed (exit {code})")
        samples.append(float(last.split()[1]))
    return samples


def provenance(lines):
    """key=value pairs from the binary's '# build_type=...' header line."""
    for line in lines:
        if line.startswith("# build_type="):
            return dict(kv.split("=", 1) for kv in line[2:].split())
    return {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--points", type=int, default=0,
                    help="run exactly this many points (smoke test)")
    ap.add_argument("--record", help="append the record here instead")
    args = ap.parse_args()

    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                       os.path.join(ROOT, ".bench_build"))),
        "e2ebench")
    exe = build(build_dir)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.points:
        cmd += ["--points", str(args.points)]
    setups = setup_samples(cmd) if args.trace == 0 else []
    code, stdout = launch(cmd)
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(stdout)
        fail(f"e2ebench printed no result (exit {code})")
    if args.trace == 0:
        setup = result["metrics"]["setup_s"]
        setups += [setup["value"]] + setup_samples(cmd)
        setup["value"] = statistics.median(setups)
        lines[-1:] = [f"# setup_s is the median over {len(setups)} launches, "
                      "before, of and after the main run",
                      json.dumps(result)]

    info = provenance(lines)
    flags = []
    if info.get("optimized") != "1":
        flags.append("unoptimized")
    if info.get("sanitizer") != "off":
        flags.append("sanitizer")
    record = {
        "schema": "odtn.e2ebench.v1",
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_sha": git_sha(),
        "build_type": info.get("build_type", "unknown"),
        "compiler": info.get("compiler", "unknown"),
        "nproc": int(info.get("nproc", os.cpu_count() or 0)),
        "flags": flags,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
    }
    with open(args.record or os.path.join(HERE, "records.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"# git_sha={record['git_sha']} flags={','.join(flags) or 'none'}")
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
