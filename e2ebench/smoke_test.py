#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 e2ebench/smoke_test.py

Runs three points of every workload in BENCHMARK.json, untraced and traced,
and checks that each run is correct, that the traced reconstruction
reproduced the untraced digest of every point it printed, and that the
result carries exactly the metrics BENCHMARK.json names, with their units.
Exits 1 on the first failing workload/mode, after reporting all of them.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGEST = re.compile(r"^# point \d+ digest untraced=(\w+) traced=(\w+)$")


def check(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--points", "3", "--record", os.devnull]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        return [f"exit {r.returncode}: {r.stderr.strip()[-300:]}"]
    errors = []
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"incorrect result: {lines[-1][:200]}")
    digests = [DIGEST.match(line) for line in lines]
    digests = [m for m in digests if m]
    if len(digests) != 3:
        errors.append(f"expected 3 digest lines, got {len(digests)}")
    errors += [f"traced digest {m[2]} != untraced {m[1]}"
               for m in digests if m[1] != m[2]]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(k for k in set(got) & set(expected)
                       if got[k] != expected[k])
        errors.append(f"metrics differ: missing={missing} extra={extra} "
                      f"wrong units={units}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = False
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[group]}
            errors = check(w["name"], trace, expected)
            print(f"{'FAIL' if errors else 'ok  '} {w['name']} --trace {trace}")
            for e in errors:
                print(f"     {e}")
            failed |= bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
