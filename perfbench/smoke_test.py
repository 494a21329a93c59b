#!/usr/bin/env python3
"""Tests for the benchmark: its C++ helper tests, then a tiny-SF run of
every workload, untraced and traced, asserting that the run passes its
checks and emits exactly the metrics BENCHMARK.json names.

    python3 perfbench/smoke_test.py      (from the root of the source tree)
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's build step)


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = run.build(targets=("perfbench", "perfbench_helpers_test"))
    if subprocess.run([os.path.join(out, "perfbench_helpers_test")]).returncode:
        return 1

    failures = []
    for w in run.WORKLOADS:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", "3", "--seconds", "1",
                   "--trace", trace, "--sf", "0.01"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            before = len(failures)
            label = "%s --trace %s" % (w, trace)
            if proc.returncode != 0:
                failures.append("%s: exit %d\n%s" % (label, proc.returncode,
                                                     proc.stderr[-2000:]))
                continue
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append("%s: metrics differ: missing %s, extra %s, "
                                "units %s" % (
                                    label, sorted(set(want) - set(got)),
                                    sorted(set(got) - set(want)),
                                    sorted(k for k in want.keys() & got.keys()
                                           if want[k] != got[k])))
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s: checks failed" % label)
            print("ok  " if len(failures) == before else "FAIL", label,
                  flush=True)
    for f in failures:
        print(f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
