#!/usr/bin/env python3
"""Self-test of the benchmark: one op cycle per workload at a fixed seed.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it runs perfbench/run.py with --trace 0 and --trace 1
(--seconds 0: the window closes after one whole cycle) and checks that

  * every end-to-end metric BENCHMARK.json declares is printed by name
    with its unit in each --trace 0 report, and every per-layer metric in
    the --trace 1 report of at least one workload (run.py fills the ones a
    workload does not measure with 0, so the result line alone proves
    nothing);
  * no op failed (fail_rate 0, success_rate 1);
  * rounds_per_op equals the value pinned below for SEED;
  * serve-hot's cache hit ratio is 1.0;
  * every cc_serve daemon exited with status 0 (the run reports it) and
    left no socket file behind.

It exits non-zero if any check fails.
"""

import glob
import json
import os
import subprocess
import sys

SEED = 7

# rounds_per_op at SEED: exact, since it is averaged over whole op cycles.
PINNED_ROUNDS = {
    "serve-hot": 334.265625,
    "solve-cold": 329.2083333333333,
    "flow-clique": 14271.458333333334,
}

failures = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    r = subprocess.run(cmd, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        check(False, "%s --trace %d exits 0" % (workload, trace))
        return None, []
    lines = r.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), lines[:-1]


def printed(lines, name, unit):
    return any(l.split() and l.split()[0] == name and l.split()[-1] == unit
               for l in lines)


def printed_names(lines):
    """First words of the report lines: the metric names among them."""
    return {l.split()[0] for l in lines if l.split()}


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    per_layer_printed = set()
    for workload in PINNED_ROUNDS:
        for trace in (0, 1):
            declared = spec["per_layer" if trace else "end_to_end"]
            result, lines = run(workload, trace)
            if result is None:
                continue
            tag = "%s --trace %d" % (workload, trace)
            metrics = result["metrics"]
            names = printed_names(lines)
            for m in declared:
                shown = printed(lines, m["name"], m["unit"])
                if trace == 0 or m["name"] in names:
                    check(shown, "%s: %s printed with unit %s"
                          % (tag, m["name"], m["unit"]))
                if trace == 1 and shown:
                    per_layer_printed.add(m["name"])
            fail_rate = [l.split() for l in lines
                         if l.split()[:1] == ["fail_rate"]]
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0
                  and fail_rate == [["fail_rate", "0", "ratio"]],
                  "%s: fail_rate 0 over %d ops" % (tag, result["attempted"]))
            if trace == 0:
                check(metrics["success_rate"]["value"] == 1.0,
                      "%s: success_rate 1" % tag)
                got = metrics["rounds_per_op"]["value"]
                want = PINNED_ROUNDS[workload]
                check(got == want, "%s: rounds_per_op %r == pinned %r"
                      % (tag, got, want))
            if workload == "serve-hot":
                if trace == 1:
                    check(metrics["serve.cache_hit_ratio"]["value"] == 1.0,
                          "%s: cache hit ratio 1.0" % tag)
                check(any("daemon exit clean, socket removed" in l
                          for l in lines),
                      "%s: daemon reports a clean exit" % tag)
                socks = glob.glob(os.path.join(build_dir(), "perfbench-out",
                                               "*.sock"))
                check(socks == [], "%s: no socket file left (%s)"
                      % (tag, " ".join(socks) or "none"))
    for m in spec["per_layer"]:
        check(m["name"] in per_layer_printed,
              "per-layer metric %s is measured by some workload" % m["name"])
    print("self-test: %s" % ("FAILED (%d)" % len(failures) if failures
                             else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
