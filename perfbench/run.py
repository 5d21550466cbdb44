#!/usr/bin/env python3
"""Build the repository and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Workloads: serve-hot, solve-cold, flow-clique (README.md in this directory
says why each). The script

  * builds perfbench/perfbench.exe and bin/cc_serve.exe with dune into the
    build directory named by CARGO_TARGET_DIR (default .bench_build), with
    dune's shared cache off so nothing is written outside the checkout;
  * clears every CC_* variable and OCAMLRUNPARAM, so the libraries and
    the GC run their defaults (arena kernel, 1 domain, unicast model, no
    sanitizer, no faults);
  * runs the workload and prints its report, ending with one JSON line:
    {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
    of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1
    (metrics a workload does not exercise read 0);
  * stops and reaps every process it started, daemons included.

It exits non-zero, printing no result, if the build or the run fails or if
the current directory is not a checkout of the repository.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("serve-hot", "solve-cold", "flow-clique")
RUN_LIMIT_S = 170  # one run, build excluded, must end well within 180 s
BUILD_LIMIT_S = 840
PR_SET_CHILD_SUBREAPER = 36


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def clean_env():
    """The environment of the build and the run: no CC_* knob and no OCaml
    runtime parameters, so the libraries and the GC run their defaults."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CC_") and k not in ("OCAMLRUNPARAM", "CAMLRUNPARAM")}
    env["DUNE_CACHE"] = "disabled"
    return env


def build(build_dir, env):
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--profile", "release", "-j", "2",
           "./perfbench/perfbench.exe", "./bin/cc_serve.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (dune exit %d)" % r.returncode)


def reap_all(pgid):
    """Kill what is left of the run's process group and reap every child,
    including orphaned daemons re-parented to this (subreaper) process."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not all(os.path.exists(p) for p in
               ("dune-project", "lib", "bin/cc_serve.ml", "BENCHMARK.json")):
        fail("run from the root of a repository checkout "
             "(dune-project, lib/, bin/ or BENCHMARK.json is missing)")
    declared = declared_metrics(args.trace == 1)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Relative, so the daemon's Unix socket path stays within the 107
    # bytes a socket address holds however deep the checkout lies.
    out_dir = os.path.relpath(os.path.join(build_dir, "perfbench-out"))
    env = clean_env()
    build(build_dir, env)
    os.makedirs(out_dir, exist_ok=True)

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--serve", os.path.join(build_dir, "default", "bin", "cc_serve.exe"),
           "--out", out_dir]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        reap_all(proc.pid)
        fail("the run exceeded %d s" % RUN_LIMIT_S)
    finally:
        reap_all(proc.pid)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("the run failed (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("the run printed no result line")
    metrics = result["metrics"]
    for name, m in metrics.items():
        if declared.get(name) != m["unit"]:
            fail("metric %s (%s) is not declared so in BENCHMARK.json"
                 % (name, m["unit"]))
    for name, unit in declared.items():
        if name not in metrics:
            if not args.trace:
                fail("end-to-end metric %s is missing" % name)
            metrics[name] = {"value": 0, "unit": unit}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
